"""Run one chronoq CLI command with the tracer installed.

    python perfbench/cli_shim.py <chronoq arguments...>

Behaves like ``python -m chronoq.cli``: same stdout and exit code.  The import
of ``chronoq.cli`` and the command itself are spans of the ``cli`` layer;
the library calls inside are traced as in the in-process workloads.  The
trace summary goes to stderr as one line starting with ``PERFBENCH_TRACE ``.
"""

from __future__ import annotations

import importlib
import json
import sys
import traceback

from tracer import Tracer, chronoq_modules, install

TRACE_MARKER = "PERFBENCH_TRACE "


def main() -> int:
    tracer = Tracer()
    cli = tracer.call("cli.import", "cli", importlib.import_module, "chronoq.cli")
    install(tracer, [cli] + chronoq_modules())
    try:
        tracer.call("cli.main", "cli", cli.main.main, args=sys.argv[1:], prog_name="chronoq")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught error still ends the child with a trace
        traceback.print_exc()
        code = 1
    sys.stdout.flush()
    sys.stderr.write(TRACE_MARKER + json.dumps(tracer.summary()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
