"""One workload in one process; started by run.py, never by hand.

    python perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
                               --mode setup|measure --deadline D

``setup`` imports the program, builds the inputs, runs the first task once as
a warm-up and exits; run.py times the whole process.  ``measure`` does the
same and then runs passes over the task list for ``--seconds`` (at least
three passes; none starts after ``--deadline``).  The
result is one JSON object on the last line of stdout.

The cli-suite client never imports chronoq: every task is a
``python -m chronoq.cli ... --json`` child, run one at a time.  It imports
numpy only for the host-speed probe (calibrate.py), which runs before every
task of every workload.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from calibrate import probe
from cli_shim import TRACE_MARKER
from harness import run_passes, run_task
from tracer import Tracer, chronoq_modules, install, merge
from workloads import BUILDERS, WORKLOADS, cli_suite

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CLI_TIMEOUT_S = 120


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _check_source():
    import chronoq

    where = Path(chronoq.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"chronoq imported from {where}, not from this checkout's src/")


def _cli_launcher(traced: bool, summary: dict):
    prefix = [str(HERE / "cli_shim.py")] if traced else ["-m", "chronoq.cli"]

    def launch(argv):
        proc = subprocess.run(
            [sys.executable, *prefix, *argv], cwd=ROOT, capture_output=True, text=True,
            timeout=CLI_TIMEOUT_S,
        )
        if traced:
            for line in proc.stderr.splitlines():
                if line.startswith(TRACE_MARKER):
                    merge(summary, json.loads(line[len(TRACE_MARKER):]))
        return proc

    return launch


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--deadline", type=float, required=True)
    args = ap.parse_args()
    traced = bool(args.trace)

    tracer = None
    reference: dict = {}
    summary: dict = {"functions": {}, "edges": []}
    if args.workload == "cli-suite":
        tasks = cli_suite(args.seed, _cli_launcher(traced, summary))
        cpu_clock, rusage_of = _children_cpu, resource.RUSAGE_CHILDREN
        failures = []
    else:
        _check_source()
        if traced:
            tracer = Tracer()
            install(tracer, chronoq_modules())
        tasks = BUILDERS[args.workload](args.seed)
        cpu_clock, rusage_of = time.process_time, resource.RUSAGE_SELF
        _, message = run_task(tasks[0], {}, reference)  # warm-up
        failures = [f"warm-up {message}"] if message else []
        if tracer is not None:
            tracer.reset()  # count only the measured passes

    warm_ups = 0 if args.workload == "cli-suite" else 1
    result = {"attempted": warm_ups, "failed": len(failures), "failures": failures}
    if args.mode == "measure":
        passes = run_passes(
            tasks, args.seconds, cpu_clock, deadline_s=args.deadline,
            on_pass_start=tracer.clear_spans if tracer else None, reference=reference,
            probe=probe,
        )
        result["attempted"] += sum(p.attempted for p in passes)
        result["failed"] += sum(p.failed for p in passes)
        result["failures"] = (failures + [m for p in passes for m in p.failures])[:20]
        result["passes"] = [
            {"wall_s": p.wall_s, "cpu_s": p.cpu_s, "probe_s": p.probe_s, "probes": p.probes,
             "task_s": p.task_s, "metrics": p.metrics}
            for p in passes
        ]
        result["peak_rss_kb"] = resource.getrusage(rusage_of).ru_maxrss
        if traced:
            OUT.mkdir(exist_ok=True)
            if tracer is not None:
                summary = tracer.summary()
                tracer.write_spans(OUT / f"spans-{args.workload}.jsonl")
            (OUT / f"trace-{args.workload}.json").write_text(json.dumps(summary, indent=1))
            result["trace"] = summary
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
