"""chronoq benchmark: one workload, one command, every metric with its unit.

    python3 perfbench/run.py --workload theta-consensus --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25
    python3 perfbench/run.py --self-test

Run it from anywhere; it measures the source tree it sits in (``src/`` next
to this directory), never an installed chronoq.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of several
fresh processes that import, build the inputs and run one warm-up task; for
cli-suite an import-only ``python -c "import chronoq.cli"``), ``wall_s`` and
``cpu_s`` (median per pass over the fixed task list, every result verified;
CPU includes children) and ``peak_rss_mb`` (the workload process, or the
largest CLI child).  The three times are scaled to the host's reference speed
by a probe timed beside them (calibrate.py); the measured values follow the
table on a ``# measured`` line.  ``--trace 1`` splits ``--seconds`` between an untraced
and a traced process and prints the per-layer metrics, including the tracing
overhead.  Failed tasks are counted in ``failed`` (and ``failed_ratio``),
never dropped from the timing.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any error of the harness itself
ends the run with a non-zero exit code and no such line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

# BLAS/OpenMP threads of this process and every child, never above nproc.
# One thread is steady; two were seen to make a small theta round take 40x
# its usual time now and then.  Set before numpy is first imported (by the
# host-speed probe below), so the probe here runs as it does in the workers.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(min(THREADS, os.cpu_count() or 1))

from calibrate import probe, scale  # noqa: E402
from harness import median  # noqa: E402
from metrics import END_TO_END, PER_LAYER, end_to_end, per_layer  # noqa: E402
from workloads import HONEST_ALARMS, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up samples per run, half taken before the measurement and half after
# it, so that their median spans the run rather than its first seconds.
SETUP_SAMPLES = 10
SETUP_TIMEOUT_S = 60
# A measuring process starts no pass later than this past its --seconds, and
# is killed this much later still; both keep a run well inside three minutes.
DEADLINE_SLACK_S = 30
KILL_SLACK_S = 60


class BenchError(RuntimeError):
    """The harness itself failed: no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.pop("CHRONOQ_SEED", None)
    return env


def run_child(cmd: list, env: dict, timeout: float) -> tuple[float, subprocess.CompletedProcess]:
    """Run one child in its own process group; kill the group on timeout."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(cmd[1:3])} exceeded {timeout:.0f} s and was killed")
    seconds = time.perf_counter() - start
    return seconds, subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def worker_cmd(args, mode: str, traced: bool, seconds: float) -> list:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(int(traced)),
            "--mode", mode, "--deadline", str(seconds + DEADLINE_SLACK_S)]


def worker_result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_samples(args, env, count: int) -> tuple[list, list, list]:
    """Time ``count`` fresh processes, each just after a host-speed probe.

    Returns (seconds at reference speed, measured seconds, worker results).
    """
    times, raw, results = [], [], []
    for _ in range(count):
        probe_s = median(probe() for _ in range(3))
        if args.workload == "cli-suite":
            cmd = [sys.executable, "-c", "import chronoq.cli"]
        else:
            cmd = worker_cmd(args, "setup", False, 0.0)
        seconds, proc = run_child(cmd, env, SETUP_TIMEOUT_S)
        if args.workload == "cli-suite":
            if proc.returncode != 0:
                raise BenchError(f"import chronoq.cli failed: {proc.stderr.strip()[-800:]}")
        else:
            results.append(worker_result(proc))
        times.append(scale(seconds, probe_s))
        raw.append(seconds)
    return times, raw, results


def measure(args, env, traced: bool, seconds: float) -> dict:
    _, proc = run_child(worker_cmd(args, "measure", traced, seconds), env,
                        seconds + DEADLINE_SLACK_S + KILL_SLACK_S)
    return worker_result(proc)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run(args) -> None:
    env = child_env()
    runs = []
    import_samples: list = []
    notes = []
    if args.trace:
        if args.workload == "cli-suite":
            import_samples, _, _ = setup_samples(args, env, SETUP_SAMPLES)
        untraced = measure(args, env, False, args.seconds / 2)
        traced = measure(args, env, True, args.seconds / 2)
        runs = [untraced, traced]
        metrics = per_layer(untraced, traced, import_samples)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        passes = f"{len(untraced['passes'])} untraced + {len(traced['passes'])} traced passes"
    else:
        setup, setup_raw, setup_runs = setup_samples(args, env, SETUP_SAMPLES // 2)
        untraced = measure(args, env, False, args.seconds)
        later, later_raw, later_runs = setup_samples(args, env,
                                                     SETUP_SAMPLES - SETUP_SAMPLES // 2)
        setup, runs = setup + later, setup_runs + later_runs + [untraced]
        setup_raw += later_raw
        metrics = end_to_end(setup, untraced)
        measured = untraced["passes"]
        notes.append(
            f"# measured, before scaling to reference speed: setup_s={median(setup_raw):.6g} "
            f"wall_s={median(p['wall_s'] for p in measured):.6g} "
            f"cpu_s={median(p['cpu_s'] for p in measured):.6g} "
            f"probe_ms={1000 * median(p['probe_s'] / p['probes'] for p in measured):.6g}")
        units = {name: unit for name, unit, _, _ in END_TO_END}
        passes = f"{len(untraced['passes'])} passes, setup median of {len(setup)}"

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    versions = untraced["versions"]
    print(f"# chronoq perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} ({passes})")
    print(f"# env: python={versions['python']} numpy={versions['numpy']} "
          f"scipy={versions['scipy']} blas_threads={env['OMP_NUM_THREADS']} "
          f"nproc={os.cpu_count()} commit={git_commit()} src_sha256={source_digest()}")
    for name, value in metrics.items():
        print(f"{name:<40} {value:>16.6g} {units[name]}")
    print(f"{'failed_ratio':<40} {failed / max(attempted, 1):>16.6g} ratio "
          f"({failed} of {attempted} tasks)")
    for note in notes:
        print(note)
    for r in runs:
        for message in r.get("failures", []):
            print(f"# FAILED {message}")
    alarms = sum(p["metrics"].get(HONEST_ALARMS, 0.0) for p in untraced["passes"])
    if alarms:
        print(f"# KNOWN DEFECT: check_fidelity_bounds reported the honest bound broken "
              f"{alarms:g} times on honest states (perfbench/README.md, 'Known defect')")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    help="one workload, or 'all' to run the four one after another")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that the correctness gates count deliberately wrong results")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "chronoq" / "__init__.py").is_file():
        print(f"error: no chronoq source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_test:
        _, proc = run_child([sys.executable, str(HERE / "selftest.py")], child_env(), 300)
        print(proc.stdout + proc.stderr, end="")
        return proc.returncode
    if args.workload is None:
        ap.error("--workload is required")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            run(argparse.Namespace(**{**vars(args), "workload": name}))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
