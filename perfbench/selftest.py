"""Self-test of the benchmark: deliberately wrong results must be counted.

    python3 perfbench/run.py --self-test

Feeds wrong results through the same gates and pass loop the workloads use
(a Monte Carlo miss, a decode mismatch, a broken theta bound, an exception,
an unexpected exit code, a changed repeat, an oversized task) and checks that
each is counted as failed with its time kept.  Also checks the tracer's self
time accounting and that BENCHMARK.json names exactly the metrics produced.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate
import harness
import workloads
from harness import CheckFailed, SizingError, Task, mc_within, operator_bytes, run_pass
from metrics import CLI_COMMANDS, END_TO_END, PER_LAYER
from tracer import Tracer

HERE = Path(__file__).resolve().parent


def _one_pass(tasks):
    return run_pass(tasks, {}, time.process_time)


def _counted(task: Task):
    """Run a task alone; it must count as one failed attempt with its time kept."""
    out = _one_pass([task])
    assert out.attempted == 1 and out.failed == 1, (task.name, out)
    assert out.wall_s >= out.task_s[task.name] > 0.0
    return out


def _tampered(task: Task, corrupt) -> Task:
    return Task(task.name, lambda ctx: corrupt(task.run(ctx)), task.check, task.dense_bytes,
                task.summary, task.metric)


def test_wrong_result_is_counted_with_its_time():
    def slow_wrong(ctx):
        time.sleep(0.02)
        return 2

    out = _counted(Task("wrong", slow_wrong, lambda r: harness.require(r == 1, "want 1"), 0))
    assert out.wall_s >= 0.02


def test_exception_is_counted():
    def boom(ctx):
        raise ValueError("deliberate")

    _counted(Task("raises", boom, lambda r: None, 0))


def test_mc_gate():
    mc_within(2 / 3 + 1e-3, 2 / 3, 100_000, "inside 1 SE")
    try:
        mc_within(2 / 3 + 0.01, 2 / 3, 100_000, "7 SE off")
    except CheckFailed:
        return
    raise AssertionError("a 7-standard-error miss passed the Monte Carlo gate")


def test_repeat_mismatch_is_counted():
    calls = []

    def drifting(ctx):
        calls.append(1)
        return len(calls)

    task = Task("drift", drifting, lambda r: None, 0, summary=lambda r: r)
    reference: dict = {}
    assert run_pass([task], reference, time.process_time).failed == 0
    assert run_pass([task], reference, time.process_time).failed == 1


def test_sizing_refuses_without_running():
    ran = []
    task = Task("huge", lambda ctx: ran.append(1), lambda r: None, operator_bytes(13))
    _counted(task)
    assert not ran, "an oversized task was run"
    for kind, value in (("consensus_nodes", 13), ("fusion_pairs", 6), ("chain_blocks", 11)):
        try:
            harness.check_limit(kind, value)
        except SizingError:
            continue
        raise AssertionError(f"{kind}={value} passed the size limit")


def test_workload_gates_catch_wrong_program_results():
    theta = {t.name: t for t in workloads.theta_consensus(1)}
    _counted(_tampered(theta["estimate.n3"], lambda est: {**est, "pass_rate": 0.99}))
    _counted(_tampered(theta["bounds.honest.n4"], lambda rep: {**rep, "pass_rate": 0.8}))
    honest = theta["bounds.honest.n4"]
    _counted(_tampered(honest, lambda rep: {**rep, "pass_rate": 0.95, "honest_bound_ok": False}))
    # Above the bound by less than the noise, a "broken" verdict is an alarm, not a failure.
    alarm = _one_pass([_tampered(honest, lambda rep: {**rep, "pass_rate": 0.98,
                                                      "honest_bound_ok": False})])
    assert alarm.failed == 0 and alarm.metrics[workloads.HONEST_ALARMS] == 1.0, alarm
    _counted(_tampered(theta["bounds.dishonest.n4c1"],
                       lambda rep: {**rep, "dishonest_bound_ok": False}))
    _counted(_tampered(theta["bounds.dishonest.n4c1"], lambda rep: {**rep, "fidelity": 0.5}))

    ledger = workloads.temporal_ledger(1)
    build = next(t for t in ledger if t.name == "chain.build.b3")
    decode = next(t for t in ledger if t.name == "chain.decode.b3")
    ctx: dict = {}
    build.run(ctx)
    wrong = Task(decode.name, lambda c: decode.run(ctx)[::-1] + "x", decode.check, 0)
    _counted(wrong)

    games = {t.name: t for t in workloads.mc_games(1)}
    from chronoq.games import GameStats

    def biased(stats):
        return GameStats(stats.game, stats.strategy, stats.trials, stats.wins,
                         stats.empirical + 0.01, stats.analytic, stats.std_err, True)

    _counted(_tampered(games["games.monty_classic"], biased))


def test_cli_gates():
    [(name, argv, _, check)] = [c for c in workloads.cli_commands(1) if c[0] == "chain-demo"]
    decode_mismatch = json.dumps({"records": "x", "valid": True})
    for proc in (subprocess.CompletedProcess(argv, 1, "{}", "Traceback"),
                 subprocess.CompletedProcess(argv, 0, decode_mismatch, "")):
        task = Task(name, lambda ctx, p=proc: p, check, 0)
        _counted(task)
    flips = iter(["{}", '{"a": 1}'])
    task = Task("cli.repeat", lambda ctx: subprocess.CompletedProcess(argv, 0, next(flips), ""),
                lambda p: None, 0, summary=lambda p: p.stdout)
    reference: dict = {}
    assert run_pass([task], reference, time.process_time).failed == 0
    assert run_pass([task], reference, time.process_time).failed == 1


def test_probe_is_off_the_clock_and_scales():
    def slow_probe():
        time.sleep(0.01)
        return 0.01

    task = Task("sleep", lambda ctx: time.sleep(0.02), lambda r: None, 0)
    out = run_pass([task, task], {}, time.process_time, slow_probe)
    assert out.probes == 2 and out.probe_s == 0.02, out
    assert 0.04 <= out.wall_s < 0.06, out  # the two tasks, without the probes
    # A pass that ran at half the reference speed reads half its measured time.
    assert math.isclose(calibrate.scale(2.0, 4 * calibrate.REFERENCE_S, 2), 1.0)


def test_tracer_self_time():
    tracer = Tracer()

    def inner():
        time.sleep(0.03)

    def outer():
        time.sleep(0.02)
        wrapped_inner()

    wrapped_inner = tracer.wrap(inner, "qcore.inner", "qcore")
    tracer.wrap(outer, "chain.outer", "chain")()
    f = tracer.summary()["functions"]
    o, i = f["chain.outer"], f["qcore.inner"]
    assert math.isclose(o["self_s"] + i["self_s"], o["total_s"], rel_tol=1e-9)
    assert 0.015 < o["self_s"] < 0.03 and i["self_s"] >= 0.029, (o, i)
    assert ["chain.outer", "qcore.inner", 1, 0] in tracer.summary()["edges"]


def test_benchmark_json_matches_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in END_TO_END]
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert sorted(c[0] for c in workloads.cli_commands(1)) == sorted(CLI_COMMANDS)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok    {name}")
        except Exception:
            failures += 1
            print(f"FAIL  {name}")
            traceback.print_exc()
    print(f"self-test: {len(tests) - failures} of {len(tests)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
