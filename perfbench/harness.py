"""Tasks, correctness gates, safe sizing and the timed pass loop.

A workload is a fixed list of :class:`Task` objects.  One *pass* runs every
task once, back to back, in list order (a closed loop with one client).  Each
task checks its own result before it counts; a task that raises, fails its
check, returns a result that differs from the first pass, or is refused by the
sizing gate is counted as failed, and its time stays in the pass time.

This module imports neither numpy nor chronoq.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# Densest operator a task may build.  A dense n-qubit operator holds 16 * 4**n
# bytes of complex128; matrix products need a few such buffers at once, so the
# ceiling sits far below the 8 GB of the machines this is meant to run on.
CEILING_BYTES = 512 * 2**20

# Hard size limits, independent of the ceiling: consensus n = 13 needs
# gigabytes, six fused pairs take over a minute, and the register caps at 20
# qubits (10 blocks).
LIMITS = {"consensus_nodes": 11, "fusion_pairs": 5, "chain_blocks": 10}

# Every Monte Carlo gate is evaluated once per seed, and a benchmark check runs
# about a hundred seeds with a dozen gates each.  At 3 standard errors a
# correct program would miss on some 0.3 % of gates, so most checks would
# fail one; at 5 the normal tail is 6e-7 per gate (the binomial tail of the
# 100-round pass rates, the smallest samples here, is 4e-5) and a real
# bias of a percent on 100 000 trials still misses by 6 standard errors.
MC_SIGMAS = 5.0


class CheckFailed(Exception):
    """A task's result disagrees with its expected value."""


class SizingError(ValueError):
    """A task would exceed a size limit or the dense-memory ceiling."""


def operator_bytes(n_qubits: int) -> int:
    """Bytes of one dense complex128 2^n x 2^n operator."""
    return 16 * 4**n_qubits


def vector_bytes(n_qubits: int) -> int:
    """Bytes of one complex128 2^n state vector."""
    return 16 * 2**n_qubits


def check_limit(kind: str, value: int) -> int:
    if value > LIMITS[kind]:
        raise SizingError(f"{kind}={value} exceeds the limit {LIMITS[kind]}")
    return value


def require(condition, message: str):
    if not condition:
        raise CheckFailed(message)


def require_close(value: float, expected: float, tol: float, what: str):
    require(
        abs(float(value) - float(expected)) <= tol,
        f"{what}: {value!r} differs from {expected!r} by more than {tol:g}",
    )


def mc_within(empirical: float, analytic: float, trials: int, what: str):
    """Monte Carlo estimate within MC_SIGMAS standard errors of its exact value."""
    require(trials > 0, f"{what}: no trials")
    p = float(analytic)
    se = math.sqrt(p * (1.0 - p) / trials)
    require(
        abs(float(empirical) - p) <= MC_SIGMAS * se + 1e-12,
        f"{what}: {empirical!r} misses {p!r} by more than {MC_SIGMAS:g} standard errors "
        f"({se:.3g}, {trials} trials)",
    )


def digest(obj) -> str:
    """Stable digest of a JSON-able summary of a result."""
    blob = json.dumps(obj, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class Task:
    """One program call (or a short sequence of them) plus its checks.

    ``run(ctx)`` calls the program; ``ctx`` is a dict shared by the tasks of
    one pass, so a read task can use the chain a write task built.
    ``check(result)`` raises :class:`CheckFailed` on a wrong result;
    ``summary(result)`` is a JSON-able view used for the repeat check (the same
    inputs must give the same result on every pass).  ``metric(seconds,
    result)`` derives per-layer metrics from the task as ``{name: value}``;
    values with the same name add up within a pass.
    """

    name: str
    run: Callable[[dict], Any]
    check: Callable[[Any], None]
    dense_bytes: int
    summary: Callable[[Any], Any] = lambda result: None
    metric: Callable[[float, Any], dict] | None = None


@dataclass
class PassResult:
    wall_s: float  # the tasks alone: probe time is taken out
    cpu_s: float
    probe_s: float = 0.0  # total time of the host-speed probes, one per task
    probes: int = 0
    task_s: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)


def run_task(task: Task, ctx: dict, reference: dict) -> tuple[Any, str | None]:
    """Run and check one task; returns (result or None, failure message or None)."""
    if task.dense_bytes > CEILING_BYTES:
        return None, (
            f"{task.name}: refused, densest operator {task.dense_bytes} B exceeds "
            f"the {CEILING_BYTES} B ceiling"
        )
    try:
        result = task.run(ctx)
    except Exception as exc:  # a failing task is counted, never fatal
        return None, f"{task.name}: {type(exc).__name__}: {exc}"
    try:
        task.check(result)
        fingerprint = digest(task.summary(result))
    except Exception as exc:
        return result, f"{task.name}: {type(exc).__name__}: {exc}"
    first = reference.setdefault(task.name, fingerprint)
    if fingerprint != first:
        return result, f"{task.name}: result differs from an earlier run with the same inputs"
    return result, None


def run_pass(tasks: list[Task], reference: dict, cpu_clock: Callable[[], float],
             probe: Callable[[], float] | None = None) -> PassResult:
    """One pass; ``probe()`` (a host-speed probe) runs before each task, off the clock."""
    ctx: dict = {}
    out = PassResult(wall_s=0.0, cpu_s=0.0)
    probe_cpu = 0.0
    c0 = cpu_clock()
    t0 = time.perf_counter()
    for task in tasks:
        if probe is not None:
            pc = cpu_clock()
            out.probe_s += probe()
            out.probes += 1
            probe_cpu += cpu_clock() - pc
        s = time.perf_counter()
        result, message = run_task(task, ctx, reference)
        seconds = time.perf_counter() - s
        out.task_s[task.name] = seconds
        out.attempted += 1
        if message is not None:
            out.failed += 1
            out.failures.append(message)
        if task.metric is not None and result is not None:
            for key, value in task.metric(seconds, result).items():
                out.metrics[key] = out.metrics.get(key, 0.0) + float(value)
    out.wall_s = time.perf_counter() - t0 - out.probe_s
    out.cpu_s = cpu_clock() - c0 - probe_cpu
    return out


def run_passes(
    tasks: list[Task],
    seconds: float,
    cpu_clock: Callable[[], float],
    min_passes: int = 3,
    deadline_s: float | None = None,
    on_pass_start: Callable[[], None] | None = None,
    reference: dict | None = None,
    probe: Callable[[], float] | None = None,
) -> list[PassResult]:
    """Run passes while the next one is expected to end within ``seconds``.

    At least ``min_passes`` run, unless the next one would carry the run past
    ``deadline_s``, so a slow program cannot push the run past its time limit
    (one pass always runs).  ``reference`` holds result fingerprints from
    earlier runs of the same tasks, such as a warm-up.
    """
    reference = {} if reference is None else reference
    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        if on_pass_start is not None:
            on_pass_start()
        passes.append(run_pass(tasks, reference, cpu_clock, probe))
        next_end = time.perf_counter() - start + median(p.wall_s + p.probe_s for p in passes)
        if next_end > seconds and len(passes) >= min_passes:
            break
        if deadline_s is not None and next_end > deadline_s:
            break
    return passes


def median(values) -> float:
    return float(statistics.median(values))
