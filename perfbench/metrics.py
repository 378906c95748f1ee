"""Metric definitions and their derivation from worker results.

End-to-end metrics come from the untraced run.  Per-layer metrics come from
two sources: task timings of the untraced run (``consensus.round_ms.n11``,
``games.trials_per_s.*``, ...) and the function statistics of the traced run
(self times, call counts, computed bytes).  Every per-layer metric is reported
on every workload; a layer the workload does not touch reads 0.
"""

from __future__ import annotations

from calibrate import scale
from harness import median

# name, unit, better, bound (share of the parent commit's median a change may lose)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

LAYERS = ("qcore", "consensus", "temporal", "chain", "games", "entangle", "foundations",
          "infotheory", "cli")

CLI_COMMANDS = (
    "state", "entangle", "entropy", "swap", "chain-demo", "chain-tamper", "chain-contrast",
    "consensus-run", "consensus-bounds", "consensus-admit", "game-monty-teleport", "game-qkd",
    "gleason-roundtrip", "lg-k3", "lg-temporal-chsh", "lg-entropic",
)

# Metrics taken from task timings of the untraced run: name -> (unit, better).
TASK_METRICS = {
    **{f"consensus.round_ms.n{n}": ("ms", "lower") for n in (3, 7, 9, 11)},
    **{f"consensus.bounds_ms.n{n}": ("ms", "lower") for n in (4, 8)},
    "consensus.bounds.honest_alarms": ("count", "lower"),
    **{f"temporal.ghz_density_ms.p{p}": ("ms", "lower") for p in (3, 4, 5)},
    "chain.build_ms.b8": ("ms", "lower"),
    "chain.build_ms.b10": ("ms", "lower"),
    "chain.decode_ms.b10": ("ms", "lower"),
    **{f"games.trials_per_s.{g}": ("1/s", "higher") for g in (
        "monty_classic", "monty_teleport", "unreliable_teleport", "chsh_quantum", "pbr_switch")},
    "games.qkd.bits_per_s.bb84": ("1/s", "higher"),
    "games.qkd.bits_per_s.e91": ("1/s", "higher"),
    "entangle.chsh_optimize_ms": ("ms", "lower"),
    "entangle.werner_crossing_ms": ("ms", "lower"),
    "foundations.lg_k3_max_ms": ("ms", "lower"),
    "foundations.temporal_chsh_ms": ("ms", "lower"),
    "foundations.entropic_scan_ms": ("ms", "lower"),
    "foundations.frames_per_s": ("1/s", "higher"),
    "infotheory.codec.trials_per_s": ("1/s", "higher"),
    "infotheory.codec.success_ratio": ("ratio", "higher"),
    **{f"cli.cmd_s.{c}": ("s", "lower") for c in CLI_COMMANDS},
    "cli.nonzero_exits": ("count", "lower"),
}

# Metrics taken from the traced run, per pass: name -> (unit, better).
TRACE_METRICS = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "qcore.calls": ("count", "lower"),
    "qcore.kron_all.calls": ("count", "lower"),
    "qcore.kron_all.s": ("s", "lower"),
    "qcore.kron_all.peak_dim": ("dim", "lower"),
    "qcore.kron_all.bytes": ("B", "lower"),
    "qcore.density.constructions": ("count", "lower"),
    "qcore.density.validated": ("count", "lower"),
    "qcore.density.s": ("s", "lower"),
    "qcore.density.peak_dim": ("dim", "lower"),
    "qcore.apply.calls": ("count", "lower"),
    "qcore.apply.s": ("s", "lower"),
    "qcore.peak_dense_bytes": ("B", "lower"),
    "consensus.rounds": ("count", "lower"),
    "consensus.optimizer.s": ("s", "lower"),
    "consensus.optimizer.evals": ("count", "lower"),
    "temporal.pbs_fuse.calls": ("count", "lower"),
    "temporal.pbs_fuse.success_ratio": ("ratio", "higher"),
    "temporal.fusion_projector.bytes": ("B", "lower"),
    "chain.append.calls": ("count", "lower"),
    "chain.fusion_retries": ("count", "lower"),
    "chain.fidelity.calls": ("count", "lower"),
    "cli.import_s": ("s", "lower"),
    "host.probe_ms": ("ms", "lower"),
    "harness.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

PER_LAYER = {**TASK_METRICS, **TRACE_METRICS}


def end_to_end(setup_samples: list, untraced: dict) -> dict:
    """Times at reference speed (calibrate.py): each pass by its own probes."""
    passes = untraced["passes"]
    return {
        "setup_s": median(setup_samples),
        "wall_s": median(scale(p["wall_s"], p["probe_s"], p["probes"]) for p in passes),
        "cpu_s": median(scale(p["cpu_s"], p["probe_s"], p["probes"]) for p in passes),
        "peak_rss_mb": untraced["peak_rss_kb"] / 1024.0,
    }


def per_layer(untraced: dict, traced: dict, import_samples: list) -> dict:
    out = dict.fromkeys(PER_LAYER, 0.0)
    for name in TASK_METRICS:
        values = [p["metrics"][name] for p in untraced["passes"] if name in p["metrics"]]
        if values:
            out[name] = median(values)

    passes = traced["passes"]
    n = len(passes)
    funcs = traced["trace"]["functions"]
    edges = traced["trace"]["edges"]

    def fn(name: str, key: str = "calls") -> float:
        return funcs.get(name, {}).get(key, 0)

    def edge(caller: str, callee: str, key: int = 2) -> float:
        return sum(e[key] for e in edges if e[0] == caller and e[1] == callee)

    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(f["self_s"] for f in funcs.values() if f["layer"] == layer) / n
    out["qcore.calls"] = sum(f["calls"] for f in funcs.values() if f["layer"] == "qcore") / n
    out["qcore.kron_all.calls"] = fn("qcore.kron_all") / n
    out["qcore.kron_all.s"] = fn("qcore.kron_all", "total_s") / n
    out["qcore.kron_all.peak_dim"] = fn("qcore.kron_all", "max_dim")
    out["qcore.kron_all.bytes"] = fn("qcore.kron_all", "bytes") / n
    density = "qcore.DensityOperator.__init__"
    out["qcore.density.constructions"] = fn(density) / n
    out["qcore.density.validated"] = fn(density, "flagged") / n
    out["qcore.density.s"] = fn(density, "total_s") / n
    out["qcore.density.peak_dim"] = fn(density, "max_dim")
    out["qcore.apply.calls"] = fn("qcore.StateVector.apply") / n
    out["qcore.apply.s"] = fn("qcore.StateVector.apply", "total_s") / n
    out["qcore.peak_dense_bytes"] = max(
        [f["max_dense_bytes"] for f in funcs.values() if f["layer"] == "qcore"], default=0)
    out["consensus.rounds"] = (fn("consensus.run_round")
                               + edge("consensus.check_fidelity_bounds",
                                      "consensus.exact_pass_probability")) / n
    out["consensus.optimizer.s"] = fn("consensus.optimize_corrected_fidelity", "total_s") / n
    out["consensus.optimizer.evals"] = edge("consensus.optimize_corrected_fidelity",
                                            "consensus.ghz_fidelity") / n
    fuses = fn("temporal.pbs_fuse")
    out["temporal.pbs_fuse.calls"] = fuses / n
    out["temporal.pbs_fuse.success_ratio"] = fn("temporal.pbs_fuse", "true") / fuses if fuses else 0.0
    out["temporal.fusion_projector.bytes"] = fn("temporal.fusion_projector", "bytes") / n
    out["chain.append.calls"] = fn("chain.append") / n
    out["chain.fusion_retries"] = (edge("chain.append", "temporal.pbs_fuse")
                                   - edge("chain.append", "temporal.pbs_fuse", 3)) / n
    out["chain.fidelity.calls"] = fn("chain.QuantumChain.fidelity") / n
    if import_samples:
        out["cli.import_s"] = median(import_samples)
    out["host.probe_ms"] = 1000.0 * median(p["probe_s"] / p["probes"] for p in untraced["passes"])

    traced_wall = sum(p["wall_s"] for p in passes) / n
    out["trace.wall_s"] = traced_wall
    out["harness.self_s"] = traced_wall - sum(out[f"{layer}.self_s"] for layer in LAYERS)
    # Each side at reference speed, so a slow minute during one run does not read as overhead.
    out["trace.overhead_ratio"] = (
        median(scale(p["wall_s"], p["probe_s"], p["probes"]) for p in passes)
        / median(scale(p["wall_s"], p["probe_s"], p["probes"]) for p in untraced["passes"]))
    return out
