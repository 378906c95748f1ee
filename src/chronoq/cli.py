"""Batch command-line frontend.

Every command is seeded (flag ``--seed``, env ``CHRONOQ_SEED``, default 42)
and renders a canonical JSON report; re-running with an identical
configuration produces byte-identical JSON.  CSV and table renderings are
derived from the JSON model.

Exit codes: 0 success, 1 when an empirical result disagrees with its
analytic value beyond three standard errors (or an exact check fails),
2 on usage errors.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import click
import numpy as np

from . import chain as chain_mod
from . import consensus as consensus_mod
from . import entangle, foundations, games, infotheory, temporal
from .qcore import (
    MAX_QUBITS,
    PAULI_X,
    PAULI_Z,
    HADAMARD,
    DensityOperator,
    RandomSource,
    StateVector,
    bell_state,
    ghz_state,
)

SQRT8 = 2.0 * math.sqrt(2.0)

# Fixed per-command stream ids so commands draw independent random streams
# from the one global seed.
_STREAMS = {
    "state": 1,
    "entangle": 2,
    "entropy": 3,
    "swap": 4,
    "chain": 5,
    "consensus": 6,
    "game": 7,
    "gleason": 8,
    "lg": 9,
}


def _rng(seed: int, command: str) -> RandomSource:
    return RandomSource(seed, _STREAMS[command])


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _plain(obj):
    """Normalize a report tree to JSON-serializable python scalars."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, games.GameStats):
        return _plain(obj.to_dict())
    if isinstance(obj, Fraction):
        return float(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _flatten(obj[k], f"{prefix}{k}.")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        yield prefix[:-1], obj


def render_report(report: dict, fmt: str) -> str:
    plain = _plain(report)
    if fmt == "json":
        return json.dumps(plain, sort_keys=True, separators=(",", ":"))
    if fmt == "csv":
        lines = ["key,value"]
        for key, val in _flatten(plain):
            lines.append(f"{key},{json.dumps(val)}")
        return "\n".join(lines)
    width = max((len(k) for k, _ in _flatten(plain)), default=0)
    return "\n".join(f"{k.ljust(width)}  {json.dumps(v)}" for k, v in _flatten(plain))


def _emit(report: dict, ok: bool, as_json: bool, as_csv: bool, out: str | None):
    if as_json and as_csv:
        raise click.UsageError("--json and --csv are mutually exclusive")
    fmt = "json" if as_json else "csv" if as_csv else "table"
    text = render_report(report, fmt)
    if out:
        Path(out).write_text(text + "\n")
    else:
        click.echo(text)
    raise SystemExit(0 if ok else 1)


def common_options(f):
    f = click.option(
        "--seed", type=int, default=42, envvar="CHRONOQ_SEED", show_default=True
    )(f)
    f = click.option("--json", "as_json", is_flag=True, help="Canonical JSON output.")(f)
    f = click.option("--csv", "as_csv", is_flag=True, help="Flattened key,value CSV.")(f)
    f = click.option("--out", type=click.Path(dir_okay=False), default=None)(f)
    return f


class _FloatRange(click.FloatRange):
    """A FloatRange that also rejects nan, which compares false with both bounds."""

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if math.isnan(rv):
            self.fail(f"{value!r} is not a number.", param, ctx)
        return rv


_TRIALS = click.option("--trials", type=click.IntRange(min=1), default=100_000, show_default=True)
_TOL = click.option("--tol", type=float, default=1e-9, show_default=True)


@click.group()
def main():
    """chronoq: quantum-information simulations with seeded determinism."""


# ---------------------------------------------------------------------------
# state
# ---------------------------------------------------------------------------


@main.command("state")
@click.option("--bell", "bell_label", default=None, help="Bell label phi+/phi-/psi+/psi-.")
@click.option("--ghz", "ghz_n", type=int, default=None, help="GHZ qubit count.")
@common_options
def state_cmd(bell_label, ghz_n, seed, as_json, as_csv, out):
    """Inspect a Bell or GHZ state (amplitudes and Born probabilities)."""
    if bell_label is not None and ghz_n is not None:
        raise click.UsageError("--bell and --ghz are mutually exclusive")
    if ghz_n is not None:
        psi = ghz_state(ghz_n)
        name = f"ghz{ghz_n}"
    else:
        psi = bell_state(bell_label or "phi+")
        name = bell_label or "phi+"
    report = {
        "state": name,
        "amplitudes": [[a.real, a.imag] for a in psi.amplitudes],
        "probabilities": list(psi.probabilities()),
        "num_qubits": psi.num_qubits,
    }
    _emit(report, True, as_json, as_csv, out)


# ---------------------------------------------------------------------------
# entangle
# ---------------------------------------------------------------------------


@main.command("entangle")
@click.option("--werner-points", type=int, default=11, show_default=True)
@common_options
@_TOL
def entangle_cmd(werner_points, seed, as_json, as_csv, out, tol):
    """PPT / CHSH / concurrence scans and the Werner crossing."""
    psi_minus = bell_state("psi-").to_density()
    chsh = entangle.chsh_value(psi_minus, entangle.canonical_chsh_settings())
    sweep = []
    for f in np.linspace(0.0, 1.0, werner_points):
        rho = entangle.WernerState(float(f)).rho
        sweep.append(
            {
                "F": float(f),
                "ppt_min_eigenvalue": entangle.ppt_min_eigenvalue(rho, [2, 2]),
            }
        )
    crossing = entangle.werner_chsh_crossing()
    report = {
        "chsh_psi_minus": chsh,
        "tsirelson": SQRT8,
        "concurrence_psi_minus": entangle.concurrence(bell_state("psi-"), [2, 2]),
        "werner_sweep": sweep,
        "werner_chsh_crossing": crossing,
    }
    ok = abs(chsh - SQRT8) <= tol and abs(crossing - 0.7803) <= 0.005
    _emit(report, ok, as_json, as_csv, out)


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


@main.command("entropy")
@click.option(
    "--block", "n", type=click.IntRange(1, infotheory.MAX_CODEC_BLOCK), default=20,
    show_default=True,
)
@click.option("--p", type=_FloatRange(0.0, 1.0), default=0.11, show_default=True)
@click.option("--rate", type=float, default=0.75, show_default=True)
@common_options
@_TRIALS
@_TOL
def entropy_cmd(n, p, rate, seed, as_json, as_csv, out, trials, tol):
    """Typical-set codec demo plus the entropic uncertainty bound."""
    rng = _rng(seed, "entropy")
    source = [1.0 - p, p]
    h = infotheory.shannon_entropy(source)
    codec = infotheory.TypicalCodec(n=n, epsilon=rate - h, source=source)
    roundtrip = infotheory.typical_codec_roundtrip(codec, min(trials, 10_000), rng)
    x_basis = [StateVector(np.ascontiguousarray(HADAMARD[:, j])) for j in range(2)]
    z_basis = [StateVector(np.eye(2, dtype=np.complex128)[:, j]) for j in range(2)]
    bound = infotheory.entropic_uncertainty_bound(x_basis, z_basis)
    report = {
        "source_entropy": h,
        "block": n,
        "rate": rate,
        "codeword_width": codec.width,
        "roundtrip": roundtrip,
        "uncertainty_bound_mub": bound,
    }
    ok = bound >= 1.0 - tol
    _emit(report, ok, as_json, as_csv, out)


# ---------------------------------------------------------------------------
# swap
# ---------------------------------------------------------------------------


@main.command("swap")
@common_options
@_TOL
def swap_cmd(seed, as_json, as_csv, out, tol):
    """Entanglement-swap demo with the temporal event log."""
    rng = _rng(seed, "swap")
    demo = temporal.swap_demo(rng)
    ok = (
        demo["photon1_consumed_before_photon4_created"]
        and abs(demo["outer_pair_fidelity"] - 1.0) <= tol
    )
    _emit(demo, ok, as_json, as_csv, out)


# ---------------------------------------------------------------------------
# chain
# ---------------------------------------------------------------------------


@main.group("chain")
def chain_group():
    """Quantum/classical block-chain demos."""


def _parse_records(text: str) -> list[str]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise click.UsageError("--records must list at least one 2-bit record")
    return parts


@chain_group.command("demo")
@click.option("--records", default="00,10,11", show_default=True)
@common_options
def chain_demo(records, seed, as_json, as_csv, out):
    """Encode records into a temporal-GHZ chain and decode them back."""
    rng = _rng(seed, "chain")
    qc = chain_mod.build_chain(_parse_records(records), rng)
    decoded = chain_mod.decode(qc)
    report = {
        "records": decoded,
        "timestamps": qc.timestamps,
        "fidelity": qc.fidelity(),
        "valid": decoded == qc.record_string,
    }
    _emit(report, report["valid"], as_json, as_csv, out)


@chain_group.command("tamper")
@click.option("--records", default="00,10,11", show_default=True)
@click.option("--target", default=None, help="Photon label, e.g. p6 (default: last).")
@common_options
def chain_tamper(records, target, seed, as_json, as_csv, out):
    """Tamper one photon and report the damage."""
    rng = _rng(seed, "chain")
    recs = _parse_records(records)
    qc = chain_mod.build_chain(recs, rng)
    target = target or f"p{2 * len(recs)}"
    report = {"target": target}
    try:
        chain_mod.tamper(qc, target, PAULI_X)
        report["past_mode_access"] = None
        report["fidelity"] = qc.fidelity()
        try:
            chain_mod.decode(qc)
            report["decode_error"] = None
        except chain_mod.DecodeMismatch:
            report["decode_error"] = "DECODE_MISMATCH"
    except chain_mod.TemporalInaccessible:
        report["past_mode_access"] = "TEMPORAL_INACCESSIBLE"
        report["fidelity"] = qc.fidelity()
        report["decode_error"] = None
    detected = report["decode_error"] == "DECODE_MISMATCH" or (
        report["past_mode_access"] == "TEMPORAL_INACCESSIBLE"
    )
    _emit(report, detected, as_json, as_csv, out)


@chain_group.command("contrast")
@click.option("--blocks", type=int, default=5, show_default=True)
@click.option("--index", type=int, default=1, show_default=True)
@common_options
def chain_contrast(blocks, index, seed, as_json, as_csv, out):
    """Classical-vs-quantum tamper damage comparison."""
    rng = _rng(seed, "chain")
    report = chain_mod.classical_chain_tamper_contrast(blocks, index, rng)
    ok = report["invalidated_range_classical"] == [index, blocks] and report[
        "invalidated_range_quantum"
    ] == [0, blocks]
    _emit(report, ok, as_json, as_csv, out)


# ---------------------------------------------------------------------------
# consensus
# ---------------------------------------------------------------------------


# run/admit sample state vectors (the register cap); bounds builds a dense
# 4^n density operator, 64 MiB at 11 nodes.
_NODES = click.IntRange(2, MAX_QUBITS)
_BOUNDS_NODES = click.IntRange(2, 11)
_ROUNDS = click.IntRange(min=1)


def _build_network(nodes: int, dishonest: int, rng: RandomSource) -> consensus_mod.Network:
    if not 0 <= dishonest <= nodes:
        raise click.UsageError("--dishonest must lie in [0, nodes]")
    cheat = (PAULI_Z + PAULI_X) / math.sqrt(2.0)
    members = [
        consensus_mod.Node(i, honest=i >= dishonest, cheat=cheat if i < dishonest else None)
        for i in range(nodes)
    ]
    return consensus_mod.Network(members, rng)


@main.group("consensus")
def consensus_group():
    """Theta-protocol GHZ verification."""


@consensus_group.command("run")
@click.option("--nodes", type=_NODES, default=4, show_default=True)
@click.option("--rounds", type=_ROUNDS, default=consensus_mod.DEFAULT_ROUNDS, show_default=True)
@click.option("--dishonest", type=int, default=0, show_default=True)
@common_options
def consensus_run(nodes, rounds, dishonest, seed, as_json, as_csv, out):
    """Estimate the pass rate of a GHZ candidate over verification rounds."""
    rng = _rng(seed, "consensus")
    network = _build_network(nodes, dishonest, rng)
    est = consensus_mod.estimate_pass_probability(ghz_state(nodes), network, rounds, rng)
    report = {"n": nodes, "dishonest": dishonest, **est}
    ok = est["pass_rate"] == 1.0 if dishonest == 0 else True
    _emit(report, ok, as_json, as_csv, out)


@consensus_group.command("bounds")
@click.option("--nodes", type=_BOUNDS_NODES, default=4, show_default=True)
@click.option("--rounds", type=_ROUNDS, default=consensus_mod.DEFAULT_ROUNDS, show_default=True)
@click.option("--dishonest", type=int, default=0, show_default=True)
@click.option("--noise", type=_FloatRange(0.0, 1.0), default=0.1, show_default=True)
@common_options
def consensus_bounds(nodes, rounds, dishonest, noise, seed, as_json, as_csv, out):
    """Check the pass-rate fidelity bounds on a noisy GHZ candidate."""
    rng = _rng(seed, "consensus")
    network = _build_network(nodes, dishonest, rng)
    # (1 - noise)|GHZ><GHZ| + noise I/d: the GHZ part sits on the four corners.
    dim = 1 << nodes
    mat = np.eye(dim, dtype=np.complex128) * (noise / dim)
    mat[np.ix_([0, -1], [0, -1])] += (1.0 - noise) / 2.0
    rho = DensityOperator(mat, validate=False)
    report = consensus_mod.check_fidelity_bounds(
        rho, network, rounds, rng, honest=dishonest == 0
    )
    ok = (
        report["honest_bound_ok"] if dishonest == 0 else report["dishonest_bound_ok"]
    )
    _emit(report, bool(ok), as_json, as_csv, out)


@consensus_group.command("admit")
@click.option("--nodes", type=_NODES, default=4, show_default=True)
@click.option("--rounds", type=_ROUNDS, default=consensus_mod.DEFAULT_ROUNDS, show_default=True)
@click.option(
    "--threshold", type=float, default=consensus_mod.DEFAULT_THRESHOLD, show_default=True
)
@click.option("--label", default="block-1", show_default=True)
@common_options
def consensus_admit(nodes, rounds, threshold, label, seed, as_json, as_csv, out):
    """Admit a block backed by fresh GHZ copies."""
    rng = _rng(seed, "consensus")
    network = _build_network(nodes, 0, rng)
    report = consensus_mod.admit_block(
        network, lambda: ghz_state(nodes), label, rounds, threshold
    )
    report["local_chain_lengths"] = {
        str(nid): len(blocks) for nid, blocks in network.local_chains.items()
    }
    _emit(report, report["accepted"], as_json, as_csv, out)


# ---------------------------------------------------------------------------
# game
# ---------------------------------------------------------------------------

GAME_NAMES = (
    "monty-classic",
    "monty-ignorant",
    "teleport",
    "monty-teleport",
    "unreliable-teleport",
    "superdense",
    "chsh",
    "pbr-ontic",
    "pbr-epistemic",
    "qkd",
)


def _collect_stats(obj) -> list[games.GameStats]:
    if isinstance(obj, games.GameStats):
        return [obj]
    if isinstance(obj, dict):
        return [s for v in obj.values() for s in _collect_stats(v)]
    return []


@main.command("game")
@click.argument("name", type=click.Choice(GAME_NAMES))
@click.option("--strategy", default=None, help="stick/switch (or classical/quantum for chsh).")
# Above q = 3/4 the doors 1 and 2 would get the negative probability 1/4 - q/3.
@click.option(
    "--q", type=_FloatRange(0.0, 0.75), default=0.125, show_default=True,
    help="PBR epistemic overlap.",
)
@click.option("--protocol", default="BB84", show_default=True, help="qkd: BB84 or E91.")
@click.option(
    "--eve",
    default="none",
    show_default=True,
    type=click.Choice(["none", "intercept_resend"]),
)
@click.option("--key-bits", type=int, default=128, show_default=True)
@common_options
@_TRIALS
@_TOL
def game_cmd(name, strategy, q, protocol, eve, key_bits, seed, as_json, as_csv, out, trials, tol):
    """Run one of the quantum game demonstrations."""
    rng = _rng(seed, "game")
    if name == "teleport":
        worst = 1.0
        max_premeasure_dev = 0.0
        gen = rng.generator
        n_states = min(trials, 200)
        for _ in range(n_states):
            amps = gen.normal(size=2) + 1j * gen.normal(size=2)
            res = games.teleport_standard(StateVector(amps, normalize=True), rng)
            worst = min(worst, res["fidelity"])
            dev = np.max(np.abs(res["bob_premeasure_reduced"].matrix - np.eye(2) / 2))
            max_premeasure_dev = max(max_premeasure_dev, float(dev))
        report = {
            "game": "teleport",
            "states": n_states,
            "min_fidelity": worst,
            "max_premeasure_deviation": max_premeasure_dev,
        }
        ok = abs(worst - 1.0) <= tol and max_premeasure_dev <= tol
        _emit(report, ok, as_json, as_csv, out)
    if name == "superdense":
        results = {bits: games.superdense_roundtrip(bits, rng) for bits in
                   ("00", "01", "10", "11")}
        ok = all(k == v for k, v in results.items())
        _emit({"game": "superdense", "roundtrip": results}, ok, as_json, as_csv, out)
    if name == "qkd":
        try:
            session = games.qkd_session(protocol, key_bits, eve, rng)
        except games.GameError as exc:
            raise click.UsageError(str(exc))
        report = {
            "game": "qkd",
            "protocol": protocol,
            "eavesdropper": eve,
            "key_bits": key_bits,
            "qber": session["qber"],
            "keys_match": session["alice_key"] == session["bob_key"],
        }
        ok = report["keys_match"] if eve == "none" else session["qber"] > 0.1
        _emit(report, ok, as_json, as_csv, out)
    if name == "chsh":
        strategy = strategy or "quantum"
        allowed = ("classical", "quantum")
    else:
        strategy = strategy or games.SWITCH
        allowed = (games.STICK, games.SWITCH)
    if strategy not in allowed:
        raise click.BadParameter(
            f"{strategy!r} is not one of {', '.join(allowed)} for {name}",
            param_hint="'--strategy'",
        )
    if name == "chsh":
        result = games.chsh_game(strategy, trials, rng)
    elif name == "monty-classic":
        result = games.monty_classic(strategy, trials, rng)
    elif name == "monty-ignorant":
        result = games.monty_ignorant(strategy, trials, rng)
    elif name == "monty-teleport":
        result = games.monty_teleport(strategy, trials, rng)
    elif name == "unreliable-teleport":
        result = games.unreliable_teleport(strategy, trials, rng)
    elif name == "pbr-ontic":
        result = games.pbr_game("ontic", strategy, trials, rng)
    else:  # pbr-epistemic
        result = games.pbr_game(
            "epistemic", strategy, trials, rng, q=Fraction(q).limit_denominator(10**6)
        )
    stats = _collect_stats(result)
    report = result.to_dict() if isinstance(result, games.GameStats) else result
    _emit(report, all(s.passed for s in stats), as_json, as_csv, out)


# ---------------------------------------------------------------------------
# gleason
# ---------------------------------------------------------------------------


@main.group("gleason")
def gleason_group():
    """Density-matrix reconstruction from frame valuations."""


def _random_density(d: int, rng: RandomSource) -> DensityOperator:
    gen = rng.generator
    g = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m))


@gleason_group.command("roundtrip")
@click.option("--dim", type=click.IntRange(min=1), default=3, show_default=True)
@click.option("--frames", type=click.IntRange(min=1), default=2000, show_default=True)
@common_options
def gleason_roundtrip(dim, frames, seed, as_json, as_csv, out):
    """Reconstruct a random density matrix from its valuation; frame-average check."""
    rng = _rng(seed, "gleason")
    rho = _random_density(dim, rng)
    frame = foundations.sample_haar_frame(dim, rng)
    val = foundations.Valuation.from_density(rho, frame)
    recon = foundations.gleason_reconstruct(val, frame)
    err = float(np.max(np.abs(recon.matrix - rho.matrix)))
    avg = foundations.frame_average_reconstruct(rho, frames, rng)
    avg_err = float(np.max(np.abs(avg.matrix - rho.matrix)))
    report = {
        "dim": dim,
        "reconstruction_error": err,
        "frames": frames,
        "frame_average_error": avg_err,
    }
    _emit(report, err <= foundations.TOL_RECON, as_json, as_csv, out)


# ---------------------------------------------------------------------------
# lg
# ---------------------------------------------------------------------------


def _precession_model(ctx, param, omega: float) -> foundations.PrecessionModel:
    try:
        return foundations.PrecessionModel(omega=omega)
    except foundations.FoundationsError as exc:
        raise click.BadParameter(str(exc)) from None


_OMEGA = click.option(
    "--omega", "model", type=float, default=1.0, show_default=True, callback=_precession_model
)


@main.group("lg")
def lg_group():
    """Temporal inequalities on the precession model."""


@lg_group.command("k3")
@_OMEGA
@common_options
@_TOL
def lg_k3_cmd(model, seed, as_json, as_csv, out, tol):
    """Maximize the three-time correlator K3 over the spacing tau."""
    res = foundations.lg_k3_max(model)
    report = {"k3_max": res["k3_max"], "tau_star": res["tau_star"], "classical_bound": 1.0}
    ok = abs(res["k3_max"] - 1.5) <= max(tol, 1e-6)
    _emit(report, ok, as_json, as_csv, out)


@lg_group.command("temporal-chsh")
@_OMEGA
@click.option("--dt", type=float, default=0.7, show_default=True)
@common_options
@_TOL
def lg_temporal_chsh(model, dt, seed, as_json, as_csv, out, tol):
    """Optimized two-time CHSH value (quantum maximum is 2*sqrt(2))."""
    res = foundations.temporal_chsh_optimize(model, 0.0, dt)
    report = {"value": res["value"], "tsirelson": SQRT8}
    ok = abs(res["value"] - SQRT8) <= max(tol, 1e-3)
    _emit(report, ok, as_json, as_csv, out)


@lg_group.command("entropic")
@_OMEGA
@common_options
def lg_entropic(model, seed, as_json, as_csv, out):
    """Scan for the strongest entropic violation at equal spacings."""
    best = foundations.entropic_lg_scan(model)
    report = {
        "lhs": best["lhs"],
        "rhs": best["rhs"],
        "tau": best["tau"],
        "gap": best["gap"],
        "violated": best["violated"],
    }
    _emit(report, bool(best["violated"]), as_json, as_csv, out)


if __name__ == "__main__":  # pragma: no cover
    main()
