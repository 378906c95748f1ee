"""Batch command-line frontend.

Every command is seeded (flag ``--seed``, env ``CHRONOQ_SEED``, default 42)
and renders a canonical JSON report; re-running with an identical
configuration produces byte-identical JSON.  CSV and table renderings are
derived from the JSON model.

Exit codes: 0 success, 1 when an empirical result disagrees with its
analytic value beyond three standard errors (or an exact check fails),
2 on usage errors.

Importing this module loads neither numpy nor ``qcore``: the options read
their limits and defaults from the numpy-free ``_constants``, and each
command imports numpy, ``qcore`` and the protocol modules it runs in its
body.  So ``--help`` at any level loads only this module and
``_constants``, and so does a usage error that click finds while parsing,
except in the commands with an option callback: ``chain``'s ``--records``
and ``lg``'s ``--omega`` callbacks load their protocol module, and with it
numpy, and click runs them on the defaults too.  A command pays for no
module it does not run.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path
from typing import TYPE_CHECKING

import click

from ._constants import _BELL_ALIASES, DEFAULT_ROUNDS, DEFAULT_THRESHOLD, MAX_CODEC_BLOCK, MAX_QUBITS

if TYPE_CHECKING:
    import numpy as np

    from . import chain as chain_mod
    from . import consensus as consensus_mod
    from . import foundations
    from .qcore import DensityOperator, RandomSource

SQRT8 = 2.0 * math.sqrt(2.0)

# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


# Rows of an array made into table or CSV lines at a time: the keys and
# texts of one block are all that is held beside the lines.
_ROWS = 1 << 14


def _plain(obj, arrays: bool = False):
    """Normalize a report tree to JSON-serializable python scalars.  A real
    array becomes nested lists in one ``tolist``, with no walk per entry;
    with ``arrays`` an array of one or more dimensions is kept as it is.
    Adding 0.0 to every float leaf, float array and complex leaf turns -0.0
    into 0.0, so no rendering prints ``-0.0``; ints and bools keep their
    types."""
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): _plain(v, arrays) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v, arrays) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f":
            obj = obj + 0.0
        return obj if arrays and obj.ndim else obj.tolist()
    if isinstance(obj, (np.floating,)):
        return float(obj) + 0.0
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, float):
        return obj + 0.0
    if isinstance(obj, complex):
        return [obj.real + 0.0, obj.imag + 0.0]
    return obj


def _text(leaf) -> str:
    """The JSON text of a leaf.  That of a finite float is its repr and of
    an int its str: only other leaves need ``json.dumps``, which would cost
    seconds on a 20-qubit state."""
    kind = type(leaf)
    return repr(leaf) if kind is int or kind is float and math.isfinite(leaf) else json.dumps(leaf)


def _flatten(obj, prefix: str, leaves: list):
    """Append the leaves of ``obj``, a plain report tree that keeps its
    arrays, to ``leaves`` in sorted key order: ``(dotted key, JSON text)``,
    or ``(dotted key, array)`` for an array, whose entries are leaves."""
    import numpy as np

    for k, v in sorted(obj.items()) if isinstance(obj, dict) else enumerate(obj):
        if isinstance(v, (dict, list)):
            _flatten(v, f"{prefix}{k}.", leaves)
        else:
            leaves.append((f"{prefix}{k}", v if isinstance(v, np.ndarray) else _text(v)))


def _key_width(key: str, leaf) -> int:
    """The length of the longest key among a leaf's entries."""
    if isinstance(leaf, str):
        return len(key)
    if not leaf.size:
        return 0
    return len(key) + sum(1 + len(str(size - 1)) for size in leaf.shape)


def _array_lines(key: str, array: np.ndarray, width: int, sep: str, lines: list):
    """Append the lines of an array's entries to ``lines``, in C order, each
    keyed by its indices.  Keys and texts are made by comprehensions over a
    block of ``_ROWS`` rows, with no recursive walk and no nested lists, so
    the lines are the one list as long as the array."""
    import numpy as np

    kind = array.dtype.kind
    plain = kind in "iu" or kind == "f" and bool(np.isfinite(array).all())
    for start in range(0, len(array), _ROWS):
        block = array[start:start + _ROWS]
        keys = [f"{key}.{i}" for i in range(start, start + len(block))]
        for size in array.shape[1:]:
            steps = [f".{i}" for i in range(size)]
            keys = [head + step for head in keys for step in steps]
        texts = map(repr if plain else _text, block.reshape(-1).tolist())
        lines += [f"{k.ljust(width)}{sep}{text}" for k, text in zip(keys, texts)]


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(_plain(report), sort_keys=True, separators=(",", ":"), allow_nan=False)
    leaves = []
    _flatten(_plain(report, arrays=True), "", leaves)
    if fmt == "csv":
        width, sep, lines = 0, ",", ["key,value"]
    else:
        width, sep, lines = max((_key_width(*leaf) for leaf in leaves), default=0), "  ", []
    for key, leaf in leaves:
        if isinstance(leaf, str):
            lines.append(f"{key.ljust(width)}{sep}{leaf}")
        else:
            _array_lines(key, leaf, width, sep, lines)
    return "\n".join(lines)


def _command(group: click.Group, name: str, stream: int):
    """Register ``fn(rng, **options) -> (report, ok)`` as command ``name`` of
    ``group``, adding ``--seed``, ``--json``, ``--csv`` and ``--out``.

    ``rng`` is ``RandomSource(seed, stream)``: each command has a fixed stream
    id, so commands draw independent streams from the one seed.  The report
    is rendered once, to stdout or ``--out``; the exit code is 0 if ``ok``,
    else 1.
    """

    def register(fn):
        @group.command(name)
        @click.option("--seed", type=int, default=42, envvar="CHRONOQ_SEED", show_default=True)
        @click.option("--json", "as_json", is_flag=True, help="Canonical JSON output.")
        @click.option("--csv", "as_csv", is_flag=True, help="Flattened key,value CSV.")
        @click.option("--out", type=click.Path(dir_okay=False), default=None)
        @functools.wraps(fn)  # carries fn's docstring and its own options
        def run(seed, as_json, as_csv, out, **options):
            if as_json and as_csv:
                raise click.UsageError("--json and --csv are mutually exclusive")
            from .qcore import RandomSource

            report, ok = fn(RandomSource(seed, stream), **options)
            text = render_report(report, "json" if as_json else "csv" if as_csv else "table")
            if out:
                Path(out).write_text(text + "\n")
            else:
                click.echo(text)
            raise SystemExit(0 if ok else 1)

        return run

    return register


class _FloatRange(click.FloatRange):
    """A FloatRange that also rejects nan, which compares false with both
    bounds, and +-inf, which an open side lets through."""

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if not math.isfinite(rv):
            self.fail(f"{value!r} is not a finite number.", param, ctx)
        return rv


# Two photons per record, within the register cap.
_MAX_RECORDS = MAX_QUBITS // 2


@click.group()
def main():
    """chronoq: quantum-information simulations with seeded determinism."""


# ---------------------------------------------------------------------------
# state
# ---------------------------------------------------------------------------


@_command(main, "state", 1)
@click.option(
    "--bell", "bell_label", type=click.Choice(list(_BELL_ALIASES)), default=None,
    help="Bell label phi+/phi-/psi+/psi-.",
)
@click.option(
    "--ghz", "ghz_n", type=click.IntRange(2, MAX_QUBITS), default=None, help="GHZ qubit count."
)
def state_cmd(rng, bell_label, ghz_n):
    """Inspect a Bell or GHZ state (amplitudes and Born probabilities)."""
    import numpy as np

    from .qcore import bell_state, ghz_state

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
        "amplitudes": np.stack([psi.amplitudes.real, psi.amplitudes.imag], axis=1),
        "probabilities": psi.probabilities(),
        "num_qubits": psi.num_qubits,
    }
    return report, True


# ---------------------------------------------------------------------------
# entangle
# ---------------------------------------------------------------------------


@_command(main, "entangle", 2)
@click.option("--werner-points", type=click.IntRange(1, 10_000), default=11, show_default=True)
def entangle_cmd(rng, werner_points):
    """PPT / CHSH / concurrence scans and the Werner crossing."""
    import numpy as np

    from . import entangle
    from .qcore import TOL_ALG, bell_state

    psi_minus = bell_state("psi-").to_density()
    chsh = entangle.chsh_value(psi_minus, entangle.canonical_chsh_settings())
    fs = np.linspace(0.0, 1.0, werner_points)
    sweep = [
        {"F": f, "ppt_min_eigenvalue": e}
        for f, e in zip(fs.tolist(), entangle.werner_ppt_min_eigenvalues(fs).tolist())
    ]
    crossing = entangle.werner_chsh_crossing()
    report = {
        "chsh_psi_minus": chsh,
        "tsirelson": SQRT8,
        "concurrence_psi_minus": entangle.concurrence(bell_state("psi-"), [2, 2]),
        "werner_sweep": sweep,
        "werner_chsh_crossing": crossing,
    }
    return report, abs(chsh - SQRT8) <= TOL_ALG and abs(crossing - 0.7803) <= 0.005


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


@_command(main, "entropy", 3)
@click.option(
    "--block", "n", type=click.IntRange(1, MAX_CODEC_BLOCK), default=20,
    show_default=True,
)
@click.option("--p", type=_FloatRange(0.0, 1.0), default=0.11, show_default=True)
@click.option("--rate", type=_FloatRange(0.0, 1.0), default=0.75, show_default=True)
# The codec ranks each distinct drawn block once, all as arrays: 10^4 trials at
# --block 24 take 0.14-0.15 s with interpreter start-up (median of 10 runs,
# none over 0.23 s; 2-CPU x86 host).
@click.option("--trials", type=click.IntRange(1, 10_000), default=10_000, show_default=True)
def entropy_cmd(rng, n, p, rate, trials):
    """Typical-set codec demo plus the entropic uncertainty bound."""
    import numpy as np

    from . import infotheory
    from .qcore import HADAMARD, TOL_ALG, StateVector, computational_basis

    source = [1.0 - p, p]
    h = infotheory.shannon_entropy(source)
    codec = infotheory.TypicalCodec(n=n, epsilon=rate - h, source=source)
    roundtrip = infotheory.typical_codec_roundtrip(codec, trials, rng)
    x_basis = [StateVector(np.ascontiguousarray(HADAMARD[:, j])) for j in range(2)]
    z_basis = computational_basis(2)
    bound = infotheory.entropic_uncertainty_bound(x_basis, z_basis)
    report = {
        "source_entropy": h,
        "block": n,
        "rate": rate,
        "codeword_width": codec.width,
        "roundtrip": roundtrip,
        "uncertainty_bound_mub": bound,
    }
    return report, bound >= 1.0 - TOL_ALG


# ---------------------------------------------------------------------------
# swap
# ---------------------------------------------------------------------------


@_command(main, "swap", 4)
def swap_cmd(rng):
    """Entanglement-swap demo with the temporal event log."""
    from . import temporal
    from .qcore import TOL_ALG

    demo = temporal.swap_demo(rng)
    ok = (
        demo["photon1_consumed_before_photon4_created"]
        and abs(demo["outer_pair_fidelity"] - 1.0) <= TOL_ALG
    )
    return demo, ok


# ---------------------------------------------------------------------------
# chain
# ---------------------------------------------------------------------------


@main.group("chain")
def chain_group():
    """Quantum/classical block-chain demos."""


def _parse_records(ctx, param, text: str) -> list[chain_mod.Record]:
    from . import chain as chain_mod

    parts = [p.strip() for p in text.split(",")]
    if not 1 <= len(parts) <= _MAX_RECORDS:
        raise click.BadParameter(f"list 1 to {_MAX_RECORDS} comma-separated records")
    try:
        return [chain_mod.Record.parse(p) for p in parts]
    except chain_mod.ChainError as exc:
        raise click.BadParameter(str(exc)) from None


_RECORDS = click.option(
    "--records", default="00,10,11", show_default=True, callback=_parse_records
)


@_command(chain_group, "demo", 5)
@_RECORDS
def chain_demo(rng, records):
    """Encode records into a temporal-GHZ chain and decode them back."""
    from . import chain as chain_mod

    qc = chain_mod.build_chain(records, rng)
    decoded = chain_mod.decode(qc)
    report = {
        "records": decoded,
        "timestamps": qc.timestamps,
        "fidelity": qc.fidelity(),
        "valid": decoded == qc.record_string,
    }
    return report, report["valid"]


@_command(chain_group, "tamper", 5)
@_RECORDS
@click.option("--target", default=None, help="Photon label, e.g. p6 (default: last).")
def chain_tamper(rng, records, target):
    """Tamper one photon and report the damage."""
    from . import chain as chain_mod
    from .qcore import PAULI_X

    photons = [f"p{i}" for i in range(1, 2 * len(records) + 1)]
    target = target or photons[-1]
    if target not in photons:
        raise click.BadParameter(f"must be one of p1...{photons[-1]}", param_hint="'--target'")
    qc = chain_mod.build_chain(records, rng)
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
    return report, detected


@_command(chain_group, "contrast", 5)
@click.option("--blocks", type=click.IntRange(1, _MAX_RECORDS), default=5, show_default=True)
@click.option("--index", type=int, default=1, show_default=True)
def chain_contrast(rng, blocks, index):
    """Classical-vs-quantum tamper damage comparison."""
    from . import chain as chain_mod

    if not 0 <= index < blocks:
        raise click.BadParameter(f"must lie in [0, {blocks}) for {blocks} blocks",
                                 param_hint="'--index'")
    report = chain_mod.classical_chain_tamper_contrast(blocks, index, rng)
    ok = report["invalidated_range_classical"] == [index, blocks] and report[
        "invalidated_range_quantum"
    ] == [0, blocks]
    return report, ok


# ---------------------------------------------------------------------------
# consensus
# ---------------------------------------------------------------------------


# Every command plays the GHZ candidate as two product branches, O(n) per
# round up to the register cap: at 10^5 rounds and 20 nodes a command takes
# about 0.25-0.4 s (interpreter start included).
_NODES = click.IntRange(2, MAX_QUBITS)
_ROUNDS = click.IntRange(1, 100_000)


def _build_network(nodes: int, dishonest: int, rng: RandomSource) -> consensus_mod.Network:
    from . import consensus as consensus_mod
    from .qcore import PAULI_X, PAULI_Z

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


@_command(consensus_group, "run", 6)
@click.option("--nodes", type=_NODES, default=4, show_default=True)
@click.option("--rounds", type=_ROUNDS, default=DEFAULT_ROUNDS, show_default=True)
@click.option("--dishonest", type=int, default=0, show_default=True)
def consensus_run(rng, nodes, rounds, dishonest):
    """Estimate a GHZ candidate's pass rate; check it against its exact mean."""
    from . import consensus as consensus_mod
    from .qcore import ghz_state

    network = _build_network(nodes, dishonest, rng)
    played = consensus_mod._play(ghz_state(nodes), network.nodes)
    est = consensus_mod._estimate(played, network, rounds, rng)
    mean = consensus_mod.mean_pass_probability(played)
    report = {"n": nodes, "dishonest": dishonest, **est, "mean_pass_probability": mean}
    se = math.sqrt(mean * (1.0 - mean) / rounds)
    return report, abs(est["pass_rate"] - mean) <= 3.0 * se + 1e-9


@_command(consensus_group, "bounds", 6)
@click.option("--nodes", type=_NODES, default=4, show_default=True)
@click.option("--rounds", type=_ROUNDS, default=DEFAULT_ROUNDS, show_default=True)
@click.option("--dishonest", type=int, default=0, show_default=True)
@click.option("--noise", type=_FloatRange(0.0, 1.0), default=0.1, show_default=True)
def consensus_bounds(rng, nodes, rounds, dishonest, noise):
    """Check the pass-rate fidelity bounds on a noisy GHZ candidate."""
    from . import consensus as consensus_mod
    from .qcore import ghz_state

    network = _build_network(nodes, dishonest, rng)
    # (1 - noise)|GHZ><GHZ| + noise I/2^n is the GHZ form at weight 1 - noise.
    # Undoing the cheats restores it, and no local unitary raises its GHZ
    # fidelity, so F' = F = 1 - noise + noise/2^n.
    played = consensus_mod._play(ghz_state(nodes), network.nodes)._replace(weight=1.0 - noise)
    est = consensus_mod._estimate(played, network, rounds, rng)
    mean = consensus_mod.mean_pass_probability(played)
    fidelity = math.fsum((1.0, -noise, noise / (1 << nodes)))  # exact terms, one rounding
    report = consensus_mod._bound_report(nodes, est, mean, fidelity, honest=dishonest == 0)
    return report, bool(report["honest_bound_ok"] or report["dishonest_bound_ok"])


@_command(consensus_group, "admit", 6)
@click.option("--nodes", type=_NODES, default=4, show_default=True)
@click.option("--rounds", type=_ROUNDS, default=DEFAULT_ROUNDS, show_default=True)
@click.option(
    "--threshold", type=_FloatRange(0.0, 1.0, min_open=True),
    default=DEFAULT_THRESHOLD, show_default=True,
)
def consensus_admit(rng, nodes, rounds, threshold):
    """Admit a block backed by fresh GHZ copies."""
    from . import consensus as consensus_mod
    from .qcore import ghz_state

    network = _build_network(nodes, 0, rng)
    report = consensus_mod.admit_block(
        network, lambda: ghz_state(nodes), "block-1", rounds, threshold
    )
    report["local_chain_lengths"] = {
        str(nid): len(blocks) for nid, blocks in network.local_chains.items()
    }
    return report, report["accepted"]


# ---------------------------------------------------------------------------
# game
# ---------------------------------------------------------------------------


def _teleport(games, rng, trials, **unused):
    import numpy as np

    from .qcore import TOL_ALG, StateVector

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
    return report, abs(worst - 1.0) <= TOL_ALG and max_premeasure_dev <= TOL_ALG


def _superdense(games, rng, **unused):
    results = {bits: games.superdense_roundtrip(bits, rng) for bits in ("00", "01", "10", "11")}
    return {"game": "superdense", "roundtrip": results}, all(k == v for k, v in results.items())


def _qkd(games, rng, protocol, eve, key_bits, **unused):
    try:
        session = games.qkd_session(protocol, key_bits, eve, rng)
    except games.GameError as exc:  # E91 has no intercept-resend attack
        raise click.UsageError(str(exc))
    report = {
        "game": "qkd",
        "protocol": protocol,
        "eavesdropper": eve,
        "key_bits": key_bits,
        "qber": session["qber"],
        "keys_match": session["alice_key"] == session["bob_key"],
    }
    return report, report["keys_match"] if eve == "none" else session["qber"] > 0.1


def _scored(play):
    """The engine of a Monte Carlo game: its report is the GameStats of its
    result, as dicts, and it passes when every one of them does."""

    def engine(games, rng, strategy, trials, q, **unused):
        from fractions import Fraction

        result = play(games, strategy, trials, rng, Fraction(q).limit_denominator(10**6))
        if isinstance(result, dict):
            report = {k: s.to_dict() for k, s in result.items()}
            return report, all(s.passed for s in result.values())
        return result.to_dict(), result.passed

    return engine


# games.STICK and games.SWITCH, named here so that --help loads no game code.
_MONTY = ("stick", "switch")
# Game name -> (the strategies it plays, the last one by default; its engine,
# which takes the games module and returns (report, ok)).
_GAMES = {
    "monty-classic": (_MONTY, _scored(lambda g, s, n, rng, q: g.monty_classic(s, n, rng))),
    "monty-ignorant": (_MONTY, _scored(lambda g, s, n, rng, q: g.monty_ignorant(s, n, rng))),
    "teleport": ((), _teleport),
    "monty-teleport": (_MONTY, _scored(lambda g, s, n, rng, q: g.monty_teleport(s, n, rng))),
    "unreliable-teleport": (
        _MONTY, _scored(lambda g, s, n, rng, q: g.unreliable_teleport(s, n, rng))
    ),
    "superdense": ((), _superdense),
    "chsh": (
        ("classical", "quantum"), _scored(lambda g, s, n, rng, q: g.chsh_game(s, n, rng))
    ),
    "pbr-ontic": (_MONTY, _scored(lambda g, s, n, rng, q: g.pbr_game("ontic", s, n, rng))),
    "pbr-epistemic": (
        _MONTY, _scored(lambda g, s, n, rng, q: g.pbr_game("epistemic", s, n, rng, q=q))
    ),
    "qkd": ((), _qkd),
}


@_command(main, "game", 7)
@click.argument("name", type=click.Choice(list(_GAMES)))
@click.option("--strategy", default=None, help="stick/switch (or classical/quantum for chsh).")
# Above q = 3/4 the doors 1 and 2 would get the negative probability 1/4 - q/3.
@click.option(
    "--q", type=_FloatRange(0.0, 0.75), default=0.125, show_default=True,
    help="PBR epistemic overlap.",
)
@click.option(
    "--protocol", type=click.Choice(["BB84", "E91"]), default="BB84", show_default=True,
    help="qkd: BB84 or E91.",
)
@click.option(
    "--eve",
    default="none",
    show_default=True,
    type=click.Choice(["none", "intercept_resend"]),
)
@click.option("--key-bits", type=click.IntRange(1, 100_000), default=128, show_default=True)
# A game draws its trials per cell as one multinomial: 0.2-0.35 s and 39 MB at
# any trial count, interpreter included.
@click.option("--trials", type=click.IntRange(1, 10_000_000), default=100_000, show_default=True)
def game_cmd(rng, name, strategy, **options):
    """Run one of the quantum game demonstrations."""
    from . import games

    strategies, engine = _GAMES[name]
    if strategy and strategy not in strategies:
        raise click.BadParameter(
            f"{name} plays {' or '.join(strategies) or 'no strategy'}, not {strategy!r}",
            param_hint="'--strategy'",
        )
    if strategies:
        options["strategy"] = strategy or strategies[-1]
    return engine(games, rng, **options)


# ---------------------------------------------------------------------------
# gleason
# ---------------------------------------------------------------------------


@main.group("gleason")
def gleason_group():
    """Density-matrix reconstruction from frame valuations."""


def _random_density(d: int, rng: RandomSource) -> DensityOperator:
    import numpy as np

    from .qcore import DensityOperator

    gen = rng.generator
    g = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m))


@_command(gleason_group, "roundtrip", 8)
@click.option("--dim", type=click.IntRange(1, 32), default=3, show_default=True)
# A frame at --dim 32 costs about 0.12 ms: 2 * 10^4 frames take about 2.5 s.
@click.option("--frames", type=click.IntRange(1, 20_000), default=2000, show_default=True)
def gleason_roundtrip(rng, dim, frames):
    """Reconstruct a random density matrix from its valuation; frame-average check."""
    import numpy as np

    from . import foundations

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
    return report, err <= foundations.TOL_RECON


# ---------------------------------------------------------------------------
# lg
# ---------------------------------------------------------------------------


def _precession_model(ctx, param, omega: float) -> foundations.PrecessionModel:
    from . import foundations

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


@_command(lg_group, "k3", 9)
@_OMEGA
def lg_k3_cmd(rng, model):
    """Maximize the three-time correlator K3 over the spacing tau."""
    from . import foundations

    res = foundations.lg_k3_max(model)
    report = {"k3_max": res["k3_max"], "tau_star": res["tau_star"], "classical_bound": 1.0}
    return report, abs(res["k3_max"] - 1.5) <= 1e-6


@_command(lg_group, "temporal-chsh", 9)
@_OMEGA
@click.option("--dt", type=_FloatRange(), default=0.7, show_default=True)
def lg_temporal_chsh(rng, model, dt):
    """Optimized two-time CHSH value (quantum maximum is 2*sqrt(2))."""
    from . import foundations

    res = foundations.temporal_chsh_optimize(model, 0.0, dt)
    return {"value": res["value"], "tsirelson": SQRT8}, abs(res["value"] - SQRT8) <= 1e-3


@_command(lg_group, "entropic", 9)
@_OMEGA
def lg_entropic(rng, model):
    """Scan for the strongest entropic violation at equal spacings."""
    from . import foundations

    best = foundations.entropic_lg_scan(model)
    report = {
        "lhs": best["lhs"],
        "rhs": best["rhs"],
        "tau": best["tau"],
        "gap": best["gap"],
        "violated": best["violated"],
    }
    return report, bool(best["violated"])


if __name__ == "__main__":  # pragma: no cover
    main()
