"""The vectorized Monte Carlo engines against the per-trial loops they
replaced, kept here as the reference.

A game engine draws how many trials fall in each cell of its draws, one
combination of their values, as one multinomial over the cells, so its
counts follow the loop's distribution but not the loop's draws.  The cells'
probabilities, summed per result, must equal the game's analytic tree:
exactly, as rationals, where every cell is rational.  Both the engine's
and the loop's counts must lie within five standard errors of them.
QKD sessions and the codec draw the same numbers as their loops, so keys
and success tallies must be exactly equal for any seed; QKD sessions must
also leave the generator exactly where the loop leaves it.
The frame average changes only the summation order of the Born weights, so
it is compared to 1e-14.
"""

import math
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, product
from unittest import mock

import numpy as np
import pytest

from chronoq import foundations, games, infotheory
from chronoq.qcore import PAULI_X, PAULI_Z, DensityOperator, QcoreError, RandomSource, bell_state
from dense_reference import (
    looped_codebook_classes,
    rank_in_class,
    scanned_decode,
    unrank_in_class,
)

SEEDS = (3, 17, 2024)
TRIALS = 4000


# ---------------------------------------------------------------------------
# Reference loops
# ---------------------------------------------------------------------------


def chsh_game_loop(strategy, trials, rng):
    gen = rng.generator
    x = gen.integers(0, 2, trials)
    y = gen.integers(0, 2, trials)
    if strategy == "classical":
        wins = int(np.sum((x & y) == 0))
    else:
        settings = games.chsh_game_settings()
        psi = bell_state("psi-").amplitudes
        dists = {}
        for qx, qy in product(range(2), range(2)):
            ua = games._dichotomic_eigenbasis(settings["A"][qx])
            ub = games._dichotomic_eigenbasis(settings["B"][qy])
            dists[(qx, qy)] = np.abs(np.kron(ua, ub) @ psi) ** 2
        wins = 0
        u = gen.random(trials)
        for k in range(trials):
            p = dists[(int(x[k]), int(y[k]))]
            outcome = int(np.searchsorted(np.cumsum(p), u[k]))
            a, b = outcome >> 1, outcome & 1
            wins += int((x[k] & y[k]) == (a ^ b))
    return games._stats("chsh_game", strategy, wins, trials, games.chsh_game_analytic(strategy))


def monty_classic_loop(strategy, trials, rng):
    gen = rng.generator
    prize = gen.integers(0, 3, trials)
    choice = gen.integers(0, 3, trials)
    coin = gen.integers(0, 2, trials)
    wins = 0
    for k in range(trials):
        p, c = int(prize[k]), int(choice[k])
        if c == p:
            monty = [d for d in range(3) if d != c][int(coin[k])]
        else:
            monty = 3 - c - p
        final = c if strategy == "stick" else 3 - c - monty
        wins += final == p
    return games._stats(
        "monty_classic", strategy, wins, trials, games.monty_classic_analytic(strategy)
    )


def monty_ignorant_loop(strategy, trials, rng):
    gen = rng.generator
    prize = gen.integers(0, 3, trials)
    choice = gen.integers(0, 3, trials)
    coin = gen.integers(0, 2, trials)
    wins = kept = 0
    for k in range(trials):
        p, c = int(prize[k]), int(choice[k])
        monty = [d for d in range(3) if d != c][int(coin[k])]
        if monty == p:
            continue
        kept += 1
        final = c if strategy == "stick" else 3 - c - monty
        wins += final == p
    analytic = games.monty_ignorant_analytic(strategy)
    return {
        "conditional": games._stats(
            "monty_ignorant", strategy, wins, kept, analytic["conditional"]
        ),
        "prize_accident": games._stats(
            "monty_ignorant_accident", strategy, trials - kept, trials,
            analytic["prize_accident"],
        ),
    }


def unreliable_teleport_loop(strategy, trials, rng):
    psi = games.StateVector(np.array([0.6, 0.8]), normalize=True)
    state = games._teleport_premeasure(psi, "00")
    probs = np.sum(np.abs(state.amplitudes.reshape(4, 2)) ** 2, axis=1)
    gen = rng.generator
    ab = gen.choice(4, size=trials, p=probs / probs.sum())
    kept_pos = gen.integers(0, 2, trials)
    target = gen.integers(1, 3, trials) if strategy == "switch" else None
    wins = kept = 0
    for k in range(trials):
        door = int(ab[k])
        bit = door >> 1 if kept_pos[k] == 0 else door & 1
        if bit:
            continue
        kept += 1
        wins += door == (0 if strategy == "stick" else int(target[k]))
    analytic = games.unreliable_teleport_analytic(strategy)
    return {
        "conditional": games._stats(
            "unreliable_teleport", strategy, wins, kept, analytic["conditional"]
        ),
        "received_bit0": games._stats(
            "unreliable_teleport_received0", strategy, kept, trials, analytic["received_bit0"]
        ),
    }


def monty_teleport_loop(strategy, trials, rng, xy=(0, 0)):
    xy_door = 2 * xy[0] + xy[1]
    psi = games.StateVector(np.array([0.6, 0.8j]), normalize=True)
    state = games._teleport_premeasure(psi, f"{xy[0]}{xy[1]}")
    probs = np.sum(np.abs(state.amplitudes.reshape(4, 2)) ** 2, axis=1)
    gen = rng.generator
    ab = gen.choice(4, size=trials, p=probs / probs.sum())
    u = gen.random(trials)
    pick2 = gen.integers(0, 2, trials)
    wins = 0
    others_by_door = {d: [o for o in range(4) if o != d] for d in range(4)}
    for k in range(trials):
        prize = int(ab[k])
        if prize == xy_door:
            cd = others_by_door[xy_door][int(u[k] * 3)]
        else:
            opts = [d for d in range(4) if d not in (xy_door, prize)]
            cd = opts[int(u[k] * 2)]
        if strategy == "stick":
            wins += prize == xy_door
        else:
            options = [d for d in range(4) if d not in (xy_door, cd)]
            wins += options[pick2[k]] == prize
    return games._stats(
        "monty_teleport", strategy, wins, trials, games.monty_teleport_analytic(strategy)
    )


def pbr_game_loop(ontology, strategy, trials, rng, q=Fraction(0)):
    if ontology == "ontic":
        psi1 = games.pbr_states()[0]
        born = np.array(
            [abs(complex(np.vdot(b.amplitudes, psi1.amplitudes))) ** 2
             for b in games.pbr_measurement_basis()]
        )
        prize_probs = born / born.sum()
    else:
        prize_probs = np.array([float(p) for p in games.pbr_prize_distribution(ontology, q)])
    gen = rng.generator
    prize = gen.choice(4, size=trials, p=prize_probs)
    contestant = gen.integers(0, 4, trials)
    monty_pick = gen.integers(0, 3, trials)
    switch_pick = gen.integers(0, 2, trials)
    monty = np.where(contestant == 0, monty_pick + 1, 0)
    goat = monty != prize
    if strategy == "stick":
        wins = int(np.sum(goat & (contestant == prize)))
    else:
        wins = 0
        for k in np.flatnonzero(goat):
            options = [d for d in range(4) if d not in (int(contestant[k]), int(monty[k]))]
            wins += options[switch_pick[k]] == prize[k]
    analytic = games.pbr_analytic(strategy, ontology, q)
    return {
        "conditional": games._stats(
            f"pbr_{ontology}", strategy, wins, int(goat.sum()), analytic["conditional"]
        ),
        "opens_prize": games._stats(
            f"pbr_{ontology}_opens_prize", strategy, int(np.sum(~goat)), trials,
            analytic["opens_prize"],
        ),
    }


def qkd_session_loop(protocol, key_bits, eavesdropper, rng):
    """games.qkd_session one qubit at a time: each block of qubits draws its
    coins and doubles as qkd_session does, and the qubits are read in order
    until key_bits of them pass the sifting."""

    def measure(amp, basis, u):
        p0 = abs(np.vdot(games._BB84_STATES[(basis, 0)], amp)) ** 2
        return 0 if u < p0 else 1

    eve = eavesdropper == "intercept_resend"
    size = 2 * key_bits + 8 * math.isqrt(key_bits) + 64
    pair = bell_state("phi+")
    alice_key, bob_key = [], []
    while len(alice_key) < key_bits:
        if protocol == "BB84":
            coins = rng.integers(0, 2, (size, 3 + eve)).tolist()
            doubles = rng.generator.random((size, 1 + eve)).tolist()
        else:
            coins = rng.integers(0, 2, (size, 2)).tolist()
            doubles = rng.generator.random((size, 1)).tolist()
        for row, u in zip(coins, doubles):
            if len(alice_key) == key_bits:
                break
            if protocol == "BB84":
                bit, basis_a, basis_b = row[0], row[1], row[-1]
                amp = games._BB84_STATES[(basis_a, bit)]
                if eve:
                    basis_e = row[2]
                    amp = games._BB84_STATES[(basis_e, measure(amp, basis_e, u[0]))]
                outcome_b = measure(amp, basis_b, u[-1])
                if basis_a == basis_b:
                    alice_key.append(bit)
                    bob_key.append(outcome_b)
            elif row[0] == row[1]:
                ua = games._dichotomic_eigenbasis(PAULI_Z if row[0] == 0 else PAULI_X)
                weights = np.abs(np.kron(ua, ua) @ pair.amplitudes) ** 2
                outcome = int(rng.choice_index(weights, u[0]))
                alice_key.append(outcome >> 1)
                bob_key.append(outcome & 1)
    return alice_key, bob_key


def reference_encode(codec, seq):
    """Codeword index of seq through the scalar rank, or None outside the book."""
    counts = tuple(seq.count(s) for s in range(len(codec.source)))
    if counts not in codec._classes:
        return None
    offset, take, _ = codec._classes[counts]
    rank = rank_in_class(codec.n, seq, counts)
    return offset + rank if rank < take else None


def reference_decoder(codec):
    """Decoding of codeword indices through the scalar unrank."""
    book = list(codec._classes.items())
    offsets = [offset for _, (offset, _, _) in book]

    def decode(index):
        counts, (offset, _, _) = book[bisect_right(offsets, index) - 1]
        return unrank_in_class(codec.n, index - offset, counts)

    return decode


def codec_roundtrip_loop(codec, trials, rng):
    p = np.asarray(codec.source)
    draws = rng.generator.choice(len(p), size=(trials, codec.n), p=p)
    decode = reference_decoder(codec)
    successes = 0
    for row in draws:
        seq = tuple(int(x) for x in row)
        idx = reference_encode(codec, seq)
        if idx is not None and decode(idx) == seq:
            successes += 1
    return successes / trials


def frame_average_loop(rho, n_frames, rng):
    d = rho.dim
    acc = np.zeros_like(rho.matrix)
    for _ in range(n_frames):
        gen = rng.generator
        z = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
        q, r = np.linalg.qr(z)
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        frame = [q[:, i].copy() for i in range(d)]
        mat = np.stack(frame)
        assert np.max(np.abs(mat.conj() @ mat.T - np.eye(d))) <= 1e-8
        out = np.zeros_like(rho.matrix)
        for v in frame:
            p = float(np.real(v.conj() @ rho.matrix @ v))
            out += p * np.outer(v, v.conj())
        acc += DensityOperator(out).matrix
    est = (d + 1) * (acc / n_frames) - np.eye(d)
    est = (est + est.conj().T) / 2.0
    eigs, evecs = np.linalg.eigh(est)
    eigs = np.clip(eigs, 0.0, None)
    return (evecs * (eigs / eigs.sum())) @ evecs.conj().T


# ---------------------------------------------------------------------------
# The games' cells against the analytic trees and the reference loops
# ---------------------------------------------------------------------------


def played_with_cells(play):
    """The result of ``play()``, and P(lost), P(won), P(void) over the cells
    of the plan that its one ``games._draw`` call drew from: Fractions
    wherever every draw's probabilities are."""
    with mock.patch.object(games, "_draw", wraps=games._draw) as draw:
        result = play()
    ((plan, _, _),) = [call.args for call in draw.call_args_list]
    p = reduce(np.multiply.outer, plan.draws).ravel()
    assert p.shape == plan.cells.shape == plan.table.shape
    assert np.allclose(p.astype(float), plan.cells, rtol=1e-14, atol=0.0)
    results = [0, 0, 0]
    for cell, result_of_cell in zip(p, plan.table.tolist()):
        results[result_of_cell] += cell
    return result, results


def per_stat(result, lost, won, void):
    """The probability each of a game's GameStats estimates, keyed as its
    result: a conditioned sample keeps the trials that are not void."""
    if isinstance(result, games.GameStats):
        return won
    kept = won + lost
    return {
        key: won / kept if key == "conditional" else kept if key == "received_bit0" else void
        for key in result
    }


def by_stat(result):
    return result.items() if isinstance(result, dict) else [(None, result)]


# (case id, engine, analytic value, whether every cell is rational)
GAME_CASES = [
    *(
        (f"monty_classic-{s}", lambda s=s: games.monty_classic(s, 10, RandomSource(1, 0)),
         lambda s=s: games.monty_classic_analytic(s), True)
        for s in ("stick", "switch")
    ),
    *(
        (f"monty_ignorant-{s}", lambda s=s: games.monty_ignorant(s, 10, RandomSource(1, 0)),
         lambda s=s: games.monty_ignorant_analytic(s), True)
        for s in ("stick", "switch")
    ),
    *(
        (f"monty_teleport-{s}-{xy[0]}{xy[1]}",
         lambda s=s, xy=xy: games.monty_teleport(s, 10, RandomSource(1, 0), xy),
         lambda s=s: games.monty_teleport_analytic(s), False)
        for s in ("stick", "switch") for xy in product((0, 1), (0, 1))
    ),
    *(
        (f"unreliable_teleport-{s}",
         lambda s=s: games.unreliable_teleport(s, 10, RandomSource(1, 0)),
         lambda s=s: games.unreliable_teleport_analytic(s), False)
        for s in ("stick", "switch")
    ),
    ("chsh-classical", lambda: games.chsh_game("classical", 10, RandomSource(1, 0)),
     lambda: Fraction(3, 4), True),
    ("chsh-quantum", lambda: games.chsh_game("quantum", 10, RandomSource(1, 0)),
     lambda: games.chsh_game_analytic("quantum"), False),
    *(
        (f"pbr_ontic-{s}", lambda s=s: games.pbr_game("ontic", s, 10, RandomSource(1, 0)),
         lambda s=s: games.pbr_analytic(s, "ontic"), False)
        for s in ("stick", "switch")
    ),
    *(
        (f"pbr_epistemic-{s}-q{q}-split{i}",
         lambda s=s, q=q, split=split: games.pbr_game(
             "epistemic", s, 10, RandomSource(1, 0), q=q, split=split),
         lambda s=s, q=q, split=split: games.pbr_analytic(s, "epistemic", q, split), True)
        for s in ("stick", "switch")
        for q, splits in (
            (Fraction(0), [None]),
            (Fraction(1, 8), [None, (Fraction(1, 8), 0, 0), (0, Fraction(1, 16), Fraction(1, 16))]),
            (Fraction(1, 4), [None, (0, 0, Fraction(1, 4))]),
            (Fraction(3, 4), [None]),
        )
        for i, split in enumerate(splits)
    ),
]


@pytest.mark.parametrize(
    "play, analytic, rational", [case[1:] for case in GAME_CASES], ids=[c[0] for c in GAME_CASES]
)
def test_game_cells_sum_to_the_analytic_tree(play, analytic, rational):
    result, results = played_with_cells(play)
    want = analytic()
    for key, value in by_stat(per_stat(result, *results)):
        target = want[key] if key else want
        if rational:
            assert isinstance(value, Fraction) and value == target, key
        else:
            assert abs(value - float(target)) <= 1e-12, key


def test_tally_puts_every_trial_in_the_certain_cell():
    # Cells in mixed-radix order, the first key most significant and one
    # axis per key of a joint draw: key (1, 0, 2) is cell 8 of 12.
    def rule(a, b, c):
        return 2 if (a, b, c) == (1, 0, 2) else 1

    plan = games._plan(rule, [0.0, 1.0], [[0.0, 0.0, 1.0], [0.0] * 3])
    assert plan.table.tolist() == [1] * 8 + [2] + [1] * 3
    assert games._draw(plan, 1000, RandomSource(1, 0)) == [0, 0, 1000]


def assert_within_five_se_of_cells(engine, loop):
    """The engine's counts and the loop's, each within five standard errors
    of the probabilities that the engine's cells give."""
    result, results = played_with_cells(engine)
    want = dict(by_stat(per_stat(result, *results)))
    for counts in (result, loop()):
        for key, stats in by_stat(counts):
            p = float(want[key])
            se = math.sqrt(p * (1.0 - p) * stats.trials)
            assert abs(stats.wins - p * stats.trials) <= 5.0 * se + 1e-9, (key, stats, p)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("strategy", ["classical", "quantum"])
def test_chsh_game_matches_loop(seed, strategy):
    assert_within_five_se_of_cells(
        lambda: games.chsh_game(strategy, TRIALS, RandomSource(seed, 1)),
        lambda: chsh_game_loop(strategy, TRIALS, RandomSource(seed, 1)),
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("strategy", ["stick", "switch"])
@pytest.mark.parametrize(
    "engine, loop",
    [
        (games.monty_classic, monty_classic_loop),
        (games.monty_ignorant, monty_ignorant_loop),
        (games.unreliable_teleport, unreliable_teleport_loop),
    ],
    ids=["monty_classic", "monty_ignorant", "unreliable_teleport"],
)
def test_door_game_matches_loop(seed, strategy, engine, loop):
    assert_within_five_se_of_cells(
        lambda: engine(strategy, TRIALS, RandomSource(seed, 4)),
        lambda: loop(strategy, TRIALS, RandomSource(seed, 4)),
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("strategy", ["stick", "switch"])
@pytest.mark.parametrize("xy", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_monty_teleport_matches_loop(seed, strategy, xy):
    assert_within_five_se_of_cells(
        lambda: games.monty_teleport(strategy, TRIALS, RandomSource(seed, 2), xy),
        lambda: monty_teleport_loop(strategy, TRIALS, RandomSource(seed, 2), xy),
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("strategy", ["stick", "switch"])
@pytest.mark.parametrize(
    "ontology, q",
    [("ontic", Fraction(0)), ("epistemic", Fraction(1, 8)), ("epistemic", Fraction(3, 4))],
)
def test_pbr_game_matches_loop(seed, strategy, ontology, q):
    assert_within_five_se_of_cells(
        lambda: games.pbr_game(ontology, strategy, TRIALS, RandomSource(seed, 3), q=q),
        lambda: pbr_game_loop(ontology, strategy, TRIALS, RandomSource(seed, 3), q),
    )


QKD_SESSIONS = [("BB84", "none"), ("BB84", "intercept_resend"), ("E91", "none")]


def assert_session_matches_loop(protocol, key_bits, eve, seed, coins_before=0):
    """Same keys as the loop, the same generator state after the session and
    the same next draws, after ``coins_before`` integers(0, 2) draws (one
    leaves a 32-bit half-word buffered on entry, two a stale one)."""
    fast, slow = RandomSource(seed, 4), RandomSource(seed, 4)
    for rng in (fast, slow):
        for _ in range(coins_before):
            rng.integers(0, 2)
    session = games.qkd_session(protocol, key_bits, eve, fast)
    alice, bob = qkd_session_loop(protocol, key_bits, eve, slow)
    assert session["alice_key"] == alice
    assert session["bob_key"] == bob
    assert fast.generator.bit_generator.state == slow.generator.bit_generator.state
    assert fast.uniform() == slow.uniform()
    assert fast.integers(0, 2) == slow.integers(0, 2)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("protocol, eve", QKD_SESSIONS)
def test_qkd_keys_match_loop(seed, protocol, eve):
    assert_session_matches_loop(protocol, 200, eve, seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("protocol, eve", QKD_SESSIONS)
@pytest.mark.parametrize(
    "key_bits, coins_before", [(200, 1), (200, 2), (1, 0), (1, 1), (2000, 0)]
)
def test_qkd_session_replays_the_loop_draws(seed, protocol, eve, key_bits, coins_before):
    assert_session_matches_loop(protocol, key_bits, eve, seed, coins_before)


class _ShortFirstBlock(RandomSource):
    """A source whose first block of QKD coins sifts no qubit: Bob's basis
    (the last coin) is the complement of Alice's."""

    calls = 0

    def integers(self, low, high=None, size=None):
        coins = super().integers(low, high, size)
        self.calls += 1
        if self.calls == 1:
            coins[:, -1] = 1 - coins[:, 0 if coins.shape[1] == 2 else 1]
        return coins


@pytest.mark.parametrize("protocol, eve", QKD_SESSIONS)
def test_qkd_session_draws_another_block_when_one_falls_short(protocol, eve):
    fast, slow = _ShortFirstBlock(5, 4), _ShortFirstBlock(5, 4)
    session = games.qkd_session(protocol, 50, eve, fast)
    assert (session["alice_key"], session["bob_key"]) == qkd_session_loop(protocol, 50, eve, slow)
    assert len(session["alice_key"]) == 50
    assert fast.calls == slow.calls == 2
    assert fast.generator.bit_generator.state == slow.generator.bit_generator.state


@lru_cache(maxsize=None)
def cached_codec(source, n, epsilon):
    """Each codebook is built once per module: the 65-bit one takes seconds."""
    return infotheory.TypicalCodec(n=n, epsilon=epsilon, source=list(source))


CODECS = [
    ([0.89, 0.11], 16, 0.25),
    ([0.89, 0.11], 16, -0.2),
    ([0.6, 0.3, 0.1], 8, 0.1),
    ([0.6, 0.3, 0.1], 8, -0.3),
    # n = MAX_CODEC_BLOCK with a 15-bit book: 19817 of the 42504 sequences
    # with five 1s are in it.
    ([0.89, 0.11], 24, 0.625 - infotheory.shannon_entropy([0.89, 0.11])),
    # Width 65: codeword indices beyond 2**63.
    ([1 / 7] * 7, 23, 0.0),
]


# The class loop takes seconds on the 65-bit book's 475020 classes; the
# other books, and these with a zero-probability symbol, one symbol and
# seven, run the same enumeration, sums and sort.
CLASS_CASES = CODECS[:-1] + [
    ([0.5, 0.0, 0.5], 10, 0.1),
    ([0.2, 0.3, 0.5, 0.0], 12, -0.1),
    ([1.0], 5, 0.0),
    ([1 / 7] * 7, 9, 0.0),
    ([0.4, 0.3, 0.2, 0.1], 20, 0.2),
]


@pytest.mark.parametrize("source, n, epsilon", CLASS_CASES)
def test_codec_classes_match_the_class_loop(source, n, epsilon):
    codec = infotheory.TypicalCodec(n=n, epsilon=epsilon, source=source)
    assert list(codec._classes.items()) == looped_codebook_classes(codec)


def test_wide_codebook_holds_every_class_once():
    codec = cached_codec(tuple([1 / 7] * 7), 23, 0.0)
    sizes = [size for _, _, size in codec._classes.values()]
    assert len(sizes) == math.comb(23 + 6, 6)
    assert sum(sizes) == 7**23
    assert codec._offsets == [0, *accumulate(sizes)][:-1]
    # Its codeword indices pass 2**63, but its largest class times 23 is
    # below 2**57, so every share t * c // d fits in int64.
    assert max(sizes) * 23 < 2**57
    assert codec._share is infotheory._floor_share


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("source, n, epsilon", CODECS)
def test_codec_roundtrip_matches_loop(seed, source, n, epsilon):
    codec = cached_codec(tuple(source), n, epsilon)
    got = infotheory.typical_codec_roundtrip(codec, 1500, RandomSource(seed, 5))
    assert got["success_rate"] == codec_roundtrip_loop(codec, 1500, RandomSource(seed, 5))


@pytest.mark.parametrize("source, n, epsilon", CODECS)
def test_codec_encode_decode_match_scalar_reference(source, n, epsilon):
    # The scalar reference unranks one symbol at a time, so the 65-bit book
    # keeps this to a few sequences.
    codec = cached_codec(tuple(source), n, epsilon)
    decode = reference_decoder(codec)
    draws = RandomSource(11, 6).generator.choice(len(source), size=(20, n), p=source)
    for seq in map(tuple, draws.tolist()):
        index = reference_encode(codec, seq)
        if index is None:
            with pytest.raises(infotheory.CodecFailure):
                codec.encode(seq)
        else:
            assert codec.encode(seq) == index
            assert codec.decode(index) == seq
    last = sum(take for _, take, _ in codec._classes.values()) - 1
    for index in (0, last):
        seq = decode(index)
        assert codec.decode(index) == seq
        assert codec.encode(seq) == index


@pytest.mark.parametrize("source, n, epsilon", CODECS)
def test_codec_decode_bisect_matches_class_scan(source, n, epsilon):
    """decode bisects the class offsets; the scan it replaced is the
    reference at the first and last index of every class, and outside the
    book.  The scan takes up to 76 ms per index on the 65-bit book (475020
    classes), so there it checks ten classes spread over the book."""
    codec = cached_codec(tuple(source), n, epsilon)
    classes = list(codec._classes.values())
    step = 1 if len(classes) <= 1000 else len(classes) // 9
    picked = sorted({*range(0, len(classes), step), len(classes) - 1})
    ends = [(classes[i][0], classes[i][0] + classes[i][1] - 1) for i in picked]
    for index in sorted({index for pair in ends for index in pair}):
        assert codec.decode(index) == scanned_decode(codec, index)
    for index in (-1, ends[-1][1] + 1):
        for decode in (codec.decode, lambda i: scanned_decode(codec, i)):
            with pytest.raises(infotheory.InfoTheoryError, match="out of range"):
                decode(index)


# ---------------------------------------------------------------------------
# Frame averaging: blocks of frames against one frame at a time
# ---------------------------------------------------------------------------


def _random_density(d, seed):
    gen = np.random.default_rng(seed)
    g = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m))


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("n_frames", [1, 1023, 1025, 2500])
def test_frame_average_matches_per_frame_loop(d, n_frames):
    rho = _random_density(d, 10 * d + 1)
    got = foundations.frame_average_reconstruct(rho, n_frames, RandomSource(d, n_frames))
    want = frame_average_loop(rho, n_frames, RandomSource(d, n_frames))
    assert np.max(np.abs(got.matrix - want)) <= 1e-14


@pytest.mark.parametrize("d", [1, 2, 4])
def test_single_frame_sampler_is_the_batched_draw(d):
    frame = foundations.sample_haar_frame(d, RandomSource(9, d))
    gen = RandomSource(9, d).generator
    z = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    assert all(np.array_equal(v, q[:, i]) for i, v in enumerate(frame))


def test_decohere_rejects_a_non_orthonormal_frame():
    rho = _random_density(2, 5)
    skewed = [np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2.0)]
    with pytest.raises(QcoreError, match="orthonormal"):
        foundations.gleason_decohere(rho, skewed)
    with pytest.raises(QcoreError, match="orthonormal"):
        foundations.gleason_decohere(rho, [np.array([1.0, 0.0])])


def test_frame_average_rejects_no_frames():
    rho = _random_density(2, 6)
    for n_frames in (0, -2):
        with pytest.raises(foundations.FoundationsError):
            foundations.frame_average_reconstruct(rho, n_frames, RandomSource(1, 1))


def test_frame_average_checks_every_frame_of_a_block(monkeypatch):
    # One skewed frame in the middle of the third block must be caught.
    draw = foundations._haar_frames
    blocks = []

    def skewed(count, d, rng):
        rows = draw(count, d, rng)
        blocks.append(count)
        if len(blocks) == 3:
            rows[count // 2, 1] = rows[count // 2, 0]
        return rows

    monkeypatch.setattr(foundations, "_haar_frames", skewed)
    with pytest.raises(QcoreError, match="orthonormal"):
        foundations.frame_average_reconstruct(_random_density(2, 7), 2500, RandomSource(2, 2))
