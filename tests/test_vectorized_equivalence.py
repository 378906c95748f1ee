"""The vectorized Monte Carlo engines against the per-trial loops they
replaced, kept here as the reference.

Every engine makes the same generator calls in the same order as its loop,
so counts, keys and success tallies must be exactly equal for any seed.
The frame average changes only the summation order of the Born weights, so
it is compared to 1e-14.
"""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from chronoq import foundations, games, infotheory
from chronoq.qcore import PAULI_X, PAULI_Z, DensityOperator, QcoreError, RandomSource, bell_state

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
    def measure(amp, basis):
        p0 = abs(np.vdot(games._BB84_STATES[(basis, 0)], amp)) ** 2
        return 0 if rng.uniform() < p0 else 1

    alice_key, bob_key = [], []
    if protocol == "BB84":
        while len(alice_key) < key_bits:
            bit = int(rng.integers(0, 2))
            basis_a = int(rng.integers(0, 2))
            amp = games._BB84_STATES[(basis_a, bit)]
            if eavesdropper == "intercept_resend":
                basis_e = int(rng.integers(0, 2))
                amp = games._BB84_STATES[(basis_e, measure(amp, basis_e))]
            basis_b = int(rng.integers(0, 2))
            outcome_b = measure(amp, basis_b)
            if basis_a == basis_b:
                alice_key.append(bit)
                bob_key.append(outcome_b)
    else:
        pair = bell_state("phi+")
        while len(alice_key) < key_bits:
            basis_a = int(rng.integers(0, 2))
            basis_b = int(rng.integers(0, 2))
            if basis_a != basis_b:
                continue
            ua = games._dichotomic_eigenbasis(PAULI_Z if basis_a == 0 else PAULI_X)
            outcome = rng.choice_index(np.abs(np.kron(ua, ua) @ pair.amplitudes) ** 2)
            alice_key.append(outcome >> 1)
            bob_key.append(outcome & 1)
    return alice_key, bob_key


def codec_roundtrip_loop(codec, trials, rng):
    p = np.asarray(codec.source)
    draws = rng.generator.choice(len(p), size=(trials, codec.n), p=p)
    successes = 0
    for row in draws:
        seq = tuple(int(x) for x in row)
        try:
            idx = codec.encode(seq)
        except infotheory.CodecFailure:
            continue
        if codec.decode(idx) == seq:
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
# Exact equality of the games, keys and codec tallies
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("strategy", ["classical", "quantum"])
def test_chsh_game_matches_loop(seed, strategy):
    assert games.chsh_game(strategy, TRIALS, RandomSource(seed, 1)) == chsh_game_loop(
        strategy, TRIALS, RandomSource(seed, 1)
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("strategy", ["stick", "switch"])
@pytest.mark.parametrize("xy", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_monty_teleport_matches_loop(seed, strategy, xy):
    assert games.monty_teleport(strategy, TRIALS, RandomSource(seed, 2), xy) == (
        monty_teleport_loop(strategy, TRIALS, RandomSource(seed, 2), xy)
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("strategy", ["stick", "switch"])
@pytest.mark.parametrize(
    "ontology, q",
    [("ontic", Fraction(0)), ("epistemic", Fraction(1, 8)), ("epistemic", Fraction(3, 4))],
)
def test_pbr_game_matches_loop(seed, strategy, ontology, q):
    assert games.pbr_game(ontology, strategy, TRIALS, RandomSource(seed, 3), q=q) == (
        pbr_game_loop(ontology, strategy, TRIALS, RandomSource(seed, 3), q)
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "protocol, eve", [("BB84", "none"), ("BB84", "intercept_resend"), ("E91", "none")]
)
def test_qkd_keys_match_loop(seed, protocol, eve):
    session = games.qkd_session(protocol, 200, eve, RandomSource(seed, 4))
    alice, bob = qkd_session_loop(protocol, 200, eve, RandomSource(seed, 4))
    assert session["alice_key"] == alice
    assert session["bob_key"] == bob


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "source, n, epsilon",
    [
        ([0.89, 0.11], 16, 0.25),
        ([0.89, 0.11], 16, -0.2),
        ([0.6, 0.3, 0.1], 8, 0.1),
        ([0.6, 0.3, 0.1], 8, -0.3),
    ],
)
def test_codec_roundtrip_matches_loop(seed, source, n, epsilon):
    codec = infotheory.TypicalCodec(n=n, epsilon=epsilon, source=source)
    got = infotheory.typical_codec_roundtrip(codec, 1500, RandomSource(seed, 5))
    assert got["success_rate"] == codec_roundtrip_loop(codec, 1500, RandomSource(seed, 5))


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


def test_frame_average_validates_every_decohered_operator():
    # Hermitian and unit-trace but not PSD: a frame vector within about
    # 0.07 of |1> gets a negative Born weight, which happens in about one
    # frame in a hundred, so checking only some frames of a block misses it.
    bad = DensityOperator(np.diag([1.005, -0.005]).astype(complex), validate=False)
    with pytest.raises(QcoreError, match="positive semidefinite"):
        foundations.frame_average_reconstruct(bad, 3000, RandomSource(1, 1))
    doubled = DensityOperator(np.diag([1.5, 0.5]).astype(complex), validate=False)
    with pytest.raises(QcoreError, match="unit trace"):
        foundations.frame_average_reconstruct(doubled, 10, RandomSource(1, 1))


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
