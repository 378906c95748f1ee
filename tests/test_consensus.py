import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chronoq import consensus
from chronoq.consensus import (
    DEFAULT_ROUNDS,
    DEFAULT_THRESHOLD,
    ConsensusError,
    Network,
    Node,
    RoundResult,
    admit_block,
    check_fidelity_bounds,
    estimate_pass_probability,
    exact_pass_probability,
    ghz_fidelity,
    optimize_corrected_fidelity,
    run_round,
    sample_theta_angles,
    theta_basis,
    theta_measure,
)
from chronoq.qcore import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityOperator,
    RandomSource,
    StateVector,
    ghz_state,
    product_probabilities,
    rotation,
)

from dense_reference import (
    dense_estimate,
    duplicated_block_corrected_fidelity,
    kron_all,
    per_round_bounds,
    per_round_play,
    per_round_theta_angles,
)


def _network(n, rng, dishonest=0, cheat=None):
    nodes = [
        Node(i, honest=i >= dishonest, cheat=cheat if i < dishonest else None)
        for i in range(n)
    ]
    return Network(nodes, rng)


def test_sample_theta_angles_invariants():
    rng = RandomSource(31, 0)
    for n in (2, 3, 5, 8):
        for _ in range(200):
            angles, m = sample_theta_angles(n, rng)
            assert len(angles) == n
            assert all(0.0 <= a < math.pi for a in angles)
            assert sum(angles) == pytest.approx(m * math.pi, abs=1e-9)


def test_theta_basis_orthonormal():
    for theta in (0.0, 0.3, 2.0):
        b = theta_basis(theta)
        assert np.allclose(b @ b.conj().T, np.eye(2), atol=1e-12)


def test_ghz_passes_with_certainty():
    rng = RandomSource(32, 0)
    for n in (2, 3, 4, 5, 6):
        g = ghz_state(n)
        for _ in range(20):
            angles, m = sample_theta_angles(n, rng)
            assert exact_pass_probability(g, angles, m) == pytest.approx(1.0, abs=1e-12)


def test_theta_measure_parity_matches():
    rng = RandomSource(33, 0)
    g = ghz_state(3)
    for _ in range(200):
        angles, m = sample_theta_angles(3, rng)
        outcomes = theta_measure(g, angles, rng)
        assert sum(outcomes) % 2 == m % 2


def test_run_round_and_estimate():
    rng = RandomSource(34, 0)
    network = _network(4, rng)
    result = run_round(network, ghz_state(4), rng)
    assert result.passed
    est = estimate_pass_probability(ghz_state(4), network, 50, rng)
    assert est["pass_rate"] == 1.0
    assert est["std_err"] == 0.0


def test_cheater_lowers_pass_rate():
    rng = RandomSource(35, 0)
    cheat = rotation(PAULI_Z, 1.3)
    network = _network(4, rng, dishonest=1, cheat=cheat)
    est = estimate_pass_probability(ghz_state(4), network, 300, rng)
    assert est["pass_rate"] < 1.0


def test_ghz_fidelity():
    assert ghz_fidelity(ghz_state(3)) == pytest.approx(1.0)
    assert ghz_fidelity(DensityOperator.maximally_mixed(8)) == pytest.approx(1 / 8)


def test_optimize_corrected_fidelity_recovers_local_rotation():
    # A GHZ state damaged by a known local unitary on one qubit is fully
    # correctable, so the optimizer should get close to 1.
    g = ghz_state(3)
    u = rotation(PAULI_X, 0.9) @ rotation(PAULI_Z, 0.4)
    damaged = g.apply(u, [2]).to_density()
    best = optimize_corrected_fidelity(damaged, [2])
    assert best >= 0.999


def test_honest_bound_on_noisy_states():
    rng = RandomSource(36, 0)
    network = _network(3, rng)
    g = ghz_state(3).to_density()
    for eps in (0.0, 0.1, 0.3):
        rho = DensityOperator((1 - eps) * g.matrix + eps * np.eye(8) / 8)
        report = check_fidelity_bounds(rho, network, 300, rng, honest=True)
        assert report["honest_bound_ok"]


def _noisy_ghz(n, eps=0.1):
    g = ghz_state(n).to_density()
    return DensityOperator((1 - eps) * g.matrix + eps * np.eye(2**n) / 2**n)


def test_honest_bound_no_false_alarms():
    # A sample pass rate near 1 has a vanishing standard error; the check
    # must still not call the honest bound broken on an honest network.
    rho = _noisy_ghz(4)
    alarms = 0
    for seed in range(100):
        rng = RandomSource(seed, 0)
        report = check_fidelity_bounds(rho, _network(4, rng), 100, rng)
        alarms += report["honest_bound_ok"] is False
    assert alarms == 0


def test_honest_bound_detects_overstated_pass_rate(monkeypatch):
    # A fidelity 0.2 below the true one is incompatible with the observed
    # pass rate, so the check must fail.
    true_fidelity = consensus.ghz_fidelity
    monkeypatch.setattr(consensus, "ghz_fidelity", lambda rho: true_fidelity(rho) - 0.2)
    rng = RandomSource(39, 0)
    report = check_fidelity_bounds(_noisy_ghz(4), _network(4, rng), 1000, rng)
    assert report["honest_bound_ok"] is False


def test_dishonest_bound():
    rng = RandomSource(37, 0)
    cheat = rotation(PAULI_X, 0.8)
    network = _network(3, rng, dishonest=1, cheat=cheat)
    report = check_fidelity_bounds(ghz_state(3), network, 300, rng, honest=False)
    assert report["dishonest_bound_ok"]
    assert report["honest_bound_ok"] is None


def test_admit_block_appends_to_honest_chains():
    rng = RandomSource(38, 0)
    network = _network(4, rng, dishonest=1, cheat=None)
    result = admit_block(network, lambda: ghz_state(4), "block-A", rounds=40)
    assert result["accepted"]
    for node in network.nodes:
        expected = ["block-A"] if node.honest else []
        assert network.local_chains[node.id] == expected


def test_admit_block_warns_on_degenerate_threshold():
    rng = RandomSource(39, 0)
    network = _network(3, rng)
    with pytest.warns(UserWarning):
        admit_block(network, lambda: ghz_state(3), "block-B", rounds=5, threshold=0.0)


def test_invalid_configs():
    rng = RandomSource(40, 0)
    with pytest.raises(ConsensusError):
        Network([], rng)
    with pytest.raises(ConsensusError):
        sample_theta_angles(1, rng)
    network = _network(3, rng)
    with pytest.raises(ConsensusError):
        run_round(network, ghz_state(4), rng)
    for cheat in (2.0 * np.eye(2), np.eye(4), PAULI_X + PAULI_Z):
        with pytest.raises(ConsensusError):
            Node(0, honest=False, cheat=cheat)
    assert DEFAULT_ROUNDS == 100
    assert DEFAULT_THRESHOLD == 0.99


def test_check_fidelity_bounds_rejects_no_rounds():
    rng = RandomSource(41, 0)
    with pytest.raises(ConsensusError):
        check_fidelity_bounds(ghz_state(3), _network(3, rng), 0, rng)


def test_theta_rounds_at_register_cap():
    # A GHZ candidate is sampled as two product branches: after the candidate
    # no 2^n array is built, so the 20-qubit cap holds with cheaters too.
    rng = RandomSource(42, 0)
    est = estimate_pass_probability(ghz_state(20), _network(20, rng), 2, rng)
    assert est["pass_rate"] == 1.0
    network = _network(20, rng, dishonest=2, cheat=(PAULI_X + PAULI_Z) / math.sqrt(2.0))
    candidate = ghz_state(20)
    tracemalloc.start()
    try:
        est = estimate_pass_probability(candidate, network, 1000, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    mean = consensus.mean_pass_probability(consensus._play(candidate, network.nodes))
    assert mean == pytest.approx(0.625, abs=1e-12)
    assert abs(est["pass_rate"] - mean) <= 3.0 * math.sqrt(mean * (1.0 - mean) / 1000)


# ---------------------------------------------------------------------------
# Properties against dense references built from Kronecker products
# ---------------------------------------------------------------------------


def _random_state(n, seed, density):
    gen = np.random.default_rng(seed)
    if not density:
        return StateVector(gen.normal(size=2**n) + 1j * gen.normal(size=2**n), normalize=True)
    a = gen.normal(size=(2**n, 3)) + 1j * gen.normal(size=(2**n, 3))
    rho = a @ a.conj().T
    return DensityOperator(rho / np.trace(rho).real)


def _random_unitary(gen):
    q, r = np.linalg.qr(gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _dense_born(state, angles):
    u = kron_all([theta_basis(t) for t in angles])
    if isinstance(state, StateVector):
        return np.abs(u @ state.amplitudes) ** 2
    return np.real(np.diag(u @ state.matrix @ u.conj().T))


def _dense_corrected_fidelity(rho, n, unitaries):
    """<GHZ| U rho U^dag |GHZ> with U = (x) unitaries (identity where None)."""
    u = kron_all([np.eye(2) if m is None else m for m in unitaries])
    g = ghz_state(n).amplitudes
    return float(np.real(g.conj() @ u @ rho.matrix @ u.conj().T @ g))


_angles = st.floats(0.0, math.pi, allow_nan=False, exclude_max=True)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    density=st.booleans(),
    data=st.data(),
)
def test_theta_kernels_match_dense_reference(n, seed, density, data):
    state = _random_state(n, seed, density)
    angles = data.draw(st.lists(_angles, min_size=n, max_size=n))
    m = data.draw(st.integers(0, n))
    dense = _dense_born(state, angles)
    if not density:  # theta_measure samples kets only
        born = product_probabilities(state, [theta_basis(t) for t in angles])
        assert np.max(np.abs(born - dense)) <= 1e-12
        assert born.sum() == pytest.approx(1.0, abs=1e-12)
    parity = np.array([bin(i).count("1") % 2 for i in range(2**n)])
    for mm in (m, m + 1):  # both parities
        expected = dense[parity == mm % 2].sum()
        assert exact_pass_probability(state, angles, mm) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_cheats_agree_on_ket_and_density(n, seed, data):
    cheaters = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
    gen = np.random.default_rng(seed)
    nodes = [
        Node(j, honest=j not in cheaters, cheat=_random_unitary(gen) if j in cheaters else None)
        for j in range(n)
    ]
    ket = _random_state(n, seed, density=False)
    from_ket = consensus._apply_cheats(ket, nodes).to_density().matrix
    from_rho = consensus._apply_cheats(ket.to_density(), nodes).matrix
    assert np.max(np.abs(from_ket - from_rho)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_corrected_fidelity_beats_random_product_corrections(n, seed, data):
    cheaters = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 3)))
    rho = _random_state(n, seed, density=True)
    best = optimize_corrected_fidelity(rho, sorted(cheaters))
    gen = np.random.default_rng(seed + 1)
    for _ in range(10):
        unitaries = [_random_unitary(gen) if j in cheaters else None for j in range(n)]
        assert best >= _dense_corrected_fidelity(rho, n, unitaries) - 1e-12


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_corrected_fidelity_exact_for_one_cheater(n, seed, data):
    # With u^dag = sum_i q_i P_i (P = I, iX, iY, iZ) the corrected fidelity is
    # a quadratic form q^T M q; recover M densely by polarization and take its
    # largest eigenvalue, the maximum over all single-qubit unitaries.
    cheater = data.draw(st.integers(0, n - 1))
    rho = _random_state(n, seed, density=True)
    basis = [np.eye(2), 1j * PAULI_X, 1j * PAULI_Y, 1j * PAULI_Z]

    def f(q):
        u_dag = sum(c * b for c, b in zip(q, basis))
        unitaries = [u_dag.conj().T if j == cheater else None for j in range(n)]
        return _dense_corrected_fidelity(rho, n, unitaries)

    eye = np.eye(4)
    form = np.diag([f(eye[i]) for i in range(4)])
    for i in range(4):
        for j in range(i + 1, 4):
            form[i, j] = form[j, i] = f((eye[i] + eye[j]) / math.sqrt(2)) - (
                form[i, i] + form[j, j]
            ) / 2
    reference = min(np.linalg.eigvalsh(form)[-1], 1.0)
    assert optimize_corrected_fidelity(rho, [cheater]) == pytest.approx(reference, abs=1e-12)


@pytest.mark.parametrize("n, cheaters", [(3, [0, 2]), (4, [1, 2, 3]), (5, [0, 1, 3, 4])])
def test_corrected_fidelity_undoes_local_damage(n, cheaters):
    # Local unitaries leave white noise unchanged, so the best correction of
    # a damaged noisy GHZ state restores exactly (1 - eps) + eps / 2^n.
    gen = np.random.default_rng(n)
    g = ghz_state(n)
    for q in cheaters:
        g = g.apply(_random_unitary(gen), [q])
    eps = 0.2
    rho = DensityOperator((1 - eps) * g.to_density().matrix + eps * np.eye(2**n) / 2**n)
    expected = (1 - eps) + eps / 2**n
    assert optimize_corrected_fidelity(rho, cheaters) == pytest.approx(expected, abs=1e-10)


# Values of the Nelder-Mead search over ZYZ Euler angles (8 golden-ratio
# starts) that the eigenvector ascent replaced, on seeded rank-3 states.
@pytest.mark.parametrize(
    "n, cheaters, seed, previous",
    [
        (3, [0, 1], 11, 0.4664875638687168),
        (3, [0, 1, 2], 12, 0.45688163857197084),
        (4, [1, 3], 13, 0.14403975564657198),
        (4, [0, 1, 2], 14, 0.36171877573655675),
        (5, [0, 2, 4], 15, 0.11332801779274217),
        (4, [0, 1, 2, 3], 16, 0.274129519012527),
    ],
)
def test_corrected_fidelity_no_worse_than_previous_search(n, cheaters, seed, previous):
    rho = _random_state(n, seed, density=True)
    assert optimize_corrected_fidelity(rho, cheaters) >= previous - 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_corrected_fidelity_with_every_node_cheating(n):
    # With no honest node the block is rho itself, indexed once.
    rho = _random_state(n, 40 + n, density=True)
    assert optimize_corrected_fidelity(rho, range(n)) == pytest.approx(
        duplicated_block_corrected_fidelity(rho, range(n)), abs=1e-12
    )


def _cheating_nodes(n, cheaters, gen):
    return [
        Node(j, honest=j not in cheaters, cheat=_random_unitary(gen) if j in cheaters else None)
        for j in range(n)
    ]


def _random_cheaters(n, gen, data):
    return _cheating_nodes(n, data.draw(st.sets(st.integers(0, n - 1), max_size=n)), gen)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    density=st.booleans(),
    data=st.data(),
)
def test_mean_pass_probability_bounded_by_fidelity(n, seed, density, data):
    # |rho[0, L]| <= sqrt(rho[0, 0] rho[L, L]) <= (rho[0, 0] + rho[L, L]) / 2, so
    # 2 P - 1 = 2 Re rho[0, L] <= F = (rho[0, 0] + rho[L, L]) / 2 + Re rho[0, L].
    played = consensus._apply_cheats(
        _random_state(n, seed, density), _random_cheaters(n, np.random.default_rng(seed), data)
    )
    mean = consensus.mean_pass_probability(played)
    assert 0.0 <= mean <= 1.0
    assert 2.0 * mean - 1.0 <= ghz_fidelity(played) + 1e-12
    if not density:
        assert consensus.mean_pass_probability(played.to_density()) == pytest.approx(
            mean, abs=1e-12
        )


@pytest.mark.parametrize("n", [2, 3, 6, 11])
def test_two_branch_mean_pass_probability_matches_dense(n):
    # The CLI cheat (X + Z)/sqrt(2) on k nodes: the product form renormalizes
    # as the dense cheats do, so consensus run reports the same bits.  Random
    # cheats agree to rounding.
    cheat = (PAULI_X + PAULI_Z) / math.sqrt(2.0)
    for k in range(n + 1):
        nodes = _network(n, RandomSource(0, 0), dishonest=k, cheat=cheat).nodes
        dense = consensus._apply_cheats(ghz_state(n), nodes)
        form = consensus._play(ghz_state(n), nodes)
        assert consensus.mean_pass_probability(form) == consensus.mean_pass_probability(dense)
    gen = np.random.default_rng(n)
    for _ in range(20):
        nodes = [Node(j, honest=False, cheat=_random_unitary(gen)) for j in range(n)]
        dense = consensus._apply_cheats(ghz_state(n), nodes)
        form = consensus._play(ghz_state(n), nodes)
        mean = consensus.mean_pass_probability(form)
        assert mean == pytest.approx(consensus.mean_pass_probability(dense), abs=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_mean_pass_probability_is_the_angle_average(n):
    rho = _random_state(n, 100 + n, density=True)  # rank 3
    rng = RandomSource(37, n)
    samples = np.array(
        [exact_pass_probability(rho, *sample_theta_angles(n, rng)) for _ in range(4000)]
    )
    se = samples.std() / math.sqrt(samples.size)
    assert abs(samples.mean() - consensus.mean_pass_probability(rho)) <= 3.0 * se


# ---------------------------------------------------------------------------
# The two-branch descent and the batched bound rounds against per-round loops
# ---------------------------------------------------------------------------


def _two_branch_candidate(n, gen, shape):
    if shape == "ghz":
        return ghz_state(n)
    if shape == "basis":
        return StateVector.basis(2**n, int(gen.integers(2**n)))
    amps = np.zeros(2**n, dtype=np.complex128)
    i, j = gen.choice(2**n, size=2, replace=False)
    amps[[i, j]] = gen.normal(size=2) + 1j * gen.normal(size=2)
    return StateVector(amps, normalize=True)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 11),
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(["ghz", "basis", "pair"]),
    data=st.data(),
)
def test_descent_picks_the_dense_outcome(n, seed, shape, data):
    gen = np.random.default_rng(seed)
    nodes = _random_cheaters(n, gen, data)
    candidate = _two_branch_candidate(n, gen, shape)
    played = consensus._apply_cheats(candidate, nodes)
    form = consensus._play(candidate, nodes)
    assert not isinstance(form, StateVector)
    dense_rng, form_rng = RandomSource(seed, 1), RandomSource(seed, 1)
    for _ in range(10):
        angles, m = sample_theta_angles(n, dense_rng)
        assert sample_theta_angles(n, form_rng) == (angles, m)
        u = copy.deepcopy(form_rng).uniform()
        outcome = theta_measure(form, angles, form_rng)
        dense = theta_measure(played, angles, dense_rng)
        born = product_probabilities(played, [theta_basis(t) for t in angles])
        # Rounding may move an outcome only for a draw at a CDF boundary.
        if np.min(np.abs(np.cumsum(born / born.sum()) - u)) > 1e-12:
            assert outcome == dense
    assert form_rng.uniform() == dense_rng.uniform()

    rng = RandomSource(seed, 2)
    assert estimate_pass_probability(ghz_state(n), _network(n, rng), 50, rng)["pass_rate"] == 1.0


@pytest.mark.parametrize("n, cheaters", [(2, []), (3, [1]), (6, [0, 2, 5]), (11, [3, 10])])
@pytest.mark.parametrize("seed", [1, 2, 42])
def test_estimate_matches_dense_reference(n, cheaters, seed):
    nodes = _cheating_nodes(n, cheaters, np.random.default_rng(seed))
    fast_rng, dense_rng = RandomSource(seed, 5), RandomSource(seed, 5)
    fast = estimate_pass_probability(ghz_state(n), Network(nodes, fast_rng), 200, fast_rng)
    assert fast == dense_estimate(ghz_state(n), Network(nodes, dense_rng), 200, dense_rng)
    assert fast_rng.uniform() == dense_rng.uniform()


@pytest.mark.parametrize("n", [2, 5, 8, 12, 20])
@pytest.mark.parametrize("seed", [1, 2, 42])
def test_batched_angles_match_per_round_reference(n, seed):
    # A bound round draws n - 1 angle doubles and then its pass double; a
    # row of the batch must give the angles and m of the round drawn alone,
    # with sums in sequence also past numpy's 8-way unrolled np.sum.
    rounds = 150
    batch_rng, loop_rng, one_rng = (RandomSource(seed, 3) for _ in range(3))
    draws = batch_rng.uniform(0.0, 1.0, (rounds, n))
    angles, m = consensus._complete_angles(math.pi * draws[:, :-1])
    for r in range(rounds):
        reference = per_round_theta_angles(n, loop_rng)
        assert (angles[r].tolist(), int(m[r])) == reference
        assert sample_theta_angles(n, one_rng) == reference
        assert loop_rng.uniform() == draws[r, -1] == one_rng.uniform()


@pytest.mark.parametrize("n, cheaters", [(2, []), (4, []), (5, [1, 3]), (8, []), (8, [0, 2, 5])])
@pytest.mark.parametrize("seed", [1, 2, 42])
def test_batched_bounds_match_per_round_reference(n, cheaters, seed, monkeypatch):
    # Small chunks, so that the rounds span many of them.
    monkeypatch.setattr(consensus, "_CHUNK_ENTRIES", 64)
    rounds = 150
    rho = _random_state(n, seed, density=True)
    nodes = _cheating_nodes(n, cheaters, np.random.default_rng(seed))
    rng, ref_rng = RandomSource(seed, 4), RandomSource(seed, 4)
    report = check_fidelity_bounds(rho, Network(nodes, rng), rounds, rng, honest=not cheaters)
    reference = per_round_bounds(rho, Network(nodes, ref_rng), rounds, ref_rng, honest=not cheaters)
    assert 0 < report["pass_rate"] < 1
    assert report == reference
    assert rng.uniform() == ref_rng.uniform()


def test_complete_angles_wraps_a_negative_last_angle():
    # partial / pi lies within 1e-12 above 1, so m = 1 leaves last < 0: the
    # row is completed to 2 pi instead.
    head = np.array([[math.pi / 2, math.pi / 2 + 1e-13], [0.5, 0.25]])
    angles, m = consensus._complete_angles(head)
    assert m.tolist() == [2, 1]
    assert np.all((0.0 <= angles) & (angles < math.pi))
    assert angles.sum(axis=1) == pytest.approx(m * math.pi, abs=1e-12)


# ---------------------------------------------------------------------------
# θ rounds batched across rounds against the per-round loop
# ---------------------------------------------------------------------------


def _batched_rounds(played, network, rounds, rng):
    """consensus._play_rounds as a list of RoundResult."""
    results = []
    for picks, angles, m, outcomes in consensus._play_rounds(played, network, rounds, rng):
        for pick, row, mm, bits in zip(picks.tolist(), angles.tolist(), m.tolist(),
                                       outcomes.tolist()):
            parity = int(mm)
            results.append(RoundResult(network.nodes[pick].id, tuple(row), tuple(bits), parity,
                                       sum(bits) % 2 == parity % 2))
    return results


def _assert_rounds_match_loop(played, nodes, rounds, sources):
    """The batch, the per-round loop and the estimate on three sources in
    one state: equal rounds, pass rate and generator state left behind."""
    batch, loop, est = sources
    reference = per_round_play(played, Network(nodes, loop), rounds, loop)
    assert _batched_rounds(played, Network(nodes, batch), rounds, batch) == reference
    p_hat = consensus._estimate(played, Network(nodes, est), rounds, est)["pass_rate"]
    assert p_hat == sum(r.passed for r in reference) / rounds
    state = loop.generator.bit_generator.state
    assert batch.generator.bit_generator.state == state == est.generator.bit_generator.state


@pytest.mark.parametrize("n, rejects", [(3, True), (20, True), (2, False), (4, False)])
def test_forced_lemire_rejection_matches_per_round_reference(n, rejects):
    # A buffered half-word of 0 makes m = 0 below the Lemire threshold
    # 2^32 mod n (1 at n = 3, 16 at n = 20), so the first verifier draw
    # rejects it and takes a fresh word; a power-of-two n never rejects.
    nodes = _cheating_nodes(n, [0, n - 1], np.random.default_rng(n))
    played = consensus._play(ghz_state(n), nodes)
    sources = [RandomSource(7, 1) for _ in range(4)]
    for source in sources:
        bits = source.generator.bit_generator
        bits.state = {**bits.state, "has_uint32": 1, "uinteger": 0}
    probe = sources.pop()
    probe.integers(0, n)
    assert probe.generator.bit_generator.state["has_uint32"] == int(rejects)
    _assert_rounds_match_loop(played, nodes, 60, sources)


_SEEDS = st.one_of(st.sampled_from([1, 2, 42]), st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 20),
    seed=_SEEDS,
    cheaters=st.sets(st.integers(0, 19)),
    shape=st.sampled_from(["ghz", "ghz", "pair", "basis", "dense"]),
    rounds=st.integers(1, 120),
    buffered=st.booleans(),
    chunk_entries=st.sampled_from([1, 45, 1 << 16]),
)
@example(n=20, seed=1, cheaters=set(range(20)), shape="ghz", rounds=120, buffered=False,
         chunk_entries=1 << 16)
@example(n=2, seed=2, cheaters=set(), shape="ghz", rounds=120, buffered=True, chunk_entries=45)
@example(n=5, seed=42, cheaters={1, 3}, shape="dense", rounds=50, buffered=True,
         chunk_entries=45)
def test_batched_rounds_match_per_round_loop(
    n, seed, cheaters, shape, rounds, buffered, chunk_entries
):
    gen = np.random.default_rng(seed)
    nodes = _cheating_nodes(n, {c for c in cheaters if c < n}, gen)
    if shape == "dense":  # more than two amplitudes: Born sampling row by row
        candidate = _random_state(min(n, 8), seed, density=False)
        nodes = nodes[: candidate.num_qubits]
    else:
        candidate = _two_branch_candidate(n, gen, shape)
    played = consensus._play(candidate, nodes)
    sources = [RandomSource(seed, 6) for _ in range(3)]
    if buffered:  # start with a half-word buffered
        for source in sources:
            source.integers(0, 7)
    with pytest.MonkeyPatch.context() as patch:
        # Small chunks put chunk boundaries between the rounds.
        patch.setattr(consensus, "_CHUNK_ENTRIES", chunk_entries)
        _assert_rounds_match_loop(played, nodes, rounds, sources)


def test_descent_on_a_branch_boundary_is_played_by_the_scalar_descent(monkeypatch):
    # Honest GHZ: each of the first n - 1 bits is a fair coin, so every
    # dyadic u = k / 2^(n-1) puts ``rest`` on a branch boundary.  At u = 1/2
    # the scalar descent picks outcome 1 for the first qubit.
    n = 3
    form = consensus._play(ghz_state(n), _network(n, RandomSource(0, 0)).nodes)
    angles = np.array([[0.3, 1.1, math.pi - 1.4], [0.7, 0.2, math.pi - 0.9]])
    u = np.array([0.5, 0.3])
    replayed = []

    def scalar(form, angles, u):
        replayed.append(u)
        return consensus_descend(form, angles, u)

    consensus_descend = consensus._descend
    monkeypatch.setattr(consensus, "_descend", scalar)
    bits = consensus._descend_rounds(form, angles, u)
    assert replayed == [0.5]
    assert [tuple(row) for row in bits.tolist()] == [
        consensus_descend(form, row, ur) for row, ur in zip(angles.tolist(), u.tolist())
    ]
    assert bits[0, 0] == 1
