import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chronoq import cli, consensus
from chronoq.consensus import (
    DEFAULT_ROUNDS,
    DEFAULT_THRESHOLD,
    ConsensusError,
    Network,
    Node,
    admit_block,
    check_fidelity_bounds,
    estimate_pass_probability,
    exact_pass_probability,
    ghz_fidelity,
    optimize_corrected_fidelity,
    sample_theta_angles,
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
    cli_candidate_closed_forms,
    dense_estimate,
    duplicated_block_corrected_fidelity,
    golden_ratio_start,
    kron_all,
    noisy_ghz_density,
    per_round_bounds,
    per_round_theta_angles,
    run_round,
    serial_corrected_fidelity,
    theta_basis,
    theta_measure,
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


@pytest.mark.parametrize("count", [3, 5])
def test_theta_measure_checks_the_angle_count(count):
    # A dense ket and the two-branch form of 4-qubit GHZ; nothing is drawn.
    g = ghz_state(4)
    rng = RandomSource(33, 1)
    for state in (g, consensus._play(g, _network(4, rng).nodes)):
        with pytest.raises(ConsensusError, match="angle count must match"):
            theta_measure(state, [0.5] * count, rng)
    assert rng.uniform() == RandomSource(33, 1).uniform()


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


def test_admit_block_drops_the_candidate_before_the_rounds(monkeypatch):
    # A 2^n ket held through the rounds keeps 16 MB alive at n = 20.
    buffers = []

    def supplier():
        state = ghz_state(6)
        buffers.append(weakref.ref(state.amplitudes))
        return state

    def estimate(played, network, rounds, rng):
        assert buffers[0]() is None, "the candidate ket outlives its play"
        return estimate_rounds(played, network, rounds, rng)

    estimate_rounds = consensus._estimate
    monkeypatch.setattr(consensus, "_estimate", estimate)
    network = _network(6, RandomSource(38, 1))
    assert admit_block(network, supplier, "block-C", rounds=20)["accepted"]
    with pytest.raises(ConsensusError, match="rounds must be positive"):
        admit_block(network, supplier, "block-D", rounds=0)
    with pytest.raises(ConsensusError, match="qubit count"):
        admit_block(network, lambda: ghz_state(5), "block-E", rounds=20)


def test_admit_block_warns_on_degenerate_threshold():
    rng = RandomSource(39, 0)
    network = _network(3, rng)
    with pytest.warns(UserWarning):
        admit_block(network, lambda: ghz_state(3), "block-B", rounds=5, threshold=0.0)


def test_invalid_configs():
    rng = RandomSource(40, 0)
    for nodes in ([], [Node(0)]):
        with pytest.raises(ConsensusError, match="at least two nodes"):
            Network(nodes, rng)
    with pytest.raises(ConsensusError):
        sample_theta_angles(1, rng)
    network = _network(3, rng)
    with pytest.raises(ConsensusError):
        run_round(network, ghz_state(4), rng)
    with pytest.raises(ConsensusError, match="StateVector or DensityOperator"):
        exact_pass_probability(np.ones(4), [0.5, 0.5], 0)
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


def test_lockstep_starts_match_the_serial_starts():
    for k in range(1, 21):
        starts = consensus._starts(k)
        assert starts.shape == (consensus._STARTS, k, 2, 2)
        for s in range(consensus._STARTS):
            assert np.array_equal(starts[s], golden_ratio_start(s, k))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_lockstep_ascent_matches_serial_reference(n, seed, data):
    # Every start follows the serial sequence of steps.  Up to two cheaters
    # the kets are exact products, so the values agree bit for bit; with
    # more, the Kronecker products round in another order.
    k = data.draw(st.integers(1, min(n, 4)))
    cheaters = data.draw(st.permutations(range(n)))[:k]
    rho = _random_state(n, seed, density=True)
    got, want = optimize_corrected_fidelity(rho, cheaters), serial_corrected_fidelity(rho, cheaters)
    if k <= 2:
        assert got == want
    else:
        assert abs(got - want) <= 1e-12


def _cli_candidate_cases():
    for n in range(2, 10):
        for d in sorted({1, -(-n // 2), n}):
            yield n, d, 0.1 if n % 2 else 0.3
    yield 11, 11, 0.1


@pytest.mark.parametrize("n, d, noise", list(_cli_candidate_cases()))
def test_cli_candidate_corrected_fidelity_is_exact(n, d, noise):
    # Product cheats leave white noise alone and the cheaters can undo their
    # own cheat, so on the consensus bounds candidate F' = (1 - p) + p / 2^n.
    rng = RandomSource(1, 0)
    network = cli._build_network(n, d, rng)
    report = check_fidelity_bounds(noisy_ghz_density(n, noise), network, 1, rng, honest=False)
    assert abs(report["fidelity"] - ((1.0 - noise) + noise / (1 << n))) <= 1e-12


def _cheating_nodes(n, cheaters, gen):
    return [
        Node(j, honest=j not in cheaters, cheat=_random_unitary(gen) if j in cheaters else None)
        for j in range(n)
    ]


def _random_cheaters(n, gen, data):
    return _cheating_nodes(n, data.draw(st.sets(st.integers(0, n - 1), max_size=n)), gen)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    density=st.booleans(),
    data=st.data(),
)
def test_mean_pass_probability_bounded_by_fidelity(n, seed, density, data):
    # The chain F' >= F >= 2 P - 1 >= 4 P - 3 of the theta-protocol bounds.
    # |rho[0, L]| <= sqrt(rho[0, 0] rho[L, L]) <= (rho[0, 0] + rho[L, L]) / 2, so
    # 2 P - 1 = 2 Re rho[0, L] <= F = (rho[0, 0] + rho[L, L]) / 2 + Re rho[0, L];
    # F' maximizes F over corrections that include the identity; P <= 1.
    nodes = _random_cheaters(n, np.random.default_rng(seed), data)
    played = consensus._apply_cheats(_random_state(n, seed, density), nodes)
    mean = consensus.mean_pass_probability(played)
    fidelity = ghz_fidelity(played)
    cheaters = [j for j, node in enumerate(nodes) if not node.honest]
    rho = played if density else played.to_density()
    corrected = optimize_corrected_fidelity(rho, cheaters)
    assert 0.0 <= mean <= 1.0
    assert corrected >= fidelity - 1e-12
    assert fidelity >= 2.0 * mean - 1.0 - 1e-12
    assert 2.0 * mean - 1.0 >= 4.0 * mean - 3.0
    if not density:
        assert consensus.mean_pass_probability(played.to_density()) == pytest.approx(
            mean, abs=1e-12
        )


@pytest.mark.parametrize("n", [2, 3, 6, 11])
def test_two_branch_mean_pass_probability_matches_dense(n):
    # The CLI cheat (X + Z)/sqrt(2) on k nodes: the form reads the closed
    # form rounded once, 1 when honest.  Random cheats agree with the dense
    # ket to rounding.
    cheat = (PAULI_X + PAULI_Z) / math.sqrt(2.0)
    for k in range(n + 1):
        nodes = _network(n, RandomSource(0, 0), dishonest=k, cheat=cheat).nodes
        form = consensus._play(ghz_state(n), nodes)
        assert consensus.mean_pass_probability(form) == cli_candidate_closed_forms(n, k, 0.0)[1]
    gen = np.random.default_rng(n)
    for _ in range(20):
        nodes = [Node(j, honest=False, cheat=_random_unitary(gen)) for j in range(n)]
        dense = consensus._apply_cheats(ghz_state(n), nodes)
        form = consensus._play(ghz_state(n), nodes)
        mean = consensus.mean_pass_probability(form)
        assert mean == pytest.approx(consensus.mean_pass_probability(dense), abs=1e-15)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 8),
    noise=st.floats(0.0, 1.0),
    cli_cheat=st.booleans(),
    cheaters=st.sets(st.integers(0, 7)),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=8, noise=0.0, cli_cheat=True, cheaters=set(range(8)), seed=1)
@example(n=5, noise=1.0, cli_cheat=True, cheaters={0, 1}, seed=2)
@example(n=3, noise=1.0, cli_cheat=False, cheaters={0, 2}, seed=3)
@example(n=4, noise=0.0, cli_cheat=False, cheaters=set(range(4)), seed=4)
def test_weighted_form_matches_the_dense_noisy_candidate(n, noise, cli_cheat, cheaters, seed):
    # The GHZ form at weight 1 - p against C((1 - p)|GHZ><GHZ| + p I/2^n)C^dag:
    # P(theta) on random angle rows, the mean pass probability, and, under
    # the CLI cheat on nodes 0..k-1, the corrected fidelity 1 - p + p/2^n.
    gen = np.random.default_rng(seed)
    cheaters = {j for j in cheaters if j < n}
    k = len(cheaters)
    if cli_cheat:
        nodes = cli._build_network(n, k, RandomSource(0, 0)).nodes
    else:
        nodes = _cheating_nodes(n, cheaters, gen)
    form = consensus._play(ghz_state(n), nodes)._replace(weight=1.0 - noise)
    played = consensus._apply_cheats(noisy_ghz_density(n, noise), nodes)
    angles, m = consensus._complete_angles(gen.uniform(0.0, math.pi, (20, n - 1)))
    got = consensus._pass_probabilities(form, angles, m)
    assert np.max(np.abs(got - consensus._pass_probabilities(played, angles, m))) <= 1e-12
    mean = consensus.mean_pass_probability(form)
    assert abs(mean - consensus.mean_pass_probability(played)) <= 1e-12
    if cli_cheat:
        closed = cli_candidate_closed_forms(n, k, noise)[0]
        corrected = optimize_corrected_fidelity(played, range(k))
        assert closed - 1e-9 <= corrected <= closed + 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_mean_pass_probability_is_the_angle_average(n):
    # A rank-3 rho, and the two-branch form of GHZ with every node cheating.
    form = consensus._play(ghz_state(n), _cheating_nodes(n, range(n), np.random.default_rng(n)))
    for state in (_random_state(n, 100 + n, density=True), form):
        rng = RandomSource(37, n)
        samples = np.array(
            [exact_pass_probability(state, *sample_theta_angles(n, rng)) for _ in range(4000)]
        )
        se = samples.std() / math.sqrt(samples.size)
        assert abs(samples.mean() - consensus.mean_pass_probability(state)) <= 3.0 * se


# ---------------------------------------------------------------------------
# The two-branch closed form and the batched bound rounds against dense references
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 11),
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(["ghz", "basis", "pair"]),
    data=st.data(),
)
def test_two_branch_pass_probability_matches_dense(n, seed, shape, data):
    # P(theta) of the O(n) closed form against the dense Born distribution
    # of the played ket summed over the outcomes of parity m, and against
    # the ket's anti-diagonal.
    gen = np.random.default_rng(seed)
    nodes = _random_cheaters(n, gen, data)
    candidate = _two_branch_candidate(n, gen, shape)
    played = consensus._apply_cheats(candidate, nodes)
    form = consensus._play(candidate, nodes)
    assert isinstance(form, consensus._TwoBranches)
    parity = np.array([bin(i).count("1") % 2 for i in range(2**n)])
    rng = RandomSource(seed, 1)
    for _ in range(5):
        angles, m = sample_theta_angles(n, rng)
        p = exact_pass_probability(form, angles, m)
        born = product_probabilities(played, [theta_basis(t) for t in angles])
        assert abs(p - born[parity == m % 2].sum()) <= 1e-12
        assert abs(p - exact_pass_probability(played, angles, m)) <= 1e-12


def test_honest_ghz_fails_only_on_the_top_doubles():
    # 1 - P(theta) <= 8 * 2^-53 on honest GHZ, so a round fails only when
    # random() returns one of the eight largest doubles below 1.
    for n in range(2, 21):
        form = consensus._play(ghz_state(n), _network(n, RandomSource(0, 0)).nodes)
        rng = RandomSource(n, 9)
        for _ in range(10):
            angles, m = consensus._complete_angles(rng.uniform(0.0, math.pi, (10_000, n - 1)))
            p = consensus._pass_probabilities(form, angles, m)
            assert np.max(1.0 - p) <= 8 * 2.0**-53


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


_SEEDS = st.one_of(st.sampled_from([1, 2, 42]), st.integers(0, 2**32 - 1))


def _played_candidate(n, seed, cheaters, shape):
    """The nodes and the played candidate: GHZ or another two-branch ket
    under the cheats of ``cheaters``, or a dense ket of up to 8 qubits."""
    gen = np.random.default_rng(seed)
    nodes = _cheating_nodes(n, {c for c in cheaters if c < n}, gen)
    if shape == "dense":  # more than two amplitudes: the anti-diagonal
        candidate = _random_state(min(n, 8), seed, density=False)
        nodes = nodes[: candidate.num_qubits]
    else:
        candidate = _two_branch_candidate(n, gen, shape)
    return nodes, consensus._play(candidate, nodes)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 20),
    seed=_SEEDS,
    cheaters=st.sets(st.integers(0, 19)),
    shape=st.sampled_from(["ghz", "ghz", "pair", "basis", "dense"]),
    rounds=st.integers(1, 120),
    chunk_entries=st.sampled_from([1, 45, 1 << 16]),
)
@example(n=20, seed=1, cheaters=set(range(20)), shape="ghz", rounds=120, chunk_entries=1 << 16)
@example(n=2, seed=2, cheaters=set(), shape="ghz", rounds=120, chunk_entries=45)
@example(n=5, seed=42, cheaters={1, 3}, shape="dense", rounds=50, chunk_entries=45)
def test_batched_rounds_match_per_round_loop(n, seed, cheaters, shape, rounds, chunk_entries):
    # One round at a time: its n - 1 angle doubles, then u, and a pass iff
    # u < P(theta) of its own row.  The batch counts the same passes and
    # leaves the generator in the same state.
    nodes, played = _played_candidate(n, seed, cheaters, shape)
    batch, loop = RandomSource(seed, 6), RandomSource(seed, 6)
    passes = 0
    for _ in range(rounds):
        angles, m = sample_theta_angles(len(nodes), loop)
        passes += loop.uniform() < exact_pass_probability(played, angles, m)
    with pytest.MonkeyPatch.context() as patch:
        # Small chunks put chunk boundaries between the rounds.
        patch.setattr(consensus, "_CHUNK_ENTRIES", chunk_entries)
        est = consensus._estimate(played, Network(nodes, batch), rounds, batch)
    assert est["pass_rate"] == passes / rounds
    assert batch.generator.bit_generator.state == loop.generator.bit_generator.state


@pytest.mark.parametrize("n, cheaters, shape", [(2, [], "ghz"), (7, [0, 6], "ghz"),
                                                (20, range(20), "pair"), (5, [1, 3], "dense")])
@pytest.mark.parametrize("chunk_entries", [1, 7, 64])
def test_rounds_do_not_depend_on_the_chunk_size(n, cheaters, shape, chunk_entries, monkeypatch):
    nodes, played = _played_candidate(n, 42, cheaters, shape)

    def play():
        rng = RandomSource(42, 8)
        return consensus._estimate(played, Network(nodes, rng), 300, rng), rng.uniform()

    default = play()
    monkeypatch.setattr(consensus, "_CHUNK_ENTRIES", chunk_entries)
    assert play() == default


@pytest.mark.parametrize("n, cheaters, shape", [(3, [], "ghz"), (6, [2], "ghz"),
                                                (11, [0, 4, 10], "basis"), (4, [1], "dense")])
def test_round_bits_depend_only_on_their_row(n, cheaters, shape):
    # A round is one row of n doubles: its n - 1 angle doubles and its pass
    # double u.  Played alone, shuffled among other rows or in the full
    # batch, the row passes or fails alike, and the estimate counts the
    # batch's passes.
    nodes, played = _played_candidate(n, 9, cheaters, shape)
    rounds = 200
    doubles = RandomSource(9, 2).generator.random((rounds, n))
    angles, m = consensus._complete_angles(math.pi * doubles[:, :-1])
    passed = doubles[:, -1] < consensus._pass_probabilities(played, angles, m)
    order = np.random.default_rng(n).permutation(rounds)
    shuffled = consensus._pass_probabilities(played, angles[order], m[order])
    assert np.array_equal(doubles[order, -1] < shuffled, passed[order])
    for r in range(0, rounds, 7):
        assert (doubles[r, -1] < exact_pass_probability(played, angles[r], m[r])) == passed[r]
    rng = RandomSource(9, 2)
    est = consensus._estimate(played, Network(nodes, rng), rounds, rng)
    assert est["pass_rate"] == np.count_nonzero(passed) / rounds
