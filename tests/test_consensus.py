import json
import math

import numpy as np
import pytest

from chronoq import consensus
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
    report_json,
    run_round,
    sample_theta_angles,
    theta_basis,
    theta_measure,
)
from chronoq.qcore import (
    PAULI_X,
    PAULI_Z,
    DensityOperator,
    RandomSource,
    StateVector,
    ghz_state,
    rotation,
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


def test_report_json_sorted():
    blob = report_json({"b": 1, "a": 2})
    assert blob == json.dumps({"a": 2, "b": 1}, sort_keys=True)


def test_invalid_configs():
    rng = RandomSource(40, 0)
    with pytest.raises(ConsensusError):
        Network([], rng)
    with pytest.raises(ConsensusError):
        sample_theta_angles(1, rng)
    network = _network(3, rng)
    with pytest.raises(ConsensusError):
        run_round(network, ghz_state(4), rng)
    assert DEFAULT_ROUNDS == 100
    assert DEFAULT_THRESHOLD == 0.99
