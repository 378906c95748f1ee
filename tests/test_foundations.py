import math

import numpy as np
import pytest

from chronoq import foundations
from chronoq.foundations import (
    FoundationsError,
    PrecessionModel,
    Valuation,
    classical_commuting_instance,
    classical_k3,
    classical_temporal_chsh,
    correlator_from_joint,
    entropic_lg_check,
    entropic_lg_scan,
    frame_average_reconstruct,
    gleason_decohere,
    gleason_reconstruct,
    gleason_vectors,
    lg_k3,
    lg_k3_analytic,
    lg_k3_max,
    sample_haar_frame,
    sequential_joint,
    temporal_chsh,
    temporal_chsh_optimize,
    two_time_correlator,
)
from chronoq.qcore import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityOperator,
    RandomSource,
    StateVector,
)

SQRT8 = 2.0 * math.sqrt(2.0)


def _random_density(d, rng):
    gen = rng.generator
    g = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m))


def test_gleason_vectors_count():
    rng = RandomSource(71, 0)
    for d in (2, 3, 4):
        frame = sample_haar_frame(d, rng)
        assert len(gleason_vectors(frame)) == 2 * d * d - d


def test_gleason_roundtrip_random_densities():
    rng = RandomSource(72, 0)
    for d in (2, 3, 4):
        for _ in range(10):
            rho = _random_density(d, rng)
            frame = sample_haar_frame(d, rng)
            val = Valuation.from_density(rho, frame)
            recon = gleason_reconstruct(val, frame)
            assert np.max(np.abs(recon.matrix - rho.matrix)) <= 1e-8


def test_valuation_missing_entry():
    rng = RandomSource(73, 0)
    frame = sample_haar_frame(2, rng)
    val = Valuation(2)
    with pytest.raises(FoundationsError):
        gleason_reconstruct(val, frame)


def test_gleason_decohere_diagonalizes():
    rng = RandomSource(74, 0)
    rho = _random_density(3, rng)
    frame = sample_haar_frame(3, rng)
    dec = gleason_decohere(rho, frame)
    basis = np.stack(frame).T
    in_frame = basis.conj().T @ dec.matrix @ basis
    off = in_frame - np.diag(np.diag(in_frame))
    assert np.max(np.abs(off)) < 1e-10


def test_frame_average_identity():
    rng = RandomSource(75, 0)
    rho = _random_density(2, rng)
    est = frame_average_reconstruct(rho, 3000, rng)
    assert np.max(np.abs(est.matrix - rho.matrix)) < 0.05


def test_sequential_joint_is_distribution():
    model = PrecessionModel(omega=1.0)
    dist = sequential_joint(
        model.initial,
        [PAULI_Z, PAULI_Z, PAULI_Z],
        [model.unitary(0.4), model.unitary(0.4)],
    )
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
    assert all(p >= -1e-12 for p in dist.values())
    assert len(dist) == 8


def test_two_time_correlator_closed_form():
    model = PrecessionModel(omega=1.3)
    for t1, t2 in ((0.0, 0.5), (0.2, 1.1), (1.0, 2.7)):
        c = two_time_correlator(model, t1, t2)
        assert c == pytest.approx(math.cos(model.omega * (t2 - t1)), abs=1e-12)


def test_lg_k3_matches_analytic():
    model = PrecessionModel(omega=1.0)
    for tau in (0.3, 0.7, 1.0, 1.5):
        assert lg_k3(model, tau) == pytest.approx(lg_k3_analytic(model, tau), abs=1e-12)


def test_lg_k3_max():
    model = PrecessionModel(omega=1.0)
    res = lg_k3_max(model)
    assert res["k3_max"] == pytest.approx(1.5, abs=1e-6)
    assert res["tau_star"] == pytest.approx(math.pi / 3, abs=1e-4)


def test_lg_k3_max_scales_with_omega():
    model = PrecessionModel(omega=2.5)
    res = lg_k3_max(model)
    assert res["k3_max"] == pytest.approx(1.5, abs=1e-6)
    assert res["tau_star"] == pytest.approx(math.pi / 3 / 2.5, abs=1e-4)


# 1e-320 is subnormal: pi / (3 omega), the K3 spacing, overflows.
@pytest.mark.parametrize("omega", [0.0, -1.0, math.inf, math.nan, 1e-320])
def test_precession_model_rejects_bad_omega(omega):
    with pytest.raises(FoundationsError):
        PrecessionModel(omega=omega)


def test_temporal_chsh_optimum():
    model = PrecessionModel(omega=1.0)
    for dt in (0.4, 0.7, 1.3):
        res = temporal_chsh_optimize(model, 0.0, dt)
        assert res["value"] == pytest.approx(SQRT8, abs=1e-9)
        # The reported settings reproduce the value through actual
        # sequential measurements.
        direct = temporal_chsh(model, res["settings"], 0.0, dt)
        assert direct == pytest.approx(res["value"], abs=1e-9)


def test_entropic_lg_violation_found():
    model = PrecessionModel(omega=1.0)
    best = entropic_lg_scan(model)
    assert best["violated"]
    assert best["lhs"] > best["rhs"]
    # Small equal spacings violate; a recheck at the reported tau agrees.
    res = entropic_lg_check(model, 0.0, best["tau"], 2 * best["tau"])
    assert res["violated"]


def _binary_entropy(p):
    return 0.0 if p in (0.0, 1.0) else -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def _entropic_gap(x):
    """h(sin^2 x) - 2 h(sin^2(x/2)): the equal-spacing gap at x = omega tau."""
    return _binary_entropy(math.sin(x) ** 2) - 2.0 * _binary_entropy(math.sin(x / 2) ** 2)


def test_entropic_optimum_is_a_root_of_the_gap_slope():
    x = foundations._ENTROPIC_X_STAR
    assert x == pytest.approx(0.3968766315, abs=1e-10)
    # gap'(x) from the chain rule, with h'(p) = ln((1 - p)/p) / ln 2.
    s1, s2 = math.sin(x) ** 2, math.sin(x / 2) ** 2
    slope = (
        math.sin(2 * x) * math.log((1 - s1) / s1) - math.sin(x) * math.log((1 - s2) / s2)
    ) / math.log(2)
    assert abs(slope) <= 1e-12
    assert abs(foundations._entropic_gap_slope(x)) <= 1e-12


@pytest.mark.parametrize("omega", [0.7, 1.0, 1.3])
def test_entropic_optimum_beats_the_old_grid(omega):
    model = PrecessionModel(omega=omega)
    best = entropic_lg_scan(model)
    assert best["tau"] == pytest.approx(foundations._ENTROPIC_X_STAR / omega, rel=1e-15)
    for tau in np.linspace(1e-3, math.pi / omega, 200):
        res = entropic_lg_check(model, 0.0, float(tau), 2.0 * float(tau))
        assert best["gap"] >= res["lhs"] - res["rhs"]
    reference = entropic_lg_scan(PrecessionModel(omega=1.0))["gap"]
    assert best["gap"] == pytest.approx(reference, abs=1e-14)
    assert best["gap"] == pytest.approx(_entropic_gap(foundations._ENTROPIC_X_STAR), abs=1e-14)


@pytest.mark.parametrize("observable", [PAULI_Z, PAULI_Y, (PAULI_Z - PAULI_Y) / math.sqrt(2.0)])
def test_entropic_closed_form_holds_for_any_initial_state(observable):
    # A readout perpendicular to the x rotation axis collapses the state, so
    # only the flip probabilities sin^2(omega dt / 2) enter the entropies.
    model = PrecessionModel(omega=1.3, initial=StateVector([0.6, 0.8j]), observable=observable)
    for tau in (0.05, 0.3, 0.9, 1.7, 2.3):
        res = entropic_lg_check(model, 0.0, tau, 2 * tau)
        assert res["lhs"] - res["rhs"] == pytest.approx(_entropic_gap(1.3 * tau), abs=1e-12)
    assert entropic_lg_scan(model)["gap"] == pytest.approx(
        _entropic_gap(foundations._ENTROPIC_X_STAR), abs=1e-14
    )


def test_entropic_optimum_rejects_a_readout_along_the_rotation_axis():
    # Tilted toward x, the flip probabilities shrink and the optimum moves
    # (about tau = 0.526 for this axis), so the closed form does not apply.
    model = PrecessionModel(observable=(PAULI_X + PAULI_Z) / math.sqrt(2.0))
    with pytest.raises(FoundationsError, match="perpendicular"):
        entropic_lg_scan(model)


def test_entropic_lg_requires_ordered_times():
    model = PrecessionModel()
    with pytest.raises(FoundationsError):
        entropic_lg_check(model, 0.5, 0.2, 0.9)


def test_classical_models_respect_bounds():
    rng = RandomSource(76, 0)
    for _ in range(200):
        inst = classical_commuting_instance(rng)
        assert classical_k3(inst) <= 1.0 + 1e-9
        assert abs(classical_temporal_chsh(inst)) <= 2.0 + 1e-9


def test_correlator_from_joint():
    dist = {(1, 1): 0.5, (-1, -1): 0.5}
    assert correlator_from_joint(dist, 0, 1) == pytest.approx(1.0)
