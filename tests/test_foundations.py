import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    sequential_correlator,
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
    QcoreError,
    RandomSource,
    StateVector,
)

from dense_reference import looped_gleason_vectors, recursive_sequential_joint

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


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_gleason_vectors_match_the_pair_by_pair_loop(d):
    frame = sample_haar_frame(d, RandomSource(76, d))
    vecs = gleason_vectors(frame)
    assert vecs.shape == (2 * d * d - d, d)
    assert vecs.tobytes() == np.stack(looped_gleason_vectors(frame)).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_valuation_values_are_the_per_vector_born_values(d):
    rng = RandomSource(77, d)
    rho = _random_density(d, rng)
    frame = sample_haar_frame(d, rng)
    val = Valuation.from_density(rho, frame)
    per_vector = [vec.conj() @ rho.matrix @ vec for vec in looped_gleason_vectors(frame)]
    assert val.values.tobytes() == np.array(per_vector).real.tobytes()
    assert val.frame.tobytes() == np.stack(frame).tobytes()


def test_gleason_roundtrip_random_densities():
    rng = RandomSource(72, 0)
    for d in (2, 3, 4):
        for _ in range(10):
            rho = _random_density(d, rng)
            frame = sample_haar_frame(d, rng)
            val = Valuation.from_density(rho, frame)
            recon = gleason_reconstruct(val, frame)
            assert np.max(np.abs(recon.matrix - rho.matrix)) <= 1e-8


def test_reconstruct_rejects_a_frame_of_another_dimension():
    rng = RandomSource(75, 0)
    rho = _random_density(2, rng)
    val = Valuation.from_density(rho, sample_haar_frame(2, rng))
    with pytest.raises(QcoreError):
        gleason_reconstruct(val, sample_haar_frame(3, rng))


def test_valuation_rejects_a_frame_of_another_dimension():
    rng = RandomSource(75, 0)
    rho = _random_density(2, rng)
    with pytest.raises(QcoreError, match="frame has 3 vectors, the density matrix dimension is 2"):
        Valuation.from_density(rho, sample_haar_frame(3, rng))


def test_reconstruct_refuses_another_frame():
    rng = RandomSource(73, 0)
    rho = _random_density(2, rng)
    frame = sample_haar_frame(2, rng)
    val = Valuation.from_density(rho, frame)
    with pytest.raises(FoundationsError, match="another frame"):
        gleason_reconstruct(val, sample_haar_frame(2, rng))
    # The same rays with another global phase are another frame too.
    with pytest.raises(FoundationsError, match="another frame"):
        gleason_reconstruct(val, [1j * v for v in frame])


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


def _mub_frames(d: int) -> np.ndarray:
    """The d + 1 mutually unbiased bases of a prime d, vectors as rows: the
    standard basis, and for a = 0..d-1 the vectors
    omega^(a k^2 + b k) / sqrt(d), omega = exp(2 pi i / d), over b; at d = 2
    the phases are i^(a k) (-1)^(b k) (Wootters & Fields 1989)."""
    k = np.arange(d)
    frames = [np.eye(d, dtype=np.complex128)]
    for a in range(d):
        quad = a * k * k / 4.0 if d == 2 else a * k * k / d
        frames.append(
            np.array([np.exp(2j * np.pi * (quad + b * k / d)) for b in range(d)]) / math.sqrt(d)
        )
    return np.stack(frames)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_mutually_unbiased_bases_reproduce_rho_exactly(d):
    frames = _mub_frames(d)
    overlaps = np.abs(np.einsum("aik,bjk->abij", frames.conj(), frames)) ** 2
    for a in range(d + 1):
        for b in range(d + 1):
            expected = np.eye(d) if a == b else np.full((d, d), 1.0 / d)
            assert np.max(np.abs(overlaps[a, b] - expected)) <= 1e-12
    rho = _random_density(d, RandomSource(78, d))
    mean = foundations._decohere(rho.matrix, frames) / (d + 1)
    assert np.max(np.abs((d + 1) * mean - np.eye(d) - rho.matrix)) <= 1e-12


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


def _haar_unitary(d, gen):
    z = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    d=st.integers(2, 6),
    depth=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    pure=st.booleans(),
)
@example(d=2, depth=4, seed=0, pure=True)
@example(d=6, depth=4, seed=1, pure=False)
def test_sequential_joint_matches_the_recursive_engine(d, depth, seed, pure):
    # Bit for bit, with the same keys in the same (depth-first, +1 first)
    # order: random states, dichotomic observables of any spectrum (I and -I
    # included, whose -1 or +1 branches are all zero) and unitaries.
    gen = np.random.default_rng(seed)
    if pure:
        initial = StateVector(gen.normal(size=d) + 1j * gen.normal(size=d), normalize=True)
    else:
        g = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
        m = g @ g.conj().T
        initial = DensityOperator(m / np.trace(m))
    observables = []
    for _ in range(depth):
        v = _haar_unitary(d, gen)
        o = (v * gen.choice([-1.0, 1.0], size=d)) @ v.conj().T
        observables.append((o + o.conj().T) / 2.0)
    unitaries = [_haar_unitary(d, gen) for _ in range(depth - 1)]
    got = sequential_joint(initial, observables, unitaries)
    want = recursive_sequential_joint(initial, observables, unitaries)
    assert list(got.items()) == list(want.items())
    assert all(type(p) is float for p in got.values())


def test_sequential_joint_rejects_a_non_dichotomic_observable():
    model = PrecessionModel()
    for obs in (np.array([[1, 1], [0, -1]]), 2.0 * PAULI_Z, np.eye(3)[:2]):
        with pytest.raises(FoundationsError, match="Hermitian"):
            sequential_joint(model.initial, [PAULI_Z, obs], [model.unitary(0.4)])


def test_sequential_joint_rejects_an_operator_of_another_dimension():
    model = PrecessionModel()
    qutrit_z = np.diag([1.0, -1.0, 1.0])
    cases = [
        ([PAULI_Z, qutrit_z], [model.unitary(0.4)], "3x3"),
        ([PAULI_Z, PAULI_Z], [np.eye(3)], "3x3"),
        ([PAULI_Z, PAULI_Z], [np.eye(2)[0]], "2 operator"),
    ]
    for observables, unitaries, shape in cases:
        with pytest.raises(FoundationsError, match=f"{shape}.*dimension 2"):
            sequential_joint(model.initial, observables, unitaries)


def test_temporal_chsh_rejects_a_non_hermitian_setting():
    model = PrecessionModel()
    good = {"A1": PAULI_Z, "A2": PAULI_X, "B1": PAULI_Z, "B2": PAULI_X}
    bad = np.array([[1, 1], [0, -1]])  # squares to I
    for name in good:
        with pytest.raises(FoundationsError, match="Hermitian"):
            temporal_chsh(model, {**good, name: bad}, 0.0, 0.7)
    for a, b in ((bad, PAULI_Z), (PAULI_Z, bad)):
        with pytest.raises(FoundationsError, match="Hermitian"):
            sequential_correlator(model, a, b, 0.0, 0.7)


_SETTINGS = {"A1": PAULI_Z, "A2": PAULI_X, "B1": PAULI_Z, "B2": PAULI_X}
# Each call puts the time where the argument checks before the evolution pass it.
_TIMED_CALLS = {
    "two_time_correlator": lambda m, t: two_time_correlator(m, 0.0, t),
    "two_time_correlator_first": lambda m, t: two_time_correlator(m, t, 1.0),
    "lg_k3": lambda m, t: lg_k3(m, t),
    "entropic_lg_check": lambda m, t: entropic_lg_check(m, 0.0, 1.0, t),
    "sequential_correlator": lambda m, t: sequential_correlator(m, PAULI_Z, PAULI_X, t, 1.0),
    "temporal_chsh": lambda m, t: temporal_chsh(m, _SETTINGS, t, 1.0),
    "temporal_chsh_optimize": lambda m, t: temporal_chsh_optimize(m, 0.0, t),
}


@pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", list(_TIMED_CALLS))
def test_a_non_finite_time_raises_foundations_error(call, time):
    with pytest.raises(FoundationsError):
        _TIMED_CALLS[call](PrecessionModel(), time)


def test_an_overflowing_time_difference_raises_foundations_error():
    model = PrecessionModel()
    with pytest.raises(FoundationsError, match="finite"):
        two_time_correlator(model, -1e308, 1e308)
    with pytest.raises(FoundationsError, match="finite"):
        temporal_chsh_optimize(model, -1e308, 1e308)


def test_a_model_builds_its_state_and_projectors_once_read_only():
    model = PrecessionModel(omega=1.3, initial=StateVector([0.6, 0.8j]), observable=PAULI_Y)
    first = lg_k3_max(model)
    rho0, projectors = model._rho0, model._projectors
    assert lg_k3_max(model) == first
    assert model._rho0 is rho0 and model._projectors is projectors
    np.testing.assert_array_equal(rho0, model.initial.to_density().matrix)
    np.testing.assert_array_equal(projectors, [(np.eye(2) + PAULI_Y) / 2, (np.eye(2) - PAULI_Y) / 2])
    for a in (rho0, projectors):
        assert not a.flags.writeable
    # The model's correlator is the public one on its own observable.
    assert two_time_correlator(model, 0.2, 0.9) == sequential_correlator(
        model, PAULI_Y, PAULI_Y, 0.2, 0.9
    )


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


def test_precession_model_rejects_non_hermitian_observable():
    # [[1, 1], [0, -1]] squares to I but is not Hermitian.
    with pytest.raises(FoundationsError, match="Hermitian"):
        PrecessionModel(observable=np.array([[1, 1], [0, -1]]))


def test_temporal_chsh_optimum():
    model = PrecessionModel(omega=1.0)
    for dt in (0.4, 0.7, 1.3):
        res = temporal_chsh_optimize(model, 0.0, dt)
        assert res["value"] == pytest.approx(SQRT8, abs=1e-9)
        # The reported settings reproduce the value through actual
        # sequential measurements.
        direct = temporal_chsh(model, res["settings"], 0.0, dt)
        assert direct == pytest.approx(res["value"], abs=1e-9)
        assert direct == res["value"]


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
