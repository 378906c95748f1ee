import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronoq.entangle import (
    EntangleError,
    ObservableSettings,
    WernerState,
    canonical_chsh_settings,
    chsh_optimize,
    chsh_value,
    concurrence,
    correlation_matrix,
    fidelity,
    partial_transpose,
    ppt_min_eigenvalue,
    schmidt,
    state_distance,
    trace_distance,
    werner_chsh_crossing,
    werner_ppt_min_eigenvalues,
    ghz_witness,
    witness_value,
)
from chronoq.qcore import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityOperator,
    RandomSource,
    StateVector,
    bell_state,
    ghz_state,
)

from dense_reference import per_point_werner_ppt

SQRT8 = 2.0 * math.sqrt(2.0)


def _random_state(dim, gen):
    return StateVector(gen.normal(size=dim) + 1j * gen.normal(size=dim), normalize=True)


def test_schmidt_bell():
    dec = schmidt(bell_state("phi+"), [2, 2])
    assert dec.rank == 2
    assert np.allclose(sorted(dec.coefficients), [1 / math.sqrt(2)] * 2)
    assert dec.reconstruct().equals_up_to_phase(bell_state("phi+"))


def test_schmidt_product_state():
    s = StateVector.from_bits([0, 1])
    dec = schmidt(s, [2, 2])
    assert dec.rank == 1


def test_schmidt_random_roundtrip():
    gen = RandomSource(3, 0).generator
    for _ in range(20):
        s = _random_state(8, gen)
        dec = schmidt(s, [2, 4])
        assert dec.reconstruct().equals_up_to_phase(s)


def test_werner_ppt_eigenvalues():
    for f in np.linspace(0.0, 1.0, 21):
        rho = WernerState(float(f)).rho
        eigs = np.sort(np.linalg.eigvalsh(partial_transpose(rho, [2, 2])))
        expected = np.sort([(2 * f + 1) / 6] * 3 + [(1 - 2 * f) / 2])
        assert np.allclose(eigs, expected, atol=1e-9)


@pytest.mark.parametrize("points", [1, 2, 11, 1000])
def test_werner_ppt_sweep_matches_per_point(points):
    fs = np.linspace(0.0, 1.0, points)
    sweep = werner_ppt_min_eigenvalues(fs)
    assert sweep.tolist() == [per_point_werner_ppt(f) for f in fs.tolist()]
    # The partial transpose's spectrum: (1 - 2F)/2 once and (1 + 2F)/6 three times.
    assert np.allclose(sweep, np.minimum((1 - 2 * fs) / 2, (1 + 2 * fs) / 6), rtol=0, atol=1e-12)


def test_werner_ppt_sweep_rejects_weights_outside_the_unit_interval():
    for fs in ([-0.1], [0.5, 1.5], [math.nan]):
        with pytest.raises(EntangleError):
            werner_ppt_min_eigenvalues(fs)


def test_ppt_onset_at_half():
    assert ppt_min_eigenvalue(WernerState(0.5).rho, [2, 2]) == pytest.approx(0.0, abs=1e-12)
    assert ppt_min_eigenvalue(WernerState(0.51).rho, [2, 2]) < 0
    assert ppt_min_eigenvalue(WernerState(0.49).rho, [2, 2]) > 0


def test_concurrence_limits():
    assert concurrence(bell_state("psi-"), [2, 2]) == pytest.approx(1.0)
    assert concurrence(StateVector.from_bits([0, 1]), [2, 2]) == pytest.approx(0.0, abs=1e-7)


def test_fidelity_pure_states():
    a = bell_state("phi+").to_density()
    b = bell_state("phi-").to_density()
    assert fidelity(a, a) == pytest.approx(1.0)
    assert fidelity(a, b) == pytest.approx(0.0, abs=1e-9)
    gen = RandomSource(5, 0).generator
    for _ in range(10):
        x, y = _random_state(4, gen), _random_state(4, gen)
        overlap = abs(complex(np.vdot(x.amplitudes, y.amplitudes))) ** 2
        assert fidelity(x.to_density(), y.to_density()) == pytest.approx(overlap, abs=1e-7)


def test_fuchs_van_de_graaf():
    gen = RandomSource(6, 0).generator
    for _ in range(10):
        rho = _random_state(4, gen).to_density()
        sigma = _random_state(4, gen).to_density()
        d = state_distance(rho, sigma)
        f, td = d["fidelity"], d["trace_distance"]
        assert 1 - f <= td + 1e-7
        assert td <= math.sqrt(max(1 - f, 0.0)) + 1e-7


def test_trace_distance_extremes():
    a = StateVector([1.0, 0.0]).to_density()
    b = StateVector([0.0, 1.0]).to_density()
    assert trace_distance(a, b) == pytest.approx(1.0)
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-12)


def test_settings_validation():
    with pytest.raises(Exception):
        ObservableSettings(A1=np.eye(2) * 2, A2=PAULI_X, B1=PAULI_Z, B2=PAULI_X)


def test_chsh_canonical_settings_tsirelson():
    rho = bell_state("psi-").to_density()
    assert chsh_value(rho, canonical_chsh_settings()) == pytest.approx(SQRT8, abs=1e-9)


def test_chsh_classical_state_bounded():
    rho = DensityOperator.maximally_mixed(4)
    assert abs(chsh_value(rho, canonical_chsh_settings())) <= 2.0 + 1e-9


def test_correlation_matrix_singlet():
    t = correlation_matrix(bell_state("psi-").to_density())
    assert np.allclose(t, -np.eye(3), atol=1e-9)


def test_chsh_optimize_reaches_tsirelson():
    res = chsh_optimize(bell_state("phi+").to_density())
    assert res["value"] == pytest.approx(SQRT8, abs=1e-6)


def test_chsh_optimize_matches_horodecki():
    gen = RandomSource(7, 0).generator
    for _ in range(10):
        psi = _random_state(4, gen)
        rho = psi.to_density()
        t = correlation_matrix(rho)
        s = np.sort(np.linalg.svd(t, compute_uv=False))[::-1]
        horodecki = 2 * math.sqrt(s[0] ** 2 + s[1] ** 2)
        res = chsh_optimize(rho)
        assert res["value"] == pytest.approx(horodecki, abs=1e-5)
        assert chsh_value(rho, res["settings"]) == pytest.approx(res["value"], abs=1e-9)


_unit_floats = st.floats(-1.0, 1.0, allow_nan=False)
_axis = st.lists(_unit_floats, min_size=3, max_size=3).filter(
    lambda a: np.linalg.norm(a) > 1e-3
)


def _observable(axis):
    a = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(a)
    a = a / norm if norm > 1e-12 else np.array([0.0, 0.0, 1.0])
    return a[0] * PAULI_X + a[1] * PAULI_Y + a[2] * PAULI_Z


@settings(max_examples=200, deadline=None)
@given(
    gram=st.lists(_unit_floats, min_size=32, max_size=32),
    axes=st.lists(_axis, min_size=4, max_size=4),
)
def test_no_settings_beat_chsh_optimize(gram, axes):
    # Any state rho = G G^dag / tr and any unit axes: the closed-form maximum
    # is never exceeded, neither by four random axes nor by Bob's best
    # response B1 ~ T^t (a1 + a2), B2 ~ T^t (a2 - a1) to random Alice axes.
    g = np.array(gram[:16]).reshape(4, 4) + 1j * np.array(gram[16:]).reshape(4, 4)
    m = g @ g.conj().T
    if np.trace(m).real < 1e-6:
        m = np.eye(4)
    rho = DensityOperator(m / np.trace(m))
    best = chsh_optimize(rho)["value"]
    a1, a2, b1, b2 = (np.asarray(a) / np.linalg.norm(a) for a in axes)
    trial = ObservableSettings(*(_observable(a) for a in (a1, a2, b1, b2)))
    assert chsh_value(rho, trial) <= best + 1e-9
    t = correlation_matrix(rho)
    response = ObservableSettings(
        _observable(a1),
        _observable(a2),
        _observable(t.T @ (a1 + a2)),
        _observable(t.T @ (a2 - a1)),
    )
    assert chsh_value(rho, response) <= best + 1e-9


def test_chsh_optimize_maximally_mixed():
    rho = DensityOperator.maximally_mixed(4)
    res = chsh_optimize(rho)
    assert res["value"] == 0.0
    assert chsh_value(rho, res["settings"]) == pytest.approx(0.0, abs=1e-15)


def test_werner_chsh_crossing():
    crossing = werner_chsh_crossing()
    # Analytic crossing: optimized CHSH is 2*sqrt(2)*(4F-1)/3, equal to 2 at
    # F = (3/sqrt(2)+1)/4.
    assert abs(crossing - (3 / math.sqrt(2) + 1) / 4) < 1e-12
    assert abs(crossing - 0.7803) < 5e-3
    assert chsh_optimize(WernerState(crossing).rho)["value"] == pytest.approx(2.0, abs=1e-12)


def test_ghz_witness():
    w = ghz_witness(3)
    assert witness_value(w, ghz_state(3).to_density()) == pytest.approx(-0.25)
    assert witness_value(w, DensityOperator.maximally_mixed(8)) > 0
