import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronoq.qcore import PAULI_X, DensityOperator, RandomSource, StateVector, bell_state
from chronoq.entangle import fidelity
from chronoq.temporal import (
    ModeId,
    _project_equal_bits,
    TemporalError,
    TemporalRegister,
    apply_op,
    bell_measure,
    create_pair,
    delay,
    ghz_density_recursive,
    measure_mode,
    pbs_fuse,
    swap_demo,
    temporal_ghz_closed_form,
)

from dense_reference import equal_bits, project_equal_bits


def test_create_pair_and_modes():
    reg = TemporalRegister()
    create_pair(reg, "phi+", ("a", "b"), t=0)
    assert reg.state.allclose(bell_state("phi+"))
    assert reg.live_modes == [ModeId("a", 0), ModeId("b", 0)]
    assert reg.event_log[0] == {"event": "create", "modes": ["a", "b"], "t": 0}


def test_delay_moves_time_step():
    reg = TemporalRegister()
    create_pair(reg, "phi+", ("a", "b"), t=0)
    delay(reg, "b", 2)
    assert reg.live_modes[1] == ModeId("b", 2)


def test_event_log_monotone_time():
    reg = TemporalRegister()
    create_pair(reg, "phi+", ("a", "b"), t=0)
    delay(reg, "b", 1)
    create_pair(reg, "phi+", ("c", "d"), t=1)
    times = [e["t"] for e in reg.event_log]
    assert times == sorted(times)
    lines = reg.event_log_jsonl().splitlines()
    assert all(json.loads(line) for line in lines)


def test_create_in_the_past_rejected():
    reg = TemporalRegister()
    create_pair(reg, "phi+", ("a", "b"), t=2)
    with pytest.raises(TemporalError):
        create_pair(reg, "phi+", ("c", "d"), t=1)


def test_duplicate_spatial_label_rejected():
    reg = TemporalRegister()
    create_pair(reg, "phi+", ("a", "b"), t=0)
    with pytest.raises(TemporalError):
        create_pair(reg, "phi+", ("a", "c"), t=0)


def test_measure_mode_consumes():
    rng = RandomSource(11, 0)
    reg = TemporalRegister()
    create_pair(reg, "phi+", ("a", "b"), t=0)
    outcome = measure_mode(reg, "a", rng)
    assert outcome in (0, 1)
    assert [m.spatial for m in reg.live_modes] == ["b"]
    # Perfect correlation on phi+.
    assert measure_mode(reg, "b", rng) == outcome
    with pytest.raises(TemporalError):
        measure_mode(reg, "a", rng)


def test_bell_measure_all_outcomes():
    rng = RandomSource(12, 0)
    for label in ("phi+", "phi-", "psi+", "psi-"):
        reg = TemporalRegister()
        create_pair(reg, label, ("a", "b"), t=0)
        out = bell_measure(reg, "a", "b", rng)
        assert out.label == label
        assert out.probability == pytest.approx(1.0)


def test_pbs_fuse_success_and_failure():
    rng = RandomSource(13, 0)
    successes = 0
    trials = 400
    for _ in range(trials):
        reg = TemporalRegister()
        create_pair(reg, "phi+", ("a", "b"), t=0)
        create_pair(reg, "phi+", ("c", "d"), t=0)
        ok = pbs_fuse(reg, "b", "c", rng)
        if ok:
            successes += 1
            assert reg.valid
            # Fused result is the 4-photon GHZ state.
            ghz4 = np.zeros(16, dtype=np.complex128)
            ghz4[0] = ghz4[15] = 1 / math.sqrt(2)
            assert reg.state.equals_up_to_phase(StateVector(ghz4))
        else:
            assert not reg.valid
    se = math.sqrt(0.25 / trials)
    assert abs(successes / trials - 0.5) <= 3 * se


def test_snapshot_supports_retry():
    rng = RandomSource(14, 0)
    reg = TemporalRegister()
    create_pair(reg, "phi+", ("a", "b"), t=0)
    create_pair(reg, "phi+", ("c", "d"), t=0)
    snap = reg.snapshot()
    for _ in range(64):
        if pbs_fuse(reg, "b", "c", rng):
            break
        reg = snap.snapshot()
    assert reg.valid


def test_snapshot_is_independent_of_original():
    reg = TemporalRegister()
    create_pair(reg, "phi+", ("a", "b"), t=0)
    create_pair(reg, "psi-", ("c", "d"), t=0)
    state = reg.state
    amplitudes = state.amplitudes.copy()
    modes = [list(entry) for entry in reg.modes]
    log = [dict(e, modes=list(e["modes"])) for e in reg.event_log]

    for act in (
        lambda snap: delay(snap, "b", 2),
        lambda snap: measure_mode(snap, "a", RandomSource(17, 0)),
        lambda snap: pbs_fuse(snap, "b", "c", _FixedDraw(1.0)),
        lambda snap: snap.event_log[0]["modes"].append("z"),
    ):
        snap = reg.snapshot()
        assert snap.state is state
        act(snap)
        assert reg.modes == modes
        assert reg.event_log == log
        assert reg.valid
        assert reg.state is state
        assert np.array_equal(state.amplitudes, amplitudes)


def _dense_fusion_projector(n_qubits, q1, q2):
    """Reference F = |hh><hh| + |vv><vv| on qubits (q1, q2), built entry by entry."""
    dim = 1 << n_qubits
    proj = np.zeros((dim, dim), dtype=np.complex128)
    for b in range(dim):
        bit1 = (b >> (n_qubits - 1 - q1)) & 1
        bit2 = (b >> (n_qubits - 1 - q2)) & 1
        if bit1 == bit2:
            proj[b, b] = 1.0
    return proj


class _FixedDraw:
    """Stands in for RandomSource: uniform() always returns the same value."""

    def __init__(self, u):
        self.u = u

    def uniform(self):
        return self.u


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_pbs_fuse_matches_dense_projector(n, seed, data):
    q1, q2 = data.draw(
        st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    )
    gen = np.random.default_rng(seed)
    psi = StateVector(gen.normal(size=2**n) + 1j * gen.normal(size=2**n), normalize=True)
    projected = _dense_fusion_projector(n, q1, q2) @ psi.amplitudes
    p_dense = float(np.vdot(projected, projected).real)

    def register():
        reg = TemporalRegister()
        reg.state = psi
        reg.modes = [[ModeId(f"m{q}", 0), False] for q in range(n)]
        return reg

    # A draw of 0 always succeeds (p_success > 0 for a generic state).
    reg = register()
    assert pbs_fuse(reg, f"m{q1}", f"m{q2}", _FixedDraw(0.0))
    assert np.max(np.abs(reg.state.amplitudes - projected / math.sqrt(p_dense))) <= 1e-12
    assert reg.event_log == [{"event": "fuse", "modes": sorted([f"m{q1}", f"m{q2}"]), "t": 0}]
    # The draw succeeds exactly below p_success.
    assert pbs_fuse(register(), f"m{q1}", f"m{q2}", _FixedDraw(p_dense - 1e-12))
    failed = register()
    assert not pbs_fuse(failed, f"m{q1}", f"m{q2}", _FixedDraw(p_dense + 1e-12))
    assert not failed.valid


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 10), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_equal_bits_projection_matches_mask_reference(n, seed, data):
    q1, q2 = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    gen = np.random.default_rng(seed)
    vec = gen.normal(size=2**n) + 1j * gen.normal(size=2**n)
    got = vec.copy()
    _project_equal_bits(got, n, q1, q2)
    assert np.array_equal(got, project_equal_bits(vec, n, q1, q2))
    # The boolean support that ghz_density_recursive builds from the same helper.
    keep = np.ones(2**n, dtype=bool)
    _project_equal_bits(keep, n, q1, q2)
    assert np.array_equal(keep, equal_bits(n, q1, q2))


def _random_pair_density(seed):
    gen = np.random.default_rng(seed)
    rank = int(gen.integers(1, 5))
    a = gen.normal(size=(4, rank)) + 1j * gen.normal(size=(4, rank))
    rho = a @ a.conj().T
    return DensityOperator(rho / np.trace(rho).real)


@settings(max_examples=40, deadline=None)
@given(n_pairs=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_ghz_density_recursive_matches_dense_projectors(n_pairs, seed):
    pair = _random_pair_density(seed)
    n = 2 * n_pairs
    big = pair.matrix
    for _ in range(n_pairs - 1):
        big = np.kron(big, pair.matrix)
    for k in range(1, n_pairs):
        proj = _dense_fusion_projector(n, 2 * k - 1, 2 * k)
        big = proj @ big @ proj
    expected = big / np.trace(big).real

    rho = ghz_density_recursive(pair, n_pairs).matrix
    assert np.max(np.abs(rho - expected)) <= 1e-12
    # Hermitian, unit trace and PSD by construction: the result is built unvalidated.
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho).min() >= -1e-10


def test_ghz_density_recursive_rejects_annihilated_state():
    # Pairs in |hv><hv| disagree at every fusion boundary.
    hv = np.zeros((4, 4))
    hv[1, 1] = 1.0
    with pytest.raises(TemporalError):
        ghz_density_recursive(DensityOperator(hv), 2)


def test_ghz_density_recursive_matches_closed_form():
    pair = bell_state("psi+").to_density()
    for n_pairs in (2, 3, 4):
        rho = ghz_density_recursive(pair, n_pairs)
        closed = temporal_ghz_closed_form(n_pairs)
        assert fidelity(rho, closed.to_density()) == pytest.approx(1.0, abs=1e-9)


def test_swap_demo_outer_fidelity_all_outcomes():
    rng = RandomSource(15, 0)
    for label in ("phi+", "phi-", "psi+", "psi-"):
        demo = swap_demo(rng, forced_label=label)
        assert demo["middle_outcome"] == label
        assert demo["outer_pair_fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert demo["photon1_consumed_before_photon4_created"]


def test_swap_demo_event_log_ordering():
    demo = swap_demo(RandomSource(16, 0))
    log = demo["event_log"]
    t_measure_p1 = next(e["t"] for e in log if e["event"] == "measure" and e["modes"] == ["p1"])
    t_create_p34 = next(e["t"] for e in log if e["event"] == "create" and "p3" in e["modes"])
    assert t_measure_p1 < t_create_p34
    times = [e["t"] for e in log]
    assert times == sorted(times)


def test_apply_op_local():
    reg = TemporalRegister()
    create_pair(reg, "phi+", ("a", "b"), t=0)
    apply_op(reg, PAULI_X, ["a"])
    assert reg.state.allclose(bell_state("psi+"))
