import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronoq.qcore import (
    BELL_LABELS,
    I2,
    PAULI_X,
    DensityOperator,
    QcoreError,
    RandomSource,
    StateVector,
    _SparseKet,
    bell_state,
    collapse,
    measure_qubit,
)
from chronoq.entangle import fidelity
from chronoq.temporal import (
    _BELL_BRAS,
    ModeId,
    _project_equal_bits,
    TemporalError,
    TemporalRegister,
    apply_op,
    bell_measure,
    create_pair,
    delay,
    fuse_fresh_pair,
    ghz_density_recursive,
    measure_mode,
    swap_demo,
    temporal_ghz_closed_form,
)

from dense_reference import dense_fuse, equal_bits, project_equal_bits


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
    assert json.loads(json.dumps(reg.event_log)) == reg.event_log


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


@pytest.mark.parametrize("forced", [-1, 2])
def test_forced_outcome_outside_0_1_rejected(forced):
    reg = TemporalRegister()
    create_pair(reg, "phi+", ("a", "b"), t=0)
    with pytest.raises(TemporalError, match="0 or 1"):
        measure_mode(reg, "a", RandomSource(13, 0), forced_outcome=forced)
    with pytest.raises(QcoreError, match="0 or 1"):
        measure_qubit(bell_state("phi+"), 0, RandomSource(13, 0), forced_outcome=forced)


@pytest.mark.parametrize("seed", range(6))
def test_measure_mode_and_measure_qubit_agree(seed):
    # A generic 6-qubit register: three pairs, then a gate on two modes.
    reg = TemporalRegister()
    for k, label in enumerate(("phi+", "psi-", "phi-")):
        create_pair(reg, label, (f"a{k}", f"b{k}"), t=0)
    gen = np.random.default_rng(seed)
    u = np.linalg.qr(gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4)))[0]
    apply_op(reg, u, ["b0", "a2"])
    before = reg.state
    qubit = seed % 6
    outcome, prob, post = measure_qubit(before, qubit, RandomSource(seed, 1))
    assert measure_mode(reg, reg.live_modes[qubit].spatial, RandomSource(seed, 1)) == outcome
    # The qubit kept by measure_qubit holds |outcome>; the rest is the
    # temporal register's remaining state.
    kept = np.take(post.amplitudes.reshape([2] * 6), outcome, axis=qubit).reshape(-1)
    assert np.max(np.abs(kept - reg.state.amplitudes)) <= 1e-12
    assert np.max(np.abs(np.take(post.amplitudes.reshape([2] * 6), 1 - outcome, axis=qubit))) == 0


class _RecordedChoice:
    """A stand-in for RandomSource that records the Born weights it is
    offered and picks one of the nonzero ones."""

    def __init__(self, pick):
        self.pick = pick

    def choice_index(self, probs):
        self.probs = list(probs)
        rows = [k for k, p in enumerate(self.probs) if p > 0.0]
        return rows[self.pick % len(rows)]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    n=st.integers(3, 8),
    seed=st.integers(0, 2**32 - 1),
    bell=st.booleans(),
    sparse=st.booleans(),
    data=st.data(),
)
def test_measurement_keeps_the_branch_over_its_born_weight(n, seed, bell, sparse, data):
    gen = np.random.default_rng(seed)
    # About half the amplitudes are zero, so branches can be sparse or empty.
    amps = (gen.normal(size=2**n) + 1j * gen.normal(size=2**n)) * gen.integers(0, 2, size=2**n)
    amps[0] += 1.0
    psi = StateVector(amps, normalize=True)
    reg = TemporalRegister()
    reg.state = _SparseKet.from_state(psi) if sparse else psi
    reg.modes = [[ModeId(f"m{q}", 0), False] for q in range(n)]
    size = 1 + bell
    targets = data.draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True))
    choice = _RecordedChoice(data.draw(st.integers(0, 3)))
    if bell:
        out = bell_measure(reg, f"m{targets[0]}", f"m{targets[1]}", choice)
        row, p = BELL_LABELS.index(out.label), out.probability
    else:
        row = measure_mode(reg, f"m{targets[0]}", choice)
        p = choice.probs[row]
    assert abs(sum(choice.probs) - 1.0) <= 1e-12
    _, p_ref, branch = collapse(psi, targets, _BELL_BRAS if bell else I2, RandomSource(0, 0), row)
    assert p == p_ref
    assert np.array_equal(reg.state.amplitudes, branch * (1.0 / math.sqrt(p)))


def test_forced_zero_probability_row_raises_temporal_error():
    reg = TemporalRegister()
    create_pair(reg, "phi+", ("a", "b"), t=0)
    with pytest.raises(TemporalError, match="zero probability"):
        bell_measure(reg, "a", "b", RandomSource(4, 0), forced_label="psi-")
    measure_mode(reg, "a", RandomSource(4, 0), forced_outcome=0)
    with pytest.raises(TemporalError, match="zero probability"):
        measure_mode(reg, "b", RandomSource(4, 0), forced_outcome=1)


def test_bell_measure_all_outcomes():
    rng = RandomSource(12, 0)
    for label in ("phi+", "phi-", "psi+", "psi-"):
        reg = TemporalRegister()
        create_pair(reg, label, ("a", "b"), t=0)
        out = bell_measure(reg, "a", "b", rng)
        assert out.label == label
        assert out.probability == pytest.approx(1.0)


def _pair_register(label):
    """A register holding one pair (a, b), b delayed to time step 3."""
    reg = TemporalRegister()
    create_pair(reg, label, ("a", "b"), t=0)
    delay(reg, "b", 3)
    return reg


@pytest.mark.parametrize("flip", [False, True])
@pytest.mark.parametrize("label", BELL_LABELS)
@pytest.mark.parametrize("seed", range(4))
def test_fuse_fresh_pair_matches_snapshot_retries(seed, label, flip):
    # The reference retries the dense fusion on a fresh copy of a dense
    # register.  The fused mode b sits later (t=3) than the new pair (t=1),
    # so the fuse event takes b's time step.
    reg, ref = _pair_register("psi-"), _pair_register("psi-")
    reg.state = _SparseKet.from_state(reg.state)
    rng, ref_rng = RandomSource(seed, 8), RandomSource(seed, 8)
    assert fuse_fresh_pair(reg, label, ("c", "d"), 1, "b", rng, 64, flip=flip)
    for _ in range(64):
        attempt = copy.deepcopy(ref)
        create_pair(attempt, label, ("c", "d"), t=1)
        delay(attempt, "d", 1)
        if dense_fuse(attempt, "b", "c", ref_rng):
            if flip:
                apply_op(attempt, PAULI_X, ["c"])
            ref = attempt
            break
    dense = ref.state.amplitudes
    assert np.array_equal(reg.state.indices, np.flatnonzero(dense))
    assert reg.state.values.tobytes() == dense[reg.state.indices].tobytes()
    assert reg.event_log == ref.event_log
    assert reg.event_log[-1] == {"event": "fuse", "modes": ["b", "c"], "t": 3}
    assert reg.modes == ref.modes
    assert reg._position == ref._position and reg._qubit == ref._qubit
    assert rng.uniform() == ref_rng.uniform()


def test_fuse_fresh_pair_refuses_a_dense_register():
    reg = TemporalRegister()
    create_pair(reg, "phi+", ("a", "b"), t=0)
    with pytest.raises(TemporalError, match="sparse"):
        fuse_fresh_pair(reg, "phi+", ("c", "d"), 0, "b", RandomSource(0, 0), 5, flip=False)
    assert reg.event_log == [{"event": "create", "modes": ["a", "b"], "t": 0}]


def test_create_pair_refuses_a_sparse_register():
    reg = _pair_register("phi+")
    reg.state = _SparseKet.from_state(reg.state)
    state, modes, log = reg.state, copy.deepcopy(reg.modes), copy.deepcopy(reg.event_log)
    with pytest.raises(TemporalError, match="fuse_fresh_pair"):
        create_pair(reg, "phi+", ("c", "d"), t=3)
    assert reg.state is state and reg.modes == modes and reg.event_log == log


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
