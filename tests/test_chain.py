import copy
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronoq.chain import (
    FUSION_RETRY_CAP,
    QuantumChain,
    VALIDITY_FIDELITY,
    ChainError,
    ClassicalChain,
    DecodeMismatch,
    Record,
    TemporalInaccessible,
    append,
    build_chain,
    classical_chain_tamper_contrast,
    decode,
    mix,
    tamper,
)
from chronoq.qcore import (
    HADAMARD,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    RandomSource,
    StateVector,
    _SparseKet,
    rotation,
)
from chronoq.temporal import (
    TemporalError,
    TemporalRegister,
    apply_op,
    bell_measure,
    create_pair,
    delay,
    measure_mode,
    pbs_fuse,
)

from dense_reference import (
    dense_chain,
    dense_decode,
    dense_fidelity,
)


def test_record_validation():
    assert Record(0, 1).bits == "01"
    with pytest.raises(ChainError):
        Record(2, 0)


def test_record_parse():
    assert Record.parse("10") == Record(1, 0)
    for text in ("2x", "0", "000", "", " 1"):
        with pytest.raises(ChainError):
            Record.parse(text)
    with pytest.raises(ChainError):
        build_chain(["01", "1"], RandomSource(1, 0))


def test_worked_three_block_chain():
    rng = RandomSource(21, 0)
    chain = build_chain(["00", "10", "11"], rng)
    assert chain.record_string == "001011"
    assert decode(chain) == "001011"
    assert chain.timestamps == [0, 1, 1, 2, 2, 3]
    # Expected state: (|001011> + |110100>)/sqrt(2).
    amp = chain.register.state.amplitudes
    i1 = int("001011", 2)
    i2 = int("110100", 2)
    assert abs(amp[i1]) == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    assert abs(amp[i2]) == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    assert (amp[i1] / amp[i2]).real == pytest.approx(1.0, abs=1e-9)


def test_roundtrip_exhaustive_triples():
    for triple in itertools.product(["00", "01", "10", "11"], repeat=3):
        rng = RandomSource(22, hash(triple) % (2**32))
        chain = build_chain(list(triple), rng)
        assert decode(chain) == "".join(triple)
        assert chain.fidelity() == pytest.approx(1.0, abs=1e-9)


def test_roundtrip_random_longer_chains():
    rng = RandomSource(23, 0)
    for k in range(20):
        n = 5 + k % 3
        records = ["".join(str(int(rng.integers(0, 2))) for _ in range(2)) for _ in range(n)]
        chain = build_chain(records, rng)
        assert decode(chain) == "".join(records)


def test_fidelity_records_and_validity_of_a_fresh_chain():
    rng = RandomSource(24, 0)
    chain = build_chain(["01", "11"], rng)
    assert [r.bits for r in chain.records] == ["01", "11"]
    assert chain.valid is True
    assert chain.fidelity() == pytest.approx(1.0)


def test_tamper_past_mode_raises():
    rng = RandomSource(25, 0)
    chain = build_chain(["00", "10", "11"], rng)
    with pytest.raises(TemporalInaccessible):
        tamper(chain, "p1", PAULI_X)
    with pytest.raises(TemporalInaccessible):
        tamper(chain, "p4", PAULI_Z)


def test_tamper_live_mode_detected():
    rng = RandomSource(26, 0)
    chain = build_chain(["00", "10", "11"], rng)
    tamper(chain, "p6", PAULI_X)
    assert chain.fidelity() < 1 - 1e-6
    assert not chain.valid
    with pytest.raises(DecodeMismatch):
        decode(chain)


def test_tamper_phase_flip_detected():
    rng = RandomSource(27, 0)
    chain = build_chain(["00", "10"], rng)
    tamper(chain, "p4", PAULI_Z)
    assert chain.fidelity() < 1 - 1e-6
    with pytest.raises(DecodeMismatch):
        decode(chain)


def test_mix_is_documented_bit_exactly():
    # Values recomputed from the docstring recipe.
    def reference(x):
        z = (x + 0x9E3779B97F4A7C15) % (1 << 64)
        z ^= z >> 30
        z = (z * 0xBF58476D1CE4E5B9) % (1 << 64)
        z ^= z >> 27
        z = (z * 0x94D049BB133111EB) % (1 << 64)
        return z ^ (z >> 31)

    for x in (0, 1, 0xDEADBEEF, (1 << 64) - 1):
        assert mix(x) == reference(x)


def test_classical_chain_verify_and_tamper():
    chain = ClassicalChain()
    records = [Record(0, 0), Record(1, 0), Record(1, 1), Record(0, 1)]
    for r in records:
        chain.append(r)
    assert chain.verify() == [True] * 4
    chain.tamper_record(1, Record(0, 0))
    verdicts = chain.verify()
    assert verdicts == [True, False, False, False]


def test_contrast_report():
    rng = RandomSource(29, 0)
    report = classical_chain_tamper_contrast(5, 2, rng)
    assert report["invalidated_range_classical"] == [2, 5]
    assert report["invalidated_range_quantum"] == [0, 5]
    assert report["past_mode_access"] == "TEMPORAL_INACCESSIBLE"
    assert report["quantum_fidelity_after_tamper"] < 1 - 1e-6


class _CountingDraw:
    """Stands in for RandomSource: uniform() returns u and counts the draws."""

    def __init__(self, u):
        self.u = u
        self.draws = 0

    def uniform(self):
        self.draws += 1
        return self.u


_TEN_RECORDS = ["01", "10", "11", "00", "10", "01", "11", "00", "10", "11"]


def _assert_append_leaves_chain_untouched(chain, record, draw, error, match):
    register, state = chain.register, chain.register.state
    records, text = list(chain.records), chain.record_string
    log = copy.deepcopy(register.event_log)
    modes = copy.deepcopy(register.modes)
    position, qubit = dict(register._position), dict(register._qubit)
    with pytest.raises(error, match=match):
        append(chain, record, draw)
    assert chain.records == records
    assert chain.valid
    assert chain.register is register and register.state is state
    assert register.event_log == log and register.modes == modes
    assert register._position == position and register._qubit == qubit
    assert register.valid
    assert decode(chain) == text


def test_fusion_retry_cap_enforced():
    # Fusing a fresh Bell pair onto the chain succeeds with p = 1/2, so a
    # draw of 0.75 misses every attempt, at every chain length.
    for length in range(1, 10):
        chain = build_chain(_TEN_RECORDS[:length], RandomSource(30, length))
        draw = _CountingDraw(0.75)
        _assert_append_leaves_chain_untouched(chain, Record(1, 1), draw, ChainError, "retry cap")
        assert draw.draws == FUSION_RETRY_CAP


def test_eleventh_append_raises_before_any_draw():
    chain = build_chain(_TEN_RECORDS, RandomSource(31, 0))
    draw = _CountingDraw(0.0)
    _assert_append_leaves_chain_untouched(
        chain, Record(0, 1), draw, TemporalError, "exceed 20 qubits"
    )
    assert draw.draws == 0


@pytest.mark.parametrize("seed", range(30))
def test_append_matches_per_attempt_reference(seed):
    gen = np.random.default_rng(seed)
    n_records = 1 + seed % 10
    records = [Record(int(a), int(b)) for a, b in gen.integers(0, 2, size=(n_records, 2))]
    rng, ref_rng = RandomSource(seed, 5), RandomSource(seed, 5)
    chain = build_chain(records, rng)
    ref = dense_chain(records, ref_rng)
    assert isinstance(ref.register.state, StateVector)
    assert chain.records == ref.records
    assert chain.register.event_log == ref.register.event_log
    assert chain.register.modes == ref.register.modes
    assert np.array_equal(chain.register.state.amplitudes, ref.register.state.amplitudes)
    assert rng.uniform() == ref_rng.uniform()


def _decoded_or_error(decoder, chain):
    try:
        return decoder(chain)
    except DecodeMismatch as exc:
        return f"DecodeMismatch: {exc}"


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n_records", range(1, 11))
def test_sparse_chain_matches_dense_chain(n_records, seed):
    gen = RandomSource(63, seed)
    records = [f"{gen.integers(0, 2)}{gen.integers(0, 2)}" for _ in range(n_records)]
    live = f"p{2 * n_records}"
    for op in (None, PAULI_X, HADAMARD, rotation(PAULI_Y, math.pi / 3)):
        chain = build_chain(records, RandomSource(64, seed))
        ref = dense_chain([Record.parse(r) for r in records], RandomSource(64, seed))
        if op is not None:
            tamper(chain, live, op)
            apply_op(ref.register, op, [live])
            ref.valid = dense_fidelity(ref) >= VALIDITY_FIDELITY
        assert isinstance(chain.register.state, _SparseKet)
        assert np.array_equal(chain.register.state.amplitudes, ref.register.state.amplitudes)
        assert [r.bits for r in chain.records] == records
        assert chain.timestamps == ref.timestamps
        assert chain.valid is ref.valid
        assert chain.fidelity() == dense_fidelity(ref)
        assert _decoded_or_error(decode, chain) == _decoded_or_error(dense_decode, ref)


def _inner_fidelity(chain):
    return abs(np.vdot(chain.expected_state().amplitudes, chain.register.state.amplitudes)) ** 2


@pytest.mark.parametrize("seed", range(8))
def test_fidelity_from_two_entries_matches_dense_overlap(seed):
    gen = RandomSource(61, seed)
    records = [f"{gen.integers(0, 2)}{gen.integers(0, 2)}" for _ in range(1 + seed % 6)]
    intact = build_chain(records, RandomSource(62, seed))
    assert intact.fidelity() == _inner_fidelity(intact)
    assert intact.fidelity() == pytest.approx(1.0, abs=1e-12)
    # H splits each branch so that the two overlaps cancel; Ry(pi/3) keeps
    # cos(pi/6) of both.
    for op, expected in ((PAULI_X, 0.0), (HADAMARD, 0.0), (rotation(PAULI_Y, math.pi / 3), 0.75)):
        chain = build_chain(records, RandomSource(62, seed))
        tamper(chain, f"p{2 * len(records)}", op)  # the one live photon
        assert chain.fidelity() == pytest.approx(_inner_fidelity(chain), abs=1e-15)
        assert chain.fidelity() == pytest.approx(expected, abs=1e-12)


def test_ten_record_chain_stays_small():
    """The chain holds its branches, not a 2^20 vector (16.8 MB)."""
    records = ["01", "10", "11", "00", "10", "01", "11", "00", "10", "11"]
    rng = RandomSource(65, 0)  # outside the trace: its first use imports numpy.random
    tracemalloc.start()
    try:
        chain = build_chain(records, rng)
        assert decode(chain) == chain.record_string
        assert chain.fidelity() == pytest.approx(1.0, abs=1e-12)
        tamper(chain, "p20", PAULI_X)
        assert not chain.valid
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# Properties over records and seeds
# ---------------------------------------------------------------------------

_RECORDS = st.lists(st.sampled_from(["00", "01", "10", "11"]), min_size=1, max_size=10)
_SEEDS = st.integers(0, 2**32 - 1)


def _assert_index_matches_scan(register):
    """The register's label index and live-qubit numbering against a linear
    scan of its modes."""
    position, qubit = {}, {}
    for i, (mode, consumed) in enumerate(register.modes):
        position.setdefault(mode.spatial, i)
        if not consumed:
            qubit[mode.spatial] = len(qubit)
    assert register._position == position
    assert register._qubit == qubit
    for spatial, i in position.items():
        assert register._find(spatial) == i
        if spatial in qubit:
            assert register._live_index(spatial) == qubit[spatial]
        else:
            with pytest.raises(TemporalError, match="already consumed"):
                register._live_index(spatial)
    with pytest.raises(TemporalError, match="unknown mode"):
        register._find("nowhere")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(records=_RECORDS, seed=_SEEDS)
def test_build_then_decode_returns_the_records(records, seed):
    chain = build_chain(records, RandomSource(seed, 5))
    assert decode(chain) == "".join(records)
    assert chain.valid and chain.fidelity() == pytest.approx(1.0, abs=1e-12)
    assert chain.timestamps == [(k + 1) // 2 for k in range(2 * len(records))]
    _assert_index_matches_scan(chain.register)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(records=_RECORDS, seed=_SEEDS)
def test_fused_append_matches_dense_chain_bit_for_bit(records, seed):
    rng, ref_rng = RandomSource(seed, 5), RandomSource(seed, 5)
    chain = build_chain(records, rng)
    ref = dense_chain([Record.parse(r) for r in records], ref_rng)
    got, want = chain.register.state.amplitudes, ref.register.state.amplitudes
    # The nonzero amplitudes agree to the bit; elsewhere the dense vector may
    # hold -0.0 where the sparse one reads +0.0.
    branches = chain.register.state.indices
    assert got[branches].tobytes() == want[branches].tobytes()
    assert np.array_equal(got, want) and np.count_nonzero(want) == branches.size
    assert chain.register.event_log == ref.register.event_log
    assert chain.register.modes == ref.register.modes
    assert chain.register._position == ref.register._position
    assert chain.register._qubit == ref.register._qubit
    assert rng.uniform() == ref_rng.uniform()


def _copy(chain):
    twin = QuantumChain()
    twin.register, twin.records, twin.valid = chain.register.snapshot(), list(chain.records), True
    return twin


@settings(max_examples=25, deadline=None, derandomize=True)
@given(records=_RECORDS, seed=_SEEDS, op=st.sampled_from([PAULI_X, PAULI_Y, PAULI_Z, HADAMARD]))
def test_tamper_at_every_target_is_detected_or_refused(records, seed, op):
    chain = build_chain(records, RandomSource(seed, 5))
    k = len(records)
    for target in range(1, 2 * k + 1):
        tampered = _copy(chain)
        try:
            tamper(tampered, f"p{target}", op)
        except TemporalInaccessible:
            # Only the last photon exists at the chain's time; a refusal
            # leaves the chain as it was.
            assert target < 2 * k
            assert tampered.register.state is chain.register.state
            assert decode(tampered) == "".join(records) and tampered.valid
        else:
            assert target == 2 * k
            assert not tampered.valid
            with pytest.raises(DecodeMismatch):
                decode(tampered)
        _assert_index_matches_scan(tampered.register)
    assert decode(chain) == "".join(records)


class _Draw:
    """Stands in for RandomSource in a fusion: every draw is 0, which any
    success probability above 0 accepts."""

    def uniform(self):
        return 0.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), seed=_SEEDS)
def test_register_index_agrees_with_a_linear_scan(data, seed):
    # Create, delay, fuse and measure in any order, as swap_demo does.
    register, rng, made = TemporalRegister(), RandomSource(seed, 9), 0
    for _ in range(data.draw(st.integers(1, 12))):
        live = [mode.spatial for mode in register.live_modes]
        kinds = ["create"] * (len(live) <= 8) + ["delay", "measure"] * bool(live)
        kinds += ["fuse", "bell"] * (len(live) >= 2)
        kind = data.draw(st.sampled_from(kinds))
        t = register.last_event_time
        if kind == "create":
            label = data.draw(st.sampled_from(["phi+", "phi-", "psi+", "psi-"]))
            create_pair(register, label, (f"m{made}", f"m{made + 1}"), t=t)
            made += 2
        elif kind == "delay":
            delay(register, data.draw(st.sampled_from(live)), data.draw(st.integers(1, 3)))
        elif kind == "measure":
            measure_mode(register, data.draw(st.sampled_from(live)), rng)
        else:
            pair = st.lists(st.sampled_from(live), min_size=2, max_size=2, unique=True)
            s1, s2 = data.draw(pair)
            if kind == "bell":
                bell_measure(register, s1, s2, rng)
            else:
                snapshot = register.snapshot()
                if not pbs_fuse(register, s1, s2, _Draw()):
                    register = snapshot
        _assert_index_matches_scan(register)
