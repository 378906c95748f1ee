import copy
import itertools
import json
import math

import numpy as np
import pytest

from chronoq.chain import (
    FUSION_RETRY_CAP,
    ChainError,
    ClassicalChain,
    DecodeMismatch,
    QuantumChain,
    Record,
    TemporalInaccessible,
    append,
    build_chain,
    classical_chain_tamper_contrast,
    decode,
    decode_by_statistics,
    mix,
    tamper,
)
from chronoq.qcore import HADAMARD, PAULI_X, PAULI_Y, PAULI_Z, RandomSource, StateVector, rotation
from chronoq.temporal import apply_op, create_pair, delay, pbs_fuse


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


def test_fidelity_and_json():
    rng = RandomSource(24, 0)
    chain = build_chain(["01", "11"], rng)
    blob = json.loads(chain.to_json())
    assert blob["records"] == ["01", "11"]
    assert blob["valid"] is True
    assert blob["fidelity"] == pytest.approx(1.0)


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


def test_decode_by_statistics():
    rng = RandomSource(28, 0)

    def make_copy():
        local = RandomSource(28, 1)
        return build_chain(["00", "10", "11"], local).register.state

    assert decode_by_statistics(make_copy, 64, rng) == "001011"


def test_decode_by_statistics_fourteen_qubits():
    records = ["00", "10", "11", "01", "10", "00", "11"]
    chain = build_chain(records, RandomSource(29, 1))
    assert chain.register.state.num_qubits == 14
    decoded = decode_by_statistics(lambda: chain.register.state, 64, RandomSource(29, 0))
    assert decoded == chain.record_string


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


def test_fusion_retry_cap_enforced():
    chain = build_chain(["01", "10"], RandomSource(30, 0))
    register, state = chain.register, chain.register.state
    log = copy.deepcopy(register.event_log)
    modes = copy.deepcopy(register.modes)
    # Fusing a fresh Bell pair onto the chain succeeds with p = 1/2.
    draw = _CountingDraw(0.75)
    with pytest.raises(ChainError, match="retry cap"):
        append(chain, Record(1, 1), draw)
    assert draw.draws == FUSION_RETRY_CAP
    assert chain.records == [Record(0, 1), Record(1, 0)]
    assert chain.valid
    assert chain.register is register and register.state is state
    assert register.event_log == log and register.modes == modes
    assert register.valid
    assert decode(chain) == "0110"


def _append_per_attempt(chain, record, rng):
    """Reference append: each retry deep-copies the register and repeats the
    pair creation, delay and fusion."""
    if not chain.records:
        return append(chain, record, rng)
    k = len(chain.records)
    last_bit = chain.records[-1].r2
    new1, new2 = f"p{2 * k + 1}", f"p{2 * k + 2}"
    pair = Record(0, record.r2 ^ last_bit)
    for _ in range(FUSION_RETRY_CAP):
        snap = copy.deepcopy(chain.register)
        create_pair(snap, pair.bits, (new1, new2), t=k)
        delay(snap, new2, 1)
        if pbs_fuse(snap, f"p{2 * k}", new1, rng):
            if record.r1 != last_bit:
                apply_op(snap, PAULI_X, [new1])
            chain.register = snap
            chain.records.append(record)
            return chain
    raise ChainError("fusion retry cap exceeded")


@pytest.mark.parametrize("seed", range(30))
def test_append_matches_per_attempt_reference(seed):
    gen = np.random.default_rng(seed)
    n_records = 1 + seed % 10
    records = [Record(int(a), int(b)) for a, b in gen.integers(0, 2, size=(n_records, 2))]
    rng, ref_rng = RandomSource(seed, 5), RandomSource(seed, 5)
    chain = build_chain(records, rng)
    ref = QuantumChain()
    for rec in records:
        _append_per_attempt(ref, rec, ref_rng)
    assert chain.records == ref.records
    assert chain.register.event_log == ref.register.event_log
    assert chain.register.modes == ref.register.modes
    assert np.array_equal(chain.register.state.amplitudes, ref.register.state.amplitudes)
    assert rng.uniform() == ref_rng.uniform()


def _dense_fidelity(chain):
    return abs(chain.expected_state().inner(chain.register.state)) ** 2


@pytest.mark.parametrize("seed", range(8))
def test_fidelity_from_two_entries_matches_dense_overlap(seed):
    gen = RandomSource(61, seed)
    records = [f"{gen.integers(0, 2)}{gen.integers(0, 2)}" for _ in range(1 + seed % 6)]
    intact = build_chain(records, RandomSource(62, seed))
    assert intact.fidelity() == _dense_fidelity(intact)
    assert intact.fidelity() == pytest.approx(1.0, abs=1e-12)
    # H splits each branch so that the two overlaps cancel; Ry(pi/3) keeps
    # cos(pi/6) of both.
    for op, expected in ((PAULI_X, 0.0), (HADAMARD, 0.0), (rotation(PAULI_Y, math.pi / 3), 0.75)):
        chain = build_chain(records, RandomSource(62, seed))
        tamper(chain, f"p{2 * len(records)}", op)  # the one live photon
        assert chain.fidelity() == pytest.approx(_dense_fidelity(chain), abs=1e-15)
        assert chain.fidelity() == pytest.approx(expected, abs=1e-12)
