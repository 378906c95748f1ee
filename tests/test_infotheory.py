import itertools
import math

import numpy as np
import pytest

from chronoq.infotheory import (
    CodecFailure,
    InfoTheoryError,
    TypicalCodec,
    derived_entropies,
    entropic_uncertainty_bound,
    quantum_conditional_entropy,
    quantum_mutual_information,
    relative_entropy,
    sequence_surprisal,
    shannon_entropy,
    typical_codec_roundtrip,
    typical_membership,
    typical_set_size,
    von_neumann_entropy,
)
from chronoq.qcore import HADAMARD, DensityOperator, RandomSource, StateVector, bell_state


def test_shannon_entropy_basics():
    assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0)
    assert shannon_entropy([1.0, 0.0]) == pytest.approx(0.0)
    assert shannon_entropy([0.25] * 4) == pytest.approx(2.0)


def test_shannon_entropy_rejects_bad_distribution():
    with pytest.raises(InfoTheoryError):
        shannon_entropy([0.5, 0.6])
    with pytest.raises(InfoTheoryError):
        shannon_entropy([-0.1, 1.1])


def test_derived_entropies_chain_rule():
    joint = np.array([[0.125, 0.0625], [0.25, 0.0625], [0.25, 0.25]]).T
    joint = joint / joint.sum()
    d = derived_entropies(joint)
    hy = shannon_entropy(joint.sum(axis=0))
    assert d["joint"] == pytest.approx(d["conditional"] + hy)
    hx = shannon_entropy(joint.sum(axis=1))
    assert d["mutual"] == pytest.approx(hx + hy - d["joint"])
    assert d["mutual"] >= -1e-12


def test_relative_entropy_properties():
    p, q = [0.7, 0.3], [0.5, 0.5]
    assert relative_entropy(p, p) == pytest.approx(0.0)
    assert relative_entropy(p, q) > 0
    assert relative_entropy([0.5, 0.5], [1.0, 0.0]) == math.inf


def test_sequence_surprisal():
    src = [0.75, 0.25]
    s = sequence_surprisal([0, 0, 1], src)
    assert s == pytest.approx((-2 * math.log2(0.75) - math.log2(0.25)) / 3)


@pytest.mark.parametrize("seq", [(-1, 0), (0, 2), (2, 0, 1), (1, -2, 0)])
def test_surprisal_rejects_symbols_outside_the_alphabet(seq):
    # (-1, 0) used to read p[-1] and return the surprisal of (1, 0).
    src = [0.25, 0.75]
    with pytest.raises(InfoTheoryError, match="symbols must lie in 0..1"):
        sequence_surprisal(seq, src)
    with pytest.raises(InfoTheoryError, match="symbols must lie in 0..1"):
        typical_membership(seq, src, 0.5)


def test_surprisal_checks_symbols_before_a_zero_probability_one():
    with pytest.raises(InfoTheoryError):
        sequence_surprisal([0, 5], [0.0, 1.0])


def test_surprisal_of_the_empty_sequence_raises():
    # It used to divide by the length and raise a bare ZeroDivisionError.
    for check in (lambda: sequence_surprisal([], [0.5, 0.5]),
                  lambda: typical_membership([], [0.5, 0.5], 0.1)):
        with pytest.raises(InfoTheoryError, match="empty sequence"):
            check()


def test_typical_membership_and_size_exhaustive():
    src = [0.8, 0.2]
    eps = 0.15
    for n in (4, 8, 12):
        h = shannon_entropy(src)
        count = 0
        for seq in itertools.product((0, 1), repeat=n):
            if typical_membership(seq, src, eps):
                count += 1
                per = sequence_surprisal(seq, src)
                assert h - eps - 1e-12 <= per <= h + eps + 1e-12
        assert count == typical_set_size(n, src, eps)
        assert count <= 2 ** (n * (h + eps)) + 1e-9


def test_codec_width_and_roundtrip_exact_members():
    src = [0.89, 0.11]
    h = shannon_entropy(src)
    codec = TypicalCodec(n=12, epsilon=0.75 - h, source=src)
    assert codec.width == math.ceil(12 * 0.75)
    seq = (0,) * 12
    idx = codec.encode(seq)
    assert codec.decode(idx) == seq
    bits = codec.codeword_bits(idx)
    assert len(bits) == codec.width
    assert codec.index_from_bits(bits) == idx


def test_codec_encode_decode_bijection_prefix():
    src = [0.89, 0.11]
    codec = TypicalCodec(n=10, epsilon=0.75 - shannon_entropy(src), source=src)
    limit = min(1 << codec.width, 200)
    seen = set()
    for idx in range(limit):
        seq = codec.decode(idx)
        assert codec.encode(seq) == idx
        seen.add(seq)
    assert len(seen) == limit


def test_codec_failure_outside_codebook():
    src = [0.99, 0.01]
    codec = TypicalCodec(n=10, epsilon=0.05, source=src)
    with pytest.raises(CodecFailure):
        codec.encode((1,) * 10)


def test_codec_encode_rejects_symbols_outside_the_alphabet():
    codec = TypicalCodec(n=4, epsilon=0.5, source=[0.6, 0.3, 0.1])
    for seq in ((0, 0, 3, 0), (0, -1, 0, 0)):
        with pytest.raises(InfoTheoryError, match="symbols must lie in 0..2"):
            codec.encode(seq)


def test_codec_rejects_classes_beyond_int64():
    # The class with one of each of 21 symbols holds 21! > 2**63 sequences:
    # refused before any class is enumerated.
    with pytest.raises(InfoTheoryError, match="21 symbols are too many for block length 21"):
        TypicalCodec(n=21, epsilon=0.0, source=[1 / 21] * 21)


def test_codec_roundtrip_rates():
    src = [0.89, 0.11]
    h = shannon_entropy(src)
    rng = RandomSource(42, 5)
    good = typical_codec_roundtrip(
        TypicalCodec(n=20, epsilon=0.75 - h, source=src), 2000, rng
    )
    bad = typical_codec_roundtrip(
        TypicalCodec(n=20, epsilon=0.3 - h, source=src), 2000, rng
    )
    assert good["success_rate"] >= 0.9
    assert bad["success_rate"] <= 0.5


def test_von_neumann_entropy():
    assert von_neumann_entropy(bell_state("phi+").to_density()) == pytest.approx(0.0)
    assert von_neumann_entropy(DensityOperator.maximally_mixed(4)) == pytest.approx(2.0)


def test_entropy_of_a_certain_outcome_is_positive_zero():
    for h in (
        shannon_entropy([1.0, 0.0]),
        shannon_entropy([0.0, 1.0, 0.0]),
        von_neumann_entropy(bell_state("phi+").to_density()),
        von_neumann_entropy(StateVector([0.6, 0.8]).to_density()),
    ):
        assert h == 0.0 and math.copysign(1.0, h) == 1.0
    # Every other value keeps its bits: 0.0 - s is -s exactly when s != 0.
    p = np.array([0.1, 0.2, 0.7])
    assert shannon_entropy(p) == float(-np.sum(p * np.log2(p)))


def test_quantum_conditional_entropy_negative_for_entangled():
    rho = bell_state("phi+").to_density()
    assert quantum_conditional_entropy(rho, [2, 2]) == pytest.approx(-1.0)
    assert quantum_mutual_information(rho, [2, 2]) == pytest.approx(2.0)


def test_entropic_uncertainty_mub():
    x_basis = [StateVector(np.ascontiguousarray(HADAMARD[:, j])) for j in range(2)]
    z_basis = [StateVector([1.0, 0.0]), StateVector([0.0, 1.0])]
    assert entropic_uncertainty_bound(x_basis, z_basis) == pytest.approx(1.0)


def test_entropic_uncertainty_of_one_basis_with_itself_is_plus_zero():
    z_basis = [StateVector([1.0, 0.0]), StateVector([0.0, 1.0])]
    bound = entropic_uncertainty_bound(z_basis, z_basis)
    assert bound == 0.0 and math.copysign(1.0, bound) == 1.0
