import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chronoq.infotheory import (
    CodecFailure,
    InfoTheoryError,
    TypicalCodec,
    _distinct_rows,
    _exact_share,
    _floor_share,
    _multinomial,
    _share_rule,
    derived_entropies,
    entropic_uncertainty_bound,
    relative_entropy,
    sequence_surprisal,
    shannon_entropy,
    typical_codec_roundtrip,
    typical_membership,
    typical_set_size,
)
from chronoq.qcore import (
    HADAMARD,
    MAX_CODEC_BLOCK,
    RandomSource,
    StateVector,
)
from dense_reference import rank_in_class


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


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    rows=st.integers(1, 5),
    cols=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=2, cols=2, seed=0)
def test_derived_entropies_are_the_public_entropies_of_its_table(rows, cols, seed):
    # Bit for bit what the public functions give on the checked table, its
    # marginals and their product: the marginals are renormalized, not
    # checked again.  Zeros and entries just below zero are included.
    gen = np.random.default_rng(seed)
    table = gen.random((rows, cols)) ** 3
    table[gen.random((rows, cols)) < 0.3] = 0.0
    table[0, 0] += 1e-3
    table /= table.sum()
    table[(table == 0.0) & (gen.random((rows, cols)) < 0.5)] = -1e-13
    d = derived_entropies(table)
    flat = np.clip(table.reshape(-1), 0.0, None) / table.sum()
    checked = flat.reshape(rows, cols)
    px, py = checked.sum(axis=1), checked.sum(axis=0)
    h_joint, h_x, h_y = shannon_entropy(flat), shannon_entropy(px), shannon_entropy(py)
    assert d == {
        "joint": h_joint,
        "conditional": h_joint - h_y,
        "mutual": h_x + h_y - h_joint,
        "relative_to_product": relative_entropy(flat, np.outer(px, py).reshape(-1)),
    }


def test_derived_entropies_rejects_a_table_that_is_not_a_distribution():
    for table in ([[0.5, 0.6], [0.0, 0.0]], [[0.5, -0.1], [0.6, 0.0]], np.zeros((0, 2))):
        with pytest.raises(InfoTheoryError):
            derived_entropies(table)
    with pytest.raises(InfoTheoryError, match="2-D"):
        derived_entropies([0.5, 0.5])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "entropy",
    [
        shannon_entropy,
        lambda p: relative_entropy(p, [0.25] * 4),
        lambda p: relative_entropy([0.25] * 4, p),
        lambda p: derived_entropies(np.reshape(p, (2, 2))),
    ],
    ids=["shannon", "relative-p", "relative-q", "derived"],
)
def test_a_non_finite_probability_is_rejected(entropy, bad):
    # A nan entry fails every comparison and makes the sum nan, so only an
    # explicit finiteness check rejects it.
    with pytest.raises(InfoTheoryError, match="finite"):
        entropy([bad, 0.5, 0.5, 0.0])


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
    assert 0 <= idx < 2**codec.width


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(k=st.integers(1, 7), n=st.integers(1, MAX_CODEC_BLOCK), seed=st.integers(0, 2**32 - 1))
def test_unrank_inverts_ranks_within_every_class(k, n, seed):
    # The largest class splits n as evenly as possible over the k symbols.
    q, r = divmod(n, k)
    assume(_multinomial(n, (q + 1,) * r + (q,) * (k - r)) < 1 << 63)
    rows = np.random.default_rng(seed).integers(0, k, size=(40, n), dtype=np.uint8)
    counts = (rows[:, :, None] == np.arange(k)).sum(axis=1)
    size = np.array([_multinomial(n, c) for c in map(tuple, counts.tolist())], dtype=np.int64)
    # Ranking reads only the block length and the share rule, so no codebook
    # is built: a 7-symbol book near n = 24 holds about 6 * 10**5 classes.
    # Every such book takes the floor share; the exact share must agree.
    assert _share_rule(_multinomial(n, (q + 1,) * r + (q,) * (k - r)), n) is _floor_share
    block = SimpleNamespace(n=n, _share=_floor_share)
    rank = TypicalCodec._ranks(block, rows, counts, size)
    assert np.all((0 <= rank) & (rank < size))
    assert np.array_equal(TypicalCodec._ranks(block, rows.astype(np.int64), counts, size), rank)
    assert np.array_equal(TypicalCodec._unrank(block, counts, size, rank), rows)
    exact = SimpleNamespace(n=n, _share=_exact_share)
    assert np.array_equal(TypicalCodec._ranks(exact, rows, counts, size), rank)
    assert np.array_equal(TypicalCodec._unrank(exact, counts, size, rank), rows)
    for row, c, got in zip(rows[:3].tolist(), counts.tolist(), rank.tolist()):
        assert got == rank_in_class(n, row, c)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(d=st.integers(1, 24), dtype=st.sampled_from([np.uint8, np.int64]), data=st.data())
def test_exact_share_is_the_floor_of_the_product(d, dtype, data):
    ts = data.draw(st.lists(st.integers(2**62 - 2**40, 2**63 - 1), min_size=1, max_size=8))
    cs = data.draw(st.lists(st.integers(0, d), min_size=len(ts), max_size=len(ts)))
    got = _exact_share(np.array(ts, dtype=np.int64), np.array(cs, dtype=dtype), d)
    assert got.dtype == np.int64
    assert got.tolist() == [t * c // d for t, c in zip(ts, cs)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(d=st.integers(1, 24), dtype=st.sampled_from([np.uint8, np.int64]), data=st.data())
def test_floor_share_is_the_exact_share_wherever_the_product_fits(d, dtype, data):
    # t <= (2**63 - 1) // d and c <= d keep every product t * c in int64.
    ts = data.draw(st.lists(st.integers(0, (2**63 - 1) // d), min_size=1, max_size=8))
    cs = data.draw(st.lists(st.integers(0, d), min_size=len(ts), max_size=len(ts)))
    t, c = np.array(ts, dtype=np.int64), np.array(cs, dtype=dtype)
    got = _floor_share(t, c, d)
    assert got.dtype == np.int64
    assert got.tolist() == _exact_share(t, c, d).tolist() == [t * c // d for t, c in zip(ts, cs)]


def test_share_rule_takes_the_exact_share_only_past_int64():
    for n in (1, 20, 23, 24):
        assert _share_rule((2**63 - 1) // n, n) is _floor_share
        assert _share_rule((2**63 - 1) // n + 1, n) is _exact_share
    # The smallest alphabet whose largest class times n passes 2**63 - 1:
    # 9 symbols at n = 24 (1.05 * 10**7 classes).
    assert _share_rule(_multinomial(24, (3,) * 6 + (2,) * 3), 24) is _exact_share
    assert _share_rule(_multinomial(24, (3,) * 8), 24) is _floor_share
    assert TypicalCodec(n=20, epsilon=0.25, source=[0.89, 0.11])._share is _floor_share


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    m=st.integers(0, 40),
    n=st.integers(1, 70),
    base=st.sampled_from([2, 3, 7, 25, 256, 2**20]),
    others=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=3, n=64, base=2, others=0, seed=1)
def test_distinct_rows_is_numpy_unique(m, n, base, others, seed):
    # A row and, for each digit, the row with that digit changed, whichever
    # word it falls in (70 binary digits fill two words), plus a few other
    # rows; every one of them appears, m more times at random.
    gen = np.random.default_rng(seed)
    row = gen.integers(0, base, size=n)
    near = np.repeat(row[None], n + 1, axis=0)
    near[np.arange(1, n + 1), np.arange(n)] = (row + gen.integers(1, base, size=n)) % base
    pool = np.concatenate([near, gen.integers(0, base, size=(others, n))])
    rows = np.concatenate([pool, pool[gen.integers(0, len(pool), size=m)]])
    rows = rows[gen.permutation(len(rows))]
    for a in (rows, rows.astype(np.uint8)) if base <= 256 else (rows,):
        got, inverse, counts = _distinct_rows(a)
        want, want_inverse, want_counts = np.unique(
            a, axis=0, return_inverse=True, return_counts=True
        )
        assert np.array_equal(got, want) and got.dtype == a.dtype
        assert inverse.tolist() == want_inverse.ravel().tolist()
        assert counts.tolist() == want_counts.tolist()


def test_entropy_of_a_certain_outcome_is_positive_zero():
    for h in (
        shannon_entropy([1.0, 0.0]),
        shannon_entropy([0.0, 1.0, 0.0]),
    ):
        assert h == 0.0 and math.copysign(1.0, h) == 1.0
    # Every other value keeps its bits: 0.0 - s is -s exactly when s != 0.
    p = np.array([0.1, 0.2, 0.7])
    assert shannon_entropy(p) == float(-np.sum(p * np.log2(p)))


def test_entropic_uncertainty_mub():
    x_basis = [StateVector(np.ascontiguousarray(HADAMARD[:, j])) for j in range(2)]
    z_basis = [StateVector([1.0, 0.0]), StateVector([0.0, 1.0])]
    assert entropic_uncertainty_bound(x_basis, z_basis) == pytest.approx(1.0)


def test_entropic_uncertainty_of_one_basis_with_itself_is_plus_zero():
    z_basis = [StateVector([1.0, 0.0]), StateVector([0.0, 1.0])]
    bound = entropic_uncertainty_bound(z_basis, z_basis)
    assert bound == 0.0 and math.copysign(1.0, bound) == 1.0
