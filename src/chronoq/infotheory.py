"""Shannon entropy family, typical-set coding, entropic uncertainty bound.

All entropies are in bits (log base 2).  The ``0 * log 0 = 0`` convention is
applied by clamping probabilities below ``TOL_ALG`` to zero.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .qcore import (
    MAX_CODEC_BLOCK,
    TOL_ALG,
    QcoreError,
    RandomSource,
    StateVector,
    is_unitary,
)


class InfoTheoryError(ValueError):
    """Raised on invalid distributions or codec misuse."""


# ---------------------------------------------------------------------------
# Classical entropies
# ---------------------------------------------------------------------------


def _validate_dist(p) -> np.ndarray:
    arr = np.asarray(p, dtype=float).reshape(-1)
    if arr.size == 0 or not np.all(np.isfinite(arr) & (arr >= -TOL_ALG)):
        raise InfoTheoryError("probabilities must be finite and nonnegative")
    total = arr.sum()
    if abs(total - 1.0) > 1e-6:
        raise InfoTheoryError(f"probabilities must sum to 1 (got {total!r})")
    return _renormalized(arr)


def _renormalized(arr: np.ndarray) -> np.ndarray:
    """Clipped at zero and divided by its sum: how a checked distribution is kept."""
    return np.clip(arr, 0.0, None) / arr.sum()


def shannon_entropy(p: Sequence[float]) -> float:
    """H(X) = -sum p log2 p in bits; a certain outcome gives +0.0."""
    return _entropy(_validate_dist(p))


def _entropy(arr: np.ndarray) -> float:
    """:func:`shannon_entropy` of a checked, renormalized distribution."""
    nz = arr[arr > TOL_ALG]
    return 0.0 - float(np.sum(nz * np.log2(nz)))


def derived_entropies(joint) -> dict:
    """Joint, conditional H(X|Y), mutual, and relative-to-product entropies.

    ``joint`` is a 2-D table p(x, y).  Once the table is checked, its
    marginals and their product are distributions too, so they are
    renormalized as the public entropies do but not checked again.
    """
    table = np.asarray(joint, dtype=float)
    if table.ndim != 2:
        raise InfoTheoryError("joint distribution must be a 2-D table")
    flat = _validate_dist(table.reshape(-1))
    table = flat.reshape(table.shape)
    px = table.sum(axis=1)
    py = table.sum(axis=0)
    p_xy = _renormalized(flat)
    h_joint = _entropy(p_xy)
    h_x = _entropy(_renormalized(px))
    h_y = _entropy(_renormalized(py))
    return {
        "joint": h_joint,
        "conditional": h_joint - h_y,  # H(X|Y)
        "mutual": h_x + h_y - h_joint,
        "relative_to_product": _relative_entropy(
            p_xy, _renormalized(np.outer(px, py).reshape(-1))
        ),
    }


def relative_entropy(p, q) -> float:
    """H(p||q) in bits; infinite if supp(p) is not inside supp(q)."""
    p = _validate_dist(p)
    q = _validate_dist(q)
    if p.shape != q.shape:
        raise InfoTheoryError("distributions must have equal length")
    return _relative_entropy(p, q)


def _relative_entropy(p: np.ndarray, q: np.ndarray) -> float:
    """:func:`relative_entropy` of checked, renormalized distributions."""
    mask = p > TOL_ALG
    if np.any(q[mask] <= TOL_ALG):
        return math.inf
    return float(np.sum(p[mask] * (np.log2(p[mask]) - np.log2(q[mask]))))


# ---------------------------------------------------------------------------
# Typical sequences and the noiseless coding demo
# ---------------------------------------------------------------------------


def sequence_surprisal(seq: Sequence[int], source) -> float:
    """-(1/n) log2 p(seq) for an iid source; inf on a zero-probability symbol."""
    p = _validate_dist(source)
    if len(seq) == 0:
        raise InfoTheoryError("empty sequence")
    if not all(0 <= s < len(p) for s in seq):
        raise InfoTheoryError(f"symbols must lie in 0..{len(p) - 1}")
    total = 0.0
    for s in seq:
        ps = p[int(s)]
        if ps <= TOL_ALG:
            return math.inf
        total -= math.log2(ps)
    return total / len(seq)


def typical_membership(seq: Sequence[int], source, epsilon: float) -> bool:
    """True iff |-(1/n) log2 p(seq) - H| <= epsilon.

    Zero-probability symbols make the sequence non-typical by convention.
    """
    surprisal = sequence_surprisal(seq, source)
    if math.isinf(surprisal):
        return False
    # The 1e-12 slack keeps boundary classes consistent with the exact
    # class-based count in typical_set_size.
    return abs(surprisal - shannon_entropy(source)) <= epsilon + 1e-12


def typical_set_size(n: int, source, epsilon: float) -> int:
    """Exact count of epsilon-typical length-n sequences (by count classes)."""
    p = _validate_dist(source)
    h = shannon_entropy(p)
    counts, log2_prob = _count_classes(n, p)
    typical = np.abs(-log2_prob / n - h) <= epsilon + 1e-12
    return sum(_multinomial(n, c) for c in map(tuple, counts[typical].tolist()))


def _count_classes(n: int, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The symbol counts of every length-n class of nonzero probability, in
    lexicographic order, and the log2 probability of any one sequence in
    each: c log2(p_s) summed over the symbols left to right, a zero count
    adding a zero."""
    counts = _compositions(n, len(p))
    if np.any(p <= TOL_ALG):
        counts = counts[~np.any(counts[:, p <= TOL_ALG] > 0, axis=1)]
    log2_prob = np.zeros(len(counts))
    for c, pi in zip(counts.T, p.tolist()):
        if pi > TOL_ALG:
            log2_prob += c * math.log2(pi)
    return counts, log2_prob


@lru_cache(maxsize=None)
def _compositions(n: int, k: int) -> np.ndarray:
    """Every tuple of k nonnegative integers summing to n, as a read-only
    ``(tuples, k)`` int64 array in lexicographic order."""
    counts = np.zeros((1, 0), dtype=np.int64)
    for _ in range(k - 1):
        # Each prefix so far, extended by every count that still fits.
        fits = n + 1 - counts.sum(axis=1)
        starts = np.repeat(np.cumsum(fits) - fits, fits)
        counts = np.column_stack([np.repeat(counts, fits, axis=0), np.arange(fits.sum()) - starts])
    counts = np.column_stack([counts, n - counts.sum(axis=1)])
    counts.flags.writeable = False
    return counts


@lru_cache(maxsize=None)
def _binomials(n: int) -> np.ndarray:
    """C(m, c) at [m, c] for m, c <= n, as a read-only int64 array."""
    table = np.array([[math.comb(m, c) for c in range(n + 1)] for m in range(n + 1)])
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _multinomial(n: int, counts: tuple) -> int:
    out = math.factorial(n)
    for c in counts:
        out //= math.factorial(c)
    return out


def _distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct rows of a 2-D array of ints in [0, 2**53), in lexicographic
    order, each row's position among them, and how often each occurs.

    Each row's digits in base ``max + 1`` are packed into float64 words, as
    many digits per word as keep the word below 2**53, the first digit most
    significant: one matrix product with a (digits, words) table of powers.
    Every partial sum is an integer below 2**53, so the words are exact in
    any summation order.  The rows are sorted by their last word, then
    stably by each earlier word, so a row of up to 53 binary symbols is one
    sort."""
    m, n = a.shape
    base = max(int(a.max()) + 1, 2)
    per_word = 1
    while base ** (per_word + 1) <= 2**53:
        per_word += 1
    digit = np.arange(n)
    word = digit // per_word
    powers = np.zeros((n, word[-1] + 1))
    powers[digit, word] = base ** (np.minimum(word * per_word + per_word, n) - 1 - digit)
    words = (a.astype(np.float64) @ powers).T
    order = np.argsort(words[-1])
    for word in words[-2::-1]:
        order = order[np.argsort(word[order], kind="stable")]
    new = np.zeros(m, dtype=bool)
    new[0] = True
    for word in words:
        ranked = word[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    starts = np.flatnonzero(new)
    inverse = np.empty(m, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    # A row's first occurrence is the least index among its copies.
    return a[np.minimum.reduceat(order, starts)], inverse, np.diff(starts, append=m)


def _floor_share(t: np.ndarray, c, d: int) -> np.ndarray:
    """t * c // d in int64, for t >= 0 and 0 <= c <= d, where no product
    t * c passes 2**63 - 1."""
    return t * c // d


def _exact_share(t: np.ndarray, c, d: int) -> np.ndarray:
    """t * c // d in int64 for t >= 0 and 0 <= c <= d, without forming the
    product, which may pass 2**63: with q = t // d, it is q c + (t - q d) c // d,
    where q c <= t and (t - q d) c < d**2.  A floor division by the Python
    int d, not ``np.divmod``, which costs about three times as much."""
    q = t // d
    return q * c + (t - q * d) * c // d


def _share_rule(largest: int, n: int):
    """The share rule of a length-``n`` book whose largest class holds
    ``largest`` sequences.  A share t * c // d has t at most a class size and
    c <= d <= n, so its product fits in int64 while ``largest * n`` does;
    above that, as for 9 symbols at n = 24, it takes :func:`_exact_share`."""
    return _floor_share if largest * n < 1 << 63 else _exact_share


@dataclass
class TypicalCodec:
    """Fixed-width block code for an iid source.

    The codebook holds the ``2**width`` most-probable length-``n`` sequences,
    ordered by ascending surprisal (ties broken by count-class tuple, then by
    lexicographic rank within a class).  With ``width = ceil(n (H + epsilon))``
    every epsilon-typical sequence fits, so the codec realizes the reliable
    compression regime; a negative ``epsilon`` (rate below entropy) exhibits
    the unreliable regime.  Sequences outside the codebook raise
    :class:`CodecFailure` — the codec declares an error and gives up.

    Ranks within a class are computed for many sequences at once
    (:meth:`_ranks`, :meth:`_unrank`); :meth:`encode` and :meth:`decode` are
    their one-row case.  They are exact in int64: construction proves that
    no count class holds 2**63 sequences or more, and every intermediate
    value is at most a class size.  Each share of a class, T * c / left, is
    floor-divided by the Python int ``left`` under one rule picked per book
    (:func:`_share_rule`): the plain ``T * c // left`` wherever the product
    fits in int64, which covers every book of at most 8 symbols, and
    :func:`_exact_share` otherwise.
    Ranking keeps a running table of the remaining symbols below each
    symbol instead of recounting the rest of the row; unranking sums the
    blocks of arrangements that start with each symbol as a running total
    over the k symbols.  Offsets, and so codeword indices, are
    Python ints, since the width may exceed 63 bits (7 equiprobable symbols
    at n = 23 need 65).
    """

    n: int
    epsilon: float
    source: Sequence[float]
    width: int = field(init=False)
    # Count tuple -> (offset, included count, class size), in codebook order.
    _classes: dict = field(init=False, repr=False)
    # The classes that include a sequence, as ascending offsets and their
    # count tuples: decode bisects the offsets.
    _offsets: list = field(init=False, repr=False)
    _offset_classes: list = field(init=False, repr=False)
    # t * c // d over int64 arrays, exact for this book (_share_rule).
    _share: Callable = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 1 or self.n > MAX_CODEC_BLOCK:
            raise InfoTheoryError(f"block length must be in [1, {MAX_CODEC_BLOCK}]")
        p = _validate_dist(self.source)
        self.source = tuple(float(x) for x in p)
        k = len(p)
        # The largest count class splits n as evenly as possible over the k
        # symbols; ranks within a class are exact in int64 below 2**63.
        q, r = divmod(self.n, k)
        largest = _multinomial(self.n, (q + 1,) * r + (q,) * (k - r))
        if largest >= 1 << 63:
            raise InfoTheoryError(
                f"{k} symbols are too many for block length {self.n}: "
                "a count class would hold 2**63 sequences or more"
            )
        self._share = _share_rule(largest, self.n)
        h = shannon_entropy(p)
        self.width = max(0, math.ceil(self.n * (h + self.epsilon) - 1e-12))
        max_width = math.ceil(self.n * math.log2(k))
        self.width = min(self.width, max_width)
        capacity = 1 << self.width

        # Order count classes by ascending surprisal (descending probability),
        # ties by count tuple: a stable sort of the classes in lexicographic
        # order.  A class's size is a product of binomials, each partial
        # product a coarser class's size, so all are exact in int64.
        counts, log2_prob = _count_classes(self.n, p)
        counts = counts[np.argsort(-log2_prob, kind="stable")]
        binomial = _binomials(self.n)
        sizes, left = np.ones(len(counts), dtype=np.int64), np.full(len(counts), self.n)
        for c in counts.T:
            sizes *= binomial[left, c]
            left -= c

        # Fill the codebook class by class; only the last class may be cut.
        # Offsets are Python ints: they pass 2**63 in the 65-bit book.
        sizes = sizes.tolist()
        offsets = [0, *accumulate(sizes)]
        full = min(bisect_left(offsets, capacity), len(sizes))
        takes = sizes[:full]
        takes[-1] = min(takes[-1], capacity - offsets[full - 1])
        # Every class in the book takes at least one sequence.
        self._offsets = offsets[:full]
        self._offset_classes = list(zip(*counts[:full].T.tolist()))
        self._classes = dict(zip(self._offset_classes, zip(self._offsets, takes, sizes)))

    @property
    def rate_bits_per_symbol(self) -> float:
        return self.width / self.n

    # -- ranking of multiset permutations (lexicographic), many rows at once --

    def _book_entries(self, rows: np.ndarray) -> tuple[np.ndarray, ...]:
        """Symbol counts of each row, and its class's included count and size
        as int64 (zeros for a class outside the codebook), looked up once
        per distinct class."""
        k = len(self.source)
        m = rows.shape[0]
        counts = np.bincount(
            (np.arange(m)[:, None] * k + rows).reshape(-1), minlength=m * k
        ).reshape(m, k)
        classes, which, _ = _distinct_rows(counts)
        entries = np.array(
            [self._classes.get(c, (0, 0, 0))[1:] for c in map(tuple, classes.tolist())],
            dtype=np.int64,
        )
        take, size = entries.T[:, which]
        return counts, take, size

    def _ranks(self, rows: np.ndarray, counts: np.ndarray, size: np.ndarray) -> np.ndarray:
        """Lexicographic rank of each row among the arrangements of its own
        symbol ``counts``; ``size`` holds the number of those arrangements.

        With T the arrangements of the symbols from position j on, those
        that put a symbol smaller than the row's s at j number
        T * (remaining symbols < s) / left; then T becomes
        T * (remaining s) / left.  Both divisions are exact.  The remaining
        symbols < s, for every s, are one running table: it starts as the
        cumulative counts and loses the row's symbol at each position, so no
        step recounts the rest of the row.  Its entries are at most
        n <= MAX_CODEC_BLOCK, so it is uint8."""
        # Position-major, so that each step reads contiguous rows of length m.
        cols = np.ascontiguousarray(rows.T)
        m, k = counts.shape
        smaller = np.zeros((k + 1, m), dtype=np.uint8)  # [s]: remaining symbols < s
        smaller[1:] = np.cumsum(counts.T, axis=0)
        symbols = np.arange(k, dtype=cols.dtype)[:, None]
        at = np.arange(m)
        rank = np.zeros(m, dtype=np.int64)
        arrangements = size
        for j, symbol in enumerate(cols):
            # Where each row's symbol, and the next, reads ``smaller``.
            flat = symbol * np.intp(m) + at
            less = smaller.ravel()[flat]
            left = self.n - j
            rank += self._share(arrangements, less, left)
            arrangements = self._share(arrangements, smaller.ravel()[flat + m] - less, left)
            # The row's symbol leaves the count below every larger symbol.
            smaller[1:] -= symbols >= symbol
        return rank

    def _unrank(self, counts: np.ndarray, size: np.ndarray, rank: np.ndarray) -> np.ndarray:
        """The rows of the given ranks: inverse of :meth:`_ranks`."""
        m = counts.shape[0]
        remaining = np.array(counts.T, order="C")  # symbol-major, a copy
        rank = rank.copy()
        arrangements = size
        cols = np.empty((self.n, m), dtype=np.int64)
        at = np.arange(m)
        for j in range(self.n):
            # Arrangements that start with each symbol, and their running
            # total, summed row by row over the k symbols: over so short an
            # axis, k - 1 in-place adds cost less than one ``np.cumsum``.
            blocks = self._share(arrangements, remaining, self.n - j)
            upto = blocks.copy()
            for before, row in zip(upto[:-1], upto[1:]):
                row += before
            symbol = np.count_nonzero(upto <= rank, axis=0)
            flat = symbol * m + at
            arrangements = blocks.ravel()[flat]
            rank -= upto.ravel()[flat] - arrangements
            remaining.ravel()[flat] -= 1
            cols[j] = symbol
        return cols.T

    def encode(self, seq: Sequence[int]) -> int:
        """Codeword index of a sequence; raises CodecFailure if not in the book."""
        if len(seq) != self.n:
            raise InfoTheoryError("sequence length mismatch")
        rows = np.asarray(seq, dtype=np.int64).reshape(1, self.n)
        if np.any((rows < 0) | (rows >= len(self.source))):
            raise InfoTheoryError(f"symbols must lie in 0..{len(self.source) - 1}")
        counts, take, size = self._book_entries(rows)
        rank = self._ranks(rows, counts, size)[0]
        if rank >= take[0]:
            raise CodecFailure("sequence outside codebook")
        return self._classes[tuple(counts[0].tolist())][0] + int(rank)

    def decode(self, index: int) -> tuple:
        at = bisect_right(self._offsets, index) - 1
        if at >= 0:
            counts = self._offset_classes[at]
            offset, take, size = self._classes[counts]
            if index < offset + take:
                rank = np.array([index - offset])
                return tuple(self._unrank(np.array([counts]), np.array([size]), rank)[0].tolist())
        raise InfoTheoryError("codeword index out of range")


class CodecFailure(InfoTheoryError):
    """The codec declares an error: the input sequence is not in the codebook."""


def typical_codec_roundtrip(codec: TypicalCodec, trials: int, rng: RandomSource) -> dict:
    """Monte Carlo success rate of encode-then-decode over iid source draws."""
    if trials < 1:
        raise InfoTheoryError("trials must be positive")
    # One double per symbol, picked as ``Generator.choice`` would; the
    # symbols come in the narrowest dtype that holds them.  Each distinct
    # sequence is encoded and decoded once, weighted by how often it was drawn.
    draws = rng.choice_index(codec.source, rng.generator.random((trials, codec.n)))
    rows, _, weight = _distinct_rows(draws)
    counts, take, size = codec._book_entries(rows)
    rank = codec._ranks(rows, counts, size)
    book = rank < take
    decoded = codec._unrank(counts[book], size[book], rank[book])
    successes = int(weight[book][np.all(decoded == rows[book], axis=1)].sum())
    return {
        "success_rate": successes / trials,
        "rate_bits_per_symbol": codec.rate_bits_per_symbol,
    }


# ---------------------------------------------------------------------------
# Entropic uncertainty
# ---------------------------------------------------------------------------


def entropic_uncertainty_bound(
    x_basis: Sequence[StateVector], z_basis: Sequence[StateVector]
) -> float:
    """log2(1/c) with c = max_{x,z} |<x|z>|^2, for two orthonormal bases."""
    if len(x_basis) != len(z_basis):
        raise InfoTheoryError("bases must have equal dimension")
    dim = x_basis[0].dim
    xm = np.stack([b.amplitudes for b in x_basis])
    zm = np.stack([b.amplitudes for b in z_basis])
    for mat in (xm, zm):
        if mat.shape != (dim, dim) or not is_unitary(mat):
            raise QcoreError("basis is not orthonormal")
    c = float(np.max(np.abs(xm.conj() @ zm.T) ** 2))
    return 0.0 - math.log2(c)  # +0.0, not -0.0, at c = 1
