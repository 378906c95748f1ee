"""Shannon and von Neumann entropy families, typical-set coding, uncertainty bound.

All entropies are in bits (log base 2).  The ``0 * log 0 = 0`` convention is
applied by clamping probabilities/eigenvalues below ``TOL_ALG`` to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .qcore import (
    TOL_ALG,
    DensityOperator,
    QcoreError,
    RandomSource,
    StateVector,
    partial_trace,
)

MAX_CODEC_BLOCK = 24


class InfoTheoryError(ValueError):
    """Raised on invalid distributions or codec misuse."""


# ---------------------------------------------------------------------------
# Classical entropies
# ---------------------------------------------------------------------------


def _validate_dist(p) -> np.ndarray:
    arr = np.asarray(p, dtype=float).reshape(-1)
    if arr.size == 0 or np.any(arr < -TOL_ALG):
        raise InfoTheoryError("probabilities must be nonnegative")
    total = arr.sum()
    if abs(total - 1.0) > 1e-6:
        raise InfoTheoryError(f"probabilities must sum to 1 (got {total!r})")
    return np.clip(arr, 0.0, None) / arr.sum()


def shannon_entropy(p: Sequence[float]) -> float:
    """H(X) = -sum p log2 p in bits."""
    arr = _validate_dist(p)
    nz = arr[arr > TOL_ALG]
    return float(-np.sum(nz * np.log2(nz)))


def derived_entropies(joint) -> dict:
    """Joint, conditional H(X|Y), mutual, and relative-to-product entropies.

    ``joint`` is a 2-D table p(x, y).
    """
    table = np.asarray(joint, dtype=float)
    if table.ndim != 2:
        raise InfoTheoryError("joint distribution must be a 2-D table")
    flat = _validate_dist(table.reshape(-1))
    table = flat.reshape(table.shape)
    px = table.sum(axis=1)
    py = table.sum(axis=0)
    h_joint = shannon_entropy(flat)
    h_x = shannon_entropy(px)
    h_y = shannon_entropy(py)
    return {
        "joint": h_joint,
        "conditional": h_joint - h_y,  # H(X|Y)
        "mutual": h_x + h_y - h_joint,
        "relative_to_product": relative_entropy(flat, np.outer(px, py).reshape(-1)),
    }


def relative_entropy(p, q) -> float:
    """H(p||q) in bits; infinite if supp(p) is not inside supp(q)."""
    p = _validate_dist(p)
    q = _validate_dist(q)
    if p.shape != q.shape:
        raise InfoTheoryError("distributions must have equal length")
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
    if len(seq) == 0:
        raise InfoTheoryError("empty sequence")
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
    total = 0
    for counts in _compositions(n, len(p)):
        prob_log = _class_log2_prob(counts, p)
        if prob_log is None:
            continue
        if abs(-prob_log / n - h) <= epsilon + 1e-12:
            total += _multinomial(n, counts)
    return total


def _compositions(n: int, k: int):
    """All tuples of k nonnegative integers summing to n."""
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def _class_log2_prob(counts: Sequence[int], p: np.ndarray) -> float | None:
    """log2 probability of any single sequence in a count class; None if zero."""
    total = 0.0
    for c, pi in zip(counts, p):
        if c == 0:
            continue
        if pi <= TOL_ALG:
            return None
        total += c * math.log2(pi)
    return total


@lru_cache(maxsize=None)
def _multinomial(n: int, counts: tuple) -> int:
    out = math.factorial(n)
    for c in counts:
        out //= math.factorial(c)
    return out


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

    Codewords serialize as fixed-width little-endian bit strings: bit ``i`` of
    the integer index is character ``i`` of the string.
    """

    n: int
    epsilon: float
    source: Sequence[float]
    width: int = field(init=False)
    _classes: list = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 1 or self.n > MAX_CODEC_BLOCK:
            raise InfoTheoryError(f"block length must be in [1, {MAX_CODEC_BLOCK}]")
        p = _validate_dist(self.source)
        self.source = tuple(float(x) for x in p)
        k = len(p)
        h = shannon_entropy(p)
        self.width = max(0, math.ceil(self.n * (h + self.epsilon) - 1e-12))
        max_width = math.ceil(self.n * math.log2(k))
        self.width = min(self.width, max_width)
        capacity = 1 << self.width

        # Order count classes by ascending surprisal (descending probability).
        ranked = []
        for counts in _compositions(self.n, k):
            logp = _class_log2_prob(counts, p)
            if logp is None:
                continue
            ranked.append((-logp, counts, _multinomial(self.n, counts)))
        ranked.sort(key=lambda item: (item[0], item[1]))

        # Fill the codebook: (counts, offset, included_count).
        self._classes = []
        used = 0
        for _, counts, size in ranked:
            if used >= capacity:
                break
            take = min(size, capacity - used)
            self._classes.append((counts, used, take))
            used += take

    @property
    def rate_bits_per_symbol(self) -> float:
        return self.width / self.n

    # -- ranking of multiset permutations (lexicographic) --

    def _rank_in_class(self, seq: Sequence[int], counts: Sequence[int]) -> int:
        remaining = list(counts)
        left = self.n
        rank = 0
        for s in seq:
            s = int(s)
            for smaller in range(s):
                if remaining[smaller] > 0:
                    remaining[smaller] -= 1
                    rank += _multinomial(left - 1, tuple(remaining))
                    remaining[smaller] += 1
            remaining[s] -= 1
            left -= 1
        return rank

    def _unrank_in_class(self, rank: int, counts: Sequence[int]) -> tuple:
        remaining = list(counts)
        left = self.n
        out = []
        for _ in range(self.n):
            for symbol in range(len(remaining)):
                if remaining[symbol] == 0:
                    continue
                remaining[symbol] -= 1
                block = _multinomial(left - 1, tuple(remaining))
                if rank < block:
                    out.append(symbol)
                    left -= 1
                    break
                remaining[symbol] += 1
                rank -= block
            else:  # pragma: no cover - defensive
                raise InfoTheoryError("unrank ran out of symbols")
        return tuple(out)

    def encode(self, seq: Sequence[int]) -> int:
        """Codeword index of a sequence; raises CodecFailure if not in the book."""
        if len(seq) != self.n:
            raise InfoTheoryError("sequence length mismatch")
        counts = [0] * len(self.source)
        for s in seq:
            counts[int(s)] += 1
        counts = tuple(counts)
        for cls_counts, offset, take in self._classes:
            if cls_counts == counts:
                rank = self._rank_in_class(seq, counts)
                if rank >= take:
                    raise CodecFailure("sequence outside codebook")
                return offset + rank
        raise CodecFailure("sequence outside codebook")

    def decode(self, index: int) -> tuple:
        for counts, offset, take in self._classes:
            if offset <= index < offset + take:
                return self._unrank_in_class(index - offset, counts)
        raise InfoTheoryError("codeword index out of range")

    def codeword_bits(self, index: int) -> str:
        """Fixed-width little-endian bit string for a codeword index."""
        return "".join(str((index >> i) & 1) for i in range(self.width))

    def index_from_bits(self, bits: str) -> int:
        if len(bits) != self.width:
            raise InfoTheoryError("codeword width mismatch")
        return sum((1 << i) for i, b in enumerate(bits) if b == "1")


class CodecFailure(InfoTheoryError):
    """The codec declares an error: the input sequence is not in the codebook."""


def typical_codec_roundtrip(codec: TypicalCodec, trials: int, rng: RandomSource) -> dict:
    """Monte Carlo success rate of encode-then-decode over iid source draws."""
    if trials < 1:
        raise InfoTheoryError("trials must be positive")
    p = np.asarray(codec.source)
    draws = rng.generator.choice(len(p), size=(trials, codec.n), p=p)
    # Each distinct sequence is encoded and decoded once, weighted by how
    # often it was drawn; the rows are narrowed first so that finding them
    # adds little to the memory of the draws.
    rows, counts = np.unique(
        draws.astype(np.min_scalar_type(len(p) - 1)), axis=0, return_counts=True
    )
    successes = 0
    for row, count in zip(rows.tolist(), counts.tolist()):
        seq = tuple(row)
        try:
            idx = codec.encode(seq)
        except CodecFailure:
            continue
        if codec.decode(idx) == seq:
            successes += count
    return {
        "success_rate": successes / trials,
        "rate_bits_per_symbol": codec.rate_bits_per_symbol,
    }


# ---------------------------------------------------------------------------
# Quantum entropies
# ---------------------------------------------------------------------------


def von_neumann_entropy(rho: DensityOperator) -> float:
    """S(rho) in bits: Shannon entropy of the eigenvalue spectrum."""
    eigs = np.clip(rho.eigenvalues(), 0.0, None)
    eigs = eigs / eigs.sum()
    nz = eigs[eigs > TOL_ALG]
    return float(-np.sum(nz * np.log2(nz)))


def quantum_conditional_entropy(rho_ab: DensityOperator, dims: Sequence[int]) -> float:
    """S(A|B) = S(A,B) - S(B); negative values witness entanglement."""
    if len(dims) != 2 or dims[0] * dims[1] != rho_ab.dim:
        raise InfoTheoryError("dims must be a bipartition of the operator")
    rho_b = partial_trace(rho_ab, dims, keep=[1])
    return von_neumann_entropy(rho_ab) - von_neumann_entropy(rho_b)


def quantum_mutual_information(rho_ab: DensityOperator, dims: Sequence[int]) -> float:
    rho_a = partial_trace(rho_ab, dims, keep=[0])
    rho_b = partial_trace(rho_ab, dims, keep=[1])
    return (
        von_neumann_entropy(rho_a)
        + von_neumann_entropy(rho_b)
        - von_neumann_entropy(rho_ab)
    )


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
        gram = mat.conj() @ mat.T
        if mat.shape != (dim, dim) or np.max(np.abs(gram - np.eye(dim))) > 1e-8:
            raise QcoreError("basis is not orthonormal")
    c = float(np.max(np.abs(xm.conj() @ zm.T) ** 2))
    return float(-math.log2(c))
