"""Dense complex linear algebra core: states, gates, measurement, density
operators, and a sparse ket for states with few branches.

Conventions used throughout the package:

* Qubit ordering is big-endian: the leftmost ket factor is qubit 0, and a
  computational basis index decomposes as ``b = sum(bit_i * 2**(n-1-i))``.
* Tolerances: ``TOL_ALG`` for algebraic identities, ``TOL_NORM`` for
  normalization checks.  The operator predicates (:func:`is_unitary`,
  :func:`is_hermitian`, :func:`is_dichotomic`) and the density-operator
  checks hold to 1e-8; every other module states these rules through them.
* States and operators are immutable values; every operation returns a new
  object.  The only mutable object is :class:`RandomSource`, which owns a
  seeded pseudo-random stream.
* Buffer ownership: no public function writes into an array its caller
  passed in, and every ``StateVector.amplitudes`` is read-only.  A kernel
  that has just allocated a 2^n result hands it to ``StateVector._adopt``,
  which renormalizes it in place; the public constructor renormalizes into
  a new array instead.  Each 2^n step thus allocates one new 2^n result;
  its squared norm takes a temporary copy of the nonzero amplitudes.
* Density operators are checked once, at the boundary: the public
  ``DensityOperator`` constructor checks its matrix, with an O(d^3)
  ``eigvalsh``.  A result valid by construction (a ket's outer product, a
  partial trace, a conjugation, a pinching) goes through
  ``DensityOperator._adopt``, which freezes its new array unchecked.
* The squared norm of a ket, dense or sparse, is the ``np.vdot`` of its
  nonzero entries in index order (``_norm_sq``); so is each Born weight
  that :func:`collapse` draws from.
* The private ``_SparseKet`` holds a state as sorted basis indices and
  their amplitudes, both read-only; the temporal chain keeps its register in
  it.  Only its ``amplitudes`` property builds the dense 2^n vector, as a
  new read-only array on every request.  It passes the same entries as the
  dense state to ``_norm_sq``, so the two agree to the last bit wherever
  each output amplitude has one nonzero term, as on the chain's path; a
  one-target operator mixing two nonzero terms may round differently.
* Two state vectors are considered equal when they agree up to a global
  phase (see :meth:`StateVector.equals_up_to_phase`); exact amplitude
  comparison is available separately via :meth:`StateVector.allclose`.
"""

from __future__ import annotations

import math
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

TOL_ALG = 1e-9
TOL_NORM = 1e-9
MAX_QUBITS = 20
# Protocol defaults and limits that the CLI reads when it builds its options,
# kept here so that ``chronoq --help`` loads no protocol module.  They keep
# their names in ``consensus`` and ``infotheory``.
DEFAULT_ROUNDS = 100
DEFAULT_THRESHOLD = 0.99
MAX_CODEC_BLOCK = 24

# The package's one 1/sqrt(2), imported by chain, consensus and games.  It is
# one ulp below the correctly rounded math.sqrt(0.5); pinned outputs use it.
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
# Counting costs one pass over the doubles per CDF entry, searchsorted a
# mispredicted branch per probe.  On a 2-CPU x86 host, counting over 16
# entries took 0.13x searchsorted's time on 10^5 fresh doubles and 0.5x on
# 2000; over 32 entries it was slower on 2000.
_COUNTED_CDF = 16


class QcoreError(ValueError):
    """Raised on contract violations in the simulation core."""


# ---------------------------------------------------------------------------
# Randomness
# ---------------------------------------------------------------------------


class RandomSource:
    """Seeded pseudo-random stream.

    Identical ``(seed, stream)`` pairs always produce identical draw
    sequences.  The generator is built on the first draw, so a source that
    never draws never imports ``numpy.random``.
    """

    def __init__(self, seed: int = 42, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)

    @cached_property
    def generator(self) -> np.random.Generator:
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed & (2**64 - 1), self.stream]))
        )

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self.generator.uniform(low, high, size)

    def integers(self, low, high=None, size=None):
        return self.generator.integers(low, high, size=size)

    def choice_index(self, weights: Sequence[float], u=None):
        """The index ``Generator.choice(len(weights), p=...)`` picks, by its
        rule stated once: normalize the clipped weights, divide their cumsum by
        its last entry, ``searchsorted(..., side="right")`` at one ``random()``.

        Given ``u``, doubles already drawn, picks one index per double and
        draws nothing: an int for a single double, else an array shaped like
        ``u`` in the narrowest unsigned dtype that holds every index.  Over a
        CDF of at most ``_COUNTED_CDF`` entries the index is the count of the
        entries below the last that are <= u, which is the searchsorted index
        since the last entry is 1 > u, with no branch on u."""
        p = np.clip(np.asarray(weights, dtype=float), 0.0, None)
        total = p.sum()
        if not 0.0 < total < math.inf:  # nan fails too
            raise QcoreError("weights must be finite, not all zero")
        cdf = np.cumsum(p / total)
        cdf /= cdf[-1]
        if u is None:
            u = self.generator.random()
        u = np.asarray(u)
        if u.ndim == 0:
            return int(cdf.searchsorted(u, side="right"))
        dtype = np.min_scalar_type(len(cdf) - 1)
        if len(cdf) > _COUNTED_CDF:
            return cdf.searchsorted(u, side="right").astype(dtype)
        index = np.zeros(u.shape, dtype)
        for threshold in cdf[:-1].tolist():
            index += u >= threshold
        return index


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


class StateVector:
    """A normalized complex amplitude vector."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes, *, normalize: bool = False):
        vec = np.ascontiguousarray(amplitudes, dtype=np.complex128)
        # A fresh view, so that freezing it below leaves the caller's flags alone.
        self._own(vec.reshape(-1), normalize, in_place=False)

    @classmethod
    def _adopt(
        cls, buffer: np.ndarray, *, normalize: bool = False, norm_sq: float | None = None
    ) -> "StateVector":
        """A state over ``buffer``, a 1-D complex128 array the caller has just
        allocated and hands over: renormalization writes into it.  A caller
        that has already computed ``_norm_sq(buffer)`` passes it as
        ``norm_sq``, and it is not computed again."""
        state = cls.__new__(cls)
        state._own(buffer, normalize, in_place=True, norm_sq=norm_sq)
        return state

    def _own(
        self, vec: np.ndarray, normalize: bool, in_place: bool, norm_sq: float | None = None
    ):
        if vec.shape[0] > (1 << MAX_QUBITS):
            raise QcoreError(f"register exceeds the {MAX_QUBITS}-qubit cap")
        # The squared norm is finite iff every amplitude is (and their
        # squares do not overflow).
        if norm_sq is None:
            norm_sq = _norm_sq(vec)
        scale = _rescale_factor(norm_sq, normalize)
        if scale is not None:
            if in_place:
                vec *= scale
            else:
                vec = vec * scale
        vec.setflags(write=False)
        self.amplitudes = vec

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def num_qubits(self) -> int:
        n = self.dim.bit_length() - 1
        if 1 << n != self.dim:
            raise QcoreError("dimension is not a power of two")
        return n

    # -- constructors --

    @classmethod
    def basis(cls, dim: int, index: int) -> "StateVector":
        vec = np.zeros(dim, dtype=np.complex128)
        vec[index] = 1.0
        return cls(vec)

    # -- algebra --

    def tensor(self, other: "StateVector") -> "StateVector":
        """The product state, this register's qubits first."""
        if self.dim * other.dim > (1 << MAX_QUBITS):
            raise QcoreError(f"register would exceed {MAX_QUBITS} qubits")
        return StateVector._adopt(np.outer(self.amplitudes, other.amplitudes).reshape(-1))

    def to_density(self) -> "DensityOperator":
        return DensityOperator._adopt(_normalized(np.outer(self.amplitudes, self.amplitudes.conj())))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def apply(self, op: np.ndarray, targets: Sequence[int] | None = None) -> "StateVector":
        """Apply a unitary to the whole register or to the given qubits."""
        mat = np.asarray(op, dtype=np.complex128)
        if targets is None:
            if mat.shape != (self.dim, self.dim):
                raise QcoreError("operator dimension mismatch")
            return StateVector._adopt(mat @ self.amplitudes, normalize=True)
        return StateVector._adopt(
            _apply_to_targets(self.amplitudes, self.num_qubits, mat, list(targets)),
            normalize=True,
        )

    def project_equal_bits(self, q1: int, q2: int) -> tuple[float, Callable[[], "StateVector"]]:
        """F = |00><00| + |11><11| on qubits (q1, q2): p = <psi|F|psi> and a
        callable that builds F|psi>/sqrt(p), so that a failed post-selection
        builds no state."""
        _check_qubits(self.num_qubits, [q1, q2])
        projected = self.amplitudes.copy()
        _project_equal_bits(projected, self.num_qubits, q1, q2)
        p = _norm_sq(projected)
        return p, partial(StateVector._adopt, projected, normalize=True, norm_sq=p)

    def equals_up_to_phase(self, other: "StateVector") -> bool:
        """Global-phase-insensitive equality predicate: |<self|other>| = 1 to 1e-8."""
        if self.dim != other.dim:
            return False
        overlap = abs(np.vdot(self.amplitudes, other.amplitudes))
        return bool(abs(overlap - 1.0) <= 1e-8)

    def allclose(self, other: "StateVector") -> bool:
        """Exact-amplitude comparison (phase-sensitive), to ``TOL_ALG``."""
        return self.dim == other.dim and bool(
            np.max(np.abs(self.amplitudes - other.amplitudes)) <= TOL_ALG
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StateVector(dim={self.dim})"


def _norm_sq(amplitudes: np.ndarray) -> float:
    """The squared norm of a ket's amplitudes: ``np.vdot`` of the nonzero
    ones, in index order.  A sparse ket and its dense vector pass the same
    array here, so they agree to the last bit under any BLAS."""
    nonzero = amplitudes[amplitudes != 0]
    return float(np.vdot(nonzero, nonzero).real)


def _rescale_factor(norm_sq: float, normalize: bool) -> float | None:
    """The factor 1/norm by which a state of squared norm ``norm_sq`` is
    rescaled, or None if it is kept as it is.

    ``normalize`` rescales every norm but 1.0.  Without it a drift of the
    norm above ``TOL_NORM`` is corrected silently and one above 1e-6 raises.
    """
    if not math.isfinite(norm_sq):
        raise QcoreError(f"amplitudes and their squared norm must be finite (got {norm_sq!r})")
    norm = math.sqrt(norm_sq)
    if normalize:
        if norm <= TOL_ALG:
            raise QcoreError("cannot normalize a (near-)zero vector")
        return 1.0 / norm if norm != 1.0 else None
    if abs(norm - 1.0) > 1e-6:
        raise QcoreError(f"state vector not normalized (norm={norm!r})")
    return 1.0 / norm if abs(norm - 1.0) > TOL_NORM else None


def _check_qubits(n: int, qubits: list[int]):
    if any(q < 0 or q >= n for q in qubits) or len(set(qubits)) != len(qubits):
        raise QcoreError("invalid target qubits")


def _check_targets(mat: np.ndarray, n: int, targets: list[int]) -> int:
    """k, once ``mat`` is 2^k x 2^k and ``targets`` are k distinct qubits of n."""
    k = len(targets)
    if np.shape(mat) != (1 << k, 1 << k):
        raise QcoreError("operator shape does not match target count")
    _check_qubits(n, targets)
    return k


def _project_equal_bits(buffer: np.ndarray, n_qubits: int, q1: int, q2: int) -> None:
    """Apply the diagonal F = |00><00| + |11><11| on qubits (q1, q2) in place:
    zero the entries of a contiguous 2^n buffer where the two bits differ."""
    a, b = sorted((q1, q2))
    blocks = buffer.reshape(1 << a, 2, 1 << (b - a - 1), 2, 1 << (n_qubits - b - 1))
    blocks[:, 0, :, 1] = 0
    blocks[:, 1, :, 0] = 0


def _apply_to_targets(vec: np.ndarray, n: int, mat: np.ndarray, targets: list[int]) -> np.ndarray:
    """``mat`` on the target qubits of a 2^n vector, as a new 1-D array.

    One target q needs no transpose: the vector is a ``(2^q, 2, R)`` block
    array with R = 2^(n-q-1).  For R <= 32 it is one GEMM against
    kron(mat, I_R); above, mat is broadcast over the 2^q blocks.
    """
    k = _check_targets(mat, n, targets)
    if k == 1:
        r = 1 << (n - targets[0] - 1)
        if r <= 32:
            return (vec.reshape(-1, 2 * r) @ np.kron(mat, np.eye(r)).T).reshape(-1)
        return np.matmul(mat, vec.reshape(-1, 2, r)).reshape(-1)
    psi = vec.reshape([2] * n)
    rest = [i for i in range(n) if i not in targets]
    psi = np.transpose(psi, targets + rest)
    psi = psi.reshape(1 << k, -1)
    psi = mat @ psi
    psi = psi.reshape([2] * n)
    inverse = np.argsort(targets + rest)
    return np.transpose(psi, inverse).reshape(-1)


class _SparseKet:
    """A normalized ket stored as its nonzero entries: sorted basis indices
    and their complex128 amplitudes, for states with few branches.

    It offers the register operations a temporal chain needs: ``tensor``
    with a dense state, ``apply`` of a 2x2 operator on one target,
    ``project_equal_bits`` and ``fuse_pair``, the three steps of a chain
    append fused into one, plus ``amplitudes``, the dense 2^n vector built
    on request.  It renormalizes when :class:`StateVector` does, from the
    same squared norm, so the two forms agree as the module docstring says.
    """

    __slots__ = ("num_qubits", "indices", "values")

    def __init__(
        self, num_qubits: int, indices, values, *, normalize: bool = False,
        norm_sq: float | None = None,
    ):
        """``indices`` ascending.  A caller that has already computed the
        squared norm of the nonzero entries passes it as ``norm_sq``."""
        if num_qubits > MAX_QUBITS:
            raise QcoreError(f"register exceeds the {MAX_QUBITS}-qubit cap")
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.complex128)
        nonzero = values != 0
        indices, values = indices[nonzero], values[nonzero]
        if norm_sq is None:
            norm_sq = _norm_sq(values)
        scale = _rescale_factor(norm_sq, normalize)
        if scale is not None:
            values = values * scale
        indices.setflags(write=False)
        values.setflags(write=False)
        self.num_qubits, self.indices, self.values = num_qubits, indices, values

    @classmethod
    def from_state(cls, state: StateVector) -> "_SparseKet":
        """The nonzero entries of a dense state, as they are: its norm has
        passed the same rule, so they are not rescaled."""
        indices = np.flatnonzero(state.amplitudes)
        return cls(state.num_qubits, indices, state.amplitudes[indices])

    @property
    def amplitudes(self) -> np.ndarray:
        """The dense 2^n vector, a new read-only array on every request."""
        vec = np.zeros(1 << self.num_qubits, dtype=np.complex128)
        vec[self.indices] = self.values
        vec.setflags(write=False)
        return vec

    def entry(self, index: int) -> np.complex128:
        """The amplitude of basis state ``index``."""
        k = int(np.searchsorted(self.indices, index))
        if k < self.indices.size and self.indices[k] == index:
            return self.values[k]
        return np.complex128(0)

    def tensor(self, other: StateVector) -> "_SparseKet":
        m = other.num_qubits
        if self.num_qubits + m > MAX_QUBITS:
            raise QcoreError(f"register would exceed {MAX_QUBITS} qubits")
        right = np.flatnonzero(other.amplitudes)
        indices = (self.indices[:, None] << m) | right
        values = self.values[:, None] * other.amplitudes[right]
        return _SparseKet(self.num_qubits + m, indices.reshape(-1), values.reshape(-1))

    def apply(self, op: np.ndarray, targets: Sequence[int]) -> "_SparseKet":
        """A 2x2 operator on one target qubit."""
        mat = np.asarray(op, dtype=np.complex128)
        targets = list(targets)
        if _check_targets(mat, self.num_qubits, targets) != 1:
            raise QcoreError("a sparse ket takes a 2x2 operator on one target")
        shift = self.num_qubits - 1 - targets[0]
        bit = 1 << shift
        # Row k holds the target's |0> and |1> amplitudes beside the other
        # qubits' basis state base[k], the bases ascending; each row goes
        # through mat as in the dense kernel.  The entries are few, so their
        # indices are handled as Python ints.
        entries = self.indices.tolist()
        base = sorted({i & ~bit for i in entries})
        row = {b: k for k, b in enumerate(base)}
        pairs = np.zeros((len(base), 2), dtype=np.complex128)
        pairs[[row[i & ~bit] for i in entries], [(i >> shift) & 1 for i in entries]] = self.values
        values = (pairs @ mat.T).reshape(-1)
        # Output 2k + c is basis state base[k] | c * bit.
        indices = [b | c for b in base for c in (0, bit)]
        order = sorted(range(len(indices)), key=indices.__getitem__)
        return _SparseKet(
            self.num_qubits, [indices[j] for j in order], values[order], normalize=True
        )

    def project_equal_bits(self, q1: int, q2: int) -> tuple[float, Callable[[], "_SparseKet"]]:
        """:meth:`StateVector.project_equal_bits` on the stored entries."""
        n = self.num_qubits
        _check_qubits(n, [q1, q2])
        equal = ((self.indices >> (n - 1 - q1)) ^ (self.indices >> (n - 1 - q2))) & 1 == 0
        indices, values = self.indices[equal], self.values[equal]
        p = _norm_sq(values)
        return p, partial(_SparseKet, n, indices, values, normalize=True, norm_sq=p)

    def fuse_pair(
        self, q: int, pair: StateVector, flip: bool
    ) -> tuple[float, Callable[[], "_SparseKet"]]:
        """``self.tensor(pair).project_equal_bits(q, m)`` for a Bell state
        ``pair``, m being its first qubit (``self.num_qubits``), and with
        ``flip`` that qubit then flipped as ``apply(PAULI_X, [m])`` flips it,
        without building either intermediate ket.

        A Bell state has one entry j for each value of its first bit, so each
        entry i keeps the one whose first bit equals its bit q: entry
        ``(i << 2) | j``, its amplitude the complex128 product that
        :meth:`tensor` forms.  ``self`` is normalized, so its product with the
        pair is within ``TOL_NORM`` of norm 1, which :meth:`tensor` keeps
        unscaled.  Returns ``(p, build)`` as :meth:`project_equal_bits` does.
        """
        _check_qubits(self.num_qubits, [q])
        j = np.flatnonzero(pair.amplitudes)[(self.indices >> (self.num_qubits - 1 - q)) & 1]
        indices, values = (self.indices << 2) | j, self.values * pair.amplitudes[j]
        n = self.num_qubits + 2
        p = _norm_sq(values)

        def build() -> "_SparseKet":
            if not flip:
                return _SparseKet(n, indices, values, normalize=True, norm_sq=p)
            # X on qubit n - 2 flips bit 2 of each index, after the fusion's
            # rescale and before apply's own renormalization.  Each output of
            # apply's product sums an exact +0 with the entry, which turns a
            # -0 part into +0, as adding 0 does.
            scale = _rescale_factor(p, True)
            scaled = values if scale is None else values * scale
            flipped = indices ^ 2
            order = np.argsort(flipped)
            return _SparseKet(n, flipped[order], scaled[order] + 0.0, normalize=True)

        return p, build


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def is_unitary(m: np.ndarray) -> bool:
    """Rows orthonormal to 1e-8: one square matrix, or every one of a stack
    ``(..., d, d)``."""
    m = np.asarray(m, dtype=np.complex128)
    return (
        m.ndim >= 2
        and m.shape[-1] == m.shape[-2]
        and bool(np.max(np.abs(m.conj() @ m.swapaxes(-1, -2) - np.eye(m.shape[-1]))) <= 1e-8)
    )


def is_hermitian(m: np.ndarray) -> bool:
    """M = M^dagger to 1e-8."""
    m = np.asarray(m, dtype=np.complex128)
    return (
        m.ndim >= 2
        and m.shape[-1] == m.shape[-2]
        and bool(np.max(np.abs(m - m.conj().swapaxes(-1, -2))) <= 1e-8)
    )


def is_dichotomic(m: np.ndarray) -> bool:
    """A +-1-valued observable: Hermitian and squaring to I, both to 1e-8."""
    m = np.asarray(m, dtype=np.complex128)
    return is_hermitian(m) and bool(np.max(np.abs(m @ m - np.eye(m.shape[-1]))) <= 1e-8)


I2 = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
HADAMARD = _INV_SQRT2 * np.array([[1, 1], [1, -1]], dtype=np.complex128)
S_GATE = np.array([[1, 0], [0, 1j]], dtype=np.complex128)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)


def rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    """``cos(angle/2) I - i sin(angle/2) sigma`` for a Pauli axis."""
    return math.cos(angle / 2) * I2 - 1j * math.sin(angle / 2) * np.asarray(axis)


# ---------------------------------------------------------------------------
# Standard states
# ---------------------------------------------------------------------------


def branch_pair(bits: Sequence[int], sign: int = 1) -> StateVector:
    """(|b> + sign |b-bar>)/sqrt(2) for the bit string b (leftmost bit = qubit 0)
    and its bitwise complement b-bar; sign is +1 or -1."""
    n = len(bits)
    idx = _branch_index(bits)
    amp = np.zeros(1 << n, dtype=np.complex128)
    amp[idx] = _INV_SQRT2
    amp[(1 << n) - 1 - idx] = sign * _INV_SQRT2
    return StateVector(amp)


def _branch_index(bits: Sequence[int]) -> int:
    """Basis index of the bit string b (leftmost bit = qubit 0)."""
    idx = 0
    for b in bits:
        idx = (idx << 1) | b
    return idx


_BELL_ALIASES = {
    "phi+": "phi+", "Φ+": "phi+", "phi_plus": "phi+", "00": "phi+",
    "phi-": "phi-", "Φ-": "phi-", "phi_minus": "phi-", "10": "phi-",
    "psi+": "psi+", "Ψ+": "psi+", "psi_plus": "psi+", "01": "psi+",
    "psi-": "psi-", "Ψ-": "psi-", "psi_minus": "psi-", "11": "psi-",
}

BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")


# phi = (|00> +- |11>)/sqrt(2), psi = (|01> +- |10>)/sqrt(2).
_BELL_STATES = {
    key: branch_pair([0, int(key.startswith("psi"))], 1 if key.endswith("+") else -1)
    for key in BELL_LABELS
}


def bell_state(label: str) -> StateVector:
    """One of the four Bell states phi+/phi-/psi+/psi-, built once: a state
    is immutable, so every call with the same label returns the same one."""
    key = _BELL_ALIASES.get(label)
    if key is None:
        raise QcoreError(f"unknown Bell label {label!r}")
    return _BELL_STATES[key]


def ghz_state(n: int) -> StateVector:
    """(|0...0> + |1...1>)/sqrt(2) on n qubits."""
    if n < 2:
        raise QcoreError("GHZ state needs at least 2 qubits")
    if n > MAX_QUBITS:
        raise QcoreError(f"register would exceed {MAX_QUBITS} qubits")
    return branch_pair([0] * n)


def computational_basis(dim: int) -> list[StateVector]:
    return [StateVector.basis(dim, i) for i in range(dim)]


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def born_distribution(state: StateVector, basis: Sequence[StateVector]) -> np.ndarray:
    """Born-rule probabilities ``p(m) = |<m|psi>|^2`` over an orthonormal basis."""
    mat = np.stack([b.amplitudes for b in basis])  # rows are basis vectors
    if mat.shape != (state.dim, state.dim):
        raise QcoreError("basis must be complete")
    if not is_unitary(mat):
        raise QcoreError("basis is not orthonormal")
    amps = mat.conj() @ state.amplitudes
    probs = np.abs(amps) ** 2
    total = probs.sum()
    if abs(total - 1.0) > 1e-6:
        raise QcoreError("probabilities do not sum to 1")
    return probs / total


def collapse(
    state: StateVector, targets: Sequence[int], bras: np.ndarray, rng: RandomSource, forced=None
) -> tuple[int, float, np.ndarray]:
    """Projective measurement of the ``targets`` qubits of a register.

    Row k of ``bras`` is the k-th outcome's bra on ``targets`` (first target
    most significant).  The outcome is drawn by the Born rule, or is row
    ``forced``.  Returns ``(row, probability, branch)``, ``branch`` being the
    unnormalized amplitudes of the other qubits in register order, a new
    array, and ``probability`` its ``_norm_sq``.
    """
    n, targets = state.num_qubits, list(targets)
    _check_targets(bras, n, targets)
    rest = [i for i in range(n) if i not in targets]
    psi = np.transpose(state.amplitudes.reshape([2] * n), targets + rest)
    psi = psi.reshape(len(bras), -1)
    branches = [bra @ psi for bra in bras]
    probs = [_norm_sq(branch) for branch in branches]
    if forced is None:
        row = rng.choice_index(probs)
    elif probs[forced] <= 1e-12:
        raise QcoreError("forced outcome has zero probability")
    else:
        row = int(forced)
    return row, probs[row], branches[row]


def measure_qubit(
    state: StateVector,
    qubit: int,
    rng: RandomSource,
    basis_1q: np.ndarray | None = None,
    *,
    forced_outcome: int | None = None,
) -> tuple[int, float, StateVector]:
    """Measure one qubit of a register.

    ``basis_1q`` is a 2x2 matrix whose *rows* are the measurement bras;
    default is the computational (Z) basis.  Returns
    ``(outcome, probability, post_state)`` with the full register kept.
    Pass ``forced_outcome`` to post-select a branch instead of sampling.
    """
    if forced_outcome not in (None, 0, 1):
        raise QcoreError(f"forced_outcome must be 0 or 1, got {forced_outcome!r}")
    bras = I2 if basis_1q is None else np.asarray(basis_1q, dtype=np.complex128)
    if not is_unitary(bras):
        raise QcoreError("measurement basis is not orthonormal")
    outcome, prob, branch = collapse(state, [qubit], bras, rng, forced_outcome)
    post = branch.reshape(1 << qubit, 1, -1) * bras[outcome].conj()[:, None]
    return outcome, prob, StateVector._adopt(post.reshape(-1), normalize=True)


def product_probabilities(state: StateVector, bases: Sequence[np.ndarray]) -> np.ndarray:
    """Born distribution over the joint outcomes of one 2x2 basis per qubit:
    the rows of ``bases[j]`` are qubit j's bras, and bit j of an outcome index
    (big-endian) is qubit j's row.

    Each basis is applied to the leading qubit, which then moves to the
    back; after n steps the qubit order is restored.  No 2^n x 2^n operator
    is built.
    """
    if len(bases) != state.num_qubits:
        raise QcoreError("need one basis per qubit")
    amps = state.amplitudes.reshape(2, -1)
    for basis in bases:
        amps = (basis @ amps).T.reshape(2, -1)
    return np.abs(amps.reshape(-1)) ** 2


# ---------------------------------------------------------------------------
# Density operators
# ---------------------------------------------------------------------------


def _normalized(mats: np.ndarray) -> np.ndarray:
    """(M + M^dagger) / 2 divided by tr M, for a matrix or each of a stack
    ``(..., d, d)``: how a density matrix is stored, without the rounding of
    one Hermitian by construction (``np.outer(a, a.conj())`` is 1e-17 off)."""
    mats = np.asarray(mats, dtype=np.complex128)
    tr = mats.trace(axis1=-2, axis2=-1).real
    return (mats + mats.conj().swapaxes(-1, -2)) / 2.0 / tr[..., None, None]


class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite matrix, checked to 1e-8."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        mat = np.asarray(matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise QcoreError("density operator must be square")
        if not np.max(np.abs(mat - mat.conj().T)) <= 1e-8:  # nan fails too
            raise QcoreError("density operator must be Hermitian")
        tr = float(mat.trace().real)
        if abs(tr - 1.0) > 1e-8:
            raise QcoreError(f"density operator must have unit trace (got {tr!r})")
        mat = _normalized(mat)
        if np.linalg.eigvalsh(mat).min() < -1e-8:
            raise QcoreError("density operator must be positive semidefinite")
        mat.setflags(write=False)
        self.matrix = mat

    @classmethod
    def _adopt(cls, matrix: np.ndarray) -> "DensityOperator":
        """A density operator over ``matrix``, a new square complex128 array
        valid by construction: frozen and kept as it is, unchecked."""
        rho = cls.__new__(cls)
        matrix.setflags(write=False)
        rho.matrix = matrix
        return rho

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        if dim < 1:
            raise QcoreError(f"dimension must be at least 1 (got {dim!r})")
        return cls._adopt(_normalized(np.eye(dim) / dim))

    def apply(self, op: np.ndarray, targets: Sequence[int] | None = None) -> "DensityOperator":
        """U rho U^dagger for a unitary on the whole register or on the given
        qubits: U on their ket axes, then U conjugated on their bra axes."""
        mat = np.asarray(op, dtype=np.complex128)
        if not is_unitary(mat):
            raise QcoreError("operator is not unitary")
        if targets is None:
            if mat.shape != (self.dim, self.dim):
                raise QcoreError("operator dimension mismatch")
            return DensityOperator._adopt(mat @ self.matrix @ mat.conj().T)
        n, targets = self.dim.bit_length() - 1, list(targets)
        if 1 << n != self.dim or any(t < 0 or t >= n for t in targets):
            raise QcoreError("targets must be qubits of a register of dimension 2^n")
        flat = _apply_to_targets(self.matrix.reshape(-1), 2 * n, mat, targets)
        flat = _apply_to_targets(flat, 2 * n, mat.conj(), [n + t for t in targets])
        return DensityOperator._adopt(flat.reshape(self.dim, self.dim))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DensityOperator(dim={self.dim})"


def partial_trace(
    rho: DensityOperator, dims: Sequence[int], keep: Sequence[int]
) -> DensityOperator:
    """Trace out all subsystems not listed in ``keep``."""
    dims = list(dims)
    if int(np.prod(dims)) != rho.dim:
        raise QcoreError("subsystem dimensions inconsistent with operator")
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise QcoreError("keep indices out of range")
    n = len(dims)
    tensor = rho.matrix.reshape(dims + dims)
    traced = tensor
    # Trace the discarded subsystems from highest index down so axis
    # positions stay valid.
    removed = 0
    for idx in range(n - 1, -1, -1):
        if idx in keep:
            continue
        m = n - removed
        traced = np.trace(traced, axis1=idx, axis2=idx + m)
        removed += 1
    kept_dim = int(np.prod([dims[k] for k in keep])) if keep else 1
    return DensityOperator._adopt(_normalized(traced.reshape(kept_dim, kept_dim)))


def purity(rho: DensityOperator) -> float:
    """tr(rho^2); 1 for pure states, 1/d for maximally mixed."""
    return float(np.real(np.trace(rho.matrix @ rho.matrix)))
