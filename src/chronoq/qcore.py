"""Dense complex linear algebra core: states, gates, measurement, density operators.

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
  a new array instead.  Each 2^n step thus reads the state once and
  allocates at most one new 2^n buffer.
* Two state vectors are considered equal when they agree up to a global
  phase (see :meth:`StateVector.equals_up_to_phase`); exact amplitude
  comparison is available separately via :meth:`StateVector.allclose`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

TOL_ALG = 1e-9
TOL_NORM = 1e-9
MAX_QUBITS = 20

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class QcoreError(ValueError):
    """Raised on contract violations in the simulation core."""


# ---------------------------------------------------------------------------
# Randomness
# ---------------------------------------------------------------------------


class RandomSource:
    """Seeded pseudo-random stream.

    Identical ``(seed, stream)`` pairs always produce identical draw
    sequences.  Parallel Monte Carlo should use one source per trial via
    :meth:`spawn`.
    """

    def __init__(self, seed: int = 42, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed & (2**64 - 1), self.stream]))
        )

    def spawn(self, stream: int) -> "RandomSource":
        """A fresh, independent source derived from the same master seed."""
        return RandomSource(self.seed, stream)

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size=size)

    def choice_index(self, probabilities: Sequence[float]) -> int:
        """Sample an index from a probability vector."""
        p = np.asarray(probabilities, dtype=float)
        p = np.clip(p, 0.0, None)
        total = p.sum()
        if total <= 0:
            raise QcoreError("all probabilities are zero")
        return int(self._gen.choice(len(p), p=p / total))


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
    def _adopt(cls, buffer: np.ndarray, *, normalize: bool = False) -> "StateVector":
        """A state over ``buffer``, a 1-D complex128 array the caller has just
        allocated and hands over: renormalization writes into it."""
        state = cls.__new__(cls)
        state._own(buffer, normalize, in_place=True)
        return state

    def _own(self, vec: np.ndarray, normalize: bool, in_place: bool):
        if vec.shape[0] > (1 << MAX_QUBITS):
            raise QcoreError(f"register exceeds the {MAX_QUBITS}-qubit cap")
        # One pass: the squared norm is finite iff every amplitude is (and
        # their squares do not overflow).
        norm_sq = float(np.vdot(vec, vec).real)
        if not math.isfinite(norm_sq):
            raise QcoreError(f"amplitudes and their squared norm must be finite (got {norm_sq!r})")
        norm = math.sqrt(norm_sq)
        if normalize:
            if norm <= TOL_ALG:
                raise QcoreError("cannot normalize a (near-)zero vector")
            rescale = norm != 1.0
        elif abs(norm - 1.0) > 1e-6:
            raise QcoreError(f"state vector not normalized (norm={norm!r})")
        else:
            # Small numerical drift: renormalize silently.
            rescale = abs(norm - 1.0) > TOL_NORM
        if rescale:
            if in_place:
                vec *= 1.0 / norm
            else:
                vec = vec * (1.0 / norm)
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

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "StateVector":
        return cls.basis(1 << len(bits), _branch_index([int(b) & 1 for b in bits]))

    # -- algebra --

    def tensor(self, other: "StateVector") -> "StateVector":
        return tensor_product(self, other)

    def to_density(self) -> "DensityOperator":
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def inner(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

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


def _apply_to_targets(vec: np.ndarray, n: int, mat: np.ndarray, targets: list[int]) -> np.ndarray:
    """``mat`` on the target qubits of a 2^n vector, as a new 1-D array.

    One target q needs no transpose: the vector is a ``(2^q, 2, R)`` block
    array with R = 2^(n-q-1).  For R <= 32 it is one GEMM against
    kron(mat, I_R); above, mat is broadcast over the 2^q blocks.
    """
    k = len(targets)
    if mat.shape != (1 << k, 1 << k):
        raise QcoreError("operator shape does not match target count")
    if any(t < 0 or t >= n for t in targets) or len(set(targets)) != k:
        raise QcoreError("invalid target qubits")
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
T_GATE = np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=np.complex128)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)

_ROTATION_AXES = {"Rx": PAULI_X, "Ry": PAULI_Y, "Rz": PAULI_Z}
_FIXED_GATES = {
    "I": I2,
    "X": PAULI_X,
    "Y": PAULI_Y,
    "Z": PAULI_Z,
    "H": HADAMARD,
    "S": S_GATE,
    "T": T_GATE,
    "CNOT": CNOT,
}


def rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    """``cos(angle/2) I - i sin(angle/2) sigma`` for a Pauli axis."""
    return math.cos(angle / 2) * I2 - 1j * math.sin(angle / 2) * np.asarray(axis)


def standard_gate(name: str, angle: float | None = None) -> np.ndarray:
    """Return a standard gate matrix by name (I, X, Y, Z, H, S, T, CNOT, Rx, Ry, Rz)."""
    if name in _ROTATION_AXES:
        if angle is None:
            raise QcoreError(f"rotation gate {name!r} requires an angle")
        return rotation(_ROTATION_AXES[name], float(angle))
    if name not in _FIXED_GATES:
        raise QcoreError(f"unknown gate {name!r}")
    if angle is not None:
        raise QcoreError(f"gate {name!r} does not take an angle")
    return _FIXED_GATES[name].copy()


def tensor_product(
    a: Union[StateVector, np.ndarray], b: Union[StateVector, np.ndarray]
) -> Union[StateVector, np.ndarray]:
    """Kronecker product of two states or two operators (index 0 = leftmost factor)."""
    if isinstance(a, StateVector) != isinstance(b, StateVector):
        raise QcoreError("tensor_product operands must be the same kind")
    if isinstance(a, StateVector):
        dim = a.dim * b.dim
        if dim > (1 << MAX_QUBITS):
            raise QcoreError(f"register would exceed {MAX_QUBITS} qubits")
        return StateVector._adopt(np.outer(a.amplitudes, b.amplitudes).reshape(-1))
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape[0] * b.shape[0] > (1 << MAX_QUBITS):
        raise QcoreError(f"operator would exceed {MAX_QUBITS} qubits")
    return np.kron(a, b)


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


def bell_state(label: str) -> StateVector:
    """One of the four Bell states phi+/phi-/psi+/psi-."""
    key = _BELL_ALIASES.get(label)
    if key is None:
        raise QcoreError(f"unknown Bell label {label!r}")
    # phi = (|00> +- |11>)/sqrt(2), psi = (|01> +- |10>)/sqrt(2).
    return branch_pair([0, int(key.startswith("psi"))], 1 if key.endswith("+") else -1)


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


@dataclass(frozen=True)
class MeasurementOutcome:
    index: int
    probability: float
    post_state: "StateVector"


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


def measure(
    state: StateVector, basis: Sequence[StateVector], rng: RandomSource
) -> MeasurementOutcome:
    """Projective measurement in a full orthonormal basis."""
    probs = born_distribution(state, basis)
    idx = rng.choice_index(probs)
    return MeasurementOutcome(idx, float(probs[idx]), basis[idx])


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
    n = state.num_qubits
    vec = state.amplitudes
    if basis_1q is not None:
        u = np.asarray(basis_1q, dtype=np.complex128)
        if not is_unitary(u):
            raise QcoreError("measurement basis is not orthonormal")
        vec = _apply_to_targets(vec, n, u.conj(), [qubit])
    psi = vec.reshape([2] * n)
    moved = np.moveaxis(psi, qubit, 0)
    p0 = float(np.sum(np.abs(moved[0]) ** 2))
    p1 = float(np.sum(np.abs(moved[1]) ** 2))
    total = p0 + p1
    if total <= TOL_ALG:
        raise QcoreError("degenerate measurement: all probabilities zero")
    if abs(total - 1.0) > 1e-6:
        raise QcoreError("state norm drifted beyond tolerance")
    p0, p1 = p0 / total, p1 / total
    if forced_outcome is None:
        outcome = 0 if rng.uniform() < p0 else 1
    else:
        outcome = int(forced_outcome)
    prob = p0 if outcome == 0 else p1
    if prob <= TOL_ALG:
        raise QcoreError("post-selected branch has zero probability")
    collapsed = np.zeros_like(moved)
    collapsed[outcome] = moved[outcome]
    post = np.moveaxis(collapsed, 0, qubit).reshape(-1)
    if basis_1q is not None:
        # Rotate back to the computational frame.
        post = _apply_to_targets(post, n, np.asarray(basis_1q).T, [qubit])
    return outcome, prob, StateVector._adopt(post, normalize=True)


# ---------------------------------------------------------------------------
# Density operators
# ---------------------------------------------------------------------------


def validated_densities(mats: np.ndarray) -> np.ndarray:
    """Check a density matrix, or each of a stack ``(..., d, d)`` of them:
    Hermitian to 1e-8, unit trace to 1e-8 and no eigenvalue below -1e-8.
    Returns each as (M + M^dagger) / 2 divided by its trace."""
    mats = np.asarray(mats, dtype=np.complex128)
    # The adjoint is formed twice rather than kept: holding it would add a
    # full copy of the input to the peak memory.
    if not np.max(np.abs(mats - mats.conj().swapaxes(-1, -2))) <= 1e-8:  # nan fails too
        raise QcoreError("density operator must be Hermitian")
    tr = mats.trace(axis1=-2, axis2=-1).real
    off = abs(tr - 1.0) > 1e-8
    if off.any():
        bad = float(np.asarray(tr)[off].flat[0])
        raise QcoreError(f"density operator must have unit trace (got {bad!r})")
    sym = (mats + mats.conj().swapaxes(-1, -2)) / 2.0
    if np.linalg.eigvalsh(sym).min() < -1e-8:
        raise QcoreError("density operator must be positive semidefinite")
    return sym / tr[..., None, None]


class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    __slots__ = ("matrix",)

    def __init__(self, matrix, *, validate: bool = True):
        mat = np.asarray(matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise QcoreError("density operator must be square")
        if validate:
            mat = validated_densities(mat)
        mat.setflags(write=False)
        self.matrix = mat

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        return cls(np.eye(dim) / dim)

    def tensor(self, other: "DensityOperator") -> "DensityOperator":
        return DensityOperator(np.kron(self.matrix, other.matrix))

    def evolve(self, u: np.ndarray) -> "DensityOperator":
        u = np.asarray(u, dtype=np.complex128)
        return DensityOperator(u @ self.matrix @ u.conj().T)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

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
    return DensityOperator(traced.reshape(kept_dim, kept_dim))


def purity(rho: DensityOperator) -> float:
    """tr(rho^2); 1 for pure states, 1/d for maximally mixed."""
    return float(np.real(np.trace(rho.matrix @ rho.matrix)))
