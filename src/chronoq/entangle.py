"""Entanglement detection and measures.

PPT criterion, concurrence, fidelity / trace distance, and CHSH evaluation
with the closed-form (Horodecki) maximum and settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qcore import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityOperator,
    StateVector,
    bell_state,
    is_dichotomic,
    _normalized,
    partial_trace,
)

SQRT2 = math.sqrt(2.0)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)
# sigma_i (x) sigma_j at [i, j] over the Pauli triple, read-only.
PAULI_PAIRS = np.array([[np.kron(si, sj) for sj in PAULIS] for si in PAULIS])
PAULI_PAIRS.flags.writeable = False


class EntangleError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Werner states and the PPT criterion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WernerState:
    """F * |psi-><psi-| + (1-F)/3 * (sum of the other three Bell projectors)."""

    F: float

    def __post_init__(self):
        if not 0.0 <= self.F <= 1.0:
            raise EntangleError("F must lie in [0, 1]")

    @property
    def rho(self) -> DensityOperator:
        return DensityOperator._adopt(_normalized(_werner_matrices(self.F)))


def _werner_matrices(f) -> np.ndarray:
    """The Werner matrix at F = ``f``, or the ``(..., 4, 4)`` stack of them
    for an array of weights."""
    f = np.asarray(f, dtype=float)[..., None, None]
    singlet = bell_state("psi-").to_density().matrix
    rest = sum(
        bell_state(lbl).to_density().matrix for lbl in ("phi+", "phi-", "psi+")
    )
    return f * singlet + (1.0 - f) / 3.0 * rest


def werner_ppt_min_eigenvalues(fs: Sequence[float]) -> np.ndarray:
    """``ppt_min_eigenvalue(WernerState(F).rho, [2, 2])`` for every F of
    ``fs`` at once: one normalized ``(len(fs), 4, 4)`` stack, its partial
    transposes and one batched ``eigvalsh``."""
    fs = np.asarray(fs, dtype=float)
    if not np.all((0.0 <= fs) & (fs <= 1.0)):  # nan fails too
        raise EntangleError("F must lie in [0, 1]")
    return _min_eigenvalues(_partial_transpose(_normalized(_werner_matrices(fs)), (2, 2)))


def partial_transpose(rho: DensityOperator, dims: Sequence[int]) -> np.ndarray:
    """Partial transpose of a bipartite operator on its second subsystem."""
    if len(dims) != 2 or dims[0] * dims[1] != rho.dim:
        raise EntangleError("dims must be a bipartition of the operator")
    return _partial_transpose(rho.matrix, dims)


def _partial_transpose(mats: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    """:func:`partial_transpose` of a matrix or of each of a ``(..., d, d)`` stack."""
    tensor = mats.reshape(mats.shape[:-2] + (dims[0], dims[1], dims[0], dims[1]))
    return tensor.swapaxes(-3, -1).reshape(mats.shape)


def ppt_min_eigenvalue(rho: DensityOperator, dims: Sequence[int]) -> float:
    """Minimum eigenvalue of the partial transpose; negative certifies entanglement."""
    return float(_min_eigenvalues(partial_transpose(rho, dims)))


def _min_eigenvalues(pts: np.ndarray) -> np.ndarray:
    """The least eigenvalue of the Hermitian part of a matrix, or of each of a stack."""
    return np.linalg.eigvalsh((pts + pts.conj().swapaxes(-1, -2)) / 2.0).min(axis=-1)


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------


def concurrence(state: StateVector, dims: Sequence[int]) -> float:
    """sqrt(2 (1 - tr rho_A^2)) for a bipartite pure state."""
    if len(dims) != 2 or dims[0] * dims[1] != state.dim:
        raise EntangleError("dims must be a bipartition of the state")
    from .qcore import purity

    rho_a = partial_trace(state.to_density(), list(dims), keep=[0])
    value = 2.0 * (1.0 - purity(rho_a))
    return float(math.sqrt(max(value, 0.0)))


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    eigs, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
    eigs = np.clip(eigs, 0.0, None)
    return (vecs * np.sqrt(eigs)) @ vecs.conj().T


def fidelity(rho: DensityOperator, sigma: DensityOperator) -> float:
    """(tr sqrt(sqrt(rho) sigma sqrt(rho)))^2; reduces to |<psi|phi>|^2 on pure states."""
    if rho.dim != sigma.dim:
        raise EntangleError("dimension mismatch")
    sr = _psd_sqrt(rho.matrix)
    root = _psd_sqrt(sr @ sigma.matrix @ sr)
    val = float(np.real(np.trace(root)))
    return float(min(max(val, 0.0), 1.0) ** 2)


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """D(rho, sigma) = (1/2) tr |rho - sigma|."""
    if rho.dim != sigma.dim:
        raise EntangleError("dimension mismatch")
    diff = rho.matrix - sigma.matrix
    eigs = np.linalg.eigvalsh((diff + diff.conj().T) / 2.0)
    return float(0.5 * np.sum(np.abs(eigs)))


# ---------------------------------------------------------------------------
# CHSH
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObservableSettings:
    """Four dichotomic (+-1) observables: A1, A2 for Alice, B1, B2 for Bob."""

    A1: np.ndarray
    A2: np.ndarray
    B1: np.ndarray
    B2: np.ndarray

    def __post_init__(self):
        for name in ("A1", "A2", "B1", "B2"):
            m = np.asarray(getattr(self, name), dtype=np.complex128)
            if m.shape != (2, 2) or not is_dichotomic(m):
                raise EntangleError(f"{name} must be a 2x2 Hermitian matrix squaring to I")
            object.__setattr__(self, name, m)


def canonical_chsh_settings() -> ObservableSettings:
    """The settings that reach 2*sqrt(2) on the singlet state."""
    return ObservableSettings(
        A1=PAULI_Z,
        A2=PAULI_X,
        B1=(-PAULI_Z - PAULI_X) / SQRT2,
        B2=(PAULI_Z - PAULI_X) / SQRT2,
    )


def correlator(rho: DensityOperator, a: np.ndarray, b: np.ndarray) -> float:
    return float(np.real(np.trace(rho.matrix @ np.kron(a, b))))


def chsh_value(rho: DensityOperator, s: ObservableSettings) -> float:
    """<A1 B1> + <A2 B1> + <A2 B2> - <A1 B2>."""
    if rho.dim != 4:
        raise EntangleError("CHSH requires a 2-qubit state")
    return (
        correlator(rho, s.A1, s.B1)
        + correlator(rho, s.A2, s.B1)
        + correlator(rho, s.A2, s.B2)
        - correlator(rho, s.A1, s.B2)
    )


def correlation_matrix(rho: DensityOperator) -> np.ndarray:
    """T_ij = tr(rho sigma_i (x) sigma_j) over the Pauli triple (x, y, z)."""
    if rho.dim != 4:
        raise EntangleError("requires a 2-qubit state")
    return np.trace(rho.matrix @ PAULI_PAIRS, axis1=-2, axis2=-1).real.copy()


def _axis_observable(axis: np.ndarray) -> np.ndarray:
    """a . sigma for the unit vector along ``axis``."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    return axis[0] * PAULI_X + axis[1] * PAULI_Y + axis[2] * PAULI_Z


def chsh_axis_optimize(t: np.ndarray) -> dict:
    """Maximum of a1.T.b1 + a2.T.b1 + a2.T.b2 - a1.T.b2 over unit axes, for a
    3x3 correlation matrix t (Horodecki criterion).

    With t = U S V^T the maximum is 2 sqrt(s1^2 + s2^2), reached at A1 = u2,
    A2 = u1 and B1, B2 = (s1 v1 +- s2 v2) / sqrt(s1^2 + s2^2).
    """
    u, s, vh = np.linalg.svd(np.asarray(t, dtype=float))
    norm = math.hypot(s[0], s[1])
    if norm == 0.0:
        b1 = b2 = vh[0]
    else:
        b1 = (s[0] * vh[0] + s[1] * vh[1]) / norm
        b2 = (s[0] * vh[0] - s[1] * vh[1]) / norm
    return {"value": 2.0 * norm, "axes": {"A1": u[:, 1], "A2": u[:, 0], "B1": b1, "B2": b2}}


def chsh_optimize(rho: DensityOperator) -> dict:
    """CHSH maximum and the settings that reach it for a 2-qubit state."""
    result = chsh_axis_optimize(correlation_matrix(rho))
    settings = ObservableSettings(
        **{name: _axis_observable(axis) for name, axis in result["axes"].items()}
    )
    return {"value": result["value"], "settings": settings}


def werner_chsh_crossing() -> float:
    """F where the maximal Werner CHSH value 2 sqrt(2) (4F - 1) / 3 crosses 2.

    The Werner correlation matrix is -(4F - 1)/3 * I.
    """
    return (1.0 + 3.0 / SQRT2) / 4.0

