"""Foundations toolkit: Gleason density-matrix reconstruction and temporal
inequalities (Leggett-Garg K3, temporal CHSH, entropic LG).

The temporal inequalities run on a :class:`PrecessionModel`: a qubit prepared
in a sigma_z eigenstate, rotating about the x axis at angular rate omega,
measured projectively (invasively) with observable sigma_z.  This is the
canonical minimal two-level realization that reaches K3 = 3/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .infotheory import derived_entropies
from .entangle import PAULIS, _axis_observable, chsh_axis_optimize
from .qcore import (
    PAULI_X,
    PAULI_Z,
    DensityOperator,
    QcoreError,
    RandomSource,
    StateVector,
    is_hermitian,
    rotation,
)

TOL_RECON = 1e-8
PSD_REPAIR_TOL = 1e-2


class FoundationsError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Gleason reconstruction
# ---------------------------------------------------------------------------


def _vector_key(vec: np.ndarray) -> tuple:
    """Canonical hashable key: unit norm, fixed global phase, rounded."""
    v = np.asarray(vec, dtype=np.complex128).reshape(-1)
    norm = np.linalg.norm(v)
    if norm <= 1e-12:
        raise FoundationsError("zero vector has no valuation")
    v = v / norm
    pivot = next(x for x in v if abs(x) > 1e-9)
    v = v * (abs(pivot) / pivot)
    return tuple((round(float(x.real), 12), round(float(x.imag), 12)) for x in v)


@dataclass
class Valuation:
    """A probability assignment on unit vectors (rank-1 projectors)."""

    dim: int
    table: dict = field(default_factory=dict)

    def set(self, vec, value: float):
        if not -1e-9 <= value <= 1.0 + 1e-9:
            raise FoundationsError("valuation values must lie in [0, 1]")
        self.table[_vector_key(vec)] = float(value)

    def get(self, vec) -> float:
        key = _vector_key(vec)
        if key not in self.table:
            raise FoundationsError("missing valuation entry")
        return self.table[key]

    @classmethod
    def from_density(cls, rho: DensityOperator, frame: Sequence[np.ndarray]) -> "Valuation":
        """Evaluate v(x) = <x|rho|x> on all reconstruction vectors of a frame."""
        val = cls(rho.dim)
        for vec in gleason_vectors(frame):
            val.set(vec, float(np.real(vec.conj() @ rho.matrix @ vec)))
        return val


def _check_frame(frame: Sequence[np.ndarray], dim: int) -> list[np.ndarray]:
    vecs = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in frame]
    mat = np.stack(vecs)
    if mat.shape != (dim, dim) or np.max(np.abs(mat.conj() @ mat.T - np.eye(dim))) > 1e-8:
        raise QcoreError("frame is not an orthonormal basis")
    return vecs


def gleason_vectors(frame: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The 2 d^2 - d unit vectors the reconstruction formula evaluates:
    each n_j, and (n_j +- n_k)/sqrt(2), (n_j +- i n_k)/sqrt(2) for j < k."""
    d = len(frame)
    vecs = _check_frame(frame, d)
    out = list(vecs)
    inv = 1.0 / math.sqrt(2.0)
    for j in range(d):
        for k in range(j + 1, d):
            out.append((vecs[j] + vecs[k]) * inv)
            out.append((vecs[j] - vecs[k]) * inv)
            out.append((vecs[j] + 1j * vecs[k]) * inv)
            out.append((vecs[j] - 1j * vecs[k]) * inv)
    return out


def gleason_reconstruct(val: Valuation, frame: Sequence[np.ndarray]) -> DensityOperator:
    """Rebuild rho from its valuation on the reconstruction vectors.

    Diagonal entries in the frame are v(n_j); off-diagonals come from the
    four superposition valuations:
    rho_jk = (v+ - v-)/2 - i (v+i - v-i)/2.
    """
    d = val.dim
    vecs = _check_frame(frame, d)
    inv = 1.0 / math.sqrt(2.0)
    coeff = np.zeros((d, d), dtype=np.complex128)
    for j in range(d):
        coeff[j, j] = val.get(vecs[j])
    for j in range(d):
        for k in range(j + 1, d):
            vp = val.get((vecs[j] + vecs[k]) * inv)
            vm = val.get((vecs[j] - vecs[k]) * inv)
            vpi = val.get((vecs[j] + 1j * vecs[k]) * inv)
            vmi = val.get((vecs[j] - 1j * vecs[k]) * inv)
            coeff[j, k] = 0.5 * (vp - vm) - 0.5j * (vpi - vmi)
            coeff[k, j] = np.conj(coeff[j, k])
    basis = np.stack(vecs).T  # columns are frame vectors
    rho = basis @ coeff @ basis.conj().T
    rho = (rho + rho.conj().T) / 2.0

    eigs, evecs = np.linalg.eigh(rho)
    if eigs.min() < -PSD_REPAIR_TOL:
        raise FoundationsError("reconstruction is not PSD beyond repair tolerance")
    eigs = np.clip(eigs, 0.0, None)
    total = eigs.sum()
    if total <= 1e-12:
        raise FoundationsError("reconstruction has vanishing trace")
    repaired = (evecs * (eigs / total)) @ evecs.conj().T
    return DensityOperator(repaired)


def gleason_decohere(rho: DensityOperator, frame: Sequence[np.ndarray]) -> DensityOperator:
    """rho_P = sum_i v(P_i) P_i: the state decohered in the frame."""
    vecs = _check_frame(frame, rho.dim)
    out = np.zeros_like(rho.matrix)
    for v in vecs:
        p = float(np.real(v.conj() @ rho.matrix @ v))
        out += p * np.outer(v, v.conj())
    return DensityOperator(out)


def sample_haar_frame(d: int, rng: RandomSource) -> list[np.ndarray]:
    """Columns of a Haar-random unitary (QR of a complex Gaussian matrix)."""
    gen = rng.generator
    z = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return [q[:, i].copy() for i in range(d)]


def frame_average_reconstruct(
    rho: DensityOperator, n_frames: int, rng: RandomSource
) -> DensityOperator:
    """Recover rho via the identity rho = (d+1) <rho_P> - I over random frames."""
    d = rho.dim
    acc = np.zeros_like(rho.matrix)
    for _ in range(n_frames):
        acc += gleason_decohere(rho, sample_haar_frame(d, rng)).matrix
    mean = acc / n_frames
    est = (d + 1) * mean - np.eye(d)
    est = (est + est.conj().T) / 2.0
    eigs, evecs = np.linalg.eigh(est)
    eigs = np.clip(eigs, 0.0, None)
    est = (evecs * (eigs / eigs.sum())) @ evecs.conj().T
    return DensityOperator(est)


# ---------------------------------------------------------------------------
# Sequential (invasive) measurement engine
# ---------------------------------------------------------------------------


def _dichotomic_projectors(obs: np.ndarray) -> dict:
    """Projectors onto the +1 and -1 eigenspaces of a dichotomic observable."""
    obs = np.asarray(obs, dtype=np.complex128)
    if not is_hermitian(obs, 1e-8):
        raise FoundationsError("observable must be Hermitian")
    if np.max(np.abs(obs @ obs - np.eye(obs.shape[0]))) > 1e-8:
        raise FoundationsError("observable must square to the identity")
    plus = (np.eye(obs.shape[0]) + obs) / 2.0
    minus = (np.eye(obs.shape[0]) - obs) / 2.0
    return {+1: plus, -1: minus}


def sequential_joint(
    initial,
    observables: Sequence[np.ndarray],
    unitaries: Sequence[np.ndarray],
) -> dict:
    """Exact joint distribution over +-1 outcome tuples of sequential
    projective measurements: U_k evolves the state before measurement k+1
    (len(unitaries) == len(observables) - 1)."""
    if len(unitaries) != len(observables) - 1:
        raise FoundationsError("need one unitary between consecutive measurements")
    rho0 = initial.to_density().matrix if isinstance(initial, StateVector) else initial.matrix
    projectors = [_dichotomic_projectors(o) for o in observables]
    dist: dict[tuple, float] = {}

    def recurse(rho, outcomes, depth):
        if depth == len(observables):
            dist[outcomes] = float(np.real(np.trace(rho)))
            return
        if depth > 0:
            u = np.asarray(unitaries[depth - 1], dtype=np.complex128)
            rho = u @ rho @ u.conj().T
        for q, p in projectors[depth].items():
            recurse(p @ rho @ p, outcomes + (q,), depth + 1)

    recurse(rho0, (), 0)
    return dist


def correlator_from_joint(dist: dict, i: int, j: int) -> float:
    return sum(p * outs[i] * outs[j] for outs, p in dist.items())


# ---------------------------------------------------------------------------
# Leggett-Garg
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrecessionModel:
    omega: float = 1.0
    initial: StateVector = None
    observable: np.ndarray = None

    def __post_init__(self):
        # The K3 spacing pi/(3 omega) must be finite too: a subnormal omega
        # overflows it.
        if not (
            math.isfinite(self.omega)
            and self.omega > 0.0
            and math.isfinite(math.pi / (3.0 * self.omega))
        ):
            raise FoundationsError(f"omega must be a finite positive rate, got {self.omega!r}")
        if self.initial is None:
            object.__setattr__(self, "initial", StateVector([1.0, 0.0]))
        if self.observable is None:
            object.__setattr__(self, "observable", PAULI_Z)
        obs = np.asarray(self.observable, dtype=np.complex128)
        if np.max(np.abs(obs @ obs - np.eye(obs.shape[0]))) > 1e-8:
            raise FoundationsError("observable must square to the identity")

    def unitary(self, dt: float) -> np.ndarray:
        """Rotation about x by angle omega * dt."""
        return rotation(PAULI_X, self.omega * dt)


def _two_time_joint(model: PrecessionModel, a_obs, b_obs, t1: float, t2: float) -> dict:
    """Joint outcome distribution of measuring a_obs at t1, then b_obs at t2."""
    u0 = model.unitary(t1)
    state = DensityOperator(
        u0 @ model.initial.to_density().matrix @ u0.conj().T, validate=False
    )
    return sequential_joint(state, [a_obs, b_obs], [model.unitary(t2 - t1)])


def two_time_correlator(model: PrecessionModel, t_i: float, t_j: float) -> float:
    """C_ij from an actual two-measurement sequential run (measure at t_i,
    evolve, measure at t_j)."""
    dist = _two_time_joint(model, model.observable, model.observable, t_i, t_j)
    return correlator_from_joint(dist, 0, 1)


def lg_k3(model: PrecessionModel, tau: float) -> float:
    """K3 = C21 + C32 - C31 at equally spaced times (0, tau, 2 tau)."""
    if tau <= 0:
        raise FoundationsError("tau must be positive")
    c21 = two_time_correlator(model, 0.0, tau)
    c32 = two_time_correlator(model, tau, 2.0 * tau)
    c31 = two_time_correlator(model, 0.0, 2.0 * tau)
    return c21 + c32 - c31


def lg_k3_analytic(model: PrecessionModel, tau: float) -> float:
    """Closed form for the precession model: 2 cos(w tau) - cos(2 w tau)."""
    return 2.0 * math.cos(model.omega * tau) - math.cos(2.0 * model.omega * tau)


def lg_k3_max(model: PrecessionModel) -> dict:
    """K3 at its maximiser tau* = pi / (3 omega), where the analytic curve
    2 cos(w tau) - cos(2 w tau) peaks at 3/2; the value comes from the
    sequential-measurement engine."""
    tau_star = math.pi / (3.0 * model.omega)
    return {"k3_max": lg_k3(model, tau_star), "tau_star": tau_star}


# ---------------------------------------------------------------------------
# Temporal CHSH
# ---------------------------------------------------------------------------

def sequential_correlator(model: PrecessionModel, a_obs, b_obs, t1: float, t2: float) -> float:
    """E(A at t1, then B at t2) via the sequential engine."""
    return correlator_from_joint(_two_time_joint(model, a_obs, b_obs, t1, t2), 0, 1)


def temporal_chsh(model: PrecessionModel, settings: dict, t1: float, t2: float) -> float:
    """<B1 A1> + <B1 A2> + <B2 A2> - <B2 A1> from sequential measurements."""
    a1, a2 = settings["A1"], settings["A2"]
    b1, b2 = settings["B1"], settings["B2"]
    return (
        sequential_correlator(model, a1, b1, t1, t2)
        + sequential_correlator(model, a2, b1, t1, t2)
        + sequential_correlator(model, a2, b2, t1, t2)
        - sequential_correlator(model, a1, b2, t1, t2)
    )


def temporal_chsh_optimize(model: PrecessionModel, t1: float, t2: float) -> dict:
    """Optimized temporal CHSH value.

    For a qubit, the sequential correlator of axis observables is
    E(a, b) = a . R b with R the Heisenberg rotation between the two
    measurement times, independent of the state; the closed-form CHSH
    maximum of the spatial case applies to R.  The value is then measured
    with those settings through the sequential engine.
    """
    u = model.unitary(t2 - t1)
    r = np.zeros((3, 3))
    for i, si in enumerate(PAULIS):
        evolved = u.conj().T @ si @ u
        for j, sj in enumerate(PAULIS):
            r[j, i] = float(np.real(np.trace(evolved @ sj))) / 2.0
    result = chsh_axis_optimize(r)
    settings = {name: _axis_observable(axis) for name, axis in result["axes"].items()}
    value = temporal_chsh(model, settings, t1, t2)
    return {"value": value, "settings": settings}


# ---------------------------------------------------------------------------
# Entropic LG
# ---------------------------------------------------------------------------


def _pair_joint_table(model: PrecessionModel, ti: float, tj: float) -> np.ndarray:
    """2x2 table p(Q_j, Q_i) (later outcome indexes rows) from a two-time run."""
    dist = _two_time_joint(model, model.observable, model.observable, ti, tj)
    table = np.zeros((2, 2))
    for (qi, qj), p in dist.items():
        table[(1 - qj) // 2, (1 - qi) // 2] += p
    return table


def entropic_lg_check(model: PrecessionModel, t1: float, t2: float, t3: float) -> dict:
    """H(Q3|Q1) <= H(Q3|Q2) + H(Q2|Q1): evaluate both sides and flag violation."""
    if not t1 < t2 < t3:
        raise FoundationsError("need strictly ordered times")
    lhs = derived_entropies(_pair_joint_table(model, t1, t3))["conditional"]
    rhs = (
        derived_entropies(_pair_joint_table(model, t2, t3))["conditional"]
        + derived_entropies(_pair_joint_table(model, t1, t2))["conditional"]
    )
    return {"lhs": lhs, "rhs": rhs, "violated": lhs > rhs + 1e-12}


def entropic_lg_scan(model: PrecessionModel, grid: int = 200) -> dict:
    """Grid search over equal spacings for the largest entropic-LG violation."""
    best = {"lhs": 0.0, "rhs": 0.0, "violated": False, "tau": None, "gap": -np.inf}
    for tau in np.linspace(1e-3, math.pi / model.omega, grid):
        res = entropic_lg_check(model, 0.0, float(tau), 2.0 * float(tau))
        gap = res["lhs"] - res["rhs"]
        if gap > best["gap"]:
            best = {**res, "tau": float(tau), "gap": gap}
    return best


# ---------------------------------------------------------------------------
# Classical (commuting) reference models
# ---------------------------------------------------------------------------


def classical_commuting_instance(rng: RandomSource) -> dict:
    """A random everything-diagonal instance: commuting observables and
    diagonal (phase) dynamics, so a joint outcome distribution exists."""
    gen = rng.generator
    sign = lambda: 1.0 if gen.random() < 0.5 else -1.0
    obs = [np.diag([sign(), sign()]).astype(np.complex128) for _ in range(2)]
    phases = np.exp(1j * gen.uniform(0.0, 2.0 * math.pi, 2))
    unitary = np.diag(phases)
    amp = gen.random()
    initial = StateVector([math.sqrt(amp), math.sqrt(1.0 - amp)])
    return {"observables": obs, "unitary": unitary, "initial": initial}


def classical_k3(instance: dict) -> float:
    """K3 for a commuting instance (same observable at all three times)."""
    obs = instance["observables"][0]
    u = instance["unitary"]
    rho = instance["initial"].to_density()

    def corr(steps_before: int, steps_between: int) -> float:
        m = np.linalg.matrix_power(u, steps_before)
        state = DensityOperator(m @ rho.matrix @ m.conj().T, validate=False)
        dist = sequential_joint(
            state, [obs, obs], [np.linalg.matrix_power(u, steps_between)]
        )
        return correlator_from_joint(dist, 0, 1)

    return corr(0, 1) + corr(1, 1) - corr(0, 2)


def classical_temporal_chsh(instance: dict) -> float:
    """Temporal CHSH with two commuting dichotomic settings per side."""
    a1, b1 = instance["observables"]
    a2, b2 = b1, a1
    u = instance["unitary"]
    rho = instance["initial"].to_density()

    def corr(a, b):
        dist = sequential_joint(rho, [a, b], [u])
        return correlator_from_joint(dist, 0, 1)

    return corr(a1, b1) + corr(a2, b1) + corr(a2, b2) - corr(a1, b2)
