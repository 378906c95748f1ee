"""Foundations toolkit: Gleason density-matrix reconstruction and temporal
inequalities (Leggett-Garg K3, temporal CHSH, entropic LG).

Frame averaging draws Haar-random frames, checks them and sums the decohered
states (pinchings, valid by construction) as one product per block of frames;
a single frame is a block of one.  The stacked Gaussian draws and QR are
bit-identical to drawing one frame at a time.

The temporal inequalities run on a :class:`PrecessionModel`: a qubit prepared
in a sigma_z eigenstate, rotating about the x axis at angular rate omega,
measured projectively (invasively) with observable sigma_z.  This is the
canonical minimal two-level realization that reaches K3 = 3/2.  The K3 and
entropic-LG optima are closed forms in omega tau for this sigma_z readout;
the values at those optima are measured through the sequential engine.

The sequential engine steps through the measurement depths: the 2^k branch
matrices of depth k are one stack, and each depth is one stacked product
with both projectors (and one with the unitary before it), the same products
as measuring branch by branch.  Observables are checked dichotomic once, at
the public entry points; a model builds its initial density matrix and its
observable's projectors once and reuses them on every call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
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
    _INV_SQRT2,
    is_dichotomic,
    is_unitary,
    _normalized,
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


def _check_frames(rows: np.ndarray, dim: int) -> None:
    """Every (dim, dim) block of ``rows`` (frame vectors as rows) must be an
    orthonormal basis."""
    if rows.shape[-2:] != (dim, dim) or not is_unitary(rows):
        raise QcoreError("frame is not an orthonormal basis")


def _check_frame(frame: Sequence[np.ndarray], dim: int) -> list[np.ndarray]:
    vecs = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in frame]
    _check_frames(np.stack(vecs), dim)
    return vecs


def gleason_vectors(frame: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The 2 d^2 - d unit vectors the reconstruction formula evaluates:
    each n_j, and (n_j +- n_k)/sqrt(2), (n_j +- i n_k)/sqrt(2) for j < k."""
    d = len(frame)
    vecs = _check_frame(frame, d)
    out = list(vecs)
    for j in range(d):
        for k in range(j + 1, d):
            out.append((vecs[j] + vecs[k]) * _INV_SQRT2)
            out.append((vecs[j] - vecs[k]) * _INV_SQRT2)
            out.append((vecs[j] + 1j * vecs[k]) * _INV_SQRT2)
            out.append((vecs[j] - 1j * vecs[k]) * _INV_SQRT2)
    return out


def gleason_reconstruct(val: Valuation, frame: Sequence[np.ndarray]) -> DensityOperator:
    """Rebuild rho from its valuation on the reconstruction vectors.

    Diagonal entries in the frame are v(n_j); off-diagonals come from the
    four superposition valuations:
    rho_jk = (v+ - v-)/2 - i (v+i - v-i)/2.
    """
    d = val.dim
    if len(frame) != d:
        raise QcoreError(f"frame has {len(frame)} vectors, the valuation dimension is {d}")
    vecs = gleason_vectors(frame)
    values = iter([val.get(vec) for vec in vecs])
    coeff = np.zeros((d, d), dtype=np.complex128)
    for j in range(d):
        coeff[j, j] = next(values)
    for j in range(d):
        for k in range(j + 1, d):
            vp, vm, vpi, vmi = next(values), next(values), next(values), next(values)
            coeff[j, k] = 0.5 * (vp - vm) - 0.5j * (vpi - vmi)
            coeff[k, j] = np.conj(coeff[j, k])
    basis = np.stack(vecs[:d]).T  # columns are frame vectors
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


def _decohere(rho: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The sum of rho_P = sum_i v(P_i) P_i over a stack of frames (vectors as
    rows, each stack checked as frames), as one product: the rows weighted
    by their Born weights v(P_i), times the conjugate rows.  Once checked,
    the frames' rows are one 2-D stack, so the Born weights take one product
    with rho, not a stacked product per frame."""
    d = rho.shape[0]
    _check_frames(rows, d)
    rows = rows.reshape(-1, d)
    born = np.sum((rows.conj() @ rho) * rows, axis=-1).real
    return (rows.T * born) @ rows.conj()


def gleason_decohere(rho: DensityOperator, frame: Sequence[np.ndarray]) -> DensityOperator:
    """rho_P = sum_i v(P_i) P_i: the state decohered in the frame."""
    rows = np.stack([np.asarray(v, dtype=np.complex128).reshape(-1) for v in frame])
    return DensityOperator._adopt(_normalized(_decohere(rho.matrix, rows[None])))


def _haar_frames(count: int, d: int, rng: RandomSource) -> np.ndarray:
    """``count`` Haar-random frames, vectors as rows: the columns of the QR
    unitary of a complex Gaussian matrix, phases fixed by diag(R).  The
    stacked draw and QR are bit-identical to ``count`` single-frame calls."""
    z = rng.generator.normal(size=(count, 2, d, d))
    q, r = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return np.swapaxes(q * (diag / np.abs(diag))[:, None, :], -1, -2)


def sample_haar_frame(d: int, rng: RandomSource) -> list[np.ndarray]:
    """Columns of a Haar-random unitary (QR of a complex Gaussian matrix)."""
    return [v.copy() for v in _haar_frames(1, d, rng)[0]]


# Frames per block in frame_average_reconstruct at d <= 3; larger d gets
# proportionally fewer, so a block never holds more than 1024 * 9 entries.
# The 10000-frame CLI run at d = 3 peaks about 0.4 MB above a 1-frame run.
_FRAME_BLOCK = 1024


def frame_average_reconstruct(
    rho: DensityOperator, n_frames: int, rng: RandomSource
) -> DensityOperator:
    """Recover rho via the identity rho = (d+1) <rho_P> - I over random frames.

    Frames are drawn, checked and decohered a block at a time, and the sums
    of the blocks are added in frame order."""
    if n_frames < 1:
        raise FoundationsError("n_frames must be at least 1")
    d = rho.dim
    block = min(_FRAME_BLOCK, max(1, _FRAME_BLOCK * 9 // (d * d)))
    acc = np.zeros_like(rho.matrix)
    for start in range(0, n_frames, block):
        acc += _decohere(rho.matrix, _haar_frames(min(block, n_frames - start), d, rng))
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


def _projector_pair(obs: np.ndarray) -> np.ndarray:
    """The projectors (I + O)/2 and (I - O)/2 onto the +1 and -1 eigenspaces
    of a dichotomic complex observable O, stacked in that order."""
    eye = np.eye(obs.shape[0])
    return np.stack([(eye + obs) / 2.0, (eye - obs) / 2.0])


def _dichotomic_projectors(obs) -> np.ndarray:
    """:func:`_projector_pair` of ``obs``, once it is checked dichotomic."""
    obs = np.asarray(obs, dtype=np.complex128)
    if not is_dichotomic(obs):
        raise FoundationsError("observable must be Hermitian and square to the identity")
    return _projector_pair(obs)


def _stacked_joint(rho: np.ndarray, pairs: Sequence[np.ndarray], unitaries) -> dict:
    """The joint distribution of measuring the projector pairs ``pairs`` in
    turn on ``rho``, the unitaries of ``unitaries`` between them.

    The branches of one depth are one stack of matrices, the +1 branch of
    each before its -1 branch; each depth takes (P @ rho) @ P for both
    projectors and (U @ rho) @ U^dagger before it, for the whole stack at
    once, so the outcome tuples come out depth first with +1 before -1."""
    stack = rho[None]
    for depth, pair in enumerate(pairs):
        if depth:
            u = unitaries[depth - 1]
            stack = (u @ stack) @ u.conj().T
        stack = ((pair @ stack[:, None]) @ pair).reshape((-1,) + rho.shape)
    probs = np.trace(stack, axis1=-2, axis2=-1).real.tolist()
    return dict(zip(itertools.product((+1, -1), repeat=len(pairs)), probs))


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
    pairs = [_dichotomic_projectors(o) for o in observables]
    unitaries = [np.asarray(u, dtype=np.complex128) for u in unitaries]
    dim = rho0.shape[0]
    for op in [pair[0] for pair in pairs] + unitaries:
        if op.shape != (dim, dim):
            shape = "x".join(map(str, op.shape))
            raise FoundationsError(f"a {shape} operator cannot act on a state of dimension {dim}")
    return _stacked_joint(rho0, pairs, unitaries)


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
        if not is_dichotomic(self.observable):
            raise FoundationsError("observable must be Hermitian and square to the identity")

    def unitary(self, dt: float) -> np.ndarray:
        """Rotation about x by angle omega * dt."""
        return rotation(PAULI_X, self.omega * dt)

    @cached_property
    def _rho0(self) -> np.ndarray:
        """The initial density matrix, read-only."""
        return self.initial.to_density().matrix

    @cached_property
    def _projectors(self) -> np.ndarray:
        """The observable's projector pair, read-only; the observable was
        checked dichotomic on construction."""
        pair = _projector_pair(np.asarray(self.observable, dtype=np.complex128))
        pair.flags.writeable = False
        return pair


def _evolved(model: PrecessionModel, t1: float, t2: float) -> tuple[np.ndarray, tuple]:
    """The model's density matrix at t1, (U rho0) U^dagger, and the one
    unitary from t1 to t2, as the engine takes it.  Both rotation angles
    must be finite, and so both times: math.cos raises on an infinite angle
    and returns nan on a nan one."""
    if not (math.isfinite(model.omega * t1) and math.isfinite(model.omega * (t2 - t1))):
        raise FoundationsError(f"measurement times must be finite, got ({t1!r}, {t2!r})")
    u = model.unitary(t1)
    return (u @ model._rho0) @ u.conj().T, (model.unitary(t2 - t1),)


def _two_time_correlator(rho: np.ndarray, u: tuple, a: np.ndarray, b: np.ndarray) -> float:
    """E(A, then B) for the projector pairs a and b: measured on rho, with
    u between the two measurements."""
    return correlator_from_joint(_stacked_joint(rho, (a, b), u), 0, 1)


def two_time_correlator(model: PrecessionModel, t_i: float, t_j: float) -> float:
    """C_ij from an actual two-measurement sequential run (measure at t_i,
    evolve, measure at t_j)."""
    p = model._projectors
    return _two_time_correlator(*_evolved(model, t_i, t_j), p, p)


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
    rho, u = _evolved(model, t1, t2)
    a, b = _dichotomic_projectors(a_obs), _dichotomic_projectors(b_obs)
    return _two_time_correlator(rho, u, a, b)


def _temporal_chsh(rho: np.ndarray, u: tuple, pairs: dict) -> float:
    """Temporal CHSH of the settings' projector pairs, all four correlators
    measured on rho, with u between the two measurements."""

    def corr(a: str, b: str) -> float:
        return _two_time_correlator(rho, u, pairs[a], pairs[b])

    return corr("A1", "B1") + corr("A2", "B1") + corr("A2", "B2") - corr("A1", "B2")


def temporal_chsh(model: PrecessionModel, settings: dict, t1: float, t2: float) -> float:
    """<B1 A1> + <B1 A2> + <B2 A2> - <B2 A1> from sequential measurements."""
    observables = {name: settings[name] for name in ("A1", "A2", "B1", "B2")}
    rho, u = _evolved(model, t1, t2)
    return _temporal_chsh(
        rho, u, {name: _dichotomic_projectors(o) for name, o in observables.items()}
    )


def temporal_chsh_optimize(model: PrecessionModel, t1: float, t2: float) -> dict:
    """Optimized temporal CHSH value.

    For a qubit, the sequential correlator of axis observables is
    E(a, b) = a . R b with R the Heisenberg rotation between the two
    measurement times, independent of the state; the closed-form CHSH
    maximum of the spatial case applies to R.  The value is then measured
    with those settings, unit-axis observables and so dichotomic, through
    the sequential engine.
    """
    rho, evolution = _evolved(model, t1, t2)
    u = evolution[0]
    r = np.zeros((3, 3))
    for i, si in enumerate(PAULIS):
        evolved = u.conj().T @ si @ u
        for j, sj in enumerate(PAULIS):
            r[j, i] = float(np.real(np.trace(evolved @ sj))) / 2.0
    result = chsh_axis_optimize(r)
    settings = {name: _axis_observable(axis) for name, axis in result["axes"].items()}
    pairs = {name: _projector_pair(o) for name, o in settings.items()}
    return {"value": _temporal_chsh(rho, evolution, pairs), "settings": settings}


# ---------------------------------------------------------------------------
# Entropic LG
# ---------------------------------------------------------------------------


def _pair_joint_table(model: PrecessionModel, ti: float, tj: float) -> np.ndarray:
    """2x2 table p(Q_j, Q_i) (later outcome indexes rows) from a two-time run."""
    rho, u = _evolved(model, ti, tj)
    dist = _stacked_joint(rho, (model._projectors, model._projectors), u)
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


def _entropic_gap_slope(x: float) -> float:
    """gap'(x) = sin(2x) h'(sin^2 x) - sin(x) h'(sin^2(x/2)), h'(p) = log2((1-p)/p)."""

    def dh(p: float) -> float:
        return math.log2((1.0 - p) / p)

    return math.sin(2.0 * x) * dh(math.sin(x) ** 2) - math.sin(x) * dh(math.sin(x / 2.0) ** 2)


def _entropic_x_star() -> float:
    """The maximiser of the entropic gap in x = omega tau (~0.3968766315):
    gap' is > 0 at 0.1 and < 0 at pi/4, so bisect its root there until the
    midpoint is one of the endpoints."""
    lo, hi = 0.1, math.pi / 4.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if _entropic_gap_slope(mid) > 0.0:
            lo = mid
        else:
            hi = mid


_ENTROPIC_X_STAR = _entropic_x_star()


def entropic_lg_scan(model: PrecessionModel) -> dict:
    """The largest entropic-LG violation at equal spacings (0, tau, 2 tau).

    This assumes the precession model's sigma_z readout, as lg_k3_max does;
    any readout axis perpendicular to the x rotation axis behaves the same,
    and one with an x component raises FoundationsError, because its flip
    probabilities, and so its optimum, differ.  Such an outcome flips over a
    spacing dt with probability sin^2(omega dt / 2), whatever the initial
    state; so at x = omega tau H(Q3|Q1) = h(sin^2 x) and
    H(Q3|Q2) = H(Q2|Q1) = h(sin^2(x/2)), h the binary entropy.  The gap
    h(sin^2 x) - 2 h(sin^2(x/2)) has period pi and is symmetric about pi/2;
    it peaks at x* (and pi - x*), the root of gap' computed once to machine
    precision.  The reported sides come from the sequential-measurement
    engine at tau* = x*/omega.
    """
    along_x = np.trace(np.asarray(model.observable) @ PAULI_X).real / 2.0
    if abs(along_x) > 1e-9:
        raise FoundationsError(
            "the entropic-LG optimum needs a readout perpendicular to the precession axis"
        )
    tau = _ENTROPIC_X_STAR / model.omega
    res = entropic_lg_check(model, 0.0, tau, 2.0 * tau)
    return {**res, "tau": tau, "gap": res["lhs"] - res["rhs"]}


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
        state = rho.apply(np.linalg.matrix_power(u, steps_before))
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
