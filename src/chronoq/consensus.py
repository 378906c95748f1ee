"""GHZ-verification consensus: the theta-protocol over a simulated node network.

A verifier hands each node one qubit of a candidate n-qubit block state plus
a random angle theta_j in [0, pi) with sum(theta_j) = m * pi.  Each node
measures in the basis (1/sqrt(2))(|0> +- e^{i theta_j} |1>) and reports
Y_j in {0, 1}.  The round passes iff XOR(Y_j) == m (mod 2) — an ideal GHZ
state passes with probability 1, and the pass rate lower-bounds the GHZ
fidelity: F >= 2P - 1 for honest nodes, F' >= 4P - 3 when some nodes cheat
(F' being the best fidelity reachable by local corrections on the cheaters'
qubits).  The verifier keeps only that parity, so a round's pass is drawn
from its exact probability P(theta): one double u, and the round passes iff
u < P(theta).

The bound checks are one-sided tests on the sampled pass rate P^ of one
rule, c P - (c - 1) <= F with c = 2 (honest, F the GHZ fidelity) or c = 4
(dishonest, F = F'): a bound is reported broken only when P^ exceeds the
largest pass rate the bound allows, P0 = (c - 1 + F)/c, by more than three
standard errors of the bound's left side evaluated at P0, 3 c se(P0), where
se(P) = sqrt(P (1 - P) / rounds).  The standard error of P^ itself vanishes
as P^ -> 1 and would turn sampling noise into false alarms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .qcore import (
    DEFAULT_ROUNDS,
    DEFAULT_THRESHOLD,
    I2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityOperator,
    RandomSource,
    StateVector,
    _INV_SQRT2,
    _rescale_factor,
    is_unitary,
)

TWO_PI = 2.0 * math.pi


class ConsensusError(ValueError):
    pass


@dataclass
class Node:
    id: int
    honest: bool = True
    cheat: np.ndarray | None = None  # unitary applied to this node's qubit

    def __post_init__(self):
        cheat = self.cheat
        if cheat is not None and (np.shape(cheat) != (2, 2) or not is_unitary(cheat)):
            raise ConsensusError(f"node {self.id}: cheat must be a 2x2 unitary")


@dataclass
class Network:
    nodes: list
    rng: RandomSource
    local_chains: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.nodes) < 2:
            raise ConsensusError("network needs at least two nodes")
        for node in self.nodes:
            self.local_chains.setdefault(node.id, [])

    @property
    def size(self) -> int:
        return len(self.nodes)


# ---------------------------------------------------------------------------
# Angles and measurement
# ---------------------------------------------------------------------------


def sample_theta_angles(n: int, rng: RandomSource) -> tuple[list[float], int]:
    """n angles in [0, pi) whose sum is an exact multiple m of pi; returns (angles, m)."""
    if n < 2:
        raise ConsensusError("need at least 2 angles")
    angles, m = _complete_angles(rng.uniform(0.0, math.pi, (1, n - 1)))
    return angles[0].tolist(), int(m[0])


def _complete_angles(head: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of n - 1 angles in [0, pi), completed by a last angle in
    [0, pi) that makes the row's sum a multiple m of pi; returns the
    ``(rows, n)`` angles and the ``(rows,)`` m.

    The sums are sequential (``np.cumsum``), so a row of any batch gives the
    angles and m of that row drawn alone.
    """
    partial = head.cumsum(axis=1)[:, -1]
    m = np.ceil(partial / math.pi - 1e-12)
    # m < partial / pi + 1, so last < pi; last < 0 only if 0 < partial / pi - m <= 1e-12,
    # and then last + pi completes the row to (m + 1) pi.
    last = m * math.pi - partial
    wrap = last < 0.0
    return np.concatenate((head, (last + math.pi * wrap)[:, None]), axis=1), m + wrap


def exact_pass_probability(state, angles: Sequence[float], m: int) -> float:
    """P(XOR(Y) == m mod 2) for one set of angles: the one-row case of
    :func:`_pass_probabilities`."""
    return float(_pass_probabilities(state, np.array([angles], dtype=float), np.array([m]))[0])


def _anti_diagonal(state) -> np.ndarray:
    """rho[a, a-bar] for every basis index a (a-bar its bitwise complement);
    for a ket, psi_a conj(psi_{a-bar})."""
    if isinstance(state, StateVector):
        return state.amplitudes * state.amplitudes[::-1].conj()
    if isinstance(state, DensityOperator):
        return np.fliplr(state.matrix).diagonal()
    raise ConsensusError("state must be a StateVector or DensityOperator")


# Rows evaluated at once: a chunk of rounds draws at most 2^16 doubles, and
# the dense expectation holds no array above 2^16 entries (1 MiB), which
# measured as fast as 2^20 at 11 nodes.
_CHUNK_ENTRIES = 1 << 16


def _pass_probabilities(state, angles: np.ndarray, m: np.ndarray) -> np.ndarray:
    """P(XOR(Y) == m mod 2) = (1 + (-1)^m <O>) / 2 for each row of ``angles``
    and its m, with the parity observable O = (x)_j (cos theta_j X + sin theta_j Y)
    on a ket, a density operator or a :class:`_TwoBranches` form.

    A two-branch form gives <O> in O(n) per row (:func:`_branch_expectations`).
    On a ket or rho, O maps |a> to c(a) |a-bar> (a-bar the bitwise complement
    of a, c(a) = prod_j e^{i theta_j (1 - 2 a_j)}), so <O> = sum_a c(a)
    rho[a, a-bar] reads only the anti-diagonal.  c(a) is the product of the
    phases of a's first h = n // 2 bits and of its other bits, so with the
    anti-diagonal as a 2^h x 2^(n-h) matrix A, <O> = c_first^T A c_second:
    one matrix product per chunk of rows, and no row's 2^n phases are built.
    """
    rows, n = angles.shape
    anti = None if isinstance(state, _TwoBranches) else _anti_diagonal(state)
    if state.dim != 1 << n:
        raise ConsensusError("angle count must match the state's qubit count")
    if anti is None:
        expectation = state.weight * _branch_expectations(state, np.cos(angles), np.sin(angles))
    else:
        h = n // 2
        block = anti.reshape(1 << h, -1)
        expectation = np.empty(rows)
        step = max(1, _CHUNK_ENTRIES >> (n - h))
        for start in range(0, rows, step):
            chunk = angles[start : start + step]
            turns = np.stack([np.exp(1j * chunk), np.exp(-1j * chunk)], axis=2)
            first, second = _phases(turns[:, :h]), _phases(turns[:, h:])
            expectation[start : start + step] = np.einsum("rk,rk->r", first @ block, second).real
    sign = 1.0 - 2.0 * (m % 2)
    return np.clip(0.5 * (1.0 + sign * expectation), 0.0, 1.0)


def _phases(turns: np.ndarray) -> np.ndarray:
    """prod_j turns[r, j, a_j] for every row r and big-endian bit string a."""
    phases = np.ones((len(turns), 1), dtype=np.complex128)
    for j in range(turns.shape[1]):
        phases = (phases[:, :, None] * turns[:, j, None, :]).reshape(len(turns), -1)
    return phases


def mean_pass_probability(state) -> float:
    """The pass probability averaged over :func:`sample_theta_angles`,
    1/2 + Re rho[0, L] with L = 2^n - 1 (for a ket, 1/2 + Re psi_0 conj(psi_L)).

    With sum(theta_j) = m pi, (-1)^m c(a) in :func:`_pass_probabilities`
    is exp(-2i sum_j theta_j a_j).  The first n - 1 angles are i.i.d. uniform
    on [0, pi) and fix the last, so only a = 0...0 and 1...1 survive the
    average.  A :class:`_TwoBranches` form gives 1/2 + w Re psi_0 conj(psi_L)
    / ||psi||^2, evaluated in exact rationals of its doubles and rounded
    once, so that honest GHZ reads 1 exactly."""
    if isinstance(state, _TwoBranches):
        # The amplitudes of |0...0> and |1...1>.
        x0, y0, x1, y1 = state.alpha, state.beta, state.alpha, state.beta
        for a0, a1, b0, b1 in state.factors.tolist():
            x0, y0, x1, y1 = x0 * a0, y0 * b0, x1 * a1, y1 * b1
        corner = (x0 + y0) * (x1 + y1).conjugate()
        mean = 0.5 + Fraction(state.weight) * Fraction(corner.real) / Fraction(_norm(state))
    elif isinstance(state, StateVector):
        mean = 0.5 + float((state.amplitudes[0] * state.amplitudes[-1].conjugate()).real)
    else:
        mean = 0.5 + float(state.matrix[0, -1].real)
    return min(max(float(mean), 0.0), 1.0)


def _apply_cheats(state: StateVector | DensityOperator, nodes: Sequence[Node]):
    """Each dishonest node's cheat on its own qubit."""
    out = state
    for j, node in enumerate(nodes):
        if not node.honest and node.cheat is not None:
            out = out.apply(node.cheat, [j])
    return out


class _TwoBranches(NamedTuple):
    """The ket psi = alpha (x)_k a_k + beta (x)_k b_k, qubit 0 leftmost: a
    candidate with at most two nonzero amplitudes after one-qubit cheats.
    Row k of the ``(n, 4)`` array ``factors`` is (a_k[0], a_k[1], b_k[0], b_k[1]).
    ``weight`` w stands for w |psi><psi| + (1 - w) I/2^n: white noise has no
    anti-diagonal and cheats leave it alone, so w scales <O> and rho[0, L]."""

    alpha: complex
    beta: complex
    factors: np.ndarray
    weight: float = 1.0

    @property
    def dim(self) -> int:
        return 1 << len(self.factors)


def _branch_expectations(
    form: _TwoBranches, cos: np.ndarray, sin: np.ndarray, flip: bool = True
) -> np.ndarray:
    """Re <psi| (x)_k O_k |psi> for each row of ``cos`` and ``sin``, the
    cos theta_k and sin theta_k: O_k = cos theta_k X + sin theta_k Y =
    [[0, t_k], [conj(t_k), 0]] with t_k = e^{-i theta_k}, or, with ``flip``
    off and every theta_k = 0, O_k = I and the value is <psi|psi>.

    The branch pairs (x, y) = (a, a), (b, b) and (a, b) add w prod_k
    <x_k|O_k|y_k>, w = |alpha|^2, |beta|^2 and 2 conj(alpha) beta, where
    <x_k|O_k|y_k> = c_k t_k + d_k conj(t_k) = (c_k + d_k) cos theta_k +
    i (d_k - c_k) sin theta_k with c_k = conj(x_k[0]) y_k[1] and
    d_k = conj(x_k[1]) y_k[0]; with ``flip`` off, y_k[0] and y_k[1] trade
    places.  A pair with c_k = d_k = 0 on some qubit adds zero on every row
    and is skipped: on honest GHZ only the (a, b) pair is left.
    """
    a, b = form.factors[:, :2], form.factors[:, 2:]
    alpha, beta = form.alpha, form.beta
    pairs = ((a, a, alpha.real**2 + alpha.imag**2), (b, b, beta.real**2 + beta.imag**2),
             (a, b, 2.0 * alpha.conjugate() * beta))
    total = np.zeros(len(cos))
    for x, y, weight in pairs:
        y = y[:, ::-1] if flip else y
        c, d = x[:, 0].conj() * y[:, 0], x[:, 1].conj() * y[:, 1]
        if weight and np.all((c != 0) | (d != 0)):
            terms = (c + d) * cos
            terms += 1j * (d - c) * sin
            total += (weight * np.prod(terms, axis=1)).real
    return total


def _norm(form: _TwoBranches) -> float:
    """<psi|psi> of a two-branch form."""
    n = len(form.factors)
    return float(_branch_expectations(form, np.ones((1, n)), np.zeros((1, n)), flip=False)[0])


def _play(candidate: StateVector, nodes: Sequence[Node]):
    """The candidate after the dishonest nodes' cheats.  A candidate with at
    most two nonzero amplitudes (every GHZ candidate) becomes
    :class:`_TwoBranches`, renormalized when a cheat acts, as
    :meth:`StateVector.apply` renormalizes; any other stays dense."""
    support = np.flatnonzero(candidate.amplitudes)
    if support.size > 2:
        return _apply_cheats(candidate, nodes)
    n = candidate.num_qubits
    cheated = [not node.honest and node.cheat is not None for node in nodes]
    units = np.array([node.cheat if c else I2 for node, c in zip(nodes, cheated)])
    # A cheat maps its qubit's basis factor |bit> to column ``bit`` of the cheat.
    qubits, shifts = np.arange(n), np.arange(n - 1, -1, -1)
    a = units[qubits, :, (support[0] >> shifts) & 1]
    b = units[qubits, :, (support[-1] >> shifts) & 1]
    alpha = complex(candidate.amplitudes[support[0]])
    beta = complex(candidate.amplitudes[support[1]]) if support.size == 2 else 0j
    form = _TwoBranches(alpha, beta, np.hstack([a, b]))
    if any(cheated):
        scale = _rescale_factor(_norm(form), normalize=True)
        if scale is not None:
            form = form._replace(alpha=alpha * scale, beta=beta * scale)
    return form


def estimate_pass_probability(
    candidate: StateVector, network: Network, rounds: int, rng: RandomSource
) -> dict:
    """Bernoulli pass-rate estimate with its standard error.  The cheats are
    applied once (:func:`_play`), and each round's pass is drawn from its
    exact probability on the same immutable played state: a GHZ-like
    candidate in O(n) per round, any other in O(2^n)."""
    return _estimate(_checked_play(candidate, network, rounds), network, rounds, rng)


def _checked_play(candidate: StateVector, network: Network, rounds: int):
    """:func:`_play` on a candidate for ``rounds`` rounds on ``network``,
    after checking both."""
    if rounds < 1:
        raise ConsensusError("rounds must be positive")
    if candidate.dim != 1 << network.size:
        raise ConsensusError("candidate qubit count must match node count")
    return _play(candidate, network.nodes)


def _estimate(played, network: Network, rounds: int, rng: RandomSource) -> dict:
    """The pass rate of ``rounds`` θ rounds on ``played`` (a ket, a density
    operator or a :class:`_TwoBranches` form) with its standard error.

    A chunk of at most ``_CHUNK_ENTRIES`` doubles is one ``random((rows, n))``
    block: a row's first n - 1 doubles times pi are its free angles, and the
    round passes iff its last double u < P(theta) (:func:`_pass_probabilities`).
    numpy fills the block in C order and P(theta) is per row, so the passes
    do not depend on the chunk size.
    """
    n = network.size
    step = max(1, _CHUNK_ENTRIES // n)
    passes = 0
    for start in range(0, rounds, step):
        doubles = rng.generator.random((min(step, rounds - start), n))
        angles, m = _complete_angles(math.pi * doubles[:, :-1])
        passes += int(np.count_nonzero(doubles[:, -1] < _pass_probabilities(played, angles, m)))
    p_hat = passes / rounds
    return {
        "pass_rate": p_hat,
        "std_err": math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / rounds),
        "rounds": rounds,
    }


# ---------------------------------------------------------------------------
# Fidelity bounds
# ---------------------------------------------------------------------------


def ghz_fidelity(rho) -> float:
    """F = <GHZ_n| rho |GHZ_n>, read from rho[0, 0], rho[0, L], rho[L, 0] and
    rho[L, L] with L = 2^n - 1; for a ket, |psi_0 + psi_L|^2 / 2.

    The four entries are combined in the order of the row-vector contraction
    g^dag rho g, so a fidelity keeps the last digits that contraction gives.
    """
    if isinstance(rho, StateVector):
        amps = rho.amplitudes
        return float(abs(amps[0] + amps[-1]) ** 2 / 2.0)
    mat, g = rho.matrix, _INV_SQRT2
    first = g * mat[0, 0].real + g * mat[-1, 0].real
    last = g * mat[0, -1].real + g * mat[-1, -1].real
    return float(first * g + last * g)


# u^dag = q0 I + i (q1 X + q2 Y + q3 Z): a unit quaternion q spans every
# single-qubit unitary up to a global phase, and u^dag is linear in q.
_QUATERNION_BASIS = np.array([I2, 1j * PAULI_X, 1j * PAULI_Y, 1j * PAULI_Z])
_MAX_SWEEPS = 200
_STARTS = 8
_SWEEP_GAIN = 1e-14


@functools.lru_cache(maxsize=None)
def _starts(k: int) -> np.ndarray:
    """The read-only ``(_STARTS, k, 2, 2)`` u^dag of k cheaters at
    deterministic golden-ratio starts, u = Rz(alpha) Ry(beta) Rz(gamma)."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    mats = np.empty((_STARTS, k, 2, 2), dtype=np.complex128)
    for s in range(_STARTS):
        x = TWO_PI * np.array([(s * phi * (j + 1)) % 1.0 for j in range(3 * k)])
        for i, (alpha, beta, gamma) in enumerate(x.reshape(k, 3)):
            ca, sa = np.exp(-1j * alpha / 2), np.exp(1j * alpha / 2)
            cg, sg = np.exp(-1j * gamma / 2), np.exp(1j * gamma / 2)
            cb, sb = math.cos(beta / 2), math.sin(beta / 2)
            u = np.array([[ca * cb * cg, -ca * sb * sg], [sa * sb * cg, sa * cb * sg]])
            mats[s, i] = u.conj().T
    mats.flags.writeable = False
    return mats


def optimize_corrected_fidelity(rho: DensityOperator, dishonest: Sequence[int]) -> float:
    """Lower bound on max_U <GHZ| (I (x) U) rho (I (x) U)^dag |GHZ>, where U
    is a product of single-qubit unitaries on the dishonest qubits.

    Only the four 2^k x 2^k blocks <h_H| rho |h'_H> with the honest register
    all-0 or all-1 enter.  phi = U^dag |GHZ> on them is (x)_c u_c^dag[:, h]
    / sqrt(2) in half h (cheater bits big-endian), so with the other
    cheaters fixed the fidelity is a real quadratic form q^T M q in one
    cheater's quaternion, maximized by M's top eigenvector.  Block-coordinate
    ascent runs from golden-ratio starts in lockstep: a step forms every
    live start's M through one product with the block and one stacked
    ``eigh``, and a start stops once a sweep gains at most ``_SWEEP_GAIN``.
    The best value wins; any local maximum is still a valid lower bound.
    One cheater's M depends on no start, so one step is the exact optimum.
    """
    n = rho.dim.bit_length() - 1
    qubits = sorted(set(dishonest))
    if not qubits:
        return ghz_fidelity(rho)
    if qubits[0] < 0 or qubits[-1] >= n:
        raise ConsensusError("dishonest qubit index out of range")
    k = len(qubits)

    # Basis indices with the honest bits all 0, then all 1; cheater bits
    # vary.  With no honest node the two sets are the same, taken once.
    offsets = np.zeros(1, dtype=np.int64)
    for q in qubits:
        offsets = np.add.outer(offsets, [0, 1 << (n - 1 - q)]).ravel()
    honest_ones = (1 << n) - 1 - int(offsets[-1])
    index = np.concatenate([offsets, honest_ones + offsets]) if honest_ones else offsets
    block = rho.matrix[np.ix_(index, index)]

    mats = _starts(k)[: _STARTS if k > 1 else 1].copy()
    values = np.full(len(mats), -math.inf)
    live = np.arange(len(mats))
    basis = _QUATERNION_BASIS.transpose(2, 1, 0)  # [h, b, j]: column h of each u^dag
    for _ in range(_MAX_SWEEPS if k > 1 else 1):
        previous = values[live]
        for i in range(k):
            # Kronecker products of column h of the u^dag of the cheaters
            # before and after i, accumulated left to right.
            cols = mats[live].transpose(0, 1, 3, 2)
            left = right = np.ones((len(live), 2, 1))
            for c in range(i):
                left = (left[..., None] * cols[:, c, :, None, :]).reshape(len(live), 2, -1)
            for c in range(i + 1, k):
                right = (right[..., None] * cols[:, c, :, None, :]).reshape(len(live), 2, -1)
            kets = left[:, :, :, None, None, None] * basis[:, None, :, None, :]
            kets = (kets * right[:, :, None, None, :, None]).reshape(len(live), 2, -1, 4)
            # No honest node: the two halves index the same basis states, so their kets add.
            kets = kets.reshape(len(live), -1, 4) if honest_ones else kets[:, 0] + kets[:, 1]
            kets = kets * _INV_SQRT2
            bras = kets.conj().transpose(0, 2, 1)
            form = np.real((bras.reshape(-1, len(block)) @ block).reshape(bras.shape) @ kets)
            eigvals, eigvecs = np.linalg.eigh((form + form.transpose(0, 2, 1)) / 2.0)
            mats[live, i] = (eigvecs[:, :, -1] @ _QUATERNION_BASIS.reshape(4, 4)).reshape(-1, 2, 2)
            values[live] = eigvals[:, -1]
        live = live[values[live] - previous > _SWEEP_GAIN]
        if not live.size:
            break
    return min(float(values.max()), 1.0)


def check_fidelity_bounds(
    state,
    network: Network,
    rounds: int,
    rng: RandomSource,
    *,
    honest: bool = True,
) -> dict:
    """Verify the pass-rate fidelity bounds on a candidate state.

    Honest: F >= 2P - 1 within 3 standard errors of 2P - 1 at P0 = (1 + F)/2.
    Dishonest: the corrected fidelity F' (optimizer lower bound) satisfies
    4P - 3 <= F' within 3 standard errors of 4P - 3 at P0 = (3 + F')/4, with
    no slack: F' >= F >= 2P - 1 >= 4P - 3 for the mean pass rate P.
    ``std_err`` reports se(P^) of the sample.
    """
    if rounds < 1:
        raise ConsensusError("rounds must be positive")
    n = network.size
    rho = state.to_density() if isinstance(state, StateVector) else state
    if rho.dim != 1 << n:
        raise ConsensusError("state qubit count must match node count")

    # Pass rate of the (possibly cheated) state, drawn as consensus run draws it.
    rho_played = _apply_cheats(rho, network.nodes)
    est = _estimate(rho_played, network, rounds, rng)

    # With no cheater to correct, F' is the GHZ fidelity F.
    dishonest = [] if honest else [j for j, node in enumerate(network.nodes) if not node.honest]
    f = optimize_corrected_fidelity(rho_played, dishonest)
    return _bound_report(n, est, mean_pass_probability(rho_played), f, honest)


def _bound_report(n: int, est: dict, mean: float, f: float, honest: bool) -> dict:
    """The verdict of :func:`check_fidelity_bounds` on its estimate, P and F (F')."""
    c = 2.0 if honest else 4.0
    p0 = (c - 1.0 + f) / c
    se0 = math.sqrt(max(p0 * (1.0 - p0), 0.0) / est["rounds"])
    ok = c * est["pass_rate"] - (c - 1.0) <= f + 3.0 * c * se0 + 1e-9
    return {"n": n, **est, "mean_pass_probability": mean, "fidelity": f,
            "honest_bound_ok": ok if honest else None, "dishonest_bound_ok": None if honest else ok}


# ---------------------------------------------------------------------------
# Block admission
# ---------------------------------------------------------------------------


def admit_block(
    network: Network,
    candidate_supplier: Callable[[], StateVector],
    block_label: str,
    rounds: int = DEFAULT_ROUNDS,
    threshold: float = DEFAULT_THRESHOLD,
) -> dict:
    """Run verification rounds on the block state; admit on pass rate.

    The block source is called once, and every round's pass is drawn from
    its exact probability on that one state (:func:`estimate_pass_probability`).
    The state is played before the rounds and then dropped, so a 2^n ket is
    not held through them.  On acceptance every honest node appends the
    block to its local chain.
    """
    if threshold <= 0.0:
        # Degenerate configuration: everything is accepted.
        import warnings

        warnings.warn("threshold <= 0 accepts every block", stacklevel=2)
    played = _checked_play(candidate_supplier(), network, rounds)
    est = _estimate(played, network, rounds, network.rng)
    accepted = est["pass_rate"] >= threshold
    if accepted:
        for node in network.nodes:
            if node.honest:
                network.local_chains[node.id].append(block_label)
    return {
        "accepted": bool(accepted),
        "pass_rate": est["pass_rate"],
        "rounds": rounds,
        "threshold": threshold,
    }
