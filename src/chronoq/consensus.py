"""GHZ-verification consensus: the theta-protocol over a simulated node network.

A verifier hands each node one qubit of a candidate n-qubit block state plus
a random angle theta_j in [0, pi) with sum(theta_j) = m * pi.  Each node
measures in the basis (1/sqrt(2))(|0> +- e^{i theta_j} |1>) and reports
Y_j in {0, 1}.  The round passes iff XOR(Y_j) == m (mod 2) — an ideal GHZ
state passes with probability 1, and the pass rate lower-bounds the GHZ
fidelity: F >= 2P - 1 for honest nodes, F' >= 4P - 3 when some nodes cheat
(F' being the best fidelity reachable by local corrections on the cheaters'
qubits).

The bound checks are one-sided tests on the sampled pass rate P^ of one
rule, c P - (c - 1) <= F with c = 2 (honest, F the GHZ fidelity) or c = 4
(dishonest, F = F'): a bound is reported broken only when P^ exceeds the
largest pass rate the bound allows, P0 = (c - 1 + F)/c, by more than three
standard errors of the bound's left side evaluated at P0, 3 c se(P0), where
se(P) = sqrt(P (1 - P) / rounds).  The standard error of P^ itself vanishes
as P^ -> 1 and would turn sampling noise into false alarms.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
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
    _rescale_factor,
    is_unitary,
    product_probabilities,
)

TWO_PI = 2.0 * math.pi
_GHZ_AMPLITUDE = 1.0 / math.sqrt(2.0)


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
        if not self.nodes:
            raise ConsensusError("network needs at least one node")
        for node in self.nodes:
            self.local_chains.setdefault(node.id, [])

    @property
    def size(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class RoundResult:
    verifier: int
    angles: tuple
    outcomes: tuple
    multiplicity: int  # m = sum(theta) / pi
    passed: bool


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


def theta_basis(theta: float) -> np.ndarray:
    """Rows are the bras <+theta| and <-theta|."""
    inv = 1.0 / math.sqrt(2.0)
    return np.array(
        [[inv, inv * np.exp(-1j * theta)], [inv, -inv * np.exp(-1j * theta)]],
        dtype=np.complex128,
    )


def exact_pass_probability(state, angles: Sequence[float], m: int) -> float:
    """P(XOR(Y) == m mod 2) for one set of angles: the one-row case of
    :func:`_pass_probabilities`."""
    return float(_pass_probabilities(_anti_diagonal(state), np.array([angles]), np.array([m]))[0])


def _anti_diagonal(state) -> np.ndarray:
    """rho[a, a-bar] for every basis index a (a-bar its bitwise complement);
    for a ket, psi_a conj(psi_{a-bar})."""
    if isinstance(state, StateVector):
        return state.amplitudes * state.amplitudes[::-1].conj()
    if isinstance(state, DensityOperator):
        return np.fliplr(state.matrix).diagonal()
    raise ConsensusError("state must be a StateVector or DensityOperator")


# Rows evaluated at once: a chunk of bound rounds holds no array above 2^16
# entries (1 MiB), which measured as fast as 2^20 at 11 nodes; a chunk of
# played rounds holds at most 2^16 angles.
_CHUNK_ENTRIES = 1 << 16


def _pass_probabilities(anti: np.ndarray, angles: np.ndarray, m: np.ndarray) -> np.ndarray:
    """P(XOR(Y) == m mod 2) = (1 + (-1)^m <O>) / 2 for each row of ``angles``
    and its m, with the parity observable O = (x)_j (cos theta_j X + sin theta_j Y).

    O maps |a> to c(a) |a-bar> (a-bar the bitwise complement of a,
    c(a) = prod_j e^{i theta_j (1 - 2 a_j)}), so <O> = sum_a c(a) rho[a, a-bar]
    reads only the anti-diagonal ``anti``.  c(a) is the product of the
    phases of a's first h = n // 2 bits and of its other bits, so with
    ``anti`` as a 2^h x 2^(n-h) matrix A, <O> = c_first^T A c_second: one
    matrix product per chunk of rows, and no row's 2^n phases are built.
    """
    rows, n = angles.shape
    if anti.shape != (1 << n,):
        raise ConsensusError("angle count must match the state's qubit count")
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
    average."""
    if isinstance(state, _TwoBranches):
        # The amplitudes of |0...0> and |1...1>.
        x0, y0, x1, y1 = state.alpha, state.beta, state.alpha, state.beta
        for a0, a1, b0, b1 in state.factors:
            x0, y0, x1, y1 = x0 * a0, y0 * b0, x1 * a1, y1 * b1
        corner = (x0 + y0) * (x1 + y1).conjugate()
    elif isinstance(state, StateVector):
        corner = state.amplitudes[0] * state.amplitudes[-1].conjugate()
    else:
        corner = state.matrix[0, -1]
    return min(max(0.5 + float(corner.real), 0.0), 1.0)


def theta_measure(state, angles: Sequence[float], rng: RandomSource) -> tuple:
    """Sample every node's outcome jointly from one ``rng`` double; returns Y
    bits, leftmost node first.  ``state`` is a :class:`StateVector` or the
    two-branch form that :func:`_play` builds."""
    if isinstance(state, _TwoBranches):
        # The one double that choice_index draws.
        return _descend(state, angles, rng.generator.random())
    n = len(angles)
    idx = rng.choice_index(product_probabilities(state, [theta_basis(t) for t in angles]))
    return tuple((idx >> (n - 1 - j)) & 1 for j in range(n))


def _apply_cheats(state: StateVector | DensityOperator, nodes: Sequence[Node]):
    """Each dishonest node's cheat on its own qubit."""
    out = state
    for j, node in enumerate(nodes):
        if not node.honest and node.cheat is not None:
            out = out.apply(node.cheat, [j])
    return out


class _TwoBranches(NamedTuple):
    """The ket alpha (x)_k a_k + beta (x)_k b_k, qubit 0 leftmost: a
    candidate with at most two nonzero amplitudes after one-qubit cheats.

    ``factors[k]`` is (a_k[0], a_k[1], b_k[0], b_k[1]).  ``tails[j]`` holds
    the products over qubits k >= j of <a_k|a_k>, <b_k|b_k> and <a_k|b_k>
    (``tails[n]`` is all ones).  A theta basis is unitary, so summing a
    prefix's outcomes over the qubits after it leaves these overlaps as
    they are: they are computed once, not per round.
    """

    alpha: complex
    beta: complex
    factors: list
    tails: list

    @property
    def dim(self) -> int:
        return 1 << len(self.factors)


def _weight(x: complex, y: complex, tail: tuple) -> float:
    """||x (x)_{k>=j} a_k + y (x)_{k>=j} b_k||^2 from ``tail`` = tails[j]."""
    aa, bb, ab = tail
    return (x.real**2 + x.imag**2) * aa + (y.real**2 + y.imag**2) * bb + 2.0 * (
        x.conjugate() * y * ab
    ).real


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
    overlaps = np.stack([np.sum(a.conj() * a, 1), np.sum(b.conj() * b, 1),
                         np.sum(a.conj() * b, 1)], axis=1)
    tails = np.cumprod(np.vstack([np.ones(3), overlaps[::-1]]), axis=0)[::-1]
    tails = [(aa.real, bb.real, ab) for aa, bb, ab in tails.tolist()]
    alpha = complex(candidate.amplitudes[support[0]])
    beta = complex(candidate.amplitudes[support[1]]) if support.size == 2 else 0j
    if any(cheated):
        scale = _rescale_factor(_weight(alpha, beta, tails[0]), normalize=True)
        if scale is not None:
            alpha, beta = alpha * scale, beta * scale
    return _TwoBranches(alpha, beta, np.hstack([a, b]).tolist(), tails)


def _descend(form: _TwoBranches, angles: Sequence[float], u: float) -> tuple:
    """The theta-basis outcome that the inverse CDF of ``u`` picks in the
    big-endian order of outcome indices, as ``RandomSource.choice_index``
    picks it from the dense Born distribution; returns Y bits, qubit 0 first.

    Qubit by qubit, ``rest`` is u times the total weight, minus the weight
    of every outcome before the current prefix; the next bit is 0 iff
    ``rest`` lies below the weight of the prefix extended by 0.
    """
    x, y = form.alpha, form.beta
    rest = u * _weight(x, y, form.tails[0])
    bits = []
    for theta, (a0, a1, b0, b1), (aa, bb, ab) in zip(angles, form.factors, form.tails[1:]):
        # sqrt(2) <+-theta| v = v_0 +- e^{-i theta} v_1: the weights below are
        # 2^(j+1) times the probabilities, so ``rest`` doubles, exactly.
        rest *= 2.0
        turn = cmath.exp(-1j * theta)
        x_plus, y_plus = x * (a0 + turn * a1), y * (b0 + turn * b1)
        # _weight(x_plus, y_plus, tails[j + 1]), inline: this loop is the round's cost.
        p0 = (x_plus.real**2 + x_plus.imag**2) * aa + (y_plus.real**2 + y_plus.imag**2) * bb
        p0 += 2.0 * (x_plus.conjugate() * y_plus * ab).real
        if rest < p0:
            x, y = x_plus, y_plus
            bits.append(0)
        else:
            rest -= p0
            x, y = x * (a0 - turn * a1), y * (b0 - turn * b1)
            bits.append(1)
    return tuple(bits)


def _check_candidate(network: Network, candidate):
    if candidate.dim != (1 << network.size):
        raise ConsensusError("candidate qubit count must match node count")


def _descend_rounds(form: _TwoBranches, angles: np.ndarray, u: np.ndarray) -> np.ndarray:
    """:func:`_descend` for every row of ``angles`` and its double in ``u``,
    one qubit at a time over all rows; returns the ``(rows, n)`` Y bits.

    The two branches' amplitudes x and y are a ``(2, rows)`` array, and one
    exponential over the whole angle block gives every qubit's turns.
    numpy's complex arithmetic and exponential may round otherwise than
    Python's ``complex`` and ``cmath``, so a row whose ``rest`` comes within
    1e-12 of a branch weight is played again by :func:`_descend`.  The 1e-12
    is relative to the total weight on the scale of ``rest``, 2^(j+1) times
    the candidate's at qubit j: ``rest`` carries the rounding of every
    weight subtracted before, doubled at each qubit since, so this bounds
    its error, while the weight of the current prefix can be smaller by up
    to 2^j.  It is the draw u lying within 1e-12 of an entry of the
    normalized CDF.
    """
    n, rows = angles.shape[1], len(u)
    factors = np.array(form.factors)[:, :, None]  # a0, a1, b0, b1 per qubit
    firsts, seconds = factors[:, 0::2], factors[:, 1::2]
    turns = -1j * angles.T
    np.exp(turns, out=turns)
    tails = np.array(form.tails[1:])  # aa, bb, ab per qubit
    weights, crosses = tails[:, :2].real, tails[:, 2]
    total = _weight(form.alpha, form.beta, form.tails[0])
    z = np.array([[form.alpha], [form.beta]])
    rest = u * total
    margin = np.empty((n, rows))
    ones = np.empty((n, rows), dtype=bool)
    for j in range(n):
        rest *= 2.0
        turned = turns[j] * seconds[j]
        z_zero = z * (firsts[j] + turned)
        p0 = weights[j] @ (z_zero.real**2 + z_zero.imag**2)
        if crosses[j]:  # zero on every tail but the last for a GHZ candidate
            p0 += 2.0 * (z_zero[0].conj() * z_zero[1] * crosses[j]).real
        np.subtract(rest, p0, out=margin[j])
        one = np.greater_equal(rest, p0, out=ones[j])
        rest = np.where(one, margin[j], rest)
        z = np.where(one, z * (firsts[j] - turned), z_zero)
    bits = ones.T.view(np.uint8)
    scale = total * 2.0 ** np.arange(1, n + 1)
    for r in np.flatnonzero((np.abs(margin) <= 1e-12 * scale[:, None]).any(axis=0)):
        bits[r] = _descend(form, angles[r].tolist(), float(u[r]))
    return bits


def _play_rounds(played, network: Network, rounds: int, rng: RandomSource):
    """θ rounds on ``played``, the candidate after the dishonest nodes'
    cheats, in chunks of at most ``_CHUNK_ENTRIES`` angles: yields per chunk
    the verifier indices into ``network.nodes``, the ``(rows, n)`` angles,
    their ``(rows,)`` m and the ``(rows, n)`` Y bits.

    A round draws ``integers(0, n)`` for its verifier, n - 1 angles
    ``uniform(0, pi)`` and the one double that ``RandomSource.choice_index``
    picks its outcome with.  These draws are replayed from raw generator
    words (``RandomSource._replayed_rounds``), so rounds, outcomes and the
    generator state left behind equal those of the draws made one round at
    a time.  A two-branch candidate descends all rows at once
    (:func:`_descend_rounds`); any other samples its Born distribution
    row by row.
    """
    n = network.size
    if n < 2:
        raise ConsensusError("need at least 2 angles")
    _check_candidate(network, played)
    step = max(1, _CHUNK_ENTRIES // n)
    for start in range(0, rounds, step):
        picks, words = rng._replayed_rounds(n, n, min(step, rounds - start))
        doubles = (words >> 11) * 2.0**-53
        angles, m = _complete_angles(math.pi * doubles[:, :-1])
        u = doubles[:, -1]
        if isinstance(played, _TwoBranches):
            outcomes = _descend_rounds(played, angles, u)
        else:
            picked = [
                rng.choice_index(product_probabilities(played, [theta_basis(t) for t in row]), ur)
                for row, ur in zip(angles.tolist(), u)
            ]
            outcomes = (np.array(picked)[:, None] >> np.arange(n - 1, -1, -1)) & 1
        yield picks, angles, m, outcomes


def run_round(network: Network, played, rng: RandomSource) -> RoundResult:
    """One θ round on ``played``, the candidate after the dishonest nodes'
    cheats (for an honest network, the candidate itself), as a
    :class:`StateVector` or as :func:`_play` builds it: the batch of one of
    :func:`_play_rounds`."""
    picks, angles, m, outcomes = next(_play_rounds(played, network, 1, rng))
    bits, parity = tuple(outcomes[0].tolist()), int(m[0])
    return RoundResult(
        network.nodes[int(picks[0])].id, tuple(angles[0].tolist()), bits, parity,
        sum(bits) % 2 == parity % 2,
    )


def estimate_pass_probability(
    candidate: StateVector, network: Network, rounds: int, rng: RandomSource
) -> dict:
    """Bernoulli pass-rate estimate with its standard error.  The cheats are
    applied once (:func:`_play`), and the rounds measure the same immutable
    played state in batches: a GHZ-like candidate in O(n) per round, any
    other in O(n 2^n)."""
    if rounds < 1:
        raise ConsensusError("rounds must be positive")
    _check_candidate(network, candidate)
    return _estimate(_play(candidate, network.nodes), network, rounds, rng)


def _estimate(played, network: Network, rounds: int, rng: RandomSource) -> dict:
    passes = sum(
        int(np.count_nonzero(outcomes.sum(axis=1) % 2 == m % 2))
        for _, _, m, outcomes in _play_rounds(played, network, rounds, rng)
    )
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
    mat, g = rho.matrix, _GHZ_AMPLITUDE
    first = g * mat[0, 0].real + g * mat[-1, 0].real
    last = g * mat[0, -1].real + g * mat[-1, -1].real
    return float(first * g + last * g)


def _single_qubit_unitary(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Rz(alpha) Ry(beta) Rz(gamma)."""
    ca, sa = np.exp(-1j * alpha / 2), np.exp(1j * alpha / 2)
    cg, sg = np.exp(-1j * gamma / 2), np.exp(1j * gamma / 2)
    cb, sb = math.cos(beta / 2), math.sin(beta / 2)
    return np.array(
        [[ca * cb * cg, -ca * sb * sg], [sa * sb * cg, sa * cb * sg]],
        dtype=np.complex128,
    )


# u^dag = q0 I + i (q1 X + q2 Y + q3 Z): a unit quaternion q spans every
# single-qubit unitary up to a global phase, and u^dag is linear in q.
_QUATERNION_BASIS = np.array([I2, 1j * PAULI_X, 1j * PAULI_Y, 1j * PAULI_Z])
_MAX_SWEEPS = 200
_STARTS = 8
_SWEEP_GAIN = 1e-14


def _ascend(block: np.ndarray, mats: list) -> float:
    """Block-coordinate ascent of <phi| block |phi> over the cheaters' u^dag.

    phi = U^dag |GHZ> restricted to the honest-all-0 and honest-all-1 halves
    is (x)_c mats[c][:, h] / sqrt(2) in half h (cheater bits big-endian), so
    with the other cheaters fixed the fidelity is a real quadratic form
    q^T M q in one cheater's quaternion, maximized by M's top eigenvector.
    A block as wide as one half means that no node is honest: the two
    halves index the same basis states, so their kets add.
    """
    value = -math.inf
    for _ in range(_MAX_SWEEPS):
        previous = value
        for i in range(len(mats)):
            halves = []
            for h in (0, 1):
                left = functools.reduce(np.kron, [u[:, h] for u in mats[:i]], np.ones(1))
                right = functools.reduce(np.kron, [u[:, h] for u in mats[i + 1 :]], np.ones(1))
                cols = _QUATERNION_BASIS[:, :, h]
                halves.append(np.einsum("a,jb,c->abcj", left, cols, right).reshape(-1, 4))
            if len(block) == len(halves[0]):
                kets = (halves[0] + halves[1]) * _GHZ_AMPLITUDE
            else:
                kets = np.concatenate(halves) * _GHZ_AMPLITUDE
            form = np.real(kets.conj().T @ block @ kets)
            eigvals, eigvecs = np.linalg.eigh((form + form.T) / 2.0)
            mats[i] = np.tensordot(eigvecs[:, -1], _QUATERNION_BASIS, axes=1)
            value = float(eigvals[-1])
        if value - previous <= _SWEEP_GAIN:
            break
    return value


def optimize_corrected_fidelity(rho: DensityOperator, dishonest: Sequence[int]) -> float:
    """Lower bound on max_U <GHZ| (I (x) U) rho (I (x) U)^dag |GHZ>, where U
    is a product of single-qubit unitaries on the dishonest qubits.

    Only the four 2^k x 2^k blocks <h_H| rho |h'_H> with the honest register
    all-0 or all-1 enter.  Each cheater's unitary is a unit quaternion and
    block-coordinate ascent takes the top eigenvector of a 4x4 form per step,
    which is the exact optimum for one cheater.  For several cheaters the
    ascent runs from deterministic golden-ratio starts and the best value
    wins; any local maximum is still a valid lower bound on the optimum.
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

    # Deterministic low-discrepancy starting points (golden-ratio lattice).
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    best = -math.inf
    for s in range(_STARTS):
        x = TWO_PI * np.array([(s * phi * (j + 1)) % 1.0 for j in range(3 * k)])
        mats = [_single_qubit_unitary(*x[3 * i : 3 * i + 3]).conj().T for i in range(k)]
        best = max(best, _ascend(block, mats))
    return min(best, 1.0)


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

    # Pass rate of the (possibly cheated) state.
    rho_played = _apply_cheats(rho, network.nodes)

    # A round draws n - 1 doubles for its angles, uniform(0, pi) = pi times
    # uniform(), and then one uniform() to decide the pass: every round at once.
    draws = rng.uniform(0.0, 1.0, (rounds, n))
    angles, m = _complete_angles(math.pi * draws[:, :-1])
    p_pass = _pass_probabilities(_anti_diagonal(rho_played), angles, m)
    p_hat = int(np.count_nonzero(draws[:, -1] < p_pass)) / rounds

    def std_err(p: float) -> float:
        return math.sqrt(max(p * (1.0 - p), 0.0) / rounds)

    # With no cheater to correct, F' is the GHZ fidelity F.
    dishonest = [] if honest else [j for j, node in enumerate(network.nodes) if not node.honest]
    c = 2.0 if honest else 4.0
    f = optimize_corrected_fidelity(rho_played, dishonest)
    ok = c * p_hat - (c - 1.0) <= f + 3.0 * c * std_err((c - 1.0 + f) / c) + 1e-9
    return {
        "n": n,
        "rounds": rounds,
        "pass_rate": p_hat,
        "std_err": std_err(p_hat),
        "mean_pass_probability": mean_pass_probability(rho_played),
        "fidelity": f,
        "honest_bound_ok": ok if honest else None,
        "dishonest_bound_ok": None if honest else ok,
    }


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
    """Run verification rounds on copies of the block state; admit on pass rate.

    The block source is called once: every round measures a copy of the
    same immutable state vector.  On acceptance every honest node appends
    the block to its local chain.
    """
    if threshold <= 0.0:
        # Degenerate configuration: everything is accepted.
        import warnings

        warnings.warn("threshold <= 0 accepts every block", stacklevel=2)
    est = estimate_pass_probability(candidate_supplier(), network, rounds, network.rng)
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
