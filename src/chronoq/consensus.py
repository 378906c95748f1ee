"""GHZ-verification consensus: the theta-protocol over a simulated node network.

A verifier hands each node one qubit of a candidate n-qubit block state plus
a random angle theta_j in [0, pi) with sum(theta_j) = m * pi.  Each node
measures in the basis (1/sqrt(2))(|0> +- e^{i theta_j} |1>) and reports
Y_j in {0, 1}.  The round passes iff XOR(Y_j) == m (mod 2) — an ideal GHZ
state passes with probability 1, and the pass rate lower-bounds the GHZ
fidelity: F >= 2P - 1 for honest nodes, F' >= 4P - 3 when some nodes cheat
(F' being the best fidelity reachable by local corrections on the cheaters'
qubits).

The bound checks are one-sided tests on the sampled pass rate P^: a bound
is reported broken only when P^ exceeds the largest pass rate the bound
allows, P0 = (1 + F)/2 (honest) or (3 + F')/4 (dishonest), by more than
three standard errors of the bound's left side evaluated at P0, i.e.
3 * 2 se(P0) for 2P - 1 and 3 * 4 se(P0) for 4P - 3, where
se(P) = sqrt(P (1 - P) / rounds).  The standard error of P^ itself vanishes
as P^ -> 1 and would turn sampling noise into false alarms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .qcore import (
    DensityOperator,
    RandomSource,
    StateVector,
    ghz_state,
    kron_all,
)

TWO_PI = 2.0 * math.pi

DEFAULT_ROUNDS = 100
DEFAULT_THRESHOLD = 0.99
DISHONEST_BOUND_SLACK = 0.02  # optimizer slack on the corrected-fidelity maximum


class ConsensusError(ValueError):
    pass


@dataclass
class Node:
    id: int
    honest: bool = True
    cheat: np.ndarray | None = None  # unitary applied to this node's qubit


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

    def pick_verifier(self) -> int:
        return self.nodes[int(self.rng.integers(0, len(self.nodes)))].id


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
    head = [float(x) for x in rng.uniform(0.0, math.pi, n - 1)]
    partial = sum(head)
    m = math.ceil(partial / math.pi - 1e-12)
    last = m * math.pi - partial
    if last >= math.pi:  # partial hit an exact multiple of pi
        last -= math.pi
        m += 1
    if last < 0.0:
        last += math.pi
        m += 1
    angles = head + [last]
    total = sum(angles)
    m = round(total / math.pi)
    return angles, m


def theta_basis(theta: float) -> np.ndarray:
    """Rows are the bras <+theta| and <-theta|."""
    inv = 1.0 / math.sqrt(2.0)
    return np.array(
        [[inv, inv * np.exp(-1j * theta)], [inv, -inv * np.exp(-1j * theta)]],
        dtype=np.complex128,
    )


def _rotated_probabilities(state, angles: Sequence[float]) -> np.ndarray:
    """Born distribution over joint theta-basis outcomes (bit j = node j's Y)."""
    u = kron_all([theta_basis(t) for t in angles])
    if isinstance(state, StateVector):
        return np.abs(u @ state.amplitudes) ** 2
    if isinstance(state, DensityOperator):
        return np.clip(np.real(np.diag(u @ state.matrix @ u.conj().T)), 0.0, None)
    raise ConsensusError("state must be a StateVector or DensityOperator")


def _parity_vector(n: int) -> np.ndarray:
    idx = np.arange(1 << n)
    parity = np.zeros(1 << n, dtype=np.int64)
    for b in range(n):
        parity ^= (idx >> b) & 1
    return parity


def exact_pass_probability(state, angles: Sequence[float], m: int) -> float:
    """Sum of Born probabilities over outcomes with XOR(Y) == m (mod 2)."""
    n = len(angles)
    probs = _rotated_probabilities(state, angles)
    parity = _parity_vector(n)
    return float(probs[parity == (m % 2)].sum())


def theta_measure(state: StateVector, angles: Sequence[float], rng: RandomSource) -> tuple:
    """Sample every node's outcome jointly; returns Y bits, leftmost node first."""
    n = len(angles)
    probs = _rotated_probabilities(state, angles)
    idx = rng.choice_index(probs)
    return tuple((idx >> (n - 1 - j)) & 1 for j in range(n))


def _apply_cheats(state: StateVector, nodes: Sequence[Node]) -> StateVector:
    out = state
    for j, node in enumerate(nodes):
        if not node.honest and node.cheat is not None:
            out = out.apply(np.asarray(node.cheat, dtype=np.complex128), [j])
    return out


def run_round(network: Network, candidate: StateVector, rng: RandomSource) -> RoundResult:
    n = network.size
    if candidate.dim != (1 << n):
        raise ConsensusError("candidate qubit count must match node count")
    verifier = network.pick_verifier()
    angles, m = sample_theta_angles(n, rng)
    state = _apply_cheats(candidate, network.nodes)
    outcomes = theta_measure(state, angles, rng)
    passed = (sum(outcomes) % 2) == (m % 2)
    return RoundResult(verifier, tuple(angles), outcomes, m, passed)


def estimate_pass_probability(
    candidate_supplier: Callable[[], StateVector] | StateVector,
    network: Network,
    rounds: int,
    rng: RandomSource,
) -> dict:
    """Bernoulli pass-rate estimate with its standard error."""
    if rounds < 1:
        raise ConsensusError("rounds must be positive")
    passes = 0
    for _ in range(rounds):
        candidate = (
            candidate_supplier() if callable(candidate_supplier) else candidate_supplier
        )
        if run_round(network, candidate, rng).passed:
            passes += 1
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
    """F = <GHZ_n| rho |GHZ_n>."""
    if isinstance(rho, StateVector):
        rho = rho.to_density()
    n = rho.dim.bit_length() - 1
    g = ghz_state(n).amplitudes
    return float(np.real(g.conj() @ rho.matrix @ g))


def _single_qubit_unitary(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Rz(alpha) Ry(beta) Rz(gamma)."""
    ca, sa = np.exp(-1j * alpha / 2), np.exp(1j * alpha / 2)
    cg, sg = np.exp(-1j * gamma / 2), np.exp(1j * gamma / 2)
    cb, sb = math.cos(beta / 2), math.sin(beta / 2)
    return np.array(
        [[ca * cb * cg, -ca * sb * sg], [sa * sb * cg, sa * cb * sg]],
        dtype=np.complex128,
    )


def optimize_corrected_fidelity(
    rho: DensityOperator, dishonest: Sequence[int], starts: int = 8
) -> float:
    """Lower bound on max_U <GHZ| (I (x) U) rho (I (x) U)^dag |GHZ>, where U
    is a product of single-qubit unitaries on the dishonest qubits.

    Each unitary is parameterized by ZYZ Euler angles; a quasi-Newton search
    runs from several deterministic starting points and the best value wins.
    Any local maximum is still a valid lower bound on the true optimum.
    """
    from scipy.optimize import minimize

    n = rho.dim.bit_length() - 1
    qubits = list(dishonest)
    if not qubits:
        return ghz_fidelity(rho)
    k = len(qubits)

    def corrected(x: np.ndarray) -> float:
        mats = [np.eye(2, dtype=np.complex128)] * n
        for i, q in enumerate(qubits):
            mats[q] = _single_qubit_unitary(*x[3 * i : 3 * i + 3])
        u = kron_all(mats)
        return ghz_fidelity(DensityOperator(u @ rho.matrix @ u.conj().T, validate=False))

    # Deterministic low-discrepancy starting points (golden-ratio lattice).
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    start_points = [np.zeros(3 * k)]
    for s in range(1, starts):
        start_points.append(
            TWO_PI * np.array([(s * phi * (j + 1)) % 1.0 for j in range(3 * k)])
        )

    best = corrected(np.zeros(3 * k))
    for x0 in start_points:
        res = minimize(lambda x: -corrected(x), x0, method="Nelder-Mead",
                       options={"maxiter": 400 * k, "xatol": 1e-7, "fatol": 1e-10})
        best = max(best, float(-res.fun))
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
    4P - 3 <= F' + slack within 3 standard errors of 4P - 3 at
    P0 = (3 + F')/4.  ``std_err`` reports se(P^) of the sample.
    """
    n = network.size
    rho = state.to_density() if isinstance(state, StateVector) else state

    # Pass rate of the (possibly cheated) state.
    cheat_mats = [
        np.asarray(node.cheat, dtype=np.complex128)
        if (not node.honest and node.cheat is not None)
        else np.eye(2, dtype=np.complex128)
        for node in network.nodes
    ]
    u_cheat = kron_all(cheat_mats)
    rho_played = DensityOperator(u_cheat @ rho.matrix @ u_cheat.conj().T, validate=False)

    passes = 0
    for _ in range(rounds):
        angles, m = sample_theta_angles(n, rng)
        p_pass = exact_pass_probability(rho_played, angles, m)
        if rng.uniform() < p_pass:
            passes += 1
    p_hat = passes / rounds

    def std_err(p: float) -> float:
        return math.sqrt(max(p * (1.0 - p), 0.0) / rounds)

    se = std_err(p_hat)

    report = {
        "n": n,
        "rounds": rounds,
        "pass_rate": p_hat,
        "std_err": se,
    }
    if honest:
        f = ghz_fidelity(rho_played)
        report["fidelity"] = f
        report["honest_bound_ok"] = (
            f >= 2.0 * p_hat - 1.0 - 3.0 * 2.0 * std_err((1.0 + f) / 2.0) - 1e-9
        )
        report["dishonest_bound_ok"] = None
    else:
        dishonest = [j for j, node in enumerate(network.nodes) if not node.honest]
        f_prime = optimize_corrected_fidelity(rho_played, dishonest)
        report["fidelity"] = f_prime
        report["honest_bound_ok"] = None
        report["dishonest_bound_ok"] = (
            4.0 * p_hat - 3.0
            <= f_prime + DISHONEST_BOUND_SLACK + 3.0 * 4.0 * std_err((3.0 + f_prime) / 4.0)
        )
    return report


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
    """Run verification rounds on fresh candidate copies; admit on pass rate.

    The block source shares as many copies as needed (one per round).  On
    acceptance every honest node appends the block to its local chain.
    """
    if threshold <= 0.0:
        # Degenerate configuration: everything is accepted.
        import warnings

        warnings.warn("threshold <= 0 accepts every block", stacklevel=2)
    est = estimate_pass_probability(candidate_supplier, network, rounds, network.rng)
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


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True)
