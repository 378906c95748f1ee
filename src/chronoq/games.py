"""Probabilistic games and communication protocols: Monty Hall variants,
teleportation games, superdense coding, the CHSH game, PBR Monty Hall games,
and QKD sessions.

Every game exposes two independent engines: an exact probability-tree
evaluator (rationals via ``fractions.Fraction`` wherever the game is
rational) and a seeded Monte Carlo simulation.  Agreement within three
standard errors is the standing cross-check, carried in :class:`GameStats`.

The Monte Carlo engines draw every random number of a game up front as
arrays, then decide all trials at once: door choices are lookup tables
indexed by the draws, and the CHSH outcomes one Born-CDF ``searchsorted``
per measurement setting.  The draws are the same generator calls in the
same order as a trial-by-trial loop, so every count is exactly the loop's
for any seed.  QKD sessions stay a loop, because the number of draws per
qubit depends on earlier draws; their Born probabilities are tabulated once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

import numpy as np

from .qcore import (
    CNOT,
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    DensityOperator,
    QcoreError,
    RandomSource,
    StateVector,
    bell_state,
    partial_trace,
)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

STICK, SWITCH = "stick", "switch"


class GameError(ValueError):
    pass


@dataclass(frozen=True)
class GameStats:
    game: str
    strategy: str
    trials: int
    wins: int
    empirical: float
    analytic: float
    std_err: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "game": self.game,
            "strategy": self.strategy,
            "trials": self.trials,
            "wins": self.wins,
            "empirical": self.empirical,
            "analytic": self.analytic,
            "std_err": self.std_err,
            "passed": self.passed,
        }


def _stats(game: str, strategy: str, wins: int, trials: int, analytic) -> GameStats:
    p = float(analytic)
    emp = wins / trials if trials else float("nan")
    se = math.sqrt(p * (1.0 - p) / trials) if trials else float("inf")
    passed = trials > 0 and abs(emp - p) <= 3.0 * se + 1e-12
    return GameStats(game, strategy, trials, wins, emp, p, se, passed)


def _check_strategy(strategy: str):
    if strategy not in (STICK, SWITCH):
        raise GameError(f"strategy must be {STICK!r} or {SWITCH!r}")


# ---------------------------------------------------------------------------
# Classic and ignorant Monty Hall
# ---------------------------------------------------------------------------


def monty_classic_analytic(strategy: str) -> Fraction:
    """Exact tree: prize uniform, choice uniform, Monty opens a goat door."""
    _check_strategy(strategy)
    win = Fraction(0)
    third = Fraction(1, 3)
    for prize, choice in product(range(3), range(3)):
        p_branch = third * third
        if choice == prize:
            goats = [d for d in range(3) if d != choice]
            for monty in goats:
                final = choice if strategy == STICK else 3 - choice - monty
                if final == prize:
                    win += p_branch * Fraction(1, 2)
        else:
            monty = 3 - choice - prize
            final = choice if strategy == STICK else 3 - choice - monty
            if final == prize:
                win += p_branch
    return win


def monty_classic(strategy: str, trials: int, rng: RandomSource) -> GameStats:
    _check_strategy(strategy)
    gen = rng.generator
    prize = gen.integers(0, 3, trials)
    choice = gen.integers(0, 3, trials)
    coin = gen.integers(0, 2, trials)
    # Monty's goat door: forced when choice != prize, a fair pick otherwise.
    others = np.array([[d for d in range(3) if d != c] for c in range(3)])
    monty = np.where(
        choice != prize, 3 - choice - prize, others[choice, coin]
    )
    final = choice if strategy == STICK else 3 - choice - monty
    wins = int(np.sum(final == prize))
    return _stats("monty_classic", strategy, wins, trials, monty_classic_analytic(strategy))


def monty_ignorant_analytic(strategy: str) -> dict:
    """Ignorant Monty opens uniformly among the two unchosen doors; results
    are conditioned on him opening a goat door."""
    _check_strategy(strategy)
    win = Fraction(0)
    goat = Fraction(0)
    third = Fraction(1, 3)
    for prize, choice in product(range(3), range(3)):
        p_branch = third * third
        for monty in (d for d in range(3) if d != choice):
            p = p_branch * Fraction(1, 2)
            if monty == prize:
                continue
            goat += p
            final = choice if strategy == STICK else 3 - choice - monty
            if final == prize:
                win += p
    return {"conditional": win / goat, "prize_accident": 1 - goat}


def monty_ignorant(strategy: str, trials: int, rng: RandomSource) -> dict:
    _check_strategy(strategy)
    gen = rng.generator
    prize = gen.integers(0, 3, trials)
    choice = gen.integers(0, 3, trials)
    coin = gen.integers(0, 2, trials)
    others = np.array([[d for d in range(3) if d != c] for c in range(3)])
    monty = others[choice, coin]
    accident = monty == prize
    kept = ~accident
    final = choice if strategy == STICK else 3 - choice - monty
    wins = int(np.sum((final == prize) & kept))
    analytic = monty_ignorant_analytic(strategy)
    return {
        "conditional": _stats(
            "monty_ignorant", strategy, wins, int(kept.sum()), analytic["conditional"]
        ),
        "prize_accident": _stats(
            "monty_ignorant_accident", strategy, int(accident.sum()), trials,
            analytic["prize_accident"],
        ),
    }


# ---------------------------------------------------------------------------
# Teleportation
# ---------------------------------------------------------------------------

# Correction for channel beta_00, by Alice's outcome ab.
_CORRECTIONS = {
    (0, 0): np.eye(2, dtype=np.complex128),
    (0, 1): PAULI_X,
    (1, 0): PAULI_Z,
    (1, 1): PAULI_Z @ PAULI_X,
}


def _teleport_premeasure(psi: StateVector, channel: str = "00") -> StateVector:
    """psi (x) beta_channel, after Alice's CNOT and Hadamard."""
    if psi.dim != 2:
        raise GameError("teleportation input must be a single qubit")
    state = psi.tensor(bell_state(channel))
    state = state.apply(CNOT, [0, 1])
    return state.apply(HADAMARD, [0])


def teleport_branches(psi: StateVector, channel: str = "00") -> list[dict]:
    """All four measurement branches: probability, Bob's conditional state,
    and fidelity with psi after the branch's correction."""
    state = _teleport_premeasure(psi, channel)
    amps = state.amplitudes.reshape(4, 2)
    out = []
    for branch in range(4):
        a, b = branch >> 1, branch & 1
        bob = amps[branch]
        prob = float(np.sum(np.abs(bob) ** 2))
        bob = bob / math.sqrt(prob)
        corrected = _CORRECTIONS[(a, b)] @ bob
        fid = float(abs(np.vdot(psi.amplitudes, corrected)) ** 2)
        out.append(
            {"branch": (a, b), "probability": prob,
             "bob_state": StateVector(corrected, normalize=True), "fidelity": fid}
        )
    return out


def teleport_standard(psi: StateVector, rng: RandomSource) -> dict:
    """One teleportation run plus the pre-message view of Bob's qubit."""
    state = _teleport_premeasure(psi)
    reduced = partial_trace(state.to_density(), [2, 2, 2], keep=[2])
    branches = teleport_branches(psi)
    idx = rng.choice_index([b["probability"] for b in branches])
    chosen = branches[idx]
    return {
        "branch": chosen["branch"],
        "fidelity": chosen["fidelity"],
        "bob_premeasure_reduced": reduced,
    }


# ---------------------------------------------------------------------------
# Monty Hall teleportation
# ---------------------------------------------------------------------------


def _door_bits(door: int) -> tuple[int, int]:
    return door >> 1, door & 1


def monty_teleport_analytic(strategy: str) -> Fraction:
    """Exact tree over prize door ab, Monty's door cd, and the switch pick."""
    _check_strategy(strategy)
    xy = 0  # contestant's door (Bell state beta_00)
    win = Fraction(0)
    quarter = Fraction(1, 4)
    for ab in range(4):
        if ab == xy:
            montys = [(d, Fraction(1, 3)) for d in range(4) if d != xy]
        else:
            montys = [(d, Fraction(1, 2)) for d in range(4) if d not in (xy, ab)]
        for cd, p_monty in montys:
            p_branch = quarter * p_monty
            if strategy == STICK:
                if ab == xy:
                    win += p_branch
            else:
                options = [d for d in range(4) if d not in (xy, cd)]
                for ef in options:
                    if ef == ab:
                        win += p_branch * Fraction(1, 2)
    return win


def monty_teleport(
    strategy: str, trials: int, rng: RandomSource, xy: tuple[int, int] = (0, 0)
) -> GameStats:
    """Full quantum protocol: the chosen Bell channel is used for an actual
    teleportation circuit; Alice's Born-sampled outcome is the prize door."""
    _check_strategy(strategy)
    channel = f"{xy[0]}{xy[1]}"
    xy_door = 2 * xy[0] + xy[1]
    # A generic input state; the outcome distribution is uniform regardless.
    psi = StateVector(np.array([0.6, 0.8j]), normalize=True)
    state = _teleport_premeasure(psi, channel)
    probs = np.sum(np.abs(state.amplitudes.reshape(4, 2)) ** 2, axis=1)

    gen = rng.generator
    ab = gen.choice(4, size=trials, p=probs / probs.sum())
    u = gen.random(trials)
    pick2 = gen.integers(0, 2, trials)
    if strategy == STICK:
        wins = int(np.sum(ab == xy_door))
    else:
        others = [d for d in range(4) if d != xy_door]
        # Monty opens monty_door[prize, int(u * k)]: any of the k = 3 other
        # doors when the prize is behind the contestant's, else one of the
        # k = 2 that hide neither (-1 pads those rows).
        monty_door = np.array(
            [others if prize == xy_door else [d for d in others if d != prize] + [-1]
             for prize in range(4)]
        )
        monty = monty_door[ab, (u * np.where(ab == xy_door, 3, 2)).astype(int)]
        # The switch takes switch_door[monty, pick2] of the two doors left;
        # the row of the contestant's door, which Monty never opens, is unused.
        switch_door = np.array([[d for d in others if d != cd][:2] for cd in range(4)])
        wins = int(np.count_nonzero(switch_door[monty, pick2] == ab))
    return _stats("monty_teleport", strategy, wins, trials, monty_teleport_analytic(strategy))


def monty_teleport_donothing_map(xy: tuple[int, int]) -> dict:
    """For channel beta_xy: which outcomes ab let Bob do nothing.

    Returns per-outcome fidelity of Bob's uncorrected state with psi; the
    uncorrected fidelity is 1 exactly when ab == xy (for beta_11 the match is
    up to the global sign -1, which is physically equivalent)."""
    psi = StateVector(np.array([0.28, 0.96]), normalize=True)
    channel = f"{xy[0]}{xy[1]}"
    state = _teleport_premeasure(psi, channel)
    amps = state.amplitudes.reshape(4, 2)
    out = {}
    for branch in range(4):
        bob = amps[branch]
        bob = bob / np.linalg.norm(bob)
        out[_door_bits(branch)] = float(abs(np.vdot(psi.amplitudes, bob)) ** 2)
    return out


# ---------------------------------------------------------------------------
# Unreliable teleportation
# ---------------------------------------------------------------------------


def unreliable_teleport_analytic(strategy: str) -> dict:
    """Channel beta_00; one of Alice's two bits is lost (each with prob 1/2);
    results conditioned on the received bit being 0."""
    _check_strategy(strategy)
    win = Fraction(0)
    received0 = Fraction(0)
    quarter = Fraction(1, 4)
    half = Fraction(1, 2)
    for ab in range(4):
        a, b = _door_bits(ab)
        for kept_pos, bit in ((0, a), (1, b)):
            p_branch = quarter * half
            if bit != 0:
                continue
            received0 += p_branch
            if strategy == STICK:
                if ab == 0:
                    win += p_branch
            else:
                for target in (1, 2):  # doors 01 and 10
                    if target == ab:
                        win += p_branch * half
    return {"conditional": win / received0, "received_bit0": received0}


def unreliable_teleport(strategy: str, trials: int, rng: RandomSource) -> dict:
    _check_strategy(strategy)
    psi = StateVector(np.array([0.6, 0.8]), normalize=True)
    state = _teleport_premeasure(psi, "00")
    probs = np.sum(np.abs(state.amplitudes.reshape(4, 2)) ** 2, axis=1)

    gen = rng.generator
    ab = gen.choice(4, size=trials, p=probs / probs.sum())
    kept_pos = gen.integers(0, 2, trials)
    bit = np.where(kept_pos == 0, ab >> 1, ab & 1)
    kept = bit == 0
    if strategy == STICK:
        wins = int(np.sum(kept & (ab == 0)))
    else:
        target = gen.integers(1, 3, trials)  # door 01 or 10
        wins = int(np.sum(kept & (target == ab)))
    analytic = unreliable_teleport_analytic(strategy)
    return {
        "conditional": _stats(
            "unreliable_teleport", strategy, wins, int(kept.sum()), analytic["conditional"]
        ),
        "received_bit0": _stats(
            "unreliable_teleport_received0", strategy, int(kept.sum()), trials,
            analytic["received_bit0"],
        ),
    }


# ---------------------------------------------------------------------------
# Superdense coding
# ---------------------------------------------------------------------------


def superdense_roundtrip(bits: str, rng: RandomSource) -> str:
    """Encode two classical bits on a shared phi+ pair and decode them."""
    if len(bits) != 2 or any(c not in "01" for c in bits):
        raise GameError("bits must be a 2-character 0/1 string")
    r1, r2 = int(bits[0]), int(bits[1])
    state = bell_state("phi+")
    if r2:
        state = state.apply(PAULI_X, [0])
    if r1:
        state = state.apply(PAULI_Z, [0])
    # Bob's Bell measurement is deterministic: the state is a Bell vector.
    for label, code in (("phi+", "00"), ("phi-", "10"), ("psi+", "01"), ("psi-", "11")):
        if state.equals_up_to_phase(bell_state(label)):
            return code
    raise GameError("encoded state is not a Bell state")  # pragma: no cover


# ---------------------------------------------------------------------------
# CHSH game
# ---------------------------------------------------------------------------


def _dichotomic_eigenbasis(obs: np.ndarray) -> np.ndarray:
    """Rows: eigenvector bras for outcomes +1 (bit 0) then -1 (bit 1)."""
    eigs, vecs = np.linalg.eigh(obs)
    order = np.argsort(-eigs)  # +1 first
    return vecs[:, order].conj().T


def chsh_game_settings() -> dict:
    """Observables reaching the quantum optimum on the singlet."""
    return {
        "A": [PAULI_Z, PAULI_X],
        "B": [-(PAULI_Z + PAULI_X) / math.sqrt(2.0), (PAULI_X - PAULI_Z) / math.sqrt(2.0)],
    }


def chsh_game_analytic(strategy: str) -> float:
    if strategy == "classical":
        return 0.75
    if strategy == "quantum":
        return 0.5 * (1.0 + math.sqrt(2.0) / 2.0)
    raise GameError("strategy must be 'classical' or 'quantum'")


def chsh_game(strategy: str, trials: int, rng: RandomSource) -> GameStats:
    """Referee sends x, y uniform; players win iff x*y == a xor b.

    The quantum players sample their outcome pair ab by inverting the Born
    CDF of their (x, y) setting at a uniform draw, one searchsorted per
    setting over all its trials."""
    analytic = chsh_game_analytic(strategy)
    gen = rng.generator
    x = gen.integers(0, 2, trials)
    y = gen.integers(0, 2, trials)
    if strategy == "classical":
        # Best deterministic strategy: both always answer 0.
        wins = int(np.sum((x & y) == 0))
    else:
        settings = chsh_game_settings()
        psi = bell_state("psi-").amplitudes
        u = gen.random(trials)
        outcome = np.empty(trials, dtype=np.int8)
        for qx, qy in product(range(2), range(2)):
            ua = _dichotomic_eigenbasis(settings["A"][qx])
            ub = _dichotomic_eigenbasis(settings["B"][qy])
            cdf = np.cumsum(np.abs(np.kron(ua, ub) @ psi) ** 2)
            sel = (x == qx) & (y == qy)
            outcome[sel] = np.searchsorted(cdf, u[sel])
        wins = int(np.count_nonzero((x & y) == ((outcome >> 1) ^ (outcome & 1))))
    return _stats("chsh_game", strategy, wins, trials, analytic)


# ---------------------------------------------------------------------------
# PBR Monty Hall games
# ---------------------------------------------------------------------------


def pbr_states() -> list[StateVector]:
    """Psi_1..Psi_4: products of |0>/|+| on two qubits."""
    zero = np.array([1.0, 0.0], dtype=np.complex128)
    plus = np.array([_INV_SQRT2, _INV_SQRT2], dtype=np.complex128)
    return [
        StateVector(np.kron(a, b))
        for a, b in ((zero, zero), (zero, plus), (plus, zero), (plus, plus))
    ]


def pbr_measurement_basis() -> list[StateVector]:
    """The antidistinguishing basis Phi_1..Phi_4."""
    zero = np.array([1.0, 0.0], dtype=np.complex128)
    one = np.array([0.0, 1.0], dtype=np.complex128)
    plus = (zero + one) * _INV_SQRT2
    minus = (zero - one) * _INV_SQRT2
    vecs = [
        np.kron(zero, one) + np.kron(one, zero),
        np.kron(zero, minus) + np.kron(one, plus),
        np.kron(plus, one) + np.kron(minus, zero),
        np.kron(plus, minus) + np.kron(minus, plus),
    ]
    return [StateVector(v * _INV_SQRT2) for v in vecs]


def pbr_prize_distribution(ontology: str, q=Fraction(0), split=None) -> list[Fraction]:
    """Door probabilities P(A_1..A_4) for the chosen ontology."""
    if ontology == "ontic":
        return [Fraction(0), Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]
    if ontology != "epistemic":
        raise GameError("ontology must be 'ontic' or 'epistemic'")
    q = Fraction(q)
    if split is None:
        split = (q / 3, q / 3, q / 3)
    q1, q2, q3 = (Fraction(s) for s in split)
    if q1 + q2 + q3 != q:
        raise GameError("split must sum to q")
    dist = [q, Fraction(1, 4) - q1, Fraction(1, 4) - q2, Fraction(1, 2) - q3]
    if any(p < 0 for p in dist) or q < 0:
        raise GameError("invalid q split: negative door probability")
    return dist


def pbr_analytic(strategy: str, ontology: str, q=Fraction(0), split=None) -> dict:
    """Exact tree over prize i, contestant j, Monty k, and the switch pick."""
    _check_strategy(strategy)
    prize_dist = pbr_prize_distribution(ontology, q, split)
    win = Fraction(0)
    goat = Fraction(0)
    opens_prize = Fraction(0)
    quarter = Fraction(1, 4)
    for i, p_i in enumerate(prize_dist):
        for j in range(4):
            p_ij = p_i * quarter
            if j == 0:
                montys = [(k, Fraction(1, 3)) for k in (1, 2, 3)]
            else:
                montys = [(0, Fraction(1))]
            for k, p_k in montys:
                p = p_ij * p_k
                if k == i:
                    opens_prize += p
                    continue
                goat += p
                if strategy == STICK:
                    if i == j:
                        win += p
                else:
                    for l in (d for d in range(4) if d not in (j, k)):
                        if l == i:
                            win += p * Fraction(1, 2)
    return {"conditional": win / goat, "opens_prize": opens_prize}


def pbr_game(
    ontology: str,
    strategy: str,
    trials: int,
    rng: RandomSource,
    q=Fraction(0),
    split=None,
) -> dict:
    """Monte Carlo engine; the ontic prize door is Born-sampled from the
    actual measurement of Psi_1 in the antidistinguishing basis."""
    _check_strategy(strategy)
    if ontology == "ontic":
        psi1 = pbr_states()[0]
        basis = pbr_measurement_basis()
        born = np.array(
            [abs(complex(np.vdot(b.amplitudes, psi1.amplitudes))) ** 2 for b in basis]
        )
        prize_probs = born / born.sum()
    else:
        prize_probs = np.array(
            [float(p) for p in pbr_prize_distribution(ontology, q, split)]
        )
    gen = rng.generator
    prize = gen.choice(4, size=trials, p=prize_probs)
    contestant = gen.integers(0, 4, trials)
    monty_pick = gen.integers(0, 3, trials)  # used only when contestant == door 0
    switch_pick = gen.integers(0, 2, trials)
    monty = np.where(contestant == 0, monty_pick + 1, 0)
    goat = monty != prize
    if strategy == STICK:
        wins = int(np.sum(goat & (contestant == prize)))
    else:
        # options[c, m] lists the two doors that are neither the contestant's
        # c nor Monty's m (Monty never opens the contestant's door).
        options = np.array(
            [[[d for d in range(4) if d not in (c, m)][:2] for m in range(4)] for c in range(4)]
        )
        wins = int(np.sum(goat & (options[contestant, monty, switch_pick] == prize)))
    analytic = pbr_analytic(strategy, ontology, q, split)
    return {
        "conditional": _stats(
            f"pbr_{ontology}", strategy, wins, int(goat.sum()), analytic["conditional"]
        ),
        "opens_prize": _stats(
            f"pbr_{ontology}_opens_prize", strategy, int(np.sum(~goat)), trials,
            analytic["opens_prize"],
        ),
    }


# ---------------------------------------------------------------------------
# QKD sessions
# ---------------------------------------------------------------------------

_BB84_STATES = {
    (0, 0): np.array([1.0, 0.0], dtype=np.complex128),  # Z basis, bit 0
    (0, 1): np.array([0.0, 1.0], dtype=np.complex128),
    (1, 0): np.array([_INV_SQRT2, _INV_SQRT2], dtype=np.complex128),  # X basis
    (1, 1): np.array([_INV_SQRT2, -_INV_SQRT2], dtype=np.complex128),
}


# Probability of outcome 0 when the state _BB84_STATES[prep] is measured in
# ``basis``, keyed (basis, prep).
_BB84_P0 = {
    (basis, prep): float(abs(np.vdot(_BB84_STATES[(basis, 0)], amp)) ** 2)
    for basis in (0, 1)
    for prep, amp in _BB84_STATES.items()
}


def qkd_session(
    protocol: str, key_bits: int, eavesdropper: str, rng: RandomSource
) -> dict:
    """BB84 or E91 key exchange; returns sifted keys and the quantum bit error rate.

    Each qubit costs a variable number of draws, so the session stays a
    loop; the measurement probabilities are tabulated once."""
    if key_bits < 1:
        raise GameError("key_bits must be positive")
    if eavesdropper not in ("none", "intercept_resend"):
        raise GameError("eavesdropper must be 'none' or 'intercept_resend'")
    alice_key: list[int] = []
    bob_key: list[int] = []
    if protocol == "BB84":
        while len(alice_key) < key_bits:
            bit = int(rng.integers(0, 2))
            basis_a = int(rng.integers(0, 2))
            prep = (basis_a, bit)
            if eavesdropper == "intercept_resend":
                basis_e = int(rng.integers(0, 2))
                prep = (basis_e, 0 if rng.uniform() < _BB84_P0[basis_e, prep] else 1)
            basis_b = int(rng.integers(0, 2))
            outcome_b = 0 if rng.uniform() < _BB84_P0[basis_b, prep] else 1
            if basis_a == basis_b:
                alice_key.append(bit)
                bob_key.append(outcome_b)
    elif protocol == "E91":
        if eavesdropper != "none":
            raise GameError("the eavesdropper model is only wired for BB84")
        pair = bell_state("phi+").amplitudes
        # Born probabilities of the four outcome pairs, both sides measuring Z or X.
        probs = [
            np.abs(np.kron(ua, ua) @ pair) ** 2
            for ua in (_dichotomic_eigenbasis(PAULI_Z), _dichotomic_eigenbasis(PAULI_X))
        ]
        while len(alice_key) < key_bits:
            basis_a = int(rng.integers(0, 2))
            basis_b = int(rng.integers(0, 2))
            if basis_a != basis_b:
                continue
            outcome = rng.choice_index(probs[basis_a])
            alice_key.append(outcome >> 1)
            bob_key.append(outcome & 1)
    else:
        raise GameError("protocol must be 'BB84' or 'E91'")
    errors = sum(a != b for a, b in zip(alice_key, bob_key))
    return {
        "alice_key": alice_key,
        "bob_key": bob_key,
        "qber": errors / len(alice_key),
    }
