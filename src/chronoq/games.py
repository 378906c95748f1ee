"""Probabilistic games and communication protocols: Monty Hall variants,
teleportation games, superdense coding, the CHSH game, PBR Monty Hall games,
and QKD sessions.

Every game exposes two independent engines: an exact probability-tree
evaluator (rationals via ``fractions.Fraction`` wherever the game is
rational) and a seeded Monte Carlo simulation.  Agreement within three
standard errors is the standing cross-check, carried in :class:`GameStats`.

A Monte Carlo game is a rule over a few independent discrete draws: the
doors, the coins, a Born-sampled outcome.  A cell is one combination of
their values, and its probability is the product of theirs.  A game's plan
holds its rule scored once per cell and the cells' probabilities; it is
built once per setting, with the analytic value, and cached.  A call draws
how many trials fall in each cell as one ``Generator.multinomial`` over the
cells, which has the distribution of the counts of a trial-by-trial loop
and costs O(cells) at any number of trials.  QKD sessions return the keys
themselves, so they draw their qubits in fixed-size blocks of arrays and
sift them with a mask: a session makes a few numpy calls however many key
bits it keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product

import numpy as np

from .qcore import (
    CNOT,
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    RandomSource,
    StateVector,
    _INV_SQRT2,
    bell_state,
    born_distribution,
    is_integer,
    partial_trace,
    product_probabilities,
)

STICK, SWITCH = "stick", "switch"


class GameError(ValueError):
    pass


@dataclass(frozen=True)
class GameStats:
    """One Monte Carlo estimate against its analytic value.  A sample of no
    trials has no estimate: ``empirical`` and ``std_err`` are None, and it
    passes, since nothing can miss the target."""

    game: str
    strategy: str
    trials: int
    wins: int
    empirical: float | None
    analytic: float
    std_err: float | None
    passed: bool

    def to_dict(self) -> dict:
        """The fields by name, in declaration order."""
        return {name: getattr(self, name) for name in _STATS_FIELDS}


_STATS_FIELDS = tuple(f.name for f in fields(GameStats))


def _stats(game: str, strategy: str, wins: int, trials: int, analytic) -> GameStats:
    p = float(analytic)
    if not trials:
        return GameStats(game, strategy, 0, 0, None, p, None, True)
    emp = wins / trials
    se = math.sqrt(p * (1.0 - p) / trials)
    return GameStats(game, strategy, trials, wins, emp, p, se, abs(emp - p) <= 3.0 * se + 1e-12)


def _check_strategy(strategy: str):
    if strategy not in (STICK, SWITCH):
        raise GameError(f"strategy must be {STICK!r} or {SWITCH!r}")


@dataclass(frozen=True)
class _Plan:
    """A game's exact model, every array read-only.  ``draws`` are the
    probabilities of its independent draws as given (``Fraction`` objects
    where the game is rational), ``cells`` the flat float probability of
    every cell, and ``table`` the result of the rule at every cell: 0 lost,
    1 won, 2 void."""

    draws: tuple
    cells: np.ndarray
    table: np.ndarray


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _plan(rule, *draws) -> _Plan:
    """The plan of ``rule`` over ``draws``.

    Each of ``draws`` is the probability array of one independent draw, one
    axis per key it draws (a 2-D array is a joint draw of two keys).  The
    cells are every combination of keys in mixed-radix order, the first key
    most significant, and a cell's probability is the product of its draws'."""
    p = reduce(np.multiply.outer, [np.array(d, dtype=float) for d in draws])
    table = np.array([rule(*key) for key in np.ndindex(p.shape)], dtype=np.intp)
    exact = tuple(_read_only(np.array(d, dtype=object)) for d in draws)
    return _Plan(exact, _read_only(p.ravel()), _read_only(table))


def _draw(plan: _Plan, trials: int, rng: RandomSource) -> tuple[int, list[int]]:
    """``trials`` as a Python int, and how many of them fall in each result
    of ``plan``: one multinomial draw of the trials per cell, summed per
    result."""
    if not is_integer(trials):
        raise GameError(f"trials must be an integer, got {trials!r}")
    if trials < 0:
        raise GameError(f"trials must be nonnegative, got {trials}")
    trials = int(trials)
    counts = rng.generator.multinomial(trials, plan.cells)
    return trials, np.bincount(plan.table, weights=counts, minlength=3).astype(int).tolist()


def _uniform(k: int) -> list[Fraction]:
    return [Fraction(1, k)] * k


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


@lru_cache(maxsize=None)
def _monty_classic_model(strategy: str) -> tuple[_Plan, Fraction]:
    def won(prize, choice, coin):
        # Monty's goat door: forced when choice != prize, a fair pick otherwise.
        monty = [d for d in range(3) if d not in (choice, prize)][coin if choice == prize else 0]
        return (choice if strategy == STICK else 3 - choice - monty) == prize

    plan = _plan(won, _uniform(3), _uniform(3), _uniform(2))
    return plan, monty_classic_analytic(strategy)


def monty_classic(strategy: str, trials: int, rng: RandomSource) -> GameStats:
    _check_strategy(strategy)
    plan, analytic = _monty_classic_model(strategy)
    trials, (_, wins, _) = _draw(plan, trials, rng)
    return _stats("monty_classic", strategy, wins, trials, analytic)


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


@lru_cache(maxsize=None)
def _monty_ignorant_model(strategy: str) -> tuple[_Plan, dict]:
    def result(prize, choice, coin):  # void when Monty opens the prize door
        monty = [d for d in range(3) if d != choice][coin]
        final = choice if strategy == STICK else 3 - choice - monty
        return 2 if monty == prize else final == prize

    plan = _plan(result, _uniform(3), _uniform(3), _uniform(2))
    return plan, monty_ignorant_analytic(strategy)


def monty_ignorant(strategy: str, trials: int, rng: RandomSource) -> dict:
    _check_strategy(strategy)
    plan, analytic = _monty_ignorant_model(strategy)
    trials, (lost, won, accidents) = _draw(plan, trials, rng)
    return {
        "conditional": _stats("monty_ignorant", strategy, won, won + lost,
                              analytic["conditional"]),
        "prize_accident": _stats("monty_ignorant_accident", strategy, accidents, trials,
                                 analytic["prize_accident"]),
    }


# ---------------------------------------------------------------------------
# Teleportation
# ---------------------------------------------------------------------------

# Correction for channel beta_00, by Alice's outcome ab as the branch 2a + b.
_CORRECTIONS = [np.eye(2, dtype=np.complex128), PAULI_X, PAULI_Z, PAULI_Z @ PAULI_X]


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
        corrected = _CORRECTIONS[branch] @ bob
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


# Monty's two picks come from one uniform double u: door int(3u) of three
# and door int(2u) of two, so they are one joint draw over (int(3u), int(2u)).
_MONTY_THIRD_HALF = [
    [Fraction(1, 3), Fraction(0)],
    [Fraction(1, 6), Fraction(1, 6)],
    [Fraction(0), Fraction(1, 3)],
]


@lru_cache(maxsize=None)
def _alice_outcomes(channel: str) -> np.ndarray:
    """The Born weights of Alice's outcome ab when she teleports over the
    Bell channel beta_channel, a read-only array: a generic input state's
    branch probabilities, which are uniform regardless of the input."""
    psi = StateVector(np.array([0.6, 0.8j]), normalize=True)
    return _read_only(np.array([b["probability"] for b in teleport_branches(psi, channel)]))


@lru_cache(maxsize=None)
def _monty_teleport_model(strategy: str, channel: str) -> tuple[_Plan, Fraction]:
    probs = _alice_outcomes(channel)
    xy_door = int(channel, 2)
    others = [d for d in range(4) if d != xy_door]

    def won(pick, prize, third, half):
        if strategy == STICK:
            return prize == xy_door
        # Monty opens door ``third`` of the 3 other doors when the prize is
        # behind the contestant's, else door ``half`` of the 2 that hide
        # neither; the switch takes door ``pick`` of the two doors left.
        doors = others if prize == xy_door else [d for d in others if d != prize]
        monty = doors[third if prize == xy_door else half]
        return [d for d in others if d != monty][pick] == prize

    plan = _plan(won, _uniform(2), probs, _MONTY_THIRD_HALF)
    return plan, monty_teleport_analytic(strategy)


def monty_teleport(
    strategy: str, trials: int, rng: RandomSource, xy: tuple[int, int] = (0, 0)
) -> GameStats:
    """Full quantum protocol: the chosen Bell channel is used for an actual
    teleportation circuit; Alice's Born-sampled outcome is the prize door."""
    _check_strategy(strategy)
    try:
        x, y = xy
    except (TypeError, ValueError):
        raise GameError(f"xy must be two bits, got {xy!r}") from None
    if x not in (0, 1) or y not in (0, 1):
        raise GameError(f"xy must be two bits, got {xy!r}")
    plan, analytic = _monty_teleport_model(strategy, f"{int(x)}{int(y)}")
    trials, (_, wins, _) = _draw(plan, trials, rng)
    return _stats("monty_teleport", strategy, wins, trials, analytic)


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


@lru_cache(maxsize=None)
def _unreliable_teleport_model(strategy: str) -> tuple[_Plan, dict]:
    draws = [_uniform(2), _alice_outcomes("00")]
    if strategy == SWITCH:
        draws.append([Fraction(0), Fraction(1, 2), Fraction(1, 2)])  # door 01 or 10

    def result(kept_pos, ab, target=0):  # void when the received bit is 1
        return 2 if _door_bits(ab)[kept_pos] else ab == target

    return _plan(result, *draws), unreliable_teleport_analytic(strategy)


def unreliable_teleport(strategy: str, trials: int, rng: RandomSource) -> dict:
    _check_strategy(strategy)
    plan, analytic = _unreliable_teleport_model(strategy)
    trials, (lost, won, _) = _draw(plan, trials, rng)
    return {
        "conditional": _stats("unreliable_teleport", strategy, won, won + lost,
                              analytic["conditional"]),
        "received_bit0": _stats("unreliable_teleport_received0", strategy, won + lost, trials,
                                analytic["received_bit0"]),
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


@lru_cache(maxsize=None)
def _chsh_plan(strategy: str) -> _Plan:
    if strategy == "classical":
        # The referee's x*y is 1 with probability 1/4.
        return _plan(lambda xy: xy == 0, [Fraction(3, 4), Fraction(1, 4)])
    ua, ub = ([_dichotomic_eigenbasis(obs) for obs in chsh_game_settings()[k]] for k in "AB")
    cdfs = np.cumsum(
        [product_probabilities(bell_state("psi-"), [a, b]) for a, b in product(ua, ub)], axis=1
    )
    # Row 2x + y: the setting's probability 1/4 times each outcome's.
    cells = np.diff(np.minimum(cdfs, 1.0), prepend=0.0, append=1.0, axis=1) / 4

    def won(setting, ab):  # x * y == a xor b
        return (setting == 3) == ((ab >> 1) ^ (ab & 1))

    return _plan(won, cells)


def chsh_game(strategy: str, trials: int, rng: RandomSource) -> GameStats:
    """Referee sends x, y uniform; players win iff x*y == a xor b.

    The quantum players answer the outcome pair ab of a Born draw at their
    setting 2x + y: outcome ab falls between the Born CDF's entries ab - 1
    and ab, both capped at 1, and an unnormalized last entry below 1 leaves
    ab = 4, which loses.  The classical players both always answer 0, the
    best deterministic strategy, and win iff x*y == 0."""
    analytic = chsh_game_analytic(strategy)
    trials, (_, wins, _) = _draw(_chsh_plan(strategy), trials, rng)
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


@lru_cache(maxsize=None)
def _pbr_born_prize() -> np.ndarray:
    """The ontic game's prize door distribution, a read-only array: the Born
    weights of Psi_1 measured in the antidistinguishing basis."""
    return _read_only(born_distribution(pbr_states()[0], pbr_measurement_basis()))


def _exact(x) -> Fraction:
    """``x`` as an exact Fraction; a nan or infinite float raises GameError."""
    try:
        return Fraction(x)
    except (ValueError, OverflowError):
        raise GameError(f"q and its split must be finite numbers, got {x!r}") from None


def pbr_prize_distribution(ontology: str, q=Fraction(0), split=None) -> list[Fraction]:
    """Door probabilities P(A_1..A_4) for the chosen ontology."""
    if ontology == "ontic":
        return [Fraction(0), Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]
    if ontology != "epistemic":
        raise GameError("ontology must be 'ontic' or 'epistemic'")
    q = _exact(q)
    if split is None:
        split = (q / 3, q / 3, q / 3)
    q1, q2, q3 = (_exact(s) for s in split)
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


# The epistemic models are keyed by the caller's q and split: a bounded cache.
@lru_cache(maxsize=64)
def _pbr_model(ontology: str, strategy: str, q: Fraction, split) -> tuple[_Plan, dict]:
    if ontology == "ontic":
        prize_probs = _pbr_born_prize()
    else:
        prize_probs = pbr_prize_distribution(ontology, q, split)

    def result(contestant, monty_pick, switch_pick, prize):  # void when Monty opens the prize
        # Monty opens door 0, or door monty_pick + 1 when the contestant
        # holds door 0; the switch takes door switch_pick of the two doors
        # that are neither the contestant's nor Monty's.
        monty = monty_pick + 1 if contestant == 0 else 0
        if monty == prize:
            return 2
        options = [d for d in range(4) if d not in (contestant, monty)]
        return (contestant if strategy == STICK else options[switch_pick]) == prize

    plan = _plan(result, _uniform(4), _uniform(3), _uniform(2), prize_probs)
    return plan, pbr_analytic(strategy, ontology, q, split)


def pbr_game(
    ontology: str,
    strategy: str,
    trials: int,
    rng: RandomSource,
    q=Fraction(0),
    split=None,
) -> dict:
    """Monte Carlo engine; the ontic prize door is Born-sampled from the
    actual measurement of Psi_1 in the antidistinguishing basis.  The
    epistemic ``split`` may be any sequence of three numbers."""
    _check_strategy(strategy)
    if ontology == "epistemic":
        q, split = _exact(q), None if split is None else tuple(map(_exact, split))
    elif ontology == "ontic":
        q, split = Fraction(0), None  # the ontic prize ignores q and split
    else:
        raise GameError("ontology must be 'ontic' or 'epistemic'")
    plan, analytic = _pbr_model(ontology, strategy, q, split)
    trials, (lost, won, opened) = _draw(plan, trials, rng)
    return {
        "conditional": _stats(f"pbr_{ontology}", strategy, won, won + lost,
                              analytic["conditional"]),
        "opens_prize": _stats(f"pbr_{ontology}_opens_prize", strategy, opened, trials,
                              analytic["opens_prize"]),
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


# _BB84_P0[basis, prep_basis, prep_bit]: the probability of outcome 0 when
# the state _BB84_STATES[prep_basis, prep_bit] is measured in ``basis``.
_BB84_P0 = np.array([
    [[abs(np.vdot(_BB84_STATES[basis, 0], _BB84_STATES[prep, bit])) ** 2 for bit in (0, 1)]
     for prep in (0, 1)]
    for basis in (0, 1)
])


@lru_cache(maxsize=None)
def _e91_weights() -> tuple[np.ndarray, np.ndarray]:
    """Born weights of the four outcome pairs of phi+, both sides measuring Z,
    then both measuring X, as read-only arrays."""
    pair = bell_state("phi+")
    return tuple(
        _read_only(product_probabilities(pair, [ua, ua]))
        for ua in (_dichotomic_eigenbasis(PAULI_Z), _dichotomic_eigenbasis(PAULI_X))
    )


def qkd_session(
    protocol: str, key_bits: int, eavesdropper: str, rng: RandomSource
) -> dict:
    """BB84 or E91 key exchange; returns sifted keys and the quantum bit error rate.

    The qubits are drawn in blocks of a fixed size that depends only on
    ``key_bits``, every coin and double of a block as one array, and sifted
    by a mask; a block that falls short of ``key_bits`` sifted qubits is
    followed by another of the same size, and the key is the first
    ``key_bits`` qubits that pass.  A BB84 qubit's coins are its bit,
    Alice's basis, [Eve's basis,] and Bob's basis; its doubles are [Eve's
    and] Bob's measurement draws, each outcome 0 below its tabulated Born
    probability.  An E91 pair's coins are the two bases; its one double picks
    the outcome pair through ``RandomSource.choice_index``."""
    if not is_integer(key_bits) or key_bits < 1:
        raise GameError(f"key_bits must be a positive integer, got {key_bits!r}")
    key_bits = int(key_bits)
    if eavesdropper not in ("none", "intercept_resend"):
        raise GameError("eavesdropper must be 'none' or 'intercept_resend'")
    eve = eavesdropper == "intercept_resend"
    if protocol == "BB84":

        def sifted(size):
            coins = rng.integers(0, 2, (size, 3 + eve))
            u = rng.generator.random((size, 1 + eve))
            bit, basis_a, basis_b = coins[:, 0], coins[:, 1], coins[:, -1]
            prep_basis, prep_bit = basis_a, bit
            if eve:
                prep_basis = coins[:, 2]
                prep_bit = (u[:, 0] >= _BB84_P0[prep_basis, basis_a, bit]).astype(int)
            outcome_b = (u[:, -1] >= _BB84_P0[basis_b, prep_basis, prep_bit]).astype(int)
            keep = basis_a == basis_b
            return bit[keep], outcome_b[keep]

    elif protocol == "E91":
        if eve:
            raise GameError("the eavesdropper model is only wired for BB84")
        weights = _e91_weights()

        def sifted(size):
            bases = rng.integers(0, 2, (size, 2))
            u = rng.generator.random(size)
            keep = bases[:, 0] == bases[:, 1]
            u, z_basis = u[keep], bases[keep, 0] == 0
            outcome = np.where(
                z_basis, rng.choice_index(weights[0], u), rng.choice_index(weights[1], u)
            )
            return outcome >> 1, outcome & 1

    else:
        raise GameError("protocol must be 'BB84' or 'E91'")
    # Half the qubits of a block pass the sifting on average; the margin
    # puts key_bits more than five standard deviations below that mean.
    size = 2 * key_bits + 8 * math.isqrt(key_bits) + 64
    blocks, kept = [], 0
    while kept < key_bits:
        blocks.append(sifted(size))
        kept += len(blocks[-1][0])
    alice, bob = (np.concatenate(keys)[:key_bits] for keys in zip(*blocks))
    return {
        "alice_key": alice.tolist(),
        "bob_key": bob.tolist(),
        "qber": int(np.count_nonzero(alice != bob)) / key_bits,
    }
