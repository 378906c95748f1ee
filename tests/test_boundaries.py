"""Bad input at a library boundary raises the module's own error, not a
numpy or ``Fraction`` error from deep inside, and is never taken silently."""

import math

import numpy as np
import pytest

from chronoq.chain import build_chain, tamper
from chronoq.consensus import ConsensusError, Network, Node, admit_block
from chronoq.games import (
    GameError,
    chsh_game,
    monty_classic,
    monty_ignorant,
    monty_teleport,
    pbr_analytic,
    pbr_game,
    unreliable_teleport,
)
from chronoq.infotheory import InfoTheoryError, TypicalCodec
from chronoq.qcore import I2, RandomSource, ghz_state
from chronoq.temporal import TemporalError, TemporalRegister, apply_op, create_pair

NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize(
    "play",
    [
        lambda trials, rng: monty_classic("switch", trials, rng),
        lambda trials, rng: monty_ignorant("switch", trials, rng),
        lambda trials, rng: monty_teleport("switch", trials, rng),
        lambda trials, rng: unreliable_teleport("switch", trials, rng),
        lambda trials, rng: chsh_game("quantum", trials, rng),
        lambda trials, rng: pbr_game("ontic", "switch", trials, rng),
    ],
    ids=["monty_classic", "monty_ignorant", "monty_teleport", "unreliable_teleport",
         "chsh_game", "pbr_game"],
)
def test_a_negative_trial_count_raises_game_error(play):
    with pytest.raises(GameError, match="trials must be nonnegative"):
        play(-1, RandomSource(0, 0))


def _network(ids):
    return Network([Node(i) for i in ids], RandomSource(0, 0))


def _admit(threshold):
    return admit_block(_network(range(3)), lambda: ghz_state(3), "b", 10, threshold)


def _tamper_live_photon(op):
    chain = build_chain(["01", "10"], RandomSource(0, 0))
    return tamper(chain, "p4", op)


def _apply_to_a_pair(op):
    reg = TemporalRegister()
    create_pair(reg, "phi+", ("a", "b"), t=0)
    return apply_op(reg, op, ["a"])


PROJECTOR = np.diag([1.0, 0.0])

BOUNDARY_CASES = [
    *[(f"TypicalCodec-epsilon={x}", InfoTheoryError,
       lambda x=x: TypicalCodec(n=8, epsilon=x, source=[0.9, 0.1])) for x in NON_FINITE],
    *[(f"pbr_game-q={x}", GameError,
       lambda x=x: pbr_game("epistemic", "switch", 10, RandomSource(0, 0), q=x))
      for x in NON_FINITE],
    *[(f"pbr_analytic-q={x}", GameError,
       lambda x=x: pbr_analytic("switch", "epistemic", q=x)) for x in NON_FINITE],
    *[(f"admit_block-threshold={x}", ConsensusError, lambda x=x: _admit(x)) for x in NON_FINITE],
    ("Network-duplicate-ids", ConsensusError, lambda: _network([0, 1, 1])),
    ("apply_op-2I", TemporalError, lambda: _apply_to_a_pair(2 * I2)),
    ("apply_op-projector", TemporalError, lambda: _apply_to_a_pair(PROJECTOR)),
    ("tamper-2I", TemporalError, lambda: _tamper_live_photon(2 * I2)),
    ("tamper-projector", TemporalError, lambda: _tamper_live_photon(PROJECTOR)),
]


@pytest.mark.parametrize(
    "error, call", [case[1:] for case in BOUNDARY_CASES], ids=[case[0] for case in BOUNDARY_CASES]
)
def test_bad_input_at_a_library_boundary_raises_the_module_error(error, call):
    with pytest.raises(error):
        call()
