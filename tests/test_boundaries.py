"""Bad input at a library boundary raises the module's own error, not a
numpy or ``Fraction`` error from deep inside, and is never taken silently."""

import math

import numpy as np
import pytest

from chronoq.chain import build_chain, tamper
from chronoq.consensus import ConsensusError, Network, Node, admit_block
from chronoq.foundations import (
    FoundationsError,
    Valuation,
    frame_average_reconstruct,
    gleason_vectors,
    sample_haar_frame,
)
from chronoq.games import (
    GameError,
    chsh_game,
    monty_classic,
    monty_ignorant,
    monty_teleport,
    pbr_analytic,
    pbr_game,
    qkd_session,
    unreliable_teleport,
)
from chronoq.infotheory import InfoTheoryError, TypicalCodec
from chronoq.qcore import I2, DensityOperator, QcoreError, RandomSource, ghz_state
from chronoq.temporal import (
    TemporalError,
    TemporalRegister,
    apply_op,
    create_pair,
    delay,
    fuse_fresh_pair,
)

NON_FINITE = [math.nan, math.inf, -math.inf]

GAMES = [
    lambda trials, rng: monty_classic("switch", trials, rng),
    lambda trials, rng: monty_ignorant("switch", trials, rng),
    lambda trials, rng: monty_teleport("switch", trials, rng),
    lambda trials, rng: unreliable_teleport("switch", trials, rng),
    lambda trials, rng: chsh_game("quantum", trials, rng),
    lambda trials, rng: pbr_game("ontic", "switch", trials, rng),
]
GAME_IDS = ["monty_classic", "monty_ignorant", "monty_teleport", "unreliable_teleport",
            "chsh_game", "pbr_game"]


@pytest.mark.parametrize("play", GAMES, ids=GAME_IDS)
def test_a_negative_trial_count_raises_game_error(play):
    with pytest.raises(GameError, match="trials must be nonnegative"):
        play(-1, RandomSource(0, 0))


# A count is a Python or numpy integer: a float, even a whole one, nan and a
# bool are refused, not truncated, divided by or played as one trial.
NON_INTEGERS = [2.5, np.float64(3.0), math.nan, True]
COUNTED_CALLS = [
    *[(name, GameError, play) for name, play in zip(GAME_IDS, GAMES)],
    ("qkd_session", GameError, lambda n, rng: qkd_session("BB84", n, "none", rng)),
    ("frame_average_reconstruct", FoundationsError,
     lambda n, rng: frame_average_reconstruct(DensityOperator(np.eye(2) / 2), n, rng)),
]


@pytest.mark.parametrize(
    "error, call, count",
    [(error, call, count) for _, error, call in COUNTED_CALLS for count in NON_INTEGERS],
    ids=[f"{name}-{count!r}" for name, _, _ in COUNTED_CALLS for count in NON_INTEGERS],
)
def test_a_non_integer_count_raises_the_module_error(error, call, count):
    with pytest.raises(error, match="integer"):
        call(count, RandomSource(0, 0))


@pytest.mark.parametrize(
    "call", [call for _, _, call in COUNTED_CALLS], ids=[name for name, _, _ in COUNTED_CALLS]
)
def test_a_numpy_integer_count_plays_as_the_python_integer(call):
    # The same report down to the types its repr shows, where a numpy scalar
    # would show, and the same stream after it.
    def played(count):
        rng = RandomSource(0, 0)
        result = call(count, rng)
        report = result.matrix.tobytes() if isinstance(result, DensityOperator) else repr(result)
        return report, rng.generator.random()

    assert played(np.int64(5)) == played(5)


def _fuse_onto_a_chain(t):
    chain = build_chain(["01"], RandomSource(0, 0))
    return fuse_fresh_pair(
        chain.register, "phi+", ("p3", "p4"), t, "p2", RandomSource(0, 1), 1, flip=False
    )


def _delay_a_pair(dt):
    reg = create_pair(TemporalRegister(), "phi+", ("a", "b"), t=0)
    return delay(reg, "b", dt)


# Time steps are integers too: a nan, infinite or fractional step or delay,
# or a bool, is refused, not truncated by the int() of its ModeId.
NON_INTEGER_STEPS = [math.nan, math.inf, 2.5, True]


@pytest.mark.parametrize(
    "call",
    [lambda t: create_pair(TemporalRegister(), "phi+", ("a", "b"), t), _fuse_onto_a_chain,
     _delay_a_pair],
    ids=["create_pair", "fuse_fresh_pair", "delay"],
)
@pytest.mark.parametrize("step", NON_INTEGER_STEPS, ids=repr)
def test_a_non_integer_time_step_raises_temporal_error(call, step):
    with pytest.raises(TemporalError, match="integer"):
        call(step)


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
    ("Valuation.from_density-frame-of-dim-3", QcoreError,
     lambda: Valuation.from_density(DensityOperator(np.eye(2) / 2), list(np.eye(3)))),
    ("gleason_vectors-empty-frame", QcoreError, lambda: gleason_vectors([])),
    ("gleason_vectors-ragged-frame", QcoreError,
     lambda: gleason_vectors([np.array([1.0, 0.0]), np.array([0.0, 1.0, 0.0])])),
    ("sample_haar_frame-d=-1", FoundationsError, lambda: sample_haar_frame(-1, RandomSource(0, 0))),
    ("sample_haar_frame-d=0", FoundationsError, lambda: sample_haar_frame(0, RandomSource(0, 0))),
]


@pytest.mark.parametrize(
    "error, call", [case[1:] for case in BOUNDARY_CASES], ids=[case[0] for case in BOUNDARY_CASES]
)
def test_bad_input_at_a_library_boundary_raises_the_module_error(error, call):
    with pytest.raises(error):
        call()
