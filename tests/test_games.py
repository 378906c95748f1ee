import math
from fractions import Fraction

import numpy as np
import pytest

from chronoq.games import (
    GameError,
    _pbr_born_prize,
    chsh_game,
    chsh_game_analytic,
    chsh_game_settings,
    monty_classic,
    monty_classic_analytic,
    monty_ignorant,
    monty_ignorant_analytic,
    monty_teleport,
    monty_teleport_analytic,
    monty_teleport_donothing_map,
    pbr_analytic,
    pbr_game,
    pbr_measurement_basis,
    pbr_prize_distribution,
    pbr_states,
    qkd_session,
    superdense_roundtrip,
    teleport_branches,
    teleport_standard,
    unreliable_teleport,
    unreliable_teleport_analytic,
)
from chronoq.qcore import RandomSource, StateVector, born_distribution

TRIALS = 20_000


def _random_state(gen):
    return StateVector(gen.normal(size=2) + 1j * gen.normal(size=2), normalize=True)


def test_monty_classic_analytic_exact():
    assert monty_classic_analytic("switch") == Fraction(2, 3)
    assert monty_classic_analytic("stick") == Fraction(1, 3)


def test_monty_classic_monte_carlo():
    rng = RandomSource(51, 0)
    for strategy in ("stick", "switch"):
        stats = monty_classic(strategy, TRIALS, rng)
        assert stats.passed


def test_monty_ignorant_analytic_exact():
    for strategy in ("stick", "switch"):
        a = monty_ignorant_analytic(strategy)
        assert a["conditional"] == Fraction(1, 2)
        assert a["prize_accident"] == Fraction(1, 3)


def test_monty_ignorant_monte_carlo():
    rng = RandomSource(52, 0)
    res = monty_ignorant("switch", TRIALS, rng)
    assert res["conditional"].passed
    assert res["prize_accident"].passed


def test_teleport_branches_all_unit_fidelity():
    gen = RandomSource(53, 0).generator
    for _ in range(50):
        psi = _random_state(gen)
        for branch in teleport_branches(psi):
            assert branch["probability"] == pytest.approx(0.25, abs=1e-9)
            assert branch["fidelity"] == pytest.approx(1.0, abs=1e-9)


def test_teleport_premeasure_bob_maximally_mixed():
    gen = RandomSource(54, 0).generator
    rng = RandomSource(54, 1)
    for _ in range(20):
        res = teleport_standard(_random_state(gen), rng)
        assert np.allclose(
            res["bob_premeasure_reduced"].matrix, np.eye(2) / 2, atol=1e-9
        )
        assert res["fidelity"] == pytest.approx(1.0, abs=1e-9)


def test_monty_teleport_analytic_exact():
    assert monty_teleport_analytic("stick") == Fraction(2, 8)
    assert monty_teleport_analytic("switch") == Fraction(3, 8)


def test_monty_teleport_monte_carlo():
    rng = RandomSource(55, 0)
    for strategy in ("stick", "switch"):
        assert monty_teleport(strategy, TRIALS, rng).passed


def test_monty_teleport_donothing_map():
    # For channel beta_00 Bob's do-nothing succeeds only on outcome 00.
    m = monty_teleport_donothing_map((0, 0))
    assert m[(0, 0)] == pytest.approx(1.0, abs=1e-9)
    for ab in ((0, 1), (1, 0), (1, 1)):
        assert m[ab] < 1.0 - 1e-6
    # For beta_11 the matching outcome is 11 (up to the sign convention).
    m11 = monty_teleport_donothing_map((1, 1))
    assert m11[(1, 1)] == pytest.approx(1.0, abs=1e-9)


def test_unreliable_teleport_analytic_exact():
    stick = unreliable_teleport_analytic("stick")
    switch = unreliable_teleport_analytic("switch")
    assert stick["conditional"] == Fraction(1, 2)
    assert switch["conditional"] == Fraction(1, 4)
    assert stick["received_bit0"] == Fraction(1, 2)


def test_unreliable_teleport_monte_carlo():
    rng = RandomSource(56, 0)
    for strategy in ("stick", "switch"):
        res = unreliable_teleport(strategy, TRIALS, rng)
        assert res["conditional"].passed
        assert res["received_bit0"].passed


def test_superdense_all_messages():
    rng = RandomSource(57, 0)
    for bits in ("00", "01", "10", "11"):
        assert superdense_roundtrip(bits, rng) == bits


def test_chsh_game_analytic():
    assert chsh_game_analytic("classical") == pytest.approx(0.75)
    assert chsh_game_analytic("quantum") == pytest.approx(0.5 * (1 + 1 / math.sqrt(2)))


def test_chsh_game_settings_dichotomic():
    settings = chsh_game_settings()
    for side in ("A", "B"):
        for obs in settings[side]:
            assert np.allclose(obs, obs.conj().T, atol=1e-12)
            assert np.allclose(obs @ obs, np.eye(2), atol=1e-12)


def test_chsh_game_monte_carlo():
    rng = RandomSource(58, 0)
    for strategy in ("classical", "quantum"):
        assert chsh_game(strategy, TRIALS, rng).passed


def test_pbr_states_antidistinguishing():
    # Each measurement vector is orthogonal to exactly one preparation.
    psis = pbr_states()
    basis = pbr_measurement_basis()
    gram = np.array(
        [
            [abs(complex(np.vdot(b.amplitudes, p.amplitudes))) ** 2 for p in psis]
            for b in basis
        ]
    )
    for j in range(4):
        zeros = np.isclose(gram[j], 0.0, atol=1e-9)
        assert zeros.sum() == 1


def test_pbr_analytic_exact():
    ontic_stick = pbr_analytic("stick", "ontic")
    ontic_switch = pbr_analytic("switch", "ontic")
    assert ontic_stick["conditional"] == Fraction(3, 11)
    assert ontic_switch["conditional"] == Fraction(4, 11)
    assert ontic_stick["opens_prize"] == Fraction(1, 12)
    for q in (Fraction(1, 8), Fraction(1, 4), Fraction(3, 8)):
        ep_stick = pbr_analytic("stick", "epistemic", q)
        ep_switch = pbr_analytic("switch", "epistemic", q)
        assert ep_stick["conditional"] == Fraction(3, 1) / (11 - 8 * q)
        assert ep_switch["conditional"] == (4 - 4 * q) / (11 - 8 * q)
    eq = Fraction(1, 4)
    assert (
        pbr_analytic("stick", "epistemic", eq)["conditional"]
        == pbr_analytic("switch", "epistemic", eq)["conditional"]
    )


def test_pbr_epistemic_split_invariance():
    q = Fraction(1, 8)
    default = pbr_analytic("switch", "epistemic", q)
    lopsided = pbr_analytic(
        "switch", "epistemic", q, split=[q, Fraction(0), Fraction(0)]
    )
    assert default["conditional"] == lopsided["conditional"]


def test_pbr_prize_distribution_validation():
    dist = pbr_prize_distribution("ontic")
    assert dist == [Fraction(0), Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]
    with pytest.raises(GameError):
        pbr_prize_distribution("epistemic", Fraction(2))


def test_pbr_born_prize_is_one_read_only_array():
    prize = _pbr_born_prize()
    assert _pbr_born_prize() is prize
    assert not prize.flags.writeable
    with pytest.raises(ValueError):
        prize[0] = 1.0
    assert np.array_equal(prize, born_distribution(pbr_states()[0], pbr_measurement_basis()))
    assert prize.tolist() == [float(p) for p in pbr_prize_distribution("ontic")]


def test_pbr_monte_carlo():
    rng = RandomSource(59, 0)
    for ontology in ("ontic", "epistemic"):
        res = pbr_game(ontology, "switch", TRIALS, rng, q=Fraction(1, 8))
        assert res["conditional"].passed
        assert res["opens_prize"].passed


def test_qkd_bb84_clean_and_eavesdropped():
    rng = RandomSource(60, 0)
    clean = qkd_session("BB84", 256, "none", rng)
    assert clean["alice_key"] == clean["bob_key"]
    assert clean["qber"] == 0.0
    noisy = qkd_session("BB84", 512, "intercept_resend", rng)
    se = math.sqrt(0.25 * 0.75 / 512)
    assert abs(noisy["qber"] - 0.25) <= 3 * se


def test_qkd_e91_clean():
    rng = RandomSource(61, 0)
    session = qkd_session("E91", 128, "none", rng)
    assert session["alice_key"] == session["bob_key"]
    assert session["qber"] == 0.0
