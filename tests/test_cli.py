import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import chronoq
from chronoq import cli
from chronoq.cli import _ROWS, _plain, main, render_report
from chronoq.qcore import DEFAULT_ROUNDS, RandomSource

from dense_reference import cli_candidate_closed_forms, noisy_ghz_density


def run(args, **kwargs):
    return CliRunner().invoke(main, args, **kwargs)


def test_state_bell_json():
    res = run(["state", "--bell", "psi-", "--json"])
    assert res.exit_code == 0
    blob = json.loads(res.output)
    assert blob["state"] == "psi-"
    assert blob["num_qubits"] == 2


def test_state_mutually_exclusive_flags():
    res = run(["state", "--bell", "phi+", "--ghz", "3"])
    assert res.exit_code == 2


def test_unknown_command_exits_2():
    assert run(["nosuchcmd"]).exit_code == 2


def test_unknown_game_exits_2():
    assert run(["game", "nosuchgame"]).exit_code == 2


def test_game_monty_classic_json():
    res = run(["game", "monty-classic", "--strategy", "switch", "--trials", "5000", "--json"])
    assert res.exit_code == 0
    blob = json.loads(res.output)
    assert blob["analytic"] == pytest.approx(2 / 3)
    assert blob["passed"] is True


def test_game_monty_teleport_analytic_value():
    res = run(["game", "monty-teleport", "--strategy", "switch", "--trials", "5000",
               "--seed", "7", "--json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["analytic"] == 0.375


@pytest.mark.parametrize("seed", ["1", "42"])
def test_game_teleport_and_superdense_run_and_repeat(seed):
    for game in ("teleport", "superdense"):
        args = ["game", game, "--seed", seed, "--json"]
        first, second = run(args), run(args)
        assert first.exit_code == 0, first.output
        blob = json.loads(first.output)
        assert blob["game"] == game
        assert first.output.encode() == second.output.encode()
        if game == "teleport":
            assert blob["states"] == 200
            assert abs(blob["min_fidelity"] - 1.0) <= 1e-9
        else:
            assert blob["roundtrip"] == {bits: bits for bits in ("00", "01", "10", "11")}


def test_chain_demo_worked_example():
    res = run(["chain", "demo", "--records", "00,10,11", "--json"])
    assert res.exit_code == 0
    blob = json.loads(res.output)
    assert blob["records"] == "001011"
    assert blob["valid"] is True


def test_consensus_run_ideal():
    res = run(["consensus", "run", "--nodes", "4", "--rounds", "200",
               "--dishonest", "0", "--json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["pass_rate"] == 1.0


def test_swap_command():
    res = run(["swap", "--json"])
    assert res.exit_code == 0
    blob = json.loads(res.output)
    assert blob["photon1_consumed_before_photon4_created"] is True


def test_lg_k3_command():
    res = run(["lg", "k3", "--json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["k3_max"] == pytest.approx(1.5, abs=1e-6)


def test_gleason_roundtrip_command():
    res = run(["gleason", "roundtrip", "--dim", "2", "--frames", "200", "--json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["reconstruction_error"] <= 1e-8


def test_entropy_command():
    res = run(["entropy", "--trials", "1000", "--json"])
    assert res.exit_code == 0
    blob = json.loads(res.output)
    assert blob["uncertainty_bound_mub"] >= 1.0 - 1e-9
    assert blob["roundtrip"]["success_rate"] >= 0.9


def test_csv_and_json_flags_conflict():
    res = run(["state", "--json", "--csv"])
    assert res.exit_code == 2


def test_csv_rendering():
    res = run(["state", "--bell", "phi+", "--csv"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("state,") for line in lines)


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "report.json"
    res = run(["state", "--bell", "phi+", "--json", "--out", str(target)])
    assert res.exit_code == 0
    assert json.loads(target.read_text())["state"] == "phi+"


def test_env_seed_fallback(monkeypatch):
    r1 = run(["game", "monty-classic", "--trials", "2000", "--json"],
             env={"CHRONOQ_SEED": "123"})
    r2 = run(["game", "monty-classic", "--trials", "2000", "--seed", "123", "--json"])
    assert r1.output == r2.output


def test_byte_identical_reruns():
    commands = [
        ["state", "--ghz", "3", "--json"],
        ["game", "monty-classic", "--trials", "2000", "--json"],
        ["chain", "demo", "--json"],
        ["consensus", "run", "--rounds", "30", "--json"],
        ["lg", "entropic", "--json"],
        ["swap", "--json"],
    ]
    for cmd in commands:
        a = run(cmd)
        b = run(cmd)
        assert a.exit_code == 0
        assert a.output.encode() == b.output.encode()


# nan and inf are not finite rates; 1e-320 makes pi / (3 omega) overflow.
@pytest.mark.parametrize("command", ["k3", "temporal-chsh", "entropic"])
@pytest.mark.parametrize("omega", ["0", "-1", "nan", "inf", "1e-320"])
def test_lg_rejects_non_positive_omega(command, omega):
    res = run(["lg", command, "--omega", omega, "--json"])
    assert res.exit_code == 2
    assert "--omega" in res.output


@pytest.mark.parametrize(
    "args",
    [
        ["run", "--rounds", "0"],
        ["bounds", "--rounds", "0"],
        ["admit", "--rounds", "0"],
        ["run", "--nodes", "21"],
        ["bounds", "--nodes", "21"],
        ["admit", "--nodes", "21"],
        ["run", "--nodes", "1"],
        ["bounds", "--nodes", "1"],
        ["bounds", "--noise", "nan"],
        ["bounds", "--noise", "inf"],
        ["bounds", "--noise", "-0.1"],
        ["bounds", "--noise", "1.5"],
        ["run", "--rounds", "100001"],
        ["bounds", "--rounds", "100001"],
        ["admit", "--rounds", "100001"],
    ],
)
def test_consensus_usage_errors_exit_2(args):
    res = run(["consensus", *args, "--json"])
    assert res.exit_code == 2
    assert args[1] in res.output


def test_consensus_run_at_register_cap():
    res = run(["consensus", "run", "--nodes", "20", "--rounds", "2", "--json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["pass_rate"] == 1.0


# The CLI cheat (X + Z)/sqrt(2) on k < n qubits of GHZ: P = 1/2 + (-1)^k / 2^(k+1).
@pytest.mark.parametrize("dishonest, mean", [(0, 1.0), (1, 0.25), (2, 0.625), (3, 0.4375)])
def test_consensus_run_checks_the_mean_pass_probability(dishonest, mean):
    args = ["consensus", "run", "--nodes", "6", "--dishonest", str(dishonest), "--json"]
    for seed in ("1", "2", "42"):
        res = run([*args, "--seed", seed])
        assert res.exit_code == 0
        assert json.loads(res.output)["mean_pass_probability"] == pytest.approx(mean, abs=1e-12)


def test_consensus_run_fails_a_pass_rate_off_the_mean(monkeypatch):
    from chronoq import consensus

    monkeypatch.setattr(consensus, "mean_pass_probability", lambda state: 0.9)
    res = run(["consensus", "run", "--nodes", "6", "--dishonest", "1", "--json"])
    assert res.exit_code == 1


def test_consensus_bounds_seed_13_honest():
    res = run(["consensus", "bounds", "--seed", "13", "--json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["honest_bound_ok"] is True


@pytest.mark.parametrize(
    "args",
    [
        ["state", "--tol", "1"],
        ["consensus", "run", "--trials", "5"],
        ["chain", "demo", "--tol", "1e-3"],
        ["lg", "entropic", "--trials", "10"],
        ["game", "monty-classic", "--trials", "0"],
        ["game", "monty-classic", "--trials", "-1"],
        ["entropy", "--trials", "0"],
    ],
)
def test_unread_or_invalid_trials_and_tol_exit_2(args):
    res = run([*args, "--json"])
    assert res.exit_code == 2
    assert ("--trials" if "--trials" in args else "--tol") in res.output


def test_consensus_bounds_at_register_cap():
    res = run(["consensus", "bounds", "--nodes", "20", "--json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["fidelity"] == cli_candidate_closed_forms(20, 0, 0.1)[0]


def _child(code, *args):
    """Run ``code`` in a fresh interpreter with ``args`` as ``sys.argv[1:]``;
    its last stdout line is JSON."""
    src = str(Path(chronoq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


_FOOTPRINT = """
import json, sys
from chronoq.cli import main
try:
    main(sys.argv[1:], prog_name="chronoq")
except SystemExit as exc:
    code = exc.code
print()
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("chronoq.")),
                  "numpy" in sys.modules, "numpy.random" in sys.modules]))
"""


# Each command loads the chronoq modules it runs and no other, so that a
# child process does not compile code it never calls.  A usage error that
# click finds before the command runs loads neither numpy nor qcore, unless
# an option callback has loaded them: click runs --records' and --omega's on
# their defaults too.  (--help is covered at every level below.)
@pytest.mark.parametrize(
    "args, code, modules, numpy, random",
    [
        (["state", "--ghz", "99"], 2, [], False, False),
        (["state", "--json", "--csv"], 2, [], False, False),
        (["chain", "demo", "--json", "--csv"], 2, ["chain", "qcore", "temporal"], True, False),
        (["lg", "k3", "--json", "--csv"], 2, ["foundations", "qcore"], True, False),
        (["state", "--json"], 0, ["qcore"], True, False),
        (["consensus", "run", "--rounds", "5"], 0, ["consensus", "qcore"], True, True),
        (["chain", "demo"], 0, ["chain", "qcore", "temporal"], True, True),
        (["game", "qkd"], 0, ["games", "qcore"], True, True),
        (["entropy", "--block", "4", "--trials", "50"], 0, ["infotheory", "qcore"], True, True),
        (["lg", "k3"], 0, ["foundations", "qcore"], True, False),
        (["gleason", "roundtrip", "--frames", "10"], 0, ["foundations", "qcore"], True, True),
    ],
)
def test_command_import_footprint(args, code, modules, numpy, random):
    expected = sorted(f"chronoq.{m}" for m in ["_constants", "cli", *modules])
    assert _child(_FOOTPRINT, *args) == [code, expected, numpy, random]


def test_help_at_every_level_loads_no_numpy():
    code = """
import json, sys
import click
from chronoq.cli import main

def paths(group, prefix):
    for name, cmd in group.commands.items():
        yield [*prefix, name]
        if isinstance(cmd, click.Group):
            yield from paths(cmd, [*prefix, name])

codes = []
for path in [[], *paths(main, [])]:
    try:
        main([*path, "--help"], prog_name="chronoq")
    except SystemExit as exc:
        codes.append(exc.code)
print()
print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith("chronoq.")),
                  "numpy" in sys.modules]))
"""
    codes, modules, numpy = _child(code)
    # The group, its 4 subgroups and 15 commands.
    assert codes == [0] * 20
    assert modules == ["chronoq._constants", "chronoq.cli"]
    assert numpy is False


def test_chain_demo_leaves_numpy_ma_unloaded():
    # A bare np.unique takes numpy's hash path, which imports numpy.ma.
    code = """
import json, sys
from chronoq.cli import main
try:
    main(["chain", "demo", "--json"], prog_name="chronoq")
except SystemExit:
    pass
print()
print(json.dumps("numpy.ma" in sys.modules))
"""
    assert _child(code) is False


def test_package_loads_submodules_on_first_access():
    code = """
import json, sys
import chronoq
before = sorted(m for m in sys.modules if m.startswith("chronoq."))
chronoq.chain
from chronoq import games
print(json.dumps([before, sorted(m for m in sys.modules if m.startswith("chronoq.")),
                  [name for name in chronoq.__all__ if name in dir(chronoq)]]))
"""
    before, after, listed = _child(code)
    assert before == []
    assert after == ["chronoq._constants", "chronoq.chain", "chronoq.games", "chronoq.qcore",
                     "chronoq.temporal"]
    assert listed == chronoq.__all__
    with pytest.raises(AttributeError, match="has no attribute 'nosuch'"):
        chronoq.nosuch


def test_options_read_the_protocol_modules_constants():
    from chronoq import consensus, games, infotheory
    from chronoq.cli import _MONTY

    commands = dict(_leaf_commands(main))
    params = {(name, p.name): p for name, cmd in commands.items() for p in cmd.params}
    for name in ("consensus run", "consensus bounds", "consensus admit"):
        assert params[name, "rounds"].default == consensus.DEFAULT_ROUNDS
    assert params["consensus admit", "threshold"].default == consensus.DEFAULT_THRESHOLD
    assert params["entropy", "n"].type.max == infotheory.MAX_CODEC_BLOCK
    assert _MONTY == (games.STICK, games.SWITCH)


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    version = re.search(r'^version = "([^"]+)"', text, re.MULTILINE).group(1)
    assert chronoq.__version__ == version


# Canonical JSON of the seeded Monte Carlo commands.  A change to any
# engine's random stream, or to the order of its draws, shows up here.
PINNED_OUTPUTS = [
    (
        ["game", "chsh"],
        '{"analytic":0.8535533905932737,"empirical":0.85384,"game":"chsh_game","passed":true,"std_err":0.001118033988749895,"strategy":"quantum","trials":100000,"wins":85384}',
    ),
    (
        ["game", "monty-teleport", "--trials", "100000", "--seed", "7"],
        '{"analytic":0.375,"empirical":0.37557,"game":"monty_teleport","passed":true,"std_err":0.0015309310892394862,"strategy":"switch","trials":100000,"wins":37557}',
    ),
    (
        ["game", "pbr-ontic"],
        '{"conditional":{"analytic":0.36363636363636365,"empirical":0.36093073002499265,"game":"pbr_ontic","passed":true,"std_err":0.001589185510989336,"strategy":"switch","trials":91627,"wins":33071},"opens_prize":{"analytic":0.08333333333333333,"empirical":0.08373,"game":"pbr_ontic_opens_prize","passed":true,"std_err":0.0008740073734751263,"strategy":"switch","trials":100000,"wins":8373}}',
    ),
    (
        ["game", "pbr-epistemic"],
        '{"conditional":{"analytic":0.35,"empirical":0.3500503790423184,"game":"pbr_epistemic","passed":true,"std_err":0.0016519275989723113,"strategy":"switch","trials":83368,"wins":29183},"opens_prize":{"analytic":0.16666666666666666,"empirical":0.16632,"game":"pbr_epistemic_opens_prize","passed":true,"std_err":0.0011785113019775792,"strategy":"switch","trials":100000,"wins":16632}}',
    ),
    (
        ["game", "qkd", "--protocol", "BB84", "--eve", "intercept_resend"],
        '{"eavesdropper":"intercept_resend","game":"qkd","key_bits":128,"keys_match":false,"protocol":"BB84","qber":0.28125}',
    ),
    (
        ["game", "qkd", "--protocol", "E91"],
        '{"eavesdropper":"none","game":"qkd","key_bits":128,"keys_match":true,"protocol":"E91","qber":0.0}',
    ),
    (
        ["entropy", "--trials", "10000"],
        '{"block":20,"codeword_width":15,"rate":0.75,"roundtrip":{"rate_bits_per_symbol":0.75,"success_rate":0.9857},"source_entropy":0.499915958164528,"uncertainty_bound_mub":1.0000000000000002}',
    ),
    (
        ["game", "qkd", "--protocol", "BB84", "--eve", "none"],
        '{"eavesdropper":"none","game":"qkd","key_bits":128,"keys_match":true,"protocol":"BB84","qber":0.0}',
    ),
    (
        ["game", "qkd", "--key-bits", "100000", "--eve", "intercept_resend"],
        '{"eavesdropper":"intercept_resend","game":"qkd","key_bits":100000,"keys_match":false,"protocol":"BB84","qber":0.25182}',
    ),
    (
        ["entropy", "--block", "24", "--trials", "10000"],
        '{"block":24,"codeword_width":18,"rate":0.75,"roundtrip":{"rate_bits_per_symbol":0.75,"success_rate":0.988},"source_entropy":0.499915958164528,"uncertainty_bound_mub":1.0000000000000002}',
    ),
]


def _argv_id(args):
    """A pinned test's id: its argv, so that a re-pin edits only the value.
    The README reports all run at seed 42, which their ids leave out."""
    return " ".join(args)


@pytest.mark.parametrize(
    "args, expected", PINNED_OUTPUTS, ids=[_argv_id(args) for args, _ in PINNED_OUTPUTS]
)
def test_pinned_monte_carlo_outputs(args, expected):
    res = run([*args, "--json"])
    assert res.exit_code == 0
    assert res.output == expected + "\n"


def test_state_ghz_json_bytes():
    # 57471 bytes of amplitudes and probabilities, rendered from arrays.
    res = run(["state", "--ghz", "12", "--json"])
    assert res.exit_code == 0
    digest = hashlib.sha256(res.output.encode()).hexdigest()
    assert digest == "4c11d01626652c5e5348711a464670f610992695354de59d03e0da8c9521ca18"


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ([], "be7b38da10b6738135e66d18e64ec5163689f220359e0cb0e3627d483fc1cf4c"),
        (["--csv"], "89dec2348c997ec0f14a4401ceafe2f5adbf5d2547c2b1c84f0dec342db9f7d5"),
    ],
)
def test_state_ghz_table_and_csv_bytes(fmt, digest):
    res = run(["state", "--ghz", "12", *fmt])
    assert res.exit_code == 0
    assert hashlib.sha256(res.output.encode()).hexdigest() == digest


def _per_leaf_rendering(plain, fmt):
    """Table and CSV as rendered with one json.dumps per leaf."""

    def flatten(obj, prefix=""):
        if isinstance(obj, dict):
            for k in sorted(obj):
                yield from flatten(obj[k], f"{prefix}{k}.")
        elif isinstance(obj, list):
            for i, v in enumerate(obj):
                yield from flatten(v, f"{prefix}{i}.")
        else:
            yield prefix[:-1], obj

    if fmt == "csv":
        return "\n".join(["key,value"] + [f"{k},{json.dumps(v)}" for k, v in flatten(plain)])
    width = max((len(k) for k, _ in flatten(plain)), default=0)
    return "\n".join(f"{k.ljust(width)}  {json.dumps(v)}" for k, v in flatten(plain))


@pytest.mark.parametrize("fmt", ["table", "csv"])
def test_table_and_csv_leaves_are_their_json_text(fmt):
    report = {
        "floats": [0.1, -2.5e-300, 1e22, math.nan, math.inf, -math.inf, -0.0],
        "ints": [0, -7, 2**70, True, False],
        "text": ['a, "b"\n', None],
        "nested": {"z": [[1, {}], []], "a": {"deep": [np.float64(3.0), np.int64(4)]}},
        "complex": 1 - 2j,
    }
    assert render_report(report, fmt) == _per_leaf_rendering(_plain(report), fmt)
    assert render_report({}, fmt) == _per_leaf_rendering({}, fmt)


@pytest.mark.parametrize("fmt", ["table", "csv"])
def test_table_and_csv_array_entries_are_their_json_text(fmt):
    # Arrays are rendered a block of rows at a time; one spans two blocks.
    rows = _ROWS + 3
    report = {
        "long": np.arange(2 * rows, dtype=float).reshape(rows, 2) / 7,
        "nonfinite": np.array([[0.5, math.nan], [math.inf, -0.0]]),
        "ints": np.array([3, -1, 2**40], dtype=np.int64),
        "bools": np.array([True, False]),
        "cube": np.linspace(-1, 1, 24).reshape(2, 3, 4),
        "scalar": np.array(2.5),
        "empty": [np.zeros(0), np.zeros((3, 0))],
        "mixed": [{"a": np.array([1e-300, 1e300])}, 7],
    }
    assert render_report(report, fmt) == _per_leaf_rendering(_plain(report), fmt)


_SIGNED_ZEROS = [0.0, -0.0, np.float64(-0.0), np.float32(-0.0), complex(-0.0, -0.0), -0.0j]
_REPORT_LEAVES = st.one_of(
    st.sampled_from(_SIGNED_ZEROS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.none(),
    st.text("ab z", max_size=3),
    st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.0]), max_size=6).map(np.array),
    st.lists(st.sampled_from([0, -3]), max_size=3).map(np.array),
)
_REPORTS = st.dictionaries(
    st.text("abc", min_size=1, max_size=2),
    st.recursive(
        _REPORT_LEAVES,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text("abc", min_size=1, max_size=2), inner, max_size=3),
        max_leaves=12,
    ),
    max_size=4,
)
_NEGATIVE_ZERO = re.compile(r"-0\.0(?![0-9])")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(report=_REPORTS)
def test_no_rendering_prints_negative_zero(report):
    for fmt in ("json", "csv", "table"):
        assert not _NEGATIVE_ZERO.search(render_report(report, fmt))
    assert json.loads(render_report(report, "json")) == _plain(report)


def test_plain_keeps_int_and_bool_leaves():
    plain = _plain({"i": 3, "b": True, "n": np.int64(-2), "nb": np.bool_(False)})
    assert [(v, type(v)) for v in plain.values()] == [(3, int), (True, bool), (-2, int),
                                                       (False, bool)]


# The seeded QKD and θ-round commands, whose draws are fixed-shape blocks,
# pass their own checks over a range of seeds.  BB84 under intercept-resend
# must also keep its QBER within three standard errors of 1/4.
@pytest.mark.parametrize(
    "args",
    [
        ["game", "qkd", "--protocol", "BB84", "--eve", "none"],
        ["game", "qkd", "--protocol", "BB84", "--eve", "intercept_resend"],
        ["game", "qkd", "--protocol", "E91"],
        ["consensus", "run", "--dishonest", "1"],
    ],
)
def test_block_draws_pass_their_checks_at_seeds_1_to_20(args):
    for seed in range(1, 21):
        res = run([*args, "--seed", str(seed), "--json"])
        assert res.exit_code == 0, (seed, res.output)
        report = json.loads(res.output)
        if "intercept_resend" in args:
            se = math.sqrt(0.25 * 0.75 / report["key_bits"])
            assert abs(report["qber"] - 0.25) <= 3.0 * se, (seed, report)


# Canonical JSON of ``consensus bounds --dishonest d``: ``fidelity`` and
# ``mean_pass_probability`` are their closed forms rounded once.
PINNED_BOUNDS = [
    (1, 0, '{"dishonest_bound_ok":null,"fidelity":0.90625,"honest_bound_ok":true,"mean_pass_probability":0.95,"n":4,"pass_rate":0.95,"rounds":100,"std_err":0.021794494717703377}'),
    (1, 1, '{"dishonest_bound_ok":true,"fidelity":0.90625,"honest_bound_ok":null,"mean_pass_probability":0.275,"n":4,"pass_rate":0.32,"rounds":100,"std_err":0.0466476151587624}'),
    (1, 2, '{"dishonest_bound_ok":true,"fidelity":0.90625,"honest_bound_ok":null,"mean_pass_probability":0.6125,"n":4,"pass_rate":0.62,"rounds":100,"std_err":0.048538644398046386}'),
    (1, 3, '{"dishonest_bound_ok":true,"fidelity":0.90625,"honest_bound_ok":null,"mean_pass_probability":0.44375,"n":4,"pass_rate":0.44,"rounds":100,"std_err":0.04963869458396343}'),
    (2, 0, '{"dishonest_bound_ok":null,"fidelity":0.90625,"honest_bound_ok":true,"mean_pass_probability":0.95,"n":4,"pass_rate":0.93,"rounds":100,"std_err":0.02551470164434614}'),
    (2, 1, '{"dishonest_bound_ok":true,"fidelity":0.90625,"honest_bound_ok":null,"mean_pass_probability":0.275,"n":4,"pass_rate":0.32,"rounds":100,"std_err":0.0466476151587624}'),
    (2, 2, '{"dishonest_bound_ok":true,"fidelity":0.90625,"honest_bound_ok":null,"mean_pass_probability":0.6125,"n":4,"pass_rate":0.65,"rounds":100,"std_err":0.047696960070847276}'),
    (2, 3, '{"dishonest_bound_ok":true,"fidelity":0.90625,"honest_bound_ok":null,"mean_pass_probability":0.44375,"n":4,"pass_rate":0.53,"rounds":100,"std_err":0.04990991885387112}'),
    (42, 0, '{"dishonest_bound_ok":null,"fidelity":0.90625,"honest_bound_ok":true,"mean_pass_probability":0.95,"n":4,"pass_rate":0.92,"rounds":100,"std_err":0.027129319932501065}'),
    (42, 1, '{"dishonest_bound_ok":true,"fidelity":0.90625,"honest_bound_ok":null,"mean_pass_probability":0.275,"n":4,"pass_rate":0.25,"rounds":100,"std_err":0.04330127018922193}'),
    (42, 2, '{"dishonest_bound_ok":true,"fidelity":0.90625,"honest_bound_ok":null,"mean_pass_probability":0.6125,"n":4,"pass_rate":0.55,"rounds":100,"std_err":0.049749371855330994}'),
    (42, 3, '{"dishonest_bound_ok":true,"fidelity":0.90625,"honest_bound_ok":null,"mean_pass_probability":0.44375,"n":4,"pass_rate":0.42,"rounds":100,"std_err":0.04935585071701227}'),
]


@pytest.mark.parametrize(
    "seed, dishonest, expected",
    PINNED_BOUNDS,
    ids=[f"--dishonest {dishonest} --seed {seed}" for seed, dishonest, _ in PINNED_BOUNDS],
)
def test_pinned_consensus_bounds_outputs(seed, dishonest, expected):
    args = ["consensus", "bounds", "--dishonest", str(dishonest), "--seed", str(seed), "--json"]
    res = run(args)
    assert res.exit_code == 0
    assert res.output == expected + "\n"


@pytest.mark.parametrize("n", [2, 5, 9])
@pytest.mark.parametrize("seed", [1, 42])
def test_consensus_bounds_draws_as_the_dense_candidate(n, seed):
    # The played form draws the same rounds as check_fidelity_bounds on the
    # dense noisy candidate, and reaches the same verdict.
    from chronoq.consensus import check_fidelity_bounds

    for k in sorted({0, 1, n}):
        args = ["consensus", "bounds", "--nodes", str(n), "--dishonest", str(k), "--seed", str(seed)]
        report = json.loads(run([*args, "--json"]).output)
        rng = RandomSource(seed, 6)
        network = cli._build_network(n, k, rng)
        dense = check_fidelity_bounds(noisy_ghz_density(n, 0.1), network, DEFAULT_ROUNDS, rng,
                                      honest=k == 0)
        for key in ("pass_rate", "std_err", "honest_bound_ok", "dishonest_bound_ok"):
            assert report[key] == dense[key], (k, key)


def test_consensus_bounds_reports_exact_closed_forms():
    # F' = F = 1 - p + p/2^n and the mean pass probability of the CLI cheat,
    # each rounded once from exact rationals.
    for n in range(2, 12):
        for k in sorted({0, 1, n // 2, n}):
            for noise in ("0", "0.1", "0.5", "1"):
                args = ["consensus", "bounds", "--nodes", str(n), "--dishonest", str(k),
                        "--noise", noise, "--rounds", "1", "--json"]
                report = json.loads(run(args).output)
                fidelity, mean = cli_candidate_closed_forms(n, k, float(noise))
                assert (report["fidelity"], report["mean_pass_probability"]) == (fidelity, mean)


# The --json report at the default seed 42 of every README command that
# PINNED_OUTPUTS leaves out.
PINNED_REPORTS = [
    (
        ["state", "--bell", "psi-"],
        '{"amplitudes":[[0.0,0.0],[0.7071067811865475,0.0],[-0.7071067811865475,0.0],[0.0,0.0]],"num_qubits":2,"probabilities":[0.0,0.4999999999999999,0.4999999999999999,0.0],"state":"psi-"}',
    ),
    (
        ["entangle"],
        '{"chsh_psi_minus":2.82842712474619,"concurrence_psi_minus":1.0,"tsirelson":2.8284271247461903,"werner_chsh_crossing":0.7803300858899106,"werner_sweep":[{"F":0.0,"ppt_min_eigenvalue":0.16666666666666666},{"F":0.1,"ppt_min_eigenvalue":0.19999999999999987},{"F":0.2,"ppt_min_eigenvalue":0.23333333333333334},{"F":0.30000000000000004,"ppt_min_eigenvalue":0.19999999999999996},{"F":0.4,"ppt_min_eigenvalue":0.09999999999999998},{"F":0.5,"ppt_min_eigenvalue":-1.3877787807814457e-17},{"F":0.6000000000000001,"ppt_min_eigenvalue":-0.10000000000000009},{"F":0.7000000000000001,"ppt_min_eigenvalue":-0.20000000000000007},{"F":0.8,"ppt_min_eigenvalue":-0.3},{"F":0.9,"ppt_min_eigenvalue":-0.4},{"F":1.0,"ppt_min_eigenvalue":-0.5}]}',
    ),
    (
        ["swap"],
        '{"event_log":[{"event":"create","modes":["p1","p2"],"t":0},{"event":"delay","modes":["p2"],"t":0},{"event":"measure","modes":["p1"],"t":0},{"event":"create","modes":["p3","p4"],"t":1},{"event":"delay","modes":["p4"],"t":1},{"event":"measure","modes":["p2","p3"],"t":1},{"event":"measure","modes":["p4"],"t":2}],"middle_outcome":"phi-","outer_pair_fidelity":0.9999999999999993,"photon1_consumed_before_photon4_created":true,"photon1_outcome":1,"photon4_outcome":1}',
    ),
    (
        ["chain", "demo", "--records", "00,10,11"],
        '{"fidelity":1.0,"records":"001011","timestamps":[0,1,1,2,2,3],"valid":true}',
    ),
    (
        ["chain", "tamper", "--target", "p6"],
        '{"decode_error":"DECODE_MISMATCH","fidelity":0.0,"past_mode_access":null,"target":"p6"}',
    ),
    (
        ["chain", "contrast", "--blocks", "5", "--index", "1"],
        '{"invalidated_range_classical":[1,5],"invalidated_range_quantum":[0,5],"past_mode_access":"TEMPORAL_INACCESSIBLE","quantum_fidelity_after_tamper":0.0}',
    ),
    (
        ["consensus", "run", "--nodes", "4", "--rounds", "1000", "--dishonest", "0"],
        '{"dishonest":0,"mean_pass_probability":1.0,"n":4,"pass_rate":1.0,"rounds":1000,"std_err":0.0}',
    ),
    (
        ["consensus", "bounds", "--dishonest", "1"],
        '{"dishonest_bound_ok":true,"fidelity":0.90625,"honest_bound_ok":null,"mean_pass_probability":0.275,"n":4,"pass_rate":0.25,"rounds":100,"std_err":0.04330127018922193}',
    ),
    (
        ["consensus", "admit", "--threshold", "0.99"],
        '{"accepted":true,"local_chain_lengths":{"0":1,"1":1,"2":1,"3":1},"pass_rate":1.0,"rounds":100,"threshold":0.99}',
    ),
    (
        ["gleason", "roundtrip", "--dim", "3", "--frames", "10000"],
        '{"dim":3,"frame_average_error":0.004247519502466112,"frames":10000,"reconstruction_error":1.6653345369377348e-16}',
    ),
    (
        ["lg", "k3"],
        '{"classical_bound":1.0,"k3_max":1.5000000000000002,"tau_star":1.0471975511965976}',
    ),
    (
        ["lg", "temporal-chsh"],
        '{"tsirelson":2.8284271247461903,"value":2.82842712474619}',
    ),
    (
        ["lg", "entropic"],
        '{"gap":0.13425437997563217,"lhs":0.6083691072400437,"rhs":0.4741147272644115,"tau":0.39687663147121166,"violated":true}',
    ),
]


def assert_same_report(got, want, path="report"):
    """Ints, strings, bools and nulls exactly; floats to 1e-12 relative, with
    a 1e-15 floor for rounding noise about zero (a PPT eigenvalue of -1.4e-17),
    so that a host whose BLAS rounds differently still passes."""
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            assert_same_report(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_report(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15), (path, got, want)
    else:
        assert got == want, path


@pytest.mark.parametrize(
    "args, expected", PINNED_REPORTS, ids=[_argv_id(args) for args, _ in PINNED_REPORTS]
)
def test_pinned_readme_reports(args, expected):
    res = run([*args, "--seed", "42", "--json"])
    assert res.exit_code == 0
    assert_same_report(json.loads(res.output), json.loads(expected))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_report_refuses_nan_and_infinity(value):
    with pytest.raises(ValueError):
        render_report({"x": value}, "json")


@pytest.mark.parametrize(
    "game, seed",
    [("monty-ignorant", "1"), ("monty-ignorant", "3"), ("unreliable-teleport", "1"),
     ("pbr-epistemic", "3"), ("pbr-ontic", "3")],
)
def test_game_with_an_empty_conditioned_sample_reports_null(game, seed):
    # One trial, and at these seeds the game keeps no conditioned trial.  The
    # empty sample reports null and passes: it has no estimate to miss.  The
    # other sample still decides the exit code (one trial of pbr-ontic at
    # seed 3 opens the prize, beyond three standard errors of 1/12).
    res = run(["game", game, "--trials", "1", "--seed", seed, "--json"])
    report = json.loads(res.output, parse_constant=pytest.fail)
    (empty,) = [stats for stats in report.values() if stats["trials"] == 0]
    assert empty["wins"] == 0 and empty["passed"] is True
    assert empty["empirical"] is None and empty["std_err"] is None
    assert res.exit_code == (0 if all(stats["passed"] for stats in report.values()) else 1)
    assert res.exit_code == (1 if game == "pbr-ontic" else 0)


@pytest.mark.parametrize(
    "args, option",
    [
        (["gleason", "roundtrip", "--dim", "0"], "--dim"),
        (["gleason", "roundtrip", "--frames", "0"], "--frames"),
        (["gleason", "roundtrip", "--frames", "-2"], "--frames"),
        (["entropy", "--block", "0"], "--block"),
        (["entropy", "--block", "25"], "--block"),
        (["entropy", "--p", "1.5"], "--p"),
        (["entropy", "--p", "-0.1"], "--p"),
        (["entropy", "--p", "nan"], "--p"),
        (["game", "pbr-epistemic", "--q", "2"], "--q"),
        (["game", "pbr-epistemic", "--q", "0.76"], "--q"),
        (["game", "pbr-epistemic", "--q", "-0.1"], "--q"),
        (["game", "pbr-epistemic", "--q", "nan"], "--q"),
        (["game", "chsh", "--strategy", "stick"], "--strategy"),
        (["game", "monty-classic", "--strategy", "quantum"], "--strategy"),
        (["chain", "demo", "--records", "2x"], "--records"),
        (["chain", "demo", "--records", "0"], "--records"),
        (["chain", "demo", "--records", "000"], "--records"),
        (["chain", "demo", "--records", ",".join(["01"] * 11)], "--records"),
        (["chain", "demo", "--records", "00,,10"], "--records"),
        (["chain", "tamper", "--target", "p99"], "--target"),
        (["chain", "tamper", "--records", "00,11", "--target", "p5"], "--target"),
        (["state", "--ghz", "1"], "--ghz"),
        (["state", "--ghz", "21"], "--ghz"),
        (["state", "--bell", "foo"], "--bell"),
        (["entangle", "--werner-points", "-3"], "--werner-points"),
        (["entangle", "--werner-points", "0"], "--werner-points"),
        (["chain", "contrast", "--blocks", "0"], "--blocks"),
        (["chain", "contrast", "--blocks", "11"], "--blocks"),
        (["chain", "contrast", "--index", "9"], "--index"),
        (["chain", "contrast", "--blocks", "3", "--index", "-1"], "--index"),
        (["consensus", "admit", "--threshold", "nan"], "--threshold"),
        (["consensus", "admit", "--threshold", "0"], "--threshold"),
        (["consensus", "admit", "--threshold", "1.5"], "--threshold"),
        (["entropy", "--rate", "nan"], "--rate"),
        (["entropy", "--rate", "-1"], "--rate"),
        (["entropy", "--rate", "1.5"], "--rate"),
        (["lg", "temporal-chsh", "--dt", "nan"], "--dt"),
        (["lg", "temporal-chsh", "--dt", "inf"], "--dt"),
        (["lg", "temporal-chsh", "--dt", "-inf"], "--dt"),
        (["gleason", "roundtrip", "--dim", "33"], "--dim"),
        (["game", "monty-classic", "--trials", "10000001"], "--trials"),
        (["game", "qkd", "--key-bits", "0"], "--key-bits"),
        (["game", "qkd", "--protocol", "foo"], "--protocol"),
        (["game", "teleport", "--strategy", "bogus"], "--strategy"),
        (["entangle", "--werner-points", "10001"], "--werner-points"),
        (["game", "qkd", "--key-bits", "100001"], "--key-bits"),
        (["entropy", "--trials", "10001"], "--trials"),
        (["gleason", "roundtrip", "--frames", "20001"], "--frames"),
    ],
)
def test_out_of_range_options_exit_2(args, option):
    res = run([*args, "--json"])
    assert res.exit_code == 2
    assert option in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize(
    "args",
    [
        ["gleason", "roundtrip", "--dim", "1", "--frames", "1"],
        ["entropy", "--block", "1", "--trials", "50"],
        ["entropy", "--block", "24", "--p", "0", "--trials", "50"],
        ["entropy", "--p", "1", "--trials", "50"],
        ["game", "pbr-epistemic", "--q", "0.75", "--trials", "5000"],
        ["state", "--ghz", "2"],
        ["state", "--bell", "Ψ-"],
        ["entangle", "--werner-points", "1"],
        ["chain", "demo", "--records", ",".join(["10"] * 10)],
        ["chain", "tamper", "--records", "00,11", "--target", "p1"],
        ["chain", "contrast", "--blocks", "1", "--index", "0"],
        ["consensus", "admit", "--threshold", "1"],
        ["entropy", "--rate", "0", "--trials", "50"],
        ["entropy", "--rate", "1", "--trials", "50"],
        ["lg", "temporal-chsh", "--dt", "-2.5"],
        ["gleason", "roundtrip", "--dim", "32", "--frames", "1"],
        ["entropy", "--trials", "10000", "--block", "1"],
        ["entangle", "--werner-points", "10000"],
        ["game", "qkd", "--key-bits", "100000"],
        ["gleason", "roundtrip", "--frames", "20000"],
        ["consensus", "run", "--nodes", "2", "--rounds", "100000"],
        ["consensus", "bounds", "--nodes", "20", "--rounds", "100000"],
        ["consensus", "bounds", "--nodes", "20", "--dishonest", "20", "--rounds", "1"],
        ["consensus", "admit", "--rounds", "1"],
    ],
)
def test_option_range_endpoints_run(args):
    assert run([*args, "--json"]).exit_code == 0


def _leaf_commands(group, prefix=""):
    for name, cmd in group.commands.items():
        if isinstance(cmd, click.Group):
            yield from _leaf_commands(cmd, f"{prefix}{name} ")
        else:
            yield f"{prefix}{name}", cmd


def test_cli_knob_budget():
    """Every option and argument of every command, counted: adding one is a
    visible edit here."""
    commands = dict(_leaf_commands(main))
    assert len(commands) == 15
    assert sum(len(cmd.params) for cmd in commands.values()) == 95


# Arguments that keep each command cheap; a command missing here runs on its
# defaults.
_CHEAP_ARGS = {
    "entangle": ["--werner-points", "2"],
    "entropy": ["--block", "4", "--trials", "50"],
    "chain demo": ["--records", "01"],
    "chain tamper": ["--records", "01"],
    "chain contrast": ["--blocks", "2", "--index", "0"],
    "consensus run": ["--rounds", "5"],
    "consensus bounds": ["--nodes", "2", "--rounds", "20"],
    "consensus admit": ["--rounds", "5"],
    "game": ["monty-classic", "--trials", "100"],
    "gleason roundtrip": ["--dim", "2", "--frames", "10"],
}


@pytest.mark.parametrize("command", [name for name, _ in _leaf_commands(main)])
def test_every_command_renders_csv_and_rejects_json_with_csv(command):
    args = [*command.split(), *_CHEAP_ARGS.get(command, [])]
    assert run([*args, "--json", "--csv"]).exit_code == 2
    res = run([*args, "--csv"])
    assert res.exit_code == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "key,value"
    # The rows cover exactly the top-level keys of the JSON report.
    report = json.loads(run([*args, "--json"]).stdout)
    assert {line.split(",")[0].split(".")[0] for line in lines[1:]} == set(report)
