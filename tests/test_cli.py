import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

import chronoq
from chronoq.cli import main


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
        ["bounds", "--nodes", "12"],
        ["bounds", "--noise", "nan"],
        ["bounds", "--noise", "inf"],
        ["bounds", "--noise", "-0.1"],
        ["bounds", "--noise", "1.5"],
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


def test_consensus_bounds_at_eleven_nodes():
    res = run(["consensus", "bounds", "--nodes", "11", "--json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["fidelity"] == pytest.approx(0.9 + 0.1 / 2**11, abs=1e-12)


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    version = re.search(r'^version = "([^"]+)"', text, re.MULTILINE).group(1)
    assert chronoq.__version__ == version
