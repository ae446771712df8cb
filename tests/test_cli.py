"""End-to-end CLI behavior: subcommands, formats, exit codes."""

import json
import math

import pytest

from sagnac_qfi.cli import main

TAU = ["--set", f"profile.tau={math.pi}"]


def test_coeffs_csv(capsys):
    assert main(["coeffs", *TAU]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# sagnac-qfi v1\n")
    rows = dict(
        line.split(",") for line in out.splitlines() if not line.startswith("#")
    )
    assert float(rows["c2"]) == pytest.approx(0.5, abs=1e-14)
    assert float(rows["t_s"]) == pytest.approx(2.0 * math.pi, rel=1e-14)


def test_coeffs_json(capsys):
    assert main(["coeffs", *TAU, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["c1_re"] == pytest.approx(-1.0, abs=1e-14)


def test_qfi_reports_closed_forms(capsys):
    assert main(["qfi", *TAU, "--set", "n_particles=1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["f_partial"] == pytest.approx(8.0 + 4.0 * math.pi**2, rel=1e-12)
    assert payload["f_general"] == pytest.approx(payload["f_global"], rel=1e-10)
    assert payload["global_verdict"] == "wins"


def test_qfi_commensurate_field(capsys):
    assert (
        main(
            ["qfi", "--set", f"profile.tau={2.0 * math.pi}", "--set",
             "n_particles=100", "--format", "json"]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["f_commensurate"] == pytest.approx(4.0e4 * math.pi**2, rel=1e-12)
    assert payload["f_global"] == pytest.approx(payload["f_commensurate"], rel=1e-9)


def test_scan_n_writes_file(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = main(
        ["scan-n", *TAU, "--set", "sweep.points=5", "--out", str(out)]
    )
    assert code == 0
    text = out.read_text()
    assert text.startswith("# sagnac-qfi v1\n")
    assert "# slope_log10 = " in text
    assert capsys.readouterr().out == ""


def test_scan_output_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["scan-n", *TAU, "--set", "sweep.points=6"]
    assert main([*args, "--out", str(a)]) == 0
    assert main([*args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_unknown_key_exits_2(capsys):
    assert main(["qfi", "--set", "physical.chirality=3"]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_missing_tau_exits_2(capsys):
    assert main(["qfi"]) == 2
    assert "profile.tau" in capsys.readouterr().err


def test_bad_state_kind_exits_2(capsys):
    assert main(["qfi", *TAU, "--set", "state.kind=thermal"]) == 2


def test_oracle_check_passes(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["oracle-check", "--set", "oracle.n_max=1", "--format", "json",
         "--out", str(out), "--seed", "3"]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["all_passed"] is True
    assert payload["seed"] == 3


def test_oracle_check_fault_exits_3(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["oracle-check", "--set", "oracle.n_max=1", "--set",
         "oracle.inject_fault=c2-sign", "--format", "json", "--out", str(out)]
    )
    assert code == 3
    payload = json.loads(out.read_text())  # report still written for forensics
    assert payload["all_passed"] is False


def test_oracle_check_csv(capsys):
    assert main(["oracle-check", "--set", "oracle.n_max=1"]) == 0
    out = capsys.readouterr().out
    assert "name,error,tolerance,passed" in out
    assert "# all_passed = true" in out


def test_unwritable_output_exits_2(capsys):
    assert main(["coeffs", *TAU, "--out", "/nonexistent/dir/x.csv"]) == 2


@pytest.mark.parametrize(
    "setting",
    ["physical.mass=nan", "state.alpha_re=nan", "physical.ring_radius=inf",
     "n_particles=inf"],
)
def test_non_finite_input_exits_2(setting, capsys):
    assert main(["qfi", *TAU, "--set", setting]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["qfi", "--set", "n_particles=1e200"],
        ["qfi", "--set", "physical.ring_radius=1e160"],
        ["scan-n", "--set", "sweep.stop=1e200"],
    ],
    ids=["qfi-n_particles", "qfi-ring_radius", "scan-n-sweep_stop"],
)
def test_out_of_range_input_exits_2(argv, capsys):
    assert main([*argv, *TAU]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""
