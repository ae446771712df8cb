"""End-to-end CLI behavior: subcommands, formats, exit codes."""

import json
import math

import pytest

from sagnac_qfi.cli import build_parser, main

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


@pytest.mark.parametrize("kind", ["partial", "global"])
@pytest.mark.parametrize("alpha", [27.0, 27.25, 28.0, 40.0])
def test_qfi_sizes_states_where_exp_minus_lambda_underflows(kind, alpha, capsys):
    # |alpha|^2 >= 729: exp(-|alpha|^2) is subnormal or 0, yet auto_truncation
    # must size a state that keeps its leakage bound.
    argv = ["qfi", "--set", f"state.alpha_re={alpha!r}", "--set", "profile.tau=2.0",
            "--set", f"state.kind={kind}", "--format", "json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["f_general"] > 0


def test_qfi_grows_an_auto_sized_partial_state_that_leaks(capsys):
    # At |alpha| = 5 and n = 5 the auto-sized d = 79 leaks 6.9e-10; the state
    # builder grows it to d = 81 instead of exiting 2.
    argv = ["qfi", *TAU, "--set", "state.kind=partial", "--set", "state.alpha_re=5",
            "--set", "state.n=5", "--format", "json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["f_general"] > 0


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


@pytest.mark.parametrize(
    "argv",
    [["coeffs"], ["qfi"], ["scan-n"],
     ["scan-alpha", "--set", "sweep.variable=theta_alpha"]],
    ids=["coeffs", "qfi", "scan-n", "scan-alpha"],
)
def test_overflowing_duration_names_omega_p(argv, capsys):
    # 1e-320 is finite and positive, but pi/1e-320 is not a float: the
    # error names the key that was set, not the tau derived from it.
    assert main([*argv, "--set", "profile.omega_p=1e-320"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: profile.omega_p = 1e-320 is too small: its duration "
        "pi/omega_p overflows\n"
    )
    assert captured.out == ""


def test_bad_state_kind_exits_2(capsys):
    assert main(["qfi", *TAU, "--set", "state.kind=thermal"]) == 2


@pytest.mark.parametrize("argv, key", [
    (["oracle-check", "--set", "oracle.n_max=1", "--set", "profile.kind=banana"], "profile.kind"),
    (["scan-tau", "--set", "sweep.variable=tau", "--set", "sweep.scale=linear",
      "--set", "sweep.start=1", "--set", "sweep.stop=2", "--set", "profile.kind=banana"],
     "profile.kind"),
    (["qfi", "--set", "profile.tau=-1", "--set", "profile.omega_p=2", "--set", "n_particles=1"],
     "profile.tau"),
    (["scan-n", "--set", "profile.omega_p=-2", *TAU], "profile.omega_p"),
    (["qfi", *TAU, "--set", "state.kind=product", "--set", "state.truncation=-4"],
     "state.truncation"),
    (["oracle-check", "--set", "oracle.n_max=1", "--set", "profile.tau=-5"], "profile.tau"),
], ids=["oracle-check-kind", "scan-tau-kind", "negative-tau", "negative-omega_p",
        "product-truncation", "oracle-check-tau"])
def test_values_the_run_would_ignore_exit_2(argv, key, capsys):
    """Refused at load, although the run would ignore them or derive over them."""
    assert main(argv) == 2
    assert key in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "setting", ["physical.ring_radius=2", "physical.rotation_rate=-0.2"]
)
def test_oracle_check_passes_off_defaults(setting, capsys):
    # A larger ring or a nonzero rate raises the mid-path |eta(t)| that the
    # evolution identities are sized and trusted by.
    assert main(["oracle-check", "--set", "oracle.n_max=1", "--set", setting]) == 0


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


@pytest.mark.parametrize("command", ["scan-n", "scan-alpha", "scan-tau"])
def test_radius_sweep_exits_2(command, capsys):
    assert main([command, *TAU, "--set", "sweep.variable=radius"]) == 2
    assert capsys.readouterr().err.startswith("error: sweep.variable must be one of")


@pytest.mark.parametrize(
    "command, variable", [("scan-alpha", "theta_alpha"), ("scan-tau", "tau")]
)
def test_unallocatable_sweep_exits_2(command, variable, capsys):
    # 10^15 float64 points exceed the x86_64 address space, so the sweep
    # grid fails to allocate before any memory is touched.
    argv = [command, *TAU, "--set", f"sweep.variable={variable}",
            "--set", "sweep.points=1e15"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: input out of range: ")
    assert captured.out == ""


def test_cached_parser_carries_nothing_between_calls(tmp_path):
    config = tmp_path / "tau.cfg"
    config.write_text(f"profile.tau = {math.pi}\n")
    with_sets = [
        "scan-n", *TAU, "--set", "state.kind=partial", "--set", "state.n=2",
        "--set", "sweep.points=5", "--set", "physical.ring_radius=1.5",
    ]
    without_sets = ["scan-n", "--config", str(config), "--format", "json"]

    def run(argv, name):
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0
        return out.read_bytes()

    build_parser.cache_clear()  # each call alone, as in a fresh process
    alone = run(with_sets, "a1")
    build_parser.cache_clear()
    assert build_parser().parse_args(["qfi"]).set == []
    alone_bare = run(without_sets, "b1")
    assert (run(with_sets, "a2"), run(without_sets, "b2")) == (alone, alone_bare)
    assert build_parser() is build_parser()
    assert build_parser().parse_args(["qfi"]).set == []
