"""Config parsing, sweep runners and deterministic serialization."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sagnac_qfi import (
    ConfigError,
    model,
    ConsistencyError,
    ProfileError,
    TruncationError,
    load_config,
    rows_to_csv,
    scan,
    states,
)
from sagnac_qfi.cli import main
from sagnac_qfi.scan import (
    CSV_HEADER,
    run_coeffs,
    run_oracle_check,
    run_qfi,
    run_scan_alpha,
    run_scan_n,
    run_scan_tau,
)


def cfg_with(**overrides):
    return load_config(None, [f"{k}={v}" for k, v in overrides.items()])


def test_defaults_load_without_config_file():
    cfg = load_config()
    assert cfg["physical.mass"] == 1.0
    assert cfg["state.kind"] == "global"
    assert cfg["n_particles"] == 100


def test_config_file_parsing(tmp_path):
    path = tmp_path / "scan.cfg"
    path.write_text(
        "# comment line\n"
        "physical.ring_radius = 2.0\n"
        "state.kind = partial\n"
        "state.n = 1\n"
        "\n"
    )
    cfg = load_config(str(path))
    assert cfg["physical.ring_radius"] == 2.0
    assert cfg["state.kind"] == "partial"
    assert cfg["state.n"] == 1


def test_set_overrides_beat_file(tmp_path):
    path = tmp_path / "scan.cfg"
    path.write_text("physical.mass = 2.0\n")
    cfg = load_config(str(path), ["physical.mass=3.0"])
    assert cfg["physical.mass"] == 3.0


@pytest.mark.parametrize(
    "line",
    ["physical.masss = 1.0", "physical.mass 1.0", "state.kind = squeezed",
     "state.n = 1.5", "n_particles = 0"],
)
def test_bad_config_rejected(tmp_path, line):
    path = tmp_path / "scan.cfg"
    path.write_text(line + "\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_missing_config_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/scan.cfg")


def test_resolve_tau_relations():
    assert cfg_with(**{"profile.tau": 2.0}).resolve_tau() == pytest.approx(
        (2.0, math.pi / 2.0)
    )
    assert cfg_with(**{"profile.omega_p": 2.0}).resolve_tau() == pytest.approx(
        (math.pi / 2.0, 2.0)
    )
    with pytest.raises(ConfigError):
        cfg_with().resolve_tau()  # both unset
    with pytest.raises(ConfigError):
        cfg_with(**{"profile.tau": 1.0, "profile.omega_p": 1.0}).resolve_tau()


def test_scan_n_heisenberg_slope():
    cfg = cfg_with(**{"profile.tau": math.pi, "sweep.points": 10})
    result = run_scan_n(cfg)
    assert result["summary"]["slope_log10"] == pytest.approx(2.0, abs=0.05)


def test_scan_n_product_state_is_shot_noise_limited():
    cfg = cfg_with(
        **{"profile.tau": math.pi, "state.kind": "product", "sweep.points": 10}
    )
    result = run_scan_n(cfg)
    assert result["summary"]["slope_column"] == "f_general"
    assert result["summary"]["slope_log10"] == pytest.approx(1.0, abs=0.01)


def test_product_rows_checked_against_independent_closed_form(monkeypatch):
    # A corrupted single-branch variance must not pass the row cross-check:
    # the reference is 4 (2n+1) N t_c^2 |C1|^2, not the breakdown under test.
    real = scan.correlations_single_branch

    def corrupted(n, c1):
        corr = real(n, c1)
        return dataclasses.replace(corr, var_x1=3.0 * corr.var_x1)

    monkeypatch.setattr(scan, "correlations_single_branch", corrupted)
    cfg = cfg_with(**{"profile.tau": math.pi, "state.kind": "product"})
    with pytest.raises(ConsistencyError, match="product closed form"):
        run_qfi(cfg)


def test_qfi_difference_checked_against_closed_forms(monkeypatch):
    # A qfi_difference with 8 in place of 16 must fail run_qfi: the printed
    # difference is checked against F_global - F_partial(n = 0).
    real = scan.qfi_difference

    def halved(alpha, n_particles, constants, coeffs):
        comparison = real(alpha, n_particles, constants, coeffs)
        return dataclasses.replace(comparison, difference=comparison.difference / 2.0)

    cfg = cfg_with(
        **{
            "state.alpha_re": 0.5,
            "state.alpha_im": -0.3,
            "profile.tau": 0.3 * 2.0 * math.pi,
            "physical.ring_radius": 1.5,
        }
    )
    assert run_qfi(cfg)["difference_global_minus_partial"] != 0.0
    monkeypatch.setattr(scan, "qfi_difference", halved)
    with pytest.raises(ConsistencyError, match="global-minus-partial difference"):
        run_qfi(cfg)


def test_commensurate_law_checked_against_derived_constants(monkeypatch, capsys):
    # A qfi_commensurate with r^3 in place of r^4 must fail run_qfi and exit 3:
    # the printed law is checked against N^2 T_S^2.  At the default r = 1 the
    # two agree, so the check runs at r = 1.5.
    def cubed(n_particles, params):
        return (
            4.0 * float(n_particles) ** 2 * params.mass**2 * math.pi**2
            * params.ring_radius**3 / params.hbar**2
        )

    overrides = {"profile.tau": 2.0 * math.pi, "physical.ring_radius": 1.5}
    cfg = cfg_with(**overrides)
    assert run_qfi(cfg)["f_commensurate"] == pytest.approx(
        100**2 * (2.0 * math.pi * 1.5**2) ** 2, rel=1e-12
    )
    monkeypatch.setattr(scan, "qfi_commensurate", cubed)
    with pytest.raises(ConsistencyError, match="commensurate-law QFI"):
        run_qfi(cfg)
    argv = ["qfi", *(arg for k, v in overrides.items() for arg in ("--set", f"{k}={v}"))]
    assert main(argv) == 3
    assert "commensurate-law QFI" in capsys.readouterr().err


def test_commensurate_law_printed_and_checked_for_entangled_states_only(monkeypatch):
    # The product state's F vanishes at whole periods, far from the law.
    def cfg_for(kind):
        return cfg_with(**{"profile.tau": 2.0 * math.pi, "state.kind": kind})

    assert "f_commensurate" not in run_qfi(cfg_for("product"))
    for kind in ("global", "partial"):
        assert run_qfi(cfg_for(kind))["f_commensurate"] == pytest.approx(
            100**2 * (2.0 * math.pi) ** 2, rel=1e-12
        )
    monkeypatch.setattr(scan, "qfi_commensurate", lambda n_particles, params: math.nan)
    assert "f_commensurate" not in run_qfi(cfg_for("product"))
    with pytest.raises(ConsistencyError, match="commensurate-law QFI"):
        run_qfi(cfg_for("global"))


@pytest.mark.parametrize(
    "runner, overrides",
    [
        (run_qfi, {"profile.tau": 2.0}),
        (run_scan_tau, {"sweep.variable": "tau", "sweep.start": 1.0, "sweep.stop": 2.0,
                        "sweep.scale": "linear"}),
    ],
    ids=["qfi", "scan-tau"],
)
def test_row_cross_check_message_prints_plain_floats(monkeypatch, runner, overrides):
    # The row value comes from a numpy sweep and the closed forms are numpy
    # scalars; the message must print them as floats, not as np.float64(...).
    real = scan.correlations_generic

    def tripled(state, c1):
        corr = real(state, c1)
        return dataclasses.replace(corr, var_x1=3.0 * corr.var_x1)

    monkeypatch.setattr(scan, "correlations_generic", tripled)
    with pytest.raises(ConsistencyError, match="general-form QFI") as err:
        runner(cfg_with(**overrides))
    assert "np.float64" not in str(err.value)


def _count_amplitude_blocks(monkeypatch) -> list:
    """The truncation of every displaced_fock_amplitudes call: one call per
    state built alone, and one per block of a sweep's states."""
    calls = []
    real = states.displaced_fock_amplitudes

    def counted(alpha, n, d):
        calls.append(d)
        return real(alpha, n, d)

    monkeypatch.setattr(states, "displaced_fock_amplitudes", counted)
    return calls


@pytest.mark.parametrize("kind", ["partial", "global"])
@pytest.mark.parametrize(
    "runner, sweep, blocks",
    [
        (run_scan_n, {"profile.tau": math.pi}, 1),
        (run_scan_tau, {"sweep.variable": "tau", "sweep.start": 1.0, "sweep.stop": 9.0,
                        "sweep.scale": "linear"}, 1),
        (run_scan_alpha, {"profile.tau": math.pi, "sweep.variable": "theta_alpha",
                          "sweep.start": 0.0, "sweep.stop": 3.0, "sweep.scale": "linear"}, 1),
    ],
)
def test_sweeps_build_a_fixed_state_once(monkeypatch, kind, runner, sweep, blocks):
    # scan-n and scan-tau build their one state once.  scan-alpha changes the
    # state from row to row and builds its 7 rows as one block per truncation
    # d; at |alpha| = 1 all 7 share one d.  The |alpha> and |-alpha> branches
    # of a global state are rows of one block.
    calls = _count_amplitude_blocks(monkeypatch)
    result = runner(cfg_with(**{"state.kind": kind, "sweep.points": 7, **sweep}))
    assert len(result["rows"]) == 7
    assert len(calls) == blocks


def _one_state_per_row(cfg) -> list[dict]:
    """run_scan_alpha's rows built as they were before row blocks: one state
    per row through the one-row builders, each row in turn."""
    params = cfg.params()
    tau, _ = cfg.resolve_tau()
    base = cfg.alpha()
    constants = model.derive_constants(params)
    coeffs = scan._generator_at(params, tau)
    rows = []
    for value in scan._sweep_values(cfg):
        if cfg["sweep.variable"] == "theta_alpha":
            alpha = complex(abs(base) * np.exp(1j * value))
        else:
            alpha = complex(value * np.exp(1j * np.angle(base)))
        corr = scan._correlator(cfg, alpha)(coeffs.c1)
        row, _ = scan._evaluate_row(
            float(value), cfg, constants, coeffs, cfg["n_particles"], alpha, corr
        )
        rows.append(row)
    return rows


@pytest.mark.parametrize(
    "kind, n", [("partial", 0), ("partial", 1), ("partial", 3), ("global", 0), ("product", 2)]
)
def test_scan_alpha_from_zero_prints_the_one_state_per_row_bytes(kind, n):
    # The alpha = 0 row takes |n> itself: log|alpha| never meets a 0 there.
    # 40 rows make three blocks, the last of them short.
    cfg = cfg_with(**{
        "state.kind": kind, "state.n": n, "sweep.variable": "abs_alpha",
        "sweep.start": 0.0, "sweep.stop": 3.0, "sweep.points": 40,
        "sweep.scale": "linear", "profile.tau": 2.0, "state.alpha_re": -0.7,
        "state.alpha_im": 0.4,
    })
    rows = run_scan_alpha(cfg)["rows"]
    assert rows[0]["value"] == 0.0
    assert rows_to_csv(rows, cfg) == rows_to_csv(_one_state_per_row(cfg), cfg)


LEAKY_SWEEP = {"state.truncation": 12, "sweep.variable": "abs_alpha", "sweep.start": 0.1,
               "sweep.stop": 2.5, "sweep.points": 25, "sweep.scale": "linear",
               "profile.tau": 2.0}


@pytest.mark.parametrize(
    "kind, error, text",
    [
        # The first row that leaks, with the suggestion a one-row build makes.
        ("partial", TruncationError,
         "truncation d = 12 leaks 8.316e-10 > 1.000e-10 for alpha = "
         "(-0.9999999999999999+1.224646799147353e-16j), n = 0 "
         "(suggested truncation: d >= 23)"),
        # A row ahead of the first leaky one fails its cross-check first.
        ("global", ConsistencyError,
         "row value 0.8999999999999999: general-form QFI 494981.38884725055 "
         "disagrees with the global closed form 494981.3894078972"),
    ],
)
def test_scan_alpha_reports_the_first_faulty_row(kind, error, text):
    with pytest.raises(error) as err:
        run_scan_alpha(cfg_with(**{"state.kind": kind, **LEAKY_SWEEP}))
    assert str(err.value) == text


@pytest.mark.parametrize(
    "alpha_re, row, text",
    [
        (-15.0, 266, "row value 4.1887902047863905: general-form QFI 599.9056723091524 "
                     "disagrees with the global closed form 599.905672035165"),
        (-25.0, 61, "row value 0.9605872274134205: general-form QFI 16504.009694823948 "
                    "disagrees with the global closed form 16504.00969292236"),
        (-60.0, 62, "row value 0.9763345590103618: general-form QFI 111574.5480767772 "
                    "disagrees with the global closed form 111574.5480613029"),
    ],
)
def test_scan_alpha_stops_mid_block_at_the_first_failing_row(alpha_re, row, text):
    # The first failing row of a 400-point sweep over [0, 2 pi], taken as
    # row 7 of a 12-row sweep on the same grid (the same theta bits), so it
    # sits inside one block whose later rows are built already; the sweep
    # still stops at it, with its cross-check's text.
    grid = np.linspace(0.0, 2.0 * math.pi, 400)
    cfg = cfg_with(**{
        "state.kind": "global", "state.alpha_re": alpha_re, "sweep.variable": "theta_alpha",
        "sweep.start": float(grid[row - 7]), "sweep.stop": float(grid[row + 4]),
        "sweep.points": 12, "sweep.scale": "linear", "profile.tau": 2.0,
    })
    assert scan._sweep_values(cfg)[7] == grid[row]
    with pytest.raises(ConsistencyError) as err:
        run_scan_alpha(cfg)
    assert str(err.value) == text


def _traced_peak(run) -> int:
    run()  # fills the caches
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_alpha_blocks_keep_a_bounded_working_set():
    # d = 181 on every row.  One state per row peaks at about 0.33 MB, the
    # blocks of 16 rows at 0.77 MB, and one block of all 400 rows at 7.2 MB.
    cfg = cfg_with(**{
        "state.kind": "global", "state.alpha_re": -10.0, "sweep.variable": "theta_alpha",
        "sweep.start": 0.0, "sweep.stop": 2.0 * math.pi, "sweep.points": 400,
        "sweep.scale": "linear", "profile.tau": 2.0,
    })
    blocked = _traced_peak(lambda: run_scan_alpha(cfg))
    one_by_one = _traced_peak(lambda: _one_state_per_row(cfg))
    assert blocked <= one_by_one + 1_000_000


def test_scan_tau_reports_first_row_coefficient_fault_before_state_fault():
    # Faults are reported in row order: the state is built after the first
    # row's coefficients, so a first tau whose drive pi/tau overflows is
    # reported ahead of a truncation too small for the state.
    sweep = {"sweep.variable": "tau", "sweep.stop": 1.0, "sweep.scale": "linear",
             "state.truncation": 3}
    with pytest.raises(ProfileError):
        run_scan_tau(cfg_with(**sweep, **{"sweep.start": 1e-320}))
    with pytest.raises(TruncationError):
        run_scan_tau(cfg_with(**sweep, **{"sweep.start": 0.5}))


def test_scan_alpha_peaks_at_pi_phase():
    cfg = cfg_with(
        **{
            "profile.tau": math.pi,
            "sweep.variable": "theta_alpha",
            "sweep.start": 0.0,
            "sweep.stop": 2.0 * math.pi,
            "sweep.points": 41,
            "sweep.scale": "linear",
            "n_particles": 10,
        }
    )
    result = run_scan_alpha(cfg)
    assert result["summary"]["maxima_at"] == pytest.approx([math.pi], abs=0.2)


def test_scan_alpha_magnitude_monotone_at_pi_phase():
    cfg = cfg_with(
        **{
            "profile.tau": math.pi,
            "state.alpha_re": -1.0,
            "sweep.variable": "abs_alpha",
            "sweep.start": 0.1,
            "sweep.stop": 3.0,
            "sweep.points": 15,
            "sweep.scale": "linear",
            "n_particles": 10,
        }
    )
    rows = run_scan_alpha(cfg)["rows"]
    f_vals = [row["f_global"] for row in rows]
    assert all(b > a for a, b in zip(f_vals, f_vals[1:]))


def test_scan_tau_structure():
    cfg = cfg_with(
        **{
            "sweep.variable": "tau",
            "sweep.start": 0.1 * 2.0 * math.pi,
            "sweep.stop": 5.5 * 2.0 * math.pi,
            "sweep.points": 400,
            "sweep.scale": "linear",
            "n_particles": 100,
        }
    )
    result = run_scan_tau(cfg)
    eq = result["summary"]["equality_tau_over_t0"]
    assert len(eq) >= 4
    for value in eq:
        assert value == pytest.approx(round(value), abs=0.05)
    assert len(result["summary"]["maxima_tau_over_t0"]) >= 4


def test_scan_rejects_wrong_variable():
    with pytest.raises(ConfigError):
        run_scan_n(cfg_with(**{"profile.tau": math.pi, "sweep.variable": "tau"}))
    with pytest.raises(ConfigError):
        run_scan_tau(cfg_with(**{"sweep.variable": "N"}))


def test_sweep_validation():
    bad = cfg_with(
        **{"profile.tau": math.pi, "sweep.start": 10.0, "sweep.stop": 1.0}
    )
    with pytest.raises(ConfigError):
        run_scan_n(bad)
    neg_log = cfg_with(
        **{"profile.tau": math.pi, "sweep.start": -1.0, "sweep.stop": 1.0}
    )
    with pytest.raises(ConfigError):
        run_scan_n(neg_log)


@pytest.mark.parametrize(
    "start, stop, points",
    [(0.1, 0.4, 3), (1.0, 1.4, 4), (2.6, 3.4, 5), (1.0, 2.0, 6)],
)
def test_scan_n_grid_is_the_distinct_rounded_n(start, stop, points):
    # N below 1 drops out and repeats count once: an empty grid and a grid
    # of one N are configuration errors, as np.unique's grid made them.
    cfg = cfg_with(**{
        "profile.tau": math.pi, "sweep.scale": "linear", "sweep.start": start,
        "sweep.stop": stop, "sweep.points": points,
    })
    rounded = np.round(scan._sweep_values(cfg))
    want = np.unique(rounded[rounded >= 1].astype(int))
    if want.size < 2:
        with pytest.raises(ConfigError, match="collapsed to fewer than 2 distinct values"):
            run_scan_n(cfg)
    else:
        assert [row["value"] for row in run_scan_n(cfg)["rows"]] == want.astype(float).tolist()


def test_csv_output_is_deterministic():
    cfg = cfg_with(**{"profile.tau": math.pi, "sweep.points": 5})
    a = rows_to_csv(run_scan_n(cfg)["rows"], cfg)
    b = rows_to_csv(run_scan_n(cfg)["rows"], cfg)
    assert a == b
    assert a.startswith(CSV_HEADER + "\n")
    assert "timestamp" not in a


def test_csv_floats_round_trip():
    cfg = cfg_with(**{"profile.tau": 2.3, "sweep.points": 4})
    result = run_scan_n(cfg)
    text = rows_to_csv(result["rows"], cfg)
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    first = dict(zip(header, lines[1].split(",")))
    assert float(first["f_global"]) == result["rows"][0]["f_global"]
    assert float(first["c2"]) == result["rows"][0]["c2"]


def test_oracle_check_passes_clean():
    report = run_oracle_check(cfg_with(**{"oracle.n_max": 1}), seed=0)
    assert report["all_passed"]
    names = {item["name"] for item in report["identities"]}
    assert "qfi-variance-vs-closed" in names
    assert "qfi-fidelity-vs-closed" in names


def test_oracle_check_detects_injected_fault():
    report = run_oracle_check(
        cfg_with(**{"oracle.n_max": 1, "oracle.inject_fault": "c2-sign"}), seed=0
    )
    assert not report["all_passed"]
    failed = [item["name"] for item in report["identities"] if not item["passed"]]
    assert failed == ["generator-numeric-vs-analytic"]


def test_oracle_check_rejects_large_n():
    from sagnac_qfi import SizeGuardError

    with pytest.raises(SizeGuardError):
        run_oracle_check(cfg_with(**{"oracle.n_max": 4}))


def test_json_serialization_round_trips():
    from sagnac_qfi import result_to_json

    cfg = cfg_with(**{"profile.tau": math.pi, "sweep.points": 4})
    result = run_scan_n(cfg)
    payload = json.loads(result_to_json(result, cfg))
    assert payload["version"] == "sagnac-qfi v1"
    assert payload["rows"][0]["f_global"] == result["rows"][0]["f_global"]
    assert payload["summary"]["slope_log10"] == result["summary"]["slope_log10"]


def _steady_onset_by_mask(taus, rows, t0):
    """The steady-onset rule as a boolean mask over the whole sweep per tau."""
    values = np.array([row["f_partial_per_n2"] for row in rows])
    for i in range(len(taus)):
        if taus[i] + t0 > taus[-1] + 1e-12:
            break
        window = values[(taus >= taus[i]) & (taus <= taus[i] + t0)]
        if window.size < 2:
            continue
        mean = float(np.mean(window))
        if mean > 0 and (np.max(window) - np.min(window)) / mean < 0.01:
            return float(taus[i] / t0)
    return None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    start=st.floats(min_value=1e-3, max_value=1e9),
    ulps=st.integers(1, 6),
    points=st.integers(2, 40),
    t0_ulps=st.integers(0, 8),
    wide=st.booleans(),
    data=st.data(),
)
def test_steady_onset_slices_the_window_the_mask_selects(start, ulps, points, t0_ulps, wide, data):
    # A grid whose start and stop lie a few ulps apart repeats tau values; a
    # wide grid with a wide window checks the ordinary case.
    ulp = math.ulp(start)
    if wide:
        stop, t0 = start * 3.0, start * data.draw(st.floats(0.01, 2.0))
    else:
        stop, t0 = start + ulps * ulp, t0_ulps * ulp or ulp
    taus = np.linspace(start, stop, points)
    level = data.draw(st.floats(0.5, 2.0))
    rows = [
        {"f_partial_per_n2": level * (1.0 + data.draw(st.sampled_from([0.0, 1e-3, 2e-3, 0.05])))}
        for _ in taus
    ]
    assert scan._steady_onset(taus, rows, t0) == _steady_onset_by_mask(taus, rows, t0)


@pytest.mark.parametrize(
    "patched, overrides, match",
    [
        ("qfi_partial_closed", {"state.kind": "partial"}, "general-form QFI"),
        ("qfi_commensurate", {"profile.tau": 2.0 * math.pi}, "commensurate-law QFI"),
    ],
    ids=["row", "commensurate"],
)
def test_nan_fails_every_cross_check(monkeypatch, patched, overrides, match):
    monkeypatch.setattr(scan, patched, lambda *args: math.nan)
    with pytest.raises(ConsistencyError, match=match):
        run_qfi(cfg_with(**{"profile.tau": 2.0, **overrides}))


def test_nan_difference_fails_its_cross_check(monkeypatch):
    real = scan.qfi_difference

    def nan_difference(*args):
        return dataclasses.replace(real(*args), difference=math.nan)

    monkeypatch.setattr(scan, "qfi_difference", nan_difference)
    with pytest.raises(ConsistencyError, match="global-minus-partial difference"):
        run_qfi(cfg_with(**{"profile.tau": 2.0}))


def _count_eta_phi_passes(monkeypatch) -> list:
    calls = []
    for name in ("_eta_phi_segments", "_sampled_work"):
        real = getattr(model, name)

        def counted(*args, _real=real, **kwargs):
            calls.append(args)
            return _real(*args, **kwargs)

        monkeypatch.setattr(model, name, counted)
    return calls


@pytest.mark.parametrize("kind", ["global", "partial", "product"])
def test_rows_make_no_eta_phi_pass(monkeypatch, kind):
    calls = _count_eta_phi_passes(monkeypatch)
    tau_sweep = {"sweep.variable": "tau", "sweep.start": 1.0, "sweep.stop": 20.0,
                 "sweep.scale": "linear", "sweep.points": 60}
    assert len(run_scan_tau(cfg_with(**{"state.kind": kind, **tau_sweep}))["rows"]) == 60
    run_qfi(cfg_with(**{"state.kind": kind, "profile.tau": 2.0}))
    run_scan_n(cfg_with(**{"state.kind": kind, "profile.tau": 2.0}))
    run_scan_alpha(cfg_with(**{"state.kind": kind, "profile.tau": 2.0,
                               "sweep.variable": "abs_alpha", "sweep.start": 0.1,
                               "sweep.stop": 2.0, "sweep.scale": "linear"}))
    assert calls == []
    # coeffs prints eta and Phi, so it still makes one pass per spin.
    assert run_coeffs(cfg_with(**{"profile.tau": 2.0}))["phi_up"] > 0.0
    assert len(calls) == 2


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    points=st.integers(2, 60),
    width=st.floats(0.05, 1.5),
    level=st.floats(1e-6, 1e6),
    data=st.data(),
)
def test_pruned_steady_onset_equals_the_mask_at_the_one_percent_edge(points, width, level, data):
    # Spreads straddle the 1% test and the 1.01% pruning bound; zeros and
    # negative values make means that are not positive.
    taus = np.linspace(1.0, 5.0, points)
    offsets = st.one_of(
        st.floats(0.0, 0.0102),
        st.sampled_from([0.0, 0.00999, 0.01, 0.01001, 0.0101, 0.01011, -1.0, -2.0]),
    )
    rows = [{"f_partial_per_n2": level * (1.0 + data.draw(offsets))} for _ in taus]
    assert scan._steady_onset(taus, rows, width) == _steady_onset_by_mask(taus, rows, width)
