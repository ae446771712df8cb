"""Acceptance gate: every headline claim at its stated tolerance.

Each test prints one machine-greppable verdict line.  The numeric budgets
(tolerances, draw counts, runtime ceilings) are frozen; loosening any of them
is a red flag, not a fix.
"""

import math
import time

import numpy as np
import pytest

from sagnac_qfi import (
    DrivingProfile,
    GhzProductState,
    PhysicalParams,
    coefficients,
    correlations_closed_form,
    correlations_generic,
    covariance_reduction_check,
    derive_constants,
    load_config,
    make_globally_entangled,
    make_partially_entangled,
    qfi_commensurate,
    qfi_difference,
    qfi_fidelity_numeric,
    qfi_general,
    qfi_global_closed,
    qfi_partial_closed,
    qfi_variance_numeric,
)
from sagnac_qfi.oracle import (
    build_evolution_closed,
    build_evolution_stepped,
    evolution_block,
    required_truncation,
    site_generator_numeric,
    trusted_columns,
    variance_qfi,
)
from sagnac_qfi.oracle import assemble_state
from sagnac_qfi.scan import run_scan_n, run_scan_tau

UNIT = PhysicalParams()
T0 = 2.0 * math.pi


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _cfg(**overrides):
    return load_config(None, [f"{k}={v}" for k, v in overrides.items()])


def test_criterion_01_heisenberg_slope():
    t_start = time.perf_counter()
    cfg = _cfg(**{
        "profile.tau": math.pi,
        "state.alpha_re": -1.0,  # alpha = e^{i pi}
        "sweep.start": 100, "sweep.stop": 1000, "sweep.points": 20,
    })
    slope = run_scan_n(cfg)["summary"]["slope_log10"]
    elapsed = time.perf_counter() - t_start
    # The same slope from both factored oracles, which take the generator
    # and the evolutions from numerically built U matrices, not from C0-C2.
    tau = math.pi
    profile = DrivingProfile.constant_for(tau)
    n_grid = np.geomspace(100, 1000, 6).round().astype(int)
    oracle_slopes = [
        _log_slope(n_grid, [route(make_globally_entangled(-1.0, n_particles=int(n)),
                                  UNIT, profile, tau) for n in n_grid])
        for route in (qfi_variance_numeric, qfi_fidelity_numeric)
    ]
    ok = all(abs(s - 2.0) <= 0.05 for s in (slope, *oracle_slopes)) and elapsed < 1.0
    _verdict(
        1, ok,
        f"log-log QFI slope over N in [100, 1000] = {slope:.4f}, variance "
        f"oracle {oracle_slopes[0]:.4f}, fidelity oracle {oracle_slopes[1]:.4f} "
        f"(target 2.000 +/- 0.05, closed route {elapsed:.2f} s < 1 s)",
    )


def _log_slope(x, y) -> float:
    """Least-squares slope of log y against log x."""
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def test_criterion_02_commensurate_equality():
    t_start = time.perf_counter()
    n_particles = 100
    target = 4.0e4 * math.pi**2  # 3.94784e5
    worst = 0.0
    constants = derive_constants(UNIT)
    for cycles in range(1, 6):
        tau = cycles * T0
        coeffs = coefficients(UNIT, DrivingProfile.constant_for(tau), tau)
        values = [qfi_partial_closed(n, n_particles, constants, coeffs)
                  for n in (0, 1, 3)]
        values.append(qfi_global_closed(-1.0, n_particles, constants, coeffs))
        values.append(qfi_commensurate(n_particles, UNIT))
        # Also push one case through the generic-correlation pipeline.
        corr = correlations_generic(make_globally_entangled(-1.0), coeffs.c1)
        values.append(qfi_general(corr, n_particles, constants, coeffs).qfi)
        worst = max(worst, max(abs(v - target) / target for v in values))
    elapsed = time.perf_counter() - t_start
    ok = worst <= 1e-9 and elapsed < 1.0
    _verdict(
        2, ok,
        f"QFI at tau = l*T0 equals 4 pi^2 N^2 = {target:.6g}, worst relative "
        f"deviation {worst:.2e} (tol 1e-9, {elapsed:.2f} s < 1 s)",
    )


def test_criterion_03_dual_oracle_equivalence():
    t_start = time.perf_counter()
    params = PhysicalParams(rotation_rate=0.3)
    worst = 0.0
    for n_particles in (1, 2):
        for tau in (T0 / 4.0, T0 / 2.0, T0):
            profile = DrivingProfile.constant_for(tau)
            constants = derive_constants(params)
            coeffs = coefficients(params, profile, tau)
            cases = [
                (make_partially_entangled(0.5 - 0.3j, 1, n_particles=n_particles),
                 qfi_partial_closed(1, n_particles, constants, coeffs)),
                (make_globally_entangled(-1.0, n_particles=n_particles),
                 qfi_global_closed(-1.0, n_particles, constants, coeffs)),
            ]
            for state, closed in cases:
                scale = max(1.0, abs(closed))
                f_var = qfi_variance_numeric(state, params, profile, tau)
                f_fid = qfi_fidelity_numeric(state, params, profile, tau)
                worst = max(worst, abs(f_var - closed) / scale,
                            abs(f_fid - closed) / scale)
    elapsed = time.perf_counter() - t_start
    ok = worst <= 1e-5 and elapsed < 30.0
    _verdict(
        3, ok,
        f"variance and fidelity oracles vs closed forms over N in {{1,2}}, "
        f"both families, three interrogation times: worst relative error "
        f"{worst:.2e} (tol 1e-5, {elapsed:.1f} s < 30 s)",
    )


def test_criterion_04_evolution_validation():
    t_start = time.perf_counter()
    params = PhysicalParams(rotation_rate=0.2)
    tau = 0.55 * T0

    # Closed vs 1e4-step time-ordered product on the trusted block.
    worst = 0.0
    for profile in (
        DrivingProfile.constant_for(tau),
        DrivingProfile.piecewise(
            [(0.3 * tau, 2.0), (0.7 * tau, (math.pi - 0.6 * tau) / (0.7 * tau))]
        ),
    ):
        for spin in (+1, -1):
            d, k = evolution_block(params, profile, spin, 12)
            closed = build_evolution_closed(params, profile, tau, spin, d)
            stepped = build_evolution_stepped(
                params, profile, tau, spin, d, steps=10_000
            )
            worst = max(worst, float(np.max(np.abs((closed - stepped)[:, :k]))))

    # Convergence order on a smooth profile, where the midpoint rule's O(h^2)
    # error is actually visible (piecewise-constant drives are stepped exactly
    # segment by segment).
    t_grid = np.linspace(0.0, tau, 50001)
    smooth = DrivingProfile.sampled(
        t_grid, 1.0 + 0.4 * np.sin(3.0 * t_grid / tau), normalization="rescale"
    )
    coeffs = coefficients(UNIT, smooth, tau)
    d = required_truncation(8, abs(coeffs.eta_up))
    closed = build_evolution_closed(UNIT, smooth, tau, +1, d)
    k = trusted_columns(d, abs(coeffs.eta_up))
    steps_grid = np.array([100, 200, 400, 800])
    errs = [
        float(np.max(np.abs(
            (closed - build_evolution_stepped(UNIT, smooth, tau, +1, d, int(s)))
            [:, :k]
        )))
        for s in steps_grid
    ]
    order = -float(np.polyfit(np.log2(steps_grid), np.log2(errs), 1)[0])

    elapsed = time.perf_counter() - t_start
    ok = worst < 1e-6 and abs(order - 2.0) <= 0.2 and elapsed < 60.0
    _verdict(
        4, ok,
        f"closed vs stepped evolution max deviation {worst:.2e} (tol 1e-6), "
        f"convergence order {order:.3f} (target 2.0 +/- 0.2, "
        f"{elapsed:.1f} s < 60 s)",
    )


def test_criterion_05_correlation_table_regression():
    rng = np.random.default_rng(2024)
    fields = (
        "var_x1", "var_sz1", "cov_x1_sz1", "cov_x1_x2", "cov_sz1_sz2", "cov_x1_sz2"
    )
    worst = 0.0
    for _ in range(20):
        tau = rng.uniform(0.4, 12.0)
        alpha = complex(rng.normal(0, 1), rng.normal(0, 1))
        n = int(rng.integers(0, 3))
        coeffs = coefficients(UNIT, DrivingProfile.constant_for(tau), tau)
        for kind, state in (
            ("partial", make_partially_entangled(alpha, n)),
            ("global", make_globally_entangled(alpha)),
        ):
            got = correlations_generic(state, coeffs.c1)
            want = correlations_closed_form(kind, alpha, coeffs.c1, n)
            for field in fields:
                worst = max(worst, abs(getattr(got, field) - getattr(want, field)))
    ok = worst <= 1e-10
    _verdict(
        5, ok,
        f"generic correlations vs closed-form table over 20 random "
        f"(alpha, n, tau) draws: worst cell deviation {worst:.2e} (tol 1e-10)",
    )


def test_criterion_06_displacement_invariance(displacement_invariance_errors):
    rng = np.random.default_rng(99)
    tau = T0 / 2.0
    profile = DrivingProfile.constant_for(tau)
    constants = derive_constants(UNIT)
    coeffs = coefficients(UNIT, profile, tau)

    worst_closed = 0.0
    worst_oracle = 0.0
    for i in range(50):
        alpha = rng.uniform(0.1, 2.5) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        n = i % 3
        worst_closed = max(
            worst_closed,
            *displacement_invariance_errors(n, complex(alpha), constants, coeffs),
        )
        # Oracle route at N = 1.
        f_disp = qfi_variance_numeric(
            make_partially_entangled(complex(alpha), n), UNIT, profile, tau
        )
        f_home = qfi_variance_numeric(
            make_partially_entangled(0.0, n), UNIT, profile, tau
        )
        worst_oracle = max(worst_oracle, abs(f_disp - f_home) / f_home)
    ok = worst_closed <= 1e-12 and worst_oracle <= 1e-8
    _verdict(
        6, ok,
        f"QFI of the shared-mode family is displacement-free: closed route "
        f"worst {worst_closed:.2e} (tol 1e-12), oracle route worst "
        f"{worst_oracle:.2e} (tol 1e-8) over 50 draws",
    )


def test_criterion_07_advantage_inequality():
    rng = np.random.default_rng(31)
    worst = math.inf
    for i in range(500):
        while True:
            tau = rng.uniform(0.3, 15.0)
            params = PhysicalParams(ring_radius=rng.uniform(0.3, 2.0))
            constants = derive_constants(params)
            coeffs = coefficients(params, DrivingProfile.constant_for(tau), tau)
            if abs(coeffs.c1) > 0.05:
                break
        # Choose alpha so that re = Re(C1 alpha*) lands in one of the two
        # sufficient regimes: re >= 0, or re <= -T_S C2 / T_C.
        if i % 2 == 0:
            re = abs(rng.normal(0.0, 1.0))
        else:
            re = -constants.t_s * coeffs.c2 / constants.t_c - abs(rng.normal(0, 1))
        v = rng.normal(0.0, 1.0)
        alpha = np.conj((re + 1j * v) / coeffs.c1)
        n_particles = int(rng.integers(1, 4))
        cmp = qfi_difference(complex(alpha), n_particles, constants, coeffs)
        assert cmp.in_guaranteed_regime
        worst = min(worst, cmp.difference)
    ok = worst >= -1e-12
    _verdict(
        7, ok,
        f"global-state advantage over 500 in-regime draws: minimum "
        f"F_global - F_partial = {worst:.3e} (floor -1e-12)",
    )


def test_criterion_08_interrogation_time_structure():
    n_particles = 100
    constants = derive_constants(UNIT)

    # (a) The families coincide at whole trap periods.
    worst_eq = 0.0
    for cycles in range(1, 6):
        tau = cycles * T0
        coeffs = coefficients(UNIT, DrivingProfile.constant_for(tau), tau)
        f_p = qfi_partial_closed(0, n_particles, constants, coeffs)
        f_g = qfi_global_closed(-1.0, n_particles, constants, coeffs)
        worst_eq = max(worst_eq, abs(f_g - f_p) / n_particles**2)

    # (b) Maxima of F_global/N^2 sit at odd half periods at the resolution of
    # the published curve (0.1 T0 grid; the true first peak is at 0.59 T0).
    cfg = _cfg(**{
        "sweep.variable": "tau",
        "sweep.start": 0.1 * T0, "sweep.stop": 5.5 * T0,
        "sweep.points": 55, "sweep.scale": "linear",
        "n_particles": n_particles,
    })
    summary = run_scan_tau(cfg)["summary"]
    maxima = summary["maxima_tau_over_t0"]
    grid_step = 0.1
    peaks_ok = len(maxima) >= 4 and all(
        min(abs(m - (l + 0.5)) for l in range(0, 6)) <= grid_step + 1e-9
        for m in maxima
    )

    # (c) Peak-to-peak ratio of the two families at the nominal peaks.
    ratios = []
    for l in range(5):
        tau = (l + 0.5) * T0
        coeffs = coefficients(UNIT, DrivingProfile.constant_for(tau), tau)
        ratios.append(
            qfi_global_closed(-1.0, n_particles, constants, coeffs)
            / qfi_partial_closed(0, n_particles, constants, coeffs)
        )
    ratio_ok = all(3.0 <= r <= 4.0 for r in ratios)

    ok = worst_eq <= 1e-9 and peaks_ok and ratio_ok
    _verdict(
        8, ok,
        f"interrogation-time structure: families equal at whole periods "
        f"(worst {worst_eq:.2e}/N^2, tol 1e-9), {len(maxima)} maxima on the "
        f"0.1 T0 grid all at odd half periods, peak ratio "
        f"{min(ratios):.3f}..{max(ratios):.3f} inside [3.0, 4.0]",
    )


def test_criterion_09_rotation_independence_and_shift_invariance():
    tau = 0.45 * T0
    # (a) The full analytic pipeline returns the same QFI whatever the true
    # rotation rate is; only the generator's state-independent offset moves.
    values = []
    for omega_rot in (0.0, 1.0, 10.0):
        params = PhysicalParams(rotation_rate=omega_rot)
        constants = derive_constants(params)
        coeffs = coefficients(params, DrivingProfile.constant_for(tau), tau)
        corr = correlations_generic(make_globally_entangled(-1.0), coeffs.c1)
        values.append(qfi_general(corr, 3, constants, coeffs).qfi)
    spread = (max(values) - min(values)) / max(values)

    # (b) Adding c * identity to the numeric generator must not move the
    # variance-form QFI, neither as c I_d on each block of its (2, d, d)
    # spin-block stack nor as c I_2d on its zero-padded 2d x 2d matrix,
    # applied as a one-block stack.
    profile = DrivingProfile.constant_for(tau)
    state = make_globally_entangled(-1.0, n_particles=2)
    d = required_truncation(state.truncation, 2.5, margin=24.0)
    h_site = site_generator_numeric(UNIT, profile, tau, d)
    h_dense = np.zeros((2 * d, 2 * d), dtype=complex)
    h_dense[:d, :d], h_dense[d:, d:] = h_site
    padded = (np.pad(b, (0, d - state.truncation)) for b in (state.branch_up, state.branch_down))
    psi = assemble_state(GhzProductState(*padded, 2))
    base = variance_qfi(h_site, psi, 2)
    worst_shift = 0.0
    for c in (1.0, 10.0):
        for shifted_site in (h_site + c * np.eye(d), (h_dense + c * np.eye(2 * d))[None]):
            shifted = variance_qfi(shifted_site, psi, 2)
            worst_shift = max(worst_shift, abs(shifted - base) / base)

    ok = spread <= 1e-12 and worst_shift <= 1e-12
    _verdict(
        9, ok,
        f"QFI spread over rotation rates {{0, 1, 10}} = {spread:.2e} and "
        f"generator shift c*I moves it by {worst_shift:.2e} (both tol 1e-12)",
    )


def test_criterion_10_covariance_reduction():
    rng = np.random.default_rng(4096)
    d = 5
    worst = 0.0
    for _ in range(10):
        def random_branch():
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            return v / np.linalg.norm(v)

        state = GhzProductState(
            branch_up=random_branch(),
            branch_down=random_branch(),
            n_particles=3,
        )
        m1 = rng.normal(size=(2 * d, 2 * d)) + 1j * rng.normal(size=(2 * d, 2 * d))
        m2 = rng.normal(size=(2 * d, 2 * d)) + 1j * rng.normal(size=(2 * d, 2 * d))
        worst = max(worst, covariance_reduction_check(
            state, 0.5 * (m1 + m1.conj().T), 0.5 * (m2 + m2.conj().T)
        ))
    _verdict(
        10, worst <= 1e-10,
        f"collective-operator variance reduces to N Cov11 + N(N-1) Cov12 on "
        f"full three-particle vectors for 10 random operator/state draws: "
        f"worst relative error {worst:.2e} (tol 1e-10)",
    )


def test_criterion_11_radius_biquadratic_law():
    # At whole trap periods the QFI grows as r^4 (the abstract's biquadratic
    # law).  Both factored oracles, at N = 100, for both families; each
    # radius sizes its own d, since |eta| grows with r.
    tau = T0
    profile = DrivingProfile.constant_for(tau)
    radii = np.array([0.5, 0.75, 1.0, 1.5, 2.0])
    states = {
        "partial": make_partially_entangled(0.5 - 0.3j, 1, n_particles=100),
        "global": make_globally_entangled(-1.0, n_particles=100),
    }
    slopes = {
        (family, route.__name__): _log_slope(radii, [
            route(state, PhysicalParams(ring_radius=float(r)), profile, tau) for r in radii
        ])
        for family, state in states.items()
        for route in (qfi_variance_numeric, qfi_fidelity_numeric)
    }
    ok = all(abs(s - 4.0) <= 0.05 for s in slopes.values())
    _verdict(
        11, ok,
        "log-log QFI slope over r in [0.5, 2] at tau = T0, N = 100, both "
        "families, variance and fidelity oracles: "
        + ", ".join(f"{f}/{r.split('_')[1]} {s:.4f}" for (f, r), s in slopes.items())
        + " (target 4.000 +/- 0.05)",
    )
