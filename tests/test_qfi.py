"""Closed-form and general-form QFI for the rotation-rate generator."""

import dataclasses
import math

import numpy as np
import pytest

from sagnac_qfi import (
    ConsistencyError,
    DrivingProfile,
    GeneratorCoefficients,
    PhysicalParams,
    coefficients,
    correlations_closed_form,
    derive_constants,
    qfi_commensurate,
    qfi_difference,
    qfi_general,
    qfi_global_closed,
    qfi_partial_closed,
)

UNIT = PhysicalParams()


def _unit_setup(tau=math.pi, params=UNIT):
    constants = derive_constants(params)
    coeffs = coefficients(params, DrivingProfile.constant_for(tau), tau)
    return constants, coeffs


def test_partial_qfi_half_period_single_atom():
    # T_C = sqrt(2), T_S = 2 pi, C1 = -1, C2 = 1/2:
    # F = 4 * 2 + 4 * pi^2 = 8 + 4 pi^2.
    constants, coeffs = _unit_setup()
    got = qfi_partial_closed(0, 1, constants, coeffs)
    assert got == pytest.approx(8.0 + 4.0 * math.pi**2, rel=1e-14)


def test_global_qfi_half_period_single_atom():
    constants, coeffs = _unit_setup()
    got = qfi_global_closed(-1.0, 1, constants, coeffs)
    expected = 4.0 * (2.0 * math.sqrt(2.0) + math.pi) ** 2 + 8.0
    assert got == pytest.approx(expected, rel=1e-14)


def test_difference_half_period_single_atom():
    constants, coeffs = _unit_setup()
    cmp = qfi_difference(-1.0, 1, constants, coeffs)
    expected = 16.0 * (math.sqrt(2.0) + math.pi) * math.sqrt(2.0)
    assert cmp.difference == pytest.approx(expected, rel=1e-13)
    assert cmp.global_wins
    assert cmp.in_guaranteed_regime
    assert cmp.verdict == "wins"


def test_difference_equals_closed_form_subtraction():
    rng = np.random.default_rng(3)
    for _ in range(20):
        tau = rng.uniform(0.5, 9.0)
        alpha = complex(rng.normal(0, 1.2), rng.normal(0, 1.2))
        n_particles = int(rng.integers(1, 6))
        constants, coeffs = _unit_setup(tau)
        cmp = qfi_difference(alpha, n_particles, constants, coeffs)
        direct = qfi_global_closed(
            alpha, n_particles, constants, coeffs
        ) - qfi_partial_closed(0, n_particles, constants, coeffs)
        assert cmp.difference == pytest.approx(direct, rel=1e-10, abs=1e-9)


def test_verdict_outside_guaranteed_regime():
    # Small negative Re(C1 alpha*) sits between the two sufficient conditions;
    # there the global state actually loses.
    constants, coeffs = _unit_setup()  # C1 = -1
    cmp = qfi_difference(0.1, 1, constants, coeffs)  # re = -0.1
    assert not cmp.in_guaranteed_regime
    assert not cmp.global_wins
    assert cmp.verdict == "loses-numerically"
    far = qfi_difference(20.0, 1, constants, coeffs)  # re = -20 <= -t_s c2 / t_c
    assert far.in_guaranteed_regime
    assert far.global_wins


def test_commensurate_value_and_scaling():
    assert qfi_commensurate(100, UNIT) == pytest.approx(
        4.0e4 * math.pi**2, rel=1e-14
    )
    # r^4 scaling
    assert qfi_commensurate(10, PhysicalParams(ring_radius=2.0)) == pytest.approx(
        16.0 * qfi_commensurate(10, UNIT), rel=1e-14
    )


def test_closed_forms_join_at_commensurate_time():
    tau = 2.0 * math.pi
    constants, coeffs = _unit_setup(tau)
    f_c = qfi_commensurate(5, UNIT)
    assert qfi_partial_closed(0, 5, constants, coeffs) == pytest.approx(f_c, rel=1e-12)
    assert qfi_partial_closed(3, 5, constants, coeffs) == pytest.approx(f_c, rel=1e-12)
    assert qfi_global_closed(0.8j, 5, constants, coeffs) == pytest.approx(
        f_c, rel=1e-12
    )


@pytest.mark.parametrize("kind,n", [("partial", 0), ("partial", 2), ("global", 0)])
def test_general_form_agrees_with_closed_forms(kind, n):
    rng = np.random.default_rng(17)
    for _ in range(10):
        tau = rng.uniform(0.4, 12.0)
        alpha = complex(rng.normal(0, 1), rng.normal(0, 1))
        n_particles = int(rng.integers(1, 300))
        params = PhysicalParams(
            ring_radius=rng.uniform(0.3, 2.0), rotation_rate=rng.normal(0, 1)
        )
        constants, coeffs = _unit_setup(tau, params)
        corr = correlations_closed_form(kind, alpha, coeffs.c1, n)
        breakdown = qfi_general(corr, n_particles, constants, coeffs)
        if kind == "partial":
            closed = qfi_partial_closed(n, n_particles, constants, coeffs)
        else:
            closed = qfi_global_closed(alpha, n_particles, constants, coeffs)
        assert breakdown.qfi == pytest.approx(closed, rel=1e-12)


def test_radius_polynomial_decomposition():
    # lambda1 R^2 + lambda2 R^3 + lambda3 R^4 reassembles the QFI, and the
    # coefficients carry the stated N dependence.
    params = PhysicalParams(trap_frequency=2.0, ring_radius=1.3)
    tau = 3.3
    constants, coeffs = _unit_setup(tau, params)
    alpha = -0.9 + 0.4j

    def breakdown_for(n_particles):
        corr = correlations_closed_form("global", alpha, coeffs.c1)
        return qfi_general(corr, n_particles, constants, coeffs)

    b = breakdown_for(7)
    r = constants.reduced_radius
    total = b.lambda1 * r**2 + b.lambda2 * r**3 + b.lambda3 * r**4
    assert total == pytest.approx(b.qfi, rel=1e-10)

    # Doubling N at fixed correlations: lambda1 scales as N + (N-1)N terms.
    one = breakdown_for(1)
    # Single particle: two-site covariances enter with weight N(N-1) = 0.
    assert one.lambda2 == pytest.approx(
        16.0 * math.sqrt(2.0) * math.pi / constants.trap_frequency**2
        * coeffs.c2 * correlations_closed_form("global", alpha, coeffs.c1).cov_x1_sz1,
        rel=1e-12,
    )


def test_beta_gamma_split():
    # beta carries single-site moments, gamma the two-site ones; for the
    # partial family gamma reduces to the spin block alone.
    constants, coeffs = _unit_setup()
    corr = correlations_closed_form("partial", 0.5, coeffs.c1, 0)
    b = qfi_general(corr, 4, constants, coeffs)
    assert b.gamma == pytest.approx(
        constants.t_s**2 * coeffs.c2**2, rel=1e-12
    )
    assert b.qfi == pytest.approx(
        4.0 * ((b.beta - b.gamma) * 4 + b.gamma * 16), rel=1e-12
    )


def test_heisenberg_fraction_bounds():
    constants, coeffs = _unit_setup()
    corr = correlations_closed_form("global", -1.0, coeffs.c1)
    b = qfi_general(corr, 50, constants, coeffs)
    assert 0.0 <= b.heisenberg_fraction <= 1.0
    assert b.heisenberg_fraction > 0.99  # N = 50 is deep in the N^2 regime


def test_displacement_invariance_closed_route(displacement_invariance_errors):
    rng = np.random.default_rng(23)
    constants, coeffs = _unit_setup(2.1)
    for _ in range(10):
        alpha = complex(rng.normal(0, 1.5), rng.normal(0, 1.5))
        n = int(rng.integers(0, 3))
        vs_zero, vs_closed = displacement_invariance_errors(n, alpha, constants, coeffs)
        assert vs_zero <= 1e-12
        assert vs_closed <= 1e-12


def test_qfi_ignores_rotation_rate():
    # The generator's C0 block is state-independent, so the rate drops out.
    tau = 2.9
    values = []
    for omega_rot in (0.0, 1.0, 10.0):
        params = PhysicalParams(rotation_rate=omega_rot)
        constants, coeffs = _unit_setup(tau, params)
        values.append(qfi_global_closed(-1.0, 3, constants, coeffs))
    assert values[0] == pytest.approx(values[1], rel=1e-15)
    assert values[0] == pytest.approx(values[2], rel=1e-15)


def test_partial_qfi_alpha_free():
    constants, coeffs = _unit_setup(1.7)
    base = qfi_partial_closed(1, 2, constants, coeffs)
    # The closed form has no alpha argument at all; the general form agrees
    # for any displacement.
    for alpha in (0.0, 1.0, -2.0 + 1.0j):
        corr = correlations_closed_form("partial", alpha, coeffs.c1, 1)
        assert qfi_general(corr, 2, constants, coeffs).qfi == pytest.approx(
            base, rel=1e-12
        )


@pytest.mark.parametrize("field", ["cov_x1_x2", "cov_sz1_sz2", "cov_x1_sz2"])
def test_nan_decomposition_is_a_disagreement(field):
    # CorrelationSet does not bound the two-site covariances, so a NaN there
    # reaches qfi_general, whose decomposition check must not let it pass.
    constants, coeffs = _unit_setup(2.0)
    corr = correlations_closed_form("global", -1.0, coeffs.c1)
    with pytest.raises(ConsistencyError, match="decompositions disagree"):
        qfi_general(dataclasses.replace(corr, **{field: math.nan}), 5, constants, coeffs)


def test_closed_forms_read_only_the_generator_part():
    constants, coeffs = _unit_setup(2.0)
    generator = GeneratorCoefficients(coeffs.c0, coeffs.c1, coeffs.c2)
    alpha = 0.4 - 0.7j
    corr = correlations_closed_form("global", alpha, coeffs.c1)
    for qfi in (
        lambda c: qfi_general(corr, 9, constants, c),
        lambda c: qfi_partial_closed(1, 9, constants, c),
        lambda c: qfi_global_closed(alpha, 9, constants, c),
        lambda c: qfi_difference(alpha, 9, constants, c),
    ):
        assert qfi(coeffs) == qfi(generator)
