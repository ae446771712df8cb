"""Physical constants, driving profiles and evolution coefficients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sagnac_qfi import (
    DrivingProfile,
    PhysicalParams,
    ProfileError,
    coefficients,
    derive_constants,
    profile_integral,
)

UNIT = PhysicalParams()


def test_derived_constants_unit_parameters():
    c = derive_constants(UNIT)
    assert c.t_c == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert c.t_s == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert c.oscillator_length == pytest.approx(1.0, rel=1e-15)
    assert c.reduced_radius == pytest.approx(1.0, rel=1e-15)
    assert c.characteristic_momentum == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert c.sagnac_phase == 0.0
    assert c.trap_frequency == 1.0


def test_derived_constants_stiffer_trap():
    # omega = 4 halves the oscillator length and doubles the reduced radius;
    # t_s = 2 m pi r^2 / hbar does not see omega at all.
    c = derive_constants(PhysicalParams(trap_frequency=4.0))
    assert c.oscillator_length == pytest.approx(0.5, rel=1e-15)
    assert c.reduced_radius == pytest.approx(2.0, rel=1e-15)
    assert c.t_c == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert c.t_s == pytest.approx(2.0 * math.pi, rel=1e-15)


def test_sagnac_phase_tracks_rotation():
    c = derive_constants(PhysicalParams(rotation_rate=0.25))
    assert c.sagnac_phase == pytest.approx(0.25 * c.t_s, rel=1e-15)


@pytest.mark.parametrize("field", ["mass", "hbar", "trap_frequency"])
def test_positive_parameters_enforced(field):
    with pytest.raises(ValueError):
        PhysicalParams(**{field: 0.0})
    with pytest.raises(ValueError):
        PhysicalParams(**{field: -1.0})


@pytest.mark.parametrize(
    "field", ["mass", "hbar", "trap_frequency", "ring_radius", "rotation_rate"]
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        PhysicalParams(**{field: value})


def test_ring_radius_zero_allowed_negative_rejected():
    # r = 0 is a degenerate but well-defined trap (no Sagnac response).
    assert derive_constants(PhysicalParams(ring_radius=0.0)).t_s == 0.0
    with pytest.raises(ValueError):
        PhysicalParams(ring_radius=-0.1)


def test_constant_profile_satisfies_pi_pulse_area():
    tau = 2.7
    profile = DrivingProfile.constant_for(tau)
    assert profile.value == pytest.approx(math.pi / tau, rel=1e-15)
    assert profile_integral(profile, tau) == pytest.approx(math.pi, rel=1e-12)


def test_piecewise_profile_strict_normalization():
    good = DrivingProfile.piecewise([(1.0, 2.0), (2.0, (math.pi - 2.0) / 2.0)])
    assert profile_integral(good, 3.0) == pytest.approx(math.pi, rel=1e-12)
    with pytest.raises(ProfileError):
        DrivingProfile.piecewise([(1.0, 1.0), (2.0, 1.0)])


def test_piecewise_profile_rescale():
    profile = DrivingProfile.piecewise(
        [(1.0, 1.0), (2.0, 1.0)], normalization="rescale"
    )
    assert profile_integral(profile, 3.0) == pytest.approx(math.pi, rel=1e-12)


def test_piecewise_rejects_bad_segments():
    with pytest.raises(ProfileError):
        DrivingProfile.piecewise([])
    with pytest.raises(ProfileError):
        DrivingProfile.piecewise([(-1.0, math.pi)])


def test_sampled_profile_requires_uniform_grid():
    times = np.array([0.0, 1.0, 2.5])
    with pytest.raises(ProfileError):
        DrivingProfile.sampled(times, np.ones_like(times))


def test_sampled_profile_rescale_hits_pi():
    times = np.linspace(0.0, 2.0, 401)
    values = 1.0 + 0.3 * np.sin(2.0 * times)
    profile = DrivingProfile.sampled(times, values, normalization="rescale")
    assert profile_integral(profile, 2.0) == pytest.approx(math.pi, rel=1e-10)


@pytest.mark.parametrize("normalization", ["strict", "rescale"])
def test_sampled_profile_leaves_caller_arrays_alone(normalization):
    times = np.linspace(0.0, 2.0, 401)
    values = np.full_like(times, math.pi / 2.0)
    before = values.copy()
    profile = DrivingProfile.sampled(times, values, normalization=normalization)
    assert times.flags.writeable and values.flags.writeable
    assert not profile.times.flags.writeable and not profile.values.flags.writeable
    times[0] = 0.0
    values[0] = 0.0
    assert profile.values[0] == before[0]


def _sampled_with(bad, index, column, normalization="strict"):
    times = np.linspace(0.0, 2.0, 101)
    values = np.full_like(times, math.pi / 2.0)
    (times if column == "times" else values)[index] = bad
    return DrivingProfile.sampled(times, values, normalization=normalization)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "build",
    [
        DrivingProfile.constant,
        lambda bad: DrivingProfile.piecewise([(math.pi, bad)]),
        lambda bad: DrivingProfile.piecewise([(1.0, 2.0), (bad, 1.0)]),
        lambda bad: _sampled_with(bad, 50, "values"),
        lambda bad: _sampled_with(bad, 50, "values", normalization="rescale"),
        lambda bad: _sampled_with(bad, -1, "times"),
    ],
    ids=["constant", "piecewise-value", "piecewise-duration", "sampled-value",
         "sampled-value-rescale", "sampled-time"],
)
def test_non_finite_profile_inputs_rejected(build, bad):
    with pytest.raises(ProfileError, match="finite"):
        build(bad)


@pytest.mark.parametrize("tau", [math.nan, math.inf])
def test_non_finite_tau_rejected(tau):
    with pytest.raises(ValueError, match="finite"):
        DrivingProfile.constant_for(tau)
    with pytest.raises(ValueError, match="finite"):
        coefficients(UNIT, DrivingProfile.piecewise([(1.0, math.pi)]), tau)


def test_profile_duration_mismatch_rejected():
    profile = DrivingProfile.piecewise([(2.0, math.pi / 2.0)])
    with pytest.raises(ProfileError):
        coefficients(UNIT, profile, 3.0)


def test_omega_p_lookup():
    profile = DrivingProfile.piecewise([(1.0, 2.0), (2.0, (math.pi - 2.0) / 2.0)])
    assert profile.omega_p_at(0.5) == 2.0
    assert profile.omega_p_at(1.5) == pytest.approx((math.pi - 2.0) / 2.0)


def test_coefficients_at_half_period():
    # omega tau = pi with constant driving: C1 = -1, C2 = 1/2, C0 = 0 at rest.
    tau = math.pi
    coeffs = coefficients(UNIT, DrivingProfile.constant_for(tau), tau)
    assert coeffs.c1.real == pytest.approx(-1.0, abs=1e-14)
    assert abs(coeffs.c1.imag) < 1e-14
    assert coeffs.c2 == pytest.approx(0.5, abs=1e-14)
    assert coeffs.c0 == pytest.approx(0.0, abs=1e-14)


def test_coefficients_commensurate_kills_c1():
    tau = 4.0 * math.pi  # two full trap periods
    coeffs = coefficients(UNIT, DrivingProfile.constant_for(tau), tau)
    assert abs(coeffs.c1) < 1e-13
    assert coeffs.c2 == pytest.approx(0.5, abs=1e-13)


@given(st.floats(min_value=0.3, max_value=20.0))
@settings(max_examples=40, deadline=None)
def test_c1_closed_form(tau):
    # C1 = i sin(omega tau / 2) exp(i omega tau / 2) for any profile shape.
    coeffs = coefficients(UNIT, DrivingProfile.constant_for(tau), tau)
    expected = 1j * math.sin(tau / 2.0) * np.exp(1j * tau / 2.0)
    assert coeffs.c1 == pytest.approx(expected, abs=1e-12)


def test_c2_constant_profile_closed_form():
    for tau in (0.8, 2.0, 5.0, 11.0):
        coeffs = coefficients(UNIT, DrivingProfile.constant_for(tau), tau)
        expected = 0.5 * (1.0 - math.sin(tau) / tau)
        assert coeffs.c2 == pytest.approx(expected, rel=1e-12)


def test_c0_tracks_sagnac_phase():
    params = PhysicalParams(rotation_rate=0.4)
    tau = 2.3
    coeffs = coefficients(params, DrivingProfile.constant_for(tau), tau)
    phi_s = derive_constants(params).sagnac_phase
    expected = phi_s / (2.0 * math.pi) * (tau - math.sin(tau))
    assert coeffs.c0 == pytest.approx(expected, rel=1e-12)


def test_displacement_constant_profile_closed_form():
    # eta = -A (e^{i omega tau} - 1) / (i omega) for constant drive amplitude A.
    params = PhysicalParams(rotation_rate=0.3)
    tau = 1.9
    coeffs = coefficients(params, DrivingProfile.constant_for(tau), tau)
    for spin in (+1, -1):
        amp = math.sqrt(0.5) * (0.3 + spin * math.pi / tau)
        expected = -amp * (np.exp(1j * tau) - 1.0) / 1j
        assert coeffs.eta(spin) == pytest.approx(expected, abs=1e-12)


def test_phase_constant_profile_closed_form():
    params = PhysicalParams(rotation_rate=0.3)
    tau = 1.9
    coeffs = coefficients(params, DrivingProfile.constant_for(tau), tau)
    for spin in (+1, -1):
        amp = math.sqrt(0.5) * (0.3 + spin * math.pi / tau)
        expected = amp**2 * (tau - math.sin(tau))
        assert coeffs.phi(spin) == pytest.approx(expected, rel=1e-12)


def test_spin_branches_mirror_at_rest():
    tau = 2.2
    coeffs = coefficients(UNIT, DrivingProfile.constant_for(tau), tau)
    assert coeffs.eta_down == pytest.approx(-coeffs.eta_up, abs=1e-14)
    assert coeffs.phi_down == pytest.approx(coeffs.phi_up, rel=1e-14)


def test_piecewise_matches_quadrature():
    # Closed-form eta/Phi for a two-segment profile vs segment-wise dense
    # Simpson integration of the defining integrals.
    from scipy.integrate import simpson

    params = PhysicalParams(rotation_rate=0.2)
    tau = 3.0
    seg = [(1.2, 1.5), (1.8, (math.pi - 1.8) / 1.8)]
    profile = DrivingProfile.piecewise(seg)
    coeffs = coefficients(params, profile, tau)

    def sin_rect(a1, b1, a2, b2):
        # Int_{a1}^{b1} dt1 Int_{a2}^{b2} dt2 sin(t1 - t2)
        return (
            math.sin(b1 - b2) - math.sin(a1 - b2)
            - math.sin(b1 - a2) + math.sin(a1 - a2)
        )

    for spin in (+1, -1):
        eta_parts = []
        bounds_amps = []
        t_offset = 0.0
        for duration, value in seg:
            t = np.linspace(t_offset, t_offset + duration, 20001)
            amp = math.sqrt(0.5) * (0.2 + spin * value)
            eta_parts.append(-simpson(amp * np.exp(1j * t), x=t))
            bounds_amps.append((t_offset, t_offset + duration, amp))
            t_offset += duration
        assert coeffs.eta(spin) == pytest.approx(sum(eta_parts), abs=1e-9)

        # Phi = Int_0^tau dt1 Int_0^{t1} dt2 f(t1) f(t2) sin(t1 - t2) split into
        # same-segment triangles and later-vs-earlier segment rectangles.
        phi_ref = 0.0
        for i, (a1, b1, amp1) in enumerate(bounds_amps):
            width = b1 - a1
            phi_ref += amp1**2 * (width - math.sin(width))
            for a2, b2, amp2 in bounds_amps[:i]:
                phi_ref += amp1 * amp2 * sin_rect(a1, b1, a2, b2)
        assert coeffs.phi(spin) == pytest.approx(phi_ref, rel=1e-12)


def test_sampled_constant_matches_constant():
    tau = 2.5
    times = np.linspace(0.0, tau, 4001)
    sampled = DrivingProfile.sampled(times, np.full_like(times, math.pi / tau))
    const = DrivingProfile.constant_for(tau)
    a = coefficients(UNIT, sampled, tau)
    b = coefficients(UNIT, const, tau)
    assert a.c1 == pytest.approx(b.c1, abs=1e-12)
    assert a.c2 == pytest.approx(b.c2, abs=1e-10)
    assert a.eta_up == pytest.approx(b.eta_up, abs=1e-10)
    assert a.phi_up == pytest.approx(b.phi_up, abs=1e-10)
