"""Physical constants, driving profiles and evolution coefficients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sagnac_qfi import (
    CoefficientSet,
    DrivingProfile,
    GeneratorCoefficients,
    PhysicalParams,
    ProfileError,
    coefficients,
    derive_constants,
    generator_coefficients,
    profile_integral,
)
from sagnac_qfi.model import _eta_phi_segments, drive_amplitude

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
    assert profile.omega_p_at(0.0) == pytest.approx(math.pi / tau, rel=1e-15)
    assert profile_integral(profile, tau) == pytest.approx(math.pi, rel=1e-12)


@pytest.mark.parametrize("value", [0.0, -1.0])
def test_constant_profile_must_be_positive(value):
    # A drive that is zero (or negative) can never reach the pulse area pi.
    with pytest.raises(ProfileError):
        DrivingProfile.constant(value)


def test_constant_profile_too_small_for_its_duration():
    # 1e-320 is finite and positive, but pi/1e-320 is not a float.
    with pytest.raises(ProfileError, match="pi/value overflows"):
        DrivingProfile.constant(1e-320)


def test_constant_for_too_short_a_duration():
    # 1e-320 is finite and positive, but pi/1e-320 is not a float.
    with pytest.raises(ProfileError, match="pi/tau overflows"):
        DrivingProfile.constant_for(1e-320)


@pytest.mark.parametrize("value", [0.3, 1.0, math.pi, 7.5])
def test_constant_profile_is_one_pi_pulse_segment(value):
    tau = math.pi / value
    profile = DrivingProfile.constant(value)
    assert profile.kind == "piecewise"
    assert profile.duration == tau
    a = coefficients(UNIT, profile, tau)
    b = coefficients(UNIT, DrivingProfile.constant_for(tau), tau)
    for field in ("c0", "c1", "c2", "eta_up", "eta_down", "phi_up", "phi_down"):
        assert getattr(a, field) == pytest.approx(getattr(b, field), abs=1e-12)


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


@settings(max_examples=200, deadline=None)
@given(
    samples=st.integers(3, 200),
    index=st.integers(1, 199),
    log_shift=st.floats(-11.0, -7.0),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_sampled_profile_accepts_exactly_the_grids_allclose_calls_uniform(
    samples, index, log_shift, sign
):
    """The uniformity check is np.allclose(steps, steps[0], rtol=1e-9,
    atol=0.0); a grid with one sample moved by about 1e-9 of a step lies on
    either side of it."""
    times = np.linspace(0.0, 2.0, samples)
    index = min(index, samples - 1)
    times[index] += sign * 10.0**log_shift * times[1]
    steps = np.diff(times)
    values = np.full(samples, 1.0)
    if np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        DrivingProfile.sampled(times, values, normalization="rescale")
    else:
        with pytest.raises(ProfileError, match="uniform"):
            DrivingProfile.sampled(times, values, normalization="rescale")


def test_sampled_profile_requires_increasing_times():
    for times in ([0.0, 1.0, 1.0], [0.0, 1.0, 0.5]):
        with pytest.raises(ProfileError, match="strictly increasing"):
            DrivingProfile.sampled(times, np.ones(3), normalization="rescale")


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
    stored = profile.values.copy()
    if normalization == "strict":
        assert np.array_equal(stored, before)
    assert times.flags.writeable and values.flags.writeable
    assert not profile.times.flags.writeable and not profile.values.flags.writeable
    times[0] = 0.0
    values[0] = 0.0
    assert profile.values[0] == stored[0]


_SHAPES = {
    "sine": lambda x, amp, k: 1.0 + amp * np.sin(k * x),
    "ramp": lambda x, amp, k: x ** (1.0 + abs(amp) * k),
    "pulse": lambda x, amp, k: np.exp(-((x - 0.5) ** 2) * (1.0 + k) * 10.0),
    # Area at least 1 and sum |values| at most 3.4 times it: no cancellation.
    "signed": lambda x, amp, k: 1.0 + (1.5 + amp) * np.sin(k * x),
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    shape=st.sampled_from(sorted(_SHAPES)),
    samples=st.integers(3, 2001),
    tau=st.floats(0.1, 10.0),
    amp=st.floats(-0.9, 0.9),
    wavenumber=st.floats(0.0, 12.0),
    jitter=st.floats(0.0, 2e-10),
    seed=st.integers(0, 2**32 - 1),
)
def test_rescale_scales_to_the_area_the_coefficients_see(
    shape, samples, tau, amp, wavenumber, jitter, seed
):
    """The constructor's pulse area and profile_integral are one rule, so a
    rescaled profile integrates to pi, also on a grid whose interior times
    are off by up to 2e-10 of a step (still uniform to the constructor)."""
    times = np.linspace(0.0, tau, samples)
    offsets = np.random.default_rng(seed).uniform(-1.0, 1.0, samples - 2)
    times[1:-1] += jitter * times[1] * offsets
    values = _SHAPES[shape](times / tau, amp, wavenumber)
    profile = DrivingProfile.sampled(times, values, normalization="rescale")
    assert profile_integral(profile, tau) == pytest.approx(math.pi, rel=1e-14)


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


_FIVE = np.linspace(0.0, 1.0, 5)


@pytest.mark.parametrize(
    "build, match",
    [
        # Finite samples whose Simpson sum is inf - inf: a NaN area.
        (lambda: DrivingProfile.sampled(_FIVE, [0.0, 1e308, 0.0, -1e308, 0.0]),
         "strict tolerance"),
        (lambda: DrivingProfile.sampled(
            _FIVE, [0.0, 1e308, 0.0, -1e308, 0.0], normalization="rescale"),
         "cannot rescale"),
        (lambda: DrivingProfile.sampled(_FIVE, [1e308] * 5), "strict tolerance"),
        (lambda: DrivingProfile.sampled(_FIVE, [1e308] * 5, normalization="rescale"),
         "cannot rescale"),
        (lambda: DrivingProfile.piecewise([(1e300, 1e300)]), "strict tolerance"),
        (lambda: DrivingProfile.piecewise([(1e300, 1e300)], normalization="rescale"),
         "cannot rescale"),
        # A finite area so small that pi/area overflows.
        (lambda: DrivingProfile.piecewise([(1.0, 1e-320)], normalization="rescale"),
         "cannot rescale"),
    ],
    ids=["sampled-nan-strict", "sampled-nan-rescale", "sampled-inf-strict",
         "sampled-inf-rescale", "piecewise-inf-strict", "piecewise-inf-rescale",
         "piecewise-tiny-rescale"],
)
def test_non_finite_pulse_areas_rejected(build, match):
    # numpy's overflow warnings on the way are not the point: the error is.
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        ProfileError, match=match
    ):
        build()


@pytest.mark.parametrize("normalization", ["strict", "rescale"])
@pytest.mark.parametrize(
    "values", [[0.0, 1e308, 0.0, -1e308, 0.0], [1e308] * 5], ids=["nan-area", "inf-area"]
)
def test_overflowing_sampled_area_raises_profile_error_not_a_warning(values, normalization):
    # Under the suite's warnings-as-errors policy, with no np.errstate here:
    # the area's overflow must surface as the profile's own error.
    with pytest.raises(ProfileError, match="strict tolerance|cannot rescale"):
        DrivingProfile.sampled(_FIVE, values, normalization=normalization)


@pytest.mark.parametrize("kind", ["Piecewise", "constant", ""])
def test_unknown_profile_kind_rejected(kind):
    # Read as piecewise, this drive would get C2 = -2.36 with no error.
    with pytest.raises(ProfileError, match="unknown profile kind"):
        DrivingProfile(kind=kind, segments=((math.pi / 2.0, -8.0), (math.pi / 2.0, 10.0)))


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


def _eta_along(params, segments, spin, t):
    """eta(t) = -int_0^t f e^{iws} ds, summed segment by segment over each
    segment's part of [0, t]."""
    w = params.trap_frequency
    eta = np.zeros(t.shape, dtype=complex)
    start = 0.0
    for dur, wp in segments:
        end = np.clip(t, start, start + dur)
        amp = float(drive_amplitude(params, wp, spin))
        eta -= amp * (np.exp(1j * w * end) - np.exp(1j * w * start)) / (1j * w)
        start += dur
    return eta


@pytest.mark.parametrize(
    "params",
    [
        UNIT,
        PhysicalParams(ring_radius=2.0),
        PhysicalParams(rotation_rate=0.3),
        PhysicalParams(rotation_rate=-0.2, trap_frequency=1.3),
    ],
    ids=["defaults", "r2", "omega0.3", "omega-0.2"],
)
def test_path_bound_covers_eta_along_two_segment_drive(params):
    # The identity suite's two-segment drive, whose |eta(t)| peaks mid-path.
    tau = 0.7 * 2.0 * math.pi / params.trap_frequency
    profile = DrivingProfile.piecewise(
        [(tau / 4.0, 2.0 * math.pi / tau), (3.0 * tau / 4.0, 2.0 * math.pi / (3.0 * tau))]
    )
    t = np.linspace(0.0, tau, 20001)
    for spin in (+1, -1):
        eta, _, bound = _eta_phi_segments(params, profile.segments, spin)
        path = np.abs(_eta_along(params, profile.segments, spin, t))
        assert abs(_eta_along(params, profile.segments, spin, t[-1:])[0] - eta) < 1e-12
        assert path.max() > abs(eta)
        assert path.max() <= bound * (1.0 + 1e-12)


@pytest.mark.parametrize("turns", [1.0, 1.4, 3.0])
def test_path_bound_of_constant_drive_is_circle_diameter(turns):
    # From eta(0) = 0 a constant amplitude A traces a circle of radius |A|/w
    # through the origin; once w tau >= pi it reaches the far side, 2|A|/w.
    params = PhysicalParams(trap_frequency=1.3, ring_radius=1.5, rotation_rate=0.3)
    w = params.trap_frequency
    tau = turns * math.pi / w
    profile = DrivingProfile.constant_for(tau)
    for spin in (+1, -1):
        amp = float(drive_amplitude(params, profile.segments[0][1], spin))
        _, _, bound = _eta_phi_segments(params, profile.segments, spin)
        assert bound == pytest.approx(2.0 * abs(amp) / w, rel=1e-12, abs=1e-12)


def test_piecewise_profiles_compare_by_value_and_stay_hashable():
    a = DrivingProfile.piecewise([(1.0, 2.0), (2.0, (math.pi - 2.0) / 2.0)])
    b = DrivingProfile.piecewise([(1.0, 2.0), (2.0, (math.pi - 2.0) / 2.0)])
    assert a == b and hash(a) == hash(b)
    assert a != DrivingProfile.constant_for(3.0)
    assert len({a, b, DrivingProfile.constant_for(3.0)}) == 2


def test_sampled_profiles_compare_by_value():
    times = np.linspace(0.0, 2.0, 401)
    values = 1.0 + 0.3 * np.sin(2.0 * times)
    a = DrivingProfile.sampled(times, values, normalization="rescale")
    b = DrivingProfile.sampled(times, values, normalization="rescale")
    c = DrivingProfile.sampled(times, values + 0.1, normalization="rescale")
    assert (a == b) is True
    assert (a == c) is False
    assert (a != c) is True
    assert (a == DrivingProfile.constant_for(2.0)) is False
    # The coefficient memo is not part of the value.
    coefficients(UNIT, a, 2.0)
    assert a._coefficient_memo and not b._coefficient_memo
    assert a == b
    assert "_coefficient_memo" not in repr(a)


def _generator_bits(coeffs):
    return tuple(float.hex(x) for x in (coeffs.c0, coeffs.c1.real, coeffs.c1.imag, coeffs.c2))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    params=st.builds(
        PhysicalParams,
        mass=st.floats(0.5, 2.0),
        trap_frequency=st.floats(0.5, 2.0),
        ring_radius=st.floats(0.0, 2.0),
        rotation_rate=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.5, 0.5)),
    ),
    kind=st.sampled_from(["piecewise", "sampled"]),
    values=st.lists(st.floats(0.1, 3.0), min_size=1, max_size=4),
    tau=st.floats(0.2, 12.0),
    samples=st.integers(3, 201),
)
def test_generator_part_equals_the_coefficient_set_bit_for_bit(
    params, kind, values, tau, samples
):
    if kind == "piecewise":
        width = tau / len(values)
        profile = DrivingProfile.piecewise(
            [(width, v) for v in values], normalization="rescale"
        )
        tau = profile.duration
    else:
        times = np.linspace(0.0, tau, samples)
        profile = DrivingProfile.sampled(
            times, np.interp(times, np.linspace(0.0, tau, len(values)), values),
            normalization="rescale",
        )
    generator = generator_coefficients(params, profile, tau)
    full = coefficients(params, profile, tau)
    assert type(generator) is GeneratorCoefficients
    assert isinstance(full, CoefficientSet) and isinstance(full, GeneratorCoefficients)
    assert _generator_bits(generator) == _generator_bits(full)


# Strict area pi, but C2 = (1 - 18/pi)/2 < 0: only a negative segment gets
# there, and only by bypassing the piecewise constructor's checks.
_NEGATIVE_DRIVE = DrivingProfile(
    kind="piecewise", segments=((math.pi / 2.0, -8.0), (math.pi / 2.0, 10.0))
)


@pytest.mark.parametrize("evaluate", [coefficients, generator_coefficients])
@pytest.mark.parametrize(
    "profile, tau, match",
    [
        (DrivingProfile.constant_for(2.0), 2.5, "does not match"),
        (DrivingProfile(kind="piecewise", segments=((1.0, 1.0),)), 1.0, "strict tolerance"),
        (_NEGATIVE_DRIVE, math.pi, "outside \\[0, 1\\]"),
    ],
    ids=["duration", "area", "c2-range"],
)
def test_generator_part_runs_every_profile_check(evaluate, profile, tau, match):
    with pytest.raises(ProfileError, match=match):
        evaluate(UNIT, profile, tau)
