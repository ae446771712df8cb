"""Property tests: the three QFI routes agree on random physical inputs.

For random (m, hbar, omega, r, Omega, tau) under a constant or a two-segment
piecewise profile, the general correlation form must match the closed form
of the same state to 1e-10 relative, and the variance and fidelity oracles
must match it to 1e-5 relative, at N <= 2.  On random two-branch states,
which have no closed form, the general form must match both oracles to
1e-5 relative, at N up to 1000, and on sampled drives as coarse as three
samples.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sagnac_qfi import (
    DrivingProfile,
    GhzProductState,
    PhysicalParams,
    coefficients,
    correlations_generic,
    derive_constants,
    make_globally_entangled,
    make_partially_entangled,
    qfi_fidelity_numeric,
    qfi_general,
    qfi_global_closed,
    qfi_partial_closed,
    qfi_variance_numeric,
)

GENERAL_RTOL = 1e-10
ORACLE_RTOL = 1e-5

unit_scale = st.floats(min_value=0.5, max_value=2.0)
params_strategy = st.builds(
    PhysicalParams,
    mass=unit_scale,
    hbar=unit_scale,
    trap_frequency=unit_scale,
    ring_radius=st.floats(min_value=0.2, max_value=1.5),
    rotation_rate=st.floats(min_value=-0.5, max_value=0.5),
)
# None draws the constant profile; a pair (split, ratio) draws two segments
# of durations split*tau and (1 - split)*tau whose values stand in the given
# ratio, rescaled to the pulse area pi.
profile_shape = st.none() | st.tuples(
    st.floats(min_value=0.2, max_value=0.8), st.floats(min_value=0.2, max_value=3.0)
)


def _profile(shape, tau: float) -> DrivingProfile:
    if shape is None:
        return DrivingProfile.constant_for(tau)
    split, ratio = shape
    return DrivingProfile.piecewise(
        [(split * tau, 1.0), ((1.0 - split) * tau, ratio)], normalization="rescale"
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    params=params_strategy,
    tau_periods=st.floats(min_value=0.2, max_value=1.2),
    shape=profile_shape,
    alpha_abs=st.floats(min_value=0.0, max_value=1.4),
    alpha_phase=st.floats(min_value=-math.pi, max_value=math.pi),
    fock_n=st.integers(min_value=0, max_value=2),
    n_particles=st.integers(min_value=1, max_value=2),
)
def test_three_routes_agree(params, tau_periods, shape, alpha_abs, alpha_phase, fock_n,
                            n_particles):
    tau = tau_periods * 2.0 * math.pi / params.trap_frequency
    profile = _profile(shape, tau)
    coeffs = coefficients(params, profile, tau)
    constants = derive_constants(params)
    alpha = cmath.rect(alpha_abs, alpha_phase)
    for state, closed in (
        (
            make_partially_entangled(alpha, fock_n, n_particles=n_particles),
            qfi_partial_closed(fock_n, n_particles, constants, coeffs),
        ),
        (
            make_globally_entangled(alpha, n_particles=n_particles),
            qfi_global_closed(alpha, n_particles, constants, coeffs),
        ),
    ):
        scale = max(1.0, abs(closed))
        corr = correlations_generic(state, coeffs.c1)
        general = qfi_general(corr, n_particles, constants, coeffs).qfi
        assert abs(general - closed) <= GENERAL_RTOL * scale
        variance = qfi_variance_numeric(state, params, profile, tau)
        assert abs(variance - closed) <= ORACLE_RTOL * scale
        fidelity = qfi_fidelity_numeric(state, params, profile, tau)
        assert abs(fidelity - closed) <= ORACLE_RTOL * scale


# A third profile kind beside profile_shape's two: (a, k) draws the
# nonnegative drive 1 + a sin(k pi t / tau), a <= 1, sampled on
# SAMPLED_POINTS grid points and rescaled to the pulse area pi.
SAMPLED_POINTS = 2001
sampled_shape = st.tuples(
    st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=6)
).map(lambda ak: ("sampled", *ak))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    levels=st.integers(min_value=2, max_value=7),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_particles=st.sampled_from([1, 2, 100, 1000]),
    shape=profile_shape | sampled_shape,
    ring_radius=st.floats(min_value=0.5, max_value=2.0),
    rotation_rate=st.floats(min_value=-0.3, max_value=0.3),
    tau_periods=st.floats(min_value=0.2, max_value=1.2),
)
def test_general_form_matches_both_oracles_on_random_branch_states(
    levels, seed, n_particles, shape, ring_radius, rotation_rate, tau_periods
):
    # Any two normalized mode vectors of one length make a state; none of
    # them has a closed form, so the oracles are the only reference.
    rng = np.random.default_rng(seed)
    up, down = rng.normal(size=(2, levels)) + 1j * rng.normal(size=(2, levels))
    state = GhzProductState(up / np.linalg.norm(up), down / np.linalg.norm(down), n_particles)
    params = PhysicalParams(ring_radius=ring_radius, rotation_rate=rotation_rate)
    tau = tau_periods * 2.0 * math.pi
    if shape is not None and shape[0] == "sampled":
        _, a, k = shape
        t = np.linspace(0.0, tau, SAMPLED_POINTS)
        profile = DrivingProfile.sampled(t, 1.0 + a * np.sin(k * math.pi * t / tau),
                                         normalization="rescale")
    else:
        profile = _profile(shape, tau)
    coeffs = coefficients(params, profile, tau)
    corr = correlations_generic(state, coeffs.c1)
    general = qfi_general(corr, n_particles, derive_constants(params), coeffs).qfi
    scale = max(1.0, abs(general))
    variance = qfi_variance_numeric(state, params, profile, tau)
    assert abs(variance - general) <= ORACLE_RTOL * scale
    fidelity = qfi_fidelity_numeric(state, params, profile, tau)
    assert abs(fidelity - general) <= ORACLE_RTOL * scale


@pytest.mark.parametrize("rotation_rate", [0.0, 0.3])
@pytest.mark.parametrize("samples", [3, 5, 9, 17, 33])
def test_general_form_matches_both_oracles_on_coarse_sampled_grids(samples, rotation_rate):
    # Omega enters a sampled drive's eta and Phi in closed form, as it enters
    # C1, so the routes describe one evolution on any grid, not only on one
    # that resolves e^{iwt}: sin(pi t / T0) over one trap period T0, on a
    # random two-level state.
    tau = 2.0 * math.pi
    t = np.linspace(0.0, tau, samples)
    profile = DrivingProfile.sampled(t, np.sin(math.pi * t / tau), normalization="rescale")
    rng = np.random.default_rng(0)
    up, down = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    state = GhzProductState(up / np.linalg.norm(up), down / np.linalg.norm(down), 1)
    params = PhysicalParams(rotation_rate=rotation_rate)
    coeffs = coefficients(params, profile, tau)
    corr = correlations_generic(state, coeffs.c1)
    general = qfi_general(corr, 1, derive_constants(params), coeffs).qfi
    scale = max(1.0, abs(general))
    assert abs(qfi_variance_numeric(state, params, profile, tau) - general) <= ORACLE_RTOL * scale
    assert abs(qfi_fidelity_numeric(state, params, profile, tau) - general) <= ORACLE_RTOL * scale
