"""Coefficients of sampled profiles: the Simpson kernels, which must return
scipy.integrate's bits, and the per-profile memo of coefficient sets."""

import dataclasses
import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson, simpson

from sagnac_qfi import (
    DrivingProfile,
    PhysicalParams,
    ProfileError,
    coefficients,
    make_partially_entangled,
    qfi_fidelity_numeric,
)
from sagnac_qfi import model
from sagnac_qfi.model import COEFFICIENT_MEMO_SIZE, _cumulative_simpson, _simpson
from sagnac_qfi.oracle import qfi_variance_numeric, site_generator_numeric

TAU = 2.5


def _profile(samples=401, amp=0.3):
    times = np.linspace(0.0, TAU, samples)
    shape = 1.0 + amp * np.sin(2.0 * times / TAU)
    return DrivingProfile.sampled(times, shape, normalization="rescale")


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _cumulative(y, h):
    """The kernel into buffers that hold stale values, as in the work block."""
    out, scratch = np.full((2, y.size), np.nan)
    got = _cumulative_simpson(y, h, out, scratch)
    assert got is out
    return got


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 400),
    seed=st.integers(0, 2**32 - 1),
    log_h=st.floats(-5.0, 5.0),
)
@example(n=2, seed=0, log_h=0.0)
@example(n=3, seed=1, log_h=-5.0)
@example(n=20000, seed=2, log_h=-3.0)
@example(n=20001, seed=3, log_h=-4.0)
def test_kernel_equals_scipy_cumulative_simpson_bit_for_bit(n, seed, log_h):
    rng = np.random.default_rng(seed)
    magnitudes = 10.0 ** rng.uniform(-5.0, 5.0, n)
    y = rng.choice([-1.0, 1.0], n) * magnitudes
    h = 10.0**log_h
    want = cumulative_simpson(y, dx=h, initial=0.0)
    assert _bits(_cumulative(y, h)) == _bits(want)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_kernel_keeps_scipys_signed_zeros(n):
    y = np.full(n, -0.0)
    want = cumulative_simpson(y, dx=0.5, initial=0.0)
    assert _bits(_cumulative(y, 0.5)) == _bits(want)


def _drawn_samples(rng, n):
    """Signed magnitudes over ten decades, with a drawn share of signed zeros."""
    y = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-5.0, 5.0, n)
    zeros = rng.random(n) < rng.choice([0.0, 0.3, 1.0])
    y[zeros] = rng.choice([-0.0, 0.0], n)[zeros]
    return y


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(2, 400),
    seed=st.integers(0, 2**32 - 1),
    log_h=st.floats(-5.0, 5.0),
    direction=st.sampled_from([1.0, -1.0]),
)
@example(n=2, seed=0, log_h=0.0, direction=1.0)
@example(n=3, seed=1, log_h=-5.0, direction=1.0)
@example(n=20000, seed=2, log_h=-3.0, direction=1.0)
@example(n=20001, seed=3, log_h=-4.0, direction=1.0)
def test_simpson_kernel_equals_scipy_simpson_bit_for_bit(n, seed, log_h, direction):
    """dx is any step: the sampled profiles' steps are positive, but the
    kernel follows scipy everywhere."""
    rng = np.random.default_rng(seed)
    y = _drawn_samples(rng, n)
    h = direction * 10.0**log_h
    got, want = _simpson(y, dx=h), simpson(y, dx=h)
    assert type(got) is type(want)
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("h", [0.5, -0.5])
def test_simpson_kernel_keeps_scipys_signed_zeros(n, h):
    for signs in itertools.product([-0.0, 0.0], repeat=n):
        y = np.array(signs)
        assert _bits(_simpson(y, dx=h)) == _bits(simpson(y, dx=h)), signs


def _steps_whose_powers_depend_on_type(count=40):
    """Steps h for which numpy's np.float64 scalar and 0-d array give a
    different h**2 or h**3."""
    rng = np.random.default_rng(7)
    found = []
    while len(found) < count:
        h = rng.uniform(0.5, 2.0)
        if (np.float64(h) ** 2 != np.asarray(h) ** 2
                or np.float64(h) ** 3 != np.asarray(h) ** 3):
            found.append(h)
    return found


def test_simpson_kernel_weighs_the_last_interval_with_scipys_types():
    """Each y isolates one weight of the last-interval correction (the
    parabola sum over the first three samples is 0), so a weight computed
    from a step of another type than scipy's np.float64 shows in the
    result."""
    weights = [[0.0, 0.0, 0.0, 1.0], [-1.0, 0.0, 1.0, 0.0], [-4.0, 1.0, 0.0, 0.0]]
    for h in _steps_whose_powers_depend_on_type():
        for y in map(np.array, weights):
            assert _bits(_simpson(y, dx=h)) == _bits(simpson(y, dx=h))


def _assert_same_bits(got, want):
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert type(a) is type(b), field.name
        assert _bits([complex(a).real, complex(a).imag]) == _bits(
            [complex(b).real, complex(b).imag]
        ), field.name


@settings(max_examples=60, deadline=None)
@given(
    samples=st.integers(2, 600),
    amp=st.floats(-0.9, 0.9),
    wavenumber=st.floats(0.0, 6.0),
    rotation_rate=st.floats(-0.5, 0.5),
    ring_radius=st.floats(0.0, 2.0),
    normalization=st.sampled_from(["rescale", "strict"]),
)
@example(samples=20001, amp=0.3, wavenumber=2.0, rotation_rate=0.1, ring_radius=1.0,
         normalization="rescale")
@example(samples=20000, amp=0.0, wavenumber=0.0, rotation_rate=-0.0, ring_radius=1.5,
         normalization="strict")
def test_sampled_coefficients_keep_their_bits_with_scipys_simpson(
    samples, amp, wavenumber, rotation_rate, ring_radius, normalization
):
    def build():
        times = np.linspace(0.0, TAU, samples)
        shape = 1.0 + amp * np.sin(wavenumber * times / TAU)
        if normalization == "strict":
            shape = np.full(samples, math.pi / TAU)
        return DrivingProfile.sampled(times, shape, normalization=normalization)

    params = PhysicalParams(ring_radius=ring_radius, rotation_rate=rotation_rate)
    profile = build()
    got = coefficients(params, profile, TAU)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_simpson", lambda y, *, dx, scratch=None: simpson(y, dx=dx))
        reference = build()
        want = coefficients(params, reference, TAU)
    assert _bits(profile.values) == _bits(reference.values)
    _assert_same_bits(got, want)


@pytest.mark.parametrize("samples", [2, 3, 400, 401, 20001])
@pytest.mark.parametrize("rotation_rate", [-0.3, -0.0, 0.0, 0.2])
def test_sampled_coefficients_equal_scipy_reference_bit_for_bit(
    monkeypatch, samples, rotation_rate
):
    params = PhysicalParams(ring_radius=1.5, rotation_rate=rotation_rate)
    profile = _profile(samples)
    got = coefficients(params, profile, TAU)
    monkeypatch.setattr(
        model, "_cumulative_simpson",
        lambda y, h, out, scratch: np.copyto(out, cumulative_simpson(y, dx=h, initial=0.0)),
    )
    want = coefficients(params, _profile(samples), TAU)
    _assert_same_bits(got, want)


@pytest.mark.parametrize("samples", [2, 3, 400, 20001])
def test_spins_keep_their_bits_whichever_fills_the_work_block_first(samples):
    params = PhysicalParams(ring_radius=1.5, rotation_rate=0.2)
    profile = _profile(samples)
    want = coefficients(params, profile, TAU)
    for order in ((+1, -1), (-1, +1)):
        work = model._sampled_work(params, profile)
        work[2:] = np.nan  # stale rows, as an earlier pass leaves them
        for spin in order:
            eta, phi = model._eta_phi_sampled(params, profile, spin, work)
            assert _bits([eta.real, eta.imag, phi]) == _bits(
                [want.eta(spin).real, want.eta(spin).imag, want.phi(spin)]
            )
            # The drive row holds drive_amplitude's bits.
            assert _bits(work[2]) == _bits(model.drive_amplitude(params, profile.values, spin))


@settings(max_examples=200, deadline=None)
@given(
    samples=st.sampled_from([2, 3]) | st.integers(2, 400),
    seed=st.integers(0, 2**32 - 1),
    tau=st.floats(0.1, 10.0),
    ring_radius=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 2.0),
    rotation_rate=st.sampled_from([0.0, -0.0]),
)
@example(samples=2, seed=0, tau=TAU, ring_radius=0.0, rotation_rate=0.0)
@example(samples=3, seed=1, tau=TAU, ring_radius=1.5, rotation_rate=-0.0)
def test_zero_rotation_down_branch_has_the_two_pass_bits(
    samples, seed, tau, ring_radius, rotation_rate
):
    # At Omega = +-0 the down branch is read off the up branch's pass unless
    # a zero could carry another sign; either way its eta and Phi have the
    # bits of its own pass, signed zeros included.  The drawn samples hold
    # signed zeros, and at ring radius 0 every eta is zero.
    values = _drawn_samples(np.random.default_rng(seed), samples)
    if _simpson(values, dx=tau / (samples - 1)) < 0:
        values = -values
    try:
        profile = DrivingProfile.sampled(
            np.linspace(0.0, tau, samples), values, normalization="rescale"
        )
    except ProfileError:  # no positive area to rescale
        assume(False)
    params = PhysicalParams(ring_radius=ring_radius, rotation_rate=rotation_rate)
    got = coefficients(params, profile, tau)
    work = model._sampled_work(params, profile)
    for spin in (+1, -1):
        eta, phi = model._eta_phi_sampled(params, profile, spin, work)
        assert _bits([got.eta(spin).real, got.eta(spin).imag, got.phi(spin)]) == _bits(
            [eta.real, eta.imag, phi]
        )


@pytest.mark.parametrize("rotation_rate, passes", [(0.0, 1), (-0.0, 1), (0.1, 2)])
def test_zero_rotation_makes_one_eta_phi_pass(monkeypatch, rotation_rate, passes):
    spins = []
    real = model._eta_phi_sampled
    monkeypatch.setattr(
        model, "_eta_phi_sampled", lambda *args: spins.append(args[2]) or real(*args)
    )
    coefficients(PhysicalParams(rotation_rate=rotation_rate), _profile(), TAU)
    assert spins == [+1, -1][:passes]


def _count_passes(monkeypatch) -> list:
    """Record the (params, tau) of every quadrature pass `coefficients` makes."""
    passes = []
    inner = model._coefficients

    def counted(params, profile, tau):
        passes.append((params, tau))
        return inner(params, profile, tau)

    monkeypatch.setattr(model, "_coefficients", counted)
    return passes


def test_repeated_call_makes_no_quadrature_pass(monkeypatch):
    passes = _count_passes(monkeypatch)
    profile = _profile()
    params = PhysicalParams(rotation_rate=0.1)
    first = coefficients(params, profile, TAU)
    again = coefficients(PhysicalParams(rotation_rate=0.1), profile, TAU)
    assert again is first
    assert len(passes) == 1


def test_other_params_or_tau_miss(monkeypatch):
    passes = _count_passes(monkeypatch)
    profile = _profile()
    base = coefficients(PhysicalParams(), profile, TAU)
    other = coefficients(PhysicalParams(ring_radius=1.25), profile, TAU)
    # Within _check_tau's 1e-9 slack, so the same profile accepts it.
    near = coefficients(PhysicalParams(), profile, math.nextafter(TAU, 3.0))
    assert len(passes) == 3
    assert other.eta_up != base.eta_up
    assert near.c1 != base.c1


@pytest.mark.parametrize("order", [(-0.0, 0.0), (0.0, -0.0)])
def test_signed_zero_rotation_rates_are_separate_entries(order):
    profile = _profile()
    for rate in order + order:
        c0 = coefficients(PhysicalParams(rotation_rate=rate), profile, TAU).c0
        assert math.copysign(1.0, c0) == math.copysign(1.0, rate)
    assert len(profile._coefficient_memo) == 2


def test_failed_call_stores_nothing_and_raises_again():
    profile = _profile()
    for _ in range(2):
        with pytest.raises(ProfileError, match="does not match"):
            coefficients(PhysicalParams(), profile, 3.0)
        assert profile._coefficient_memo == {}


def test_memo_never_exceeds_its_bound(monkeypatch):
    passes = _count_passes(monkeypatch)
    profile = _profile()
    rates = [0.01 * k for k in range(COEFFICIENT_MEMO_SIZE + 5)]
    for rate in rates:
        coefficients(PhysicalParams(rotation_rate=rate), profile, TAU)
        assert len(profile._coefficient_memo) <= COEFFICIENT_MEMO_SIZE
    assert len(passes) == len(rates)
    # The newest entries stay; the oldest was dropped and is integrated again.
    coefficients(PhysicalParams(rotation_rate=rates[-1]), profile, TAU)
    assert len(passes) == len(rates)
    coefficients(PhysicalParams(rotation_rate=rates[0]), profile, TAU)
    assert len(passes) == len(rates) + 1


def test_replaced_and_rebuilt_profiles_start_empty():
    profile = _profile()
    coefficients(PhysicalParams(), profile, TAU)
    assert len(profile._coefficient_memo) == 1
    assert dataclasses.replace(profile)._coefficient_memo == {}
    assert _profile()._coefficient_memo == {}


def test_non_float_inputs_bypass_the_memo(monkeypatch):
    passes = _count_passes(monkeypatch)
    profile = _profile()
    params = PhysicalParams(ring_radius=2)
    assert coefficients(params, profile, TAU) == coefficients(params, profile, TAU)
    assert len(passes) == 2
    assert profile._coefficient_memo == {}


def test_piecewise_profiles_use_the_memo(monkeypatch):
    passes = _count_passes(monkeypatch)
    profile = DrivingProfile.constant_for(TAU)
    first = coefficients(PhysicalParams(), profile, TAU)
    assert coefficients(PhysicalParams(), profile, TAU) is first
    assert len(passes) == 1
    assert len(profile._coefficient_memo) == 1


def test_variance_oracle_on_a_piecewise_profile_makes_one_pass_per_key(monkeypatch):
    """generator_numeric evaluates Omega and Omega +/- delta, +/- delta/2 for
    each spin: 13 calls on 5 distinct (params, tau), one pass each."""
    passes = _count_passes(monkeypatch)
    calls = []
    traced = model.coefficients

    def counted(params, profile, tau):
        calls.append(params)
        return traced(params, profile, tau)

    monkeypatch.setattr(sys.modules["sagnac_qfi.oracle"], "coefficients", counted)
    state = make_partially_entangled(0.4 + 0.1j, 1)
    qfi_variance_numeric(state, PhysicalParams(rotation_rate=0.2),
                         DrivingProfile.constant_for(2.0), 2.0)
    assert len(calls) == 13
    assert len(passes) == len(set(passes)) == 5


def test_one_oracle_call_fits_in_the_memo(monkeypatch):
    """Each distinct (params, tau) of one oracle call on one profile is
    integrated once, and there are no more of them than the memo holds."""
    passes = _count_passes(monkeypatch)
    params = PhysicalParams(rotation_rate=0.2)
    state = make_partially_entangled(0.4 + 0.1j, 1)

    site_generator_numeric(params, _profile(), TAU, 48)
    assert len(passes) == len(set(passes)) == 5

    passes.clear()
    qfi_fidelity_numeric(state, params, _profile(), TAU)
    assert len(passes) == len(set(passes)) <= COEFFICIENT_MEMO_SIZE


def test_threads_sharing_a_profile_keep_the_memo_bounded():
    profile = _profile(101)
    rates = [0.01 * k for k in range(2 * COEFFICIENT_MEMO_SIZE)]
    want = {rate: coefficients(PhysicalParams(rotation_rate=rate), _profile(101), TAU)
            for rate in rates}
    errors = []

    def work(shift):
        try:
            for rate in (rates[shift:] + rates[:shift]) * 5:
                got = coefficients(PhysicalParams(rotation_rate=rate), profile, TAU)
                assert got == want[rate]
                assert len(profile._coefficient_memo) <= COEFFICIENT_MEMO_SIZE
        except Exception as exc:  # reported below, from the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
