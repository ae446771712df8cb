"""Input-state construction and spin-mode correlation extraction."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre, gammaln

from sagnac_qfi import (
    BranchState,
    CorrelationSet,
    GhzProductState,
    TruncationError,
    auto_truncation,
    correlations_closed_form,
    correlations_generic,
    correlations_single_branch,
    displaced_fock_amplitudes,
    load_config,
    make_globally_entangled,
    make_partially_entangled,
    run_scan_alpha,
    run_scan_tau,
    states,
)
from sagnac_qfi.oracle import DENSE_GUARD


def test_displaced_vacuum_is_coherent_state():
    alpha = 0.7 - 0.4j
    amps = displaced_fock_amplitudes(alpha, 0, 30)
    k = np.arange(30)
    from scipy.special import gammaln

    expected = np.exp(
        -0.5 * abs(alpha) ** 2 + k * np.log(alpha + 0j) - 0.5 * gammaln(k + 1.0)
    )
    np.testing.assert_allclose(amps, expected, atol=1e-14)


def test_displaced_fock_columns_are_orthonormal():
    alpha = 1.1 + 0.2j
    d = 60
    cols = [displaced_fock_amplitudes(alpha, n, d) for n in range(4)]
    for i, a in enumerate(cols):
        for j, b in enumerate(cols):
            overlap = np.vdot(a, b)
            assert overlap == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


def test_displaced_fock_requires_room():
    with pytest.raises(ValueError):
        displaced_fock_amplitudes(1.0, 5, 5)


def test_auto_truncation_grows_with_amplitude():
    ds = [auto_truncation(a) for a in (0.0, 0.5, 1.0, 2.0, 4.0)]
    assert ds == sorted(ds)
    assert ds[0] >= 1


def test_auto_truncation_keeps_leakage_small():
    for alpha, n in ((0.9, 0), (2.0, 1), (3.5, 2)):
        d = auto_truncation(alpha, n)
        amps = displaced_fock_amplitudes(alpha, n, d + 40)
        tail = np.sum(np.abs(amps[d:]) ** 2)
        assert tail < 1e-10


def test_partial_state_shares_mode_between_branches():
    state = make_partially_entangled(0.8 + 0.1j, 1)
    np.testing.assert_array_equal(
        state.branch_up.mode_amplitudes, state.branch_down.mode_amplitudes
    )
    assert state.branch_up.spin_sign == +1
    assert state.branch_down.spin_sign == -1


def test_global_state_branches_are_mirrored():
    state = make_globally_entangled(0.8 + 0.1j)
    up = state.branch_up.mode_amplitudes
    down = state.branch_down.mode_amplitudes
    signs = (-1.0) ** np.arange(up.size)
    np.testing.assert_allclose(down, signs * up, atol=1e-12)


def test_branch_normalization():
    for state in (make_partially_entangled(1.3, 2), make_globally_entangled(-0.7j)):
        assert np.sum(np.abs(state.branch_up.mode_amplitudes) ** 2) == pytest.approx(
            1.0, abs=1e-12
        )


def test_truncation_error_suggests_size():
    with pytest.raises(TruncationError) as err:
        make_partially_entangled(3.0, 0, d=5)
    assert err.value.suggested_d is not None
    make_partially_entangled(3.0, 0, d=err.value.suggested_d)  # now fits


def test_branch_state_validation():
    good = np.zeros(4)
    good[0] = 1.0
    with pytest.raises(ValueError):
        BranchState(spin_sign=2, mode_amplitudes=good)
    with pytest.raises(ValueError):
        BranchState(spin_sign=1, mode_amplitudes=0.5 * good)


def test_product_state_validation():
    amps = np.zeros(4)
    amps[0] = 1.0
    up = BranchState(spin_sign=+1, mode_amplitudes=amps)
    down = BranchState(spin_sign=-1, mode_amplitudes=amps)
    with pytest.raises(ValueError):
        GhzProductState(branch_up=down, branch_down=down, n_particles=1)
    with pytest.raises(ValueError):
        GhzProductState(branch_up=up, branch_down=up, n_particles=1)
    with pytest.raises(ValueError):
        GhzProductState(branch_up=up, branch_down=down, n_particles=0)


def test_correlation_set_validation():
    with pytest.raises(ValueError):
        CorrelationSet(
            var_x1=-0.5, var_sz1=1.0, cov_x1_sz1=0.0,
            cov_x1_x2=0.0, cov_sz1_sz2=0.0, cov_x1_sz2=0.0,
        )
    with pytest.raises(ValueError):
        # |Cov(X, sz)| can't exceed sqrt(Var X * Var sz)
        CorrelationSet(
            var_x1=1.0, var_sz1=1.0, cov_x1_sz1=2.0,
            cov_x1_x2=0.0, cov_sz1_sz2=0.0, cov_x1_sz2=0.0,
        )


@pytest.mark.parametrize("n", [0, 1, 3])
def test_partial_correlations_match_closed_form(n):
    rng = np.random.default_rng(7)
    for _ in range(5):
        alpha = complex(rng.normal(0, 1), rng.normal(0, 1))
        c1 = complex(rng.normal(0, 0.7), rng.normal(0, 0.7))
        state = make_partially_entangled(alpha, n)
        got = correlations_generic(state, c1)
        want = correlations_closed_form("partial", alpha, c1, n)
        for field in (
            "var_x1", "var_sz1", "cov_x1_sz1", "cov_x1_x2", "cov_sz1_sz2", "cov_x1_sz2"
        ):
            assert getattr(got, field) == pytest.approx(
                getattr(want, field), abs=1e-10
            ), field


def test_partial_closed_form_values():
    # Var X1 = (2n + 1)|C1|^2 independent of alpha; spin covariances pin to
    # the GHZ values; mode-spin cross terms vanish.
    c1 = 0.3 - 0.8j
    corr = correlations_closed_form("partial", 1.7 - 0.2j, c1, 2)
    assert corr.var_x1 == pytest.approx(5.0 * abs(c1) ** 2, rel=1e-12)
    assert corr.var_sz1 == 1.0
    assert corr.cov_sz1_sz2 == 1.0
    assert corr.cov_x1_sz1 == 0.0
    assert corr.cov_x1_x2 == 0.0
    assert corr.cov_x1_sz2 == 0.0


def test_global_correlations_match_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(8):
        alpha = complex(rng.normal(0, 1), rng.normal(0, 1))
        c1 = complex(rng.normal(0, 0.7), rng.normal(0, 0.7))
        state = make_globally_entangled(alpha)
        got = correlations_generic(state, c1)
        want = correlations_closed_form("global", alpha, c1)
        for field in (
            "var_x1", "var_sz1", "cov_x1_sz1", "cov_x1_x2", "cov_sz1_sz2", "cov_x1_sz2"
        ):
            assert getattr(got, field) == pytest.approx(
                getattr(want, field), abs=1e-10
            ), field


def test_global_closed_form_values():
    c1 = 0.4 + 0.5j
    alpha = -1.2 + 0.3j
    re = (c1 * np.conj(alpha)).real
    corr = correlations_closed_form("global", alpha, c1)
    assert corr.var_x1 == pytest.approx(4.0 * re**2 + abs(c1) ** 2, rel=1e-12)
    assert corr.cov_x1_x2 == pytest.approx(4.0 * re**2, rel=1e-12)
    assert corr.cov_x1_sz1 == pytest.approx(2.0 * re, rel=1e-12)
    assert corr.cov_x1_sz2 == pytest.approx(2.0 * re, rel=1e-12)
    assert corr.var_sz1 == 1.0
    assert corr.cov_sz1_sz2 == 1.0


def test_closed_form_rejects_unknown_kind():
    with pytest.raises(ValueError):
        correlations_closed_form("squeezed", 0.0, 1.0)


def test_single_branch_correlations():
    c1 = 0.6 - 0.2j
    corr = correlations_single_branch(1, c1)
    assert corr.var_x1 == pytest.approx(3.0 * abs(c1) ** 2, rel=1e-12)
    assert corr.var_sz1 == 0.0
    assert corr.cov_x1_x2 == 0.0
    assert corr.cov_x1_sz1 == 0.0


def test_generic_correlations_use_actual_spin_signs():
    # Swapping which branch carries which displacement flips the sign of the
    # mode-spin covariance.
    c1 = -1.0 + 0.0j
    a = make_globally_entangled(0.9)
    up = a.branch_up
    down = a.branch_down
    flipped = GhzProductState(
        branch_up=BranchState(spin_sign=+1, mode_amplitudes=down.mode_amplitudes),
        branch_down=BranchState(spin_sign=-1, mode_amplitudes=up.mode_amplitudes),
        n_particles=1,
    )
    corr = correlations_generic(a, c1)
    corr_flipped = correlations_generic(flipped, c1)
    assert corr_flipped.cov_x1_sz1 == pytest.approx(-corr.cov_x1_sz1, abs=1e-12)
    assert corr_flipped.var_x1 == pytest.approx(corr.var_x1, abs=1e-12)


def test_correlations_commute_with_truncation_padding():
    c1 = 0.5 + 0.5j
    tight = make_partially_entangled(1.1, 0)
    padded = make_partially_entangled(1.1, 0, d=tight.branch_up.truncation + 25)
    a = correlations_generic(tight, c1)
    b = correlations_generic(padded, c1)
    assert a.var_x1 == pytest.approx(b.var_x1, abs=1e-10)


def _per_call_correlations(state, c1):
    """correlations_generic as it was before the moments were cached: both
    branches' mode moments recomputed from the amplitudes on every call."""

    def x_moments(amps):
        d = amps.size
        k = np.arange(d, dtype=float)
        a_mean = complex(np.sum(np.conj(amps[:-1]) * amps[1:] * np.sqrt(k[1:])))
        if d >= 3:
            a2_mean = complex(
                np.sum(np.conj(amps[:-2]) * amps[2:] * np.sqrt(k[1:-1] * (k[1:-1] + 1.0)))
            )
        else:
            a2_mean = 0.0 + 0.0j
        n_mean = float(np.sum(k * np.abs(amps) ** 2))
        x = 2.0 * (np.conj(c1) * a_mean).real
        x2 = 2.0 * (np.conj(c1) ** 2 * a2_mean).real + abs(c1) ** 2 * (2.0 * n_mean + 1.0)
        return x, x2

    x_u, x2_u = x_moments(state.branch_up.mode_amplitudes)
    x_d, x2_d = x_moments(state.branch_down.mode_amplitudes)
    s_u = float(state.branch_up.spin_sign)
    s_d = float(state.branch_down.spin_sign)
    x_mean = 0.5 * (x_u + x_d)
    s_mean = 0.5 * (s_u + s_d)
    return CorrelationSet(
        var_x1=0.5 * (x2_u + x2_d) - x_mean**2,
        var_sz1=0.5 * (s_u**2 + s_d**2) - s_mean**2,
        cov_x1_sz1=0.5 * (x_u * s_u + x_d * s_d) - x_mean * s_mean,
        cov_x1_x2=0.5 * (x_u**2 + x_d**2) - x_mean**2,
        cov_sz1_sz2=0.5 * (s_u**2 + s_d**2) - s_mean**2,
        cov_x1_sz2=0.5 * (x_u * s_u + x_d * s_d) - x_mean * s_mean,
    )


finite = st.floats(min_value=-2.0, max_value=2.0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    alpha=st.builds(complex, finite, finite),
    n=st.integers(0, 2),
    c1s=st.lists(st.builds(complex, finite, finite), min_size=1, max_size=3),
    kind=st.sampled_from(["partial", "global"]),
)
def test_cached_moments_give_the_per_call_correlations_bit_for_bit(alpha, n, c1s, kind):
    state = (
        make_partially_entangled(alpha, n) if kind == "partial" else make_globally_entangled(alpha)
    )
    for c1 in c1s:  # the first call fills the cache, the later ones read it
        assert dataclasses.astuple(correlations_generic(state, c1)) == dataclasses.astuple(
            _per_call_correlations(state, c1)
        )


@pytest.mark.parametrize("kind, most", [("global", 2), ("partial", 1)])
def test_a_tau_scan_computes_the_mode_moments_once(monkeypatch, kind, most):
    calls = []
    real = states._mode_moments

    def counted(amps):
        calls.append(amps.size)
        return real(amps)

    monkeypatch.setattr(states, "_mode_moments", counted)
    cfg = load_config(None, [
        f"state.kind={kind}", "state.n=1", "sweep.variable=tau", "sweep.scale=linear",
        "sweep.start=0.5", "sweep.stop=30.0", "sweep.points=400",
    ])
    assert len(run_scan_tau(cfg)["rows"]) == 400
    assert 1 <= len(calls) <= most
    assert kind == "global" or len(calls) == 1


def test_moments_wait_for_the_first_correlation(monkeypatch):
    calls = []
    monkeypatch.setattr(states, "_mode_moments", lambda amps: calls.append(1))
    make_globally_entangled(0.7 - 0.2j)
    make_partially_entangled(0.7 - 0.2j, 2)
    assert calls == []


def _amplitudes_by_mask(alpha, n, d):
    """displaced_fock_amplitudes with boolean masks over all levels."""
    alpha = complex(alpha)
    m = np.arange(d)
    x = abs(alpha) ** 2
    theta = np.angle(alpha)
    out = np.zeros(d, dtype=complex)
    hi = m >= n
    k = m[hi] - n
    log_mag = 0.5 * (gammaln(n + 1) - gammaln(m[hi] + 1)) + k * math.log(abs(alpha))
    out[hi] = np.exp(log_mag - x / 2.0) * np.exp(1j * k * theta) * eval_genlaguerre(n, k, x)
    lo = ~hi
    k = n - m[lo]
    log_mag = 0.5 * (gammaln(m[lo] + 1) - gammaln(n + 1)) + k * math.log(abs(alpha))
    out[lo] = (
        np.exp(log_mag - x / 2.0) * (-np.exp(-1j * theta)) ** k * eval_genlaguerre(m[lo], k, x)
    )
    return out


# Angles 0, pi, -pi and -0.0 exactly, as np.angle reads them.
EDGE_DIRECTIONS = [complex(1.0, 0.0), complex(-1.0, 0.0), complex(-1.0, -0.0), complex(1.0, -0.0)]


@settings(max_examples=250, deadline=None, derandomize=True)
@given(
    alpha=st.one_of(
        st.builds(complex, finite, finite).filter(lambda a: a != 0),
        st.builds(
            lambda r, u: complex(r * u.real, r * u.imag),
            st.floats(0.05, 3.0),
            st.sampled_from(EDGE_DIRECTIONS),
        ),
    ),
    n=st.integers(0, 4),
    extra=st.integers(1, 40),
)
def test_sliced_amplitudes_equal_the_masked_ones_bit_for_bit(alpha, n, extra):
    # The factors of alpha, then -alpha, then alpha again: a miss or a hit,
    # then hits, each with the bits of the uncached formula.
    d = n + extra
    for a in (alpha, -alpha, alpha):
        want = _amplitudes_by_mask(a, n, d).tobytes()
        assert displaced_fock_amplitudes(a, n, d).tobytes() == want


def test_gammaln_port_equals_scipy_on_every_level_bit_for_bit():
    # Up to 10,100: above the largest truncation auto_truncation returns
    # (10,000 + n + 10), so every level it can size is covered.
    m = np.arange(1, 10_101)
    assert states.gammaln(m).tobytes() == gammaln(m).tobytes()
    for i in (1, 2, 12, 13, 999, 1000, 10_100):
        assert states.gammaln(i).tobytes() == gammaln(i).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(0, 25),
    k=st.lists(st.integers(0, DENSE_GUARD), min_size=1, max_size=40),
    pairs=st.lists(st.tuples(st.integers(0, 25), st.integers(0, 25)), min_size=1, max_size=25),
    x=st.floats(0.0, 50.0),
)
def test_laguerre_port_equals_scipy_bit_for_bit(n, k, pairs, x):
    # n on both sides of 20, where scipy's binomial leaves its integer product.
    k = np.array(k)
    assert states.eval_genlaguerre(n, k, x).tobytes() == eval_genlaguerre(n, k, x).tobytes()
    # One degree per element, as on the levels below a Fock level.
    degrees, alphas = (np.array(column) for column in zip(*pairs))
    want = eval_genlaguerre(degrees, alphas, x)
    assert states.eval_genlaguerre(degrees, alphas, x).tobytes() == want.tobytes()
    lo = np.arange(n)
    want = eval_genlaguerre(lo, n - lo, x)
    assert states.eval_genlaguerre(lo, n - lo, x).tobytes() == want.tobytes()


def _scipy_fock_factors(n, d, radius):
    """The displaced-Fock factors built with scipy.special's functions."""
    m = np.arange(d)
    x = radius**2
    hi, lo = m[n:], m[:n]
    log_mag = 0.5 * (gammaln(n + 1) - gammaln(hi + 1)) + (hi - n) * math.log(radius)
    upper = (hi - n, np.exp(log_mag - x / 2.0), eval_genlaguerre(n, hi - n, x))
    log_mag = 0.5 * (gammaln(lo + 1) - gammaln(n + 1)) + (n - lo) * math.log(radius)
    return upper, (n - lo, np.exp(log_mag - x / 2.0), eval_genlaguerre(lo, n - lo, x))


@pytest.mark.parametrize("n", [19, 20, 21])
def test_fock_factors_equal_scipy_reference_bit_for_bit(n):
    for d in (n + 1, n + 37, 4 * n + 60):
        for radius in (0.05, 0.7, 1.9999999999999998, 4.5):
            got = states._fock_factors(n, d, radius)
            want = _scipy_fock_factors(n, d, radius)
            for got_branch, want_branch in zip(got, want):
                for got_array, want_array in zip(got_branch, want_branch):
                    assert got_array.tobytes() == want_array.tobytes(), (n, d, radius)


def test_states_compare_by_value():
    amps = np.zeros(4)
    amps[0] = 1.0
    up = BranchState(spin_sign=+1, mode_amplitudes=amps)
    assert (up == BranchState(spin_sign=+1, mode_amplitudes=amps.copy())) is True
    assert (up == BranchState(spin_sign=-1, mode_amplitudes=amps)) is False
    assert (up == BranchState(spin_sign=+1, mode_amplitudes=np.roll(amps, 1))) is False
    assert (up == BranchState(spin_sign=+1, mode_amplitudes=np.zeros(5) + (np.arange(5) == 0))) is False

    partial = make_partially_entangled(0.5 + 0.2j, 1)
    assert (partial == make_partially_entangled(0.5 + 0.2j, 1)) is True
    assert (partial == make_partially_entangled(0.5 + 0.2j, 2)) is False
    assert (partial == make_partially_entangled(0.5 + 0.2j, 1, n_particles=2)) is False
    assert (partial == make_globally_entangled(0.5 + 0.2j)) is False
    # Cached mode moments are not part of the value.
    correlations_generic(partial, 0.3 + 0.1j)
    assert partial == make_partially_entangled(0.5 + 0.2j, 1)


NON_FINITE = [math.nan, math.inf, -math.inf, complex(0.5, math.nan), complex(math.inf, 0.0)]


@pytest.mark.parametrize("alpha", NON_FINITE, ids=repr)
def test_non_finite_alpha_is_rejected(alpha):
    with pytest.raises(ValueError, match="alpha must be finite"):
        displaced_fock_amplitudes(alpha, 1, 12)
    with pytest.raises(ValueError, match="alpha must be finite"):
        auto_truncation(alpha, 1)
    with pytest.raises(ValueError, match="alpha must be finite"):
        make_globally_entangled(alpha)
    with pytest.raises(ValueError, match="alpha must be finite"):
        make_partially_entangled(alpha, 1)
    with pytest.raises(ValueError, match="alpha must be finite"):
        make_globally_entangled(alpha, d=12)


def test_nan_branch_amplitudes_are_not_normalized():
    with pytest.raises(ValueError, match="not normalized"):
        BranchState(spin_sign=+1, mode_amplitudes=np.array([math.nan, 0.5]))


@pytest.mark.parametrize(
    "field, match",
    [("var_x1", "nonnegative"), ("var_sz1", "nonnegative"), ("cov_x1_sz1", "Cauchy-Schwarz")],
)
def test_nan_correlations_are_rejected(field, match):
    values = dict(var_x1=1.0, var_sz1=1.0, cov_x1_sz1=0.5,
                  cov_x1_x2=0.0, cov_sz1_sz2=0.0, cov_x1_sz2=0.0)
    values[field] = math.nan
    with pytest.raises(ValueError, match=match):
        CorrelationSet(**values)


def test_cached_factors_are_read_only():
    upper, lower = states._fock_factors(2, 12, 0.8)
    for array in (*upper, *lower, *states._moment_weights(12)):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    # What a caller gets back is its own, writable array.
    displaced_fock_amplitudes(0.8, 2, 12)[0] = 0.0


def test_theta_sweep_evaluates_laguerre_once_per_magnitude(monkeypatch):
    states._fock_factors.cache_clear()
    calls = []
    real = states.eval_genlaguerre

    def counted(n, k, x):
        calls.append((n, k.size, x))
        return real(n, k, x)

    monkeypatch.setattr(states, "eval_genlaguerre", counted)
    base = 0.9 - 1.3j
    cfg = load_config(None, [
        "state.kind=global", f"state.alpha_re={base.real!r}", f"state.alpha_im={base.imag!r}",
        "profile.tau=2.0", "sweep.variable=theta_alpha", "sweep.scale=linear",
        "sweep.start=0.0", "sweep.stop=6.283185307179586", "sweep.points=50",
    ])
    result = run_scan_alpha(cfg)
    alphas = [complex(abs(base) * np.exp(1j * row["value"])) for row in result["rows"]]
    distinct = {(0, auto_truncation(a), abs(a)) for a in alphas}
    assert len(alphas) == 50 and 1 <= len(distinct) < len(alphas)
    # Both branches of all 50 states: one evaluation per distinct (n, d, |alpha|).
    assert len(calls) == len(distinct)
