"""Input-state construction and spin-mode correlation extraction."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre, gammaln

from sagnac_qfi import (
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


def _poisson_recursion_truncation(alpha, n, leakage=1e-10):
    """auto_truncation as it was before large |alpha|: the Poisson tail summed
    forward from exp(-lam), kept to pin its d wherever exp(-lam) is normal."""
    lam = abs(alpha) ** 2
    if lam == 0.0:
        return n + 11
    term = math.exp(-lam)
    cum = term
    d0 = 1
    while 1.0 - cum > leakage:
        term *= lam / d0
        cum += term
        d0 += 1
    return d0 + n + 10


def test_auto_truncation_keeps_its_d_where_exp_minus_lambda_is_normal():
    lams = np.concatenate([np.geomspace(1e-8, 1.0, 400), np.linspace(1.0, 708.0, 4000)])
    for n in (0, 1, 2):
        for lam in lams:
            alpha = math.sqrt(lam)
            assert auto_truncation(alpha, n) == _poisson_recursion_truncation(alpha, n), (lam, n)


LARGE_ALPHAS = [27.0, 27.25, 28.0, 40.0]  # |alpha|^2 from 729: exp(-|alpha|^2) is subnormal or 0


@pytest.mark.parametrize("alpha", LARGE_ALPHAS)
def test_both_families_build_where_exp_minus_lambda_underflows(alpha):
    for state in (make_partially_entangled(alpha, 0), make_globally_entangled(alpha)):
        amps = state.branch_up
        assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-12)
        # The realized tail sits below the leakage bound, as at small |alpha|.
        padded = displaced_fock_amplitudes(alpha, 0, amps.size + 40)
        assert np.sum(np.abs(padded[amps.size:]) ** 2) < 1e-10


def test_partial_state_shares_mode_between_branches():
    state = make_partially_entangled(0.8 + 0.1j, 1)
    assert state.branch_up is state.branch_down


def test_global_state_branches_are_mirrored():
    state = make_globally_entangled(0.8 + 0.1j)
    up, down = state.branch_up, state.branch_down
    signs = (-1.0) ** np.arange(up.size)
    np.testing.assert_allclose(down, signs * up, atol=1e-12)


def test_branch_normalization():
    for state in (make_partially_entangled(1.3, 2), make_globally_entangled(-0.7j)):
        assert np.sum(np.abs(state.branch_up) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_truncation_error_suggests_size():
    with pytest.raises(TruncationError) as err:
        make_partially_entangled(3.0, 0, d=5)
    assert err.value.suggested_d is not None
    make_partially_entangled(3.0, 0, d=err.value.suggested_d)  # now fits


def _raw_leak(alpha, n, d):
    return 1.0 - float(np.sum(np.abs(displaced_fock_amplitudes(alpha, n, d)) ** 2))


@pytest.mark.parametrize("alpha, n, auto_d, grown_d", [(5.0, 5, 79, 81), (20.0, 2, 547, 559)])
def test_auto_sized_state_grows_until_it_meets_the_leakage_budget(alpha, n, auto_d, grown_d):
    # auto_truncation's n + 10 levels of headroom fall short here: its d
    # leaks above 1e-10, so the builder grows d to the first that does not.
    assert auto_truncation(alpha, n) == auto_d
    assert _raw_leak(alpha, n, auto_d) > 1e-10
    state = make_partially_entangled(alpha, n)
    assert state.truncation == grown_d
    assert _raw_leak(alpha, n, grown_d) <= 1e-10 < _raw_leak(alpha, n, grown_d - 1)
    # A given d that leaks suggests one that passes.
    with pytest.raises(TruncationError) as err:
        make_partially_entangled(alpha, n, d=auto_d)
    assert err.value.suggested_d == grown_d
    assert make_partially_entangled(alpha, n, d=err.value.suggested_d) == state


def test_auto_sized_states_keep_auto_truncation_where_it_meets_the_budget():
    grown = []
    for alpha in (0.3, 1.0 - 0.5j, 2.5, 4.0j, 7.0):
        for n in range(4):
            d = auto_truncation(alpha, n)
            got = make_partially_entangled(alpha, n).truncation
            if _raw_leak(alpha, n, d) <= 1e-10:
                assert got == d
            else:
                grown.append((alpha, n))
                assert got > d
        assert make_globally_entangled(alpha).truncation == auto_truncation(alpha, 0)
    assert grown == [(7.0, 3)]  # d = 114 leaks 1.7e-10; the state takes d = 115


def test_branch_state_validation():
    # Either branch is checked, also where the other is one valid array.
    good = np.eye(4)[0]
    for bad, match in (
        (np.eye(2) / math.sqrt(2.0), "1-d"),
        (np.zeros(0), "1-d"),
        (0.5 * good, "not normalized"),
    ):
        for up, down in ((bad, good), (good, bad), (bad, bad)):
            with pytest.raises(ValueError, match=match):
                GhzProductState(up, down, 1)


def test_product_state_validation():
    amps = np.eye(4)[0]
    with pytest.raises(ValueError, match="one truncation"):
        GhzProductState(amps, np.eye(5)[0], 1)
    with pytest.raises(ValueError, match="n_particles must be positive"):
        GhzProductState(amps, amps, 0)
    state = GhzProductState(branch_up=amps, branch_down=1j * amps, n_particles=3)
    assert state.truncation == 4 and state.n_particles == 3


def test_product_state_keeps_read_only_complex_branches():
    up = np.array([0.6, 0.8])
    state = GhzProductState(up, [0.8, -0.6j], 1)
    for branch in (state.branch_up, state.branch_down):
        assert branch.dtype == complex and branch.ndim == 1
        with pytest.raises(ValueError, match="read-only"):
            branch[0] = 1.0
    up[0] = 0.0  # the state holds its own complex copy of a real array
    assert state.branch_up[0] == 0.6


def test_product_state_leaves_a_callers_complex_array_writeable():
    up, down = np.array([0.6, 0.8j]), np.array([0.8j, 0.6])
    state = GhzProductState(up, down, 1)
    shared = GhzProductState(down, down, 2)
    assert shared.branch_up is shared.branch_down is not down
    view = shared.branch_up[:]  # a read-only view of a state's branch is copied too
    assert GhzProductState(view, view, 1).branch_up is not view
    up[0] = down[0] = 1.0  # each state froze its own copy
    assert state.branch_up[0] == 0.6 and state.branch_down[0] == 0.8j
    assert shared.branch_up[0] == 0.8j


@pytest.mark.parametrize("build", [
    lambda: make_partially_entangled(0.5 + 0.2j, 1),
    lambda: GhzProductState(*[np.eye(3)[1]] * 2, 1),
], ids=["builder", "direct"])
def test_replace_keeps_a_shared_branch_array_shared(build, monkeypatch):
    # One array passed as both branches is checked once and stays one array,
    # also through dataclasses.replace, so its moments take one pass.
    state = build()
    assert state.branch_up is state.branch_down
    checked = []
    real = states._check_normalized
    monkeypatch.setattr(states, "_check_normalized", lambda a: checked.append(a) or real(a))
    sized = dataclasses.replace(state, n_particles=5)
    assert sized.branch_up is sized.branch_down is state.branch_up
    assert len(checked) == 1
    assert sized == dataclasses.replace(state, n_particles=5) != state


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
    flipped = GhzProductState(branch_up=down, branch_down=up, n_particles=1)
    corr = correlations_generic(a, c1)
    corr_flipped = correlations_generic(flipped, c1)
    assert corr_flipped.cov_x1_sz1 == pytest.approx(-corr.cov_x1_sz1, abs=1e-12)
    assert corr_flipped.var_x1 == pytest.approx(corr.var_x1, abs=1e-12)


def test_correlations_commute_with_truncation_padding():
    c1 = 0.5 + 0.5j
    tight = make_partially_entangled(1.1, 0)
    padded = make_partially_entangled(1.1, 0, d=tight.truncation + 25)
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

    x_u, x2_u = x_moments(state.branch_up)
    x_d, x2_d = x_moments(state.branch_down)
    s_u, s_d = 1.0, -1.0
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


def _one_alpha_factors(n, d, radius):
    """The magnitudes and Laguerre values of <m|D(alpha)|n> at one |alpha|,
    as they were evaluated one alpha at a time (n < 20 here, so no level
    takes scipy's branch)."""
    x = radius**2
    log_radius = math.log(radius)

    def factors(degree, k, log_ratio, binom):
        if isinstance(degree, np.ndarray):
            lag = np.array([
                states._laguerre(m, a, x, b) if m else 1.0
                for m, a, b in zip(degree.tolist(), k.tolist(), binom.tolist())
            ])
        else:
            lag = states._laguerre(degree, k, x, binom) if degree else np.ones(k.size)
        return k, np.exp(log_ratio + k * log_radius - x / 2.0), lag

    upper, lower = states._fock_levels(n, d)
    return factors(*upper), lower and factors(*lower)


def _one_alpha_amplitudes(alpha, n, d):
    """displaced_fock_amplitudes as it was for one alpha at a time."""
    alpha = complex(alpha)
    out = np.zeros(d, dtype=complex)
    if alpha == 0:
        out[n] = 1.0
        return out
    theta = np.angle(alpha)
    (k, mag, lag), lower = _one_alpha_factors(n, d, abs(alpha))
    out[n:] = mag * np.exp(1j * k * theta) * lag
    if lower is not None:
        k, mag, lag = lower
        out[:n] = mag * (-np.exp(-1j * theta)) ** k * lag
    return out


def _one_alpha_branch(alpha, n, d):
    """D(alpha)|n> renormalized, sized and grown one alpha at a time."""
    grow = d == 0
    if grow:
        d = auto_truncation(alpha, n)
    amps = _one_alpha_amplitudes(alpha, n, d)
    leak = 1.0 - float((np.abs(amps) ** 2).sum())
    while grow and leak > states.LEAKAGE and d < 10_000:
        d += 1
        amps = _one_alpha_amplitudes(alpha, n, d)
        leak = 1.0 - float((np.abs(amps) ** 2).sum())
    assert leak <= states.LEAKAGE
    return amps / math.sqrt(1.0 - leak)


def _one_alpha_moments(amps):
    """<a>, <a^2>, <n> of one mode state, one state at a time."""
    d = amps.size
    k = np.arange(d, dtype=float)
    a_mean = complex((amps[:-1].conj() * amps[1:] * np.sqrt(k[1:])).sum())
    if d >= 3:
        root_kk = np.sqrt(k[1:-1] * (k[1:-1] + 1.0))
        a2_mean = complex((amps[:-2].conj() * amps[2:] * root_kk).sum())
    else:
        a2_mean = 0.0 + 0.0j
    return a_mean, a2_mean, float((k * np.abs(amps) ** 2).sum())


# An exact 0, radii up to 3, and radii where D(alpha)|3> outgrows its auto
# truncation (6.12 and 6.17 grow d by one level; 6.2 does not).
SWEEP_RADII = st.one_of(st.just(0.0), st.floats(0.0, 3.0), st.sampled_from([6.12, 6.17, 6.2]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    radii=st.lists(SWEEP_RADII, min_size=1, max_size=4),
    picks=st.lists(
        st.tuples(st.integers(0, 3), st.floats(-math.pi, math.pi), st.booleans()),
        min_size=1, max_size=20,
    ),
    n=st.integers(0, 3),
    d=st.sampled_from([0, 120]),
    kind=st.sampled_from(["partial", "global"]),
    c1=st.builds(complex, finite, finite),
)
@example(radii=[6.12, 6.2], picks=[(0, 0.4, False), (1, -2.0, True), (0, 0.4, True)] * 7,
         n=3, d=0, kind="partial", c1=0.3 + 0.1j)
def test_sweep_blocks_equal_the_one_alpha_construction_bit_for_bit(radii, picks, n, d, kind, c1):
    # Rows repeat an |alpha| from radii at any phase, and some take -alpha.
    # Up to 20 rows: two blocks of SWEEP_BLOCK rows.
    alphas = []
    for pick, theta, negate in picks:
        radius = radii[pick % len(radii)]
        alpha = complex(radius * math.cos(theta), radius * math.sin(theta))
        alphas.append(-alpha if negate else alpha)
    mirror = kind == "global"
    level = 0 if mirror else n
    for row, alpha in zip(displaced_fock_amplitudes(alphas, level, d or 120), alphas):
        assert row.tobytes() == _one_alpha_amplitudes(alpha, level, d or 120).tobytes()

    ups = [_one_alpha_branch(alpha, level, d) for alpha in alphas]
    downs = [_one_alpha_branch(-a, 0, up.size) for a, up in zip(alphas, ups)] if mirror else ups
    blocks = states._branch_amplitudes(alphas, level, d, mirror)
    assert sorted(row for rows, _ in blocks for row in rows) == list(range(len(alphas)))
    for rows, block in blocks:
        for i, row in enumerate(rows):
            assert block[i].tobytes() == ups[row].tobytes()
            assert not mirror or block[len(rows) + i].tobytes() == downs[row].tobytes()

    c1_terms = np.conj(c1), abs(c1) ** 2
    moments = list(states.sweep_mode_moments(kind, alphas, n, d))
    assert len(moments) == len(alphas)
    for (up, down), up_amps, down_amps in zip(moments, ups, downs):
        want = _one_alpha_moments(up_amps), _one_alpha_moments(down_amps)
        assert repr((up, down)) == repr(want)
        one_alpha = GhzProductState(up_amps, down_amps, 1)
        got = dataclasses.astuple(states.branch_correlations(up, down, *c1_terms))
        want = dataclasses.astuple(_per_call_correlations(one_alpha, c1))
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


@pytest.mark.parametrize("kind", ["product", "globl"])
def test_sweep_mode_moments_takes_only_the_entangled_kinds(kind):
    with pytest.raises(ValueError, match="partial or global"):
        next(states.sweep_mode_moments(kind, [0.5], 0, 0))


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
    got = np.array([states._lgam(float(i)) for i in m])
    assert got.tobytes() == gammaln(m).tobytes()


def _scipy_fock_factors(n, d, radius):
    """The displaced-Fock factors built with scipy.special's functions."""
    m = np.arange(d)
    x = radius**2
    hi, lo = m[n:], m[:n]
    log_mag = 0.5 * (gammaln(n + 1) - gammaln(hi + 1)) + (hi - n) * math.log(radius)
    upper = (hi - n, np.exp(log_mag - x / 2.0), eval_genlaguerre(n, hi - n, x))
    log_mag = 0.5 * (gammaln(lo + 1) - gammaln(n + 1)) + (n - lo) * math.log(radius)
    return upper, (n - lo, np.exp(log_mag - x / 2.0), eval_genlaguerre(lo, n - lo, x))


def _assert_fock_factors_equal_scipy(n, d, radii):
    # Every row of one multi-radius block against scipy at its radius.
    got = states._fock_factors(n, d, radii)
    assert (got[1] is None) == (n == 0)
    for row, radius in enumerate(radii):
        want = _scipy_fock_factors(n, d, radius)
        for (k, mag, lag), want_branch in zip(got, want[: 2 if n else 1]):
            for got_array, want_array in zip((k, mag[row], lag[row]), want_branch):
                assert got_array.tobytes() == want_array.tobytes(), (n, d, radius)


@pytest.mark.parametrize("n", [19, 20, 21])
def test_fock_factors_equal_scipy_reference_bit_for_bit(n):
    # Laguerre orders up to DENSE_GUARD, the widest the dense oracle compares.
    for d in (n + 1, n + 37, 4 * n + 60, n + DENSE_GUARD):
        _assert_fock_factors_equal_scipy(n, d, [0.05, 0.7, 1.9999999999999998, 4.5])


def test_a_block_of_many_radii_keeps_each_radius_bits():
    # |alpha|^2 and log|alpha| stay Python scalars of each radius: numpy's
    # square and log of an array of radii round differently for about 1 in
    # 1,200 and 1 in 400 radii, so a block of 10,000 radii catches either.
    radii = np.random.default_rng(23).uniform(0.0, 3.0, 10_000).tolist()
    _assert_fock_factors_equal_scipy(1, 6, radii)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(0, 45),
    extra=st.integers(1, 120),
    radii=st.lists(st.floats(0.01, 7.0), min_size=1, max_size=4),
)
def test_laguerre_port_equals_scipy_bit_for_bit(n, extra, radii):
    # Degree and order on both sides of 20, where scipy's binomial leaves its
    # integer product: above it on the levels m >= n from n = 20 and m - n =
    # 20, and on the levels m < n from n = 40.
    _assert_fock_factors_equal_scipy(n, n + extra, radii)


def test_states_compare_by_value():
    amps = np.eye(4)[0]
    other = np.eye(4)[1]
    state = GhzProductState(amps, other, 2)
    assert (state == GhzProductState(amps.copy(), other.copy(), 2)) is True
    assert (state == GhzProductState(other, amps, 2)) is False
    assert (state == GhzProductState(amps, amps, 2)) is False
    assert (state == GhzProductState(amps, other, 3)) is False
    assert (state == GhzProductState(np.eye(5)[0], np.eye(5)[1], 2)) is False
    assert (state == (amps, other, 2)) is False

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
        GhzProductState(np.array([math.nan, 0.5]), np.array([1.0, 0.0]), 1)
    with pytest.raises(ValueError, match="not normalized"):
        GhzProductState(np.array([1.0, 0.0]), np.array([0.5, math.nan]), 1)


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
    upper, lower = states._fock_levels(2, 12)
    for array in (*upper[1:], *lower, *states._moment_weights(12)):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    # What a caller gets back is its own, writable array.
    displaced_fock_amplitudes(0.8, 2, 12)[0] = 0.0


def test_fock_level_cache_holds_three_abs_alpha_sweeps():
    # Partial states at n = 0, 1, 2 over |alpha| in [0.1, 2.5] meet 75
    # distinct (n, d); run twice from a cleared cache, the second round
    # finds every one of them (at 32 entries it missed all 75 again).
    def sweeps():
        for n in (0, 1, 2):
            run_scan_alpha(load_config(None, [
                "state.kind=partial", f"state.n={n}", "profile.tau=2.0",
                "sweep.variable=abs_alpha", "sweep.scale=linear",
                "sweep.start=0.1", "sweep.stop=2.5", "sweep.points=50",
            ]))
        return states._fock_levels.cache_info().misses

    states._fock_levels.cache_clear()
    first = sweeps()
    assert first == 75
    assert sweeps() == first


def test_theta_sweep_evaluates_laguerre_once_per_magnitude(monkeypatch):
    factor_rows = []
    real = states._fock_factors

    def counted(n, d, radii):
        factor_rows.append(len(radii))
        return real(n, d, radii)

    monkeypatch.setattr(states, "_fock_factors", counted)
    base = 0.9 - 1.3j
    cfg = load_config(None, [
        "state.kind=global", f"state.alpha_re={base.real!r}", f"state.alpha_im={base.imag!r}",
        "profile.tau=2.0", "sweep.variable=theta_alpha", "sweep.scale=linear",
        "sweep.start=0.0", "sweep.stop=6.283185307179586", "sweep.points=50",
    ])
    result = run_scan_alpha(cfg)
    alphas = [complex(abs(base) * np.exp(1j * row["value"])) for row in result["rows"]]
    blocks = [alphas[i:i + states.SWEEP_BLOCK] for i in range(0, 50, states.SWEEP_BLOCK)]
    distinct = sum(len({(auto_truncation(a), abs(a)) for a in block}) for block in blocks)
    assert len(alphas) == 50 and len(blocks) == 4 and 4 <= distinct < len(alphas)
    # Both branches of the rows of a block: one factor row per distinct
    # (d, |alpha|) in the block, where each state once evaluated its own.
    assert sum(factor_rows) == distinct
