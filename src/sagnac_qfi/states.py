"""Two-branch GHZ-type input states and their correlation functions.

Both interferometer input families share one shape: an equal superposition of
two N-fold product branches, one per spin orientation, each branch carrying a
single bosonic mode state,

    |psi> = ( |+1, u>^{(x)N} + |-1, v>^{(x)N} ) / sqrt(2).

Because the spin factors of the two branches are orthogonal at every site,
the state is exactly normalized whatever the spatial overlap <u|v>, and every
expectation of operators diagonal in the spin label reduces to the equal
weight average of per-branch expectations.  That branch-average rule is what
correlations_generic implements; correlations_closed_form carries the
tabulated special cases for D(alpha)|n> branches (partially entangled) and
|alpha>, |-alpha> coherent branches (globally entangled).

Bounded caches hold the factors that repeat across a sweep, as read-only
arrays: the log-factorial ratios and binomials of D(alpha)|n>, keyed by
(n, d), and its magnitudes and Laguerre values, keyed by (n, d, |alpha|)
(each FOCK_FACTOR_CACHE_SIZE entries), and the sqrt(k) weights of the mode
moments, keyed by d (MOMENT_WEIGHT_CACHE_SIZE entries).  Each result has the
bits it would have without them.  A non-finite alpha raises ValueError before
it reaches any of them.

The log-Gamma and Laguerre values have the bits of scipy.special's gammaln
and eval_genlaguerre on the integer arguments used here: they are ports of
Cephes' lgam (S. L. Moshier, Methods and Programs for Mathematical Functions,
1989) and of scipy's eval_genlaguerre_l with its integer binomial product, so
the closed route loads no scipy module.  Only a Laguerre value whose degree
and order are both at least 20, where scipy leaves that product, imports
scipy.special.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .exceptions import TruncationError

DEFAULT_LEAKAGE = 1e-10
# Distinct (n, d, |alpha|), and distinct (n, d), whose displaced-Fock factors
# stay cached.  A sweep of the phase of alpha meets a few |alpha| (their bits
# vary in the last place); a sweep of |alpha| meets a few d.
FOCK_FACTOR_CACHE_SIZE = 32
# Distinct truncations d whose moment weights stay cached.
MOMENT_WEIGHT_CACHE_SIZE = 32


@dataclass(frozen=True)
class BranchState:
    """One product branch: a spin eigenvalue and a truncated mode state."""

    spin_sign: int
    mode_amplitudes: np.ndarray

    def __post_init__(self):
        if self.spin_sign not in (+1, -1):
            raise ValueError(f"spin_sign must be +1 or -1, got {self.spin_sign}")
        amps = np.asarray(self.mode_amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size < 1:
            raise ValueError("mode_amplitudes must be a nonempty 1-d vector")
        norm = float((np.abs(amps) ** 2).sum())
        if not abs(norm - 1.0) <= 1e-12:  # a NaN fails too
            raise ValueError(f"branch not normalized: sum |amp|^2 = {norm!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "mode_amplitudes", amps)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.spin_sign == other.spin_sign and np.array_equal(
            self.mode_amplitudes, other.mode_amplitudes
        )

    @property
    def truncation(self) -> int:
        return self.mode_amplitudes.size


@dataclass(frozen=True)
class GhzProductState:
    branch_up: BranchState
    branch_down: BranchState
    n_particles: int

    def __post_init__(self):
        if self.branch_up.spin_sign != +1 or self.branch_down.spin_sign != -1:
            raise ValueError("branch_up must carry spin +1 and branch_down spin -1")
        if self.branch_up.truncation != self.branch_down.truncation:
            raise ValueError("both branches must share one truncation")
        if self.n_particles < 1:
            raise ValueError(f"n_particles must be positive, got {self.n_particles}")

    @property
    def truncation(self) -> int:
        return self.branch_up.truncation

    @cached_property
    def mode_moments(self):
        """(<a>, <a^2>, <n>) of the up and the down branch's mode state.

        Computed on first use, so a state that is only evolved never pays for
        them, and then reused by every correlation call on this state.  Branches
        that share one amplitude array (the partially entangled state) share
        one moment pass.
        """
        up = self.branch_up.mode_amplitudes
        down = self.branch_down.mode_amplitudes
        moments_up = _mode_moments(up)
        return moments_up, moments_up if down is up else _mode_moments(down)


@dataclass(frozen=True)
class CorrelationSet:
    """The six correlation functions feeding the general QFI.

    X is the quadrature C1 a^dag + C1* a on one site; indices 1, 2 label any
    two distinct sites (all sites are equivalent by permutation symmetry).
    """

    var_x1: float
    var_sz1: float
    cov_x1_sz1: float
    cov_x1_x2: float
    cov_sz1_sz2: float
    cov_x1_sz2: float

    def __post_init__(self):
        if not (self.var_x1 >= -1e-12 and self.var_sz1 >= -1e-12):
            raise ValueError(
                f"variances must be nonnegative, got {self.var_x1} and {self.var_sz1}"
            )
        bound = math.sqrt(max(self.var_x1, 0.0) * max(self.var_sz1, 0.0))
        if not abs(self.cov_x1_sz1) <= bound + 1e-10:
            raise ValueError(
                f"Cauchy-Schwarz violated: |{self.cov_x1_sz1}| > sqrt({self.var_x1} * {self.var_sz1})"
            )


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for array in arrays:
        array.setflags(write=False)
    return arrays


# Cephes' lgam: Stirling's series at x >= 13 with these coefficients, highest
# power first, and log(sqrt(2 pi)).
_LGAM_STIRLING = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LOG_SQRT_2PI = 0.91893853320467274178
# scipy's binom(n, k) multiplies integers only while min(k, n - k) < 20.
_BINOM_PRODUCT_LIMIT = 20


def _lgam(x: float) -> float:
    """Cephes' lgam at a whole x >= 1, in its operations and order."""
    if x < 13.0:
        z = 1.0
        while x >= 3.0:
            x -= 1.0
            z *= x
        return math.log(z)
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + (
            (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
            + 0.0833333333333333333333
        ) / x
    series = 0.0
    for coef in _LGAM_STIRLING:
        series = series * p + coef
    return q + series / x


def _binom(n: float, k: float) -> float:
    """scipy's binom(n, k) at whole n >= k >= 0 where scipy takes its product
    of integers, min(k, n - k) < _BINOM_PRODUCT_LIMIT; NaN elsewhere."""
    kx = n - k if k > n / 2 else k
    if kx >= _BINOM_PRODUCT_LIMIT:
        return math.nan
    num = den = 1.0
    for i in range(1, int(kx) + 1):
        num *= i + n - kx
        den *= i
        if abs(num) > 1e50:
            num /= den
            den = 1.0
    return num / den


def _laguerre(n: int, alpha, x: float, binom):
    """scipy's eval_genlaguerre_l at a degree n >= 1 for a whole alpha >= 0 (a
    number or an array), given binom(n + alpha, n), in scipy's operations and
    order; numpy rounds + - * / elementwise as scalar code does.  (j + alpha)
    + 1 is written alpha + (j + 1), the same float while alpha is whole."""
    if n == 1:
        return -x + alpha + 1.0
    t = alpha + 1.0
    d = -x / t
    p = d + 1.0
    for j in range(1, n):
        t = alpha + (j + 1.0)
        d = -x / t * p + j / t * d
        p = d + p
    return binom * p


@lru_cache(maxsize=FOCK_FACTOR_CACHE_SIZE)
def _fock_levels(n: int, d: int):
    """The factors of <m|D(alpha)|n> that do not depend on alpha: (Laguerre
    degree, order k = |m - n|, log sqrt(min(m, n)! / max(m, n)!), scipy's
    binom(degree + k, degree) from _binom) on the levels m >= n, whose one
    degree is the int n, then on the levels m < n (None when n = 0), as
    read-only arrays."""
    log_factorial = np.array([_lgam(m + 1.0) for m in range(d)])
    upper = (n, *_read_only(
        np.arange(d - n),
        0.5 * (log_factorial[n] - log_factorial[n:]),
        np.array([_binom(float(m), float(n)) for m in range(n, d)]),
    ))
    if n == 0:
        return upper, None  # no m < n levels
    lo = np.arange(n)
    return upper, _read_only(
        lo,
        n - lo,
        0.5 * (log_factorial[:n] - log_factorial[n]),
        np.array([_binom(float(n), float(m)) for m in range(n)]),
    )


@lru_cache(maxsize=FOCK_FACTOR_CACHE_SIZE, typed=True)
def _fock_factors(n: int, d: int, radius: float):
    """The factors of <m|D(alpha)|n> that depend on |alpha| = radius but not
    on the phase of alpha: (k, magnitude, Laguerre value) on the levels
    m >= n, then on the levels m < n (None when n = 0), as read-only arrays."""
    x = radius**2
    log_radius = math.log(radius)

    def factors(degree, k, log_ratio, binom):
        if isinstance(degree, np.ndarray):  # one degree per level
            lag = np.array([
                _laguerre(m, a, x, b) if m else 1.0
                for m, a, b in zip(degree.tolist(), k.tolist(), binom.tolist())
            ])
        else:  # one degree: the recurrence runs over every order at once
            lag = _laguerre(degree, k, x, binom) if degree else np.ones(k.size)
        if n >= _BINOM_PRODUCT_LIMIT:  # below it every binomial is an integer product
            far = np.isnan(binom)  # where scipy leaves that product
            if far.any():
                from scipy.special import eval_genlaguerre

                lag[far] = eval_genlaguerre(np.broadcast_to(degree, k.shape)[far], k[far], x)
        return _read_only(k, np.exp(log_ratio + k * log_radius - x / 2.0), lag)

    upper, lower = _fock_levels(n, d)
    return factors(*upper), lower and factors(*lower)


def displaced_fock_amplitudes(alpha: complex, n: int, d: int) -> np.ndarray:
    """Fock amplitudes <m|D(alpha)|n> for m = 0..d-1.

    Associated-Laguerre closed form, evaluated through log-Gamma so large
    factorial ratios never overflow.  This is the independent counterpart of
    the oracle's matrix-exponential displacement column.  The log-Gamma and
    Laguerre factors depend on (n, d, |alpha|) only, so they come from a
    cache of the last FOCK_FACTOR_CACHE_SIZE such triples: a sweep of the
    phase of alpha, and the |-alpha> branch after the |alpha> one, reuse
    them.  Only the phase factor is computed on every call.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    if n >= d:
        raise ValueError(f"Fock level n = {n} does not fit in truncation d = {d}")
    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if alpha == 0:
        amps = np.zeros(d, dtype=complex)
        amps[n] = 1.0
        return amps
    theta = np.angle(alpha)
    out = np.zeros(d, dtype=complex)
    (k, mag, lag), lower = _fock_factors(n, d, abs(alpha))
    out[n:] = mag * np.exp(1j * k * theta) * lag
    if lower is not None:
        k, mag, lag = lower
        out[:n] = mag * (-np.exp(-1j * theta)) ** k * lag
    return out


def auto_truncation(alpha: complex, n: int = 0, leakage: float = DEFAULT_LEAKAGE) -> int:
    """Smallest d with Poisson(|alpha|^2) tail mass below the leakage bound,
    plus n + 10 headroom levels.  The headroom usually pushes the realized
    tail of D(alpha)|n> orders of magnitude below the bound; where the spread
    of D(alpha)|n>, about sqrt(2n + 1) |alpha|, outgrows it, the state
    builders grow d further."""
    if not cmath.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    lam = abs(alpha) ** 2
    if lam == 0.0:
        return n + 11
    term = math.exp(-lam)
    # Above lam ~ 708 e^-lam is subnormal (0 above ~ 745) and too coarse to
    # start the recursion from, so each term comes from its logarithm instead.
    from_log = term < sys.float_info.min
    cum = term
    d0 = 1
    while 1.0 - cum > leakage:
        if from_log:
            term = math.exp(d0 * math.log(lam) - lam - math.lgamma(d0 + 1.0))
        else:
            term *= lam / d0
        cum += term
        d0 += 1
        if d0 > 10_000:
            raise TruncationError(f"no truncation found for |alpha|^2 = {lam}")
    return d0 + n + 10


def _branch_amplitudes(alpha: complex, n: int, d: int, leakage: float) -> np.ndarray:
    """D(alpha)|n> on d levels, renormalized after checking that it leaks at
    most leakage.  d = 0 takes auto_truncation's d, grown a level at a time
    while the state leaks more; a given d that leaks raises TruncationError
    with that grown d as the suggestion."""
    grow = d == 0
    if grow:
        d = auto_truncation(alpha, n, leakage)
    amps = displaced_fock_amplitudes(alpha, n, d)
    leak = 1.0 - float((np.abs(amps) ** 2).sum())
    while grow and leak > leakage and d < 10_000:
        d += 1
        amps = displaced_fock_amplitudes(alpha, n, d)
        leak = 1.0 - float((np.abs(amps) ** 2).sum())
    if not leak <= leakage:
        raise TruncationError(
            f"truncation d = {d} leaks {leak:.3e} > {leakage:.3e} for "
            f"alpha = {alpha}, n = {n}",
            suggested_d=None if grow else _branch_amplitudes(alpha, n, 0, leakage).size,
        )
    return amps / math.sqrt(1.0 - leak)


def make_partially_entangled(
    alpha: complex,
    n: int,
    d: int = 0,
    n_particles: int = 1,
    leakage: float = DEFAULT_LEAKAGE,
) -> GhzProductState:
    """Both branches carry the same displaced Fock state D(alpha)|n>;
    only the spins differ."""
    amps = _branch_amplitudes(alpha, n, d, leakage)
    return GhzProductState(
        branch_up=BranchState(+1, amps),
        branch_down=BranchState(-1, amps),  # one read-only array, one moment pass
        n_particles=n_particles,
    )


def make_globally_entangled(
    alpha: complex,
    d: int = 0,
    n_particles: int = 1,
    leakage: float = DEFAULT_LEAKAGE,
) -> GhzProductState:
    """Spin +1 branch carries |alpha>, spin -1 branch carries |-alpha>."""
    up = _branch_amplitudes(alpha, 0, d, leakage)
    down = _branch_amplitudes(-alpha, 0, up.size, leakage)
    return GhzProductState(
        branch_up=BranchState(+1, up),
        branch_down=BranchState(-1, down),
        n_particles=n_particles,
    )


@lru_cache(maxsize=MOMENT_WEIGHT_CACHE_SIZE)
def _moment_weights(d: int):
    """k, sqrt(k) and sqrt(k (k + 1)) on the levels that <n>, <a> and <a^2>
    weigh, as read-only arrays."""
    k = np.arange(d, dtype=float)
    return _read_only(k, np.sqrt(k[1:]), np.sqrt(k[1:-1] * (k[1:-1] + 1.0)))


def _mode_moments(amps: np.ndarray):
    """<a>, <a^2>, <n> of a truncated mode state."""
    d = amps.size
    k, root_k, root_kk = _moment_weights(d)
    a_mean = complex((amps[:-1].conj() * amps[1:] * root_k).sum())
    if d >= 3:
        a2_mean = complex((amps[:-2].conj() * amps[2:] * root_kk).sum())
    else:
        a2_mean = 0.0 + 0.0j
    n_mean = float((k * np.abs(amps) ** 2).sum())
    return a_mean, a2_mean, n_mean


def _branch_x_moments(moments, c1_conj, c1_abs2: float):
    """<X> and <X^2> on one branch from its mode moments, X = c1 a^dag + c1* a,
    given conj(c1) and |c1|^2, as Python floats."""
    a_mean, a2_mean, n_mean = moments
    x = 2.0 * (c1_conj * a_mean).real
    x2 = 2.0 * (c1_conj**2 * a2_mean).real + c1_abs2 * (2.0 * n_mean + 1.0)
    return float(x), float(x2)


def correlations_generic(state: GhzProductState, c1: complex) -> CorrelationSet:
    """All six correlations by branch averaging.

    Cross-branch matrix elements vanish because the two branches differ in
    every spin factor and X, sigma_z never flip spins; this holds even at
    N = 1 where it is the spin orthogonality alone doing the work.  So every
    moment is the equal-weight average of branch moments, with two-site
    moments factorizing inside a branch.  Only this combination with C1 runs
    per call; the branches' mode moments are computed once per state.
    """
    up, down = state.mode_moments
    c1_conj, c1_abs2 = np.conj(c1), abs(c1) ** 2
    x_u, x2_u = _branch_x_moments(up, c1_conj, c1_abs2)
    x_d, x2_d = (x_u, x2_u) if down is up else _branch_x_moments(down, c1_conj, c1_abs2)
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


def correlations_closed_form(
    kind: str, alpha: complex, c1: complex, n: int = 0
) -> CorrelationSet:
    """Tabulated correlations.

    kind "partial": branches D(alpha)|n> with opposite spins.  The X moments
    are displacement-independent, Var(X1) = (2n+1)|c1|^2, and all X-spin and
    X-X covariances vanish.

    kind "global": coherent branches |alpha>, |-alpha>.  With
    re = Re(c1 alpha*), Var(X1) = 4 re^2 + |c1|^2, Cov(X1,X2) = 4 re^2 and
    the X-spin covariances equal 2 re.
    """
    if kind == "partial":
        return CorrelationSet(
            var_x1=(2.0 * n + 1.0) * abs(c1) ** 2,
            var_sz1=1.0,
            cov_x1_sz1=0.0,
            cov_x1_x2=0.0,
            cov_sz1_sz2=1.0,
            cov_x1_sz2=0.0,
        )
    if kind == "global":
        re = (c1 * np.conj(alpha)).real
        return CorrelationSet(
            var_x1=4.0 * re**2 + abs(c1) ** 2,
            var_sz1=1.0,
            cov_x1_sz1=2.0 * re,
            cov_x1_x2=4.0 * re**2,
            cov_sz1_sz2=1.0,
            cov_x1_sz2=2.0 * re,
        )
    raise ValueError(f"unknown closed-form kind {kind!r}")


def correlations_single_branch(n: int, c1: complex) -> CorrelationSet:
    """Correlations of a plain product state D(alpha)|n> (x) |up> per site, no
    superposition.  All covariances and the spin variance vanish, so the QFI
    is purely shot-noise: F = 4 N t_c^2 (2n+1) |c1|^2."""
    return CorrelationSet(
        var_x1=(2.0 * n + 1.0) * abs(c1) ** 2,
        var_sz1=0.0,
        cov_x1_sz1=0.0,
        cov_x1_x2=0.0,
        cov_sz1_sz2=0.0,
        cov_x1_sz2=0.0,
    )
