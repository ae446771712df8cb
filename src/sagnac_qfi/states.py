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

A sweep over alpha builds its states as blocks (sweep_mode_moments): up to
SWEEP_BLOCK rows that share a truncation form one (rows x d) amplitude block,
whose magnitudes and Laguerre values are evaluated once per distinct |alpha|
and whose leaks (against the one budget LEAKAGE), renormalization,
normalization checks and mode moments are one numpy pass of row sums over the
last axis.  The state builders are the one-row case of the same functions.
Every row keeps the bits of a one-row build because |alpha|, |alpha|^2 and
log|alpha| stay Python scalars of each row (numpy's vectorized abs, square and
log round differently) and every other step, np.angle included, rounds
elementwise or sums one row.

Bounded caches hold the factors that repeat across a sweep, as read-only
arrays: the log-factorial ratios and binomials of D(alpha)|n>, keyed by
(n, d) (FOCK_FACTOR_CACHE_SIZE entries), and the sqrt(k) weights of the mode
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

# The one leak budget: most probability a mode state may lose past its d
# levels before it is renormalized.  No builder takes another.
LEAKAGE = 1e-10
# Distinct (n, d) whose alpha-free displaced-Fock factors stay cached: one
# closed-scan process meets 75.
FOCK_FACTOR_CACHE_SIZE = 128
# Rows of a sweep whose states are built as one block: it bounds the block's
# working set at a few (SWEEP_BLOCK x d) arrays per branch.
SWEEP_BLOCK = 16
# Distinct truncations d whose moment weights stay cached.
MOMENT_WEIGHT_CACHE_SIZE = 32


@dataclass(frozen=True)
class GhzProductState:
    """(|+1, u>^{(x)N} + |-1, v>^{(x)N}) / sqrt(2): branch_up is the spin +1
    branch's mode amplitudes u, branch_down the spin -1 branch's v.

    Each is stored as a read-only complex 1-d array, nonempty and normalized
    within 1e-12 (a NaN fails), and both share one length, the truncation.
    One array passed as both branches (the partially entangled state) is
    checked once and stays shared.  States compare by value.
    """

    branch_up: np.ndarray
    branch_down: np.ndarray
    n_particles: int

    def __post_init__(self):
        up = _mode_vector(self.branch_up)
        down = up if self.branch_down is self.branch_up else _mode_vector(self.branch_down)
        if up.size != down.size:
            raise ValueError("both branches must share one truncation")
        if self.n_particles < 1:
            raise ValueError(f"n_particles must be positive, got {self.n_particles}")
        object.__setattr__(self, "branch_up", up)
        object.__setattr__(self, "branch_down", down)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.n_particles == other.n_particles
            and np.array_equal(self.branch_up, other.branch_up)
            and np.array_equal(self.branch_down, other.branch_down)
        )

    @property
    def truncation(self) -> int:
        return self.branch_up.size

    @cached_property
    def mode_moments(self):
        """(<a>, <a^2>, <n>) of the up and the down branch's mode state.

        Computed on first use, so a state that is only evolved never pays for
        them, and then reused by every correlation call on this state.  Both
        branches take one moment pass; branches that share one amplitude array
        (the partially entangled state) share one moment row.
        """
        up, down = self.branch_up, self.branch_down
        moments = _mode_moments(up[None] if down is up else np.stack((up, down)))
        return moments[0], moments[-1]


def _mode_vector(amplitudes) -> np.ndarray:
    """amplitudes as a read-only complex array, after checking that it is a
    nonempty 1-d vector normalized within 1e-12.

    Only a read-only complex array that owns its data (another state's
    branch) is kept as it is; any other input is copied, so a caller's array
    is never frozen in place."""
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.flags.writeable or not amps.flags.owndata:
        amps = amps.copy()
    if amps.ndim != 1 or amps.size < 1:
        raise ValueError("branch amplitudes must be a nonempty 1-d vector")
    _check_normalized(amps)
    amps.setflags(write=False)
    return amps


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


def _laguerre(n: int, alpha, x, binom):
    """scipy's eval_genlaguerre_l at a degree n >= 1 for a whole alpha >= 0 and
    an x (numbers or arrays that broadcast), given binom(n + alpha, n), in
    scipy's operations and order; numpy rounds + - * / elementwise as scalar
    code does.  (j + alpha) + 1 is written alpha + (j + 1), the same float
    while alpha is whole."""
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


def _fock_factors(n: int, d: int, radii: list[float]):
    """The factors of <m|D(alpha)|n> that depend on |alpha| but not on the
    phase of alpha, one row per |alpha| in radii: (k, magnitudes, Laguerre
    values) on the levels m >= n, then on the levels m < n (None when n = 0).
    |alpha|^2 and log|alpha| are Python scalars of each radius and every
    other step rounds elementwise, so each row has the bits of a one-radius
    call."""
    x = np.array([radius**2 for radius in radii])[:, None]
    log_radius = np.array([math.log(radius) for radius in radii])[:, None]

    def factors(degree, k, log_ratio, binom):
        if isinstance(degree, np.ndarray):  # one degree per level
            lag = np.ones((x.size, k.size))
            for level, (m, a, b) in enumerate(zip(degree.tolist(), k.tolist(), binom.tolist())):
                if m:
                    lag[:, level] = _laguerre(m, a, x[:, 0], b)
        else:  # one degree: the recurrence runs over every order at once
            lag = _laguerre(degree, k, x, binom) if degree else np.ones((x.size, k.size))
        if n >= _BINOM_PRODUCT_LIMIT:  # below it every binomial is an integer product
            far = np.isnan(binom)  # where scipy leaves that product
            if far.any():
                from scipy.special import eval_genlaguerre

                lag[:, far] = eval_genlaguerre(np.broadcast_to(degree, k.shape)[far], k[far], x)
        return k, np.exp(log_ratio + k * log_radius - x / 2.0), lag

    upper, lower = _fock_levels(n, d)
    return factors(*upper), lower and factors(*lower)


def _factor_rows(factors, index: list[int]):
    """(k, magnitudes, Laguerre values) with the radius rows picked by index
    (None stays None)."""
    return factors and (factors[0], factors[1][index], factors[2][index])


def _times(mag: np.ndarray, phase: np.ndarray, lag: np.ndarray) -> np.ndarray:
    """mag * phase * lag, in that order, formed in phase's buffer."""
    np.multiply(mag, phase, out=phase)
    return np.multiply(phase, lag, out=phase)


def displaced_fock_amplitudes(alpha, n: int, d: int) -> np.ndarray:
    """Fock amplitudes <m|D(alpha)|n> for m = 0..d-1: a (d,) vector for one
    alpha, or a (rows, d) block with one row per alpha of a sequence.

    Associated-Laguerre closed form, evaluated through log-Gamma so large
    factorial ratios never overflow.  This is the independent counterpart of
    the oracle's matrix-exponential displacement column.  The magnitudes and
    Laguerre values depend on |alpha| only, so a block evaluates them once
    per distinct |alpha|: the rows of a sweep of the phase of alpha, and a
    |-alpha> row beside its |alpha> row, share them.  The phase factor is
    formed for every row; each row has the bits of its one-alpha call.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    if n >= d:
        raise ValueError(f"Fock level n = {n} does not fit in truncation d = {d}")
    block = np.ndim(alpha) > 0
    alphas = [complex(a) for a in alpha] if block else [complex(alpha)]
    for a in alphas:
        if not cmath.isfinite(a):
            raise ValueError(f"alpha must be finite, got {a}")
    out = np.zeros((len(alphas), d), dtype=complex)
    live = [row for row, a in enumerate(alphas) if a != 0]
    if len(live) < len(alphas):
        out[[row for row, a in enumerate(alphas) if a == 0], n] = 1.0  # D(0)|n> = |n>
    if live:
        radii = [abs(alphas[row]) for row in live]
        distinct = list(dict.fromkeys(radii))
        theta = np.angle(np.array([alphas[row] for row in live]))[:, None]
        upper, lower = _fock_factors(n, d, distinct)
        if len(distinct) < len(radii):  # rows that share an |alpha| share its factors
            rank = {radius: i for i, radius in enumerate(distinct)}
            index = [rank[radius] for radius in radii]
            upper, lower = _factor_rows(upper, index), _factor_rows(lower, index)
        # Fancy indexing costs more than a one-row block's arithmetic.
        rows = live if len(live) < len(alphas) else slice(None)
        k, mag, lag = upper
        phase = 1j * k * theta
        out[rows, n:] = _times(mag, np.exp(phase, out=phase), lag)
        if lower is not None:
            k, mag, lag = lower
            out[rows, :n] = _times(mag, (-np.exp(-1j * theta)) ** k, lag)
    return out if block else out[0]


def auto_truncation(alpha: complex, n: int = 0) -> int:
    """Smallest d with Poisson(|alpha|^2) tail mass below LEAKAGE,
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
    while 1.0 - cum > LEAKAGE:
        if from_log:
            term = math.exp(d0 * math.log(lam) - lam - math.lgamma(d0 + 1.0))
        else:
            term *= lam / d0
        cum += term
        d0 += 1
        if d0 > 10_000:
            raise TruncationError(f"no truncation found for |alpha|^2 = {lam}")
    return d0 + n + 10


def _branch_amplitudes(
    alphas: list, n: int, d: int, mirror: bool = False
) -> list[tuple[list[int], np.ndarray]]:
    """D(alpha)|n> of each alpha on d levels, renormalized after checking
    that it leaks at most LEAKAGE, as (rows, block) pairs: the indices of the
    alphas that share a truncation and their (rows, d) amplitude block.
    d = 0 takes each row's auto_truncation d, grown a level at a time while
    the row leaks more; a given d that leaks raises TruncationError with that
    grown d as the suggestion.  mirror appends to each block the rows of
    D(-alpha)|n> on the same levels, the |-alpha> branches of globally
    entangled states, which take their d as given.  Every row has the bits
    of its one-row call."""
    grow = d == 0
    sizes: dict[float, int] = {}  # auto_truncation reads alpha through |alpha| only
    pending: dict[int, list[int]] = {}
    for row, alpha in enumerate(alphas):
        size = d
        if grow:
            radius = abs(alpha)
            if radius not in sizes:
                sizes[radius] = auto_truncation(alpha, n)
            size = sizes[radius]
        pending.setdefault(size, []).append(row)
    blocks = []
    while pending:
        size = min(pending)  # a row that grows joins a later, larger size
        rows = pending.pop(size)
        branch = [alphas[row] for row in rows]
        if mirror:
            branch += [-alpha for alpha in branch]
        amps = displaced_fock_amplitudes(branch, n, size)
        leak = 1.0 - (np.abs(amps) ** 2).sum(axis=-1)
        if grow and size < 10_000:
            more = leak[: len(rows)] > LEAKAGE
            if more.any():
                pending.setdefault(size + 1, []).extend(
                    row for row, grows in zip(rows, more) if grows
                )
                keep = np.tile(~more, 2) if mirror else ~more
                rows = [row for row, stays in zip(rows, keep) if stays]
                branch = [alpha for alpha, stays in zip(branch, keep) if stays]
                amps, leak = amps[keep], leak[keep]
        fits = leak <= LEAKAGE  # a NaN leaks too
        if not fits.all():
            i = np.flatnonzero(~fits)[0]
            suggest = not grow or i >= len(rows)  # a mirror row's d was given
            raise TruncationError(
                f"truncation d = {size} leaks {leak[i]:.3e} > {LEAKAGE:.3e} for "
                f"alpha = {branch[i]}, n = {n}",
                suggested_d=(
                    _branch_amplitudes([branch[i]], n, 0)[0][1].shape[1]
                    if suggest else None
                ),
            )
        if rows:
            amps /= np.sqrt(1.0 - leak)[:, None]
            blocks.append((rows, amps))
    return blocks


def make_partially_entangled(
    alpha: complex,
    n: int,
    d: int = 0,
    n_particles: int = 1,
) -> GhzProductState:
    """Both branches carry the same displaced Fock state D(alpha)|n>;
    only the spins differ."""
    [(_, (amps,))] = _branch_amplitudes([alpha], n, d)
    return GhzProductState(amps, amps, n_particles)  # one array, one moment pass


def make_globally_entangled(
    alpha: complex,
    d: int = 0,
    n_particles: int = 1,
) -> GhzProductState:
    """Spin +1 branch carries |alpha>, spin -1 branch carries |-alpha>."""
    [(_, (up, down))] = _branch_amplitudes([alpha], 0, d, mirror=True)
    return GhzProductState(up, down, n_particles)


def sweep_mode_moments(kind: str, alphas: list, n: int, d: int):
    """Yield, for each alpha in row order, the (up, down) branch moments of
    the partially (kind "partial") or globally (kind "global", whose
    branches are coherent whatever n) entangled state: what mode_moments
    gives on make_partially_entangled(alpha, n, d) or
    make_globally_entangled(alpha, d), with its bits.

    The states are built SWEEP_BLOCK rows at a time, in blocks of the rows
    that share a truncation.  A block with a faulty row is built again one
    row at a time, so that the fault is raised when its row is reached, as
    the one-row builder raises it.
    """
    if kind not in ("partial", "global"):
        raise ValueError(f"sweep_mode_moments takes kind partial or global, got {kind!r}")
    mirror = kind == "global"
    if mirror:
        n = 0
    for start in range(0, len(alphas), SWEEP_BLOCK):
        chunk = alphas[start:start + SWEEP_BLOCK]
        moments = [None] * len(chunk)
        try:
            for rows, amps in _branch_amplitudes(chunk, n, d, mirror):
                _check_normalized(amps)
                block = _mode_moments(amps)
                for i, row in enumerate(rows):
                    moments[row] = (block[i], block[len(rows) + i] if mirror else block[i])
        except (ArithmeticError, ValueError, TruncationError):
            for alpha in chunk:
                state = (
                    make_globally_entangled(alpha, d) if mirror
                    else make_partially_entangled(alpha, n, d)
                )
                yield state.mode_moments
        else:
            yield from moments


@lru_cache(maxsize=MOMENT_WEIGHT_CACHE_SIZE)
def _moment_weights(d: int):
    """k, sqrt(k) and sqrt(k (k + 1)) on the levels that <n>, <a> and <a^2>
    weigh, as read-only arrays."""
    k = np.arange(d, dtype=float)
    return _read_only(k, np.sqrt(k[1:]), np.sqrt(k[1:-1] * (k[1:-1] + 1.0)))


def _check_normalized(amps: np.ndarray) -> None:
    """Raise ValueError unless every mode state, a row of amps, has
    sum |amp|^2 within 1e-12 of 1 (a NaN fails too)."""
    norm = (np.abs(amps) ** 2).sum(axis=-1)
    normalized = np.abs(norm - 1.0) <= 1e-12
    if not normalized.all():
        first = np.flatnonzero(~normalized)[0]
        raise ValueError(f"branch not normalized: sum |amp|^2 = {float(norm.flat[first])!r}")


def _mode_moments(amps: np.ndarray) -> list[tuple[complex, complex, float]]:
    """<a>, <a^2>, <n> of each truncated mode state, a row of the (rows, d)
    block amps, as Python numbers: row sums over the last axis, each with
    the bits of a one-row block."""
    d = amps.shape[-1]
    k, root_k, root_kk = _moment_weights(d)
    a_mean = (amps[:, :-1].conj() * amps[:, 1:] * root_k).sum(axis=-1)
    if d >= 3:
        a2_mean = (amps[:, :-2].conj() * amps[:, 2:] * root_kk).sum(axis=-1)
    else:
        a2_mean = np.zeros(len(amps), dtype=complex)
    n_mean = (k * np.abs(amps) ** 2).sum(axis=-1)
    return list(zip(a_mean.tolist(), a2_mean.tolist(), n_mean.tolist()))


def _branch_x_moments(moments, c1_conj, c1_abs2: float):
    """<X> and <X^2> on one branch from its mode moments, X = c1 a^dag + c1* a,
    given conj(c1) and |c1|^2, as Python floats."""
    a_mean, a2_mean, n_mean = moments
    x = 2.0 * (c1_conj * a_mean).real
    x2 = 2.0 * (c1_conj**2 * a2_mean).real + c1_abs2 * (2.0 * n_mean + 1.0)
    return float(x), float(x2)


def branch_correlations(up, down, c1_conj, c1_abs2: float) -> CorrelationSet:
    """All six correlations of a two-branch state, spin +1 on the branch with
    mode moments up and -1 on the one with down, given conj(c1) and |c1|^2:
    the combination with C1 that correlations_generic makes."""
    x_u, x2_u = _branch_x_moments(up, c1_conj, c1_abs2)
    x_d, x2_d = (x_u, x2_u) if down is up else _branch_x_moments(down, c1_conj, c1_abs2)
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
    return branch_correlations(up, down, np.conj(c1), abs(c1) ** 2)


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
