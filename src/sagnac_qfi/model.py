"""Physical parameters, derived constants, driving profiles and generator coefficients.

Everything downstream (closed-form QFI, Fock-space oracle, CLI scans) is a
function of the five physical inputs and a driving profile omega_p(t) that
steers the two counter-rotating traps through half a revolution each,
int_0^tau omega_p dt = pi.  All quantities are carried in user units with
m = hbar = 1 defaults; there is no internal nondimensionalization.

The interferometer evolution for a fixed spin branch s = +/-1 factors into a
free rotation, a global phase and a displacement,

    U(tau) = exp(-i w a^dag a tau) * exp(i Phi(s, tau)) * D(eta(s, tau)),

with drive amplitude f(s, t) = sqrt(m w / 2 hbar) * r * (Omega + s*omega_p(t)),
eta = -int_0^tau f e^{iwt} dt and Phi the double integral of
f(t1) f(t2) sin(w (t1 - t2)) over the ordered triangle.  The rotation-rate
generator built from this factorization is

    H = T_C (C1 a^dag + C1* a) + C0/w + T_S C2 sigma_z,

whose scalar coefficients this module evaluates in closed form for
piecewise-constant profiles (a constant drive is the one-segment case) and by
composite Simpson quadrature for sampled profiles.  The work comes in two
parts: `generator_coefficients` gives C0, C1 and C2 and runs every check on
the profile, and the evolution part adds eta and Phi for each spin;
`coefficients` joins them into a CoefficientSet.  A QFI reads only C1 and
C2, so the scan rows call the generator part alone and never pay for the
eta and Phi passes they would not print.

The quadrature is the package's own, so nothing loads scipy.integrate,
whose import pulls in scipy.optimize, sparse, fft and spatial (about
0.4 s and 18 MB per process).  Every integral of a sampled drive, its pulse
area included, is composite Simpson on the grid's uniform step h:
`_simpson` and `_cumulative_simpson` return the bits of scipy.integrate's
simpson(y, dx=h) and cumulative_simpson(y, dx=h, initial=0.0) for 1-d y,
the second evaluating only the sub-interval integrals that scipy keeps.
Both follow scipy's expressions in its order and, like the rest of the
sampled pass and the checks in `DrivingProfile.sampled`, evaluate into a
few reused buffers: in the heap left without scipy.integrate, each fresh
full-grid temporary would be paged in again on every call.

A profile evaluates its coefficients once per (params, tau): it remembers
the CoefficientSet of its last COEFFICIENT_MEMO_SIZE distinct pairs, keyed by
their exact float bits, so the oracle's repeated calls on one profile (the
closed evolution of both spins, each rotation rate of a finite difference)
reuse one pass.  Scan rows call `generator_coefficients`, which has no memo.
"""

from __future__ import annotations

import math
import struct
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import ProfileError

# Relative slack on |integral - pi| accepted by strict normalization.
STRICT_NORMALIZATION_RTOL = 1e-8

# Distinct (params, tau) whose coefficients a profile remembers: the
# most that one oracle call evaluates on one profile.  qfi_fidelity_numeric
# makes seven (Omega, up to five adapted Omega + delta, then Omega + delta/2);
# generator_numeric makes five (Omega, Omega +/- delta, Omega +/- delta/2).
COEFFICIENT_MEMO_SIZE = 7
# Guards the evict-then-store of a memo that threads may share with the profile.
_MEMO_LOCK = threading.Lock()


@dataclass(frozen=True)
class PhysicalParams:
    """Inputs of the model: atom mass, trap frequency, ring radius, rotation rate."""

    mass: float = 1.0
    hbar: float = 1.0
    trap_frequency: float = 1.0
    ring_radius: float = 1.0
    rotation_rate: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.mass <= 0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if self.hbar <= 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        if self.trap_frequency <= 0:
            raise ValueError(
                f"trap_frequency must be positive, got {self.trap_frequency}"
            )
        if self.ring_radius < 0:
            raise ValueError(
                f"ring_radius must be nonnegative, got {self.ring_radius}"
            )


@dataclass(frozen=True)
class DerivedConstants:
    """Constants derived from PhysicalParams.

    t_c and t_s are the characteristic times multiplying the quadrature and
    spin parts of the generator; sagnac_phase is the phase 2 m Omega pi r^2 / hbar
    accumulated between the counter-propagating paths.  trap_frequency is
    echoed so the radius-polynomial decomposition can be evaluated without
    re-deriving omega (which is 0/0 at r = 0).
    """

    t_c: float
    t_s: float
    sagnac_phase: float
    characteristic_momentum: float
    oscillator_length: float
    reduced_radius: float
    trap_frequency: float


def derive_constants(params: PhysicalParams) -> DerivedConstants:
    """Evaluate T_C, T_S, phi_s, p_c, rho and R = r/rho from the raw parameters."""
    m = params.mass
    hbar = params.hbar
    w = params.trap_frequency
    r = params.ring_radius
    rho = math.sqrt(hbar / (m * w))
    return DerivedConstants(
        t_c=r * math.sqrt(2.0 * m / (w * hbar)),
        t_s=2.0 * m * math.pi * r * r / hbar,
        sagnac_phase=2.0 * m * params.rotation_rate * math.pi * r * r / hbar,
        characteristic_momentum=math.sqrt(m * hbar * w / 2.0),
        oscillator_length=rho,
        reduced_radius=r / rho,
        trap_frequency=w,
    )


@dataclass(frozen=True)
class DrivingProfile:
    """Guiding angular speed omega_p(t) of the counter-rotating traps.

    Two kinds: "piecewise" (constant segments (duration, value); total
    duration fixes tau) and "sampled" (values on a uniform time grid from 0
    to tau, integrated by composite Simpson).  A constant drive is the
    one-segment piecewise profile: `constant(value)` lasts pi/value and
    `constant_for(tau)` drives at pi/tau.

    Every value, duration and sample time must be finite.  Piecewise
    profiles must be nonnegative, which guarantees C2(tau) >= 0.  Sampled
    profiles may take any finite real values.
    """

    kind: str
    segments: tuple[tuple[float, float], ...] = ()
    times: np.ndarray | None = field(default=None, repr=False)
    values: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("piecewise", "sampled"):
            raise ProfileError(f"unknown profile kind {self.kind!r}")

    @cached_property
    def _coefficient_memo(self) -> dict:
        """(params, tau) bits -> CoefficientSet, filled by `coefficients`.

        Not a field, so it takes no part in ==, hash or repr, a profile
        pays for it only on first use, and `dataclasses.replace` starts a
        new one."""
        return {}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.kind == other.kind
            and self.segments == other.segments
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.values, other.values)
        )

    @staticmethod
    def constant(value: float) -> "DrivingProfile":
        if not math.isfinite(value):
            raise ProfileError(f"constant profile must be finite, got {value}")
        if value <= 0:
            raise ProfileError(
                f"constant profile must be positive to reach area pi, got {value}"
            )
        duration = math.pi / value
        if math.isinf(duration):
            raise ProfileError(
                f"constant profile {value!r} is too small: its duration pi/value "
                f"overflows"
            )
        return DrivingProfile.piecewise([(duration, value)])

    @staticmethod
    def constant_for(tau: float) -> "DrivingProfile":
        """The constant profile normalized for duration tau: omega_p = pi/tau."""
        if not 0 < tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {tau}")
        value = math.pi / tau
        if math.isinf(value):
            raise ProfileError(
                f"duration {tau!r} is too small: its drive pi/tau overflows"
            )
        return DrivingProfile.piecewise([(tau, value)])

    @staticmethod
    def piecewise(
        segments, normalization: str = "strict"
    ) -> "DrivingProfile":
        segs = tuple((float(dur), float(val)) for dur, val in segments)
        if not segs:
            raise ProfileError("piecewise profile needs at least one segment")
        for dur, val in segs:
            if not (math.isfinite(dur) and math.isfinite(val)):
                raise ProfileError(f"segment ({dur}, {val}) must be finite")
            if dur <= 0:
                raise ProfileError(f"segment duration must be positive, got {dur}")
            if val < 0:
                raise ProfileError(f"piecewise profile must be nonnegative, got {val}")
        scale = _normalization_scale(sum(dur * val for dur, val in segs), normalization)
        return DrivingProfile(
            kind="piecewise", segments=tuple((dur, val * scale) for dur, val in segs)
        )

    @staticmethod
    def sampled(times, values, normalization: str = "strict") -> "DrivingProfile":
        t = np.array(times, dtype=float)
        v = np.array(values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape:
            raise ProfileError("times and values must be 1-d arrays of equal length")
        if t.size < 2:
            raise ProfileError("sampled profile needs at least 2 samples")
        # One boolean buffer takes every check's mask in turn.
        ok = np.isfinite(t)
        if not (ok.all() and np.isfinite(v, out=ok).all()):
            raise ProfileError("sample times and values must be finite")
        if t[0] != 0.0:
            raise ProfileError(f"sample grid must start at t = 0, got {t[0]}")
        steps = np.diff(t)
        ok = ok[1:]
        if np.less_equal(steps, 0.0, out=ok).any():
            raise ProfileError("sample times must be strictly increasing")
        # np.allclose(steps, first, rtol=1e-9, atol=0.0), which for finite
        # steps is |step - first| <= 1e-9 |first| at every step.
        first = steps[0]
        spread = np.abs(np.subtract(steps, first, out=steps), out=steps)
        if not np.less_equal(spread, 1e-9 * first, out=ok).all():
            raise ProfileError("sample grid must be uniform")
        # Finite samples near the float limit can sum to an infinite or NaN
        # area; the policy check below rejects it, not numpy's warning.
        with np.errstate(over="ignore", invalid="ignore"):
            area = float(_simpson(v, dx=_grid_step(t)))
        v *= _normalization_scale(area, normalization)
        t.setflags(write=False)
        v.setflags(write=False)
        return DrivingProfile(kind="sampled", times=t, values=v)

    @property
    def duration(self) -> float:
        """The tau implied by the profile."""
        if self.kind == "sampled":
            return float(self.times[-1])
        return sum(dur for dur, _ in self.segments)

    def omega_p_at(self, t) -> np.ndarray:
        """Evaluate omega_p at times t (piecewise by segment lookup, sampled by
        linear interpolation)."""
        t = np.asarray(t, dtype=float)
        if self.kind == "sampled":
            return np.interp(t, self.times, self.values)
        bounds = np.cumsum([dur for dur, _ in self.segments])
        vals = np.array([val for _, val in self.segments])
        idx = np.minimum(np.searchsorted(bounds, t, side="right"), len(vals) - 1)
        return vals[idx]


def _check_strict(integral: float) -> None:
    # not <=, so that a NaN area fails too
    if not abs(integral - math.pi) <= STRICT_NORMALIZATION_RTOL * math.pi:
        raise ProfileError(
            f"profile integral {integral!r} differs from pi beyond the strict "
            f"tolerance; construct with normalization='rescale' to force it"
        )


def _normalization_scale(integral: float, normalization: str) -> float:
    """Factor that brings a profile with this integral to the pulse area pi:
    1 under "strict" (which checks the area instead), pi/integral under
    "rescale"."""
    if normalization == "strict":
        _check_strict(integral)
        return 1.0
    if normalization == "rescale":
        # NaN, inf, and an area so small that pi/integral overflows fail
        if not (0 < integral < math.inf and math.pi / integral < math.inf):
            raise ProfileError(f"cannot rescale profile with integral {integral} to pi")
        return math.pi / integral
    raise ProfileError(f"unknown normalization policy {normalization!r}")


def _check_tau(profile: DrivingProfile, tau: float) -> None:
    if not 0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    implied = profile.duration
    if abs(implied - tau) > 1e-9 * max(1.0, tau):
        raise ProfileError(
            f"profile duration {implied!r} does not match requested tau {tau!r}"
        )


def _grid_step(times: np.ndarray) -> float:
    """Step of a sampled profile's grid, which construction checked is uniform."""
    return float(times[-1]) / (times.size - 1)


def profile_integral(profile: DrivingProfile, tau: float) -> float:
    """int_0^tau omega_p(t) dt.  Equals pi for normalized profiles."""
    _check_tau(profile, tau)
    if profile.kind == "sampled":
        return float(_simpson(profile.values, dx=_grid_step(profile.times)))
    return sum(dur * val for dur, val in profile.segments)


@dataclass(frozen=True)
class GeneratorCoefficients:
    """Scalar coefficients of the generator for a given (params, profile, tau).

    c0 multiplies the identity (after division by omega), c1 the quadrature
    a^dag (with its conjugate on a), c2 the sigma_z term.
    """

    c0: float
    c1: complex
    c2: float


@dataclass(frozen=True)
class CoefficientSet(GeneratorCoefficients):
    """The generator's coefficients and the evolution's: eta and phi are the
    per-branch displacement amplitude and global phase of the factorized
    evolution operator.
    """

    eta_up: complex
    eta_down: complex
    phi_up: float
    phi_down: float

    def eta(self, spin_sign: int) -> complex:
        return self.eta_up if spin_sign > 0 else self.eta_down

    def phi(self, spin_sign: int) -> float:
        return self.phi_up if spin_sign > 0 else self.phi_down


def drive_amplitude(params: PhysicalParams, omega_p_value, spin_sign: int):
    """f(s, t) = sqrt(m w / 2 hbar) * r * (Omega + s * omega_p(t))."""
    cf = math.sqrt(params.mass * params.trap_frequency / (2.0 * params.hbar))
    return cf * params.ring_radius * (params.rotation_rate + spin_sign * np.asarray(omega_p_value))


def _eta_phi_segments(params: PhysicalParams, segments, spin_sign: int):
    """Exact eta and Phi for a piecewise-constant drive amplitude, and an
    upper bound on |eta(t)| along the path.

    Accumulates the running integrals Fc(t) = int f cos(ws) ds and
    Fs(t) = int f sin(ws) ds across segments; within a segment of constant
    amplitude A on [t0, t1] every contribution has a trig antiderivative, so
    the double integral for Phi reduces to closed form with no quadrature.
    On that segment eta(t) = c - A e^{iwt}/(iw) runs along a circle of
    radius |A|/w about c = eta(t0) + A e^{iwt0}/(iw), so
    max_k (|c_k| + |A_k|/w) bounds |eta(t)| for every t in [0, tau].
    """
    w = params.trap_frequency
    eta = 0.0 + 0.0j
    phi = 0.0
    eta_bound = 0.0
    fc = 0.0
    fs = 0.0
    t0 = 0.0
    for dur, wp in segments:
        t1 = t0 + dur
        a_val = float(drive_amplitude(params, wp, spin_sign))
        turn0 = np.exp(1j * w * t0)
        centre = eta + a_val * turn0 / (1j * w)
        eta_bound = max(eta_bound, abs(centre) + abs(a_val) / w)
        eta += -a_val * (np.exp(1j * w * t1) - turn0) / (1j * w)
        p = fc - a_val * math.sin(w * t0) / w
        q = fs + a_val * math.cos(w * t0) / w
        phi += a_val * (
            p * (math.cos(w * t0) - math.cos(w * t1)) / w
            - q * (math.sin(w * t1) - math.sin(w * t0)) / w
            + a_val * (t1 - t0) / w
        )
        fc += a_val * (math.sin(w * t1) - math.sin(w * t0)) / w
        fs += a_val * (math.cos(w * t0) - math.cos(w * t1)) / w
        t0 = t1
    return complex(eta), float(phi), float(eta_bound)


def _basic_simpson(y: np.ndarray, stop: int, dx: float):
    """Composite Simpson over the parabolas through samples 0..stop+2 of y:
    scipy.integrate._quadrature._basic_simpson for 1-d y and the step dx,
    sum(y0 + 4 y1 + y2) * dx / 3 evaluated in scipy's order in one buffer."""
    y0, y1, y2 = y[0:stop:2], y[1:stop + 1:2], y[2:stop + 2:2]
    acc = np.multiply(4.0, y1)
    np.add(y0, acc, out=acc)
    np.add(acc, y2, out=acc)
    return acc.sum() * (dx / 3.0)


def _last_interval_weight(num, den):
    """num / den, or 0 where den is 0, as scipy weighs the last interval."""
    return num / den if den != 0 else 0.0


def _simpson(y: np.ndarray, *, dx: float):
    """scipy.integrate.simpson(y, dx=dx) for 1-d y, bit for bit.

    An odd number of samples is one `_basic_simpson`, and two give the
    trapezoid.  Other even counts sum the parabolas up to the third-to-last
    sample and add scipy's correction for the last interval (Cartwright),
    with the step as an np.float64, scipy's own type: numpy raises a 0-d
    array to a power with other bits.  Below |dx| ~ 1e-162 the denominator
    6 h0 (h0 + h1) underflows to 0, and scipy weighs 0 there.  The `+ 0.0`
    is scipy's and turns a -0.0 total into 0.0.
    """
    n = y.size
    if n % 2:
        return _basic_simpson(y, n - 2, dx)
    if n == 2:
        return 0.0 + 0.5 * dx * (y[-1] + y[-2])
    result = _basic_simpson(y, n - 3, dx)
    h0 = h1 = np.float64(dx)
    alpha = _last_interval_weight(2 * h1**2 + 3 * h0 * h1, 6 * (h1 + h0))
    beta = _last_interval_weight(h1**2 + 3.0 * h0 * h1, 6 * h0)
    eta = _last_interval_weight(1 * h1**3, 6 * h0 * (h0 + h1))
    result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return result + 0.0


def _cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """scipy.integrate.cumulative_simpson(y, dx=h, initial=0.0), bit for bit.

    scipy integrates every sub-interval [t_k, t_k+1] twice, from the parabola
    through t_k..t_k+2 and from the one through t_k-1..t_k+1, and keeps the
    first at even k and the second at odd k and at the last interval.  This
    evaluates only the kept ones, with scipy's expression in its order,
    straight into the slots of the result, and sums them in its order.  The
    leading 0.0 of the running sum is scipy's `+ initial`, which turns a
    -0.0 total into 0.0.  Two samples fall back to the trapezoid, as in
    scipy.
    """
    sub = np.empty(y.size)
    sub[0] = 0.0
    if y.size == 2:
        sub[1] = h * (y[1] + y[0]) / 2.0
        return np.cumsum(sub, out=sub)
    left, mid, right = y[:-2:2], y[1:-1:2], y[2::2]
    third = h / 3
    two_mid = np.multiply(2, mid)
    quarter = np.empty_like(two_mid)
    # third * (5 * near / 4 + 2 * mid - far / 4) into the slots `kept`
    for near, far, kept in ((left, right, sub[1:-1:2]), (right, left, sub[2::2])):
        np.multiply(5, near, out=kept)
        np.divide(kept, 4, out=kept)
        np.add(kept, two_mid, out=kept)
        np.divide(far, 4, out=quarter)
        np.subtract(kept, quarter, out=kept)
        np.multiply(third, kept, out=kept)
    if y.size % 2 == 0:
        sub[-1] = third * (5 * y[-1] / 4 + 2 * y[-2] - y[-3] / 4)
    return np.cumsum(sub, out=sub)


def _eta_phi_sampled(
    params: PhysicalParams,
    profile: DrivingProfile,
    spin_sign: int,
    cos_wt: np.ndarray,
    sin_wt: np.ndarray,
):
    """Simpson quadrature for eta; Phi via the exact reduction
    Phi = int f(t) [sin(wt) Fc(t) - cos(wt) Fs(t)] dt with cumulative Simpson
    for the inner integrals.  cos_wt and sin_wt are cos(wt) and sin(wt) on
    the profile's grid, shared by both spins."""
    h = _grid_step(profile.times)
    fv = drive_amplitude(params, profile.values, spin_sign)
    f_cos = np.multiply(fv, cos_wt)
    f_sin = np.multiply(fv, sin_wt)
    eta = -complex(_simpson(f_cos, dx=h), _simpson(f_sin, dx=h))
    fc = _cumulative_simpson(f_cos, h)
    fs = _cumulative_simpson(f_sin, h)
    # fv * (sin_wt * fc - cos_wt * fs), in the buffers of fc and fs
    np.multiply(sin_wt, fc, out=fc)
    np.multiply(cos_wt, fs, out=fs)
    np.subtract(fc, fs, out=fc)
    np.multiply(fv, fc, out=fc)
    phi = float(_simpson(fc, dx=h))
    return eta, phi


def _c2_integral(params: PhysicalParams, profile: DrivingProfile, tau: float) -> float:
    """int_0^tau omega_p(t) cos(w (t - tau)) dt."""
    w = params.trap_frequency
    if profile.kind == "sampled":
        # values * cos(w * (t - tau)), in one buffer
        t = profile.times
        y = np.subtract(t, tau)
        np.multiply(w, y, out=y)
        np.cos(y, out=y)
        np.multiply(profile.values, y, out=y)
        return float(_simpson(y, dx=_grid_step(t)))
    total = 0.0
    t0 = 0.0
    for dur, wp in profile.segments:
        t1 = t0 + dur
        total += wp * (math.sin(w * (t1 - tau)) - math.sin(w * (t0 - tau))) / w
        t0 = t1
    return total


def _memo_key(params: PhysicalParams, tau: float) -> bytes | None:
    """The exact bits of every float `coefficients` reads, so 0.0 and -0.0
    are distinct keys; None (no memo) if one of them is not a float."""
    values = (*vars(params).values(), tau)
    if not all(isinstance(v, float) for v in values):
        return None
    return struct.pack(f"<{len(values)}d", *values)


def coefficients(
    params: PhysicalParams, profile: DrivingProfile, tau: float
) -> CoefficientSet:
    """Evaluate C0, C1, C2 (`generator_coefficients`) and the per-branch
    eta, Phi.

    Piecewise profiles use exact per-segment antiderivatives; sampled
    profiles use composite Simpson on their grid.  Either is evaluated once
    per (params, tau): the profile keeps the sets of its last
    COEFFICIENT_MEMO_SIZE distinct pairs.  The profile must be normalized to
    int omega_p dt = pi over tau.
    """
    key = _memo_key(params, tau)
    if key is None:
        return _coefficients(params, profile, tau)
    memo = profile._coefficient_memo
    coeffs = memo.get(key)
    if coeffs is None:
        coeffs = _coefficients(params, profile, tau)
        with _MEMO_LOCK:
            if key not in memo and len(memo) >= COEFFICIENT_MEMO_SIZE:
                del memo[next(iter(memo))]
            memo[key] = coeffs
    return coeffs


def generator_coefficients(
    params: PhysicalParams, profile: DrivingProfile, tau: float
) -> GeneratorCoefficients:
    """C0, C1 and C2 alone, with every check `coefficients` makes on the
    profile (duration, strict pulse area, C2 in [0, 1] for a piecewise
    drive) and the same bits, but no eta or Phi pass.  What a QFI row needs.
    """
    _check_strict(profile_integral(profile, tau))
    w = params.trap_frequency
    wt = w * tau
    c0 = (derive_constants(params).sagnac_phase / (2.0 * math.pi)) * (wt - math.sin(wt))
    c1 = 1j * math.sin(wt / 2.0) * np.exp(1j * wt / 2.0)
    c2 = 0.5 * (1.0 - _c2_integral(params, profile, tau) / math.pi)
    if profile.kind == "piecewise" and not -1e-12 <= c2 <= 1.0 + 1e-12:
        # Nonnegative normalized profiles bound |int omega_p cos| by pi.
        raise ProfileError(f"C2 = {c2} outside [0, 1] for a nonnegative profile")
    return GeneratorCoefficients(c0=float(c0), c1=complex(c1), c2=float(c2))


def _coefficients(
    params: PhysicalParams, profile: DrivingProfile, tau: float
) -> CoefficientSet:
    generator = generator_coefficients(params, profile, tau)
    if profile.kind == "sampled":
        wt_grid = params.trap_frequency * profile.times
        cos_wt, sin_wt = np.cos(wt_grid), np.sin(wt_grid, out=wt_grid)
        eta_up, phi_up = _eta_phi_sampled(params, profile, +1, cos_wt, sin_wt)
        eta_down, phi_down = _eta_phi_sampled(params, profile, -1, cos_wt, sin_wt)
    else:
        eta_up, phi_up, _ = _eta_phi_segments(params, profile.segments, +1)
        eta_down, phi_down, _ = _eta_phi_segments(params, profile.segments, -1)
    return CoefficientSet(
        generator.c0, generator.c1, generator.c2, eta_up, eta_down, phi_up, phi_down
    )


def re_c1_alpha(c1: complex, alpha: complex) -> float:
    """Re(C1 alpha*), the combination appearing throughout the closed forms."""
    return (c1 * np.conj(alpha)).real
