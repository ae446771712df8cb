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

whose scalar coefficients this module evaluates in closed form for constant
and piecewise-constant profiles and by composite Simpson quadrature for
sampled profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_simpson, simpson

from .exceptions import ProfileError

# Relative slack on |integral - pi| accepted by strict normalization.
STRICT_NORMALIZATION_RTOL = 1e-8


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

    Three kinds: "constant" (a single value, normalization value*tau = pi
    checked at use time because tau is not part of the profile),
    "piecewise" (constant segments (duration, value); total duration fixes
    tau) and "sampled" (values on a uniform time grid from 0 to tau,
    integrated by composite Simpson).

    Every value, duration and sample time must be finite.  Constant and
    piecewise profiles must be nonnegative, which guarantees C2(tau) >= 0.
    Sampled profiles may take any finite real values.
    """

    kind: str
    value: float = 0.0
    segments: tuple[tuple[float, float], ...] = ()
    times: np.ndarray | None = field(default=None, repr=False)
    values: np.ndarray | None = field(default=None, repr=False)

    @staticmethod
    def constant(value: float) -> "DrivingProfile":
        if not math.isfinite(value):
            raise ProfileError(f"constant profile must be finite, got {value}")
        if value < 0:
            raise ProfileError(f"constant profile must be nonnegative, got {value}")
        return DrivingProfile(kind="constant", value=float(value))

    @staticmethod
    def constant_for(tau: float) -> "DrivingProfile":
        """The constant profile normalized for duration tau: omega_p = pi/tau."""
        if not 0 < tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {tau}")
        return DrivingProfile.constant(math.pi / tau)

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
        if not (np.isfinite(t).all() and np.isfinite(v).all()):
            raise ProfileError("sample times and values must be finite")
        if t[0] != 0.0:
            raise ProfileError(f"sample grid must start at t = 0, got {t[0]}")
        steps = np.diff(t)
        if np.any(steps <= 0):
            raise ProfileError("sample times must be strictly increasing")
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ProfileError("sample grid must be uniform")
        v *= _normalization_scale(float(simpson(v, x=t)), normalization)
        t.setflags(write=False)
        v.setflags(write=False)
        return DrivingProfile(kind="sampled", times=t, values=v)

    @property
    def duration(self) -> float | None:
        """The tau implied by the profile, or None for the constant kind."""
        if self.kind == "piecewise":
            return sum(dur for dur, _ in self.segments)
        if self.kind == "sampled":
            return float(self.times[-1])
        return None

    def omega_p_at(self, t) -> np.ndarray:
        """Evaluate omega_p at times t (piecewise by segment lookup, sampled by
        linear interpolation)."""
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.full_like(t, self.value)
        if self.kind == "piecewise":
            bounds = np.cumsum([dur for dur, _ in self.segments])
            vals = np.array([val for _, val in self.segments])
            idx = np.minimum(np.searchsorted(bounds, t, side="right"), len(vals) - 1)
            return vals[idx]
        return np.interp(t, self.times, self.values)

    def as_segments(self, tau: float):
        """(duration, value) segments, or None for the sampled kind."""
        if self.kind == "constant":
            return ((tau, self.value),)
        if self.kind == "piecewise":
            return self.segments
        return None


def _check_strict(integral: float) -> None:
    if abs(integral - math.pi) > STRICT_NORMALIZATION_RTOL * math.pi:
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
        if integral <= 0:
            raise ProfileError(f"cannot rescale profile with integral {integral} to pi")
        return math.pi / integral
    raise ProfileError(f"unknown normalization policy {normalization!r}")


def _check_tau(profile: DrivingProfile, tau: float) -> None:
    if not 0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    implied = profile.duration
    if implied is not None and abs(implied - tau) > 1e-9 * max(1.0, tau):
        raise ProfileError(
            f"profile duration {implied!r} does not match requested tau {tau!r}"
        )


def profile_integral(profile: DrivingProfile, tau: float) -> float:
    """int_0^tau omega_p(t) dt.  Equals pi for normalized profiles."""
    _check_tau(profile, tau)
    if profile.kind == "constant":
        return profile.value * tau
    if profile.kind == "piecewise":
        return sum(dur * val for dur, val in profile.segments)
    return float(simpson(profile.values, x=profile.times))


@dataclass(frozen=True)
class CoefficientSet:
    """Scalar coefficients of the generator for a given (params, profile, tau).

    c0 multiplies the identity (after division by omega), c1 the quadrature
    a^dag (with its conjugate on a), c2 the sigma_z term.  eta and phi are the
    per-branch displacement amplitude and global phase of the factorized
    evolution operator.
    """

    c0: float
    c1: complex
    c2: float
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
    """Exact eta and Phi for a piecewise-constant drive amplitude.

    Accumulates the running integrals Fc(t) = int f cos(ws) ds and
    Fs(t) = int f sin(ws) ds across segments; within a segment of constant
    amplitude A on [t0, t1] every contribution has a trig antiderivative, so
    the double integral for Phi reduces to closed form with no quadrature.
    """
    w = params.trap_frequency
    eta = 0.0 + 0.0j
    phi = 0.0
    fc = 0.0
    fs = 0.0
    t0 = 0.0
    for dur, wp in segments:
        t1 = t0 + dur
        a_val = float(drive_amplitude(params, wp, spin_sign))
        eta += -a_val * (np.exp(1j * w * t1) - np.exp(1j * w * t0)) / (1j * w)
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
    return complex(eta), float(phi)


def _eta_phi_sampled(params: PhysicalParams, profile: DrivingProfile, spin_sign: int):
    """Simpson quadrature for eta; Phi via the exact reduction
    Phi = int f(t) [sin(wt) Fc(t) - cos(wt) Fs(t)] dt with cumulative Simpson
    for the inner integrals."""
    w = params.trap_frequency
    t = profile.times
    fv = drive_amplitude(params, profile.values, spin_sign)
    eta = -complex(simpson(fv * np.exp(1j * w * t), x=t))
    fc = cumulative_simpson(fv * np.cos(w * t), x=t, initial=0.0)
    fs = cumulative_simpson(fv * np.sin(w * t), x=t, initial=0.0)
    phi = float(simpson(fv * (np.sin(w * t) * fc - np.cos(w * t) * fs), x=t))
    return eta, phi


def _c2_integral(params: PhysicalParams, profile: DrivingProfile, tau: float) -> float:
    """int_0^tau omega_p(t) cos(w (t - tau)) dt."""
    w = params.trap_frequency
    if profile.kind == "sampled":
        t = profile.times
        return float(simpson(profile.values * np.cos(w * (t - tau)), x=t))
    total = 0.0
    t0 = 0.0
    for dur, wp in profile.as_segments(tau):
        t1 = t0 + dur
        total += wp * (math.sin(w * (t1 - tau)) - math.sin(w * (t0 - tau))) / w
        t0 = t1
    return total


def coefficients(
    params: PhysicalParams, profile: DrivingProfile, tau: float
) -> CoefficientSet:
    """Evaluate C0, C1, C2 and the per-branch eta, Phi.

    Constant and piecewise profiles use exact per-segment antiderivatives;
    sampled profiles use composite Simpson on their grid.  The profile must
    be normalized to int omega_p dt = pi over tau.
    """
    _check_tau(profile, tau)
    integral = profile_integral(profile, tau)
    _check_strict(integral)

    w = params.trap_frequency
    wt = w * tau
    constants = derive_constants(params)
    c0 = (constants.sagnac_phase / (2.0 * math.pi)) * (wt - math.sin(wt))
    c1 = 1j * math.sin(wt / 2.0) * np.exp(1j * wt / 2.0)
    c2 = 0.5 * (1.0 - _c2_integral(params, profile, tau) / math.pi)

    if profile.kind == "sampled":
        eta_up, phi_up = _eta_phi_sampled(params, profile, +1)
        eta_down, phi_down = _eta_phi_sampled(params, profile, -1)
    else:
        segs = profile.as_segments(tau)
        eta_up, phi_up = _eta_phi_segments(params, segs, +1)
        eta_down, phi_down = _eta_phi_segments(params, segs, -1)

    if profile.kind in ("constant", "piecewise") and not -1e-12 <= c2 <= 1.0 + 1e-12:
        # Nonnegative normalized profiles bound |int omega_p cos| by pi.
        raise ProfileError(f"C2 = {c2} outside [0, 1] for a nonnegative profile")

    return CoefficientSet(
        c0=float(c0),
        c1=complex(c1),
        c2=float(c2),
        eta_up=eta_up,
        eta_down=eta_down,
        phi_up=phi_up,
        phi_down=phi_down,
    )


def re_c1_alpha(c1: complex, alpha: complex) -> float:
    """Re(C1 alpha*), the combination appearing throughout the closed forms."""
    return (c1 * np.conj(alpha)).real
