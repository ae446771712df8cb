"""Analytic QFI: general correlation form, closed forms, difference, commensurate law.

For a pure probe state and unitary parametrization the QFI is four times the
variance of the Hermitian generator.  With the multi-atom generator

    H_M = T_C sum_k X_k + (N/omega) C0 + T_S C2 Jz,

permutation symmetry collapses that variance onto six correlation functions:

    F = 4 [ (beta - gamma) N + gamma N^2 ],
    beta  = T_C^2 Var(X1) + T_S^2 C2^2 Var(sz1) + 2 T_C T_S C2 Cov(X1, sz1),
    gamma = T_C^2 Cov(X1, X2) + T_S^2 C2^2 Cov(sz1, sz2) + 2 T_C T_S C2 Cov(X1, sz2).

The same F, written as a polynomial in the reduced radius R = r/rho, has
coefficients lambda1..3 on R^2..R^4; both decompositions are computed and
cross-checked on every call.  gamma = 0 gives shot-noise scaling 4 beta N;
nonzero gamma drives the N^2 Heisenberg term.  Every QFI function takes the
generator as (constants, coeffs): T_C and T_S from DerivedConstants, C1 and C2
from GeneratorCoefficients, or from the CoefficientSet that extends it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exceptions import ConsistencyError
from .model import DerivedConstants, GeneratorCoefficients, PhysicalParams, re_c1_alpha
from .states import CorrelationSet


@dataclass(frozen=True)
class QfiBreakdown:
    """QFI with both of its decompositions.

    qfi is in time^2: the QCRB bounds Var(Omega_hat) >= 1/(qfi * probes).
    heisenberg_fraction = 4 gamma N^2 / qfi is the share carried by the N^2
    term (NaN when qfi = 0).
    """

    beta: float
    gamma: float
    qfi: float
    lambda1: float
    lambda2: float
    lambda3: float
    heisenberg_fraction: float


def qfi_general(
    corr: CorrelationSet,
    n_particles: int,
    constants: DerivedConstants,
    coeffs: GeneratorCoefficients,
) -> QfiBreakdown:
    """Evaluate F from correlations, in both the (beta, gamma) and the
    radius-polynomial forms, and insist they agree.

    The generator is read from t_c, t_s (constants) and c2 (coeffs).  The c0
    (identity) part never enters: a constant shift has no variance.
    """
    t_c, t_s, c2 = constants.t_c, constants.t_s, coeffs.c2
    if t_c < 0 or t_s < 0:
        raise ValueError("characteristic times must be nonnegative")
    if c2 < -1e-12:
        raise ValueError(f"c2 must be nonnegative, got {c2}")
    if n_particles < 1:
        raise ValueError(f"n_particles must be positive, got {n_particles}")
    n = float(n_particles)
    beta = (
        t_c**2 * corr.var_x1
        + t_s**2 * c2**2 * corr.var_sz1
        + 2.0 * t_c * t_s * c2 * corr.cov_x1_sz1
    )
    gamma = (
        t_c**2 * corr.cov_x1_x2
        + t_s**2 * c2**2 * corr.cov_sz1_sz2
        + 2.0 * t_c * t_s * c2 * corr.cov_x1_sz2
    )
    qfi = 4.0 * ((beta - gamma) * n + gamma * n**2)

    w = constants.trap_frequency
    big_r = constants.reduced_radius
    lambda1 = (8.0 * n / w**2) * (corr.var_x1 + (n - 1.0) * corr.cov_x1_x2)
    lambda2 = (16.0 * math.sqrt(2.0) * math.pi * n / w**2) * c2 * (
        corr.cov_x1_sz1 + (n - 1.0) * corr.cov_x1_sz2
    )
    lambda3 = (16.0 * math.pi**2 * n / w**2) * c2**2 * (
        corr.var_sz1 + (n - 1.0) * corr.cov_sz1_sz2
    )
    poly = lambda1 * big_r**2 + lambda2 * big_r**3 + lambda3 * big_r**4

    scale = max(1.0, abs(qfi))
    if qfi < -1e-12 * scale:
        raise ConsistencyError(
            f"computed QFI is negative ({qfi}); correlation input is inconsistent"
        )
    if not abs(poly - qfi) <= 1e-10 * scale:  # a NaN fails too
        raise ConsistencyError(
            f"decompositions disagree: F(beta,gamma) = {qfi} vs "
            f"F(lambda,R) = {poly}; generator and constants are inconsistent"
        )
    hfrac = 4.0 * gamma * n**2 / qfi if qfi != 0.0 else float("nan")
    return QfiBreakdown(
        beta=beta,
        gamma=gamma,
        qfi=qfi,
        lambda1=lambda1,
        lambda2=lambda2,
        lambda3=lambda3,
        heisenberg_fraction=hfrac,
    )


def qfi_partial_closed(
    n: int, n_particles: int, constants: DerivedConstants, coeffs: GeneratorCoefficients
) -> float:
    """F for the partially entangled state with D(alpha)|n> branches:
    4 (2n+1) N t_c^2 |C1|^2 + 4 N^2 t_s^2 C2^2.  Manifestly alpha-free."""
    big_n = float(n_particles)
    return (
        4.0 * (2.0 * n + 1.0) * big_n * constants.t_c**2 * abs(coeffs.c1) ** 2
        + 4.0 * big_n**2 * constants.t_s**2 * coeffs.c2**2
    )


def qfi_global_closed(
    alpha: complex,
    n_particles: int,
    constants: DerivedConstants,
    coeffs: GeneratorCoefficients,
) -> float:
    """F for the globally entangled state with |alpha>, |-alpha> branches:
    4 N^2 [2 t_c Re(C1 alpha*) + t_s C2]^2 + 4 N t_c^2 |C1|^2."""
    big_n = float(n_particles)
    re = re_c1_alpha(coeffs.c1, alpha)
    return (
        4.0 * big_n**2 * (2.0 * constants.t_c * re + constants.t_s * coeffs.c2) ** 2
        + 4.0 * big_n * constants.t_c**2 * abs(coeffs.c1) ** 2
    )


@dataclass(frozen=True)
class QfiComparison:
    """F_global - F_partial with the sufficient-condition bookkeeping.

    in_guaranteed_regime is True when Re(C1 alpha*) >= 0 or
    Re(C1 alpha*) <= -t_s C2 / t_c, the two regimes where the global state
    provably wins; outside them the sign is parameter-dependent and
    global_wins just reports the evaluated sign.
    """

    difference: float
    global_wins: bool
    in_guaranteed_regime: bool

    @property
    def verdict(self) -> str:
        if self.in_guaranteed_regime:
            return "wins"
        return "wins-numerically" if self.global_wins else "loses-numerically"


def qfi_difference(
    alpha: complex,
    n_particles: int,
    constants: DerivedConstants,
    coeffs: GeneratorCoefficients,
) -> QfiComparison:
    """F_{alpha,-alpha} - F_{alpha,alpha} = 16 N^2 [t_c re + t_s C2] [t_c re]
    with re = Re(C1 alpha*); compares the global state against the partial
    state at n = 0."""
    big_n = float(n_particles)
    re = re_c1_alpha(coeffs.c1, alpha)
    t_c, t_s, c2 = constants.t_c, constants.t_s, coeffs.c2
    diff = 16.0 * big_n**2 * (t_c * re + t_s * c2) * (t_c * re)
    if t_c > 0:
        in_regime = re >= 0.0 or re <= -t_s * c2 / t_c
    else:
        in_regime = True
    return QfiComparison(
        difference=diff, global_wins=diff >= 0.0, in_guaranteed_regime=in_regime
    )


def qfi_commensurate(n_particles: int, params: PhysicalParams) -> float:
    """F at commensurate times tau = l 2 pi / omega with constant driving:
    C1 = 0, C2 = 1/2 there, so F = 4 N^2 m^2 pi^2 r^4 / hbar^2 = N^2 (d phi_s/d Omega)^2
    = N^2 T_S^2 for the partially and the globally entangled families.  The
    product state has no spin correlations: its F = 4 (2n+1) N T_C^2 |C1|^2
    vanishes there."""
    big_n = float(n_particles)
    return (
        4.0
        * big_n**2
        * params.mass**2
        * math.pi**2
        * params.ring_radius**4
        / params.hbar**2
    )
