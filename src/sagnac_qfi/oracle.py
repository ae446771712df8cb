"""Brute-force verification layer on truncated Fock spaces, and its identity suite.

Nothing here trusts the analytic layer: evolution operators are built two
independent ways (the closed displacement factorization and a midpoint
time-ordered product of the raw Hamiltonian), the generator is extracted by
finite differences in Omega, and the QFI is computed both as four times the
generator variance and as a fidelity susceptibility on explicit N-site state
vectors.  Agreements between these routes and the closed forms are the
package's evidence; `identity_suite` checks every one of them and reports
each error against its tolerance.  Only this module builds and sizes the
oracle's truncated spaces.

The time-ordered product of a sampled drive does not exponentiate every
step: it interpolates the step factor in the drive amplitude between at
most STEP_NODES exact tridiagonal eigensolves per block of steps, within
2^-53 per step by a bound on the factor's derivatives, so it stays an
independent witness of the closed factorization at a few eigensolves per
evolution (see `build_evolution_stepped`).

Truncation discipline: evolving inside a truncated space reflects amplitude
off the Fock cap, while truncating the exact evolution clips it, so the two
only agree on columns whose displaced images stay well below the cap.  Column
k is trusted iff (sqrt(k) + |eta|)^2 + margin <= d; the margin (default 20)
buys the sub-Gaussian tail of a displaced Fock state about eight digits.

`identity_suite` sizes every space it builds by one rule,
d = required_truncation(SUITE_COLUMNS, |eta|), and compares only the columns
trusted at that |eta|.  A closed evolution or a displacement moves a column
by |eta(tau)| in one step, but the time-ordered product passes through every
eta(t) on the way, so `evolution_block` sizes and trusts the evolution
identities by an upper bound on |eta(t)| along the path: on each segment of a
piecewise drive eta(t) follows a circular arc, and `model._eta_phi_segments`
bounds it by the arc's farthest point.  The single-site builders refuse d
above DENSE_GUARD before allocating anything, since one dense exponential
costs O(d^2) memory and O(d^3) time however small N is.

The module's `expm` and `eigh_tridiagonal` forward to scipy.linalg, which
they import on their first call, so importing this module loads no scipy
module: only a dense builder does.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import operator

import numpy as np

from .exceptions import (
    ConfigError,
    ConsistencyError,
    ProfileError,
    SizeGuardError,
    TruncationError,
)
from .model import (
    CoefficientSet,
    DrivingProfile,
    PhysicalParams,
    _check_tau,
    _eta_phi_segments,
    coefficients,
    derive_constants,
    drive_amplitude,
)
from .qfi import qfi_global_closed, qfi_partial_closed
from .states import (
    GhzProductState,
    displaced_fock_amplitudes,
    make_globally_entangled,
    make_partially_entangled,
)

SIZE_GUARD = 200_000
# Largest single-site dimension the dense builders accept.  One complex d x d
# matrix is 16 MB at d = 1000 and 160 GB at d = 10^5, which (2d)^N <=
# SIZE_GUARD alone would allow at N = 1; expm holds several at once.
DENSE_GUARD = 1_000
TRUST_MARGIN = 20.0
# The QFI oracles' margin is wider: the fidelity route divides an overlap
# deficit as small as 1e-8 by delta^2, so per-amplitude truncation noise must
# sit well below 1e-8.
ORACLE_MARGIN = 32.0
# Trusted columns every space of the identity suite is sized for.
SUITE_COLUMNS = 16
# A second rotation rate for the generator identity: at Omega = 0 the C0 term
# vanishes, so only a nonzero rate tests it.
SUITE_ROTATION_RATE = 0.3
# Most interpolation nodes (tridiagonal eigensolves, d x d factors held) one
# block of sampled steps may use.
STEP_NODES = 12
# _STEP_REACH[m - 1] is the largest q = W dt ||X|| / 4 at which m Chebyshev
# nodes keep the step-factor bound 2 q^m / m! at or below 2^-53.
_STEP_REACH = tuple(
    (2.0**-54 * math.factorial(m)) ** (1.0 / m) for m in range(1, STEP_NODES + 1)
)


def expm(a: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm, with scipy.linalg imported on the first call."""
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


def eigh_tridiagonal(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy.linalg.eigh_tridiagonal, imported on the first call like `expm`."""
    from scipy.linalg import eigh_tridiagonal as scipy_eigh_tridiagonal

    return scipy_eigh_tridiagonal(d, e)


def ladder(d: int) -> np.ndarray:
    """Annihilation operator on the d-level truncated Fock basis."""
    return np.diag(np.sqrt(np.arange(1.0, d)), 1).astype(complex)


def _check_dense(d: int) -> None:
    """A single-site truncation must hold a ladder step and fit the dense guard."""
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    if d > DENSE_GUARD:
        raise SizeGuardError(
            f"d = {d} exceeds the dense guard {DENSE_GUARD} on a single-site "
            f"operator; reduce the truncation"
        )


def build_displacement(eta: complex, d: int) -> np.ndarray:
    """exp(eta a^dag - eta* a) on the truncated basis.

    With eta = |eta| e^{i theta} and R = exp(i theta a^dag a), the result is
    R exp(|eta| (a^dag - a)) R^dag, exactly, also when truncated, because
    a^dag a is diagonal.  The core is the exponential of a real skew-symmetric
    tridiagonal matrix, so it is real orthogonal and its expm runs in real
    arithmetic; R is the diagonal phase p_k = e^{i k theta}, applied as an
    O(d^2) similarity.  The result is unitary in exact arithmetic; its low
    columns match the infinite-dimensional displacement to within the
    trusted-block tolerance.
    """
    _check_dense(d)
    off = np.sqrt(np.arange(1.0, d))
    core = expm(abs(eta) * (np.diag(off, -1) - np.diag(off, 1)))
    phase = np.exp(1j * np.angle(eta) * np.arange(d))
    return phase[:, None] * core * phase.conj()[None, :]


def trusted_columns(d: int, eta_abs: float, margin: float = TRUST_MARGIN) -> int:
    """Number of leading Fock columns on which truncated evolution is reliable
    under a displacement of magnitude eta_abs."""
    root = math.sqrt(max(d - margin, 0.0)) - eta_abs
    if root < 0.0:
        return 0
    return min(d, int(math.floor(root * root)) + 1)


def required_truncation(n_columns: int, eta_abs: float, margin: float = TRUST_MARGIN) -> int:
    """Smallest d trusting at least n_columns columns."""
    return int(math.ceil((math.sqrt(max(n_columns - 1, 0)) + eta_abs) ** 2 + margin)) + 1


def evolution_block(
    params: PhysicalParams, profile: DrivingProfile, spin_sign: int, n_columns: int
) -> tuple[int, int]:
    """(d, trusted columns) for comparing closed and stepped evolutions of a
    piecewise drive.

    Both are taken from the bound on |eta(t)| along the path rather than from
    |eta(tau)|, since the time-ordered product passes through every eta(t).
    """
    if profile.kind != "piecewise":
        raise ProfileError(
            f"the path bound on |eta| needs a piecewise profile, got {profile.kind}"
        )
    _, _, eta_path = _eta_phi_segments(params, profile.segments, spin_sign)
    d = required_truncation(n_columns, eta_path)
    return d, trusted_columns(d, eta_path)


def _free_rotation(params: PhysicalParams, tau: float, d: int) -> np.ndarray:
    w = params.trap_frequency
    return np.exp(-1j * w * tau * np.arange(d))


def build_evolution_closed(
    params: PhysicalParams,
    profile: DrivingProfile,
    tau: float,
    spin_sign: int,
    d: int,
) -> np.ndarray:
    """U(tau) = exp(-i w a^dag a tau) exp(i Phi) D(eta) for one spin branch."""
    _check_dense(d)
    coeffs = coefficients(params, profile, tau)
    eta = coeffs.eta(spin_sign)
    phi = coeffs.phi(spin_sign)
    if trusted_columns(d, abs(eta)) == 0:
        raise TruncationError(
            f"d = {d} trusts no columns under |eta| = {abs(eta):.3f}",
            suggested_d=required_truncation(8, abs(eta)),
        )
    return _free_rotation(params, tau, d)[:, None] * (
        np.exp(1j * phi) * build_displacement(eta, d)
    )


def _step_factor(diag: np.ndarray, off: np.ndarray, f_val: float, dt: float) -> np.ndarray:
    """exp(-i dt J) for J = diag + f_val * off, real symmetric and tridiagonal:
    one eigensolve V, lam and the complex symmetric V e^{-i dt lam} V^T,
    built from two real products."""
    lam, vec = eigh_tridiagonal(diag, f_val * off)
    out = np.empty((diag.size, diag.size), dtype=complex)
    out.real = (vec * np.cos(dt * lam)) @ vec.T
    out.imag = (vec * -np.sin(dt * lam)) @ vec.T
    return out


def _step_nodes(f_block: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Interpolation nodes in the drive amplitude for one block of steps, and
    their barycentric weights.

    scale = dt ||X|| / 4, so that q = W * scale for a block of drive width W.
    m Chebyshev points of the first kind on [min f, max f] keep every step
    factor within 2 q^m / m! of the exact one; m is the smallest count that
    meets 2^-53.  A block with no more distinct drive values than that takes
    those values as its nodes, so each of its factors is exact.
    """
    lo, hi = float(f_block.min()), float(f_block.max())
    m = bisect.bisect_left(_STEP_REACH, (hi - lo) * scale) + 1
    own = np.unique(f_block)
    if own.size <= m:
        return own, np.ones(own.size)
    theta = (2.0 * np.arange(m) + 1.0) * math.pi / (2.0 * m)
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(theta)
    weights = np.where(np.arange(m) % 2 == 0, 1.0, -1.0) * np.sin(theta)
    return nodes, weights


def _barycentric_rows(nodes: np.ndarray, weights: np.ndarray, f_vals: np.ndarray) -> np.ndarray:
    """(len(f_vals), len(nodes)) coefficients of the barycentric interpolant;
    a value equal to a node gets that node's factor alone (a one-hot row)."""
    diff = f_vals[:, None] - nodes[None, :]
    hit = diff == 0.0
    terms = weights / np.where(hit, 1.0, diff)
    rows = terms / terms.sum(axis=1, keepdims=True)
    return np.where(hit.any(axis=1, keepdims=True), hit, rows)


def _product_over_block(
    u: np.ndarray,
    f_block: np.ndarray,
    diag: np.ndarray,
    off: np.ndarray,
    dt: float,
    scale: float,
) -> np.ndarray:
    """Apply one block's step factors to u in time order, each factor the
    barycentric combination of the block's node factors."""
    nodes, weights = _step_nodes(f_block, scale)
    d = diag.size
    # The node factors as one (m, 2 d^2) float array: each step's combination
    # is one real row-times-matrix product.
    flat = np.empty((nodes.size, 2 * d * d))
    for j, f_val in enumerate(nodes):
        flat[j] = _step_factor(diag, off, f_val, dt).view(float).ravel()
    for row in _barycentric_rows(nodes, weights, f_block):
        u = (row @ flat).view(complex).reshape(d, d) @ u
    return u


def build_evolution_stepped(
    params: PhysicalParams,
    profile: DrivingProfile,
    tau: float,
    spin_sign: int,
    d: int,
    steps: int,
) -> np.ndarray:
    """Midpoint time-ordered product of exp(-i H(t) dt / hbar).

    H(t)/hbar = w a^dag a + f(s,t) K with K = i (a - a^dag).  steps must be
    an integer of at least 100.  For piecewise profiles the step grid is
    snapped to segment boundaries (steps allocated proportional to duration)
    so each factor is exact and the product is limited only by truncation;
    for sampled profiles a uniform grid with midpoint evaluation converges
    to the closed form at O(dt^2).

    Sampled steps are taken in the gauge G = diag(i^k), where
    J(f) = G^dag (w a^dag a + f K) G = w a^dag a + f X is real, symmetric and
    tridiagonal, X having off-diagonal -sqrt(k+1) and ||X|| <= 2 sqrt(d-1).
    The step factor E(f) = exp(-i dt J(f)) is interpolated in f: since
    ||d^k E/df^k|| <= (dt ||X||)^k, m Chebyshev nodes on a drive range of
    width W reproduce it to within 2 (W dt ||X|| / 4)^m / m!.  The time grid
    is split greedily into blocks of consecutive steps whose width keeps
    that bound at or below 2^-53 with at most STEP_NODES nodes; each node
    factor is one tridiagonal eigensolve, and each step is one barycentric
    combination of the block's factors and one complex product.  A block
    with no more distinct drive values than the nodes it needs uses those
    values as nodes, so its factors are exact and a call never makes more
    eigensolves than steps.  U = G u G^dag at the end.
    """
    _check_tau(profile, tau)
    steps = operator.index(steps)
    if steps < 100:
        raise ValueError(f"steps must be at least 100, got {steps}")
    _check_dense(d)
    w = params.trap_frequency

    u = np.eye(d, dtype=complex)
    if profile.kind != "sampled":
        a = ladder(d)
        nop = a.conj().T @ a
        kop = 1j * (a - a.conj().T)
        for dur, wp in profile.segments:
            n_seg = max(1, round(steps * dur / tau))
            dt = dur / n_seg
            f_val = float(drive_amplitude(params, wp, spin_sign))
            factor = expm(-1j * (w * nop + f_val * kop) * dt)
            u = np.linalg.matrix_power(factor, n_seg) @ u
        return u
    dt = tau / steps
    t_mid = (np.arange(steps) + 0.5) * dt
    f_mid = drive_amplitude(params, profile.omega_p_at(t_mid), spin_sign)
    if not np.all(np.isfinite(f_mid)):
        raise ValueError("the drive amplitude must be finite at every step")
    diag = w * np.arange(d, dtype=float)
    off = -np.sqrt(np.arange(1.0, d))
    scale = dt * 2.0 * math.sqrt(d - 1) / 4.0
    start = 0
    while start < steps:
        # Running width of the drive from this step on; the block is the
        # longest prefix that STEP_NODES nodes still cover.
        rest = f_mid[start:]
        reach = (np.maximum.accumulate(rest) - np.minimum.accumulate(rest)) * scale
        block = rest[: np.searchsorted(reach, _STEP_REACH[-1], side="right")]
        u = _product_over_block(u, block, diag, off, dt, scale)
        start += block.size
    gauge = np.array([1.0, 1.0j, -1.0, -1.0j])[np.arange(d) % 4]
    return gauge[:, None] * u * gauge.conj()[None, :]


def _default_delta_omega(params: PhysicalParams) -> float:
    """Scale-adapted finite-difference step for the Omega derivative.

    The drive is affine in Omega, so the only concern is cancellation; the
    hbar/(m r^2 + hbar/w) factor keeps the step in generator units and finite
    at r = 0.
    """
    scale = params.hbar / (
        params.mass * params.ring_radius**2 + params.hbar / params.trap_frequency
    )
    return 1e-4 * max(1.0, abs(params.rotation_rate)) * scale


def generator_numeric(
    params: PhysicalParams,
    profile: DrivingProfile,
    tau: float,
    spin_sign: int,
    d: int,
) -> np.ndarray:
    """H = i (dU^dag/dOmega) U by Richardson-extrapolated central differences."""
    delta_omega = _default_delta_omega(params)

    def u_at(omega_rot: float) -> np.ndarray:
        p = dataclasses.replace(params, rotation_rate=omega_rot)
        return build_evolution_closed(p, profile, tau, spin_sign, d)

    u0 = u_at(params.rotation_rate)

    def central(delta: float) -> np.ndarray:
        du_dag = (
            u_at(params.rotation_rate + delta).conj().T
            - u_at(params.rotation_rate - delta).conj().T
        ) / (2.0 * delta)
        return 1j * du_dag @ u0

    h_full = central(delta_omega)
    h_half = central(delta_omega / 2.0)
    h = (4.0 * h_half - h_full) / 3.0

    coeffs = coefficients(params, profile, tau)
    k_trust = trusted_columns(d, abs(coeffs.eta(spin_sign)))
    block = h[:k_trust, :k_trust]
    herm = np.max(np.abs(block - block.conj().T)) if k_trust else 0.0
    if herm > 1e-6:
        raise ConsistencyError(
            f"numeric generator not Hermitian on the trusted block "
            f"(deviation {herm:.3e}); check delta_omega or truncation"
        )
    return h


def generator_analytic(
    constants, coeffs: CoefficientSet, spin_sign: int, d: int
) -> np.ndarray:
    """T_C (C1 a^dag + C1* a) + (C0/w + T_S C2 s) I on the truncated basis."""
    a = ladder(d)
    shift = coeffs.c0 / constants.trap_frequency + constants.t_s * coeffs.c2 * spin_sign
    return constants.t_c * (coeffs.c1 * a.conj().T + np.conj(coeffs.c1) * a) + (
        shift * np.eye(d)
    )


# ---------------------------------------------------------------------------
# Multi-site machinery.  Site basis: spin (x) Fock, dimension 2d, spin +1
# occupying indices [0, d) and spin -1 indices [d, 2d).
# ---------------------------------------------------------------------------


def _check_size(d: int, n_sites: int) -> None:
    dim = (2 * d) ** n_sites
    if dim > SIZE_GUARD:
        raise SizeGuardError(
            f"(2d)^N = {dim} exceeds the size guard {SIZE_GUARD} "
            f"(d = {d}, N = {n_sites}); reduce d or N"
        )


def _site_vector(amps: np.ndarray, spin_sign: int, d: int) -> np.ndarray:
    v = np.zeros(2 * d, dtype=complex)
    offset = 0 if spin_sign > 0 else d
    v[offset : offset + amps.size] = amps
    return v


def assemble_state(state: GhzProductState, d: int = 0) -> np.ndarray:
    """Explicit (2d)^N amplitude vector of the two-branch GHZ product state.

    d = 0 keeps the state's own truncation; a larger d zero-pads each site,
    which the oracle uses to give evolutions headroom.
    """
    if d == 0:
        d = state.truncation
    if d < state.truncation:
        raise ValueError(f"cannot shrink truncation {state.truncation} to {d}")
    _check_size(d, state.n_particles)
    up = _site_vector(state.branch_up.mode_amplitudes, +1, d)
    down = _site_vector(state.branch_down.mode_amplitudes, -1, d)
    psi_up = up
    psi_down = down
    for _ in range(state.n_particles - 1):
        psi_up = np.kron(psi_up, up)
        psi_down = np.kron(psi_down, down)
    return (psi_up + psi_down) / math.sqrt(2.0)


def apply_site(op: np.ndarray, psi: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """Apply a single-site operator at the given site of an N-site vector."""
    dim = op.shape[0]
    tensor = psi.reshape((dim,) * n_sites)
    out = np.tensordot(op, tensor, axes=([1], [site]))
    return np.moveaxis(out, 0, site).reshape(-1)


def apply_collective(op: np.ndarray, psi: np.ndarray, n_sites: int) -> np.ndarray:
    """Apply sum_k op^{(k)}."""
    total = np.zeros_like(psi)
    for k in range(n_sites):
        total += apply_site(op, psi, k, n_sites)
    return total


def _spin_block_diag(op_up: np.ndarray, op_down: np.ndarray) -> np.ndarray:
    d = op_up.shape[0]
    out = np.zeros((2 * d, 2 * d), dtype=complex)
    out[:d, :d] = op_up
    out[d:, d:] = op_down
    return out


def _oracle_truncation(state: GhzProductState, coeffs: CoefficientSet) -> int:
    """Truncation for which every level the input state populates is trusted,
    under the QFI oracles' wider ORACLE_MARGIN."""
    eta_max = max(abs(coeffs.eta_up), abs(coeffs.eta_down))
    return required_truncation(state.truncation, eta_max, margin=ORACLE_MARGIN)


def site_generator_numeric(
    params: PhysicalParams,
    profile: DrivingProfile,
    tau: float,
    d: int,
) -> np.ndarray:
    """Single-site generator (spin (x) Fock) assembled from the two
    finite-difference spin-branch blocks, symmetrized."""
    h_up = generator_numeric(params, profile, tau, +1, d)
    h_down = generator_numeric(params, profile, tau, -1, d)
    h_site = _spin_block_diag(h_up, h_down)
    return (h_site + h_site.conj().T) / 2.0


def variance_qfi(h_site: np.ndarray, psi: np.ndarray, n_sites: int) -> float:
    """4 Var(sum_k h^{(k)}) on an explicit state vector."""
    h_psi = apply_collective(h_site, psi, n_sites)
    mean = np.vdot(psi, h_psi).real
    second = np.vdot(h_psi, h_psi).real
    return 4.0 * (second - mean**2)


def qfi_variance_numeric(
    state: GhzProductState,
    params: PhysicalParams,
    profile: DrivingProfile,
    tau: float,
    d: int = 0,
) -> float:
    """QFI as four times the variance of the finite-difference generator on
    the explicit N-site vector.  d = 0 sizes the truncation so every level
    populated by the input state sits in the trusted block."""
    coeffs = coefficients(params, profile, tau)
    if d == 0:
        d = _oracle_truncation(state, coeffs)
    _check_size(d, state.n_particles)
    h_site = site_generator_numeric(params, profile, tau, d)
    psi = assemble_state(state, d)
    return variance_qfi(h_site, psi, state.n_particles)


def _evolve_state(
    psi: np.ndarray,
    params: PhysicalParams,
    profile: DrivingProfile,
    tau: float,
    d: int,
    n_sites: int,
) -> np.ndarray:
    u_site = _spin_block_diag(
        build_evolution_closed(params, profile, tau, +1, d),
        build_evolution_closed(params, profile, tau, -1, d),
    )
    out = psi
    for k in range(n_sites):
        out = apply_site(u_site, out, k, n_sites)
    return out


def qfi_fidelity_numeric(
    state: GhzProductState,
    params: PhysicalParams,
    profile: DrivingProfile,
    tau: float,
    d: int = 0,
) -> float:
    """QFI as fidelity susceptibility: F = 8 (1 - |<psi(Omega)|psi(Omega+delta)>|)/delta^2
    with one Richardson level.

    The modulus removes the Omega-dependent C0 global phase, keeping this
    route independent of the variance route.  delta is adapted until the
    overlap deficit sits in [1e-8, 1e-4], where the quadratic term dominates
    both roundoff and quartic corrections.
    """
    coeffs = coefficients(params, profile, tau)
    if d == 0:
        d = _oracle_truncation(state, coeffs)
    _check_size(d, state.n_particles)
    n_sites = state.n_particles
    psi0 = assemble_state(state, d)
    evolved0 = _evolve_state(psi0, params, profile, tau, d, n_sites)

    def deficit(delta: float) -> float:
        p = dataclasses.replace(
            params, rotation_rate=params.rotation_rate + delta
        )
        evolved = _evolve_state(psi0, p, profile, tau, d, n_sites)
        return 1.0 - abs(np.vdot(evolved0, evolved))

    delta = _default_delta_omega(params)
    value = deficit(delta)
    for _ in range(4):
        if 1e-8 <= value <= 1e-4 or value == 0.0:
            break
        delta *= math.sqrt(1e-5 / max(value, 1e-300))
        value = deficit(delta)
    if value == 0.0:
        return 0.0
    q_full = 8.0 * value / delta**2
    q_half = 8.0 * deficit(delta / 2.0) / (delta / 2.0) ** 2
    if q_full > 0 and not 1.0 / 8.0 <= q_half / q_full <= 8.0:
        raise ConsistencyError(
            f"overlap deficit does not decay quadratically "
            f"(q({delta}) = {q_full}, q({delta / 2}) = {q_half})"
        )
    return (4.0 * q_half - q_full) / 3.0


def quadrature_site_operator(c1: complex, d: int) -> np.ndarray:
    """X (x) identity-in-spin as a single-site operator."""
    a = ladder(d)
    x = c1 * a.conj().T + np.conj(c1) * a
    return _spin_block_diag(x, x)


def sigma_z_site_operator(d: int) -> np.ndarray:
    return _spin_block_diag(np.eye(d, dtype=complex), -np.eye(d, dtype=complex))


def _sym_cov(psi: np.ndarray, a_psi: np.ndarray, b_psi: np.ndarray) -> float:
    """Symmetrized covariance (<AB + BA>/2 - <A><B>) from precomputed images."""
    mean_a = np.vdot(psi, a_psi).real
    mean_b = np.vdot(psi, b_psi).real
    return np.vdot(a_psi, b_psi).real - mean_a * mean_b


def covariance_reduction_check(
    state: GhzProductState,
    op_a: np.ndarray,
    op_b: np.ndarray,
    atol: float = 1e-10,
) -> bool:
    """Permutation-symmetry identity
    Cov(sum A_k, sum B_k) = N Cov(A1, B1) + (N^2 - N) Cov(A1, B2),
    with every side evaluated on the full N-site vector."""
    n_sites = state.n_particles
    psi = assemble_state(state)
    a_tot = apply_collective(op_a, psi, n_sites)
    b_tot = apply_collective(op_b, psi, n_sites)
    lhs = _sym_cov(psi, a_tot, b_tot)

    a_1 = apply_site(op_a, psi, 0, n_sites)
    b_1 = apply_site(op_b, psi, 0, n_sites)
    cov_11 = _sym_cov(psi, a_1, b_1)
    if n_sites > 1:
        b_2 = apply_site(op_b, psi, 1, n_sites)
        cov_12 = _sym_cov(psi, a_1, b_2)
    else:
        cov_12 = 0.0
    rhs = n_sites * cov_11 + (n_sites**2 - n_sites) * cov_12
    return abs(lhs - rhs) <= atol * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# Identity suite: every oracle route against its independent counterpart.
# ---------------------------------------------------------------------------


def _identity(name: str, error: float, tolerance: float) -> dict:
    return {
        "name": name,
        "error": float(error),
        "tolerance": float(tolerance),
        "passed": bool(error <= tolerance),
    }


def identity_suite(
    params: PhysicalParams, n_max: int, fault: str = "none", seed: int = 0
) -> dict:
    """Machine-readable report of every oracle identity, for N up to n_max.

    fault = "c2-sign" flips the C2 sign in the analytic generator before
    comparing against the finite-difference generator, demonstrating that the
    suite detects a corrupted coefficient.
    """
    if not 1 <= n_max <= 3:
        raise SizeGuardError(
            f"oracle.n_max must be between 1 and 3, got {n_max} "
            f"(exact simulation above N = 3 exceeds the desk-scale envelope)"
        )
    if fault not in ("none", "c2-sign"):
        raise ConfigError(f"oracle.inject_fault must be none or c2-sign, got {fault!r}")

    rng = np.random.default_rng(seed)
    t0 = 2.0 * math.pi / params.trap_frequency
    constants = derive_constants(params)
    identities: list[dict] = []

    # Displacement matrix vs the associated-Laguerre column formula.
    alpha = complex(rng.normal(0.0, 0.8), rng.normal(0.0, 0.8))
    d = required_truncation(SUITE_COLUMNS, abs(alpha))
    disp = build_displacement(alpha, d)
    k_trust = trusted_columns(d, abs(alpha))
    err = 0.0
    for n in (0, 1, 3):
        column = displaced_fock_amplitudes(alpha, n, d)
        err = max(err, float(np.max(np.abs(disp[:k_trust, n] - column[:k_trust]))))
    identities.append(_identity("displacement-vs-laguerre", err, 1e-10))

    # Closed evolution vs the time-ordered product, constant and piecewise,
    # sized and trusted by the bound on |eta(t)| along the path.
    tau = 0.7 * t0
    for label, profile in (
        ("constant", DrivingProfile.constant_for(tau)),
        (
            "piecewise",
            DrivingProfile.piecewise(
                [(tau / 4.0, 2.0 * math.pi / tau), (3.0 * tau / 4.0, 2.0 * math.pi / (3.0 * tau))]
            ),
        ),
    ):
        worst = 0.0
        for spin in (+1, -1):
            d, k_trust = evolution_block(params, profile, spin, SUITE_COLUMNS)
            closed = build_evolution_closed(params, profile, tau, spin, d)
            stepped = build_evolution_stepped(params, profile, tau, spin, d, 10_000)
            worst = max(worst, float(np.max(np.abs((closed - stepped)[:, :k_trust]))))
        identities.append(_identity(f"evolution-closed-vs-stepped-{label}", worst, 1e-6))

    # Finite-difference generator vs the analytic one, both spins, at the
    # configured rotation rate and at SUITE_ROTATION_RATE.
    tau = t0 / 2.0
    profile = DrivingProfile.constant_for(tau)
    worst = 0.0
    for rate in dict.fromkeys((params.rotation_rate, SUITE_ROTATION_RATE)):
        rotating = dataclasses.replace(params, rotation_rate=rate)
        coeffs = coefficients(rotating, profile, tau)
        if fault == "c2-sign":
            coeffs = dataclasses.replace(coeffs, c2=-coeffs.c2)
        for spin in (+1, -1):
            eta_abs = abs(coeffs.eta(spin))
            d = required_truncation(SUITE_COLUMNS, eta_abs)
            h_num = generator_numeric(rotating, profile, tau, spin, d)
            h_ana = generator_analytic(constants, coeffs, spin, d)
            k_trust = trusted_columns(d, eta_abs)
            worst = max(worst, float(np.max(np.abs((h_num - h_ana)[:k_trust, :k_trust]))))
    identities.append(_identity("generator-numeric-vs-analytic", worst, 1e-6))

    # Dual oracle vs closed forms over the configuration grid.
    var_err = fid_err = 0.0
    for n_particles in range(1, min(n_max, 2) + 1):
        partial = make_partially_entangled(0.5 - 0.3j, 1, n_particles=n_particles)
        ghz = make_globally_entangled(-1.0, n_particles=n_particles)
        for tau in (t0 / 4.0, t0 / 2.0, t0):
            profile = DrivingProfile.constant_for(tau)
            coeffs = coefficients(params, profile, tau)
            for state, closed in (
                (partial, qfi_partial_closed(1, n_particles, constants, coeffs)),
                (ghz, qfi_global_closed(-1.0, n_particles, constants, coeffs)),
            ):
                scale = max(1.0, abs(closed))
                f_var = qfi_variance_numeric(state, params, profile, tau)
                var_err = max(var_err, abs(f_var - closed) / scale)
                f_fid = qfi_fidelity_numeric(state, params, profile, tau)
                fid_err = max(fid_err, abs(f_fid - closed) / scale)
    identities.append(_identity("qfi-variance-vs-closed", var_err, 1e-5))
    identities.append(_identity("qfi-fidelity-vs-closed", fid_err, 1e-5))

    # Covariance reduction on full vectors up to n_max, at tau = T0/2, where
    # C1 = -1 (C1 does not depend on the rotation rate or the fault).
    half_period = DrivingProfile.constant_for(t0 / 2.0)
    quadrature = quadrature_site_operator(coefficients(params, half_period, t0 / 2.0).c1, 6)
    sigma_z = sigma_z_site_operator(6)
    ok = all(
        covariance_reduction_check(
            make_partially_entangled(0.4 + 0.2j, 0, d=6, n_particles=n_particles, leakage=1e-6),
            quadrature,
            sigma_z,
        )
        for n_particles in range(1, n_max + 1)
    )
    identities.append(_identity("covariance-reduction", 0.0 if ok else 1.0, 0.5))

    return {
        "seed": seed,
        "n_max": n_max,
        "inject_fault": fault,
        "identities": identities,
        "all_passed": all(item["passed"] for item in identities),
    }
