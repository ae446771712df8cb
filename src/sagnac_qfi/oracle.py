"""Brute-force verification layer on truncated Fock spaces, and its identity suite.

Nothing here trusts the analytic layer: evolution operators are built two
independent ways (the closed displacement factorization and a midpoint
time-ordered product of the raw Hamiltonian), the generator is extracted by
finite differences in Omega, and the QFI is computed both as four times the
generator variance and as a fidelity susceptibility, each factored over the
input state's two spin branches.  Agreements between these routes and the
closed forms are the package's evidence; `identity_suite` checks every one
of them and reports each error against its tolerance.  Only this module
builds and sizes the oracle's truncated spaces.

Exponentials are exp(-i t J) for a real symmetric tridiagonal J in a
diagonal phase gauge: J = X = a + a^dag for a displacement and
J = w a^dag a - f X for a time step.  A displacement, and a piecewise
segment's step, is `expm(lam, vec, t)` on J's eigenpairs
(numpy.linalg.eigh), cached per d for X.  A sampled drive's time-ordered
product interpolates the step factor in f between at most STEP_NODES node
factors per block of steps, within 2^-53 per step, so it stays an
independent witness of the closed factorization.  The node factors
cos A - i sin A, A = dt J(f), come from one pass of truncated Taylor series
over all of a block's nodes, written as real (2d, 2d) blocks
[[cos A, sin A], [-sin A, cos A]]; one real GEMM combines STEP_CHUNK steps'
blocks at a time, and each step is then one real (2d x 2d)(2d x d) product
on the stack [Re u; Im u] (see `build_evolution_stepped`).

Truncation discipline: evolving inside a truncated space reflects amplitude
off the Fock cap, while truncating the exact evolution clips it, so the two
only agree on columns whose displaced images stay well below the cap.  Column
k is trusted iff (sqrt(k) + |eta|)^2 + TRUST_MARGIN <= d; that margin (20)
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
costs O(d^2) memory and O(d^3) time however small N is.  The
covariance-reduction identity evolves nothing and keeps its state's own
automatic truncation.

The QFI oracles never build the (2d)^N state.  Each site's evolution and
generator commute with its sigma_z, and the two branches of the GHZ product
state are orthogonal in every site's spin, so the cross-branch terms vanish
(Braunstein & Caves, PRL 72, 3439 (1994); Pezze et al., RMP 90, 035005
(2018)).  With each branch's amplitudes phi+- padded to d levels, the
variance route takes m+- = <phi+-|h+-|phi+-> and v+- = |h+- phi+-|^2 - m+-^2
and returns F = 4 [N (v+ + v-)/2 + N^2 (m+ - m-)^2/4], the paper's
(beta - gamma) N + gamma N^2; the fidelity route takes the overlap
(o+^N + o-^N)/2 of the single-site branch overlaps
o+- = <U+-(Omega) phi+-|U+-(Omega+delta) phi+->, and the squared norms
(n+^N + n-^N)/2 of the evolved branches.  Each costs O(d^3) for any N.  Both
take d from `_oracle_truncation` alone, which trusts every level the input
state populates.  The dense (2d)^N path (`assemble_state`, `apply_site`,
`variance_qfi`), capped by SIZE_GUARD, serves the covariance identity and the
identity suite's factored-versus-dense cross-check; its inner products are
numpy's pairwise sums rather than np.vdot, so its bits do not depend on the
BLAS thread count.

The module loads no scipy module, at import or at run time.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
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
# matrix is 16 MB at d = 1000 and 160 GB at d = 10^5, which (2d)^N <= SIZE_GUARD
# alone would allow at N = 1; an eigensolve and an `expm` hold several at once.
DENSE_GUARD = 1_000
# Bytes of eigenvectors the displacement basis cache keeps (all d <= 170).
BASIS_CACHE_BYTES = 16 * 2**20
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
# Most interpolation nodes (node factors, real 2d x 2d blocks held) one
# block of sampled steps may use.
STEP_NODES = 12
# Steps of a sampled block whose factors one GEMM combines (16 measured
# fastest at d = 36, against 8 and 32); a chunk holds STEP_CHUNK real
# 2d x 2d blocks at once.
STEP_CHUNK = 16
# _STEP_REACH[m - 1] is the largest q = W dt ||X|| / 4 at which m Chebyshev
# nodes keep the step-factor bound 2 q^m / m! at or below 2^-53.
_STEP_REACH = tuple(
    (2.0**-54 * math.factorial(m)) ** (1.0 / m) for m in range(1, STEP_NODES + 1)
)
# _TAYLOR_REACH[k - 1] is the largest infinity norm theta of A at which k
# terms each of the series for cos A and sin A in B = A^2 keep their
# truncation bound 2 theta^(2k) / (2k)! at or below 2^-53; the step blocks
# scale A to theta <= 1, which ten terms cover.
_TAYLOR_REACH = tuple(
    (2.0**-54 * math.factorial(2 * k)) ** (1.0 / (2 * k)) for k in range(1, 11)
)
# Largest infinity norm of dt J(f) the node kernel accepts: each of its s
# squarings doubles the factor's rounding, so past 2^33 a factor could be off
# by 1e-6, and far enough past it the squarings overflow to NaN.
_STEP_NORM_LIMIT = 2.0**33
_COS_TERMS = np.array([(-1) ** k / math.factorial(2 * k) for k in range(len(_TAYLOR_REACH))])
_SIN_TERMS = np.array([(-1) ** k / math.factorial(2 * k + 1) for k in range(len(_TAYLOR_REACH))])


def expm(lam: np.ndarray, vec: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t J) = V e^{-i t lam} V^T for a real symmetric J with eigenvalues
    lam and orthonormal eigenvectors V (columns): the complex symmetric result
    from two real products."""
    out = np.empty((lam.size, lam.size), dtype=complex)
    out.real = (vec * np.cos(t * lam)) @ vec.T
    out.imag = (vec * -np.sin(t * lam)) @ vec.T
    return out


def _tridiagonal_eigh(diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a real symmetric tridiagonal matrix by numpy.linalg.eigh on
    the dense matrix: the bits of scipy.linalg.eigh_tridiagonal, and its
    Fortran-order eigenvectors, so that `expm`'s products round the same."""
    lam, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return lam, np.asfortranarray(vec)


_BASES: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # least recently used first


def _displacement_basis(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigenpairs of X = a + a^dag on d levels (its eigenvalues are
    sqrt(2) times the Gauss-Hermite nodes), cached up to BASIS_CACHE_BYTES."""
    basis = _BASES.pop(d, None)
    if basis is not None:  # a hit moves to the most recently used end
        _BASES[d] = basis
        return basis
    basis = _tridiagonal_eigh(np.zeros(d), np.sqrt(np.arange(1.0, d)))
    for array in basis:
        array.flags.writeable = False
    _BASES[d] = basis
    while sum(vec.nbytes for _, vec in _BASES.values()) > BASIS_CACHE_BYTES:
        del _BASES[next(iter(_BASES))]
    return basis


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


def _gauge(d: int) -> np.ndarray:
    """G = diag(i^k), in which a^dag - a = -i X and i (a - a^dag) = -X."""
    return np.array([1.0, 1.0j, -1.0, -1.0j])[np.arange(d) % 4]


def build_displacement(eta: complex, d: int) -> np.ndarray:
    """exp(eta a^dag - eta* a) on the truncated basis.

    With eta = |eta| e^{i theta}, R = exp(i theta a^dag a) and the gauge G,
    the result is P exp(-i |eta| X) P^dag with the diagonal P = R G,
    p_k = i^k e^{i k theta}, exactly, also when truncated.  The core is `expm`
    on the cached eigenpairs of X; its low columns match the
    infinite-dimensional displacement to within the trusted-block tolerance.
    """
    _check_dense(d)
    lam, vec = _displacement_basis(d)
    phase = _gauge(d) * np.exp(1j * np.angle(eta) * np.arange(d))
    out = expm(lam, vec, abs(eta))
    np.multiply(phase[:, None], out, out=out)
    return np.multiply(out, phase.conj()[None, :], out=out)


def trusted_columns(d: int, eta_abs: float) -> int:
    """Number of leading Fock columns on which truncated evolution is reliable
    under a displacement of magnitude eta_abs."""
    root = math.sqrt(max(d - TRUST_MARGIN, 0.0)) - eta_abs
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
    rotation = np.exp(-1j * params.trap_frequency * tau * np.arange(d))
    u = build_displacement(eta, d)
    np.multiply(np.exp(1j * phi), u, out=u)
    return np.multiply(rotation[:, None], u, out=u)


def _step_factor(diag: np.ndarray, off: np.ndarray, f_val: float, dt: float) -> np.ndarray:
    """exp(-i dt J) for J = diag + f_val * off, real symmetric and tridiagonal:
    one eigensolve and one `expm`.  Piecewise segments take their factors
    from here, sampled nodes from `_step_blocks`."""
    return expm(*_tridiagonal_eigh(diag, f_val * off), dt)


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
    own = np.sort(f_block)  # np.unique's values, without its import of numpy.ma
    own = own[np.concatenate(([True], own[1:] != own[:-1]))]
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


def _cos_sin_series(a: np.ndarray, k: int, cos_out: np.ndarray, sin_out: np.ndarray) -> None:
    """cos a and sin a for a stack a of real (d, d) matrices, from the first
    k terms of each Taylor series in B = a^2, written into cos_out and
    sin_out.

    Both series share the powers B, ..., B^q and are evaluated by
    Paterson-Stockmeyer (SIAM J. Comput. 2, 60 (1973)): as polynomials of
    degree r - 1 in B^q, r = ceil(k / q), whose coefficients are polynomials
    of degree below q in B, by Horner's rule.  q minimizes the batched
    products, q - 1 for the powers (q - 2 when r = 1, as B^q is then unused)
    and r - 1 per series; one GEMM forms every coefficient of both series,
    and sin a is a times its series in B.
    """
    m, d, _ = a.shape
    q = min(range(1, k + 1), key=lambda q: q - 1 - (q == k) + 2 * (-(-k // q) - 1))
    r = -(-k // q)
    powers = np.empty((q, m, d, d))  # B^1, ..., B^q
    np.matmul(a, a, out=powers[0])
    for i in range(1, q if r > 1 else q - 1):
        np.matmul(powers[i - 1], powers[0], out=powers[i])
    terms = np.zeros((2, r * q))
    terms[:, :k] = _COS_TERMS[:k], _SIN_TERMS[:k]
    terms = terms.reshape(2 * r, q)
    # parts[p, j] is the coefficient of (B^q)^j in series p.
    parts = terms[:, 1:] @ powers[: q - 1].reshape(q - 1, m * d * d)
    parts.reshape(2 * r, m, d * d)[:, :, :: d + 1] += terms[:, :1, None]
    sin_series = np.empty((m, d, d))
    for series, out in zip(parts.reshape(2, r, m, d, d), (cos_out, sin_series)):
        out[...] = series[r - 1]
        for j in range(r - 2, -1, -1):
            np.add(out @ powers[q - 1], series[j], out=out)
    np.matmul(a, sin_series, out=sin_out)


def _step_blocks(diag: np.ndarray, off: np.ndarray, f_vals: np.ndarray, dt: float) -> np.ndarray:
    """Real blocks [[C, S], [-S, C]] of the step factors
    exp(-i dt J(f)) = C - i S, J(f) = diag + f off, for every drive f in
    f_vals: one (len(f_vals), 2d, 2d) array.

    The matrices A = dt J(f) are stacked into one real (m, d, d) array whose
    largest infinity norm theta bounds every ||A||.  Above 1 they are scaled
    by 2^-s, exactly, to theta <= 1; C = cos A and S = sin A then take the
    fewest Taylor terms whose truncation stays within 2^-53
    (`_TAYLOR_REACH`), and s squarings (C - iS)^2 = (C^2 - S^2) - i (CS + SC)
    restore them, each one batched product [C; -S] [C, S] of the blocks' own
    left column and top row.
    """
    m, d = f_vals.size, diag.size
    a = np.zeros((m, d, d))
    flat = a.reshape(m, d * d)
    flat[:, :: d + 1] = dt * diag
    flat[:, 1 :: d + 1] = flat[:, d :: d + 1] = (dt * f_vals)[:, None] * off
    theta = float(np.abs(a).sum(axis=2).max())
    if not theta <= _STEP_NORM_LIMIT:
        raise ValueError(
            f"a step's ||dt J(f)|| = {theta:.3g} exceeds {_STEP_NORM_LIMIT:.3g}; take more steps"
        )
    halvings = math.ceil(math.log2(theta)) if theta > 1.0 else 0
    a *= 2.0**-halvings
    k = bisect.bisect_left(_TAYLOR_REACH, theta * 2.0**-halvings) + 1
    blocks = np.empty((m, 2 * d, 2 * d))
    cos, sin = blocks[:, :d, :d], blocks[:, :d, d:]
    _cos_sin_series(a, k, cos, sin)
    np.negative(sin, out=blocks[:, d:, :d])
    square = np.empty_like(blocks) if halvings else None
    for _ in range(halvings):
        # [[C^2, CS], [-SC, -S^2]]
        np.matmul(blocks[:, :, :d], blocks[:, :d, :], out=square)
        np.add(square[:, :d, :d], square[:, d:, d:], out=cos)
        np.subtract(square[:, :d, d:], square[:, d:, :d], out=sin)
        np.negative(sin, out=blocks[:, d:, :d])
    blocks[:, d:, d:] = cos
    return blocks


def _product_over_block(
    u: np.ndarray,
    f_block: np.ndarray,
    diag: np.ndarray,
    off: np.ndarray,
    dt: float,
    scale: float,
) -> np.ndarray:
    """Apply one block's step factors to u in time order, each factor the
    barycentric combination of the block's node factors (`_step_blocks`);
    a new array.

    Inside the block the product is the real (2d, d) stack [Re u; Im u] and
    each factor E = A + iB its real block [[A, -B], [B, A]], which maps the
    stack to [Re Eu; Im Eu], so a step is one real (2d x 2d)(2d x d)
    product.  The blocks are combined STEP_CHUNK steps at a time, one real
    GEMM of the chunk's barycentric rows with the node blocks into one
    reused buffer, and each step is applied into the other of two stack
    buffers, so u itself is never written."""
    nodes, weights = _step_nodes(f_block, scale)
    d = diag.size
    # The node factors' real blocks as one (m, 4 d^2) array: a chunk's
    # combinations, being linear, are one (chunk, m) x (m, 4 d^2) product
    # that yields each step's block.
    flat = _step_blocks(diag, off, nodes, dt).reshape(nodes.size, -1)
    rows = _barycentric_rows(nodes, weights, f_block)
    combined = np.empty((min(STEP_CHUNK, len(rows)), 2 * d, 2 * d))
    stacks = np.empty((2, 2 * d, d))
    stack = np.concatenate((u.real, u.imag))
    for start in range(0, len(rows), STEP_CHUNK):
        chunk = rows[start : start + STEP_CHUNK]
        steps = combined[: len(chunk)]
        np.matmul(chunk, flat, out=steps.reshape(len(chunk), -1))
        for step, block in enumerate(steps, start):
            # np.dot: the bits of np.matmul here, with less dispatch per call.
            stack = np.dot(block, stack, out=stacks[step % 2])
    out = np.empty((d, d), dtype=complex)
    out.real, out.imag = stack[:d], stack[d:]
    return out


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

    Steps are taken in the gauge G, where J(f) = G^dag (w a^dag a + f K) G
    = w a^dag a - f X is real, symmetric and tridiagonal, ||X|| <= 2 sqrt(d-1),
    and U = G u G^dag at the end.  A piecewise segment's factor
    E(f) = exp(-i dt J(f)) is raised to its step count with matrix_power.  A
    sampled drive's E(f) is interpolated in f: as ||d^k E/df^k|| <=
    (dt ||X||)^k, m Chebyshev nodes on a drive range of width W reproduce it
    within 2 (W dt ||X|| / 4)^m / m!.  The steps are split greedily into
    blocks that keep this at or below 2^-53 with at most STEP_NODES nodes,
    whose factors come from one `_step_blocks` pass of truncated Taylor
    series, within 2^-53 before the squarings, with no eigensolve.  Inside a
    block the product is held as the real stack [Re u; Im u] and each factor
    A + iB as its real block [[A, -B], [B, A]]; the barycentric combinations
    of STEP_CHUNK consecutive steps are one real GEMM with the block's node
    blocks, and each step is then one real (2d x 2d)(2d x d) product.  A
    block with no more distinct drive values than nodes takes those values
    as nodes, so a call never forms more node factors than steps.
    """
    _check_tau(profile, tau)
    steps = operator.index(steps)
    if steps < 100:
        raise ValueError(f"steps must be at least 100, got {steps}")
    _check_dense(d)
    w = params.trap_frequency
    diag = w * np.arange(d, dtype=float)
    off = -np.sqrt(np.arange(1.0, d))

    u = np.eye(d, dtype=complex)
    if profile.kind != "sampled":
        for dur, wp in profile.segments:
            n_seg = max(1, round(steps * dur / tau))
            dt = dur / n_seg
            f_val = float(drive_amplitude(params, wp, spin_sign))
            factor = _step_factor(diag, off, f_val, dt)
            u = np.linalg.matrix_power(factor, n_seg) @ u
    else:
        dt = tau / steps
        t_mid = (np.arange(steps) + 0.5) * dt
        f_mid = drive_amplitude(params, profile.omega_p_at(t_mid), spin_sign)
        if not np.all(np.isfinite(f_mid)):
            raise ValueError("the drive amplitude must be finite at every step")
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
    gauge = _gauge(d)
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
    """H = i (dU^dag/dOmega) U, with dU/dOmega taken by Richardson-extrapolated
    central differences, formed in place, before the one product with U."""
    delta_omega = _default_delta_omega(params)

    def u_at(omega_rot: float) -> np.ndarray:
        p = dataclasses.replace(params, rotation_rate=omega_rot)
        return build_evolution_closed(p, profile, tau, spin_sign, d)

    u0 = u_at(params.rotation_rate)

    def central(delta: float) -> np.ndarray:
        diff = u_at(params.rotation_rate + delta)
        np.subtract(diff, u_at(params.rotation_rate - delta), out=diff)
        return np.divide(diff, 2.0 * delta, out=diff)

    c_full = central(delta_omega)
    du = central(delta_omega / 2.0)
    np.divide(np.subtract(np.multiply(4.0, du, out=du), c_full, out=du), 3.0, out=du)
    h = np.matmul(np.multiply(1j, np.conjugate(du, out=du), out=du).T, u0, out=c_full)

    coeffs = coefficients(params, profile, tau)
    k_trust = trusted_columns(d, abs(coeffs.eta(spin_sign)))
    block = h[:k_trust, :k_trust]
    herm = np.max(np.abs(block - block.conj().T)) if k_trust else 0.0
    if not herm <= 1e-6:  # a NaN fails too
        raise ConsistencyError(
            f"numeric generator not Hermitian on the trusted block "
            f"(deviation {herm:.3e}); check delta_omega or truncation"
        )
    return h


def generator_analytic(constants, coeffs: CoefficientSet, spin_sign: int, d: int) -> np.ndarray:
    """T_C (C1 a^dag + C1* a) + (C0/w + T_S C2 s) I on the truncated basis."""
    a = ladder(d)
    shift = coeffs.c0 / constants.trap_frequency + constants.t_s * coeffs.c2 * spin_sign
    return constants.t_c * (coeffs.c1 * a.conj().T + np.conj(coeffs.c1) * a) + (
        shift * np.eye(d)
    )


# ---------------------------------------------------------------------------
# Multi-site machinery.  Site basis: spin (x) Fock, dimension 2d, spin +1
# occupying indices [0, d) and spin -1 indices [d, 2d).  A single-site
# operator is a stack of k diagonal blocks, shape (k, m, m) with k m = 2d,
# and `apply_site` applies it to the whole (2d)^N vector; a dense 2d x 2d
# operator is the one-block stack op[None].  The QFI oracles use none of it:
# they work on each branch's single-site amplitudes.
# ---------------------------------------------------------------------------


def _check_size(d: int, n_sites: int) -> None:
    dim = (2 * d) ** n_sites
    if dim > SIZE_GUARD:
        raise SizeGuardError(
            f"(2d)^N = {dim} exceeds the size guard {SIZE_GUARD} "
            f"(d = {d}, N = {n_sites}); reduce d or N"
        )


def assemble_state(state: GhzProductState) -> np.ndarray:
    """Explicit (2d)^N amplitude vector of the two-branch GHZ product state at
    its own truncation d.  Only each branch's d^N block is written, from one
    outer product per amplitude array.
    """
    d, n_sites = state.truncation, state.n_particles
    _check_size(d, n_sites)
    up, down = state.branch_up, state.branch_down
    block_up = functools.reduce(np.multiply.outer, (up,) * n_sites)
    block_down = block_up if down is up else functools.reduce(np.multiply.outer, (down,) * n_sites)
    psi = np.zeros((2 * d,) * n_sites, dtype=complex)
    for block, offset in ((block_up, 0), (block_down, d)):
        np.divide(block, math.sqrt(2.0), out=psi[(slice(offset, offset + d),) * n_sites])
    return psi.reshape(-1)


def apply_site(op: np.ndarray, psi: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """Apply a single-site operator, given as a (k, m, m) stack of diagonal
    blocks, at the given site of an N-site vector: one batched product on
    the site axis split into its k blocks."""
    k, m, _ = op.shape
    rest = range(site + 1, n_sites)
    tensor = psi.reshape((k * m,) * n_sites).transpose((site, *range(site), *rest))
    out = np.matmul(op, tensor.reshape(k, m, -1)).reshape(tensor.shape)
    return out.transpose((*range(1, site + 1), 0, *rest)).reshape(-1)


def apply_collective(op: np.ndarray, psi: np.ndarray, n_sites: int) -> np.ndarray:
    """Apply sum_k op^{(k)} for a (k, m, m) block stack op, accumulated in
    place into the first site's image."""
    out = apply_site(op, psi, 0, n_sites)
    for k in range(1, n_sites):
        np.add(out, apply_site(op, psi, k, n_sites), out=out)
    return out


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
    """Single-site generator as the (2, d, d) stack of its two
    finite-difference spin-branch blocks, each symmetrized."""
    h_site = np.stack((
        generator_numeric(params, profile, tau, +1, d),
        generator_numeric(params, profile, tau, -1, d),
    ))
    np.add(h_site, h_site.conj().transpose(0, 2, 1), out=h_site)
    return np.divide(h_site, 2.0, out=h_site)


def _inner_real(a: np.ndarray, b: np.ndarray) -> float:
    """Re <a|b> as numpy's pairwise sum of the elementwise products: one
    order of additions at any BLAS thread count, where np.vdot splits a long
    vector (the (2d)^N vectors at N = 3) across threads."""
    return (a.conj() * b).sum().real


def _sym_cov(psi: np.ndarray, a_psi: np.ndarray, b_psi: np.ndarray) -> float:
    """Symmetrized covariance (<AB + BA>/2 - <A><B>) from precomputed images."""
    mean_a = _inner_real(psi, a_psi)
    mean_b = _inner_real(psi, b_psi)
    return _inner_real(a_psi, b_psi) - mean_a * mean_b


def variance_qfi(h_site: np.ndarray, psi: np.ndarray, n_sites: int) -> float:
    """4 Var(sum_k h^{(k)}) on an explicit state vector, for a (k, m, m)
    block stack h_site."""
    h_psi = apply_collective(h_site, psi, n_sites)
    return 4.0 * _sym_cov(psi, h_psi, h_psi)


def _padded_branches(state: GhzProductState, d: int) -> np.ndarray:
    """(2, d) single-site amplitudes of the up and the down branch, each
    zero-padded from the state's truncation to d levels."""
    phi = np.zeros((2, d), dtype=complex)
    phi[:, : state.truncation] = state.branch_up, state.branch_down
    return phi


def _factored_variance(h_site: np.ndarray, state: GhzProductState) -> float:
    """4 Var(sum_k h^{(k)}) on the two-branch GHZ product state, for a
    (2, d, d) spin-block stack h_site, from each branch's single-site mean
    m and variance v: 4 [N (v+ + v-)/2 + N^2 (m+ - m-)^2/4]."""
    n_sites = state.n_particles
    moments = []
    for h, phi in zip(h_site, _padded_branches(state, h_site.shape[-1])):
        h_phi = h @ phi
        mean = np.vdot(phi, h_phi).real
        moments.append((mean, np.vdot(h_phi, h_phi).real - mean**2))
    (m_up, v_up), (m_down, v_down) = moments
    return 4.0 * (n_sites * (v_up + v_down) / 2.0 + n_sites**2 * (m_up - m_down) ** 2 / 4.0)


def qfi_variance_numeric(
    state: GhzProductState,
    params: PhysicalParams,
    profile: DrivingProfile,
    tau: float,
) -> float:
    """QFI as four times the variance of the finite-difference generator,
    factored over the state's two branches, at the `_oracle_truncation` d."""
    d = _oracle_truncation(state, coefficients(params, profile, tau))
    return _factored_variance(site_generator_numeric(params, profile, tau, d), state)


def _branch_overlap(left: np.ndarray, right: np.ndarray, n_sites: int) -> complex:
    """<L|R> of two N-site two-branch product states whose sites carry the
    (2, d) branch vectors left and right: (<l+|r+>^N + <l-|r->^N)/2."""
    return sum(complex(np.vdot(a, b)) ** n_sites for a, b in zip(left, right)) / 2.0


def _branch_norm(branches: np.ndarray, n_sites: int) -> float:
    """Norm of the N-site two-branch product state whose sites carry the
    (2, d) branch vectors: sqrt((|b+|^(2N) + |b-|^(2N))/2)."""
    return math.sqrt(sum(float(np.vdot(b, b).real) ** n_sites for b in branches) / 2.0)


def qfi_fidelity_numeric(
    state: GhzProductState,
    params: PhysicalParams,
    profile: DrivingProfile,
    tau: float,
) -> float:
    """QFI as fidelity susceptibility: F = 8 (1 - |<a|b>| / (|a| |b|))/delta^2
    for a = psi(Omega) and b = psi(Omega+delta), with one Richardson level.

    The overlap and the norms are factored over the two branches from each
    spin's U(tau) applied to its padded branch amplitudes.  The modulus
    removes the Omega-dependent C0 global phase, keeping this route
    independent of the variance route; the norms take out the truncated
    evolutions' rounding of the norm.  delta is adapted until the overlap
    deficit sits in [1e-8, 1e-4], where the quadratic term dominates both
    roundoff and quartic corrections.
    """
    d = _oracle_truncation(state, coefficients(params, profile, tau))
    n_sites = state.n_particles
    phi = _padded_branches(state, d)

    def evolve(p: PhysicalParams) -> np.ndarray:
        return np.stack([
            build_evolution_closed(p, profile, tau, spin, d) @ branch
            for spin, branch in zip((+1, -1), phi)
        ])

    evolved0 = evolve(params)
    norm0 = _branch_norm(evolved0, n_sites)

    def deficit(delta: float) -> float:
        p = dataclasses.replace(params, rotation_rate=params.rotation_rate + delta)
        evolved = evolve(p)
        overlap = _branch_overlap(evolved0, evolved, n_sites)
        value = 1.0 - abs(overlap) / (norm0 * _branch_norm(evolved, n_sites))
        if not math.isfinite(value):
            raise ConsistencyError(f"overlap deficit {value} at delta = {delta} is not finite")
        return value

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


def covariance_reduction_check(
    state: GhzProductState,
    op_a: np.ndarray,
    op_b: np.ndarray,
) -> float:
    """Relative error |lhs - rhs| / max(1, |lhs|) of the permutation-symmetry
    identity Cov(sum A_k, sum B_k) = N Cov(A1, B1) + (N^2 - N) Cov(A1, B2),
    with every side evaluated on the full N-site vector, for dense 2d x 2d
    operators A and B."""
    n_sites = state.n_particles
    psi = assemble_state(state)
    op_a, op_b = op_a[None], op_b[None]
    a_tot = apply_collective(op_a, psi, n_sites)
    b_tot = apply_collective(op_b, psi, n_sites)
    lhs = _sym_cov(psi, a_tot, b_tot)

    a_1 = apply_site(op_a, psi, 0, n_sites)
    b_1 = apply_site(op_b, psi, 0, n_sites)
    cov_11 = _sym_cov(psi, a_1, b_1)
    cov_12 = _sym_cov(psi, a_1, apply_site(op_b, psi, 1, n_sites)) if n_sites > 1 else 0.0
    rhs = n_sites * cov_11 + (n_sites**2 - n_sites) * cov_12
    return abs(lhs - rhs) / max(1.0, abs(lhs))


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

    # Covariance reduction, and the factored variance against the dense one,
    # on full vectors up to n_max at tau = T0/2, where C1 = -1 (C1 does not
    # depend on the rotation rate or the fault), with the site operators and
    # the analytic generator's spin blocks on the state's own truncation.
    state = make_partially_entangled(0.4 + 0.2j, 0)
    d = state.truncation
    half_period = DrivingProfile.constant_for(t0 / 2.0)
    half_coeffs = coefficients(params, half_period, t0 / 2.0)
    quadrature = quadrature_site_operator(half_coeffs.c1, d)
    sigma_z = sigma_z_site_operator(d)
    h_site = np.stack([generator_analytic(constants, half_coeffs, spin, d) for spin in (+1, -1)])
    cov_err = dense_err = 0.0
    for n_particles in range(1, n_max + 1):
        sized = dataclasses.replace(state, n_particles=n_particles)
        cov_err = max(cov_err, covariance_reduction_check(sized, quadrature, sigma_z))
        dense = variance_qfi(h_site, assemble_state(sized), n_particles)
        factored = _factored_variance(h_site, sized)
        dense_err = max(dense_err, abs(factored - dense) / max(1.0, abs(dense)))
    identities.append(_identity("covariance-reduction", cov_err, 1e-10))
    identities.append(_identity("qfi-factored-vs-dense", dense_err, 1e-10))

    return {
        "seed": seed,
        "n_max": n_max,
        "inject_fault": fault,
        "identities": identities,
        "all_passed": all(item["passed"] for item in identities),
    }
