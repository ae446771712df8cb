"""Truncated-Fock-space oracle: operators, evolution, numeric QFI routes."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson, simpson

from sagnac_qfi import (
    ConsistencyError,
    DrivingProfile,
    PhysicalParams,
    ProfileError,
    SizeGuardError,
    TruncationError,
    build_displacement,
    build_evolution_closed,
    build_evolution_stepped,
    coefficients,
    covariance_reduction_check,
    derive_constants,
    displaced_fock_amplitudes,
    generator_analytic,
    generator_numeric,
    make_globally_entangled,
    make_partially_entangled,
    qfi_fidelity_numeric,
    qfi_global_closed,
    qfi_partial_closed,
    qfi_variance_numeric,
    quadrature_site_operator,
    sigma_z_site_operator,
)
from sagnac_qfi import oracle
from sagnac_qfi.model import drive_amplitude
from sagnac_qfi.oracle import (
    STEP_NODES,
    assemble_state,
    evolution_block,
    ladder,
    required_truncation,
    trusted_columns,
)
from sagnac_qfi.states import GhzProductState

UNIT = PhysicalParams()
T0 = 2.0 * math.pi


def test_displacement_is_unitary():
    d = 35
    disp = build_displacement(0.9 - 0.6j, d)
    np.testing.assert_allclose(disp.conj().T @ disp, np.eye(d), atol=1e-12)


def test_displacement_reproduces_coherent_column():
    alpha = 1.2 + 0.4j
    d = 50
    disp = build_displacement(alpha, d)
    k = trusted_columns(d, abs(alpha))
    for n in (0, 1, 4):
        expected = displaced_fock_amplitudes(alpha, n, d)
        np.testing.assert_allclose(disp[:k, n], expected[:k], atol=1e-11)


@pytest.mark.parametrize("d", [2, 12, 40, 92, 200, 400])
def test_displacement_matches_complex_expm(d):
    # The real orthogonal core plus the phase similarity must reproduce the
    # complex exponential on the full matrix, not only the trusted block.
    a = ladder(d)
    for eta_abs in (0.0, 0.3, 1.7, 5.0):
        for theta in (0.0, math.pi / 2, -math.pi / 2, math.pi, 0.9, -2.5):
            eta = eta_abs * complex(math.cos(theta), math.sin(theta))
            disp = build_displacement(eta, d)
            want = scipy.linalg.expm(eta * a.conj().T - np.conj(eta) * a)
            assert np.max(np.abs(disp - want)) <= 1e-12
            assert np.max(np.abs(disp.conj().T @ disp - np.eye(d))) <= 1e-12


def test_variance_oracle_runs_expm_on_real_matrices(monkeypatch):
    # One N = 1 variance call builds 5 displacements per spin (Omega and
    # +-delta, +-delta/2), each one kernel call on the real eigenpairs of
    # X = a + a^dag, and those come from one eigensolve per d.
    seen, solved = [], []
    expm_kernel, eigh = oracle.expm, oracle._tridiagonal_eigh

    def recording(lam, vec, t):
        seen.append((lam.dtype, lam.shape, vec.dtype, vec.shape))
        return expm_kernel(lam, vec, t)

    def counted(diag, off):
        solved.append(diag.size)
        return eigh(diag, off)

    monkeypatch.setattr(oracle, "expm", recording)
    monkeypatch.setattr(oracle, "_tridiagonal_eigh", counted)
    monkeypatch.setattr(oracle, "_BASES", {})
    tau = 0.3 * T0
    state = make_partially_entangled(0.5 - 0.3j, 1)
    for _ in range(2):
        qfi_variance_numeric(state, UNIT, DrivingProfile.constant_for(tau), tau)
    assert len(seen) == 20
    d = seen[0][1][0]
    assert seen == [(np.dtype(np.float64), (d,), np.dtype(np.float64), (d, d))] * 20
    assert solved == [d]


def test_displacement_basis_cache_is_bounded_and_read_only(monkeypatch):
    scans = []

    class Bases(dict):
        def values(self):
            scans.append(len(self))
            return super().values()

    monkeypatch.setattr(oracle, "_BASES", Bases())
    monkeypatch.setattr(oracle, "BASIS_CACHE_BYTES", 2 * 8 * 60**2)
    for d, hit in ((60, False), (50, False), (60, True), (40, False)):
        scans.clear()
        lam, vec = oracle._displacement_basis(d)
        assert lam.shape == (d,) and vec.shape == (d, d)
        assert not lam.flags.writeable and not vec.flags.writeable
        # Only a miss sums the cached sizes to decide what to evict.
        assert (not scans) == hit
    # The hit on 60, then the oldest entry, saved it: 50 is the one evicted
    # to make room for 40.
    assert list(oracle._BASES) == [60, 40]
    assert sum(vec.nbytes for _, vec in oracle._BASES.values()) <= oracle.BASIS_CACHE_BYTES
    # The eigenvalues of X are sqrt(2) times the Gauss-Hermite nodes.
    lam, _ = oracle._displacement_basis(40)
    nodes, _ = np.polynomial.hermite.hermgauss(40)
    assert np.max(np.abs(lam - math.sqrt(2.0) * nodes)) <= 1e-13


def test_trusted_columns_roundtrip():
    for n_cols, eta in ((5, 0.7), (12, 1.9), (30, 3.2)):
        d = required_truncation(n_cols, eta)
        assert trusted_columns(d, eta) >= n_cols
        # One row short must not be enough.
        assert trusted_columns(d - 2, eta) < n_cols or d <= n_cols


def test_closed_evolution_is_unitary():
    tau = 0.6 * T0
    profile = DrivingProfile.constant_for(tau)
    u = build_evolution_closed(UNIT, profile, tau, +1, 45)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(45), atol=1e-12)


def test_closed_evolution_demands_trusted_block():
    tau = 0.5 * T0
    profile = DrivingProfile.constant_for(tau)
    with pytest.raises(TruncationError) as err:
        build_evolution_closed(UNIT, profile, tau, +1, 4)
    assert err.value.suggested_d is not None and err.value.suggested_d > 4


def test_stepped_needs_enough_steps():
    tau = 0.5 * T0
    profile = DrivingProfile.constant_for(tau)
    with pytest.raises(ValueError):
        build_evolution_stepped(UNIT, profile, tau, +1, 40, steps=50)


@pytest.mark.parametrize(
    "make_profile",
    [
        lambda tau: DrivingProfile.constant_for(tau),
        lambda tau: DrivingProfile.piecewise(
            [(0.3 * tau, 2.0), (0.7 * tau, (math.pi - 0.6 * tau) / (0.7 * tau))]
        ),
    ],
    ids=["constant", "piecewise"],
)
def test_closed_vs_stepped(make_profile):
    tau = 0.55 * T0
    profile = make_profile(tau)
    params = PhysicalParams(rotation_rate=0.2)
    for spin in (+1, -1):
        d, k = evolution_block(params, profile, spin, 10)
        closed = build_evolution_closed(params, profile, tau, spin, d)
        stepped = build_evolution_stepped(params, profile, tau, spin, d, steps=4000)
        assert np.max(np.abs((closed - stepped)[:, :k])) < 1e-7


def test_evolution_block_needs_piecewise_profile():
    tau = 0.4 * T0
    t = np.linspace(0.0, tau, 101)
    profile = DrivingProfile.sampled(t, np.full_like(t, math.pi / tau))
    with pytest.raises(ProfileError):
        evolution_block(UNIT, profile, +1, 10)


def test_stepped_converges_on_smooth_profile():
    tau = 0.4 * T0
    t = np.linspace(0.0, tau, 20001)
    omega_p = 1.0 + 0.4 * np.sin(3.0 * t / tau)
    profile = DrivingProfile.sampled(t, omega_p, normalization="rescale")
    coeffs = coefficients(UNIT, profile, tau)
    d = required_truncation(8, abs(coeffs.eta_up))
    closed = build_evolution_closed(UNIT, profile, tau, +1, d)
    k = trusted_columns(d, abs(coeffs.eta_up))
    errs = []
    for steps in (200, 400):
        stepped = build_evolution_stepped(UNIT, profile, tau, +1, d, steps=steps)
        errs.append(np.max(np.abs((closed - stepped)[:, :k])))
    order = math.log2(errs[0] / errs[1])
    assert order == pytest.approx(2.0, abs=0.3)


@pytest.mark.parametrize("spin", [+1, -1])
def test_sampled_closed_vs_stepped_at_zero_rotation(spin):
    # At Omega = 0 the closed evolution takes the down branch's eta and Phi
    # from the up branch's pass; the stepped product reads no coefficients,
    # so it witnesses both spins on its own.  The drive shape and the
    # tolerance 0.1 (tau/steps)^2 are the stepped-evolution benchmark's.
    tau, steps = 0.6 * T0, 300
    t = np.linspace(0.0, tau, 20001)
    omega_p = 1.0 + 0.3 * np.sin(2.0 * t / tau)
    profile = DrivingProfile.sampled(t, omega_p, normalization="rescale")
    eta = abs(coefficients(UNIT, profile, tau).eta(spin))
    d = required_truncation(8, eta)
    closed = build_evolution_closed(UNIT, profile, tau, spin, d)
    stepped = build_evolution_stepped(UNIT, profile, tau, spin, d, steps)
    k = trusted_columns(d, eta)
    assert np.max(np.abs((closed - stepped)[:, :k])) <= 0.1 * (tau / steps) ** 2


def _smooth_sampled(tau: float, samples: int = 20001) -> DrivingProfile:
    t = np.linspace(0.0, tau, samples)
    return DrivingProfile.sampled(
        t, 1.0 + 0.3 * np.sin(2.0 * t / tau), normalization="rescale"
    )


def _rough_sampled(tau: float) -> DrivingProfile:
    # Random samples whose drive spans several blocks of STEP_NODES nodes.
    rng = np.random.default_rng(3)
    t = np.linspace(0.0, tau, 101)
    return DrivingProfile.sampled(t, rng.uniform(-2.0, 4.0, t.size), normalization="rescale")


def _flat_sampled(tau: float) -> DrivingProfile:
    # A constant shape on a sampled grid: every step has the same drive.
    t = np.linspace(0.0, tau, 301)
    return DrivingProfile.sampled(t, np.ones_like(t), normalization="rescale")


SAMPLED_DRIVES = {
    # id: (profile builder, d, steps)
    "12": (_smooth_sampled, 12, 100),
    "20": (_smooth_sampled, 20, 100),
    "smooth-40": (_smooth_sampled, 40, 400),
    "rough-80": (_rough_sampled, 80, 100),
    "flat-40": (_flat_sampled, 40, 200),
}
STEPPED_PARAMS = PhysicalParams(trap_frequency=1.3, rotation_rate=0.2)
STEPPED_TAU = 0.6 * T0 / STEPPED_PARAMS.trap_frequency


def _sampled_drive(case: str):
    make, d, steps = SAMPLED_DRIVES[case]
    return make(STEPPED_TAU), d, steps


def _step_drive(profile: DrivingProfile, spin: int, steps: int) -> np.ndarray:
    dt = STEPPED_TAU / steps
    t_mid = (np.arange(steps) + 0.5) * dt
    return drive_amplitude(STEPPED_PARAMS, profile.omega_p_at(t_mid), spin)


@pytest.mark.parametrize("case", list(SAMPLED_DRIVES))
@pytest.mark.parametrize("spin", [+1, -1])
def test_sampled_stepped_matches_per_step_expm(case, spin):
    # Reference: the midpoint product built from one dense expm per step in
    # the Fock basis, with no gauge, no eigensolve and no interpolation.
    profile, d, steps = _sampled_drive(case)
    dt = STEPPED_TAU / steps
    a = ladder(d)
    nop = a.conj().T @ a
    kop = 1j * (a - a.conj().T)
    want = np.eye(d, dtype=complex)
    for f_val in _step_drive(profile, spin, steps):
        hamiltonian = STEPPED_PARAMS.trap_frequency * nop + f_val * kop
        want = scipy.linalg.expm(-1j * hamiltonian * dt) @ want
    got = build_evolution_stepped(STEPPED_PARAMS, profile, STEPPED_TAU, spin, d, steps)
    assert np.max(np.abs(got - want)) < 1e-12


def test_numpy_eigh_has_the_bits_of_scipy_eigh_tridiagonal():
    # The step factors keep the bits they had on scipy's tridiagonal
    # eigensolver: numpy's dense eigh returns the same eigenpairs, and with
    # the eigenvectors in scipy's Fortran order `expm` rounds the same.
    rng = np.random.default_rng(18)
    for _ in range(75):
        d = int(rng.integers(20, 114))
        diag = rng.uniform(0.5, 2.0) * np.arange(d, dtype=float)
        off = -rng.uniform(-3.0, 3.0) * np.sqrt(np.arange(1.0, d))
        lam, vec = oracle._tridiagonal_eigh(diag, off)
        want_lam, want_vec = scipy.linalg.eigh_tridiagonal(diag, off)
        assert lam.tobytes() == want_lam.tobytes()
        assert vec.tobytes(order="A") == want_vec.tobytes(order="A")
        assert vec.flags.f_contiguous and want_vec.flags.f_contiguous
        dt = rng.uniform(1e-3, 5e-2)
        assert oracle.expm(lam, vec, dt).tobytes() == oracle.expm(want_lam, want_vec, dt).tobytes()


def _count_step_work(monkeypatch) -> dict:
    counts = {"eigensolves": 0, "block_nodes": [], "kernel_nodes": []}
    real_eigh, real_nodes, real_blocks = (
        oracle._tridiagonal_eigh, oracle._step_nodes, oracle._step_blocks
    )

    def eigh(*args, **kwargs):
        counts["eigensolves"] += 1
        return real_eigh(*args, **kwargs)

    def nodes(*args, **kwargs):
        out = real_nodes(*args, **kwargs)
        counts["block_nodes"].append(out[0].size)
        return out

    def blocks(diag, off, f_vals, dt):
        counts["kernel_nodes"].append(f_vals.size)
        return real_blocks(diag, off, f_vals, dt)

    monkeypatch.setattr(oracle, "_tridiagonal_eigh", eigh)
    monkeypatch.setattr(oracle, "_step_nodes", nodes)
    monkeypatch.setattr(oracle, "_step_blocks", blocks)
    return counts


@pytest.mark.parametrize(
    "case, blocks, nodes",
    [("smooth-40", 1, STEP_NODES), ("rough-80", 3, 100), ("flat-40", 1, 1)],
    ids=["smooth", "rough", "flat"],
)
def test_sampled_stepped_eigensolve_count(monkeypatch, case, blocks, nodes):
    # Each block holds at most STEP_NODES node factors, all from one call of
    # the Taylor kernel and none from an eigensolve; the smooth drive fits
    # one block, the rough one needs at least `blocks`, and a drive of zero
    # width needs exactly one node (at most one, and every block has one).
    profile, d, steps = _sampled_drive(case)
    counts = _count_step_work(monkeypatch)
    build_evolution_stepped(STEPPED_PARAMS, profile, STEPPED_TAU, +1, d, steps)
    assert len(counts["block_nodes"]) >= blocks
    assert max(counts["block_nodes"]) <= STEP_NODES
    assert counts["kernel_nodes"] == counts["block_nodes"]
    assert sum(counts["block_nodes"]) <= min(nodes, steps)
    assert counts["eigensolves"] == 0


@pytest.mark.parametrize("reach, n_nodes", [(1.0, STEP_NODES), (0.5, 11), (0.05, 7)])
def test_step_interpolation_meets_its_bound(reach, n_nodes):
    # A block as wide as `reach` times the widest one STEP_NODES nodes cover,
    # at d = 80 and 100 steps: with the node count the bound chose, the
    # barycentric combination of the Taylor kernel's node factors at 50
    # random drives inside it matches an exact eigensolve factor.
    d, steps = 80, 100
    dt = STEPPED_TAU / steps
    scale = dt * 2.0 * math.sqrt(d - 1) / 4.0
    width = reach * oracle._STEP_REACH[-1] / scale
    block = 0.7 + np.linspace(0.0, width, 200)
    nodes, weights = oracle._step_nodes(block, scale)
    assert nodes.size == n_nodes
    diag = STEPPED_PARAMS.trap_frequency * np.arange(d, dtype=float)
    off = -np.sqrt(np.arange(1.0, d))
    blocks = oracle._step_blocks(diag, off, nodes, dt)
    factors = blocks[:, :d, :d] + 1j * blocks[:, d:, :d]
    f_vals = np.random.default_rng(5).uniform(block[0], block[-1], 50)
    rows = oracle._barycentric_rows(nodes, weights, f_vals)
    for f_val, row in zip(f_vals, rows):
        got = np.tensordot(row, factors, axes=1)
        want = oracle._step_factor(diag, off, f_val, dt)
        assert np.max(np.abs(got - want)) <= 1e-14


@pytest.mark.parametrize("d", [2, 3, 12, 36, 80, 200])
@pytest.mark.parametrize("theta", [0.6, 1.6, 5.0])
def test_step_blocks_match_eigensolve_factors(d, theta):
    # The Taylor kernel's blocks [[C, S], [-S, C]] against one eigensolve and
    # one expm per drive, with dt chosen so that the largest infinity norm
    # of dt J(f) is theta, which takes 0, 1 or 3 squarings: within 1e-14
    # absolute, and orthogonal, so that C - iS is unitary, within 1e-14.
    f_vals = np.array([-1.3, -0.0, 0.0, 0.45, 2.0])
    diag = STEPPED_PARAMS.trap_frequency * np.arange(d, dtype=float)
    off = -np.sqrt(np.arange(1.0, d))
    band = np.abs(np.r_[0.0, off]) + np.abs(np.r_[off, 0.0])
    dt = theta / np.max(np.abs(diag) + np.max(np.abs(f_vals)) * band)
    blocks = oracle._step_blocks(diag, off, f_vals, dt)
    assert blocks.shape == (f_vals.size, 2 * d, 2 * d)
    for block, f_val in zip(blocks, f_vals):
        cos, sin = block[:d, :d], block[:d, d:]
        assert np.array_equal(block[d:, d:], cos) and np.array_equal(block[d:, :d], -sin)
        want = oracle._step_factor(diag, off, f_val, dt)
        assert np.max(np.abs(cos - 1j * sin - want)) <= 1e-14
        assert np.max(np.abs(block.T @ block - np.eye(2 * d))) <= 1e-14
    assert np.array_equal(blocks[1], blocks[2])  # -0.0 and 0.0


@pytest.mark.parametrize(
    "f_block",
    [
        [0.3, -0.1, 0.3, 0.2, -0.1],
        [0.0, -0.0, 0.5, -0.0, 0.0],
        [-0.0, 0.0, 0.5],
        [1.25] * 7,
        [0.7],
    ],
)
def test_own_drive_nodes_are_the_distinct_drive_values(f_block):
    # A block with few distinct drives takes them as its nodes: np.unique's
    # values, order and bits (signed zeros included).
    f_block = np.array(f_block)
    nodes, weights = oracle._step_nodes(f_block, 1.0)
    assert nodes.tobytes() == np.unique(f_block).tobytes()
    assert weights.tobytes() == np.ones(nodes.size).tobytes()


def test_step_interpolation_reuses_node_factors():
    # A drive equal to a node takes that node's factor unchanged.
    nodes = np.array([0.2, 0.5, 0.9])
    rows = oracle._barycentric_rows(nodes, np.array([1.0, -1.0, 1.0]), nodes[::-1])
    assert np.array_equal(rows, np.eye(3)[::-1])


BLOCK_D, BLOCK_DT = 30, 0.01
BLOCK_DIAG = STEPPED_PARAMS.trap_frequency * np.arange(BLOCK_D, dtype=float)
BLOCK_OFF = -np.sqrt(np.arange(1.0, BLOCK_D))
BLOCK_SCALE = BLOCK_DT * 2.0 * math.sqrt(BLOCK_D - 1) / 4.0


def _block_start():
    """A unitary to start the block from, not the identity."""
    rng = np.random.default_rng(20)
    shape = (BLOCK_D, BLOCK_D)
    q, _ = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    return q


def _node_blocks(nodes):
    return oracle._step_blocks(BLOCK_DIAG, BLOCK_OFF, nodes, BLOCK_DT)


def _product_one_row_at_a_time(u, f_block):
    """The block product with one barycentric combination per step, each a
    row-times-matrix product of complex factors: the stepper's rule before
    steps were chunked, on the node kernel's factors."""
    nodes, weights = oracle._step_nodes(f_block, BLOCK_SCALE)
    blocks = _node_blocks(nodes)
    factors = blocks[:, :BLOCK_D, :BLOCK_D] + 1j * blocks[:, BLOCK_D:, :BLOCK_D]
    flat = factors.view(float).reshape(nodes.size, -1)
    for row in oracle._barycentric_rows(nodes, weights, f_block):
        u = (row @ flat).view(complex).reshape(BLOCK_D, BLOCK_D) @ u
    return u


def _block_product(u, f_block):
    kept = u.copy()
    got = oracle._product_over_block(u, f_block, BLOCK_DIAG, BLOCK_OFF, BLOCK_DT, BLOCK_SCALE)
    assert np.array_equal(u, kept)  # the caller's u is never written
    return got


@pytest.mark.parametrize(
    "steps",
    [1, oracle.STEP_CHUNK - 1, oracle.STEP_CHUNK, oracle.STEP_CHUNK + 1, 2 * oracle.STEP_CHUNK + 1],
)
def test_chunked_block_matches_one_row_at_a_time(steps):
    f_block = 0.7 + 0.2 * np.sin(np.linspace(0.0, 3.0, steps))
    u = _block_start()
    if steps > 1:  # interpolated, not one factor per distinct drive
        assert oracle._step_nodes(f_block, BLOCK_SCALE)[0].size < steps
    got = _block_product(u, f_block)
    want = _product_one_row_at_a_time(u, f_block)
    assert np.max(np.abs(got - want)) <= 1e-13


def test_block_of_node_drives_is_the_product_of_node_factors():
    # Three distinct drives are their own nodes, so every row is one-hot and
    # every step applies a node factor's real block [[A, -B], [B, A]] to the
    # stack [Re u; Im u] exactly, across chunk boundaries.
    f_block = np.array([0.6, 0.9, 0.75])[np.arange(2 * oracle.STEP_CHUNK + 1) % 3]
    nodes = oracle._step_nodes(f_block, BLOCK_SCALE)[0]
    assert nodes.tobytes() == np.array([0.6, 0.75, 0.9]).tobytes()
    blocks = _node_blocks(nodes)
    u = _block_start()
    stack = np.concatenate((u.real, u.imag))
    for f_val in f_block:
        stack = blocks[np.flatnonzero(nodes == f_val)[0]] @ stack
    want = stack[:BLOCK_D] + 1j * stack[BLOCK_D:]
    assert np.array_equal(_block_product(u, f_block), want)


@pytest.mark.parametrize(
    "profile, steps",
    [
        (_smooth_sampled(3.0, samples=301), 300.5),
        (_smooth_sampled(3.0, samples=301), 299.9999),
        (DrivingProfile.piecewise([(1.0, 2.0), (2.0, 1.0)], normalization="rescale"), 150.7),
    ],
    ids=["sampled-half", "sampled-near", "piecewise"],
)
def test_stepped_rejects_non_integral_steps(profile, steps):
    with pytest.raises(TypeError):
        build_evolution_stepped(UNIT, profile, 3.0, +1, 20, steps=steps)
    whole = build_evolution_stepped(UNIT, profile, 3.0, +1, 20, steps=150)
    numpy_int = build_evolution_stepped(UNIT, profile, 3.0, +1, 20, steps=np.int64(150))
    assert np.array_equal(whole, numpy_int)


@pytest.mark.parametrize("d", [-3, 0, 1])
@pytest.mark.parametrize(
    "profile",
    [
        _smooth_sampled(3.0, samples=301),
        DrivingProfile.piecewise([(1.0, 2.0), (2.0, 1.0)], normalization="rescale"),
    ],
    ids=["sampled", "piecewise"],
)
def test_stepped_rejects_truncation_below_two(profile, d):
    with pytest.raises(ValueError, match="d must be at least 2"):
        build_evolution_stepped(UNIT, profile, 3.0, +1, d, steps=150)


def test_sampled_stepped_rejects_non_finite_drive():
    # A finite profile whose drive amplitude overflows.
    params = PhysicalParams(mass=1e300, ring_radius=1e300)
    with pytest.raises(ValueError, match="finite"):
        build_evolution_stepped(params, _smooth_sampled(3.0, samples=301), 3.0, +1, 20, steps=200)


def test_sampled_stepped_rejects_a_step_beyond_the_node_kernel():
    # A finite drive so strong that one step's ||dt J(f)|| exceeds
    # 2^33: the node kernel's squarings would lose every digit, and far
    # beyond it overflow to NaN, so the call refuses it.
    params = PhysicalParams(mass=1e290)
    profile = _smooth_sampled(3.0, samples=301)
    t_mid = (np.arange(200) + 0.5) * 3.0 / 200
    assert np.all(np.isfinite(drive_amplitude(params, profile.omega_p_at(t_mid), +1)))
    with pytest.raises(ValueError, match="take more steps"):
        build_evolution_stepped(params, profile, 3.0, +1, 20, steps=200)


def _count_kernel_calls(monkeypatch) -> dict:
    counts = {"expm": 0, "matrix_power": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(oracle, "expm", counted("expm", oracle.expm))
    monkeypatch.setattr(
        np.linalg, "matrix_power", counted("matrix_power", np.linalg.matrix_power)
    )
    return counts


def test_stepped_kernel_calls_by_profile_kind(monkeypatch):
    # Sampled nodes come from the Taylor kernel, with no eigensolve and no
    # expm; each piecewise segment's factor is one expm on one eigensolve,
    # raised to its step count by one matrix_power.
    tau = 0.5 * T0
    sampled = _smooth_sampled(tau)
    piecewise = DrivingProfile.piecewise(
        [(0.3 * tau, 2.0), (0.7 * tau, 1.0)], normalization="rescale"
    )
    counts = _count_kernel_calls(monkeypatch)
    work = _count_step_work(monkeypatch)
    build_evolution_stepped(UNIT, sampled, tau, +1, 20, steps=150)
    assert sum(work["kernel_nodes"]) == sum(work["block_nodes"]) >= 1
    assert work["eigensolves"] == 0
    assert counts == {"expm": 0, "matrix_power": 0}
    build_evolution_stepped(UNIT, piecewise, tau, +1, 20, steps=150)
    assert work["eigensolves"] == 2
    assert counts == {"expm": 2, "matrix_power": 2}


@pytest.mark.parametrize(
    "profile",
    [
        _smooth_sampled(3.0, samples=301),
        DrivingProfile.piecewise([(1.0, 2.0), (2.0, 1.0)], normalization="rescale"),
    ],
    ids=["sampled", "piecewise"],
)
def test_stepped_rejects_tau_beyond_profile_duration(profile):
    assert profile.duration == pytest.approx(3.0)
    with pytest.raises(ProfileError, match="does not match requested tau"):
        build_evolution_stepped(UNIT, profile, 6.0, +1, 20, steps=200)


def test_sampled_coefficients_match_nonuniform_simpson_reference():
    # The uniform-step (dx) quadrature must reproduce Simpson on the explicit
    # sample times (x=times), the general rule for any grid.
    params = PhysicalParams(trap_frequency=1.3, rotation_rate=0.2, ring_radius=1.5)
    tau = 0.7 * T0
    profile = _smooth_sampled(tau)
    t = profile.times
    w = params.trap_frequency
    got = coefficients(params, profile, tau)

    c2 = 0.5 * (1.0 - simpson(profile.values * np.cos(w * (t - tau)), x=t) / math.pi)
    assert got.c2 == pytest.approx(c2, rel=1e-13)
    for spin in (+1, -1):
        fv = drive_amplitude(params, profile.values, spin)
        eta = -simpson(fv * np.exp(1j * w * t), x=t)
        fc = cumulative_simpson(fv * np.cos(w * t), x=t, initial=0.0)
        fs = cumulative_simpson(fv * np.sin(w * t), x=t, initial=0.0)
        phi = simpson(fv * (np.sin(w * t) * fc - np.cos(w * t) * fs), x=t)
        assert abs(got.eta(spin) - eta) <= 1e-13 * abs(eta)
        assert got.phi(spin) == pytest.approx(phi, rel=1e-13)


def test_generator_numeric_matches_analytic():
    tau = 0.5 * T0
    profile = DrivingProfile.constant_for(tau)
    params = PhysicalParams(rotation_rate=0.3)
    constants = derive_constants(params)
    coeffs = coefficients(params, profile, tau)
    for spin in (+1, -1):
        d = required_truncation(12, abs(coeffs.eta(spin)))
        h_num = generator_numeric(params, profile, tau, spin, d)
        h_ana = generator_analytic(constants, coeffs, spin, d)
        k = trusted_columns(d, abs(coeffs.eta(spin)))
        assert np.max(np.abs((h_num - h_ana)[:k, :k])) < 1e-8
        np.testing.assert_allclose(h_num[:k, :k], h_num[:k, :k].conj().T, atol=1e-9)


def test_generator_has_displacement_and_spin_parts():
    # At omega tau = pi the analytic generator is
    # T_C (C1 a^dag + C1* a) + (C0/omega) I + spin * T_S C2 I.
    constants = derive_constants(UNIT)
    coeffs = coefficients(UNIT, DrivingProfile.constant_for(math.pi), math.pi)
    d = 6
    h = generator_analytic(constants, coeffs, +1, d)
    a = np.diag(np.sqrt(np.arange(1, d)), 1)
    expected = (
        constants.t_c * (coeffs.c1 * a.conj().T + np.conj(coeffs.c1) * a)
        + (coeffs.c0 / constants.trap_frequency) * np.eye(d)
        + constants.t_s * coeffs.c2 * np.eye(d)
    )
    np.testing.assert_allclose(h, expected, atol=1e-12)


def test_variance_oracle_single_atom_half_period():
    tau = math.pi
    profile = DrivingProfile.constant_for(tau)
    state = make_partially_entangled(0.0, 0)
    got = qfi_variance_numeric(state, UNIT, profile, tau)
    assert got == pytest.approx(8.0 + 4.0 * math.pi**2, rel=1e-9)


def test_variance_oracle_two_atoms():
    tau = 0.5 * T0
    profile = DrivingProfile.constant_for(tau)
    constants = derive_constants(UNIT)
    coeffs = coefficients(UNIT, profile, tau)
    state = make_globally_entangled(-1.0, n_particles=2)
    got = qfi_variance_numeric(state, UNIT, profile, tau)
    want = qfi_global_closed(-1.0, 2, constants, coeffs)
    assert got == pytest.approx(want, rel=1e-8)


def test_fidelity_oracle_tracks_variance():
    tau = 0.25 * T0
    profile = DrivingProfile.constant_for(tau)
    state = make_partially_entangled(0.5 - 0.3j, 1)
    f_var = qfi_variance_numeric(state, UNIT, profile, tau)
    f_fid = qfi_fidelity_numeric(state, UNIT, profile, tau)
    assert f_fid == pytest.approx(f_var, rel=1e-5)


def test_fidelity_oracle_respects_rotation_offset():
    tau = 0.5 * T0
    profile = DrivingProfile.constant_for(tau)
    params = PhysicalParams(rotation_rate=0.3)
    constants = derive_constants(params)
    coeffs = coefficients(params, profile, tau)
    state = make_globally_entangled(-1.0)
    got = qfi_fidelity_numeric(state, params, profile, tau)
    want = qfi_global_closed(-1.0, 1, constants, coeffs)
    assert got == pytest.approx(want, rel=1e-5)


def _fidelity_errors() -> list[float]:
    """Relative error of the fidelity route against the closed forms on 16
    fixed draws like the benchmark's: N = 1, 2, both families, |alpha| in
    [0.1, 2], tau in [0.2, 1.2] T0, rotation rates up to 0.5."""
    rng = np.random.default_rng(2024)
    errors = []
    for i in range(16):
        n_particles, partial = 1 + i % 2, (i // 2) % 2 == 0
        tau = rng.uniform(0.2, 1.2) * T0
        alpha = rng.uniform(0.1, 2.0) * np.exp(1j * rng.uniform(0.0, T0))
        n = int(rng.integers(3))
        params = PhysicalParams(rotation_rate=rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 0.5))
        profile = DrivingProfile.constant_for(tau)
        constants, coeffs = derive_constants(params), coefficients(params, profile, tau)
        if partial:
            state = make_partially_entangled(alpha, n, n_particles=n_particles)
            closed = qfi_partial_closed(n, n_particles, constants, coeffs)
        else:
            state = make_globally_entangled(alpha, n_particles=n_particles)
            closed = qfi_global_closed(alpha, n_particles, constants, coeffs)
        got = qfi_fidelity_numeric(state, params, profile, tau)
        errors.append(abs(got - closed) / abs(closed))
    return errors


def test_fidelity_route_error_stays_at_or_below_the_scipy_expm_route():
    # Median and maximum of the same 16 draws with the Pade expm
    # displacement and the unnormalized overlap: 4.435e-08 and 1.822e-07.
    # The spectral displacement alone, unnormalized, gives 1.47e-07 and
    # 5.4e-07; dividing the overlap by both norms brings them to 2.2e-08 and
    # 1.1e-07.
    errors = _fidelity_errors()
    assert np.median(errors) <= 4.435e-08
    assert max(errors) <= 1.822e-07


def test_size_guard_trips():
    # (2d)^N = 80^4 amplitudes: the dense path, which the covariance identity
    # and the factored-vs-dense cross-check assemble through, refuses the
    # state before allocating it.
    state = make_partially_entangled(1.0, 0, d=40, n_particles=4)
    with pytest.raises(SizeGuardError, match="size guard"):
        assemble_state(state)
    with pytest.raises(SizeGuardError, match="size guard"):
        covariance_reduction_check(state, np.eye(80), np.eye(80))


@pytest.mark.parametrize("n_particles", [4, 1000])
def test_qfi_oracles_run_beyond_the_dense_size_guard(n_particles):
    # Neither oracle builds an N-site vector, so they run at N = 4, where the
    # (2d)^N vector would pass SIZE_GUARD, and at N = 1000.
    tau = 0.7 * T0
    profile = DrivingProfile.constant_for(tau)
    params = PhysicalParams(rotation_rate=0.3)
    constants, coeffs = derive_constants(params), coefficients(params, profile, tau)
    for state, closed in (
        (make_partially_entangled(0.5 - 0.3j, 1, n_particles=n_particles),
         qfi_partial_closed(1, n_particles, constants, coeffs)),
        (make_globally_entangled(-1.0 + 0.4j, n_particles=n_particles),
         qfi_global_closed(-1.0 + 0.4j, n_particles, constants, coeffs)),
    ):
        assert (2 * oracle._oracle_truncation(state, coeffs)) ** n_particles > oracle.SIZE_GUARD
        for route in (qfi_variance_numeric, qfi_fidelity_numeric):
            got = route(state, params, profile, tau)
            assert abs(got - closed) <= 1e-5 * closed, (route.__name__, got, closed)


@pytest.mark.parametrize(
    "build",
    [
        lambda d: build_displacement(0.5, d),
        lambda d: build_evolution_closed(UNIT, DrivingProfile.constant_for(3.0), 3.0, +1, d),
        lambda d: build_evolution_stepped(
            UNIT, DrivingProfile.constant_for(3.0), 3.0, +1, d, steps=200
        ),
    ],
    ids=["displacement", "closed", "stepped"],
)
def test_dense_guard_trips_before_allocating(build):
    # (2d)^N allows d = 10^5 at N = 1; one dense d x d matrix there is 160 GB.
    with pytest.raises(SizeGuardError, match="dense guard"):
        build(10**5)


def test_identity_suite_catches_c0_mutant(monkeypatch):
    # C0 with cos for sin vanishes with the Sagnac phase at Omega = 0, so only
    # the generator identity at a nonzero rotation rate can see it.
    real = oracle.coefficients

    def mutant(params, profile, tau):
        coeffs = real(params, profile, tau)
        wt = params.trap_frequency * tau
        phase = derive_constants(params).sagnac_phase
        return dataclasses.replace(coeffs, c0=phase / (2.0 * math.pi) * (wt - math.cos(wt)))

    monkeypatch.setattr(oracle, "coefficients", mutant)
    report = oracle.identity_suite(UNIT, n_max=1)
    failed = [item["name"] for item in report["identities"] if not item["passed"]]
    assert failed == ["generator-numeric-vs-analytic"]


def test_identity_suite_covariance_uses_half_period_c1(monkeypatch):
    # At C1 ~ 0 both sides of the covariance reduction vanish and the check
    # passes for any state; the suite must build the quadrature at T0/2.
    seen = []
    real = oracle.quadrature_site_operator

    def recording(c1, d):
        seen.append(c1)
        return real(c1, d)

    monkeypatch.setattr(oracle, "quadrature_site_operator", recording)
    oracle.identity_suite(PhysicalParams(rotation_rate=0.3), n_max=1)
    assert seen == [pytest.approx(-1.0, abs=1e-12)]


def test_assemble_state_two_atoms():
    state = make_partially_entangled(0.0, 0, d=2, n_particles=2)
    psi = assemble_state(state)
    # (|up,0>^2 + |down,0>^2)/sqrt(2) in the (spin x mode)^2 ordering with
    # up = indices [0, d) and down = [d, 2d).
    expected = np.zeros(16, dtype=complex)
    expected[0] = 1.0 / math.sqrt(2.0)  # up0 up0
    expected[2 * 4 + 2] = 1.0 / math.sqrt(2.0)  # down0 down0
    np.testing.assert_allclose(psi, expected, atol=1e-14)


def test_assembled_state_is_normalized():
    for n_particles in (1, 2, 3):
        state = make_globally_entangled(0.7, n_particles=n_particles)
        psi = assemble_state(state)
        assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-12)


def _assemble_whole(state, d):
    """Reference: each branch as a (2d)-site vector, raised to N sites by
    whole-vector outer products, and the two branches summed over sqrt(2)."""
    branches = []
    for branch, offset in ((state.branch_up, 0), (state.branch_down, d)):
        site = np.zeros(2 * d, dtype=complex)
        site[offset : offset + state.truncation] = branch
        psi = site
        for _ in range(state.n_particles - 1):
            psi = np.multiply.outer(psi, site).ravel()
        branches.append(psi)
    return (branches[0] + branches[1]) / math.sqrt(2.0)


def _product_branches(alpha, n_particles):
    """Two unrelated product branches: D(alpha)|1> up and D(-alpha/2)|2> down."""
    up = make_partially_entangled(alpha, 1).branch_up
    down = make_partially_entangled(-alpha / 2.0, 2, d=up.size).branch_up
    return GhzProductState(up, down, n_particles)


def _zero_padded(state, d):
    """state with each branch array zero-padded to d levels; a shared array
    stays shared."""
    up, down = (np.pad(b, (0, d - state.truncation)) for b in (state.branch_up, state.branch_down))
    return GhzProductState(up, up if state.branch_down is state.branch_up else down,
                           state.n_particles)


@pytest.mark.parametrize("n_particles", [1, 2, 3])
@pytest.mark.parametrize("family", ["partial", "global", "product"])
def test_assemble_state_has_the_bits_of_the_whole_vector_construction(family, n_particles):
    build = {
        "partial": lambda a, n: make_partially_entangled(a, 2, n_particles=n),
        "global": lambda a, n: make_globally_entangled(a, n_particles=n),
        "product": _product_branches,
    }[family]
    for alpha in (0.3 + 0.1j, -0.9 + 0.6j, 1.4j):
        state = build(alpha, n_particles)
        t = state.truncation
        for d in (t, t + 1, t + 7):
            if (2 * d) ** n_particles > oracle.SIZE_GUARD:
                continue
            got = assemble_state(_zero_padded(state, d))
            assert _values(got) == _values(_assemble_whole(state, d)), (alpha, d)


def test_covariance_reduction_random_draws():
    rng = np.random.default_rng(5)
    d = 5

    def random_branch():
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        return v / np.linalg.norm(v)

    for n_particles in (2, 3):
        state = GhzProductState(random_branch(), random_branch(), n_particles)
        for _ in range(3):
            m1 = rng.normal(size=(2 * d, 2 * d)) + 1j * rng.normal(size=(2 * d, 2 * d))
            m2 = rng.normal(size=(2 * d, 2 * d)) + 1j * rng.normal(size=(2 * d, 2 * d))
            op_a = 0.5 * (m1 + m1.conj().T)
            op_b = 0.5 * (m2 + m2.conj().T)
            assert covariance_reduction_check(state, op_a, op_b) <= 1e-10


def _tensordot_site(op, psi, site, n_sites):
    """Reference: a dense single-site matrix contracted into the site axis."""
    tensor = psi.reshape((op.shape[0],) * n_sites)
    return np.moveaxis(np.tensordot(op, tensor, axes=([1], [site])), 0, site).reshape(-1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    sizes=st.integers(1, 3).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(2, (60, 40, 10)[n - 1]))
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_apply_site_blocks_match_the_dense_contraction(sizes, seed):
    n_sites, d = sizes
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    psi = draw((2 * d) ** n_sites)
    dense = draw(2 * d, 2 * d)
    blocks = draw(2, d, d)
    padded = np.zeros((2 * d, 2 * d), dtype=complex)
    padded[:d, :d], padded[d:, d:] = blocks
    for site in range(n_sites):
        # A dense matrix is the one-block stack, with the bits of np.tensordot.
        got = oracle.apply_site(dense[None], psi, site, n_sites)
        assert got.tobytes() == _tensordot_site(dense, psi, site, n_sites).tobytes()
        # A spin-block stack acts as its zero-padded 2d x 2d matrix.
        got = oracle.apply_site(blocks, psi, site, n_sites)
        want = _tensordot_site(padded, psi, site, n_sites)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # apply_collective accumulates in place, with the values of the sum of
    # every site's image.
    for op in (blocks, dense[None]):
        got = oracle.apply_collective(op, psi, n_sites)
        want = sum(oracle.apply_site(op, psi, site, n_sites) for site in range(n_sites))
        assert _values(got) == _values(want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n_sites=st.integers(1, 3), d=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_factored_formulas_match_the_dense_vector(n_sites, d, seed):
    # Random branch amplitudes, a random Hermitian spin-block generator h and
    # the block-diagonal evolution c exp(-i t h), with per-spin contractions
    # c so that the norm formula sees two branches of different norm: the
    # branch-factored variance, overlap and norm equal those of the explicit
    # (2d)^N vector.
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    up, down = draw(d), draw(d)
    state = GhzProductState(up / np.linalg.norm(up), down / np.linalg.norm(down), n_sites)
    psi = assemble_state(state)
    h = draw(2, d, d)
    h = (h + h.conj().transpose(0, 2, 1)) / 2.0
    dense = oracle.variance_qfi(h, psi, n_sites)
    assert abs(oracle._factored_variance(h, state) - dense) <= 1e-12 * dense

    # Eigenphases within 0.3 of zero keep every branch overlap's real part
    # positive, so the overlap cannot cancel between the branches.
    lam, vec = np.linalg.eigh(h)
    t = rng.uniform(0.0, 0.3) / np.max(np.abs(lam))
    u = (vec * np.exp(-1j * t * lam)[:, None, :]) @ vec.conj().transpose(0, 2, 1)
    u *= rng.uniform(0.7, 1.0, size=(2, 1, 1))
    evolved = psi
    for site in range(n_sites):
        evolved = oracle.apply_site(u, evolved, site, n_sites)
    phi = oracle._padded_branches(state, d)
    u_phi = np.einsum("sij,sj->si", u, phi)
    want = np.vdot(psi, evolved)
    assert abs(oracle._branch_overlap(phi, u_phi, n_sites) - want) <= 1e-12 * abs(want)
    want = np.linalg.norm(evolved)
    assert abs(oracle._branch_norm(u_phi, n_sites) - want) <= 1e-12 * want


def test_qfi_oracles_never_pad_a_site_matrix(monkeypatch):
    def padded(*_):
        raise AssertionError("a QFI oracle built a 2d x 2d site matrix")

    monkeypatch.setattr(oracle, "_spin_block_diag", padded)
    tau = 0.4 * T0
    profile = DrivingProfile.constant_for(tau)
    for n_particles in (1, 2):
        state = make_globally_entangled(0.6 - 0.2j, n_particles=n_particles)
        qfi_variance_numeric(state, UNIT, profile, tau)
        qfi_fidelity_numeric(state, UNIT, profile, tau)


def _values(v):
    """The bytes of v with each zero's sign made +, so that comparing them
    compares values bit for bit; no nonzero element changes."""
    return (v + 0.0).tobytes()


def _record_builds(monkeypatch):
    """Record (builder, result shape) of every evolution and displacement
    built through the oracle module's bindings."""
    calls = []

    def recording(name, build):
        def wrapper(*args, **kwargs):
            out = build(*args, **kwargs)
            calls.append((name, out.shape))
            return out

        return wrapper

    for name in ("build_evolution_closed", "build_displacement"):
        monkeypatch.setattr(oracle, name, recording(name, getattr(oracle, name)))
    return calls


def test_generator_and_identity_suite_build_all_columns(monkeypatch):
    calls = _record_builds(monkeypatch)
    tau = 0.6 * T0
    generator_numeric(UNIT, DrivingProfile.constant_for(tau), tau, +1, 40)
    assert calls == [
        (name, (40, 40))
        for _ in range(5)
        for name in ("build_displacement", "build_evolution_closed")
    ]
    # Every fidelity evolution is built whole through build_evolution_closed,
    # at least psi(Omega), psi(Omega + delta) and psi(Omega + delta/2) for
    # both spins, at every N.
    params = PhysicalParams(rotation_rate=0.2)
    for n_particles in (1, 2):
        calls.clear()
        state = make_partially_entangled(0.8 - 0.4j, 1, n_particles=n_particles)
        qfi_fidelity_numeric(state, params, DrivingProfile.constant_for(tau), tau)
        evolutions = [c for c in calls if c[0] == "build_evolution_closed"]
        assert len(evolutions) >= 6
        d = evolutions[0][1][0]
        assert evolutions == [("build_evolution_closed", (d, d))] * len(evolutions)
        assert [c for c in calls if c[0] == "build_displacement"] == [
            ("build_displacement", (d, d))
        ] * len(evolutions)
    # The suite's own evolutions and generators, with the QFI oracles
    # stubbed out.
    calls.clear()
    monkeypatch.setattr(oracle, "qfi_variance_numeric", lambda *_: 0.0)
    monkeypatch.setattr(oracle, "qfi_fidelity_numeric", lambda *_: 0.0)
    oracle.identity_suite(UNIT, n_max=1)
    assert len(calls) > 20
    assert all(shape[0] == shape[1] for _, shape in calls)


def test_identity_suite_builds_covariance_operators_at_the_state_truncation(monkeypatch):
    # The covariance state keeps its automatic truncation (d = 18 at
    # alpha = 0.4 + 0.2j), and both site operators and the dense
    # cross-check's analytic generator are built at that d.
    checked, built = [], []
    check = oracle.covariance_reduction_check

    def recording_check(state, op_a, op_b):
        checked.append((state.n_particles, state.truncation, op_a.shape, op_b.shape))
        return check(state, op_a, op_b)

    def recording(build):
        def wrapped(*args):
            op = build(*args)
            built.append((build.__name__, args[-1]))
            return op

        return wrapped

    monkeypatch.setattr(oracle, "covariance_reduction_check", recording_check)
    for name in ("quadrature_site_operator", "sigma_z_site_operator", "generator_analytic"):
        monkeypatch.setattr(oracle, name, recording(getattr(oracle, name)))
    monkeypatch.setattr(oracle, "qfi_variance_numeric", lambda *_: 0.0)
    monkeypatch.setattr(oracle, "qfi_fidelity_numeric", lambda *_: 0.0)
    report = oracle.identity_suite(UNIT, n_max=3)
    d = make_partially_entangled(0.4 + 0.2j, 0).truncation
    assert d == 18
    assert [item for item in built if item[0] != "generator_analytic"] == [
        ("quadrature_site_operator", d), ("sigma_z_site_operator", d)
    ]
    assert built[-2:] == [("generator_analytic", d)] * 2
    assert checked == [(n, d, (2 * d, 2 * d), (2 * d, 2 * d)) for n in (1, 2, 3)]
    # Both dense rows report their relative error against 1e-10.
    rows = {item["name"]: item for item in report["identities"]}
    for name in ("covariance-reduction", "qfi-factored-vs-dense"):
        assert rows[name]["tolerance"] == 1e-10
        assert 0.0 <= rows[name]["error"] <= 1e-10 and rows[name]["passed"]


def test_qfi_oracles_peak_memory_does_not_grow_with_n():
    # tracemalloc peak of one call, over the bytes of one complex d x d
    # matrix: 2.16 (fidelity) and 6.08 (variance) at N = 2, and within 2% of
    # that at N = 1000 (176,016 against 173,768 bytes for the fidelity route
    # in one run); no N-site vector is built.
    tau = 0.7 * T0
    profile = DrivingProfile.constant_for(tau)
    params = PhysicalParams(rotation_rate=0.3)
    for route, bound in ((qfi_fidelity_numeric, 2.5), (qfi_variance_numeric, 6.5)):
        peaks = []
        for n_particles in (2, 1000):
            state = make_globally_entangled(1.2 - 0.5j, n_particles=n_particles)
            d = oracle._oracle_truncation(state, coefficients(params, profile, tau))
            route(state, params, profile, tau)  # fills the displacement basis cache
            tracemalloc.start()
            try:
                route(state, params, profile, tau)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
            assert peak <= bound * d * d * np.dtype(complex).itemsize, (route.__name__, peak)
        assert peaks[1] <= 1.05 * peaks[0], (route.__name__, peaks)


def _with_nan_evolution(monkeypatch):
    """Every U(tau) built through the oracle module gets one NaN element."""
    build = oracle.build_evolution_closed

    def broken(*args):
        u = build(*args)
        u[0, 0] = np.nan
        return u

    monkeypatch.setattr(oracle, "build_evolution_closed", broken)


@pytest.mark.parametrize("n_particles", [1, 2])
def test_variance_oracle_rejects_a_non_finite_evolution(monkeypatch, n_particles):
    _with_nan_evolution(monkeypatch)
    tau = 0.4 * T0
    state = make_partially_entangled(0.6 - 0.2j, 1, n_particles=n_particles)
    with pytest.raises(ConsistencyError, match="not Hermitian"):
        qfi_variance_numeric(state, UNIT, DrivingProfile.constant_for(tau), tau)


@pytest.mark.parametrize("n_particles", [1, 2])
def test_fidelity_oracle_rejects_a_non_finite_overlap_deficit(monkeypatch, n_particles):
    _with_nan_evolution(monkeypatch)
    tau = 0.4 * T0
    state = make_partially_entangled(0.6 - 0.2j, 1, n_particles=n_particles)
    with pytest.raises(ConsistencyError, match="overlap deficit nan at delta = .* is not finite"):
        qfi_fidelity_numeric(state, UNIT, DrivingProfile.constant_for(tau), tau)


def test_site_operators_shapes():
    d = 4
    x_op = quadrature_site_operator(-1.0 + 0.0j, d)
    z_op = sigma_z_site_operator(d)
    assert x_op.shape == (2 * d, 2 * d)
    np.testing.assert_allclose(x_op, x_op.conj().T, atol=1e-14)
    np.testing.assert_allclose(z_op, np.diag([1.0] * d + [-1.0] * d), atol=1e-14)
