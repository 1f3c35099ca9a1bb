import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded

from wignerlab import bvp_solver
from wignerlab.bvp_solver import (RESIDUAL_TOL, BoundaryConditions,
                                  SpatialMesh, _apply_system,
                                  _coupling_products, _sweep, _sweep_blocks,
                                  assemble_system, solution_to_csv, solve,
                                  solve_bvp)
from wignerlab.cli import load_config
from wignerlab.errors import ConfigurationError, ResourceError, SolverError
from wignerlab.operators import (VelocityMesh, _parity, _thin_factors,
                                 build_theta_kernel, operator_norm)
from wignerlab.potential import PotentialProfile, barrier_profile
from wignerlab.wigner_potential import QuadratureSpec

from test_operators import full_height_factors

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture
def barrier():
    return barrier_profile()


@pytest.fixture
def quad():
    return QuadratureSpec(l_y=4, dy=0.5)


def gaussian_bc():
    return BoundaryConditions(
        f_left=lambda v: np.exp(-(v - 0.5) ** 2 / 0.25),
        f_right=lambda v: 0.5 * np.exp(-v ** 2 / 0.1))


def inflow_mask(smesh, vmesh):
    """The inflow rows of the grid: v > 0 at x = -l/2, v < 0 at x = +l/2."""
    v = vmesh.nodes
    mask = np.zeros((smesh.n_x + 1, vmesh.n_v), dtype=bool)
    mask[0], mask[-1] = v > 0, v < 0
    return mask


def full_rhs(system):
    """The system's right-hand side on the grid: its inflow data on the
    inflow rows, zero elsewhere."""
    rhs = np.zeros((system.smesh.n_x + 1, system.vmesh.n_v))
    rhs[inflow_mask(system.smesh, system.vmesh)] = system.data.ravel()
    return rhs


def to_dense(system):
    """The system's matrix, one column per product with a unit vector."""
    shape = (system.smesh.n_x + 1, system.vmesh.n_v)
    unit = np.eye(np.prod(shape))
    return np.column_stack([_apply_system(system, e.reshape(shape)).ravel()
                            for e in unit])


def brute_force_dense(profile, smesh, vmesh, quad, scheme, bc):
    """Independent dense assembly written directly from the scheme
    definition, scalar row by scalar row."""
    from wignerlab.wigner_potential import wigner_potential

    n_x, n_v = smesh.n_x, vmesh.n_v
    dx = smesh.dx
    v = vmesh.nodes
    size = (n_x + 1) * n_v
    mat = np.zeros((size, size))
    rhs = np.zeros(size)

    def op_entry(x, n, m, scheme):
        val = wigner_potential(profile, x, (n - m) * vmesh.dv, quad)
        if scheme == "improved":
            val -= wigner_potential(profile, x, -v[m], quad)
        return 2 * np.pi * vmesh.h * val / v[n]

    for i, x in enumerate(smesh.nodes):
        for n in range(n_v):
            row = i * n_v + n
            if v[n] > 0 and i == 0:
                mat[row, row] = 1.0
                rhs[row] = bc.f_left(v[n])
                continue
            if v[n] < 0 and i == n_x:
                mat[row, row] = 1.0
                rhs[row] = bc.f_right(v[n])
                continue
            for m in range(n_v):
                mat[row, i * n_v + m] -= op_entry(x, n, m, scheme)
            if v[n] > 0:
                if i == 1:
                    mat[row, row] += 1 / dx
                    mat[row, row - n_v] += -1 / dx
                else:
                    mat[row, row] += 3 / (2 * dx)
                    mat[row, row - n_v] += -2 / dx
                    mat[row, row - 2 * n_v] += 1 / (2 * dx)
            else:
                if i == n_x - 1:
                    mat[row, row] += -1 / dx
                    mat[row, row + n_v] += 1 / dx
                else:
                    mat[row, row] += -3 / (2 * dx)
                    mat[row, row + n_v] += 2 / dx
                    mat[row, row + 2 * n_v] += -1 / (2 * dx)
    return mat, rhs


def test_spatial_mesh_guard():
    with pytest.raises(ConfigurationError):
        SpatialMesh(length=50, n_x=3)
    with pytest.raises(ConfigurationError):
        SpatialMesh(length=-1, n_x=10)


def test_integral_float_mesh_sizes_solve_as_ints(barrier, quad):
    # a config parser or a caller may hand N_x and N_v over as floats
    smesh, vmesh = SpatialMesh(10, 6.0), VelocityMesh(8.0, 1 / 32)
    assert type(smesh.n_x) is int and type(vmesh.n_v) is int
    for scheme in ("original", "improved"):
        got = solve_bvp(barrier, smesh, vmesh, quad, scheme, gaussian_bc())
        want = solve_bvp(barrier, SpatialMesh(10, 6), VelocityMesh(8, 1 / 32),
                         quad, scheme, gaussian_bc())
        np.testing.assert_array_equal(got.values, want.values)
    with pytest.raises(ConfigurationError):
        SpatialMesh(10, 6.5)
    with pytest.raises(ConfigurationError):
        VelocityMesh(8.5, 1 / 32)


def test_unknown_scheme_rejected(barrier, quad):
    with pytest.raises(ConfigurationError):
        assemble_system(barrier, SpatialMesh(50, 6),
                        VelocityMesh(4, 1 / 32), quad, "fancy",
                        gaussian_bc())


@pytest.mark.parametrize("scheme", ["original", "improved"])
@pytest.mark.parametrize("level", [0.0, 0.3])
def test_constant_potential_is_pure_transport(quad, scheme, level):
    # With nothing coupled the solve is the transport sweep of the data,
    # which carries them along x unchanged, bit for bit.
    profile = PotentialProfile(segments=(), default_value=level)
    bc = gaussian_bc()
    for n_x, n_v in [(8, 8), (401, 256)]:
        vmesh = VelocityMesh(n_v, 1 / 32)
        sol = solve_bvp(profile, SpatialMesh(length=50, n_x=n_x), vmesh,
                        quad, scheme, bc)
        v = vmesh.nodes
        expected = np.where(v > 0, bc.f_left(v), bc.f_right(v))
        for row in sol.values:
            np.testing.assert_array_equal(row, expected)


# Tests with `SpatialMesh(length=10)` solve on a 10-long device.  There
# the barrier reaches most nodes, so the velocity coupling is nonzero; on
# the usual 50 it vanishes at every node of a coarse mesh (the outer ones
# are out of reach, the centre is the barrier's symmetric point).


@pytest.mark.parametrize("scheme", ["original", "improved"])
def test_assembly_matches_brute_force(barrier, quad, scheme):
    smesh = SpatialMesh(length=10, n_x=4)
    vmesh = VelocityMesh(4, 1 / 32)
    bc = gaussian_bc()
    system = assemble_system(barrier, smesh, vmesh, quad, scheme, bc)
    want_mat, want_rhs = brute_force_dense(barrier, smesh, vmesh,
                                           quad, scheme, bc)
    blocks = want_mat.reshape(5, 4, 5, 4)[range(5), :, range(5), :]
    assert np.abs(blocks - blocks * np.eye(4)).max() > 0
    np.testing.assert_allclose(to_dense(system), want_mat, rtol=0,
                               atol=1e-13)
    np.testing.assert_allclose(full_rhs(system).ravel(), want_rhs, rtol=0,
                               atol=1e-13)


@pytest.mark.parametrize("scheme", ["original", "improved"])
def test_solve_matches_dense_solve(barrier, quad, scheme):
    smesh = SpatialMesh(length=10, n_x=6)
    vmesh = VelocityMesh(4, 1 / 32)
    system = assemble_system(barrier, smesh, vmesh, quad, scheme,
                             gaussian_bc())
    sol = solve(system)
    dense = np.linalg.solve(to_dense(system), full_rhs(system).ravel())
    scale = max(1.0, np.abs(dense).max())
    assert np.abs(sol.values.ravel() - dense).max() <= 1e-11 * scale


@pytest.mark.parametrize("scheme", ["original", "improved"])
@pytest.mark.parametrize("n_v", [8, 64, 80])
def test_solve_with_coupled_inflow_ends_matches_dense_solve(barrier, scheme,
                                                            n_v):
    # With L_y = 8 the kernel reaches the barrier from the inflow ends
    # x = -5 and 5 of a 10-long device, so the end nodes' weighted moments
    # enter the reduced solve, and P zeroes the inflow rows of L u at
    # those coupled ends.  L has 2 N_y = 32 columns: wide at N_v = 8 and
    # tall at 64 and 80.
    system = assemble_system(barrier, SpatialMesh(length=10, n_x=6),
                             VelocityMesh(n_v, 1 / 32),
                             QuadratureSpec(l_y=8, dy=0.5), scheme,
                             gaussian_bc())
    assert system.coupling.diff[[0, -1]].any(axis=-1).all()
    sol = solve(system)
    dense = np.linalg.solve(to_dense(system), full_rhs(system).ravel())
    scale = max(1.0, np.abs(dense).max())
    assert np.abs(sol.values.ravel() - dense).max() <= 1e-11 * scale


@pytest.mark.parametrize("scheme", ["original", "improved"])
def test_solve_with_dead_offsets_matches_brute_force(barrier, scheme):
    # On a 4-long device with L_y = 8 no node lies within y/2 of the
    # barrier's edges once y > 7, so y = 7.5 and 8 are dead at every node
    # and the kernel drops them.  The dense assembly written from the
    # scheme's definition on all N_y offsets is the oracle, at criterion
    # 6's bound.
    smesh, vmesh = SpatialMesh(length=4, n_x=6), VelocityMesh(8, 1 / 32)
    quad = QuadratureSpec(l_y=8, dy=0.5)
    bc = gaussian_bc()
    system = assemble_system(barrier, smesh, vmesh, quad, scheme, bc)
    live = system.coupling.diff.any(axis=0)
    np.testing.assert_array_equal(np.flatnonzero(~live), [14, 15])
    assert system.coupling.tables[0].shape == (4, 14)
    mat, rhs = brute_force_dense(barrier, smesh, vmesh, quad, scheme, bc)
    dense = np.linalg.solve(mat, rhs)
    sol = solve(system)
    assert sol.iterations > 0
    scale = max(1.0, np.abs(dense).max())
    assert np.abs(sol.values.ravel() - dense).max() <= 1e-11 * scale


@pytest.mark.parametrize("scheme", ["original", "improved"])
@pytest.mark.parametrize("segments, want", [
    (((-4, -3, 0.2), (3, 4, 0.2)), [0, 1, 2, 3, 7, 8, 9, 10]),
    (((-4, -3, 0.2), (1, 2, 0.2)), [0, 1, 2, 3, 5, 6, 7, 8]),
], ids=["mirrored", "one-sided"])
def test_coupled_nodes_with_a_gap_match_brute_force(scheme, segments, want,
                                                    monkeypatch):
    # At L_y = 2 a node is coupled only within 1 of a barrier's edge, so
    # uncoupled nodes lie between the coupled ones.  The solver's index
    # maps place each node's moments in the span of coupled nodes and in
    # the projections' rows, mirrored for v < 0.  P L u is zero at every
    # uncoupled node, so each product's projections are zero on their
    # rows, past an off-centre span too, before every sweep: no row that
    # no moment reads is swept again and again.  The dense assembly from
    # the scheme's definition is the oracle, at criterion 6's bound.
    profile = PotentialProfile(segments=segments)
    smesh, vmesh = SpatialMesh(length=10, n_x=10), VelocityMesh(8, 1 / 32)
    quad = QuadratureSpec(l_y=2, dy=0.5)
    bc = gaussian_bc()
    system = assemble_system(profile, smesh, vmesh, quad, scheme, bc)
    coupled = np.flatnonzero(system.coupling.weights.any(axis=-1))
    np.testing.assert_array_equal(coupled, want)
    width = 4 * system.coupling.weights.shape[1]
    projections = []
    sweep = bvp_solver._sweep

    def spy(blocks, z, sign=1.0):
        if z.shape[1] == width:  # not the grid's halves, of N_v/2
            projections.append(z.copy())
        sweep(blocks, z, sign)

    monkeypatch.setattr(bvp_solver, "_sweep", spy)
    mat, rhs = brute_force_dense(profile, smesh, vmesh, quad, scheme, bc)
    dense = np.linalg.solve(mat, rhs)
    sol = solve(system)
    assert sol.iterations > 0
    uncoupled = np.setdiff1d(np.arange(11), coupled)
    for p in projections[1:]:  # the first projects the right-hand side
        rows = len(p)
        assert not p[uncoupled[uncoupled < rows], width // 2:].any()
        assert not p[10 - uncoupled[10 - uncoupled < rows], :width // 2].any()
    scale = max(1.0, np.abs(dense).max())
    assert np.abs(sol.values.ravel() - dense).max() <= 1e-11 * scale


@settings(max_examples=60, deadline=None)
@given(n_x=st.integers(4, 12), n_v=st.sampled_from([4, 6, 8, 10, 12, 14, 16]),
       height=st.floats(-2.0, 2.0), l_y=st.sampled_from([4, 8]),
       scheme=st.sampled_from(["original", "improved"]))
def test_small_solves_meet_tolerance_or_raise(n_x, n_v, height, l_y, scheme):
    # On a 10-long device most nodes lie within the kernel's reach of the
    # barrier; on the usual 50 only the symmetric centre would, where the
    # coupling vanishes.  At L_y = 8 the inflow ends are coupled too, so
    # the data enter the reduced solve's right-hand side through them.
    smesh = SpatialMesh(length=10, n_x=n_x)
    vmesh = VelocityMesh(n_v, 1 / 32)
    system = assemble_system(barrier_profile(height),
                             smesh, vmesh, QuadratureSpec(l_y=l_y, dy=0.5),
                             scheme, gaussian_bc())
    try:
        sol = solve(system)
    except SolverError:
        return
    assert sol.residual <= RESIDUAL_TOL
    dense = np.linalg.solve(to_dense(system), full_rhs(system).ravel())
    scale = max(1.0, np.abs(dense).max())
    assert np.abs(sol.values.ravel() - dense).max() <= 1e-11 * scale


def test_gmres_runs_on_the_live_weighted_moments(monkeypatch):
    # Node i's unknowns are its weighted moments W_i R^T (T^-1 y)_i, zero
    # wherever D_V(x_i, y_j) is: on conv_x.cfg at N_x = 100 about 7 of the
    # N_y = 64 offsets reach the barrier, so GMRES carries 1,372 numbers
    # where (coupled nodes) min(N_v, 2 N_y) would be 12,800.
    sizes = []
    gmres = bvp_solver._gmres

    def spy(matvec, b, tol):
        sizes.append(b.size)
        return gmres(matvec, b, tol)

    monkeypatch.setattr(bvp_solver, "_gmres", spy)
    cfg = load_config(CONFIG_DIR / "conv_x.cfg")
    system = assemble_system(cfg.profile(),
                             SpatialMesh(cfg.device_length, n_x=100),
                             VelocityMesh(cfg.n_v, cfg.h), cfg.quad(),
                             "improved", cfg.boundary_conditions())
    diff = system.coupling.diff
    coupled = diff.any(axis=-1)
    sol = solve(system)
    assert sol.residual <= RESIDUAL_TOL
    assert sizes == [2 * np.count_nonzero(diff[coupled])] == [1372]


@pytest.mark.parametrize("scheme", ["original", "improved"])
def test_constant_potential_needs_no_iterations(quad, scheme):
    # With no velocity coupling no node enters the reduced system, which
    # is empty, so the transport sweep alone solves the system.
    profile = PotentialProfile(segments=(), default_value=0.3)
    sol = solve_bvp(profile, SpatialMesh(length=50, n_x=8),
                    VelocityMesh(8, 1 / 32), quad, scheme, gaussian_bc())
    assert sol.iterations == 0


@pytest.mark.parametrize("scheme", ["original", "improved"])
def test_weights_underflowed_to_zero_couple_no_node(quad, scheme):
    # A barrier of the least subnormal height has nonzero differences, so
    # its offsets are live, but every weight -dy D_V / pi rounds to zero:
    # no node is coupled, the reduced system is empty, and the solve is
    # the transport sweep alone, to the dense solve's bound.
    system = assemble_system(barrier_profile(5e-324),
                             SpatialMesh(length=10, n_x=4),
                             VelocityMesh(4, 1 / 32), quad, scheme,
                             gaussian_bc())
    assert system.coupling.diff.any() and not system.coupling.weights.any()
    sol = solve(system)
    assert sol.iterations == 0
    dense = np.linalg.solve(to_dense(system), full_rhs(system).ravel())
    scale = max(1.0, np.abs(dense).max())
    assert np.abs(sol.values.ravel() - dense).max() <= 1e-11 * scale


def test_constant_potential_factors_nothing(quad, monkeypatch):
    # A constant potential has no live offset: the kernel's tables and
    # weights have no column, a solve is the transport sweep alone, with
    # no GMRES and no norm of L, and every operator norm is 0 with no QR.
    calls = []
    for name in ("qr", "eigvalsh"):
        def counted(*args, _name=name, _f=getattr(np.linalg, name),
                    **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    monkeypatch.setattr(bvp_solver, "_gmres", lambda *args: calls.append(
        "gmres"))
    profile = PotentialProfile(segments=(), default_value=0.3)
    vmesh = VelocityMesh(8, 1 / 32)
    for scheme in ("original", "improved"):
        sol = solve_bvp(profile, SpatialMesh(length=50, n_x=8), vmesh, quad,
                        scheme, gaussian_bc())
        assert sol.iterations == 0
        assert [t.shape for t in sol.coupling.tables] == [(4, 0), (4, 0)]
        assert sol.coupling.weights.shape == (9, 0)
    kernel = build_theta_kernel(profile, 0.0, vmesh, quad)
    assert operator_norm(kernel) == {"theta": 0.0, "A": 0.0, "B": 0.0}
    assert calls == []


def test_schemes_differ_by_rank_one_coupling(barrier, quad):
    smesh = SpatialMesh(length=10, n_x=6)
    vmesh = VelocityMesh(8, 1 / 32)
    bc = gaussian_bc()
    orig = assemble_system(barrier, smesh, vmesh, quad, "original", bc)
    impr = assemble_system(barrier, smesh, vmesh, quad, "improved", bc)
    from wignerlab.operators import build_theta_kernel
    v = vmesh.nodes
    n_v = vmesh.n_v
    inflow = inflow_mask(smesh, vmesh)
    expected = np.zeros(((smesh.n_x + 1) * n_v,) * 2)
    for i, x in enumerate(smesh.nodes):
        kernel = build_theta_kernel(barrier, x, vmesh, quad)
        block = 2 * np.pi * vmesh.h * np.outer(1 / v, kernel.shift)
        block[inflow[i]] = 0.0
        expected[i * n_v:(i + 1) * n_v, i * n_v:(i + 1) * n_v] = block
    assert np.abs(expected).max() > 0
    np.testing.assert_allclose(to_dense(impr) - to_dense(orig), expected,
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("scheme", ["original", "improved"])
def test_coupled_solve_without_dense_blocks(barrier, quad, scheme):
    # N_v = 32768 at N_x = 6 would need 56 GiB of dense velocity blocks;
    # the matrix-free coupling needs the samples and the Krylov basis.
    smesh = SpatialMesh(length=10, n_x=6)
    vmesh = VelocityMesh(32768, 1 / 32768)
    sol = solve_bvp(barrier, smesh, vmesh, quad, scheme,
                    gaussian_bc())
    assert sol.residual <= RESIDUAL_TOL
    assert 0 < sol.iterations < 300


@pytest.mark.parametrize("which", ["A", "B"])
@pytest.mark.parametrize("n_v, h", [(12, 1 / 32), (24, 1 / 12)])
def test_parity_split_products_match_full_height_factors(barrier, which,
                                                         n_v, h):
    # N_y = 8, of which y = 0.5 is dead at x = 1 (both ends of the span
    # on the barrier), so |J| = 7.  At N_v = 12 < 2 |J| the left factor L
    # is wide; at N_v = 24 it is tall.  The live columns of L and R built
    # on every velocity and offset from the full-height tables are the
    # oracle for what the solver builds from their v > 0 rows: H_+ as
    # their product, H_- = P H_+ P from it by the parity signs P, which
    # the solver's products use, and ||L||_2 from the two column groups.
    kernel = build_theta_kernel(barrier, 1.0, VelocityMesh(n_v, h),
                                QuadratureSpec(l_y=4, dy=0.5))
    half = n_v // 2
    live = np.flatnonzero(kernel.diff)
    np.testing.assert_array_equal(live, np.arange(1, 8))
    left, right = (factor[:, np.r_[live, 8 + live]]
                   for factor in full_height_factors(kernel, which))
    h_plus, norm = _coupling_products(*_thin_factors(kernel, which))
    parity = _parity(7, 7)
    want_plus = left[half:].T @ right[half:]
    want_minus = left[:half].T @ right[:half]
    scale = np.abs(want_plus).max()
    assert np.abs(h_plus - want_plus).max() <= 1e-13 * scale
    assert (np.abs(parity[:, None] * h_plus * parity - want_minus).max()
            <= 1e-13 * scale)
    want_norm = np.linalg.norm(left, 2)
    assert abs(norm - want_norm) <= 1e-13 * want_norm


@pytest.mark.parametrize("n_x", [4, 5, 30, 31, 32, 33, 63, 64, 65, 400,
                                 1600])
@pytest.mark.parametrize("amplitude", [1.0, 1e-300, 1e300])
def test_sweep_matches_band_solver_and_stencil(quad, n_x, amplitude):
    # `solve_banded` on the stored bands is the oracle for both signs of v:
    # T_+ is lower triangular, and T_-^-1 = U^-1 (-D) with U = J T_+ J
    # upper triangular (J reverses x, D negates the inflow row, the last).
    # The coupling-free system's product is T, three columns per sign.
    system = assemble_system(PotentialProfile(segments=()),
                             SpatialMesh(length=10, n_x=n_x),
                             VelocityMesh(6, 1 / 32), quad, "original",
                             gaussian_bc())
    stencil = system.stencil
    b = amplitude * np.random.default_rng(n_x).standard_normal((n_x + 1, 6))
    z = b.copy()
    blocks = _sweep_blocks(stencil)
    _sweep(blocks, z[::-1, :3], -1.0)
    _sweep(blocks, z[:, 3:])
    neg = -b[:, :3]
    neg[-1] *= -1
    want = np.hstack([solve_banded((0, 2), stencil[::-1, ::-1], neg),
                      solve_banded((2, 0), stencil, b[:, 3:])])
    product = _apply_system(system, z)
    for half in (slice(None, 3), slice(3, None)):  # norms of unit scale
        assert (np.linalg.norm((z - want)[:, half] / amplitude)
                <= 1e-13 * np.linalg.norm(want[:, half] / amplitude))
        assert (np.linalg.norm((product - b)[:, half] / amplitude)
                <= 1e-13 * np.linalg.norm(b[:, half] / amplitude))


def test_memory_guard_counts_the_reduced_solve(monkeypatch):
    # 8 GiB of physical memory: conv_v.cfg at N_x = 100, N_v = 65536 needs
    # about 1 GiB, where a Krylov basis of full-length vectors would take
    # 15 GiB.
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2 ** 21}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    cfg = load_config(CONFIG_DIR / "conv_v.cfg")
    system = assemble_system(cfg.profile(),
                             SpatialMesh(cfg.device_length, n_x=100),
                             VelocityMesh(65536, 1 / 65536), cfg.quad(),
                             "improved", cfg.boundary_conditions())
    assert system.data.shape == (2, 32768)


def test_memory_guard_refuses_before_sampling_the_kernel(monkeypatch):
    # 8 GiB of physical memory: N_x = 2^20 with L_y/dy = 4096 keeps small
    # S and C tables, but every node's differences alone would take 32 GiB;
    # the guard refuses before any of them is allocated.
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2 ** 21}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    cfg = load_config(CONFIG_DIR / "conv_v.cfg")
    args = (cfg.profile(), SpatialMesh(cfg.device_length, n_x=2 ** 20),
            VelocityMesh(64, 1 / 64), QuadratureSpec(4096.0, 1.0),
            "improved", cfg.boundary_conditions())
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError):
            assemble_system(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_system_holds_its_data_and_solve_peaks_under_four_grids():
    # The system keeps the inflow data, two half rows, not a right-hand
    # side and an inflow mask on the whole (N_x+1, N_v) grid; a solve's
    # tracemalloc peak above it is about 2.99 such grids at N_x = 100 and
    # 2.71 at N_x = 400, where the residual check works in one grid.
    cfg = load_config(CONFIG_DIR / "conv_v.cfg")
    for n_x, n_v, bound in [(100, 8192, 4), (400, 2048, 2.8)]:
        grid = 8 * (n_x + 1) * n_v
        tracemalloc.start()
        try:
            system = assemble_system(cfg.profile(),
                                     SpatialMesh(cfg.device_length, n_x=n_x),
                                     VelocityMesh(n_v, 1 / n_v), cfg.quad(),
                                     "improved", cfg.boundary_conditions())
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            sol = solve(system)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert sol.residual <= RESIDUAL_TOL
        assert held < grid
        assert peak <= bound * grid


@pytest.mark.parametrize("scheme", ["original", "improved"])
@pytest.mark.parametrize("n_x", [200, 400])
def test_refined_figure_solves_past_the_gmres_floor(scheme, n_x):
    # On figure.cfg refined in x, GMRES's restarts stall a few times above
    # its tolerance; the solve stops there, and the whole-system residual
    # check accepts the result.
    cfg = load_config(CONFIG_DIR / "figure.cfg")
    sol = solve_bvp(cfg.profile(), SpatialMesh(cfg.device_length, n_x=n_x),
                    VelocityMesh(cfg.n_v, cfg.h), cfg.quad(), scheme,
                    cfg.boundary_conditions())
    assert sol.residual <= RESIDUAL_TOL


@pytest.mark.parametrize("scheme", ["original", "improved"])
def test_mirror_symmetry(barrier, scheme):
    # The barrier is even in x, so mirrored inflow, f_right(v) = f_left(-v),
    # gives a solution even under (x, v) -> (-x, -v): the v < 0 half comes
    # from the mirrored stencil, the v > 0 half from the stored one.
    # conv_x.cfg's mesh, far past the brute-force assembly's reach.
    def f_left(v):
        return np.exp(-(v - 0.5 * np.pi) ** 2 / 0.25)

    bc = BoundaryConditions(f_left=f_left, f_right=lambda v: f_left(-v))
    sol = solve_bvp(barrier, SpatialMesh(length=50, n_x=100),
                    VelocityMesh(256, 1 / 256), QuadratureSpec(64, 1.0),
                    scheme, bc)
    f = sol.values
    assert np.abs(f[::-1, ::-1] - f).max() <= 1e-10 * np.abs(f).max()


def test_solution_linear_in_inflow(barrier, quad):
    smesh = SpatialMesh(length=50, n_x=8)
    vmesh = VelocityMesh(8, 1 / 32)
    bc1 = gaussian_bc()
    bc2 = BoundaryConditions(f_left=lambda v: 2 * bc1.f_left(v),
                             f_right=lambda v: 2 * bc1.f_right(v))
    s1 = solve_bvp(barrier, smesh, vmesh, quad, "improved", bc1)
    s2 = solve_bvp(barrier, smesh, vmesh, quad, "improved", bc2)
    scale = max(1.0, np.abs(s2.values).max())
    assert np.abs(s2.values - 2 * s1.values).max() <= 1e-10 * scale


@pytest.mark.parametrize("scheme", ["original", "improved"])
def test_solution_scales_with_inflow_far_from_one(barrier, quad, scheme):
    # The solve's norms square the entries: unscaled, they underflow to 0
    # at 1e-300 (no iteration is run) and overflow at 1e300.
    smesh = SpatialMesh(length=10, n_x=10)
    vmesh = VelocityMesh(8, 1 / 32)
    bc = gaussian_bc()
    sols = {}
    for amplitude in (1e-300, 1.0, 1e300):
        scaled = BoundaryConditions(
            f_left=lambda v, a=amplitude: a * bc.f_left(v),
            f_right=lambda v, a=amplitude: a * bc.f_right(v))
        sols[amplitude] = solve_bvp(barrier, smesh, vmesh, quad, scheme,
                                    scaled)
    unit = sols[1.0]
    assert unit.iterations > 0
    for amplitude, sol in sols.items():
        assert sol.iterations == unit.iterations
        assert (np.linalg.norm(sol.values / amplitude - unit.values)
                <= 1e-12 * np.linalg.norm(unit.values))


def test_residual_reported_and_small(barrier, quad):
    smesh = SpatialMesh(length=50, n_x=10)
    vmesh = VelocityMesh(16, 1 / 64)
    sol = solve_bvp(barrier, smesh, vmesh, quad, "original", gaussian_bc())
    assert 0 <= sol.residual <= 1e-10


def test_boundary_rows_hold_inflow_exactly(barrier, quad):
    smesh = SpatialMesh(length=50, n_x=8)
    vmesh = VelocityMesh(8, 1 / 32)
    bc = gaussian_bc()
    sol = solve_bvp(barrier, smesh, vmesh, quad, "improved", bc)
    v = vmesh.nodes
    np.testing.assert_array_equal(sol.values[0, v > 0], bc.f_left(v[v > 0]))
    np.testing.assert_array_equal(sol.values[-1, v < 0], bc.f_right(v[v < 0]))


def test_csv_round_trip(barrier, quad, tmp_path):
    smesh = SpatialMesh(length=50, n_x=4)
    vmesh = VelocityMesh(4, 1 / 32)
    sol = solve_bvp(barrier, smesh, vmesh, quad, "improved", gaussian_bc())
    solution_to_csv(sol, tmp_path / "sol.csv")
    lines = (tmp_path / "sol.csv").read_text().strip().split("\n")
    assert lines[0] == "x,v,f"
    assert len(lines) == 1 + 5 * 4
    data = np.array([[float(t) for t in line.split(",")] for line in lines[1:]])
    np.testing.assert_array_equal(data[:, 2],
                                  sol.values.ravel())  # 17 digits round-trip


def test_csv_to_path(barrier, quad, tmp_path):
    sol = solve_bvp(barrier, SpatialMesh(length=50, n_x=4),
                    VelocityMesh(4, 1 / 32), quad, "improved", gaussian_bc())
    solution_to_csv(sol, str(tmp_path / "str.csv"))
    solution_to_csv(sol, tmp_path / "path.csv")
    assert ((tmp_path / "str.csv").read_text()
            == (tmp_path / "path.csv").read_text())
