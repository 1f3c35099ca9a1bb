import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wignerlab.bvp_solver import (RESIDUAL_TOL, BoundaryConditions,
                                  SpatialMesh, _apply_system,
                                  assemble_system, solution_to_csv, solve,
                                  solve_bvp)
from wignerlab.errors import ConfigurationError, SolverError
from wignerlab.operators import VelocityMesh
from wignerlab.potential import PotentialProfile, barrier_profile
from wignerlab.wigner_potential import QuadratureSpec


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


def to_dense(system):
    """The system's matrix, one column per product with a unit vector."""
    shape = system.rhs.shape
    unit = np.eye(system.rhs.size)
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


def test_unknown_scheme_rejected(barrier, quad):
    with pytest.raises(ConfigurationError):
        assemble_system(barrier, SpatialMesh(50, 6),
                        VelocityMesh(4, 1 / 32), quad, "fancy",
                        gaussian_bc())


@pytest.mark.parametrize("scheme", ["original", "improved"])
@pytest.mark.parametrize("level", [0.0, 0.3])
def test_constant_potential_is_pure_transport(quad, scheme, level):
    profile = PotentialProfile(segments=(), default_value=level)
    smesh = SpatialMesh(length=50, n_x=8)
    vmesh = VelocityMesh(8, 1 / 32)
    bc = gaussian_bc()
    sol = solve_bvp(profile, smesh, vmesh, quad, scheme, bc)
    v = vmesh.nodes
    expected = np.where(v > 0, bc.f_left(v), bc.f_right(v))
    for row in sol.values:
        assert np.abs(row - expected).max() <= 1e-12


@pytest.fixture
def short_barrier():
    # On a 10-long device the barrier reaches most nodes, so the velocity
    # coupling is nonzero there; on the usual 50 it vanishes at every node
    # of a coarse mesh (the outer ones are out of reach, the centre is the
    # barrier's symmetric point).
    return barrier_profile(device_length=10)


@pytest.mark.parametrize("scheme", ["original", "improved"])
def test_assembly_matches_brute_force(short_barrier, quad, scheme):
    smesh = SpatialMesh(length=10, n_x=4)
    vmesh = VelocityMesh(4, 1 / 32)
    bc = gaussian_bc()
    system = assemble_system(short_barrier, smesh, vmesh, quad, scheme, bc)
    want_mat, want_rhs = brute_force_dense(short_barrier, smesh, vmesh,
                                           quad, scheme, bc)
    blocks = want_mat.reshape(5, 4, 5, 4)[range(5), :, range(5), :]
    assert np.abs(blocks - blocks * np.eye(4)).max() > 0
    np.testing.assert_allclose(to_dense(system), want_mat, atol=1e-13)
    np.testing.assert_allclose(system.rhs.ravel(), want_rhs, atol=1e-13)


@pytest.mark.parametrize("scheme", ["original", "improved"])
def test_solve_matches_dense_solve(short_barrier, quad, scheme):
    smesh = SpatialMesh(length=10, n_x=6)
    vmesh = VelocityMesh(4, 1 / 32)
    system = assemble_system(short_barrier, smesh, vmesh, quad, scheme,
                             gaussian_bc())
    sol = solve(system)
    dense = np.linalg.solve(to_dense(system), system.rhs.ravel())
    scale = max(1.0, np.abs(dense).max())
    assert np.abs(sol.values.ravel() - dense).max() <= 1e-11 * scale


@settings(max_examples=60, deadline=None)
@given(n_x=st.integers(4, 12), n_v=st.sampled_from([4, 6, 8, 10, 12, 14, 16]),
       height=st.floats(-2.0, 2.0), scheme=st.sampled_from(["original",
                                                             "improved"]))
def test_small_solves_meet_tolerance_or_raise(n_x, n_v, height, scheme):
    # On a 10-long device most nodes lie within the kernel's reach of the
    # barrier; on the usual 50 only the symmetric centre would, where the
    # coupling vanishes.
    smesh = SpatialMesh(length=10, n_x=n_x)
    vmesh = VelocityMesh(n_v, 1 / 32)
    system = assemble_system(barrier_profile(height, device_length=10),
                             smesh, vmesh, QuadratureSpec(l_y=4, dy=0.5),
                             scheme, gaussian_bc())
    try:
        sol = solve(system)
    except SolverError:
        return
    assert sol.residual <= RESIDUAL_TOL
    dense = np.linalg.solve(to_dense(system), system.rhs.ravel())
    scale = max(1.0, np.abs(dense).max())
    assert np.abs(sol.values.ravel() - dense).max() <= 1e-11 * scale


@pytest.mark.parametrize("scheme", ["original", "improved"])
def test_constant_potential_needs_no_iterations(quad, scheme):
    # With no velocity coupling the transport preconditioner is the exact
    # inverse, so its first application already solves the system.
    profile = PotentialProfile(segments=(), default_value=0.3)
    sol = solve_bvp(profile, SpatialMesh(length=50, n_x=8),
                    VelocityMesh(8, 1 / 32), quad, scheme, gaussian_bc())
    assert sol.iterations == 0


def test_schemes_differ_by_rank_one_coupling(short_barrier, quad):
    barrier = short_barrier
    smesh = SpatialMesh(length=10, n_x=6)
    vmesh = VelocityMesh(8, 1 / 32)
    bc = gaussian_bc()
    orig = assemble_system(barrier, smesh, vmesh, quad, "original", bc)
    impr = assemble_system(barrier, smesh, vmesh, quad, "improved", bc)
    from wignerlab.operators import build_theta_kernel
    v = vmesh.nodes
    n_v = vmesh.n_v
    expected = np.zeros(((smesh.n_x + 1) * n_v,) * 2)
    for i, x in enumerate(smesh.nodes):
        kernel = build_theta_kernel(barrier, x, vmesh, quad)
        block = 2 * np.pi * vmesh.h * np.outer(1 / v, kernel.shift)
        block[orig.inflow[i]] = 0.0
        expected[i * n_v:(i + 1) * n_v, i * n_v:(i + 1) * n_v] = block
    assert np.abs(expected).max() > 0
    np.testing.assert_allclose(to_dense(impr) - to_dense(orig), expected,
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("scheme", ["original", "improved"])
def test_coupled_solve_without_dense_blocks(short_barrier, quad, scheme):
    # N_v = 32768 at N_x = 6 would need 56 GiB of dense velocity blocks;
    # the matrix-free coupling needs the samples and the Krylov basis.
    smesh = SpatialMesh(length=10, n_x=6)
    vmesh = VelocityMesh(32768, 1 / 32768)
    sol = solve_bvp(short_barrier, smesh, vmesh, quad, scheme,
                    gaussian_bc())
    assert sol.residual <= RESIDUAL_TOL
    assert 0 < sol.iterations < 300


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


def test_csv_round_trip(barrier, quad):
    smesh = SpatialMesh(length=50, n_x=4)
    vmesh = VelocityMesh(4, 1 / 32)
    sol = solve_bvp(barrier, smesh, vmesh, quad, "improved", gaussian_bc())
    buf = io.StringIO()
    solution_to_csv(sol, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "x,v,f"
    assert len(lines) == 1 + 5 * 4
    data = np.array([[float(t) for t in line.split(",")] for line in lines[1:]])
    np.testing.assert_array_equal(data[:, 2],
                                  sol.values.ravel())  # 17 digits round-trip
