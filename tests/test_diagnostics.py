import numpy as np
import pytest
from hypothesis import given, strategies as st

from wignerlab.bvp_solver import (BoundaryConditions, SpatialMesh,
                                  WignerSolution, solve_bvp)
from wignerlab.diagnostics import (ExperimentReport, constraint_residual,
                                   convergence_order, l2_error,
                                   resample_half_lines)
from wignerlab.errors import ContractError
from wignerlab.operators import VelocityMesh, build_theta_kernel
from wignerlab.potential import PotentialProfile, barrier_profile
from wignerlab.wigner_potential import QuadratureSpec, wigner_potential


def make_solution(n_x=8, n_v=8, h=1 / 32, values=None, length=50.0,
                  profile=None, quad=QuadratureSpec(l_y=2, dy=0.5),
                  kernel_nodes=None, kernel_mesh=None):
    """A solution carrying its kernel, sampled at the mesh's nodes and on
    its velocity mesh unless `kernel_nodes` or `kernel_mesh` say else."""
    smesh = SpatialMesh(length=length, n_x=n_x)
    vmesh = VelocityMesh(n_v, h)
    if values is None:
        values = np.zeros((n_x + 1, n_v))
    coupling = build_theta_kernel(
        profile or barrier_profile(),
        smesh.nodes if kernel_nodes is None else kernel_nodes,
        kernel_mesh or vmesh, quad)
    return WignerSolution(smesh=smesh, vmesh=vmesh, values=values,
                          scheme="improved", coupling=coupling)


class TestL2Error:
    def test_identical_solutions(self):
        sol = make_solution(values=np.random.default_rng(0).random((9, 8)))
        assert l2_error(sol, sol) == 0.0

    def test_constant_offset_closed_form(self):
        rng = np.random.default_rng(1)
        base = rng.random((9, 8))
        c = 0.37
        sol = make_solution(values=base + c)
        ref = make_solution(values=base)
        want = c * np.sqrt(50.0 * 8 * sol.vmesh.dv)
        assert l2_error(sol, ref) == pytest.approx(want, rel=1e-12)

    def test_incompatible_device_interval(self):
        sol = make_solution(length=50.0)
        ref = make_solution(length=40.0)
        with pytest.raises(ContractError):
            l2_error(sol, ref)

    def test_non_nested_spatial_grids(self):
        sol = make_solution(n_x=8)
        ref = make_solution(n_x=12)
        with pytest.raises(ContractError):
            l2_error(sol, ref)

    def test_nested_x_restriction(self):
        # reference twice as fine in x; values sampled from a smooth function
        def fill(n_x, n_v, h):
            smesh = SpatialMesh(length=50.0, n_x=n_x)
            vmesh = VelocityMesh(n_v, h)
            vals = np.cos(smesh.nodes)[:, None] * np.exp(
                -vmesh.nodes**2)[None, :]
            return make_solution(n_x=n_x, n_v=n_v, h=h, values=vals)

        sol = fill(8, 8, 1 / 32)
        ref = fill(16, 8, 1 / 32)
        # shared nodes carry identical values, so the error vanishes
        assert l2_error(sol, ref) <= 1e-15

    def test_half_line_resampling_is_exact_on_piecewise_linear(self):
        # function linear on each half-line with a jump at v = 0
        def f(v):
            return np.where(v > 0, 1.0 + 2 * v, -3.0 + 0.5 * v)

        coarse = VelocityMesh(8, 1 / 8)
        fine = VelocityMesh(32, 1 / 32)
        rows = f(coarse.nodes)[None, :]
        out = resample_half_lines(coarse.nodes, rows, fine.nodes)
        np.testing.assert_allclose(out[0], f(fine.nodes), rtol=1e-13)


class TestConvergenceOrder:
    def test_printed_table_pairs(self):
        assert convergence_order([0.05906, 0.01446])[0] == pytest.approx(
            2.0301, abs=5e-5)
        # the published inputs are rounded to 4 digits, so the recomputed
        # order can differ in the third decimal
        assert convergence_order([0.4208, 0.1792])[0] == pytest.approx(
            1.2322, abs=2e-3)

    def test_quarter_ratio(self):
        assert convergence_order([0.8, 0.2]) == [pytest.approx(2.0)]

    def test_zero_error_flagged_not_thrown(self):
        orders = convergence_order([0.1, 0.0, 0.05])
        assert np.isnan(orders[0]) and np.isnan(orders[1])

    def test_single_level_rejected(self):
        with pytest.raises(ContractError):
            convergence_order([0.1])

    @given(e0=st.floats(1e-8, 1e3), ratio=st.floats(1.01, 64))
    def test_order_is_log2_of_ratio(self, e0, ratio):
        order = convergence_order([e0, e0 / ratio])[0]
        assert order == pytest.approx(np.log2(ratio), rel=1e-9)


class TestConstraintResidual:
    quad = QuadratureSpec(l_y=4, dy=0.5)

    def test_zero_potential_gives_zero(self):
        sol = make_solution(values=np.random.default_rng(3).random((9, 8)),
                            profile=PotentialProfile(segments=()),
                            quad=self.quad)
        assert constraint_residual(sol) == 0.0

    def test_even_functions_have_negligible_residual(self):
        rng = np.random.default_rng(4)
        half = rng.random((9, 4))
        values = np.concatenate([half[:, ::-1], half], axis=1)  # even in v
        sol = make_solution(values=values, quad=self.quad)
        norm = np.abs(values).max()
        assert constraint_residual(sol) <= 1e-12 * norm

    def test_matches_wigner_potential_on_a_solved_barrier(self):
        # S reads the solve's own samples; the oracle samples V_w afresh
        # at each node, on a 10-long device where the barrier couples most
        # nodes
        profile = barrier_profile(height=0.3, half_width=1.0)
        smesh = SpatialMesh(length=10.0, n_x=12)
        vmesh = VelocityMesh(16, 1 / 16)
        bc = BoundaryConditions(f_left=lambda v: np.exp(-(v - 1) ** 2),
                                f_right=lambda v: 0.5 * np.exp(-v ** 2))
        for scheme in ("original", "improved"):
            sol = solve_bvp(profile, smesh, vmesh, self.quad, scheme, bc)
            want = vmesh.h * max(
                abs(np.sum(row * wigner_potential(profile, x, vmesh.nodes,
                                                  self.quad)) * vmesh.dv)
                for x, row in zip(smesh.nodes, sol.values))
            assert want > 0
            assert constraint_residual(sol) == pytest.approx(want, rel=1e-14)

    def test_mesh_mismatch_rejected(self):
        sol = make_solution(kernel_mesh=VelocityMesh(8, 1 / 64))
        with pytest.raises(ContractError):
            constraint_residual(sol)

    def test_kernel_count_mismatch_rejected(self):
        # one node short: a zip over nodes would silently drop the last
        short = make_solution(kernel_nodes=SpatialMesh(50.0, 8).nodes[:-1])
        with pytest.raises(ContractError):
            constraint_residual(short)


class TestExperimentReport:
    def test_csv_layout(self):
        report = ExperimentReport(axis="velocity")
        report.add_scheme("improved", [64, 128, 256], [0.04, 0.01, 0.0025])
        csv = report.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "level,error,order,scheme"
        assert lines[1].endswith(",improved")
        assert lines[1].split(",")[2] == ""  # first level has no order
        assert lines[2].split(",")[2] == "2.0000"

    def test_aggregate_order(self):
        report = ExperimentReport(axis="velocity")
        report.add_scheme("improved", [64, 128, 256], [0.04, 0.01, 0.0025])
        assert report.aggregate_order("improved") == pytest.approx(2.0)

    @pytest.mark.parametrize("errors", [[0.04, 0.01, 0.0], [0.0, 0.0, 0.0],
                                        [0.0, 0.01, 0.0025]])
    def test_zero_error_gives_nan_aggregate(self, errors):
        report = ExperimentReport(axis="velocity")
        report.add_scheme("original", [64, 128, 256], errors)
        assert np.isnan(report.aggregate_order("original"))
        assert "aggregate order: nan" in report.to_text()

    def test_text_table_mentions_scheme_and_aggregate(self):
        report = ExperimentReport(axis="space")
        report.add_scheme("original", [25, 50], [0.4, 0.1])
        text = report.to_text()
        assert "original" in text and "aggregate" in text
