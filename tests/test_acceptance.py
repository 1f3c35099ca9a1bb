"""Acceptance gate: the eight headline behaviors of the solver pair.

Each criterion prints one PASS/FAIL line.  Heavy sweeps are module-scoped
fixtures so their solves run once.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from wignerlab.bvp_solver import (BoundaryConditions, SpatialMesh,
                                  assemble_system, solve, solve_bvp)
from wignerlab.cli import (RunConfig, load_config, run_constraint_study,
                           run_figure_comparison, run_norms,
                           run_v_convergence, run_x_convergence)
from wignerlab.diagnostics import convergence_order
from wignerlab.operators import (VelocityMesh, apply_A, apply_B,
                                 apply_theta, build_theta_kernel, materialize)
from wignerlab.potential import PotentialProfile, barrier_profile
from wignerlab.wigner_potential import QuadratureSpec, wigner_potential

from test_bvp_solver import brute_force_dense, gaussian_bc, to_dense

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
BARRIER = ((-1.5, 1.5, 0.2),)
BEAM = (1.0, 0.5 * np.pi, 0.25)


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# --------------------------------------------------------------------------
# Shared sweeps


@pytest.fixture(scope="module")
def v_sweep(tmp_path_factory):
    cfg = RunConfig(segments=BARRIER, n_x=100, n_v=1024, r_h=512,
                    l_y=31, dy=1.0, inflow_left=BEAM,
                    levels=(64, 128, 256, 512, 1024))
    out = tmp_path_factory.mktemp("conv_v")
    start = time.perf_counter()
    report = run_v_convergence(cfg, out)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def x_sweep(tmp_path_factory):
    cfg = RunConfig(segments=BARRIER, n_x=400, n_v=256, r_h=128,
                    l_y=64, dy=1.0, inflow_left=BEAM,
                    levels=(25, 50, 100, 200, 400))
    out = tmp_path_factory.mktemp("conv_x")
    return run_x_convergence(cfg, out)


@pytest.fixture(scope="module")
def constraint_sweep(tmp_path_factory):
    cfg = RunConfig(segments=BARRIER, n_x=100, n_v=1024, r_h=512,
                    l_y=31, dy=1.0, inflow_left=BEAM,
                    levels=(64, 128, 256, 512, 1024))
    out = tmp_path_factory.mktemp("constraint")
    return run_constraint_study(cfg, out)


@pytest.fixture(scope="module")
def figure_result(tmp_path_factory):
    cfg = load_config(CONFIG_DIR / "figure.cfg")
    out = tmp_path_factory.mktemp("figure")
    return run_figure_comparison(cfg, out)


@pytest.fixture(scope="module")
def norm_rows(tmp_path_factory):
    cfg = RunConfig(segments=BARRIER, n_x=100, n_v=1024, r_h=512,
                    l_y=31, dy=0.5, norm_position=10.0,
                    levels=(32, 64, 128, 256, 512))
    out = tmp_path_factory.mktemp("norms")
    return run_norms(cfg, out)


# --------------------------------------------------------------------------
# 1. velocity convergence


def test_criterion_1_velocity_convergence(v_sweep):
    report, elapsed = v_sweep
    improved = [row[2] for row in report.rows["improved"][1:]]
    agg_improved = report.aggregate_order("improved")
    agg_original = report.aggregate_order("original")
    ok = (all(1.7 <= o <= 2.5 for o in improved)
          and abs(agg_improved - 2.09) <= 0.4
          and agg_original <= 0.6
          and elapsed < 600)
    check("1", ok,
          f"improved per-level orders {[f'{o:.4f}' for o in improved]}, "
          f"aggregate {agg_improved:.4f} (target 2.09±0.4); original "
          f"aggregate {agg_original:.4f} (<=0.6); sweep {elapsed:.0f}s "
          f"(<600s)")


# --------------------------------------------------------------------------
# 2. spatial convergence


def test_criterion_2_spatial_convergence(x_sweep):
    agg_improved = x_sweep.aggregate_order("improved")
    agg_original = x_sweep.aggregate_order("original")
    finest_improved = x_sweep.rows["improved"][-1][2]
    ok = (abs(agg_improved - 1.93) <= 0.4
          and abs(agg_original - 1.66) <= 0.4
          and finest_improved >= 2.0)
    check("2", ok,
          f"improved aggregate {agg_improved:.4f} (1.93±0.4), original "
          f"aggregate {agg_original:.4f} (1.66±0.4), finest improved order "
          f"{finest_improved:.4f} (>=2.0)")


# --------------------------------------------------------------------------
# 3. constraint residual


def test_criterion_3_constraint_residual(constraint_sweep):
    details = []
    ok = True
    published = {"original": 4.7370e-4, "improved": 4.2746e-4}
    for scheme, target in published.items():
        rows = constraint_sweep.rows[scheme]
        orders = [row[2] for row in rows[1:]]
        s64 = rows[0][1]
        ok &= all(abs(o - 1.0) <= 0.2 for o in orders)
        ok &= target / 3 <= s64 <= target * 3
        details.append(
            f"{scheme}: S(64)={s64:.4e} (within 3x of {target:.4e}), "
            f"orders {[f'{o:.3f}' for o in orders]}")
    check("3", ok, "; ".join(details))


# --------------------------------------------------------------------------
# 4. singular behavior near v = 0


def test_criterion_4_singularity_contrast(figure_result):
    ratio = figure_result["center_ratio"]
    peak = figure_result["center_peak"]
    check("4", ratio >= 10,
          f"center-node peak ratio original/improved = {ratio:.2f} (>=10); "
          f"peaks original {peak['original']:.4f}, improved "
          f"{peak['improved']:.4f}")


# --------------------------------------------------------------------------
# 5. operator bounds


def test_criterion_5_theta_bound_and_B_uniformity(norm_rows):
    theta_ok = all(r["norm_theta"] <= 2 * 0.2 + 1e-8 for r in norm_rows)
    b_norms = [r["norm_B"] for r in norm_rows]
    b_ratio = max(b_norms) / min(b_norms)
    ok = theta_ok and b_ratio <= 2
    check("5 (theta bound, B uniformity)", ok,
          f"max |theta|={max(r['norm_theta'] for r in norm_rows):.4f} "
          f"(<=0.4+1e-8); |B| max/min = {b_ratio:.4f} (<=2)")


def test_criterion_5_iterations_uniform_in_velocity_mesh():
    # Uniformly bounded B means GMRES in the range of the coupling needs no
    # more iterations as the velocity mesh is refined at a fixed window.
    cfg = load_config(CONFIG_DIR / "conv_v.cfg")
    smesh = SpatialMesh(length=cfg.device_length, n_x=25)
    counts = [solve_bvp(cfg.profile(), smesh, VelocityMesh(n_v, 1 / n_v),
                        cfg.quad(), "improved",
                        cfg.boundary_conditions()).iterations
              for n_v in (64, 128, 256, 512)]
    ok = 0 < counts[0] and all(b <= a for a, b in zip(counts, counts[1:]))
    check("5 (GMRES iterations)", ok,
          f"improved iterations at N_v = 64..512, N_x = 25: {counts} "
          f"(non-increasing)")


def test_criterion_5_iterations_uniform_at_scale():
    # The same bound at N_x = 100 up to N_v = 8192, where an iteration
    # costs the same whatever N_v is.
    cfg = load_config(CONFIG_DIR / "conv_v.cfg")
    smesh = SpatialMesh(length=cfg.device_length, n_x=100)
    counts = [solve_bvp(cfg.profile(), smesh, VelocityMesh(n_v, 1 / n_v),
                        cfg.quad(), "improved",
                        cfg.boundary_conditions()).iterations
              for n_v in (1024, 2048, 4096, 8192)]
    ok = 0 < counts[0] and all(b <= a for a, b in zip(counts, counts[1:]))
    check("5 (GMRES iterations at scale)", ok,
          f"improved iterations at N_v = 1024..8192, N_x = 100: {counts} "
          f"(non-increasing)")


def test_criterion_5_A_growth_window(norm_rows):
    # The spectral norm of the singular quotient A grows like h^(-1/2): it is
    # bounded below by the 2-norm of the row at the smallest |v_n| and above
    # by the Frobenius norm, and both bounds grow by sqrt(2) per halving of h
    # (the row bound exactly, the Frobenius norm asymptotically).  A window
    # of +/-20% around sqrt(2) rejects a bounded A (factor ~1) as well as
    # O(1/h) growth (factor ~2, the rate of the infinity-norm).
    a = [r["norm_A"] for r in norm_rows]
    growth = [b / c for b, c in zip(a[1:], a[:-1])]
    lo, hi = 0.8 * np.sqrt(2), 1.2 * np.sqrt(2)
    ok = all(lo <= g <= hi for g in growth)
    check("5 (A growth)", ok,
          f"|A| growth per halving {[f'{g:.4f}' for g in growth]} "
          f"(required within [{lo:.4f}, {hi:.4f}] = sqrt(2) +/- 20%)")


# --------------------------------------------------------------------------
# 6. oracle equivalence


def test_criterion_6_dense_oracles():
    # On a 10-long device the barrier reaches most nodes, so the systems
    # carry a velocity coupling; on the usual 50 every node of these meshes
    # has a zero kernel.
    barrier = barrier_profile()
    quad = QuadratureSpec(l_y=4, dy=0.5)
    bc = gaussian_bc()
    worst = coupling = 0.0
    for n_x in (4, 6):
        for n_v in (4, 8, 16):
            smesh = SpatialMesh(length=10.0, n_x=n_x)
            vmesh = VelocityMesh(n_v, 1 / 32)
            for scheme in ("original", "improved"):
                system = assemble_system(barrier, smesh, vmesh, quad,
                                         scheme, bc)
                coupling = max(coupling,
                               np.abs(system.coupling.symbol).max())
                mat, rhs = brute_force_dense(barrier, smesh, vmesh, quad,
                                             scheme, bc)
                asm_err = np.abs(to_dense(system) - mat).max()
                dense = np.linalg.solve(mat, rhs)
                sol = solve(system)
                scale = max(1.0, np.abs(dense).max())
                sol_err = np.abs(sol.values.ravel() - dense).max() / scale
                worst = max(worst, asm_err, sol_err)
    ok = worst <= 1e-11 and coupling > 0
    check("6 (dense oracle)", ok,
          f"max assembly/solve deviation from brute force {worst:.2e} "
          f"(<=1e-11), max |symbol| {coupling:.3f} (>0)")


def test_criterion_6_fft_vs_naive():
    barrier = barrier_profile()
    quad = QuadratureSpec(l_y=16, dy=0.5)
    mesh = VelocityMesh(64, 1 / 256)
    kernel = build_theta_kernel(barrier, 1.0, mesh, quad)
    coupling = np.abs(kernel.symbol).max()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        f = rng.standard_normal(64)
        fast = apply_theta(kernel, f)
        naive = materialize(kernel, "theta") @ f
        scale = max(1.0, np.abs(naive).max())
        worst = max(worst, np.abs(fast - naive).max() / scale)
    ok = worst <= 1e-12 and coupling > 0
    check("6 (factored matvec)", ok,
          f"max relative factored-vs-dense deviation over 100 vectors "
          f"{worst:.2e} (<=1e-12), max |symbol| {coupling:.3f} (>0)")


# --------------------------------------------------------------------------
# 7. exact invariants


def test_criterion_7_exact_invariants():
    barrier = barrier_profile()
    quad = QuadratureSpec(l_y=8, dy=0.5)
    mesh = VelocityMesh(32, 1 / 64)
    kernel = build_theta_kernel(barrier, 7.3, mesh, quad)
    m = materialize(kernel, "M")
    skew = np.abs(m + m.T).max()
    toeplitz = np.abs(m[1:, 1:] - m[:-1, :-1]).max()
    vs = np.linspace(0.1, 3.0, 17)
    odd = max(abs(wigner_potential(barrier, 2.2, v, quad)
                  + wigner_potential(barrier, 2.2, -v, quad)) for v in vs)
    rng = np.random.default_rng(5)
    half = rng.standard_normal(16)
    even_f = np.concatenate([half[::-1], half])
    a_val = apply_A(kernel, even_f)
    ab = np.abs(a_val - apply_B(kernel, even_f)).max() / max(
        1.0, np.abs(a_val).max())

    profile = PotentialProfile(segments=(), default_value=0.7)
    smesh = SpatialMesh(length=50.0, n_x=8)
    bc = gaussian_bc()
    sol = solve_bvp(profile, smesh, mesh, quad, "original", bc)
    v = mesh.nodes
    expected = np.where(v > 0, bc.f_left(v), bc.f_right(v))
    transport = np.abs(sol.values - expected[None, :]).max()

    ok = (skew == 0.0 and toeplitz == 0.0 and odd <= 1e-14
          and ab <= 1e-12 and transport <= 1e-12)
    check("7", ok,
          f"skew {skew:.1e} (exact), toeplitz {toeplitz:.1e} (exact), "
          f"kernel oddness {odd:.1e} (<=1e-14), A=B on even data {ab:.1e} "
          f"(<=1e-12), constant-V transport {transport:.1e} (<=1e-12)")


# --------------------------------------------------------------------------
# 8. printed-table arithmetic

# (printed error, printed order) columns; errors kept as strings so the
# print precision (and hence the rounding uncertainty) is known.
PRINTED_TABLES = [
    (["0.2756", "0.2466", "0.2090", "0.1505"], [0.1604, 0.2386, 0.4742]),
    (["0.05906", "0.01446", "0.003473", "0.0007513"],
     [2.0301, 2.0577, 2.2090]),
    (["0.4208", "0.1792", "0.0623", "0.0131"], [1.2322, 1.5238, 2.2549]),
    (["0.1653", "0.0613", "0.0156", "0.0030"], [1.4312, 1.9753, 2.3590]),
]


def _half_ulp(printed: str) -> float:
    decimals = len(printed.split(".")[1])
    return 0.5 * 10.0 ** (-decimals)


def _printed_order_attainable(ea: str, eb: str, want: float) -> tuple:
    """Whether the printed order `want` can arise from any unrounded error
    pair that prints as (ea, eb); returns (ok, got, lo, hi)."""
    a, b = float(ea), float(eb)
    got = convergence_order([a, b])[0]
    if round(got, 4) == want:
        return True, got, got, got
    ua, ub = _half_ulp(ea), _half_ulp(eb)
    lo = np.log2((a - ua) / (b + ub))
    hi = np.log2((a + ua) / (b - ub))
    # the printed order is itself rounded to 4 decimals, hence the slack
    return lo - 5e-5 <= want <= hi + 5e-5, got, lo, hi


def test_criterion_8_order_arithmetic():
    # exemplar reproduces exactly at 4 decimals
    exemplar = round(convergence_order([0.05906, 0.01446])[0], 4)
    ok = exemplar == 2.0301
    details = [f"log2(0.05906/0.01446) rounds to {exemplar} (want 2.0301)"]
    for errors, printed_orders in PRINTED_TABLES:
        for (ea, eb), want in zip(zip(errors, errors[1:]), printed_orders):
            if (ea, eb) == ("0.4208", "0.1792"):
                continue  # provably irreconcilable; covered separately below
            good, got, lo, hi = _printed_order_attainable(ea, eb, want)
            if not good:
                ok = False
                details.append(
                    f"pair ({ea}, {eb}): recomputed {got:.4f}, printed "
                    f"{want}, attainable range [{lo:.4f}, {hi:.4f}]")
    check("8", ok, "; ".join(details))


def test_criterion_8_inconsistent_pair():
    # Record of an internal inconsistency in the published reference table.
    # The printed errors (0.4208, 0.1792) are rounded to four decimals, so
    # the true order is confined to
    # log2((0.4208 -/+ 5e-5) / (0.1792 +/- 5e-5)) = [1.23099, 1.23214];
    # a value that prints as 1.2322 must be at least 1.23215.  The two
    # intervals do not intersect, so no unrounded error pair consistent
    # with the printed digits can produce the printed order — one of the
    # three printed numbers is off by at least one unit in its last digit.
    good, got, lo, hi = _printed_order_attainable("0.4208", "0.1792", 1.2322)
    want_lo = np.log2((0.4208 - 5e-5) / (0.1792 + 5e-5))
    want_hi = np.log2((0.4208 + 5e-5) / (0.1792 - 5e-5))
    ok = (not good
          and abs(lo - want_lo) <= 1e-12 and abs(hi - want_hi) <= 1e-12
          and hi < 1.2322 - 5e-5
          and round(got, 4) == 1.2316)
    check("8 (published-table inconsistency)", ok,
          f"pair (0.4208, 0.1792): recomputed {got:.4f} (want 1.2316), "
          f"attainable range [{lo:.5f}, {hi:.5f}] lies below 1.23215, the "
          f"least value printed as 1.2322, so the printed order is "
          f"unattainable")
