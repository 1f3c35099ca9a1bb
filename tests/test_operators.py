import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import wignerlab.cli as cli
from wignerlab import operators
from wignerlab.bvp_solver import SpatialMesh
from wignerlab.cli import load_config, run_norms
from wignerlab.errors import (ConfigurationError, ContractError,
                              ResourceError, SolverError)
from wignerlab.operators import (VelocityMesh, _parity, _thin_factors,
                                 apply_A, apply_B, apply_theta,
                                 build_theta_kernel, materialize,
                                 one_blas_thread, operator_norm)
from wignerlab.potential import (PotentialProfile, barrier_profile,
                                 potential_difference)
from wignerlab.wigner_potential import QuadratureSpec, wigner_potential

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture
def barrier():
    return barrier_profile()


@pytest.fixture
def quad():
    return QuadratureSpec(l_y=4, dy=0.5)


@pytest.fixture
def blas():
    """The get and set functions of the thread count of numpy's OpenBLAS,
    the count before the test restored after it."""
    blas = operators._openblas()
    if blas is None:
        pytest.skip("numpy bundles no OpenBLAS")
    before = blas[0]()
    yield blas
    blas[1](before)


def kernel_at(barrier, quad, x=10.0, n_v=8, h=1 / 16):
    return build_theta_kernel(barrier, x, VelocityMesh(n_v, h), quad)


def full_height_tables(kernel):
    # S and C on every velocity and all N_y offsets, independent of the
    # kernel's tables on v > 0 and its live offsets
    phase = np.multiply.outer(kernel.mesh.nodes, kernel.quad.offsets)
    return np.sin(phase), np.cos(phase)


def full_weights(kernel):
    # the diagonal of W on all N_y offsets, from the differences
    return -(kernel.quad.dy / np.pi) * kernel.diff


def dense_norm(m):
    # the largest singular value of m, as the square root of the largest
    # eigenvalue of M^T M: a full SVD of m takes about three times as long
    # at N_v = 2048, and the two agree to 1e-14 relative.  M is m scaled by
    # the power of two that brings its largest entry into [1/2, 1), exactly,
    # so that M^T M neither underflows nor overflows whatever the scale of m.
    e = np.frexp(np.abs(m).max())[1]
    m = np.ldexp(m, -e)
    return np.ldexp(np.sqrt(np.linalg.eigvalsh(m.T @ m)[-1]), e)


def full_height_factors(kernel, which, weights=1.0):
    # L and R of `_thin_factors` on every velocity and all N_y offsets,
    # from the full tables; `weights` on all N_y offsets too
    sin, cos = full_height_tables(kernel)
    left = np.hstack([sin * weights,
                      (1 - cos if which == "B" else -cos) * weights])
    left *= 2 * np.pi * kernel.mesh.h
    if which != "theta":
        left /= kernel.mesh.nodes[:, None]
    return left, np.hstack([cos, sin])


class TestVelocityMesh:
    def test_tiny_mesh_nodes(self):
        mesh = VelocityMesh(4, 1 / (2 * np.pi))
        np.testing.assert_allclose(mesh.nodes, [-1.5, -0.5, 0.5, 1.5])
        assert mesh.dv == pytest.approx(1.0)
        assert mesh.r_h == pytest.approx(np.pi)

    def test_window_inside_pi(self):
        mesh = VelocityMesh(64, 1 / 64)
        assert mesh.r_h == 32
        assert mesh.dv == pytest.approx(np.pi / 32)
        assert np.all(np.abs(mesh.nodes) < np.pi)

    def test_fine_mesh(self):
        mesh = VelocityMesh(128, 1 / 4096)
        assert mesh.r_h == 2048
        assert mesh.dv == pytest.approx(np.pi / 2048)

    def test_nodes_never_zero_and_symmetric(self):
        mesh = VelocityMesh(32, 0.013)
        v = mesh.nodes
        assert np.all(v != 0.0)
        assert np.all(np.diff(v) > 0)
        np.testing.assert_array_equal(v, -v[::-1])
        assert mesh.dv * mesh.r_h == pytest.approx(np.pi)

    def test_invalid_meshes_rejected(self):
        with pytest.raises(ConfigurationError):
            VelocityMesh(7, 0.1)
        with pytest.raises(ConfigurationError):
            VelocityMesh(0, 0.1)
        with pytest.raises(ConfigurationError):
            VelocityMesh(8, -0.1)


def test_aliasing_guard_names_both_quantities(barrier):
    mesh = VelocityMesh(8, 1 / 16)  # R_h = 8
    with pytest.raises(ConfigurationError) as err:
        build_theta_kernel(barrier, 0.0, mesh, QuadratureSpec(l_y=31, dy=0.5))
    assert "31" in str(err.value) and "8" in str(err.value)


def test_kernel_matches_double_loop_oracle(barrier, quad):
    kernel = kernel_at(barrier, quad)
    mesh = kernel.mesh
    m = materialize(kernel, "M")
    for n in range(mesh.n_v):
        for k in range(mesh.n_v):
            want = wigner_potential(barrier, 10.0, (n - k) * mesh.dv, quad)
            assert m[n, k] == pytest.approx(want, abs=1e-13)
    for k in range(mesh.n_v):
        want = wigner_potential(barrier, 10.0, -mesh.nodes[k], quad)
        assert kernel.shift[k] == pytest.approx(want, abs=1e-13)


def test_skew_symmetry_exact(barrier, quad):
    m = materialize(kernel_at(barrier, quad, x=3.3), "M")
    np.testing.assert_array_equal(m + m.T, np.zeros_like(m))


def test_toeplitz_exact(barrier, quad):
    m = materialize(kernel_at(barrier, quad, x=3.3, n_v=16), "M")
    np.testing.assert_array_equal(m[1:, 1:], m[:-1, :-1])


def test_symbol_and_shift_odd(barrier, quad):
    kernel = kernel_at(barrier, quad, x=7.1, n_v=16)
    np.testing.assert_array_equal(kernel.symbol, -kernel.symbol[::-1])
    assert np.abs(kernel.shift + kernel.shift[::-1]).max() <= 1e-14


@pytest.mark.parametrize("n_v", [64, 512, 4096])
def test_shift_is_minus_sine_table_times_weights(n_v):
    # -a = S w at every node because V_w is odd in v; the factored B, whose
    # row -a joins the -C W S^T term of M as (1 - C) W S^T, rests on it.
    cfg = load_config(CONFIG_DIR / "conv_v.cfg")
    nodes = SpatialMesh(cfg.device_length, cfg.n_x).nodes
    kernel = build_theta_kernel(cfg.profile(), nodes,
                                VelocityMesh(n_v, 1 / n_v), cfg.quad())
    sin, _ = kernel.tables  # the v > 0 rows; S is odd
    sin = np.vstack([-sin[::-1], sin])
    bound = 1e-14 * np.abs(kernel.shift).max()
    assert bound > 0
    assert np.abs(kernel.shift + kernel.weights @ sin.T).max() <= bound


@pytest.mark.parametrize("n_v", [2, 64, 4096, 65536])
@pytest.mark.parametrize("l_y, dy", [(31, 0.5), (31, 1.0), (64, 1.0)])
def test_half_tables_mirror_the_full_tables_bitwise(n_v, l_y, dy):
    # The kernel holds S and C on v > 0 alone, and every product reads
    # their v < 0 rows by `_parity`.  That reproduces the full tables to
    # the bit only if the mesh is symmetric, S odd and C even, to the last
    # bit.  The committed configs' quadratures, at a node where a step
    # makes D_V = 1 at every offset, so the kernel keeps all N_y.
    kernel = build_theta_kernel(PotentialProfile(segments=((0, 100, 1),)),
                                0.0, VelocityMesh(n_v, 1 / max(n_v, 256)),
                                QuadratureSpec(l_y=l_y, dy=dy))
    half, n_y = n_v // 2, kernel.quad.n_y
    np.testing.assert_array_equal(kernel.diff, 1.0)
    np.testing.assert_array_equal(kernel.live, np.arange(n_y))
    assert kernel.tables[0].shape == (half, n_y)
    v = kernel.mesh.nodes
    np.testing.assert_array_equal(v[:half], -v[half:][::-1])
    sin, cos = full_height_tables(kernel)
    np.testing.assert_array_equal(kernel.tables[0], sin[half:])
    np.testing.assert_array_equal(kernel.tables[1], cos[half:])
    np.testing.assert_array_equal(sin[:half], -sin[half:][::-1])
    np.testing.assert_array_equal(cos[:half], cos[half:][::-1])
    right = np.hstack([cos, sin])  # R = [C, S], mirrored by `_parity`
    np.testing.assert_array_equal(right[:half],
                                  right[half:][::-1] * _parity(n_y, n_y))


@pytest.mark.parametrize("config, n_x, n_live", [("conv_x", 25, 53),
                                                  ("conv_v", 100, 31),
                                                  ("norms", None, 13)])
def test_kernel_keeps_its_live_offsets(config, n_x, n_live):
    # The tables and weights hold the offsets where D_V is nonzero at some
    # node alone, the columns of the full ones there, bitwise: conv_x.cfg's
    # 50-long device keeps y > 53 out of the barrier's reach from every
    # node (53 of 64 kept), conv_v.cfg reaches it at all 31 offsets, and
    # norms.cfg's node x = 10 at 13 of 62.
    cfg = load_config(CONFIG_DIR / f"{config}.cfg")
    x = (cfg.norm_position if n_x is None
         else SpatialMesh(cfg.device_length, n_x).nodes)
    kernel = build_theta_kernel(cfg.profile(), x,
                                VelocityMesh(cfg.n_v, cfg.h), cfg.quad())
    live = np.flatnonzero(
        kernel.diff.reshape(-1, cfg.quad().n_y).any(axis=0))
    assert len(live) == n_live
    np.testing.assert_array_equal(kernel.live, live)
    np.testing.assert_array_equal(np.delete(kernel.diff, live, axis=-1), 0.0)
    half = cfg.n_v // 2
    sin, cos = full_height_tables(kernel)
    np.testing.assert_array_equal(kernel.tables[0], sin[half:, live])
    np.testing.assert_array_equal(kernel.tables[1], cos[half:, live])
    np.testing.assert_array_equal(kernel.weights,
                                  full_weights(kernel)[..., live])
    assert kernel.weights.shape == kernel.diff.shape[:-1] + (n_live,)


def test_zero_potential_kernel(quad):
    profile = PotentialProfile(segments=())
    kernel = kernel_at(profile, quad)
    np.testing.assert_array_equal(kernel.symbol, 0.0)
    np.testing.assert_array_equal(kernel.shift, 0.0)
    f = np.random.default_rng(1).standard_normal(8)
    np.testing.assert_array_equal(apply_theta(kernel, f), 0.0)
    np.testing.assert_array_equal(apply_A(kernel, f), 0.0)
    np.testing.assert_array_equal(apply_B(kernel, f), 0.0)
    assert operator_norm(kernel) == {"theta": 0.0, "A": 0.0, "B": 0.0}


@pytest.mark.parametrize("n_v", [4, 8, 64, 256])
def test_fast_matvec_matches_naive(barrier, quad, n_v):
    kernel = kernel_at(barrier, quad, x=1.0, n_v=n_v, h=1 / 1024)
    assert np.abs(kernel.symbol).max() > 0
    rng = np.random.default_rng(n_v)
    for _ in range(10):
        f = rng.standard_normal(n_v)
        fast = apply_theta(kernel, f)
        naive = materialize(kernel, "theta") @ f
        assert np.abs(fast - naive).max() <= 1e-12 * max(
            1.0, np.abs(naive).max())


def test_vectorized_sampling_matches_one_node_kernels(barrier, quad):
    # nodes from -3 to 3 by 0.25 put x +- y/2 on the barrier's edges
    mesh = VelocityMesh(16, 1 / 64)
    nodes = np.linspace(-3.0, 3.0, 25).reshape(5, 5)
    stacked = build_theta_kernel(barrier, nodes, mesh, quad)
    one_node = [[build_theta_kernel(barrier, x, mesh, quad) for x in row]
                for row in nodes]
    assert stacked.diff.shape == (5, 5, quad.n_y)
    np.testing.assert_array_equal(
        stacked.diff, [[k.diff for k in row] for row in one_node])
    np.testing.assert_array_equal(
        stacked.shift, [[k.shift for k in row] for row in one_node])
    assert np.abs(stacked.shift).max() > 0


@pytest.mark.parametrize("which,apply", [("theta", apply_theta),
                                         ("A", apply_A), ("B", apply_B)])
def test_stacked_kernel_applies_each_node(barrier, quad, which, apply):
    mesh = VelocityMesh(16, 1 / 64)
    nodes = np.array([-3.0, -0.7, 0.0, 1.2, 10.0])
    kernels = [build_theta_kernel(barrier, x, mesh, quad) for x in nodes]
    stacked = build_theta_kernel(barrier, nodes, mesh, quad)
    f = np.random.default_rng(5).standard_normal((len(kernels), 16))
    want = np.array([materialize(k, which) @ row
                     for k, row in zip(kernels, f)])
    assert np.abs(want).max() > 0
    assert np.abs(apply(stacked, f) - want).max() <= 1e-12
    with pytest.raises(ContractError):
        apply(stacked, f[0])
    with pytest.raises(ContractError):
        apply(stacked, f[:-1])


def test_apply_theta_length_mismatch(barrier, quad):
    kernel = kernel_at(barrier, quad)
    with pytest.raises(ContractError):
        apply_theta(kernel, np.ones(5))


def test_apply_b_matches_dense_oracle(barrier, quad):
    kernel = kernel_at(barrier, quad, x=1.0)
    assert np.abs(kernel.shift).max() > 0
    m = materialize(kernel, "M")
    dense = 2 * np.pi * kernel.mesh.h * (
        m - np.outer(np.ones(8), kernel.shift)) / kernel.mesh.nodes[:, None]
    rng = np.random.default_rng(7)
    for _ in range(5):
        f = rng.standard_normal(8)
        assert np.abs(apply_B(kernel, f) - dense @ f).max() <= 1e-13


def test_a_equals_b_on_even_vectors(barrier, quad):
    kernel = kernel_at(barrier, quad, x=1.0, n_v=16, h=1 / 64)
    rng = np.random.default_rng(3)
    half = rng.standard_normal(8)
    f = np.concatenate([half[::-1], half])  # f_m = f_{-m-1}
    a = apply_A(kernel, f)
    b = apply_B(kernel, f)
    scale = max(1.0, np.abs(a).max())
    assert np.abs(a - b).max() <= 1e-12 * scale


def test_theta_norm_bounded_by_twice_potential(barrier, quad):
    # at x = 1 the kernel is nonzero (it vanishes at x = 10 for Ly = 4)
    for h in (1 / 32, 1 / 64, 1 / 256):
        kernel = kernel_at(barrier, quad, x=1.0, n_v=32, h=h)
        norm = operator_norm(kernel)["theta"]
        assert 0 < norm <= 2 * barrier.max_abs + 1e-8


@pytest.mark.parametrize("which", ["theta", "A", "B"])
@pytest.mark.parametrize("n_v", [64, 512, 2048])
@pytest.mark.parametrize("x", [1.0, 10.0])
def test_factored_norm_matches_dense_svd(which, n_v, x):
    # norms.cfg's barrier and quadrature at the window N_v = 2 R_h
    kernel = build_theta_kernel(barrier_profile(), x,
                                VelocityMesh(n_v, 1 / n_v),
                                QuadratureSpec(l_y=31, dy=0.5))
    # the largest singular value of the dense matrix (`dense_norm`)
    dense = dense_norm(materialize(kernel, which))
    assert dense > 0
    assert abs(operator_norm(kernel)[which] - dense) <= 1e-12 * dense


def full_height_norm(kernel, which):
    # the norm on every velocity: the 2-norm of the product of the QR
    # triangles of the whole thin factors, of order at most 2 N_y + 1.  B
    # is built in its sampled form, A's factors with the column 2 pi h / v
    # paired with -a, so it checks the factored 1 - C independently.
    left, right = full_height_factors(
        kernel, "A" if which == "B" else which, full_weights(kernel))
    if which == "B":
        scale = 2 * np.pi * kernel.mesh.h / kernel.mesh.nodes
        left = np.column_stack([left, scale])
        right = np.column_stack([right, -kernel.shift])
    core = np.linalg.qr(left, mode="r") @ np.linalg.qr(right, mode="r").T
    return np.linalg.norm(core, 2)


def weighted_group_norms(kernel):
    # the norms as seven QRs give them: each of theta's, A's and B's two
    # left groups on the live offsets weighted before its QR, as
    # (table * w) * 2 pi h, then divided by v for A and B, paired with the
    # triangle of C or S; A's and B's first groups are one, so seven of the
    # eight QRs are distinct
    sin, cos = kernel.tables
    v = kernel.mesh.nodes[kernel.mesh.n_v // 2:, None]
    right = [np.linalg.qr(table, mode="r") for table in (cos, sin)]
    norms = {}
    for which in ("theta", "A", "B"):
        groups = []
        for g, table in enumerate((sin, 1 - cos if which == "B" else -cos)):
            left = table * kernel.weights
            left *= 2 * np.pi * kernel.mesh.h
            if which != "theta":
                left /= v
            groups.append(np.linalg.norm(
                np.linalg.qr(left, mode="r") @ right[g].T, 2))
        norms[which] = 2 * max(groups)
    return norms


@pytest.mark.parametrize("r_h", [32, 256, 2048])
def test_norm_matches_weighted_group_qrs(r_h):
    # norms.cfg's kernel: weighting the five tables' triangles instead of
    # the N_v/2-row groups changes the norms at roundoff only
    cfg = load_config(CONFIG_DIR / "norms.cfg")
    kernel = build_theta_kernel(cfg.profile(), cfg.norm_position,
                                VelocityMesh(2 * r_h, 1 / (2 * r_h)),
                                cfg.quad())
    want = weighted_group_norms(kernel)
    norms = operator_norm(kernel)
    for which in ("theta", "A", "B"):
        assert want[which] > 0
        assert abs(norms[which] - want[which]) <= 1e-14 * want[which]


@pytest.mark.parametrize("which", ["theta", "A", "B"])
@pytest.mark.parametrize("n_v", [2, 8, 64, 1024])
@pytest.mark.parametrize("x", [1.3, 15.0])
def test_parity_split_norm_matches_full_height_triangles(which, n_v, x):
    # norms.cfg's barrier and quadrature (N_y = 62); N_v/2 < N_y makes the
    # triangles of both forms wide.  The first weight is nonzero at x = 1.3
    # and the last at x = 15, so a column moved across the two parity
    # groups changes the norm.
    cfg = load_config(CONFIG_DIR / "norms.cfg")
    kernel = build_theta_kernel(cfg.profile(), x,
                                VelocityMesh(n_v, 1 / max(n_v, 64)),
                                cfg.quad())
    assert kernel.diff[0 if x < 10 else -1] != 0
    want = full_height_norm(kernel, which)
    assert want > 0
    assert abs(operator_norm(kernel)[which] - want) <= 1e-13 * want


@settings(max_examples=60, deadline=None)
@given(segments=st.lists(st.tuples(st.floats(-12, 12), st.floats(0, 6),
                                   st.floats(-1, 1).filter(
                                       lambda v: abs(v) >= 1e-300)),
                         max_size=3),
       x=st.floats(-15, 15), n_v=st.sampled_from([2, 4, 8, 16, 32, 64, 128]),
       n_y=st.integers(1, 24), dy=st.sampled_from([0.25, 0.5, 1.0]),
       window=st.floats(1.01, 4))
# no live offset: a constant potential
@example(segments=[], x=0.0, n_v=8, n_y=8, dy=0.5, window=2.0)
# one live offset, y = 4 of eight: only x + y/2 = 2 meets the segment
@example(segments=[(1.8, 0.4, 0.7)], x=0.0, n_v=16, n_y=8, dy=1.0,
         window=2.0)
# seven live offsets on N_v/2 = 2 positive velocities: wide triangles
@example(segments=[(-1.5, 3.0, 0.2)], x=1.0, n_v=4, n_y=8, dy=0.5,
         window=2.0)
# values whose M^T M underflows unless M is scaled first
@example(segments=[(0.0, 1.0, 8.6e-179)], x=0.0, n_v=2, n_y=1, dy=1.0,
         window=2.0)
@example(segments=[(-1.5, 3.0, -1e-300)], x=1.0, n_v=64, n_y=24, dy=0.25,
         window=4.0)
def test_live_offset_norm_matches_dense_on_random_profiles(
        segments, x, n_v, n_y, dy, window):
    # piecewise-constant profiles (segments as start, width, value) at a
    # random node: the norm on the node's live offsets against the dense
    # sampled operator's largest singular value (`dense_norm`), and against
    # the seven weighted-group QRs (`weighted_group_norms`).  Values range
    # in magnitude from 1 down to 1e-300.
    profile = PotentialProfile(
        segments=tuple((a, a + w, v) for a, w, v in segments))
    quad = QuadratureSpec(l_y=n_y * dy, dy=dy)
    kernel = build_theta_kernel(profile, x,
                                VelocityMesh(n_v, 1 / (2 * window * quad.l_y)),
                                quad)
    live = np.count_nonzero(kernel.diff)
    norms = operator_norm(kernel)
    weighted = weighted_group_norms(kernel) if live else None
    for which in ("theta", "A", "B"):
        m = materialize(kernel, which)
        norm = norms[which]
        if live == 0:
            np.testing.assert_array_equal(m, 0.0)
            assert norm == 0.0
            continue
        dense = dense_norm(m)
        assert abs(norm - dense) <= 1e-12 * dense
        assert abs(norm - weighted[which]) <= 1e-14 * weighted[which]


@pytest.mark.parametrize("r_h", [64, 2048, 32768])
def test_b_left_factor_bounded_uniformly(r_h):
    # norms.cfg's kernel: |sin(v y)| and |1 - cos(v y)| are at most |v| y,
    # so B's left factor is at most 2 pi h L_y whatever v is, while A's
    # -2 pi h cos(v y) / v reaches 2 at the smallest velocity, v = pi h,
    # and the smallest y.  At x = 10 only y = 17 ... 23 are live, so that
    # reach is a property of the full-height factor on all N_y offsets;
    # the package's factors are its columns on the live offsets, bitwise.
    cfg = load_config(CONFIG_DIR / "norms.cfg")
    kernel = build_theta_kernel(cfg.profile(), cfg.norm_position,
                                VelocityMesh(2 * r_h, 1 / (2 * r_h)),
                                cfg.quad())
    bound = 2 * np.pi * kernel.mesh.h * cfg.quad().l_y
    live = np.flatnonzero(kernel.diff)
    np.testing.assert_array_equal(cfg.quad().offsets[live],
                                  np.arange(17.0, 23.5, 0.5))
    full = {w: full_height_factors(kernel, w)[0] for w in ("A", "B")}
    for which, left in full.items():
        np.testing.assert_array_equal(
            _thin_factors(kernel, which)[0],
            left[r_h:, np.r_[live, cfg.quad().n_y + live]])
    assert np.abs(full["B"]).max() <= bound * (1 + 1e-14)
    assert np.abs(full["A"]).max() >= 1.9


@pytest.mark.parametrize("n_nodes", [3, 8])
def test_norm_of_stacked_kernel_rejected(barrier, quad, n_nodes):
    # a stack of nodes has no one norm; with as many nodes as velocities
    # (8) its weights would broadcast along v without an error
    kernel = build_theta_kernel(barrier, np.linspace(-3.0, 3.0, n_nodes),
                                VelocityMesh(8, 1 / 16), quad)
    with pytest.raises(ContractError):
        operator_norm(kernel)


def test_norm_memory_guard_counts_the_factors(monkeypatch):
    # 36 MiB of physical memory: norms.cfg at R_h = 32768 (N_v = 65536)
    # passes the guard's 31 MiB of S and C tables (the v > 0 rows, counted
    # on all 62 offsets), but not the 10.0 MiB of a half-height live table
    # (13 of the 62 offsets) and its QR copies on top
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 36 * 2 ** 8}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    cfg = load_config(CONFIG_DIR / "norms.cfg")
    kernel = build_theta_kernel(cfg.profile(), cfg.norm_position,
                                VelocityMesh(65536, 1 / 65536), cfg.quad())
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError):
            operator_norm(kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_norm_memory_guard_covers_the_peak(monkeypatch):
    # norms.cfg at R_h = 32768: the guard's count is at least the call's
    # tracemalloc peak, with the tables formed in the call, and its count
    # above the tables is at least the peak of a call on formed tables
    counts = []
    check = operators.check_memory

    def counted(n_v, n_y, extra=0):
        counts.append((8 * n_y * (n_v + 2), extra))
        check(n_v, n_y, extra)

    cfg = load_config(CONFIG_DIR / "norms.cfg")
    kernel = build_theta_kernel(cfg.profile(), cfg.norm_position,
                                VelocityMesh(65536, 1 / 65536), cfg.quad())
    monkeypatch.setattr(operators, "check_memory", counted)
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            operator_norm(kernel)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    (tables, extra), again = counts
    assert again == (tables, extra)
    assert tables + extra >= peaks[0] > peaks[1] > 2 ** 20
    assert extra >= peaks[1]


def test_norms_level_factors_five_blocks(monkeypatch, tmp_path):
    # the weights scale the triangles, so only the five weight-free tables
    # are factored: R's C and S and the three distinct groups of A's and
    # B's L, each of the N_v/2 = R_h positive velocities and the node's live
    # offsets; the four products of triangles go to one batched SVD
    calls = {"qr": [], "svd": []}

    def spy(name):
        call = getattr(np.linalg, name)

        def counted(a, *args, **kwargs):
            calls[name].append(a.shape)
            return call(a, *args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(np.linalg, name, spy(name))
    cfg = load_config(CONFIG_DIR / "norms.cfg")
    run_norms(cfg, tmp_path)
    nnz = np.count_nonzero(potential_difference(
        cfg.profile(), cfg.norm_position, cfg.quad().offsets))
    assert nnz == 13 < cfg.quad().n_y
    assert calls["qr"] == [(r_h, nnz) for r_h in cfg.levels
                           for _ in range(5)]
    assert calls["svd"] == [(4, nnz, nnz)] * len(cfg.levels)


def test_norms_level_calls_operator_norm_once(monkeypatch, tmp_path):
    # one call per R_h level for all three norms, through the module
    # attribute `cli.operator_norm` that the benchmark's tracer wraps
    calls = []
    norm = cli.operator_norm

    def counted(kernel):
        calls.append(kernel.mesh.n_v)
        return norm(kernel)

    monkeypatch.setattr(cli, "operator_norm", counted)
    cfg = load_config(CONFIG_DIR / "norms.cfg")
    rows = run_norms(cfg, tmp_path)
    assert calls == [2 * r_h for r_h in cfg.levels]
    assert [row["r_h"] for row in rows] == list(cfg.levels)


@pytest.mark.parametrize("r_h", [32, 256])
def test_norm_independent_of_the_order_asked(r_h):
    # each norm of one call is bitwise 2 max_g |T_L,g W T_R,g^T|_2, each
    # product's 2-norm taken on its own, from the QR triangles of the five
    # weight-free tables on the live columns (D_V != 0) alone: C and S, and
    # S, C and 1 - C times 2 pi h / v.  theta's left group is S, with 2 pi h
    # in W; its second block is minus the transpose of its first.
    cfg = load_config(CONFIG_DIR / "norms.cfg")
    kernel = build_theta_kernel(cfg.profile(), cfg.norm_position,
                                VelocityMesh(2 * r_h, 1 / (2 * r_h)),
                                cfg.quad())
    sin, cos = kernel.tables
    assert sin.shape == (r_h, np.count_nonzero(kernel.diff))
    dv, w = kernel.mesh.dv, kernel.weights
    scale = dv / kernel.mesh.nodes[r_h:, None]
    t_c, t_s, t_sv, t_cv, t_bv = (
        np.linalg.qr(table, mode="r")
        for table in (cos, sin, sin * scale, cos * scale, (1 - cos) * scale))

    def norm(left, right):
        return float(np.linalg.norm(left @ right.T, 2))

    a_0 = norm(t_sv * w, t_c)
    want = {"theta": 2 * norm(t_s * (dv * w), t_c),
            "A": 2 * max(a_0, norm(t_cv * w, t_s)),
            "B": 2 * max(a_0, norm(t_bv * w, t_s))}
    assert all(value > 0 for value in want.values())
    assert operator_norm(kernel) == want
    theta_1 = 2 * norm(-t_c * (dv * w), t_s)
    assert abs(theta_1 - want["theta"]) <= 1e-15 * want["theta"]


def test_norm_asymptotics_at_scale():
    # norms.cfg's kernel at R_h = 2048 ... 16384 (N_v to 32768): |A|_2 grows
    # towards sqrt(2) per halving of h, |B|_2 stays put, |theta|_2 is
    # bounded by 2 max|V|
    cfg = load_config(CONFIG_DIR / "norms.cfg")
    rows = []
    for r_h in (2048, 4096, 8192, 16384):
        kernel = build_theta_kernel(cfg.profile(), cfg.norm_position,
                                    VelocityMesh(2 * r_h, 1 / (2 * r_h)),
                                    cfg.quad())
        norms = operator_norm(kernel)
        rows.append([norms[w] for w in ("theta", "A", "B")])
    theta, a, b = np.array(rows).T
    deviation = np.abs(a[1:] / a[:-1] / np.sqrt(2) - 1)
    assert np.all(deviation <= 0.01)
    assert np.all(np.diff(deviation) < 0)
    assert b.max() / b.min() - 1 <= 1e-8
    assert np.all(theta <= 2 * cfg.profile().max_abs)


def test_norms_past_the_dense_reach():
    # norms.cfg's kernel at R_h = 2048, 4096 and 8192: N_v up to 16384,
    # where the dense operator alone would take 2 GiB.
    cfg = load_config(CONFIG_DIR / "norms.cfg")
    rows = []
    for r_h in (2048, 4096, 8192):
        kernel = build_theta_kernel(cfg.profile(), cfg.norm_position,
                                    VelocityMesh(2 * r_h, 1 / (2 * r_h)),
                                    cfg.quad())
        norms = operator_norm(kernel)
        rows.append([norms[w] for w in ("theta", "A", "B")])
    theta, a, b = np.array(rows).T
    assert np.all(theta <= 2 * cfg.profile().max_abs)
    assert b.max() / b.min() <= 2
    growth = a[1:] / a[:-1]
    assert np.all(np.abs(growth / np.sqrt(2) - 1) <= 0.2)


def test_unknown_operator_rejected(barrier, quad):
    kernel = kernel_at(barrier, quad)
    with pytest.raises(ContractError):
        materialize(kernel, "C")


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_one_blas_thread_restores_the_callers_count(blas, threads):
    get, set_ = blas
    set_(threads)
    with one_blas_thread():
        assert get() == 1
    assert get() == threads
    with pytest.raises(ZeroDivisionError), one_blas_thread():
        assert get() == 1
        1 / 0
    assert get() == threads


def test_norms_run_on_one_blas_thread(blas, barrier, quad, monkeypatch):
    # every QR of the five, and the caller's two threads after them, also
    # when the norm overflows: |V| = 4e307 keeps D_V finite, but A's factor
    # product leaves the range (test_overflowing_norm_exits_with_solver_error)
    get, set_ = blas
    seen = []
    qr = np.linalg.qr

    def spy(a, mode):
        seen.append(get())
        return qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", spy)
    set_(2)
    operator_norm(kernel_at(barrier, quad, x=1.0))
    assert seen == [1] * 5 and get() == 2
    huge = PotentialProfile(segments=((-1.0, 1.0, 4e307),))
    with pytest.raises(SolverError, match="A norm"):
        operator_norm(build_theta_kernel(huge, 1.0, VelocityMesh(64, 1 / 64),
                                         QuadratureSpec(l_y=8, dy=1.0)))
    assert get() == 2


def test_norms_without_openblas(barrier, quad, monkeypatch):
    # with no OpenBLAS found the block runs as it is
    norms = operator_norm(kernel_at(barrier, quad, x=1.0))
    monkeypatch.setattr(operators, "_openblas", lambda: None)
    assert operator_norm(kernel_at(barrier, quad, x=1.0)) == norms
