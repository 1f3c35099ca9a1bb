import numpy as np
import pytest

from wignerlab.errors import (ConfigurationError, ContractError,
                              ResourceError)
from wignerlab.operators import (VelocityMesh, WignerKernel, apply_A,
                                 apply_B, apply_theta, build_theta_kernel,
                                 materialize, operator_norm)
from wignerlab.potential import PotentialProfile, barrier_profile
from wignerlab.wigner_potential import QuadratureSpec, wigner_potential


@pytest.fixture
def barrier():
    return barrier_profile()


@pytest.fixture
def quad():
    return QuadratureSpec(l_y=4, dy=0.5)


def kernel_at(barrier, quad, x=10.0, n_v=8, h=1 / 16):
    return build_theta_kernel(barrier, x, VelocityMesh(n_v, h), quad)


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


def test_zero_potential_kernel(quad):
    profile = PotentialProfile(segments=())
    kernel = kernel_at(profile, quad)
    np.testing.assert_array_equal(kernel.symbol, 0.0)
    np.testing.assert_array_equal(kernel.shift, 0.0)
    f = np.random.default_rng(1).standard_normal(8)
    np.testing.assert_array_equal(apply_theta(kernel, f), 0.0)
    np.testing.assert_array_equal(apply_A(kernel, f), 0.0)
    np.testing.assert_array_equal(apply_B(kernel, f), 0.0)
    assert operator_norm(kernel, "theta") == 0.0


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


@pytest.mark.parametrize("which,apply", [("A", apply_A), ("B", apply_B)])
def test_stacked_kernel_applies_each_node(barrier, quad, which, apply):
    mesh = VelocityMesh(16, 1 / 64)
    kernels = [build_theta_kernel(barrier, x, mesh, quad)
               for x in (-3.0, -0.7, 0.0, 1.2, 10.0)]
    stacked = WignerKernel(symbol=np.array([k.symbol for k in kernels]),
                           shift=np.array([k.shift for k in kernels]),
                           mesh=mesh)
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
        norm = operator_norm(kernel, "theta")
        assert 0 < norm <= 2 * barrier.max_abs + 1e-8


def test_norm_guard(barrier):
    mesh = VelocityMesh(8192, 1 / 8192)
    kernel = build_theta_kernel(barrier, 10.0, mesh,
                                QuadratureSpec(l_y=4, dy=0.5))
    with pytest.raises(ResourceError):
        operator_norm(kernel, "theta")


def test_unknown_operator_rejected(barrier, quad):
    kernel = kernel_at(barrier, quad)
    with pytest.raises(ContractError):
        materialize(kernel, "C")
