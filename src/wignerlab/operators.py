"""Velocity mesh and the discrete velocity-space operators.

The velocity grid is offset from zero, v_n = (2n+1)*pi*h, so that division
by v_n is always defined.  At each spatial node the nonlocal coupling is a
real skew-symmetric Toeplitz matrix M with entries M_{nm} = V_w(x, (n-m)dv),
stored as its defining symbol (one value per diagonal) plus the shift vector
a_m = V_w(x, -v_m) sampled on the node lattice itself.

Three operators act on velocity-grid vectors f:

    theta: g = 2*pi*h * M f                     (bounded convolution)
    A:     g_n = (theta f)_n / v_n              (singular as v_n -> 0)
    B:     g_n = 2*pi*h/v_n * sum_m (M_{nm} - a_m) f_m
                                                (regularized; the subtracted
                                                 row makes g_n finite
                                                 uniformly in the mesh)

A and B read the same kernel and are applied matrix-free: M f is one FFT
convolution of length 2*N_v, so nothing of size N_v^2 is formed.  A kernel
may stack the samples of several nodes along a leading axis; the operators
then act on each node's row of f with that node's matrix, which is how the
solver applies the coupling of the whole device at once.  `materialize`
and `operator_norm` work on single-node kernels: the dense matrices give
the norms and are the reference for the FFT products.

`build_theta_kernel` samples one node afresh on every call, with two
`wigner_potential` calls (difference lattice and node lattice); nothing is
cached between calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError, ResourceError
from .potential import PotentialProfile
from .wigner_potential import QuadratureSpec, wigner_potential

__all__ = ["VelocityMesh", "WignerKernel", "build_theta_kernel",
           "apply_theta", "apply_A", "apply_B", "materialize",
           "operator_norm"]

_NORM_SIZE_GUARD = 4096


@dataclass(frozen=True)
class VelocityMesh:
    """Offset velocity grid v_n = (2n+1)*pi*h, n = -N_v/2 .. N_v/2 - 1."""

    n_v: int
    h: float

    def __post_init__(self) -> None:
        if self.n_v < 2 or self.n_v % 2 != 0:
            raise ConfigurationError(
                f"N_v must be even and >= 2, got {self.n_v}")
        if not 0 < self.h < np.inf:
            raise ConfigurationError(
                f"h must be positive and finite, got {self.h}")

    @property
    def dv(self) -> float:
        return 2 * np.pi * self.h

    @property
    def r_h(self) -> float:
        """Coherence length 1/(2h); dv * r_h == pi."""
        return 1.0 / (2 * self.h)

    @property
    def nodes(self) -> np.ndarray:
        n = np.arange(self.n_v) - self.n_v // 2
        return (2 * n + 1) * np.pi * self.h


@dataclass(frozen=True)
class WignerKernel:
    """Sampled coupling data for one spatial node x.

    symbol[k + N_v - 1] = V_w(x, k*dv) for k = -(N_v-1) .. N_v-1; the
    materialized matrix M_{nm} = symbol(n-m) is real, skew-symmetric and
    Toeplitz.  shift[m] = V_w(x, -v_m) satisfies shift[-m-1] = -shift[m].
    Several nodes' kernels stack along a leading axis of both arrays, with
    shapes (nodes, 2*N_v - 1) and (nodes, N_v).
    """

    symbol: np.ndarray
    shift: np.ndarray
    mesh: VelocityMesh


def build_theta_kernel(profile: PotentialProfile, x: float,
                       mesh: VelocityMesh, quad: QuadratureSpec) -> WignerKernel:
    """Sample V_w for one spatial node and package it as a kernel."""
    if not quad.l_y < mesh.r_h:
        raise ConfigurationError(
            f"aliasing guard violated: need L_y < R_h, got "
            f"L_y={quad.l_y} and R_h={mesh.r_h}")
    k = np.arange(-(mesh.n_v - 1), mesh.n_v)
    symbol = wigner_potential(profile, x, k * mesh.dv, quad)
    shift = wigner_potential(profile, x, -mesh.nodes, quad)
    return WignerKernel(symbol=symbol, shift=shift, mesh=mesh)


def _check_length(kernel: WignerKernel, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != kernel.shift.shape:
        raise ContractError(
            f"vector shape {f.shape} does not match the kernel's "
            f"{kernel.shift.shape}")
    return f


def apply_theta(kernel: WignerKernel, f) -> np.ndarray:
    """g = 2*pi*h * M f.

    M is embedded in a circulant matrix of order 2*N_v, whose product with
    the zero-padded f is one real FFT convolution along the last axis.
    """
    f = _check_length(kernel, f)
    n_v = kernel.mesh.n_v
    symbol = kernel.symbol
    # first column of the circulant: M's column, a zero, then M's first row
    # reversed without its diagonal entry
    column = np.concatenate([symbol[..., n_v - 1:],
                             np.zeros(symbol.shape[:-1] + (1,)),
                             symbol[..., :n_v - 1]], axis=-1)
    out = np.fft.irfft(np.fft.rfft(column) * np.fft.rfft(f, 2 * n_v),
                       2 * n_v)[..., :n_v]
    return 2 * np.pi * kernel.mesh.h * out


def apply_A(kernel: WignerKernel, f) -> np.ndarray:
    """g_n = (theta f)_n / v_n."""
    return apply_theta(kernel, f) / kernel.mesh.nodes


def apply_B(kernel: WignerKernel, f) -> np.ndarray:
    """g_n = 2*pi*h/v_n * sum_m (M_{nm} - a_m) f_m.

    The correction is the scalar sum_m a_m f_m, once per node.  On vectors
    even in v it vanishes and B coincides with A.
    """
    f = _check_length(kernel, f)
    correction = np.sum(kernel.shift * f, axis=-1, keepdims=True)
    g = apply_theta(kernel, f)
    g -= 2 * np.pi * kernel.mesh.h * correction
    return g / kernel.mesh.nodes


def _materialize_m(kernel: WignerKernel) -> np.ndarray:
    n_v = kernel.mesh.n_v
    idx = np.subtract.outer(np.arange(n_v), np.arange(n_v)) + n_v - 1
    return kernel.symbol[idx]


def materialize(kernel: WignerKernel, which: str) -> np.ndarray:
    """Dense matrix of the chosen operator: 'M', 'theta', 'A' or 'B'."""
    m = _materialize_m(kernel)
    scale = 2 * np.pi * kernel.mesh.h
    v = kernel.mesh.nodes
    if which == "M":
        return m
    if which == "theta":
        return scale * m
    if which == "A":
        return scale * m / v[:, None]
    if which == "B":
        return scale * (m - kernel.shift[None, :]) / v[:, None]
    raise ContractError(f"unknown operator {which!r}")


def operator_norm(kernel: WignerKernel, which: str) -> float:
    """Spectral norm (2-norm) of the dense materialization of theta, A or B,
    from a full singular value decomposition.

    Under mesh refinement (h -> 0 with the window fixed) the three norms
    behave differently: |theta|_2 <= 2 max|V|; |B|_2 stays uniformly
    bounded; |A|_2 grows like h^(-1/2), i.e. by sqrt(2) per halving of h.
    """
    if kernel.mesh.n_v > _NORM_SIZE_GUARD:
        raise ResourceError(
            f"operator_norm materializes densely; N_v={kernel.mesh.n_v} "
            f"exceeds the guard {_NORM_SIZE_GUARD}")
    return float(np.linalg.norm(materialize(kernel, which), 2))
