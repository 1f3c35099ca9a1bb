"""Assembly and iterative solution of the stationary transport boundary-value
problem.

Unknowns are grouped by spatial node (x-major), velocity index ascending
inside each block.  Every interior row states

    (upwind d/dx of f)(x_i, v_n) = (Op f)(x_i, v_n)

with a second-order upwind stencil in x and Op one of the two velocity
operators (singular 'original' scheme: A; regularized 'improved' scheme: B).
Inflow rows are identities pinning the prescribed boundary data; outflow
values remain unknowns.  The resulting matrix is block pentadiagonal with
*diagonal* off-diagonal blocks.  Its diagonal blocks, the stencil's diagonal
minus the node's velocity operator, are never formed: the system keeps each
node's sampled kernel and applies A or B with the FFT products of
`operators`, so a product costs O(N_x N_v log N_v) and the system takes
O(N_x N_v) memory.

The upwind stencil is the same for every v of one sign, so the system stores
it once, as the three bands of one lower-triangular matrix of order N_x+1
for v > 0; the v < 0 stencil is its mirror image.  The solver is GMRES
preconditioned on the right by the transport sweep, the exact inverse of
that stencil: one banded triangular solve per sign of v.  Because the
discrete B[V] is bounded uniformly in the velocity mesh, the number of
iterations of the 'improved' scheme does not grow as the mesh is refined.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
# `lu_factor` and `lu_solve` are not called here; the tracer looks them up
from scipy.linalg import lu_factor, lu_solve, solve_banded, solve_triangular

from .errors import ConfigurationError, ResourceError, SolverError
# `materialize` is not called here; the benchmark's tracer looks it up
from .operators import (VelocityMesh, WignerKernel, apply_A, apply_B,
                        build_theta_kernel, materialize)
from .potential import PotentialProfile
from .wigner_potential import QuadratureSpec

__all__ = ["SpatialMesh", "BoundaryConditions", "WignerSolution",
           "BlockSystem", "assemble_system", "solve", "solve_bvp",
           "solution_to_csv"]

RESIDUAL_TOL = 1e-10
GMRES_TOL = 1e-13
MAX_ITERATIONS = 300


@dataclass(frozen=True)
class SpatialMesh:
    """Uniform grid x_i = -l/2 + i*dx, i = 0..N_x, on the device [-l/2, l/2]."""

    length: float
    n_x: int

    def __post_init__(self) -> None:
        if not (self.n_x >= 4 and self.n_x % 1 == 0):
            raise ConfigurationError(
                f"N_x must be an integer of at least 4 for the upwind "
                f"stencil, got {self.n_x}")
        if not 0 < self.length < np.inf:
            raise ConfigurationError(
                f"device length must be positive and finite, got "
                f"{self.length}")

    @property
    def dx(self) -> float:
        return self.length / self.n_x

    @property
    def nodes(self) -> np.ndarray:
        return -self.length / 2 + self.dx * np.arange(self.n_x + 1)


@dataclass(frozen=True)
class BoundaryConditions:
    """Inflow data: f_left(v) applies at x = -l/2 for v > 0, f_right(v) at
    x = +l/2 for v < 0."""

    f_left: Callable[[np.ndarray], np.ndarray]
    f_right: Callable[[np.ndarray], np.ndarray]


@dataclass
class WignerSolution:
    """Grid function f(x_i, v_n) with its meshes, scheme tag, solve residual
    and GMRES iteration count."""

    smesh: SpatialMesh
    vmesh: VelocityMesh
    values: np.ndarray  # shape (N_x + 1, N_v)
    scheme: str
    residual: float = 0.0
    iterations: int = 0


@dataclass
class BlockSystem:
    """Block-pentadiagonal system, stored without its dense blocks.

    coupling: every node's kernel, stacked along the leading axis; row i of
          the system subtracts A or B of that node's kernel applied to
          f(x_i, .).
    inflow: the inflow rows, shape (N_x+1, N_v); they are identity rows, so
          the coupling is left out of them.
    stencil: the upwind d/dx for v > 0, identity on the inflow row, as the
          bands of a lower-triangular matrix of order N_x+1 in the storage
          of `solve_banded` with (l, u) = (2, 0): row k holds the k-th
          subdiagonal, a[j + k, j] in column j.
    rhs:  right-hand side, shape (N_x+1, N_v).
    """

    coupling: WignerKernel
    inflow: np.ndarray
    stencil: np.ndarray
    rhs: np.ndarray
    smesh: SpatialMesh
    vmesh: VelocityMesh
    scheme: str


def _check_memory(n_x: int, n_v: int) -> None:
    """Refuse a system whose Krylov basis and stacked kernel samples (a
    symbol of 2*N_v - 1 and a shift of N_v values per node) would not fit in
    physical memory."""
    need = 8 * (n_x + 1) * (n_v * (MAX_ITERATIONS + 1) + 3 * n_v - 1)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ResourceError(
            f"N_x={n_x}, N_v={n_v} needs {need / 2**30:.1f} GiB for the "
            f"Krylov basis and the kernel samples; physical memory is "
            f"{have / 2**30:.1f} GiB")


def assemble_system(profile: PotentialProfile, smesh: SpatialMesh,
                    vmesh: VelocityMesh, quad: QuadratureSpec,
                    scheme: str, bc: BoundaryConditions) -> BlockSystem:
    """Build the global system for the chosen scheme."""
    if scheme not in ("original", "improved"):
        raise ConfigurationError(f"unknown scheme {scheme!r}")
    n_x, n_v = smesh.n_x, vmesh.n_v
    _check_memory(n_x, n_v)
    dx = smesh.dx
    v = vmesh.nodes
    pos = v > 0
    neg = ~pos

    stencil = np.zeros((3, n_x + 1))
    stencil[0] = 3 / (2 * dx)
    stencil[1, 1:-1] = -2 / dx
    stencil[2, :-2] = 1 / (2 * dx)
    stencil[0, :2] = 1.0, 1 / dx  # inflow identity; first-order row 1
    stencil[1, 0] = -1 / dx
    rhs = np.zeros((n_x + 1, n_v))
    rhs[0, pos] = bc.f_left(v[pos])
    rhs[n_x, neg] = bc.f_right(v[neg])
    inflow = np.zeros((n_x + 1, n_v), dtype=bool)
    inflow[0, pos] = inflow[n_x, neg] = True
    kernels = [build_theta_kernel(profile, x, vmesh, quad)
               for x in smesh.nodes]
    coupling = WignerKernel(symbol=np.array([k.symbol for k in kernels]),
                            shift=np.array([k.shift for k in kernels]),
                            mesh=vmesh)
    return BlockSystem(coupling=coupling, inflow=inflow, stencil=stencil,
                       rhs=rhs, smesh=smesh, vmesh=vmesh, scheme=scheme)


def _stencils(system: BlockSystem) -> tuple:
    """((l, u), bands, velocity columns) of the upwind stencil for each sign
    of v, in the band storage of `solve_banded`.

    The v < 0 stencil is the v > 0 one mirrored: x reversed and negated,
    except the inflow identity row, which keeps +1.
    """
    half = system.vmesh.n_v // 2
    mirror = -system.stencil[::-1, ::-1]
    mirror[2, -1] = 1.0
    return (((2, 0), system.stencil, np.s_[:, half:]),
            ((0, 2), mirror, np.s_[:, :half]))


def _band_product(l_and_u: tuple, bands: np.ndarray,
                  x: np.ndarray) -> np.ndarray:
    """a @ x for the matrix a whose bands `solve_banded` reads from `bands`."""
    lower, upper = l_and_u
    n = bands.shape[1]
    out = np.zeros(x.shape)
    for k in range(-lower, upper + 1):  # the diagonal a[i, i + k]
        rows = slice(max(0, -k), n - max(0, k))
        cols = slice(max(0, k), n - max(0, -k))
        out[rows] += bands[upper - k, cols, None] * x[cols]
    return out


def _apply_system(system: BlockSystem, values: np.ndarray) -> np.ndarray:
    """Multiply the block-banded matrix by a grid function."""
    apply_op = apply_A if system.scheme == "original" else apply_B
    out = -np.where(system.inflow, 0.0, apply_op(system.coupling, values))
    for l_and_u, bands, cols in _stencils(system):
        out[cols] += _band_product(l_and_u, bands, values[cols])
    return out


def _gmres(matvec, precond, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Right-preconditioned GMRES (Saad & Schultz 1986) from x0 = M b.

    Arnoldi with classical Gram-Schmidt, orthogonalised twice, and Givens
    rotations on the Hessenberg matrix.  A cycle ends when the rotated
    residual estimate reaches the tolerance; the true residual then decides
    whether to stop or restart from the new iterate.
    """
    b_norm = np.linalg.norm(b)
    tol = GMRES_TOL * b_norm
    x = precond(b)
    basis = np.empty((MAX_ITERATIONS + 1, b.size))
    iterations = 0
    while True:
        r = b - matvec(x)
        beta = np.linalg.norm(r)
        if beta <= tol:
            return x, iterations
        if iterations == MAX_ITERATIONS:
            raise SolverError(
                f"GMRES did not converge in {iterations} iterations: "
                f"relative residual {beta / b_norm:.3e}, tolerance "
                f"{GMRES_TOL:.0e}")
        m = MAX_ITERATIONS - iterations
        hess = np.zeros((m + 1, m))
        cs, sn = np.zeros(m), np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        basis[0] = r / beta
        k = 0
        while k < m:
            w = matvec(precond(basis[k]))
            for _ in range(2):
                h = basis[:k + 1] @ w
                w -= h @ basis[:k + 1]
                hess[:k + 1, k] += h
            norm = np.linalg.norm(w)
            col = hess[:, k]
            col[k + 1] = norm
            for j in range(k):
                col[j], col[j + 1] = (cs[j] * col[j] + sn[j] * col[j + 1],
                                      cs[j] * col[j + 1] - sn[j] * col[j])
            rho = np.hypot(col[k], col[k + 1])
            cs[k], sn[k] = col[k] / rho, col[k + 1] / rho
            col[k], col[k + 1] = rho, 0.0
            g[k + 1] = -sn[k] * g[k]
            g[k] *= cs[k]
            k += 1
            if abs(g[k]) <= tol or norm == 0:
                break
            basis[k] = w / norm
        y = solve_triangular(hess[:k, :k], g[:k])
        x = x + precond(y @ basis[:k])
        iterations += k


def solve(system: BlockSystem) -> WignerSolution:
    """Solve the assembled system by transport-preconditioned GMRES.

    The inflow rows are identity rows, so the inflow values are the data.
    GMRES solves for the rest with the data moved to the right-hand side,
    and stops when the true residual reaches GMRES_TOL times the norm of
    that right-hand side: the forcing the data exert on the interior rows,
    whose size the interior equations have.  The preconditioner M is the
    exact inverse of the upwind transport operator with the velocity
    coupling removed: one banded triangular solve per sign of v, on all
    velocity columns of that sign at once.  Raises SolverError when GMRES
    reaches MAX_ITERATIONS or the relative residual of the whole system
    exceeds RESIDUAL_TOL.
    """
    shape = system.rhs.shape
    stencils = _stencils(system)

    def precond(r: np.ndarray) -> np.ndarray:
        r = r.reshape(shape)
        z = np.empty(shape)
        for l_and_u, bands, cols in stencils:
            z[cols] = solve_banded(l_and_u, bands, r[cols])
        return z.ravel()

    def matvec(x: np.ndarray) -> np.ndarray:
        return _apply_system(system, x.reshape(shape)).ravel()

    data = np.where(system.inflow, system.rhs, 0.0)
    z, iterations = _gmres(matvec, precond,
                           (system.rhs - _apply_system(system, data)).ravel())
    values = z.reshape(shape)
    values[system.inflow] = system.rhs[system.inflow]

    rhs_norm = np.linalg.norm(system.rhs)
    res = np.linalg.norm(_apply_system(system, values) - system.rhs)
    rel = res / rhs_norm if rhs_norm > 0 else res
    if not np.isfinite(rel) or rel > RESIDUAL_TOL:
        raise SolverError(
            f"solve residual {rel:.3e} exceeds tolerance {RESIDUAL_TOL:.0e}")
    return WignerSolution(smesh=system.smesh, vmesh=system.vmesh,
                          values=values, scheme=system.scheme, residual=rel,
                          iterations=iterations)


def solve_bvp(profile: PotentialProfile, smesh: SpatialMesh,
              vmesh: VelocityMesh, quad: QuadratureSpec, scheme: str,
              bc: BoundaryConditions) -> WignerSolution:
    """Assemble and solve in one call."""
    return solve(assemble_system(profile, smesh, vmesh, quad, scheme, bc))


def solution_to_csv(sol: WignerSolution, target) -> None:
    """Write `x,v,f` rows, one grid point per line, 17 significant digits."""
    own = isinstance(target, (str, bytes))
    fh = open(target, "w", encoding="utf-8") if own else target
    try:
        fh.write("x,v,f\n")
        vs = sol.vmesh.nodes
        for x, row in zip(sol.smesh.nodes, sol.values):
            for v, f in zip(vs, row):
                fh.write(f"{x:.17g},{v:.17g},{f:.17g}\n")
    finally:
        if own:
            fh.close()
