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
node's potential differences and applies A or B through the sine and cosine
factors of `operators`, so a product costs O(N_x N_v N_y) and the system
takes O(N_x N_v) memory.

The upwind stencil is the same for every v of one sign, so the system stores
it once, as the three bands of one lower-triangular matrix of order N_x+1
for v > 0; the v < 0 stencil is its mirror image.  Its exact inverse, the
transport sweep, is one banded triangular solve for both signs of v.  After
the sweep the system is the identity plus the coupling, of rank at most
2*N_y per node whatever N_v is, so the solver runs GMRES in the range of
the coupling: on min(N_v, 2*N_y) unknowns per coupled node.  The
sweep acts along x alone, so it commutes with the products over v, and an
iteration sweeps (N_x+1, 4*N_y) projections of the grid instead of the
grid: its cost does not depend on N_v.  Because the discrete B[V] is
bounded uniformly in the velocity mesh, the number of iterations of the
'improved' scheme does not grow as the mesh is refined either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
# `lu_factor` and `lu_solve` are not called here; the tracer looks them up
from scipy.linalg import lu_factor, lu_solve, solve_banded, solve_triangular

from .errors import ConfigurationError, SolverError
# `materialize` is not called here; the benchmark's tracer looks it up
from .operators import (VelocityMesh, WignerKernel, _thin_factors, apply_A,
                        apply_B, build_theta_kernel, check_memory,
                        materialize)
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
        object.__setattr__(self, "n_x", int(self.n_x))
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
    """Grid function f(x_i, v_n) with its meshes, scheme tag, the kernel its
    solve sampled (`BlockSystem.coupling`, which diagnostics read), solve
    residual and GMRES iteration count."""

    smesh: SpatialMesh
    vmesh: VelocityMesh
    values: np.ndarray  # shape (N_x + 1, N_v)
    scheme: str
    coupling: WignerKernel
    residual: float = 0.0
    iterations: int = 0


@dataclass
class BlockSystem:
    """Block-pentadiagonal system, stored without its dense blocks.

    coupling: every node's kernel, its differences stacked along the leading
          axis; row i of the system subtracts A or B of that node's kernel
          applied to f(x_i, .).
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


def assemble_system(profile: PotentialProfile, smesh: SpatialMesh,
                    vmesh: VelocityMesh, quad: QuadratureSpec,
                    scheme: str, bc: BoundaryConditions) -> BlockSystem:
    """Build the global system for the chosen scheme."""
    if scheme not in ("original", "improved"):
        raise ConfigurationError(f"unknown scheme {scheme!r}")
    n_x, n_v, n_y = smesh.n_x, vmesh.n_v, quad.n_y
    cols = 2 * n_y  # of the thin factors
    # 16 (N_x+1, N_v) work arrays (a solve's tracemalloc peak, net of the
    # Krylov basis and the factors, is 0.3 to 3.2 of them at N_x = 100,
    # N_v = 8192 and N_x = 400, N_v = 2048), every node's differences, the
    # thin factors and their three Q factors, the three E tables, six
    # (N_x+1, 4 N_y) projected arrays, and a Krylov basis of reduced
    # vectors, min(N_v, cols) entries per node
    check_memory(n_v, n_y, 8 * ((n_x + 1) * (16 * n_v + n_y + 6 * 4 * n_y)
                                + 5 * n_v * cols + 3 * cols * 4 * n_y
                                + (MAX_ITERATIONS + 1) * (n_x + 1)
                                * min(n_v, cols)))
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
    coupling = build_theta_kernel(profile, smesh.nodes, vmesh, quad)
    return BlockSystem(coupling=coupling, inflow=inflow, stencil=stencil,
                       rhs=rhs, smesh=smesh, vmesh=vmesh, scheme=scheme)


def _band_product(bands: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for the lower-triangular matrix a whose bands `solve_banded`
    reads from `bands` with (l, u) = (2, 0)."""
    n = bands.shape[1]
    out = np.zeros(x.shape)
    for k in (2, 1, 0):  # the subdiagonal a[j + k, j]
        out[k:] += bands[k, :n - k, None] * x[:n - k]
    return out


def _apply_system(system: BlockSystem, values: np.ndarray) -> np.ndarray:
    """Multiply the block-banded matrix by a grid function.

    The v < 0 stencil is T_- = -D J T_+ J, with J reversing x and D
    negating the inflow row, the last.
    """
    apply_op = apply_A if system.scheme == "original" else apply_B
    half = system.vmesh.n_v // 2
    out = -np.where(system.inflow, 0.0, apply_op(system.coupling, values))
    out[:, half:] += _band_product(system.stencil, values[:, half:])
    neg = _band_product(system.stencil, values[::-1, :half])[::-1]
    neg[:-1] *= -1
    out[:, :half] += neg
    return out


def _gmres(matvec, b: np.ndarray, tol: float) -> tuple[np.ndarray, int]:
    """GMRES (Saad & Schultz 1986) for matvec(x) = b from x0 = 0, until the
    residual norm is at most the absolute tolerance `tol`.

    Arnoldi with classical Gram-Schmidt, orthogonalised twice, and Givens
    rotations on the Hessenberg matrix.  A cycle ends when the rotated
    residual estimate reaches the tolerance; the true residual then decides
    whether to stop or restart from the new iterate.
    """
    x = np.zeros(b.size)
    r = b
    basis = np.empty((MAX_ITERATIONS + 1, b.size))
    iterations = 0
    while True:
        beta = np.linalg.norm(r)
        if beta <= tol:
            return x, iterations
        if iterations == MAX_ITERATIONS:
            # tol is GMRES_TOL times the norm the caller measures against
            raise SolverError(
                f"GMRES did not converge in {iterations} iterations: "
                f"relative residual {GMRES_TOL * beta / tol:.3e}, tolerance "
                f"{GMRES_TOL:.0e}")
        m = MAX_ITERATIONS - iterations
        hess = np.zeros((m + 1, m))
        cs, sn = np.zeros(m), np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        basis[0] = r / beta
        k = 0
        while k < m:
            w = matvec(basis[k])
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
        x = x + y @ basis[:k]
        iterations += k
        r = b - matvec(x)


def solve(system: BlockSystem) -> WignerSolution:
    """Solve the assembled system by GMRES in the range of the coupling.

    The inflow rows are identity rows, so the inflow values are the data;
    the rest solve A f = b, with the data moved to the right-hand side b.
    With T the upwind transport operator (the coupling removed), whose
    inverse is the transport sweep, A T^-1 = I - U V^T: U holds P L at each
    coupled node, with L the node-independent left factor of
    `operators._thin_factors` and P zeroing the inflow rows, and V^T is
    T^-1 followed by each node's weighted right factor.  With one
    Householder QR P L = Q G per row mask (interior, left end, right end),
    f = T^-1 (b + Q c) where

        (I - G V^T Q) c = G V^T b,

    min(N_v, 2 N_y) unknowns per coupled node whatever N_v is (the
    capacitance form of the Woodbury identity; Hager 1989).  GMRES solves
    it from c = 0.  Q has orthonormal columns, so this residual is the true
    residual of A T^-1 y = b at y = b + Q c; GMRES stops when it reaches
    GMRES_TOL times the norm of b, the forcing the data exert on the
    interior rows.  Nodes whose kernel is zero drop out; with none left, c
    is empty and f = T^-1 b after no iteration.

    T^-1 acts along x alone and is the same for every v of one sign, so it
    commutes with the products over v (the mixed-product rule of Kronecker
    products; Van Loan 2000).  With R_s and Q_s the rows of the right
    factor R and of Q where v has the sign s, (V^T Q c) at node i is

        w_i * sum_s sum_j T_s^-1[i, j] E_s c_j,   E_s = Q_s^T R_s,

    with E_s tabulated once per row mask.  An iteration sweeps the
    (N_x+1, 4 N_y) array of the [E_- c_j, E_+ c_j] and costs
    O((coupled nodes) N_y^2) whatever N_v is; only the right-hand side,
    whose products with R are taken once, and f are swept on the grid.
    A and B share R and differ only in L, so both schemes run the same
    iteration.  The two signs share one band solve: T_- = -D J T_+ J, with
    J reversing x and D negating the inflow row, and T_+ reversed in x is
    upper triangular, so LAPACK's band solver has nothing to pivot.

    The right-hand side is divided by the power of two that brings its
    largest entry into [1/2, 1), so that no norm, the residual check's
    included, underflows or overflows; the values are multiplied back, and
    the scaling is exact.  Raises SolverError when GMRES reaches
    MAX_ITERATIONS, an operation overflows or gives NaN, or the relative
    residual of the whole system exceeds RESIDUAL_TOL.
    """
    n_x, half = system.smesh.n_x, system.vmesh.n_v // 2
    band = system.stencil[::-1, ::-1]  # reversed in x: upper triangular

    def sweep(neg: np.ndarray, pos: np.ndarray) -> tuple:  # T^-1
        # with U = J T_+ J, the band: T_-^-1 = U^-1 (-D), T_+^-1 = J U^-1 J
        k = neg.shape[1]
        r = np.empty((n_x + 1, k + pos.shape[1]), order="F")  # in place
        np.negative(neg, out=r[:, :k])
        r[-1, :k] = neg[-1]
        r[:, k:] = pos[::-1]
        z = solve_banded((0, 2), band, r, overwrite_b=True)
        return z[:, :k], z[::-1, k:]

    kernel = system.coupling
    which = "A" if system.scheme == "original" else "B"
    left, right = _thin_factors(kernel, which)
    n_y = right.shape[1] // 2
    width = min(left.shape)
    coupled = np.flatnonzero(kernel.diff.any(axis=-1))
    weights = np.tile(kernel.weights[coupled], 2)

    def products(y: np.ndarray) -> np.ndarray:  # [y_- R_-, y_+ R_+]
        return np.hstack([y[:, :half] @ right[:half],
                          y[:, half:] @ right[half:]])

    blocks = []  # (which coupled nodes, Q, E, G) for each row mask
    for sel in ((coupled > 0) & (coupled < n_x), coupled == 0,
                coupled == n_x):
        if sel.any():
            mask = system.inflow[coupled[sel][0], :, None]
            q, g = np.linalg.qr(np.where(mask, 0.0, left))
            blocks.append((sel, q, products(q.T), g))

    def lift(c: np.ndarray) -> np.ndarray:  # Q c on the grid
        c = c.reshape(coupled.size, width)
        y = np.zeros(system.rhs.shape)
        for sel, q, _, _ in blocks:
            y[coupled[sel]] = c[sel] @ q.T
        return y

    def spread(c: np.ndarray) -> np.ndarray:  # products(lift(c))
        c = c.reshape(coupled.size, width)
        p = np.zeros((n_x + 1, 4 * n_y))
        for sel, _, e, _ in blocks:
            p[coupled[sel]] = c[sel] @ e
        return p

    def reduce(p: np.ndarray) -> np.ndarray:  # G V^T y from p = products(y)
        # the sweep acts along x alone, so it commutes with R
        z_neg, z_pos = sweep(p[:, :2 * n_y], p[:, 2 * n_y:])
        coef = weights * (z_neg + z_pos)[coupled]
        out = np.empty((coupled.size, width))
        for sel, _, _, g in blocks:
            out[sel] = coef[sel] @ g.T
        return out.ravel()

    exponent = np.frexp(np.abs(system.rhs).max())[1]
    rhs = np.ldexp(system.rhs, -exponent)
    data = np.where(system.inflow, rhs, 0.0)
    try:
        with np.errstate(over="raise", invalid="raise"):
            b = rhs - _apply_system(system, data)
            c, iterations = _gmres(lambda c: c - reduce(spread(c)),
                                   reduce(products(b)),
                                   GMRES_TOL * np.linalg.norm(b))
            values = np.hstack(sweep(*np.hsplit(b + lift(c), 2)))
            values[system.inflow] = rhs[system.inflow]
            rhs_norm = np.linalg.norm(rhs)
            res = np.linalg.norm(_apply_system(system, values) - rhs)
            values = np.ldexp(values, exponent)
            values[system.inflow] = system.rhs[system.inflow]
    except FloatingPointError as exc:
        raise SolverError(
            f"solve left the floating-point range: {exc}") from None
    rel = res / rhs_norm if rhs_norm > 0 else res
    if not np.isfinite(rel) or rel > RESIDUAL_TOL:
        raise SolverError(
            f"solve residual {rel:.3e} exceeds tolerance {RESIDUAL_TOL:.0e}")
    return WignerSolution(smesh=system.smesh, vmesh=system.vmesh,
                          values=values, scheme=system.scheme,
                          coupling=system.coupling, residual=rel,
                          iterations=iterations)


def solve_bvp(profile: PotentialProfile, smesh: SpatialMesh,
              vmesh: VelocityMesh, quad: QuadratureSpec, scheme: str,
              bc: BoundaryConditions) -> WignerSolution:
    """Assemble and solve in one call."""
    return solve(assemble_system(profile, smesh, vmesh, quad, scheme, bc))


def solution_to_csv(sol: WignerSolution, path) -> None:
    """Write `x,v,f` rows, one grid point per line, 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,v,f\n")
        vs = sol.vmesh.nodes
        for x, row in zip(sol.smesh.nodes, sol.values):
            for v, f in zip(vs, row):
                fh.write(f"{x:.17g},{v:.17g},{f:.17g}\n")
