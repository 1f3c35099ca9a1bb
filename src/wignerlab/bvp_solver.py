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
transport sweep, is a first-order recurrence along x, run as a prefix scan
for both signs of v.  After the sweep the system is the identity plus the
coupling, of rank at most 2*N_y per node whatever N_v is, so the solver runs
GMRES in the range of the coupling: on at most min(N_v, 2*N_y) unknowns per
coupled node.  They share one QR of the coupling's left factor, the inflow
ends too, whose inflow rows the reduced products zero; the velocity mesh is
symmetric, so the QR splits by v-parity and only its v > 0 rows are formed
and factored.  The sweep acts along x alone, so it commutes with the
products over v, and an iteration sweeps (N_x+1, 4*N_y) projections of the
grid instead of the grid: its cost does not depend on N_v.  Because the
discrete B[V] is bounded uniformly in the velocity mesh, the number of
iterations of the 'improved' scheme does not grow as the mesh is refined
either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
# `lu_factor` and `lu_solve` are not called here; the tracer looks them up
from scipy.linalg import lu_factor, lu_solve, solve_triangular

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
          three bands of a lower-triangular matrix a of order N_x+1: row k
          holds the k-th subdiagonal, a[j + k, j] in column j.  `_sweep`
          reads its ratio a_2/a_0 = 1/3 from here.
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
    # Krylov basis, the S and C tables and the factors, is 2.4 to 3.8 of
    # them at N_x = 100, N_v = 8192 and 65536 and at N_x = 400,
    # N_v = 2048), the sweep's temporary (at most half of one) among them;
    # every node's differences; four (N_v/2, cols) arrays:
    # the v > 0 rows of the thin factors, Q_1|Q_2 and a copy made while
    # they are factored; E and G, of at most cols rows and 3 cols columns
    # together; six (N_x+1, 4 N_y) projected arrays; and a Krylov basis of
    # reduced vectors, at most min(N_v, cols) entries per node
    check_memory(n_v, n_y, 8 * ((n_x + 1) * (16 * n_v + n_y + 6 * 4 * n_y)
                                + 4 * (n_v // 2) * cols + 3 * cols * cols
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
    """a @ x for the lower-triangular matrix a whose three bands are
    stored in `bands` as `BlockSystem.stencil` stores them."""
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


def _sweep(stencil: np.ndarray, z: np.ndarray, sign: float = 1.0) -> None:
    """Overwrite z with the transport sweep T_+^-1 of every column of z (x
    along the first axis), taken after multiplying its rows past the first
    by `sign`.

    T_- = -D J T_+ J, with J reversing x and D negating the inflow row, so
    J T_-^-1 y is this sweep of J y with sign -1.  T_+ is lower triangular
    with rows summing to zero past the inflow row 0, so with
    u_i = z_i - z_{i-1} its rows i >= 2 read a_0 u_i - a_2 u_{i-1} = b_i,
    a_0 the diagonal and a_2 the second subdiagonal of `stencil`, and row 1
    reads d_1 u_1 = b_1.  The first-order recurrence
    u_i = (a_2/a_0) u_{i-1} + b_i/a_0 is a prefix scan, run by recursive
    doubling (Kogge & Stone, IEEE Trans. Comput. C-22, 1973): after the
    step of shift s, u_i sums the 2s latest terms.  a_2/a_0 = 1/3, so the
    steps stop once (a_2/a_0)^s is below roundoff; then z = b_0 + cumsum(u).
    """
    a_0 = stencil[0, 2]
    ratio = stencil[2, 0] / a_0
    z[1] *= sign / stencil[0, 1]
    z[2:] *= sign / a_0
    step = 1
    while step < len(z) - 1 and ratio ** step > np.finfo(float).eps:
        z[step + 1:] += ratio ** step * z[1:-step]
        step *= 2
    # the cumulative sum row by row: np.cumsum along the first axis walks
    # each column apart, about 20 times slower at N_v = 65536
    for prev, row in zip(z[:-1], z[1:]):
        row += prev


def _parity_factors(left: np.ndarray) -> tuple:
    """Householder QR L = Q G of the coupling's left factor L, shared by
    every coupled node, from the v > 0 rows `left` of L alone.

    The mesh is symmetric, v_{-n-1} = -v_n, so with J reversing the v > 0
    half, L's v < 0 rows are J L_+ diag(I, -I): its first N_y columns are
    even in v and the rest odd (`operators.operator_norm`).  So
    L = [J L_1+, -J L_2+; L_1+, L_2+], whose two column groups are
    orthogonal; with sqrt(2) L_g+ = Q_g G_g, the group is
    [+-J Q_g; Q_g]/sqrt(2) times G_g, two QRs of order at most N_y
    (Cantoni & Butler, Linear Algebra Appl. 13, 1976).

    Returns (q, g, neg): Q = [J q diag(neg); q] and G = g, with neg the
    signs, 1 or -1, of Q's columns in its v < 0 rows.
    """
    n_y = left.shape[1] // 2
    q_1, g_1 = np.linalg.qr(left[:, :n_y])
    q_2, g_2 = np.linalg.qr(left[:, n_y:])
    q = np.hstack([q_1, q_2]) / np.sqrt(2)
    g = np.zeros((q.shape[1], 2 * n_y))
    g[:len(g_1), :n_y] = np.sqrt(2) * g_1
    g[len(g_1):, n_y:] = np.sqrt(2) * g_2
    return q, g, np.repeat([1.0, -1.0], [len(g_1), len(g_2)])


def _gmres(matvec, b: np.ndarray, tol: float) -> tuple[np.ndarray, int]:
    """GMRES (Saad & Schultz 1986) for matvec(x) = b from x0 = 0, until the
    residual norm is at most the absolute tolerance `tol`.

    Arnoldi with classical Gram-Schmidt, orthogonalised twice, and Givens
    rotations on the Hessenberg matrix, run on Python floats.  A cycle ends
    when the rotated residual estimate reaches the tolerance; the true
    residual then decides whether to stop or restart from the new iterate.
    """
    x = np.zeros(b.size)
    r = b
    basis = np.empty((MAX_ITERATIONS + 1, b.size))
    iterations = 0
    while True:
        beta = float(np.linalg.norm(r))
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
        cs, sn, g = [], [], [beta]
        basis[0] = r / beta
        k = 0
        while k < m:
            w = matvec(basis[k])
            for _ in range(2):
                h = basis[:k + 1] @ w
                w -= h @ basis[:k + 1]
                hess[:k + 1, k] += h
            norm = float(np.linalg.norm(w))
            col = hess[:k + 1, k].tolist() + [norm]
            for j in range(k):
                col[j], col[j + 1] = (cs[j] * col[j] + sn[j] * col[j + 1],
                                      cs[j] * col[j + 1] - sn[j] * col[j])
            # numpy's hypot: math.hypot may round the last bit otherwise
            rho = float(np.hypot(col[k], col[k + 1]))
            cs.append(col[k] / rho)
            sn.append(col[k + 1] / rho)
            col[k], col[k + 1] = rho, 0.0
            hess[:k + 2, k] = col
            g.append(-sn[k] * g[k])
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
    the rest solve A f = b, with the data moved to the right-hand side b,
    whose inflow rows are then zero.  With T the upwind transport operator
    (the coupling removed), whose inverse is the transport sweep,
    A T^-1 = I - P L V^T: L is the left factor of `operators._thin_factors`
    at each coupled node, the same at all of them, P zeroes the inflow
    rows, and V^T is T^-1 followed by each node's weighted right factor.
    With the QR L = Q G (`_parity_factors`), f = T^-1 (b + P Q c) where

        (I - G V^T P Q) c = G V^T b,

    on the 2 min(N_v/2, N_y) columns of Q per coupled node, whatever N_v is
    (the capacitance form of the Woodbury identity; Hager 1989).  GMRES
    solves it from c = 0.  The true residual of A T^-1 y = b at
    y = b + P Q c is P Q times the reduced one, and ||P Q|| <= 1 (Q has
    orthonormal columns), so GMRES's stop at GMRES_TOL times the norm of
    b, the forcing the data exert on the interior rows, bounds it too.
    Nodes whose kernel is zero drop out; with none left, c is empty and
    f = T^-1 b after no iteration.

    T^-1 acts along x alone and is the same for every v of one sign, so it
    commutes with the products over v (the mixed-product rule of Kronecker
    products; Van Loan 2000).  With R_s and Q_s the rows of the right
    factor R = [C, S] and of Q where v has the sign s, node i of V^T Q c is

        w_i * sum_s sum_j T_s^-1[i, j] E_s c_j,   E_s = Q_s^T R_s,

    with E_+ tabulated once from R_+ alone and E_- = diag(neg) E_+
    diag(parity), R's parity being that of C (even) and S (odd).  An
    iteration sweeps the (N_x+1, 4 N_y) array of the [E_- c_j, E_+ c_j]
    and costs O((coupled nodes) N_y^2) whatever N_v is; only the
    right-hand side, whose products with R are taken once, and f are swept
    on the grid.  The array's v < 0 half runs backwards in x, so
    its row 0 holds both inflow rows, node 0's v > 0 half and node N_x's
    v < 0 half: P zeroes that row.  A and B share R and differ only in L,
    so both schemes run the same iteration.  The sweep (`_sweep`) is a
    prefix scan along x for both signs of v (T_- = -D J T_+ J), in place.

    The right-hand side is divided by the power of two that brings its
    largest entry into [1/2, 1), so that no norm, the residual check's
    included, underflows or overflows; the values are multiplied back, and
    the scaling is exact.  Raises SolverError when GMRES reaches
    MAX_ITERATIONS, an operation overflows or gives NaN, or the relative
    residual of the whole system exceeds RESIDUAL_TOL.
    """
    n_x, half = system.smesh.n_x, system.vmesh.n_v // 2
    kernel = system.coupling
    which = "A" if system.scheme == "original" else "B"
    left, right = _thin_factors(kernel, which, rows=slice(half, None))
    n_y = right.shape[1] // 2
    parity = np.repeat([1.0, -1.0], n_y)  # of R's columns, C even, S odd
    coupled = np.flatnonzero(kernel.diff.any(axis=-1))
    weights = np.tile(kernel.weights[coupled], 2)
    q, g, neg = _parity_factors(left)
    e = q.T @ right  # E_+; E_- = diag(neg) E_+ diag(parity)
    e = np.hstack([-neg[:, None] * e * parity, e])

    # Arrays p of products with R hold [J (-D) y_- R_-, y_+ R_+], the
    # layout `_sweep` takes with sign 1 for both halves, and E is
    # [-J E_-, E_+] to match: D negates row 0 of p, which P zeroes.
    def spread(c: np.ndarray) -> np.ndarray:  # p of y = P Q c
        x = c.reshape(-1, len(g)) @ e
        p = np.zeros((n_x + 1, 4 * n_y))
        p[n_x - coupled, :2 * n_y] = x[:, :2 * n_y]
        p[coupled, 2 * n_y:] = x[:, 2 * n_y:]
        p[0] = 0.0  # P
        return p

    def reduce(p: np.ndarray) -> np.ndarray:  # G V^T y from p of y
        # the sweep acts along x alone, so it commutes with R
        _sweep(system.stencil, p)
        z = p[::-1, :2 * n_y] + p[:, 2 * n_y:]
        return ((weights * z[coupled]) @ g.T).ravel()

    exponent = np.frexp(np.abs(system.rhs).max())[1]
    rhs = np.ldexp(system.rhs, -exponent)
    try:
        with np.errstate(over="raise", invalid="raise"):
            b = rhs - _apply_system(system,
                                    np.where(system.inflow, rhs, 0.0))
            p = np.empty((n_x + 1, 4 * n_y))  # of b; R_- = J R_+ diag(parity)
            p[:, 2 * n_y:] = b[:, half:] @ right
            p[::-1, :2 * n_y] = (b[:, :half] @ right[::-1]) * -parity
            c, iterations = _gmres(lambda c: c - reduce(spread(c)),
                                   reduce(p), GMRES_TOL * np.linalg.norm(b))
            c = c.reshape(-1, len(g))  # y = b + P Q c
            b[coupled, :half] += ((neg * c) @ q.T)[:, ::-1]
            b[coupled, half:] += c @ q.T
            b[0, half:] = b[n_x, :half] = 0.0  # P; b is zero there
            _sweep(system.stencil, b[::-1, :half], -1.0)
            _sweep(system.stencil, b[:, half:])
            values = b
            values[system.inflow] = rhs[system.inflow]
            rhs_norm = np.linalg.norm(rhs)
            res = np.linalg.norm(_apply_system(system, values) - rhs)
            np.ldexp(values, exponent, out=values)
            values[system.inflow] = system.rhs[system.inflow]
    except (FloatingPointError, ZeroDivisionError) as exc:
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
