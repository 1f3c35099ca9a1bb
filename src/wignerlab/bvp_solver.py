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
factors of `operators` on the kernel's live offsets J, those y_j where
D_V(x_i, y_j) is nonzero at some node, so a product costs O(N_x N_v |J|)
and the system takes O(N_x N_v) memory.

The upwind stencil is the same for every v of one sign, so the system stores
it once, as the three bands of one lower-triangular matrix of order N_x+1
for v > 0; the v < 0 stencil is its mirror image.  Its exact inverse, the
transport sweep, is a block forward substitution along x, by 32 rows, for
both signs of v.  After the sweep the system is the identity plus the
coupling L diag(w_i, w_i) R^T at node i, with thin factors L and R the same
at every node, so the solver runs GMRES on the nodes' weighted moments
diag(w_i, w_i) R^T f_i: two per nonzero potential difference D_V(x_i, y_j),
at most 2*|J| per node whatever N_v is, the inflow ends included, whose
inflow rows the reduced products zero.  L and R have 2*|J| columns, so the
table H_+ of the products of their v > 0 rows has order 2*|J|.  The
velocity mesh is symmetric, so only the v > 0 rows of L and R are formed,
and the v < 0 table is H_+ with the signs of the columns' parity on both
sides: an iteration multiplies the moments by H_+'s two groups of |J|
rows, half the flops of one product with both tables.  The sweep acts
along x alone, so it commutes with the products over v, and an iteration
sweeps at most (N_x+1, 4*|J|) projections of the grid instead of the
grid, with the moments put in and read out through flat index maps
formed once per solve: its cost does not depend on N_v.  Because the
discrete B[V] is bounded uniformly in the velocity mesh, the number of
iterations of the 'improved' scheme does not grow as the mesh is refined
either.

`solve` runs on one OpenBLAS thread (`operators.one_blas_thread`) and
gives the caller's thread count back on return.  An iteration's products
are a few MFLOP at most, too small for a second thread to gain on, and
its worker spins while it waits, so two threads doubled a study's CPU time
for no shorter wall time.  The second thread also splits sums, which
rounds them differently: the iterates, the iteration count at the
roundoff floor and the residual depended on the thread count, and on one
thread they do not.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Callable

import numpy as np
# the benchmark's tracer looks up `lu_factor` and `lu_solve`, not called here
from scipy.linalg import lu_factor, lu_solve

from .errors import ConfigurationError, SolverError
# `materialize` is not called here; the benchmark's tracer looks it up
from .operators import (VelocityMesh, WignerKernel, _apply, _mirror,
                        _parity, _project, _thin_factors, build_theta_kernel,
                        check_memory, materialize, one_blas_thread)
from .potential import PotentialProfile
from .wigner_potential import QuadratureSpec

__all__ = ["SpatialMesh", "BoundaryConditions", "WignerSolution",
           "BlockSystem", "assemble_system", "solve", "solve_bvp",
           "solution_to_csv"]

RESIDUAL_TOL = 1e-10
GMRES_TOL = 1e-13
MAX_ITERATIONS = 300
_BLOCK = 32  # sweep rows; 16 was slower at N_x = 25, 64 from N_x = 100 on
# scheme -> the velocity operator its rows subtract; the one table of
# schemes, which the CLI's `both` runs in this order
_OPERATORS = {"original": "A", "improved": "B"}


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
    stencil: the upwind d/dx for v > 0, identity on the inflow row, as the
          three bands of a lower-triangular matrix a of order N_x+1: row k
          holds the k-th subdiagonal, a[j + k, j] in column j.  `solve`
          forms the sweep's blocks from it (`_sweep_blocks`).
    data: the inflow data, shape (2, N_v/2): row 0 is f_left on v > 0 at
          x = -l/2, row 1 f_right on v < 0 at x = +l/2.  They sit on the
          inflow rows, the identity rows [0, N_v/2:] and [N_x, :N_v/2] of
          the grid, from which the coupling is left out; the right-hand
          side is zero on every other row.  `solve` sweeps them as they
          are: the transport sweep carries them along x, and keeps them on
          the inflow rows.
    """

    coupling: WignerKernel
    stencil: np.ndarray
    data: np.ndarray
    smesh: SpatialMesh
    vmesh: VelocityMesh
    scheme: str


def assemble_system(profile: PotentialProfile, smesh: SpatialMesh,
                    vmesh: VelocityMesh, quad: QuadratureSpec,
                    scheme: str, bc: BoundaryConditions) -> BlockSystem:
    """Build the global system for the chosen scheme."""
    if scheme not in _OPERATORS:
        raise ConfigurationError(f"unknown scheme {scheme!r}")
    n_x, n_v, n_y = smesh.n_x, vmesh.n_v, quad.n_y
    cols = 2 * n_y  # of the thin factors
    # 6 (N_x+1, N_v) work arrays, 2.0 to 2.2 times a solve's tracemalloc
    # peak (2.7 to 3.0 of them at N_x = 100, N_v = 8192 and 65536 and at
    # N_x = 400, N_v = 2048): the solution, the residual check's product,
    # one band and its own thin factors, and the sweep's slab of 32 rows;
    # every node's differences, counted before any is sampled; two
    # (N_v/2, cols) arrays, the v > 0 rows of the thin factors; H_+ and the
    # two Gram matrices, within 3 cols^2; seven (N_x+1, 4 N_y) arrays of
    # the iteration, whose live moments number at most (N_x+1) cols: the
    # projections p, the moment grid and its two products (one and a
    # half), the index maps `scatter` and `gather`, three int arrays of one
    # entry per live moment, with the weights and signs there (two and a
    # half), and one product's gathered pair and result (two); and a Krylov
    # basis of reduced vectors, at most cols live per node
    check_memory(n_v, n_y, 8 * ((n_x + 1) * (6 * n_v + n_y + 7 * 4 * n_y)
                                + 2 * (n_v // 2) * cols + 3 * cols * cols
                                + (MAX_ITERATIONS + 1) * (n_x + 1) * cols))
    dx = smesh.dx
    v, half = vmesh.nodes, n_v // 2  # v > 0 on [half:]

    stencil = np.zeros((3, n_x + 1))
    stencil[0] = 3 / (2 * dx)
    stencil[1, 1:-1] = -2 / dx
    stencil[2, :-2] = 1 / (2 * dx)
    stencil[0, :2] = 1.0, 1 / dx  # inflow identity; first-order row 1
    stencil[1, 0] = -1 / dx
    data = np.stack([bc.f_left(v[half:]), bc.f_right(v[:half])])
    coupling = build_theta_kernel(profile, smesh.nodes, vmesh, quad)
    return BlockSystem(coupling=coupling, stencil=stencil, data=data,
                       smesh=smesh, vmesh=vmesh, scheme=scheme)


def _apply_system(system: BlockSystem, values: np.ndarray) -> np.ndarray:
    """Multiply the block-banded matrix by a grid function in one work
    grid: the coupling product, negated, takes the stencil's bands one at a
    time, subtracted on the reversed v < 0 half as T_- = -D J T_+ J (J
    reverses x, D negates the inflow row, the last); the inflow rows are
    identity rows, set last."""
    n, half = system.smesh.n_x + 1, system.vmesh.n_v // 2
    out = _apply(system.coupling, values, _OPERATORS[system.scheme])
    np.negative(out, out=out)
    neg, flipped = out[::-1, :half], values[::-1, :half]
    for k in (2, 1, 0):  # the subdiagonal a[j + k, j]
        band = system.stencil[k, :n - k, None]
        out[k:, half:] += band * values[:n - k, half:]
        neg[k:] -= band * flipped[:n - k]
    out[0, half:], out[n - 1, :half] = values[0, half:], values[n - 1, :half]
    return out


def _sweep_blocks(stencil: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_sweep`'s matrices of order 32: the inverse of T_+'s leading block,
    and [-a_2 X e_0, a_2 X e_0, X], X an interior block's inverse.  Rows 2
    on are row 2 shifted and rows 1 on sum to zero, so X is Toeplitz and the
    leading inverse is X, its column 0 ones, its column 1 times a_0/a_11."""
    a_0, a_1, a_2 = stencil[0, 2], stencil[1, 1], stencil[2, 0]  # of row 2
    c = [0.0, 1 / a_0]  # X e_0 from row -1; numpy scalars obey np.errstate
    while len(c) <= _BLOCK:  # forward substitution
        c.append(-(a_1 * c[-1] + a_2 * c[-2]) / a_0)
    r = np.arange(_BLOCK)
    interior = np.tril(np.array(c[1:])[r[:, None] - r])
    lead = interior * np.r_[1.0, a_0 / stencil[0, 1], np.ones(_BLOCK - 2)]
    lead[:, 0] = 1.0
    carry = a_2 * interior[:, :1]
    return lead, np.hstack([-carry, carry, interior])


def _sweep(blocks: tuple[np.ndarray, np.ndarray], z: np.ndarray) -> None:
    """Overwrite z with the transport sweep T_+^-1 of every column of z (x
    along the first axis).  T_- = -D J T_+ J (J reverses x, D negates the
    inflow row), so J T_-^-1 y is this sweep of J (-D) y: a v < 0 half is
    swept as a reversed view, its rows past the inflow row negated.  Block
    forward substitution (Golub & Van Loan, Matrix Computations, 3.1) by
    32 rows on `_sweep_blocks`: block k > 0 is X (b_k - C z_{k-1}), C the
    carry of z_{k-1}'s last rows z'', z', and as T_+'s rows sum to zero,
    -X C z_{k-1} = z' + a_2 (z' - z'') X e_0.  Adding z' last rounds z once;
    no carry of order z/dx cancels in z."""
    lead, step = blocks
    # BLAS takes positive strides: a reversed z goes by reversed slabs
    flip = slice(None, None, -1 if z.strides[0] < 0 else 1)
    slab = np.empty((min(len(z), _BLOCK), z.shape[1]))
    for s in range(0, len(z), _BLOCK):
        m = min(_BLOCK, len(z) - s)
        block, rows, last = ((lead[:m, :m], slice(0, m), 0.0) if s == 0 else
                             (step[:m, :m + 2], slice(s - 2, s + m), z[s - 1]))
        np.matmul(block[flip, flip], z[rows][flip], out=slab[:m])
        np.add(slab[:m], last, out=z[s:s + m][flip])


def _coupling_products(left: np.ndarray,
                       right: np.ndarray) -> tuple[np.ndarray, float]:
    """The product H_+ = L_+^T R_+ of the v > 0 rows `left` and `right` of
    the coupling's thin factors L and R, and the spectral norm of L, from
    those rows alone.

    The mesh is symmetric, v_{-n-1} = -v_n, so with J reversing the v > 0
    half, the v < 0 rows of L and of R are J L_+ P and J R_+ P, with
    P = diag(I, -I): the first half of the columns of each is even in v
    and the rest odd (`operators._parity`).  So H_- = L_-^T R_- is
    P H_+ P, H_+ with its off-diagonal parity blocks negated, and
    L = [J L_1+, -J L_2+; L_1+, L_2+], whose two column groups are
    orthogonal, has ||L||_2 = sqrt(2) max_g ||L_g+||_2 (Cantoni & Butler,
    Linear Algebra Appl. 13, 1976); each ||L_g+||_2 is the square root of
    the largest eigenvalue of the Gram matrix L_g+^T L_g+, of order n_j,
    the number of the kernel's live offsets, at least one.  Both Gram
    matrices go to one `eigvalsh` call.
    """
    n_j = right.shape[1] // 2
    grams = np.stack([left[:, g].T @ left[:, g]
                      for g in (slice(None, n_j), slice(n_j, None))])
    gram = np.linalg.eigvalsh(grams)[:, -1].max()
    return left.T @ right, float(np.sqrt(2 * gram))


def _gmres(matvec, b: np.ndarray, tol: float) -> tuple[np.ndarray, int]:
    """GMRES (Saad & Schultz 1986) for matvec(x) = b from x0 = 0, until the
    residual norm is at most the absolute tolerance `tol`, or until a
    restart makes no progress.

    Arnoldi with classical Gram-Schmidt, orthogonalised twice, and Givens
    rotations on the Hessenberg matrix, run on Python floats.  A cycle ends
    when the rotated residual estimate reaches the tolerance; the true
    residual then decides whether to stop or restart from the new iterate.
    A restart whose true residual is not below the previous cycle's
    starting residual has met the floor that roundoff sets: the iterate is
    returned, and the caller's check of the whole system decides.
    """
    x = np.zeros(b.size)
    r = b
    basis = np.empty((MAX_ITERATIONS + 1, b.size))
    iterations = 0
    previous = np.inf  # the last cycle's starting residual
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
        if beta >= previous:
            return x, iterations
        previous = beta
        m = MAX_ITERATIONS - iterations
        hess = np.zeros((m + 1, m))
        cs, sn, g = [], [], [beta]
        basis[0] = r / beta
        k = 0
        while k < m:
            w = matvec(basis[k])
            h = basis[:k + 1] @ w
            w -= h @ basis[:k + 1]
            again = basis[:k + 1] @ w
            w -= again @ basis[:k + 1]
            norm = math.sqrt(w @ w)  # np.linalg.norm's sum, bit for bit
            col = (h + again).tolist() + [norm]
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
        y = np.linalg.solve(hess[:k, :k], g[:k])
        x = x + y @ basis[:k]
        iterations += k
        r = b - matvec(x)


@one_blas_thread()
def solve(system: BlockSystem) -> WignerSolution:
    """Solve the assembled system by GMRES on the coupling's weighted
    moments.

    The system is A f = d, d the inflow data on the two inflow half rows
    and zero elsewhere.  With T the upwind transport operator (the
    coupling removed), whose inflow rows are identity rows and whose
    inverse is the transport sweep, A = T - P L W R^T: L is the left factor
    of `operators._thin_factors` at each coupled node, the same at all of
    them, P zeroes the inflow rows, and W R^T is each node's weighted right
    factor, W_i = diag(w_i, w_i).  So A T^-1 = I - P L V^T, with V^T the
    sweep followed by W R^T, u_i = W_i R^T (T^-1 y)_i, and
    f = T^-1 (d + P L u) where

        (I - V^T P L) u = V^T d,

    the capacitance form of the Woodbury identity (Hager 1989).  T^-1 d is
    free streaming, and on the inflow rows it is d.  u_i is zero wherever
    node i's differences are, so GMRES solves for the 2 nnz(D_V) live
    entries of u alone, from u = 0, whatever N_v is.  L and R hold the
    columns of the kernel's n_j live offsets alone
    (`operators.WignerKernel`), the offsets where some node's D_V is
    nonzero: u is zero off them, so dropping the others changes no
    product.  With no offset live, nothing is coupled and f = T^-1 d, with
    no iteration and no norm of L.  The true residual of A T^-1 y = d at
    y = d + P L u is P L times the reduced residual, which is zero off the
    live entries, and ||P|| <= 1, so GMRES stops at
    GMRES_TOL ||a|| ||d|| / ||L||_2, L on the live offsets and a the
    stencil's column 0 below the inflow row: then the true residual is at
    most GMRES_TOL times ||a|| ||d||, the forcing the data exert through
    the stencil on rows 1 and 2 of their sign.  On a fine mesh roundoff
    may set the reduced residual's floor above that; GMRES stops there
    too, once a restart makes no progress (`_gmres`), and the residual
    check below decides.

    T^-1 acts along x alone and is the same for every v of one sign, so it
    commutes with the products over v (the mixed-product rule of Kronecker
    products; Van Loan 2000).  With R_s and L_s the rows of the right
    factor R = [C, S] and of L where v has the sign s, node i of V^T P L u
    is, P aside,

        W_i sum_s sum_j T_s^-1[i, j] H_s^T u_j,   H_s = L_s^T R_s,

    with H_+ tabulated once (`_coupling_products`) and H_- = P H_+ P, P
    the parity signs of the columns (`operators._parity`).  So with
    e = u_1 H_1+ and o = u_2 H_2+, the products of the even and the odd
    halves of u with H_+'s two groups of n_j rows, u H_+ = e + o and
    -u H_- P = o - e: two products of n_j columns each, half the flops of
    one with [-H_-, H_+].  An iteration sweeps the array of the
    [-u_j H_- P, u_j H_+], 4 n_j columns on the rows up to the last that
    a coupled node reads, and costs O(rows n_j^2) whatever N_v is; P
    commutes with the sweep, so it is applied to the moments read out.
    The array's v < 0 half runs backwards in x, so its row 0 holds both
    inflow rows, node 0's v > 0 half and node N_x's v < 0 half: P zeroes
    that row.  Its rows of uncoupled nodes are zero: in each half those
    before the span of coupled nodes stay zero through the sweep, and
    those past it, which no moment reads, are zeroed on every product, so
    that no sweep compounds them.  The moments go into a moment grid on
    the span of coupled nodes, and come out of the swept array, through
    flat index maps formed once per solve; the grid, its products and the
    array are allocated once per solve and dropped before the final
    sweep.  A and B share R and differ only in L, so both schemes run the
    same iteration.
    The sweep (`_sweep`), blocked along x, runs in place on
    `_sweep_blocks`, and every array it sweeps holds [J (-D) y_-, y_+], as
    T_- = -D J T_+ J.  The data sit on the two inflow rows alone
    (`BlockSystem.data`, read and written as the slices [0, half:] and
    [N_x, :half] of the grid), which together are row 0 of the array,
    whose sign -D keeps: V^T d is that one row projected, in O(N_v n_j),
    and swept.  The grid is swept once, for f, from y = P L u, formed by
    `operators._mirror` with -D on its v < 0 half, and the data on its
    inflow rows; the sweep keeps row 0, as its leading block's row 0 is
    e_0, so f equals the data there bit for bit.

    The data are divided by the power of two that brings their largest
    entry into [1/2, 1), so that no norm, the residual check's included,
    underflows or overflows; the values are multiplied back, and the
    inflow rows set to the data again: dividing subnormal data rounds
    them.  The residual check is the product of the whole
    system with f, independent of the reduced iteration, less the data on
    its two half rows, relative to the norm of the data.  Raises
    SolverError when GMRES reaches MAX_ITERATIONS, an operation overflows
    or gives NaN, or the relative residual of the whole system exceeds
    RESIDUAL_TOL.

    Runs on one OpenBLAS thread (`operators.one_blas_thread`), so the
    solution, the iteration count and the residual do not depend on the
    caller's thread count.
    """
    n_x, half = system.smesh.n_x, system.vmesh.n_v // 2
    kernel = system.coupling
    left, right = _thin_factors(kernel, _OPERATORS[system.scheme])
    n_j = right.shape[1] // 2  # the kernel's live offsets
    parity = _parity(n_j, n_j)  # of L's and R's columns
    # none if no weight is live, or if every weight underflowed to zero
    coupled = np.flatnonzero(kernel.weights.any(axis=-1))
    first, last = coupled[[0, -1]] if coupled.size else (0, -1)
    # `scatter` puts the live moments into the moment grid, u on the span of
    # coupled nodes, and `weights` holds the W_i's diagonals there.  Arrays
    # p of products with R hold [J (-D) y_- R_- P, y_+ R_+], the layout
    # `_sweep` takes for both halves: -D keeps row 0 of p, the inflow rows,
    # which holds d in V^T d and which P zeroes in V^T P L u, and `signs`
    # applies the parity P after the sweep.  `gather` reads
    # node i's moments from p's rows N_x - i and i; the sweep stops at the
    # last row read.
    weights = np.tile(kernel.weights[first:last + 1], 2).ravel()
    scatter = np.flatnonzero(weights)
    weights = weights[scatter]
    node, column = np.divmod(scatter, 2 * n_j)
    node += first
    gather = np.stack([(n_x - node) * 4 * n_j + column,
                       node * 4 * n_j + 2 * n_j + column])
    signs = parity[column]
    swept = max(last, n_x - first) + 1
    del node, column

    def reduce(p: np.ndarray) -> np.ndarray:  # V^T y from p of y, live
        _sweep(blocks, p)
        z = p.take(gather)
        z[0] *= signs
        z[0] += z[1]
        return weights * z[0]

    def project(u: np.ndarray) -> np.ndarray:  # V^T P L u
        # u H_+ = e + o and -u H_- P = o - e by H_- = P H_+ P, with
        # e = u_1 H_1+ and o = u_2 H_2+ on the groups of n_j rows of H_+
        # (even and odd in v): two products of n_j columns, not one of 2 n_j
        np.put(moments, scatter, u)
        np.matmul(moments[:, :n_j], h[:n_j], out=even)
        np.matmul(moments[:, n_j:], h[n_j:], out=odd)
        np.add(even, odd, out=p[first:last + 1, 2 * n_j:])
        minus = p[n_x - last:n_x - first + 1, :2 * n_j]
        np.subtract(odd, even, out=minus[::-1])
        # rows before the span stay zero through the sweep; past it, zero
        p[last + 1:, 2 * n_j:] = p[n_x - first + 1:, :2 * n_j] = 0.0
        p[0] = 0.0  # P
        return reduce(p)

    exponent = np.frexp(np.abs(system.data).max())[1]
    data = np.ldexp(system.data, -exponent)
    try:
        with np.errstate(over="raise", invalid="raise"):
            blocks = _sweep_blocks(system.stencil)
            # y = d + P L u, swept in place into f
            values = np.zeros((n_x + 1, system.vmesh.n_v))
            iterations = 0
            if n_j:  # else nothing is coupled: f = T^-1 d
                h, left_norm = _coupling_products(left, right)
                p = np.zeros((swept, 4 * n_j))  # of d: row 0, under -D too
                # row 0 of [J (-D) d_-, d_+] is the two inflow half rows
                p[0, :2 * n_j], p[0, 2 * n_j:] = _project(
                    np.hstack(data[::-1]), right)
                rhs = reduce(p)
                p[:] = 0.0  # and p of every product after it
                # allocated once: u's grid and its products e and o
                moments = np.zeros((last - first + 1, 2 * n_j))
                even, odd = np.empty((2,) + moments.shape)
                u, iterations = _gmres(
                    lambda u: u - project(u), rhs,
                    GMRES_TOL * np.linalg.norm(system.stencil[1:, 0])
                    * np.linalg.norm(data) / left_norm)
                np.put(moments, scatter, u)
                u = moments[coupled - first]
                del moments, even, odd, p, project, reduce
                # the v < 0 half under -D, the layout `_sweep` takes
                values[coupled] = _mirror(u, left, -parity)
            del left, right  # the residual check forms its own pair
            # P, and d; the sweeps keep row 0, as the leading block's is e_0
            values[0, half:], values[n_x, :half] = data
            _sweep(blocks, values[::-1, :half])
            _sweep(blocks, values[:, half:])
            rhs_norm = np.linalg.norm(data)
            residual = _apply_system(system, values)
            residual[0, half:] -= data[0]  # the right-hand side's rows
            residual[n_x, :half] -= data[1]
            res = np.linalg.norm(residual)
            np.ldexp(values, exponent, out=values)
            values[0, half:], values[n_x, :half] = system.data
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
        vs = sol.vmesh.nodes.tolist()
        for x, row in zip(sol.smesh.nodes.tolist(), sol.values.tolist()):
            fh.write("".join(f"{x:.17g},{v:.17g},{f:.17g}\n"
                             for v, f in zip(vs, row)))
