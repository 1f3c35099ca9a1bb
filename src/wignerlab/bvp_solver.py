"""Assembly and direct solution of the stationary transport boundary-value
problem.

Unknowns are grouped by spatial node (x-major), velocity index ascending
inside each block.  Every interior row states

    (upwind d/dx of f)(x_i, v_n) = (Op f)(x_i, v_n)

with a second-order upwind stencil in x and Op one of the two velocity
operators (singular 'original' scheme: A; regularized 'improved' scheme: B).
Inflow rows are identities pinning the prescribed boundary data; outflow
values remain unknowns.  The resulting matrix is block pentadiagonal with
dense diagonal blocks and *diagonal* off-diagonal blocks, which the solver
exploits: the superdiagonal blocks at offset +2 provably stay diagonal
during the elimination, so a full factorization never materializes generic
dense bands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import ConfigurationError, SolverError
from .operators import (VelocityMesh, build_theta_kernel, materialize)
from .potential import PotentialProfile
from .wigner_potential import QuadratureSpec

__all__ = ["SpatialMesh", "BoundaryConditions", "WignerSolution",
           "BlockSystem", "assemble_system", "solve", "solve_bvp",
           "solution_to_csv"]

RESIDUAL_TOL = 1e-10


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
    """Grid function f(x_i, v_n) with its meshes, scheme tag and solve
    residual."""

    smesh: SpatialMesh
    vmesh: VelocityMesh
    values: np.ndarray  # shape (N_x + 1, N_v)
    scheme: str
    residual: float = 0.0


@dataclass
class BlockSystem:
    """Block-pentadiagonal system.

    diag: dense diagonal blocks, shape (N_x+1, N_v, N_v).
    off:  off-diagonal blocks at offsets -2, -1, +1, +2; each block is a
          diagonal matrix stored as its diagonal, shape (N_x+1, N_v).
    rhs:  right-hand side, shape (N_x+1, N_v).
    """

    diag: np.ndarray
    off: dict[int, np.ndarray]
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
    n_x, n_v = smesh.n_x, vmesh.n_v
    dx = smesh.dx
    v = vmesh.nodes
    pos = v > 0
    neg = ~pos
    ipos = np.where(pos)[0]
    ineg = np.where(neg)[0]
    which = "A" if scheme == "original" else "B"

    diag = np.zeros((n_x + 1, n_v, n_v))
    off = {o: np.zeros((n_x + 1, n_v)) for o in (-2, -1, 1, 2)}
    rhs = np.zeros((n_x + 1, n_v))

    for i, x in enumerate(smesh.nodes):
        kernel = build_theta_kernel(profile, x, vmesh, quad)
        d = -materialize(kernel, which)
        if i == 0:
            d[pos] = 0.0
            d[ipos, ipos] = 1.0
            rhs[i, pos] = bc.f_left(v[pos])
        elif i == 1:
            d[ipos, ipos] += 1 / dx
            off[-1][i, pos] = -1 / dx
        else:
            d[ipos, ipos] += 3 / (2 * dx)
            off[-1][i, pos] = -2 / dx
            off[-2][i, pos] = 1 / (2 * dx)
        if i == n_x:
            d[neg] = 0.0
            d[ineg, ineg] = 1.0
            rhs[i, neg] = bc.f_right(v[neg])
        elif i == n_x - 1:
            d[ineg, ineg] += -1 / dx
            off[1][i, neg] = 1 / dx
        else:
            d[ineg, ineg] += -3 / (2 * dx)
            off[1][i, neg] = 2 / dx
            off[2][i, neg] = -1 / (2 * dx)
        diag[i] = d

    return BlockSystem(diag=diag, off=off, rhs=rhs, smesh=smesh,
                       vmesh=vmesh, scheme=scheme)


def _apply_system(system: BlockSystem, values: np.ndarray) -> np.ndarray:
    """Multiply the block-banded matrix by a grid function."""
    n = system.smesh.n_x
    out = np.einsum("inm,im->in", system.diag, values)
    for o, band in system.off.items():
        lo = max(0, -o)
        hi = min(n, n - o)
        out[lo:hi + 1] += band[lo:hi + 1] * values[lo + o:hi + o + 1]
    return out


def solve(system: BlockSystem) -> WignerSolution:
    """Direct block elimination tailored to the pentadiagonal structure.

    Forward pass: factor each pivot block, eliminate the two subdiagonal
    (diagonal-matrix) blocks below it, updating the trailing blocks and the
    right-hand side in the same sweep so the eliminators never need to be
    stored.  The offset +2 blocks receive no fill-in (the eliminator rows
    hit identity/outflow rows there), so only the offset +1 blocks densify.
    Backward pass: standard block back-substitution.
    """
    n = system.smesh.n_x
    n_v = system.vmesh.n_v
    eye_idx = np.arange(n_v)

    work = [system.diag[i].copy() for i in range(n + 1)]
    y = system.rhs.copy()
    u1 = [None] * (n + 1)
    for i in range(n + 1):
        block = np.zeros((n_v, n_v))
        block[eye_idx, eye_idx] = system.off[1][i]
        u1[i] = block
    u2 = system.off[2]
    factors = [None] * (n + 1)
    p1 = None

    for i in range(n + 1):
        try:
            factors[i] = lu_factor(work[i])
        except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise SolverError(f"singular pivot block at node {i}") from exc
        if not np.all(np.isfinite(factors[i][0])):
            raise SolverError(f"non-finite pivot block at node {i}")
        work[i] = None
        if i + 1 <= n:
            if p1 is None:
                p1 = np.zeros((n_v, n_v))
                p1[eye_idx, eye_idx] = system.off[-1][i + 1]
            elim1 = lu_solve(factors[i], p1.T, trans=1).T
            y[i + 1] -= elim1 @ y[i]
            work[i + 1] -= elim1 @ u1[i]
            if i + 2 <= n:
                u1[i + 1] -= elim1 * u2[i][None, :]
        if i + 2 <= n:
            p2 = np.zeros((n_v, n_v))
            p2[eye_idx, eye_idx] = system.off[-2][i + 2]
            elim2 = lu_solve(factors[i], p2.T, trans=1).T
            y[i + 2] -= elim2 @ y[i]
            work[i + 2] -= elim2 * u2[i][None, :]
            p1 = np.zeros((n_v, n_v))
            p1[eye_idx, eye_idx] = system.off[-1][i + 2]
            p1 -= elim2 @ u1[i]
        else:
            p1 = None

    values = np.zeros_like(y)
    for i in range(n, -1, -1):
        r = y[i].copy()
        if i + 1 <= n:
            r -= u1[i] @ values[i + 1]
        if i + 2 <= n:
            r -= u2[i] * values[i + 2]
        values[i] = lu_solve(factors[i], r)

    rhs_norm = np.linalg.norm(system.rhs)
    res = np.linalg.norm(_apply_system(system, values) - system.rhs)
    rel = res / rhs_norm if rhs_norm > 0 else res
    if not np.isfinite(rel) or rel > RESIDUAL_TOL:
        raise SolverError(
            f"solve residual {rel:.3e} exceeds tolerance {RESIDUAL_TOL:.0e}")
    return WignerSolution(smesh=system.smesh, vmesh=system.vmesh,
                          values=values, scheme=system.scheme, residual=rel)


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
