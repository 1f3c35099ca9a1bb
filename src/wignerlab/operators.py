"""Velocity mesh and the discrete velocity-space operators.

The velocity grid is offset from zero, v_n = (2n+1)*pi*h, so that division
by v_n is always defined.  At each spatial node x the nonlocal coupling is
the real skew-symmetric matrix M_{nm} = V_w(x, v_n - v_m), with V_w the sine
sum over the quadrature nodes y_j (`wigner_potential`).  Since
sin(y(v_n - v_m)) = sin(y v_n) cos(y v_m) - cos(y v_n) sin(y v_m),

    M = S W C^T - C W S^T,  S = sin(v y^T), C = cos(v y^T),
    W = -(dy/pi) diag(D_V(x, y_j)),

of rank at most 2*N_y whatever N_v is (Frensley, Phys. Rev. B 36, 1570,
1987).  A kernel stores D_V(x, y_j); S and C are the same at every node.
W is zero wherever D_V is, so an offset y_j where D_V vanishes at every
node of the kernel adds nothing to M: the kernel keeps the columns of S, C
and W on its live offsets J = {j : D_V(x, y_j) != 0 at some node} alone
(`live_offsets`, the rule `sine_sum` skips by), and M = S_J W_J C_J^T -
C_J W_J S_J^T exactly.  Every product and norm below runs on those |J|
columns; a kernel with no live offset has zero-column factors.

    theta: g = 2*pi*h * M f                     (bounded)
    A:     g_n = (theta f)_n / v_n              (singular as v_n -> 0)
    B:     g_n = 2*pi*h/v_n * sum_m (M_{nm} - a_m) f_m
                                                (regularized by the row
                                                 a_m = V_w(x, -v_m))

V_w is odd in v, so -a = S w, and B's row joins the -C W S^T term of M:

    B = 2*pi*h diag(1/v) [S W C^T + (1 - C) W S^T],

with 1 the all-ones matrix.  Both sin(v y)/v and (1 - cos(v y))/v are at
most y, so B's left factor is bounded uniformly in the velocity mesh;
A's, with cos(v y)/v, is not.  Products and norms go through the factors,
O(N_v |J|) per node, so nothing of size N_v^2 is formed.  The mesh is
symmetric, v_{-n-1} = -v_n, so S is odd and C is even: theta is
skew-centrosymmetric and A and B are centrosymmetric.  A kernel therefore
holds S and C on the v > 0 velocities only, and every product reads the
v < 0 rows of a factor by one rule (`_parity`): row v_{-n-1} is row v_n
with its odd columns negated.  An even/odd change of basis splits each
operator into two blocks of order at most |J| (Cantoni & Butler, Linear
Algebra Appl. 13, 1976), which `operator_norm` factors; at one node |J| is
nnz(D_V(x, .)).  It takes the three norms at a node in one call: R is
the same for theta, A and B, and A's and B's first groups of L are one
block, so the three take seven QRs.

A kernel may stack several nodes' D_V along a leading axis, sampled in one
call; the operators then act on each node's row of f with that node's
matrix, which is how the solver checks its residual on the whole device at
once; its right-hand side and GMRES iteration use the node-independent
thin factors of `_thin_factors` directly.  `operator_norm` takes a
one-node kernel.  `materialize` forms the dense matrices from the sampled
`symbol` and `shift`; the tests hold the factored operators to it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (ConfigurationError, ContractError, ResourceError,
                     SolverError)
from .potential import PotentialProfile, potential_difference
# `wigner_potential` is not called here; the benchmark's tracer looks it up
from .wigner_potential import (QuadratureSpec, live_offsets, sine_sum,
                               wigner_potential)

__all__ = ["VelocityMesh", "WignerKernel", "build_theta_kernel",
           "apply_theta", "apply_A", "apply_B", "materialize",
           "operator_norm"]


@dataclass(frozen=True)
class VelocityMesh:
    """Offset velocity grid v_n = (2n+1)*pi*h, n = -N_v/2 .. N_v/2 - 1."""

    n_v: int
    h: float

    def __post_init__(self) -> None:
        if self.n_v < 2 or self.n_v % 2 != 0:
            raise ConfigurationError(
                f"N_v must be even and >= 2, got {self.n_v}")
        object.__setattr__(self, "n_v", int(self.n_v))
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
    """diff[..., j-1] = D_V(x, j*dy), j = 1 .. N_y; nodes stack on a leading
    axis.  `symbol` and `shift` are V_w sampled from it by `sine_sum`,
    bitwise as `wigner_potential` gives them: symbol[..., k + N_v - 1] =
    V_w(x, k*dv) for |k| < N_v and shift[..., m] = V_w(x, -v_m).  `live`
    holds the kernel's live offsets J, the indices j-1 where D_V is nonzero
    at some node (`live_offsets`).  `tables` are the v > 0 rows of S and C
    on J, shape (N_v/2, |J|), and `weights` the diagonals of W on J, shape
    diff.shape[:-1] + (|J|,), each computed once per kernel; the v < 0 rows
    of the tables follow by `_parity`.  Every reader takes the width |J|
    from them; only the sampled `symbol` and `shift` read all N_y offsets.
    """

    diff: np.ndarray
    quad: QuadratureSpec
    mesh: VelocityMesh

    @property
    def symbol(self) -> np.ndarray:
        k = np.arange(-(self.mesh.n_v - 1), self.mesh.n_v)
        return sine_sum(self.diff, k * self.mesh.dv, self.quad.dy)

    @cached_property
    def shift(self) -> np.ndarray:
        return sine_sum(self.diff, -self.mesh.nodes, self.quad.dy)

    @cached_property
    def live(self) -> np.ndarray:
        return live_offsets(self.diff)

    @cached_property
    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        v = self.mesh.nodes[self.mesh.n_v // 2:]
        phase = np.multiply.outer(v, self.quad.offsets[self.live])
        return np.sin(phase), np.cos(phase)

    @cached_property
    def weights(self) -> np.ndarray:  # the diagonal of W on the live offsets
        return -(self.quad.dy / np.pi) * self.diff[..., self.live]


def check_memory(n_v: int, n_y: int, extra: int = 0) -> None:
    """Refuse a kernel whose quadrature nodes, differences, the N_v/2 rows
    of S and C, plus `extra` bytes, would not fit in physical memory.  The
    tables are counted on all n_y offsets, an upper bound on the live ones,
    since the guard runs before the differences are sampled."""
    need = 8 * n_y * (n_v + 2) + extra
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        # in full up to 10^15, then to four digits
        count = f"{n_y}" if n_y < 10**15 else f"{n_y:.4g}"
        if need < 2**1050:  # fits in a float
            size = need / 2**30
            size = f"{size:.1f}" if size < 1e15 else f"{size:.4g}"
        else:
            size = f"at least 2^{need.bit_length() - 31}"
        raise ResourceError(
            f"N_v={n_v}, N_y={count} needs {size} GiB; physical "
            f"memory is {have / 2**30:.1f} GiB")


def build_theta_kernel(profile: PotentialProfile, x, mesh: VelocityMesh,
                       quad: QuadratureSpec) -> WignerKernel:
    """Evaluate D_V at a node x, or at an array of nodes in one call, and
    package it as a kernel whose leading axes are those of x; each node's
    differences are bitwise those of its one-node kernel."""
    if not quad.l_y < mesh.r_h:
        raise ConfigurationError(
            f"aliasing guard violated: need L_y < R_h, got "
            f"L_y={quad.l_y} and R_h={mesh.r_h}")
    check_memory(mesh.n_v, quad.n_y)
    diff = potential_difference(profile, np.expand_dims(x, -1), quad.offsets)
    return WignerKernel(diff=diff, quad=quad, mesh=mesh)


def _check_length(kernel: WignerKernel, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    want = kernel.diff.shape[:-1] + (kernel.mesh.n_v,)
    if f.shape != want:
        raise ContractError(
            f"vector shape {f.shape} does not match the kernel's {want}")
    return f


def _parity(n_even: int, n_odd: int) -> np.ndarray:
    """The mirror rule of a factor whose first n_even columns are even in v
    and the other n_odd odd: the mesh is symmetric, v_{-n-1} = -v_n, so its
    row v_{-n-1} is row v_n times these signs.  On the |J| live offsets,
    R = [C, S] and the L of A and B, which divide by the odd v, take
    (|J|, |J|), theta's L their negative, and S alone (0, |J|)."""
    return np.repeat([1.0, -1.0], [n_even, n_odd])


def _apply(kernel: WignerKernel, f, which: str) -> np.ndarray:
    """theta, A or B of each node of `kernel` applied to its row of f, as
    L diag(w, w) R^T f through the v > 0 rows of the thin factors."""
    f = _check_length(kernel, f)
    left, right = _thin_factors(kernel, which)
    half, n_j = len(right), right.shape[1] // 2  # n_j = |J|
    signs = _parity(n_j, n_j)
    moments = np.tile(kernel.weights, 2) * (
        f[..., half:] @ right + signs * (f[..., :half] @ right[::-1]))
    out = np.empty(f.shape)
    np.matmul(moments, left.T, out=out[..., half:])
    # theta's L, [S W, -C W], is not divided by the odd v: the reverse parity
    np.matmul((-signs if which == "theta" else signs) * moments,
              left[::-1].T, out=out[..., :half])
    return out


def apply_theta(kernel: WignerKernel, f) -> np.ndarray:
    """g = 2*pi*h * M f, with M f = S (w * C^T f) - C (w * S^T f)."""
    return _apply(kernel, f, "theta")


def apply_A(kernel: WignerKernel, f) -> np.ndarray:
    """g_n = (theta f)_n / v_n."""
    return _apply(kernel, f, "A")


def apply_B(kernel: WignerKernel, f) -> np.ndarray:
    """g_n = ((theta f)_n + 2*pi*h sum_j w_j (S^T f)_j) / v_n.

    The added scalar, once per node, is -2*pi*h sum_m a_m f_m, since
    -a = S w.  On vectors even in v, S^T f vanishes and B coincides with A.
    """
    return _apply(kernel, f, "B")


def materialize(kernel: WignerKernel, which: str) -> np.ndarray:
    """Dense matrix of the chosen operator: 'M', 'theta', 'A' or 'B'."""
    n = np.arange(kernel.mesh.n_v)
    m = kernel.symbol[np.subtract.outer(n, n) + kernel.mesh.n_v - 1]
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


def _left_group(kernel: WignerKernel, which: str, group: int,
                weights=1.0) -> np.ndarray:
    """The v > 0 rows of column group 0 or 1 of theta's, A's or B's L (see
    `_thin_factors`) on the kernel's live offsets, with `weights` for their
    diagonal entries of W."""
    sin, cos = kernel.tables
    left = (sin if group == 0 else 1 - cos if which == "B" else -cos) * weights
    left *= 2 * np.pi * kernel.mesh.h
    if which != "theta":
        left /= kernel.mesh.nodes[kernel.mesh.n_v // 2:, None]
    return left


def _thin_factors(kernel: WignerKernel,
                  which: str) -> tuple[np.ndarray, np.ndarray]:
    """Thin factors L and R of theta, A or B, the operator at a node being
    L R^T with R = [C, S]: for theta, L = 2*pi*h [S W, -C W]; A divides row
    n of L by v_n; B is A with 1 - C in place of -C, bounded because
    |sin(v y)| and |1 - cos(v y)| are at most |v| y.

    Returns the v > 0 rows of L, at weights 1, and of R, on the kernel's
    live offsets J: 2|J| columns each, zero when no offset is live.
    `_parity` gives the v < 0 rows.  The pair is the same at every node:
    the operator is L diag(w, w) R^T, its nodes' weights moved to the right.
    """
    sin, cos = kernel.tables
    left = [_left_group(kernel, which, g) for g in (0, 1)]
    return np.hstack(left), np.hstack([cos, sin])


def operator_norm(kernel: WignerKernel) -> dict[str, float]:
    """Spectral norms (2-norms) of theta, A and B at one node, keyed
    "theta", "A" and "B".

    The mesh is symmetric, v_{-n-1} = -v_n, so with J reversing the v > 0
    half, Pi = [[J, -J], [I, I]] / sqrt(2) is orthogonal, and Pi^T X puts
    sqrt(2) X_+ (the v > 0 rows of X) in the top half if X is even in v and
    in the bottom half if it is odd.  In the thin factors L R^T of
    `_thin_factors` every column is even or odd: S is odd, C and 1 - C are
    even, and A and B divide L by the odd v.  The pairs of the first half
    of the columns (S W / v with C) and of the rest (-C W / v, or (1 - C) W / v,
    with S) land in two blocks of Pi^T (L R^T) Pi that share no block row
    and no block column (Cantoni & Butler, Linear Algebra Appl. 13, 1976),
    so

        |op|_2 = 2 max_g |T_L,g T_R,g^T|_2,

    with T_L,g and T_R,g the QR triangles of the v > 0 rows of group g of L
    and R.  The kernel's tables hold the node's live offsets, where
    D_V(x, y_j) != 0, alone, so each group has N_v/2 x nnz(D_V) columns,
    formed one group at a time, and each triangle has order at most
    nnz(D_V), not N_y.  A QR then costs O(N_v nnz^2) and the SVD of the
    product has order nnz.  R's two triangles serve all three operators,
    and A's and B's first groups are one block, 2*pi*h S W / v, so the
    three norms take seven QRs.  A node with no live offset has norms 0,
    with no QR.  An overflow raises SolverError naming the first of theta,
    A and B whose norm left the range.

    Under mesh refinement (h -> 0 with the window fixed) the three norms
    behave differently: |theta|_2 <= 2 max|V|; |B|_2 stays uniformly
    bounded; |A|_2 grows like h^(-1/2), i.e. by sqrt(2) per halving of h.
    """
    if kernel.diff.ndim != 1:
        raise ContractError(
            f"operator_norm takes a one-node kernel, got nodes of shape "
            f"{kernel.diff.shape[:-1]}")
    n_v, nnz = kernel.mesh.n_v, len(kernel.live)
    # three arrays of N_v/2 rows and nnz columns: a column-major copy of a
    # group of L or R (or, while L's is formed, the columns it is formed
    # from), QR's copy of it, and LAPACK's column-major copy; R's two
    # triangles, L's triangle, their product and its copy, of order at most
    # nnz
    check_memory(n_v, kernel.quad.n_y,
                 8 * (3 * (n_v // 2) * nnz + 5 * nnz ** 2))
    if nnz == 0:
        return {"theta": 0.0, "A": 0.0, "B": 0.0}
    # QR hands LAPACK a column-major copy of its input, made one strided
    # column at a time from a row-major array: a column-major group makes
    # that copy contiguous
    norms, groups, which = {}, [0.0, 0.0], "theta"
    try:
        with np.errstate(over="raise", invalid="raise"):
            right = [np.linalg.qr(np.asfortranarray(table), mode="r")
                     for table in kernel.tables[::-1]]  # C, then S
            for which in ("theta", "A", "B"):
                # B's first group is A's, 2*pi*h S W / v, left in groups[0]
                for g in (1,) if which == "B" else (0, 1):
                    # L's group is a temporary, freed before its QR and
                    # before the next group is formed
                    left = np.asfortranarray(
                        _left_group(kernel, which, g, kernel.weights))
                    left = np.linalg.qr(left, mode="r")
                    groups[g] = np.linalg.norm(left @ right[g].T, 2)
                norms[which] = float(2 * np.max(groups))
                if not np.isfinite(norms[which]):  # np.linalg's SVD ignores
                    break                          # its own overflow
            else:
                return norms
    except FloatingPointError:  # a factor product overflowed
        pass
    raise SolverError(f"{which} norm left the floating-point range")
