"""Cross-mesh error norms, convergence orders and the constraint residual.

All error norms are weighted discrete L2 norms,

    err^2 = sum_i w_i sum_n |d(x_i, v_n)|^2 * dx * dv,

with trapezoidal weights w in x (half weight at the device ends), so that a
constant offset c on identical grids gives exactly c*sqrt(l * N_v * dv).

Comparing solutions on different velocity grids needs resampling because
offset grids at different resolutions share no nodes.  The coarser solution
is resampled linearly onto the finer grid, one velocity half-line at a time:
distribution functions of inflow problems are generically discontinuous
across v = 0, so the interpolant must never bridge that point; at the outer
ends of each half-line the last two nodes extrapolate linearly.  The norm is
taken on the fine grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bvp_solver import WignerSolution
from .errors import ContractError
from .operators import _parity

__all__ = ["l2_error", "convergence_order", "constraint_residual",
           "ExperimentReport"]


def _trapezoid_weights(n_nodes: int) -> np.ndarray:
    w = np.ones(n_nodes)
    w[0] = w[-1] = 0.5
    return w


def _weighted_norm(diff: np.ndarray, dx: float, dv: float) -> float:
    w = _trapezoid_weights(diff.shape[0])
    return float(np.sqrt((w[:, None] * diff**2).sum() * dx * dv))


def resample_half_lines(v_from: np.ndarray, rows: np.ndarray,
                        v_to: np.ndarray) -> np.ndarray:
    """Piecewise-linear resampling in v that never crosses v = 0.

    Each sign half-line is interpolated independently; outside the source
    nodes of a half-line the two end nodes extrapolate linearly.
    """
    out = np.empty((rows.shape[0], len(v_to)))
    for sign in (-1.0, 1.0):
        src = v_from * sign > 0
        dst = v_to * sign > 0
        x = v_from[src]
        y = rows[:, src]
        t = v_to[dst]
        idx = np.clip(np.searchsorted(x, t) - 1, 0, len(x) - 2)
        x0, x1 = x[idx], x[idx + 1]
        lam = (t - x0) / (x1 - x0)
        out[:, dst] = y[:, idx] * (1 - lam) + y[:, idx + 1] * lam
    return out


def _restrict_x(sol: WignerSolution, ref: WignerSolution) -> np.ndarray:
    """Reference values on the (nested) spatial grid of sol."""
    if not np.isclose(sol.smesh.length, ref.smesh.length):
        raise ContractError("solutions live on different device intervals")
    step, rem = divmod(ref.smesh.n_x, sol.smesh.n_x)
    if rem != 0:
        raise ContractError(
            f"spatial grids are not nested: {ref.smesh.n_x} vs {sol.smesh.n_x}")
    return ref.values[::step]


def l2_error(sol: WignerSolution, ref: WignerSolution) -> float:
    """Weighted L2 distance between a solution and a finer reference."""
    ref_on_sol_x = _restrict_x(sol, ref)
    dx = sol.smesh.dx
    if sol.vmesh == ref.vmesh:
        return _weighted_norm(sol.values - ref_on_sol_x, dx, sol.vmesh.dv)
    coarse_on_ref = resample_half_lines(sol.vmesh.nodes, sol.values,
                                        ref.vmesh.nodes)
    return _weighted_norm(coarse_on_ref - ref_on_sol_x, dx, ref.vmesh.dv)


def convergence_order(errors) -> list[float]:
    """Orders between consecutive refinement levels: log2(e_k / e_{k+1}).

    A zero error at a non-final level yields NaN for that entry rather than
    raising.
    """
    errors = [float(e) for e in errors]
    if len(errors) < 2:
        raise ContractError("need at least two refinement levels")
    orders = []
    for a, b in zip(errors, errors[1:]):
        if a <= 0 or b <= 0:
            orders.append(float("nan"))
        else:
            orders.append(float(np.log2(a / b)))
    return orders


def constraint_residual(sol: WignerSolution) -> float:
    """Largest scaled moment of the solution against its sampled kernel.

    The continuum model conserves the zeroth kernel moment,
    int V_w(x, v) f(x, v) dv = 0 at every x.  The reported residual is

        S = h * max_i | sum_n f(x_i, v_n) V_w(x_i, v_n) dv |,

    with V_w(x_i, v_n) = (S w_i)_n from the sine table S and the weights
    w_i of `sol.coupling`, the factors the solve used, and including the
    boundary nodes in the maximum.  The kernel holds S on v > 0 and on its
    live offsets, where w_i can be nonzero; S is odd in v, so its v < 0 rows
    follow by `operators._parity`.
    The h = dv/(2*pi) scaling expresses the moment in the units of the
    assembled operator rows, making values comparable across refinement
    levels; for a convergent scheme family S decays linearly in the mesh
    spacing.
    """
    kernel = sol.coupling
    if (kernel.mesh != sol.vmesh
            or kernel.diff.shape[:-1] != (sol.smesh.n_x + 1,)):
        raise ContractError("the coupling does not match the solution's "
                            "velocity mesh and N_x + 1 nodes")
    sin, _ = kernel.tables
    w = kernel.weights
    v_w = np.hstack([((_parity(0, sin.shape[1]) * w) @ sin.T)[:, ::-1],
                     w @ sin.T])
    return sol.vmesh.h * max(abs(float(np.dot(row, row_w)) * sol.vmesh.dv)
                             for row, row_w in zip(sol.values, v_w))


@dataclass
class ExperimentReport:
    """Per-scheme refinement table: (level, error, order) triples.

    orders[0] is NaN by convention (no previous level).
    """

    axis: str
    rows: dict[str, list[tuple[float, float, float]]] = field(default_factory=dict)

    def add_scheme(self, scheme: str, levels, errors) -> None:
        orders = [float("nan")] + convergence_order(errors)
        self.rows[scheme] = [(lvl, err, order)
                             for lvl, err, order in zip(levels, errors, orders)]

    def aggregate_order(self, scheme: str) -> float:
        """Mean slope between the first and last level; NaN when either
        error is zero, as in `convergence_order`."""
        rows = self.rows[scheme]
        e0, e1 = rows[0][1], rows[-1][1]
        if e0 <= 0 or e1 <= 0:
            return float("nan")
        steps = len(rows) - 1
        return float(np.log2(e0 / e1) / steps)

    def to_csv(self) -> str:
        lines = ["level,error,order,scheme"]
        for scheme, rows in self.rows.items():
            for lvl, err, order in rows:
                order_s = "" if np.isnan(order) else f"{order:.4f}"
                lines.append(f"{lvl:g},{err:.17g},{order_s},{scheme}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [f"study axis: {self.axis}"]
        for scheme, rows in self.rows.items():
            lines.append(f"  scheme: {scheme}")
            lines.append(f"    {'level':>8} {'error':>14} {'order':>8}")
            for lvl, err, order in rows:
                order_s = "" if np.isnan(order) else f"{order:8.4f}"
                lines.append(f"    {lvl:8g} {err:14.6e} {order_s}")
            lines.append(
                f"    aggregate order: {self.aggregate_order(scheme):.4f}")
        return "\n".join(lines) + "\n"
