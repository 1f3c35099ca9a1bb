"""Correctness checks on the studies' outputs.

The checks read the CSV files the drivers write and recompute what they
assert from those numbers; the residual check rebuilds each solve's interior
equations with its own upwind stencil and its own Toeplitz product of V_w
samples.  Every function takes plain arrays and tables and returns a list of
(name, ok, detail) triples, so the self-test can feed it perturbed data.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import toeplitz

# Bands follow from the method: second order in v for `improved`, a stall
# below first order for `original`, first-order decay of S, the spatial
# bands of acceptance criterion 2, and the operator-norm behaviour stated in
# `wignerlab.cli.run_norms`.
IMPROVED_V_ORDER = (1.7, 2.3)
ORIGINAL_V_AGGREGATE_MAX = 0.6
CONSTRAINT_ORDER = (0.8, 1.2)
X_AGGREGATE = {"improved": (1.53, 2.33), "original": (1.26, 2.06)}
PEAK_RATIO_MIN = 10.0
B_RATIO_MAX = 2.0
A_GROWTH = (0.8 * math.sqrt(2), 1.2 * math.sqrt(2))
RESIDUAL_TOL = 1e-10
INFLOW_TOL = 1e-12
PRINTED_ORDER_TOL = 5e-5 + 1e-9  # orders are printed with 4 decimals


def parse_report_csv(text: str) -> dict:
    """report.csv -> {scheme: (levels, values, printed orders)}."""
    table: dict = {}
    for line in text.splitlines()[1:]:
        level, value, order, scheme = line.split(",")
        levels, values, orders = table.setdefault(scheme, ([], [], []))
        levels.append(float(level))
        values.append(float(value))
        orders.append(float(order) if order else math.nan)
    return table


def parse_norms_csv(text: str) -> list[dict]:
    lines = text.splitlines()
    keys = lines[0].split(",")
    return [dict(zip(keys, map(float, line.split(",")))) for line in lines[1:]]


def parse_slice_csv(text: str) -> tuple[np.ndarray, np.ndarray]:
    data = np.array([[float(t) for t in line.split(",")]
                     for line in text.splitlines()[2:]])
    return data[:, 0], data[:, 1]


def orders(values) -> list[float]:
    return [math.log2(a / b) for a, b in zip(values, values[1:])]


def aggregate(values) -> float:
    return math.log2(values[0] / values[-1]) / (len(values) - 1)


def _fmt(xs) -> str:
    return "[" + ", ".join(f"{x:.4f}" for x in xs) + "]"


def _within(x, band) -> bool:
    return band[0] <= x <= band[1]


def printed_orders(study: str, table: dict) -> list:
    """The printed order column agrees with log2 of the printed values."""
    out = []
    for scheme, (_, values, printed) in table.items():
        mine = orders(values)
        ok = math.isnan(printed[0]) and all(
            abs(a - b) <= PRINTED_ORDER_TOL for a, b in zip(mine, printed[1:]))
        out.append((f"{study} {scheme} printed orders", ok,
                    f"recomputed {_fmt(mine)} vs printed {_fmt(printed[1:])}"))
    return out


def v_sweep(conv: dict, constraint: dict) -> list:
    imp = orders(conv["improved"][1])
    orig = aggregate(conv["original"][1])
    out = [
        ("improved velocity orders near 2",
         all(_within(o, IMPROVED_V_ORDER) for o in imp),
         f"{_fmt(imp)} within {IMPROVED_V_ORDER}"),
        ("original velocity aggregate order",
         orig <= ORIGINAL_V_AGGREGATE_MAX,
         f"{orig:.4f} <= {ORIGINAL_V_AGGREGATE_MAX}"),
    ]
    for scheme, (_, s_values, _) in constraint.items():
        o = orders(s_values)
        out.append((f"constraint S first order ({scheme})",
                    all(_within(x, CONSTRAINT_ORDER) for x in o),
                    f"{_fmt(o)} within {CONSTRAINT_ORDER}"))
    return out + printed_orders("conv-v", conv) + printed_orders(
        "constraint", constraint)


def center_peak(v: np.ndarray, f: np.ndarray) -> float:
    """Largest |f| over the three velocity nodes nearest v = 0."""
    return float(np.abs(f[np.argsort(np.abs(v))[:3]]).max())


def x_sweep(conv: dict, peaks: dict, reported_ratio: float) -> list:
    out = []
    for scheme, band in X_AGGREGATE.items():
        agg = aggregate(conv[scheme][1])
        out.append((f"spatial aggregate order ({scheme})",
                    _within(agg, band), f"{agg:.4f} within {band}"))
    ratio = peaks["original"] / peaks["improved"]
    out.append(("figure centre peak ratio", ratio >= PEAK_RATIO_MIN,
                f"{ratio:.4f} >= {PEAK_RATIO_MIN} (from the slice CSVs)"))
    out.append(("figure ratio matches the slices",
                abs(ratio - reported_ratio) <= 1e-12 * ratio,
                f"driver {reported_ratio:.17g}, slices {ratio:.17g}"))
    return out + printed_orders("conv-x", conv)


def dense_a_bounds(symbol: np.ndarray, v: np.ndarray,
                   h: float) -> tuple[float, float]:
    """Largest row 2-norm and Frobenius norm of A = 2*pi*h*M/v, with M the
    Toeplitz matrix M[n, m] = symbol[n - m + N_v - 1]."""
    n_v = len(v)
    a = 2 * np.pi * h * toeplitz(symbol[n_v - 1:], symbol[n_v - 1::-1])
    a /= v[:, None]
    return (float(np.sqrt((a * a).sum(axis=1)).max()),
            float(np.sqrt((a * a).sum())))


def norm_table(rows: list[dict], max_abs_v: float,
               a_bounds: list[tuple[float, float]]) -> list:
    theta = [r["norm_theta"] for r in rows]
    a = [r["norm_A"] for r in rows]
    b = [r["norm_B"] for r in rows]
    growth = [y / x for x, y in zip(a, a[1:])]
    inside = [lo * (1 - 1e-12) <= x <= hi * (1 + 1e-12)
              for x, (lo, hi) in zip(a, a_bounds)]
    return [
        ("|theta|_2 <= 2 max|V|", max(theta) <= 2 * max_abs_v + 1e-8,
         f"max {max(theta):.6f} <= {2 * max_abs_v:.6f}"),
        ("|B|_2 uniformly bounded", max(b) / min(b) <= B_RATIO_MAX,
         f"max/min {max(b) / min(b):.4f} <= {B_RATIO_MAX}"),
        ("|A|_2 grows by sqrt(2) per halving",
         all(_within(g, A_GROWTH) for g in growth),
         f"{_fmt(growth)} within [{A_GROWTH[0]:.4f}, {A_GROWTH[1]:.4f}]"),
        ("|A|_2 between row and Frobenius norms", all(inside),
         "; ".join(f"{lo:.4f} <= {x:.4f} <= {hi:.4f}"
                   for x, (lo, hi) in zip(a, a_bounds))),
    ]


def solve_residual(values: np.ndarray, x: np.ndarray, v: np.ndarray,
                   h: float, scheme: str, samples, f_left, f_right
                   ) -> tuple[float, float]:
    """Relative residual of the interior equations and the largest inflow
    deviation of one solution.

    Interior rows state (upwind d/dx f)(x_i, v_n) = (Op f)(x_i, v_n): second
    order upwind, first order at the node next to each inflow boundary.
    `samples(x)` returns V_w on the difference lattice k*dv, k = -(N_v-1) ..
    N_v-1, and at -v_m.  The residual is scaled by the sizes of the two
    sides, so it measures cancellation, not the size of the solution.
    """
    n_x, n_v = values.shape[0] - 1, values.shape[1]
    dx = x[1] - x[0]
    f = values
    pos = v > 0
    neg = ~pos
    deriv = np.zeros_like(f)
    deriv[1] = (f[1] - f[0]) / dx
    deriv[2:] = (3 * f[2:] - 4 * f[1:-1] + f[:-2]) / (2 * dx)
    back = np.zeros_like(f)
    back[n_x - 1] = (f[n_x] - f[n_x - 1]) / dx
    back[:n_x - 1] = (-3 * f[:n_x - 1] + 4 * f[1:n_x] - f[2:]) / (2 * dx)
    deriv[:, neg] = back[:, neg]

    op = np.empty_like(f)
    for i, xi in enumerate(x):
        symbol, shift = samples(xi)
        theta = np.convolve(symbol, f[i])[n_v - 1:2 * n_v - 1]
        if scheme == "improved":
            theta = theta - np.dot(shift, f[i])
        op[i] = 2 * np.pi * h * theta / v

    rows = np.ones_like(f, dtype=bool)
    rows[0, pos] = False
    rows[n_x, neg] = False
    res = np.linalg.norm((deriv - op)[rows])
    scale = np.linalg.norm(deriv[rows]) + np.linalg.norm(op[rows])
    inflow = max(np.abs(f[0, pos] - f_left(v[pos])).max(),
                 np.abs(f[n_x, neg] - f_right(v[neg])).max())
    return float(res / scale), float(inflow)


def residuals(name: str, rel: float, inflow: float) -> list:
    return [(f"{name} interior residual", rel <= RESIDUAL_TOL,
             f"{rel:.2e} <= {RESIDUAL_TOL:.0e}"),
            (f"{name} inflow rows", inflow <= INFLOW_TOL,
             f"{inflow:.2e} <= {INFLOW_TOL:.0e}")]
