"""Self-test of the benchmark.

Usage (from the root of a checkout): python3 benchmarks/selftest.py

1. Runs each workload at a tiny size, traced, in a fresh worker process, and
   requires every study to finish, every residual check to pass and every
   per-layer metric of BENCHMARK.json to be reported.
2. Feeds each correctness check the tables of a full-size run and requires
   it to pass, then feeds it a perturbed table or solution and requires that
   check, and no other, to fail.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import math
import sys
import time
from dataclasses import replace

import numpy as np

import checks
import run
import worker
from workloads import WORKLOADS

# Tables from full-size runs of the workloads (errors, S values, peaks).
CONV_V = {"original": [0.39159037081750092, 0.3110071231496559,
                       0.18926031571316587],
          "improved": [0.035308116946602498, 0.008597363503637356,
                       0.0021763444542290582]}
CONSTRAINT = {"original": [0.00020424265697403877, 8.988856134019273e-05,
                           4.0425183099648792e-05, 1.844408199109999e-05],
              "improved": [0.00027365088512041735, 0.00013672164942505873,
                           6.8348996319195931e-05, 3.4173060794900194e-05]}
CONV_X = {"original": [0.80844992477183464, 0.32311627347740146],
          "improved": [0.30008627122363724, 0.076920274598586247]}
PEAKS = {"original": 18.45310370590615, "improved": 0.87348573750294}

failures = []


def wigner_potential():
    return sys.modules["wignerlab.wigner_potential"].wigner_potential


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail
                                                     else ""))
    if not ok:
        failures.append(name)


def csv_table(values: dict, levels) -> dict:
    """Render values as a driver's report.csv and parse it back."""
    lines = ["level,error,order,scheme"]
    for scheme, vals in values.items():
        printed = [""] + [f"{o:.4f}" for o in checks.orders(vals)]
        lines += [f"{lvl},{v!r},{o},{scheme}"
                  for lvl, v, o in zip(levels, vals, printed)]
    return checks.parse_report_csv("\n".join(lines) + "\n")


def expect(label: str, found: list, failing: str | None) -> None:
    """All checks pass (failing=None), or exactly those whose name starts
    with `failing` fail."""
    bad = [name for name, ok, _ in found if not ok]
    if failing is None:
        report(f"{label}: passes on the reference", not bad,
               f"failed: {bad}" if bad else f"{len(found)} checks")
    else:
        hit = [n for n in bad if n.startswith(failing)]
        report(f"{label}: '{failing}' fails", bool(hit) and hit == bad,
               f"failed: {bad}")


def scaled(table: dict, scheme: str, index: int, factor: float) -> dict:
    out = copy.deepcopy(table)
    out[scheme][index] *= factor
    return out


def test_tiny_workloads() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in spec["per_layer"]}
    for name in WORKLOADS:
        start = time.monotonic()
        rounds, metrics = run.trace(name, start + 170, tiny=True)
        bad = [c[0] for r in rounds for c in r["checks"] if not c[1]]
        report(f"tiny {name}: runs, residuals pass, per-layer metrics "
               f"reported",
               not any(r["failed"] for r in rounds) and not bad
               and set(metrics) == wanted,
               f"{sum(len(r['checks']) for r in rounds)} checks, failed "
               f"{bad}, missing {sorted(wanted - set(metrics))}, extra "
               f"{sorted(set(metrics) - wanted)}, "
               f"{time.monotonic() - start:.1f} s")


def test_v_sweep() -> None:
    levels_v, levels_s = (64, 128, 256), (64, 128, 256, 512)

    def run_check(conv=CONV_V, constraint=CONSTRAINT):
        return checks.v_sweep(csv_table(conv, levels_v),
                              csv_table(constraint, levels_s))
    expect("v-sweep", run_check(), None)
    expect("v-sweep", run_check(conv=scaled(CONV_V, "improved", 1, 2.0)),
           "improved velocity orders")
    expect("v-sweep", run_check(conv={
        **CONV_V, "original": [0.4, 0.2, 0.1]}), "original velocity")
    expect("v-sweep", run_check(
        constraint=scaled(CONSTRAINT, "original", 2, 1.5)),
        "constraint S first order (original)")
    expect("v-sweep", run_check(
        constraint=scaled(CONSTRAINT, "improved", 3, 0.5)),
        "constraint S first order (improved)")
    table = csv_table(CONV_V, levels_v)
    table["improved"][2][1] += 1e-3
    expect("v-sweep", checks.v_sweep(table, csv_table(CONSTRAINT, levels_s)),
           "conv-v improved printed orders")


def test_x_sweep() -> None:
    levels = (25, 50, 100)
    ratio = PEAKS["original"] / PEAKS["improved"]

    def run_check(conv=CONV_X, peaks=PEAKS, reported=ratio):
        return checks.x_sweep(csv_table(conv, levels), peaks, reported)
    expect("x-sweep", run_check(), None)
    expect("x-sweep", run_check(conv=scaled(CONV_X, "improved", 1, 3.0)),
           "spatial aggregate order (improved)")
    expect("x-sweep", run_check(conv=scaled(CONV_X, "original", 1, 0.5)),
           "spatial aggregate order (original)")
    expect("x-sweep", run_check(peaks={**PEAKS, "improved": 2.0},
                                reported=PEAKS["original"] / 2.0),
           "figure centre peak ratio")
    expect("x-sweep", run_check(reported=ratio * (1 + 1e-9)),
           "figure ratio matches")


def test_norm_table() -> None:
    from wignerlab.cli import load_config, run_norms
    cfg = replace(load_config(run.ROOT / "configs" / "norms.cfg"),
                  levels=(32, 64, 128))
    out = run.OUT / "selftest" / "norms"
    run_norms(cfg, out)
    rows = checks.parse_norms_csv((out / "norms.csv").read_text())
    bounds = worker.norm_bounds(cfg, rows, wigner_potential())
    v_max = worker.max_abs_v(cfg)

    def perturbed(key, index, factor):
        out = copy.deepcopy(rows)
        out[index][key] *= factor
        return out
    expect("norm-table", checks.norm_table(rows, v_max, bounds), None)
    expect("norm-table", checks.norm_table(
        perturbed("norm_theta", 1, 2.5), v_max, bounds), "|theta|_2")
    expect("norm-table", checks.norm_table(
        perturbed("norm_B", 2, 2.5), v_max, bounds), "|B|_2")
    # just below the row bound at every level: the growth factors stay sqrt(2)
    scaled_a = copy.deepcopy(rows)
    for row, (lo, _) in zip(scaled_a, bounds):
        row["norm_A"] = 0.9 * lo
    expect("norm-table", checks.norm_table(scaled_a, v_max, bounds),
           "|A|_2 between")
    growth = copy.deepcopy(rows)
    for k, row in enumerate(growth):
        row["norm_A"] = rows[0]["norm_A"] * 2.0 ** k
    bounds_wide = [(0.0, math.inf)] * len(rows)
    expect("norm-table", checks.norm_table(growth, v_max, bounds_wide),
           "|A|_2 grows")


def test_residual() -> None:
    from wignerlab.bvp_solver import SpatialMesh, solve_bvp
    from wignerlab.cli import load_config
    from wignerlab.operators import VelocityMesh
    cfg = load_config(run.ROOT / "configs" / "conv_v.cfg")
    for scheme in ("original", "improved"):
        args = (cfg.profile(), SpatialMesh(cfg.device_length, 8),
                VelocityMesh(64, 1 / 64), cfg.quad(), scheme,
                cfg.boundary_conditions())
        sol = solve_bvp(*args)

        def check(values):
            bad = copy.copy(sol)
            bad.values = values
            return worker.residual_checks("tiny", cfg, [(args, bad)],
                                          wigner_potential())
        expect(f"residual ({scheme})", check(sol.values), None)
        interior = sol.values.copy()
        interior[4, 10] += 1e-6 * np.abs(sol.values).max()
        expect(f"residual ({scheme})", check(interior),
               "tiny solve 0 (" + scheme + ", N_x=8, N_v=64) interior")
        # the solution is linear in the inflow data, so this solves the same
        # equations for slightly wrong inflow data
        expect(f"residual ({scheme})", check(sol.values * (1 + 1e-9)),
               "tiny solve 0 (" + scheme + ", N_x=8, N_v=64) inflow")


def main() -> int:
    test_v_sweep()
    test_x_sweep()
    test_norm_table()
    test_residual()
    test_tiny_workloads()
    print(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
