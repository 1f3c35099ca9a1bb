"""One round of a workload in a fresh process.

Usage: python3 benchmarks/worker.py --workload NAME --mode setup|run|trace
       --out DIR [--tiny]

The process imports `wignerlab` from the checkout's `src/`, parses the
workload's configs (set-up ends here), runs the workload's studies one after
another, then checks their outputs.  It prints one JSON object on stdout.
`setup` stops after set-up; `trace` installs the span tracer for the studies
and adds the per-layer metrics and the residual check of every solve.
"""

import argparse
import contextlib
import ctypes
import glob
import json
import resource
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

import checks
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def load_configs(cli, workload, tiny=False):
    cfgs = {}
    for study in workload.studies:
        cfg = cli.load_config(ROOT / "configs" / study.config)
        fields = {**study.overrides, **(study.tiny if tiny else {})}
        cfgs[study.name] = replace(cfg, **fields)
    return cfgs


def _gaussian(spec):
    if spec is None:
        return np.zeros_like
    amp, center, width = spec
    return lambda v: amp * np.exp(-(v - center) ** 2 / width)


def velocity_nodes(n_v, h):
    return (2 * (np.arange(n_v) - n_v // 2) + 1) * np.pi * h


def lattice(n_v, h):
    """The difference lattice k*dv, k = -(N_v-1) .. N_v-1."""
    return np.arange(-(n_v - 1), n_v) * 2 * np.pi * h


def residual_checks(study, cfg, solves, wigner_potential):
    """Residual and inflow check of every captured solve of one study."""
    out = []
    cache = {}
    for k, (args, sol) in enumerate(solves):
        profile, smesh, vmesh, quad, scheme = args[:5]
        n_v, h = vmesh.n_v, vmesh.h
        v = velocity_nodes(n_v, h)

        def samples(x):
            key = (profile, x, n_v, h, quad)
            if key not in cache:
                cache[key] = (wigner_potential(profile, x, lattice(n_v, h),
                                               quad),
                              wigner_potential(profile, x, -v, quad))
            return cache[key]

        x = -smesh.length / 2 + smesh.length / smesh.n_x * np.arange(
            smesh.n_x + 1)
        rel, inflow = checks.solve_residual(
            sol.values, x, v, h, scheme, samples,
            _gaussian(cfg.inflow_left), _gaussian(cfg.inflow_right))
        out += checks.residuals(
            f"{study} solve {k} ({scheme}, N_x={smesh.n_x}, N_v={n_v})",
            rel, inflow)
    return out


def max_abs_v(cfg):
    """Largest |V| of the config's piecewise-constant potential."""
    return max([abs(s[2]) for s in cfg.segments] + [abs(cfg.default_v)])


def norm_bounds(cfg, rows, wigner_potential):
    """Row and Frobenius bounds of |A|_2 for each row of the norms table."""
    bounds = []
    for row in rows:
        n_v, h = int(2 * row["r_h"]), 1 / (2 * row["r_h"])
        symbol = wigner_potential(cfg.profile(), cfg.norm_position,
                                  lattice(n_v, h), cfg.quad())
        bounds.append(checks.dense_a_bounds(symbol, velocity_nodes(n_v, h),
                                            h))
    return bounds


def workload_checks(name, cfgs, results, out_dir, wigner_potential):
    """Method-property checks on the CSV files the drivers wrote."""
    def text(*parts):
        return out_dir.joinpath(*parts).read_text(encoding="utf-8")

    if name == "v-sweep":
        return checks.v_sweep(
            checks.parse_report_csv(text("conv-v", "report.csv")),
            checks.parse_report_csv(text("constraint", "report.csv")))
    if name == "x-sweep":
        peaks = {s: checks.center_peak(*checks.parse_slice_csv(
            text("figure", f"slice_center_{s}.csv")))
            for s in ("original", "improved")}
        return checks.x_sweep(
            checks.parse_report_csv(text("conv-x", "report.csv")), peaks,
            results["figure"]["center_ratio"])
    cfg = cfgs["norms"]
    rows = checks.parse_norms_csv(text("norms", "norms.csv"))
    return checks.norm_table(rows, max_abs_v(cfg),
                             norm_bounds(cfg, rows, wigner_potential))


def blas_threads():
    """Thread counts reported by the OpenBLAS copies numpy and scipy load."""
    counts = {}
    for pkg in (np, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    counts[pkg.__name__] = fn()
                    break
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    import wignerlab.cli as cli
    workload = WORKLOADS[args.workload]
    cfgs = load_configs(cli, workload, args.tiny)
    ready = time.monotonic()
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"wignerlab imported from {cli.__file__}, not from {ROOT}/src",
              file=sys.stderr)
        return 2
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    modules = {name: sys.modules[f"wignerlab.{name}"] for name in
               ("cli", "bvp_solver", "operators", "wigner_potential")}
    wigner_potential = modules["wigner_potential"].wigner_potential
    out_dir = Path(args.out)
    studies_dir = out_dir / "studies"
    tracer = Tracer(modules) if args.mode == "trace" else None
    captured = {}
    results = {}
    failed = 0

    with tracer or contextlib.nullcontext():
        t0, c0 = time.perf_counter(), time.process_time()
        for study in workload.studies:
            before = len(tracer.solves) if tracer else 0
            try:
                results[study.name] = getattr(cli, study.driver)(
                    cfgs[study.name], studies_dir / study.name)
            except Exception:
                traceback.print_exc()
                failed += 1
            if tracer:
                captured[study.name] = tracer.solves[before:]
        t1, c1 = time.perf_counter(), time.process_time()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # The property checks need every study's output, and their bands hold
    # only at the full sizes.
    found = []
    if not failed and not args.tiny:
        found += workload_checks(workload.name, cfgs, results, studies_dir,
                                 wigner_potential)
    layers = {}
    if tracer:
        for study, solves in captured.items():
            found += residual_checks(study, cfgs[study], solves,
                                     wigner_potential)
        layers = tracer.layer_metrics()
        layers["cli.output_bytes"] = (sum(
            p.stat().st_size for p in studies_dir.rglob("*") if p.is_file()),
            "bytes")
        tracer.write(out_dir / "spans.jsonl")

    print(json.dumps({
        "ready": ready,
        "study_s": t1 - t0,
        "study_cpu_s": c1 - c0,
        "peak_rss_mb": peak_kib / 1024,
        "attempted": len(workload.studies),
        "failed": failed,
        "checks": found,
        "layers": layers,
        "blas_threads": blas_threads(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
