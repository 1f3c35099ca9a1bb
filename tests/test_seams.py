"""Names that tooling outside the package looks up on `wignerlab`.

The benchmark's tracer wraps module attributes listed in
`benchmarks/tracing.py` (`SEAMS`), its workloads call the `wignerlab.cli`
drivers named in `benchmarks/workloads.py` with `(cfg, out_dir)`, and
`wignerlab.__all__` is the package's export list.  Deleting or renaming one
of these names, or changing a driver's parameters, must fail here, not in a
later benchmark run.  So must a solve that the benchmark's own correctness
check (`benchmarks/checks.py`) would refuse.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import wignerlab
import wignerlab.cli as cli
from wignerlab.bvp_solver import SpatialMesh, solve_bvp
from wignerlab.operators import VelocityMesh
from wignerlab.wigner_potential import wigner_potential

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}",
                                                  BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _seams():
    return _load("tracing").SEAMS


def test_benchmark_seams_resolve():
    missing = [f"wignerlab.{mod}.{attr}" for mod, attr, *_ in _seams()
               if not hasattr(importlib.import_module(f"wignerlab.{mod}"),
                              attr)]
    assert not missing


def test_workload_drivers_take_config_and_out_dir():
    # the benchmark's worker calls `getattr(cli, driver)(cfg, out_dir)`
    drivers = {study.driver
               for workload in _load("workloads").WORKLOADS.values()
               for study in workload.studies}
    assert drivers
    for driver in drivers:
        params = inspect.signature(getattr(cli, driver)).parameters
        assert list(params) == ["cfg", "out_dir"], driver


def test_package_exports_resolve():
    assert [name for name in wignerlab.__all__
            if not hasattr(wignerlab, name)] == []


@pytest.mark.parametrize("scheme", ["original", "improved"])
@pytest.mark.parametrize("n_v", [64, 128, 256])
def test_solves_pass_the_benchmark_residual_check(scheme, n_v):
    # The check rebuilds the interior equations from V_w samples and the
    # stored solution, as the benchmark's worker does, and holds them to
    # 1e-10 relative; they read 1.1e-12 to 3.0e-12 here.
    checks = _load("checks")
    cfg = cli.load_config(ROOT / "configs" / "conv_v.cfg")
    h = 1 / n_v  # R_h = N_v / 2
    quad, profile, bc = cfg.quad(), cfg.profile(), cfg.boundary_conditions()
    sol = solve_bvp(profile, SpatialMesh(cfg.device_length, n_x=8),
                    VelocityMesh(n_v, h), quad, scheme, bc)
    v = (2 * (np.arange(n_v) - n_v // 2) + 1) * np.pi * h
    lattice = np.arange(-(n_v - 1), n_v) * 2 * np.pi * h
    x = -cfg.device_length / 2 + cfg.device_length / 8 * np.arange(9)

    def samples(x_i):
        return (wigner_potential(profile, x_i, lattice, quad),
                wigner_potential(profile, x_i, -v, quad))

    rel, inflow = checks.solve_residual(sol.values, x, v, h, scheme, samples,
                                        bc.f_left, bc.f_right)
    assert rel <= checks.RESIDUAL_TOL
    assert inflow <= checks.INFLOW_TOL
