"""Names that tooling outside the package looks up on `wignerlab`.

The benchmark's tracer wraps module attributes listed in
`benchmarks/tracing.py` (`SEAMS`), its workloads call the `wignerlab.cli`
drivers named in `benchmarks/workloads.py` with `(cfg, out_dir)`, and
`wignerlab.__all__` is the package's export list.  Deleting or renaming one
of these names, or changing a driver's parameters, must fail here, not in a
later benchmark run.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import wignerlab
import wignerlab.cli as cli

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


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
