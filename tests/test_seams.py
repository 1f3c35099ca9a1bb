"""Names that tooling outside the package looks up on `wignerlab`.

The benchmark's tracer wraps module attributes listed in
`benchmarks/tracing.py` (`SEAMS`), and `wignerlab.__all__` is the package's
export list.  Deleting or renaming one of these names must fail here, not in
a later benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import wignerlab

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _seams():
    spec = importlib.util.spec_from_file_location("benchmark_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SEAMS


def test_benchmark_seams_resolve():
    missing = [f"wignerlab.{mod}.{attr}" for mod, attr, *_ in _seams()
               if not hasattr(importlib.import_module(f"wignerlab.{mod}"),
                              attr)]
    assert not missing


def test_package_exports_resolve():
    assert [name for name in wignerlab.__all__
            if not hasattr(wignerlab, name)] == []
