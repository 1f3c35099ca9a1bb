"""In-memory span tracer installed at the seams between wignerlab modules.

Every seam is a module attribute through which one module calls another, so
wrapping it there records the call without editing the package.  A span is
(name, start, end, parent, size); `size` is a work figure taken from the
call's arguments (unknowns, block order, quadrature terms, bytes).  The layer
of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "bvp_solver", "operators", "wigner_potential", "potential",
          "diagnostics")


def _solve_size(system, *_, **__):
    return (system.smesh.n_x + 1) * system.vmesh.n_v


def _system_bytes(profile, smesh, vmesh, *_, **__):
    # dense diagonal blocks, four diagonal bands and the right-hand side
    return 8 * (smesh.n_x + 1) * (vmesh.n_v ** 2 + 5 * vmesh.n_v)


def _block_order(a, *_, **__):
    return np.shape(a)[0]


def _quadrature_terms(profile, x, v, quad, *_, **__):
    return quad.n_y * np.size(v)


# (module, attribute the caller looks up, span name, size function)
SEAMS = (
    ("cli", "run_v_convergence", "cli.run_v_convergence", None),
    ("cli", "run_constraint_study", "cli.run_constraint_study", None),
    ("cli", "run_x_convergence", "cli.run_x_convergence", None),
    ("cli", "run_figure_comparison", "cli.run_figure_comparison", None),
    ("cli", "run_norms", "cli.run_norms", None),
    ("cli", "solve_bvp", "bvp_solver.solve_bvp", None),
    ("cli", "l2_error", "diagnostics.l2_error", None),
    ("cli", "constraint_residual", "diagnostics.constraint_residual", None),
    ("cli", "build_theta_kernel", "operators.build_theta_kernel", None),
    ("cli", "operator_norm", "operators.operator_norm", None),
    ("bvp_solver", "assemble_system", "bvp_solver.assemble_system",
     _system_bytes),
    ("bvp_solver", "solve", "bvp_solver.solve", _solve_size),
    ("bvp_solver", "lu_factor", "bvp_solver.lu_factor", _block_order),
    ("bvp_solver", "lu_solve", "bvp_solver.lu_solve", None),
    ("bvp_solver", "build_theta_kernel", "operators.build_theta_kernel",
     None),
    ("bvp_solver", "materialize", "operators.materialize", None),
    ("operators", "materialize", "operators.materialize", None),
    ("operators", "wigner_potential", "wigner_potential.wigner_potential",
     _quadrature_terms),
    ("wigner_potential", "potential_difference",
     "potential.potential_difference", None),
)


class Tracer:
    """Records spans while installed; `solves` keeps each solve_bvp call's
    arguments and result for the residual check."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.solves: list[tuple] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, original, name, size_fn):
        spans, stack = self.spans, self._stack
        capture = self.solves if name == "bvp_solver.solve_bvp" else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    size_fn(*args, **kwargs) if size_fn else 0]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if capture is not None:
                capture.append((args, result))
            return result
        return wrapper

    def __enter__(self):
        for mod_name, attr, name, size_fn in SEAMS:
            module = self.modules[mod_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, size_fn))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer counts, times and self times from the recorded spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        sampled = set()
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
                if name == "wigner_potential.wigner_potential":
                    sampled.add(parent)
        calls = defaultdict(int)
        total = defaultdict(float)
        size = defaultdict(list)
        self_time = dict.fromkeys(LAYERS, 0.0)
        for k, (name, start, end, parent, work) in enumerate(spans):
            calls[name] += 1
            total[name] += end - start
            size[name].append(work)
            self_time[name.split(".", 1)[0]] += end - start - child_time[k]

        kernel_calls = calls["operators.build_theta_kernel"]
        factor_gflop = sum(2 * n ** 3 / 3
                           for n in size["bvp_solver.lu_factor"]) / 1e9
        solve_s = total["bvp_solver.solve"]
        m = {
            "bvp_solver.solves": (calls["bvp_solver.solve"], "count"),
            "bvp_solver.unknowns": (sum(size["bvp_solver.solve"]), "count"),
            "bvp_solver.assemble_s": (total["bvp_solver.assemble_system"],
                                      "s"),
            "bvp_solver.solve_s": (solve_s, "s"),
            "bvp_solver.lu_factor_s": (total["bvp_solver.lu_factor"], "s"),
            "bvp_solver.lu_factor_calls": (calls["bvp_solver.lu_factor"],
                                           "count"),
            "bvp_solver.lu_solve_s": (total["bvp_solver.lu_solve"], "s"),
            "bvp_solver.lu_solve_calls": (calls["bvp_solver.lu_solve"],
                                          "count"),
            "bvp_solver.factor_gflop": (factor_gflop, "GFLOP"),
            "bvp_solver.solve_gflops": (
                factor_gflop / solve_s if solve_s > 0 else 0.0, "GFLOP/s"),
            "bvp_solver.system_mb": (
                max(size["bvp_solver.assemble_system"], default=0) / 2 ** 20,
                "MB"),
            "operators.kernel_calls": (kernel_calls, "count"),
            "operators.kernel_s": (total["operators.build_theta_kernel"],
                                   "s"),
            "operators.kernel_cache_hit_ratio": (
                (kernel_calls - len(sampled)) / kernel_calls
                if kernel_calls else 0.0, "ratio"),
            "operators.materialize_s": (total["operators.materialize"], "s"),
            "operators.norm_calls": (calls["operators.operator_norm"],
                                     "count"),
            "operators.norm_s": (total["operators.operator_norm"], "s"),
            "wigner_potential.calls": (
                calls["wigner_potential.wigner_potential"], "count"),
            "wigner_potential.s": (total["wigner_potential.wigner_potential"],
                                   "s"),
            "wigner_potential.terms": (
                sum(size["wigner_potential.wigner_potential"]), "count"),
            "potential.diff_calls": (calls["potential.potential_difference"],
                                     "count"),
            "diagnostics.l2_error_s": (total["diagnostics.l2_error"], "s"),
            "diagnostics.constraint_s": (
                total["diagnostics.constraint_residual"], "s"),
        }
        m["cli.studies"] = (sum(n for name, n in calls.items()
                                if name.startswith("cli.")), "count")
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (self_time[layer], "s")
        m["trace.spans"] = (len(spans), "count")
        return m
