"""The benchmark's workloads: which studies run on which configs.

Each workload is a fixed list of refinement studies run one after another
through the public drivers of `wignerlab.cli`.  Inputs are the committed
configs under `configs/`; the only changes are the fields listed in
`overrides`, which trim (or, for `norms`, extend) the refinement levels so
that one round fits a benchmark run.  `tiny` holds the further reductions the
self-test uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Study:
    """One driver call: CLI name, driver in `wignerlab.cli`, config file."""

    name: str
    driver: str
    config: str
    overrides: dict = field(default_factory=dict)
    tiny: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """A workload's studies; BENCHMARK.json says why it was chosen."""

    name: str
    studies: tuple


WORKLOADS = {w.name: w for w in (
    # The original scheme's aggregate order only drops below 0.6 once
    # N_v = 512 is the reference (0.52 there, 0.72 with 256).  N_x is cut
    # from 100 to 25, the coarsest level of conv_x.cfg, so that a run holds
    # at least two rounds: single ~30 s rounds at N_x = 50 spread by 9 %
    # between runs.  The velocity orders barely move (improved 2.0380 and
    # 1.9820 at N_x = 25 against 1.9934 and 1.9630 at 100).
    Workload(
        name="v-sweep",
        studies=(
            Study("conv-v", "run_v_convergence", "conv_v.cfg",
                  {"levels": (64, 128, 256, 512), "n_x": 25},
                  {"levels": (64, 128, 256), "n_x": 8}),
            Study("constraint", "run_constraint_study", "conv_v.cfg",
                  {"levels": (64, 128, 256, 512), "n_x": 25},
                  {"levels": (64, 128, 256), "n_x": 8}),
        )),
    Workload(
        name="x-sweep",
        studies=(
            Study("conv-x", "run_x_convergence", "conv_x.cfg",
                  {"levels": (25, 50, 100)},
                  {"levels": (8, 16, 32)}),
            Study("figure", "run_figure_comparison", "figure.cfg",
                  {}, {"n_x": 8}),
        )),
    Workload(
        name="norm-table",
        studies=(
            Study("norms", "run_norms", "norms.cfg",
                  {"levels": (32, 64, 128, 256, 512, 1024)},
                  {"levels": (32, 64, 128)}),
        )),
)}
