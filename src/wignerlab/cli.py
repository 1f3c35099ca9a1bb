"""Experiment command line: canned studies, config parsing, file outputs.

Subcommands
-----------
figure      solve both schemes on one configuration and dump velocity slices
            near the left contact and at the device center (CSV + SVG).
conv-v      velocity refinement study against the finest level.
conv-x      spatial refinement study against the finest level.
constraint  kernel-moment residual S over the velocity refinement sweep.
solve       single solve, full solution dump.
norms       operator norms across a coherence-length sweep.

Config files are line-oriented `key = value` pairs with `#` comments.
Numeric values may carry a `pi` suffix (`0.5pi`).  Unknown keys are errors.
The config is a study's only input: every driver takes `(cfg, out_dir)`,
and `--scheme` replaces the config's `scheme` before it is checked.

A study builds the meshes of every refinement level before its first
solve, so a bad level stops it before any work.  Every solving study then
solves through one sweep, which keeps its two latest results, keyed on the
config, the scheme and the meshes: `conv-v` and `constraint`, and `figure`
and `solve`, on one config share their solves.

Exit codes: 0 success, 1 any other package error (such as a system too
large for physical memory) or an output that cannot be written,
2 configuration error (an unreadable config file included), 3 solver error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .bvp_solver import (BoundaryConditions, SpatialMesh, solution_to_csv,
                         solve_bvp)
from .diagnostics import ExperimentReport, constraint_residual, l2_error
from .errors import ConfigurationError, SolverError, WignerlabError
from .operators import VelocityMesh, build_theta_kernel, operator_norm
from .potential import PotentialProfile
from .wigner_potential import QuadratureSpec

__all__ = ["RunConfig", "parse_config", "load_config", "main",
           "run_figure_comparison", "run_v_convergence", "run_x_convergence",
           "run_constraint_study", "run_solve", "run_norms"]

# config key -> RunConfig field
_FIELDS = {
    "device_length": "device_length", "segment": "segments",
    "default_V": "default_v", "N_x": "n_x", "N_v": "n_v", "R_h": "r_h",
    "Ly": "l_y", "dy": "dy", "inflow_left": "inflow_left",
    "inflow_right": "inflow_right", "scheme": "scheme", "levels": "levels",
    "norm_position": "norm_position",
}
_REQUIRED_KEYS = {"N_x", "N_v", "R_h", "Ly", "dy"}

# config `scheme` -> the schemes a study runs
_SCHEMES = {"original": ("original",), "improved": ("improved",),
            "both": ("original", "improved")}

# study -> (default refinement levels, fewest levels that give an order,
# the (N_x, N_v, R_h) that one level solves at).  figure and solve read no
# levels and solve once, at the config's own sizes.  conv-v and constraint
# share a default so that they share their solves.
_VELOCITY_LEVELS = (64, 128, 256, 512, 1024)
_STUDIES = {
    "figure": ((None,), 0, lambda c, _: (c.n_x, c.n_v, c.r_h)),
    "solve": ((None,), 0, lambda c, _: (c.n_x, c.n_v, c.r_h)),
    "conv-v": (_VELOCITY_LEVELS, 3, lambda c, n_v: (c.n_x, n_v, n_v / 2)),
    "constraint": (_VELOCITY_LEVELS, 2, lambda c, n_v: (c.n_x, n_v, n_v / 2)),
    "conv-x": ((25, 50, 100, 200, 400), 3,
               lambda c, n_x: (n_x, c.n_v, c.r_h)),
    "norms": ((32, 64, 128, 256, 512), 1,
              lambda c, r_h: (c.n_x, 2 * r_h, r_h)),
}


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """Validated experiment parameters shared by all subcommands.

    Construction checks every rule by building the mesh, quadrature and
    potential objects that own it, so a config that exists is valid however
    it was made.
    """

    device_length: float = 50.0
    segments: tuple = ()
    default_v: float = 0.0
    n_x: int
    n_v: int
    r_h: float
    l_y: float
    dy: float
    inflow_left: tuple[float, float, float] | None = None
    inflow_right: tuple[float, float, float] | None = None
    scheme: str = "both"
    levels: tuple = ()
    norm_position: float = 10.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments",
                           tuple(tuple(s) for s in self.segments))
        object.__setattr__(self, "levels", tuple(self.levels))
        for side in ("inflow_left", "inflow_right"):
            spec = getattr(self, side)
            if spec is None:
                continue
            spec = tuple(spec)
            if len(spec) != 3 or not all(np.isfinite(spec)) or spec[2] <= 0:
                raise ConfigurationError(
                    f"{side} needs a finite amplitude, center and positive "
                    f"width, got {spec}")
            object.__setattr__(self, side, spec)
        if not self.r_h > 0:
            raise ConfigurationError(f"R_h must be positive, got {self.r_h}")
        SpatialMesh(length=self.device_length, n_x=self.n_x)
        VelocityMesh(n_v=self.n_v, h=self.h)
        self.quad()
        if not self.l_y < self.r_h:
            raise ConfigurationError(
                f"aliasing guard violated: need Ly < R_h, got Ly={self.l_y} "
                f"and R_h={self.r_h}")
        self.profile()
        if self.scheme not in _SCHEMES:
            raise ConfigurationError(
                f"scheme must be original, improved or both, got "
                f"{self.scheme!r}")
        if not np.isfinite(self.norm_position):
            raise ConfigurationError(
                f"norm_position must be finite, got {self.norm_position}")

    @property
    def schemes(self) -> tuple:
        """The schemes a study runs, `both` expanded."""
        return _SCHEMES[self.scheme]

    @property
    def h(self) -> float:
        return 1.0 / (2 * self.r_h)

    def profile(self) -> PotentialProfile:
        return PotentialProfile(segments=self.segments,
                                default_value=self.default_v)

    def quad(self) -> QuadratureSpec:
        return QuadratureSpec(l_y=self.l_y, dy=self.dy)

    def boundary_conditions(self) -> BoundaryConditions:
        return BoundaryConditions(f_left=_gaussian(self.inflow_left),
                                  f_right=_gaussian(self.inflow_right))


def _gaussian(spec):
    if spec is None:
        return lambda v: np.zeros_like(np.asarray(v, dtype=float))
    amp, center, width = spec
    return lambda v: amp * np.exp(-(np.asarray(v, dtype=float) - center) ** 2
                                  / width)


def _number(token: str, lineno: int) -> float:
    token = token.strip()
    scale = 1.0
    if token.endswith("pi"):
        scale = np.pi
        token = token[:-2].strip()
        if token in ("", "+", "-"):
            token += "1"
    try:
        return float(token) * scale
    except ValueError:
        raise ConfigurationError(
            f"line {lineno}: malformed number {token!r}") from None


def _integer(token: str, lineno: int) -> int:
    value = _number(token, lineno)
    if not value.is_integer():
        raise ConfigurationError(f"line {lineno}: expected an integer, "
                                 f"got {token.strip()!r}")
    return int(value)


def _triple(value: str, lineno: int, what: str) -> tuple:
    parts = value.split(",")
    if len(parts) != 3:
        raise ConfigurationError(f"line {lineno}: {what}")
    return tuple(_number(p, lineno) for p in parts)


def parse_config(text: str) -> RunConfig:
    """Parse a config file into a `RunConfig`; unknown keys are rejected."""
    fields = {}
    segments = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELDS:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        if key == "segment":
            segments.append(_triple(value, lineno, "segment needs 'a,b,value'"))
            continue
        if key in ("N_x", "N_v"):
            parsed = _integer(value, lineno)
        elif key in ("inflow_left", "inflow_right"):
            parsed = _triple(value, lineno,
                             f"{key} needs 'amplitude,center,width'")
        elif key == "scheme":
            parsed = value
        elif key == "levels":
            parsed = tuple(_integer(p, lineno) for p in value.split(","))
        else:
            parsed = _number(value, lineno)
        fields[_FIELDS[key]] = parsed
    missing = {k for k in _REQUIRED_KEYS if _FIELDS[k] not in fields}
    if missing:
        raise ConfigurationError(
            f"missing required keys: {', '.join(sorted(missing))}")
    return RunConfig(segments=tuple(segments), **fields)


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


def _meshes(cfg: RunConfig, study: str) -> tuple:
    """The study's levels and the (SpatialMesh, VelocityMesh) of each level,
    all built before any solve, so that a bad level stops the study first.

    Levels are the config's or the study's default: positive, strictly
    ascending and enough of them for an order; for `conv-x`, each also
    divides the finest, so the coarse grids nest in it; for `conv-v`, each
    has at least 4 velocities, because its error resamples each half-line
    linearly, which takes two nodes.  The meshes check the rest, such as an
    odd N_v or an N_x below the upwind stencil's minimum.
    """
    levels, fewest, sizes = _STUDIES[study]
    if fewest:
        levels = cfg.levels or levels
        if (len(levels) < fewest
                or not all(a < b for a, b in zip((0,) + levels, levels))):
            raise ConfigurationError(
                f"{study} needs at least {fewest} positive, strictly "
                f"ascending refinement levels, got {levels}")
        if study == "conv-x" and any(levels[-1] % n_x for n_x in levels):
            raise ConfigurationError(
                f"conv-x levels must each divide the finest, got {levels}")
        if study == "conv-v" and levels[0] < 4:
            raise ConfigurationError(
                f"conv-v levels need N_v >= 4, two velocities on each "
                f"half-line, got {levels}")
    return levels, tuple(
        (SpatialMesh(length=cfg.device_length, n_x=n_x),
         VelocityMesh(n_v, 1.0 / (2 * r_h)))
        for n_x, n_v, r_h in (sizes(cfg, level) for level in levels))


@lru_cache(maxsize=2)
def _sweep(cfg: RunConfig, scheme: str, meshes: tuple) -> tuple:
    """One scheme's solutions on the meshes, in order; every study solves
    here.  The two latest sweeps are kept, keyed on the config, the scheme
    and the meshes, so studies that solve the same meshes share them."""
    return tuple(solve_bvp(cfg.profile(), smesh, vmesh, cfg.quad(), scheme,
                           cfg.boundary_conditions())
                 for smesh, vmesh in meshes)


# --------------------------------------------------------------------------
# SVG output


def _svg_plot(path: Path, curves, title: str) -> None:
    """Minimal deterministic line plot: axes box plus one polyline per curve."""
    width, height, pad = 640, 480, 50
    xs = np.concatenate([c[1] for c in curves])
    ys = np.concatenate([c[2] for c in curves])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" '
        f'height="{height - 2 * pad}" fill="none" stroke="black"/>',
        f'<text x="{width // 2}" y="{pad - 15}" text-anchor="middle" '
        f'font-size="14">{title}</text>',
        f'<text x="{pad - 5}" y="{height - pad + 15}" text-anchor="end" '
        f'font-size="11">{x0:.6g}</text>',
        f'<text x="{width - pad}" y="{height - pad + 15}" text-anchor="end" '
        f'font-size="11">{x1:.6g}</text>',
        f'<text x="{pad - 5}" y="{height - pad}" text-anchor="end" '
        f'font-size="11">{y0:.6g}</text>',
        f'<text x="{pad - 5}" y="{pad + 5}" text-anchor="end" '
        f'font-size="11">{y1:.6g}</text>',
    ]
    for k, (label, cx, cy) in enumerate(curves):
        pts = " ".join(f"{x:.2f},{y:.2f}"
                       for x, y in zip(sx(cx).tolist(), sy(cy).tolist()))
        color = colors[k % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width - pad - 5}" y="{pad + 20 + 16 * k}" '
                     f'text-anchor="end" font-size="12" '
                     f'fill="{color}">{label}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


# --------------------------------------------------------------------------
# Subcommand drivers


def run_figure_comparison(cfg: RunConfig, out_dir: Path) -> dict:
    """Solve and dump f(x_loc, .) slices near the left contact and at the
    device center, per scheme, plus one SVG per location."""
    _, meshes = _meshes(cfg, "figure")
    out_dir.mkdir(parents=True, exist_ok=True)
    sols = {s: _sweep(cfg, s, meshes)[0] for s in cfg.schemes}
    some = next(iter(sols.values()))
    locs = {"left": 1, "center": some.smesh.n_x // 2}
    v = some.vmesh.nodes
    result = {"locations": {}}
    for name, i in locs.items():
        x_loc = some.smesh.nodes[i]
        result["locations"][name] = x_loc
        curves = []
        for scheme, sol in sols.items():
            slice_path = out_dir / f"slice_{name}_{scheme}.csv"
            with open(slice_path, "w", encoding="utf-8") as fh:
                fh.write(f"# x = {x_loc:.17g}\n")
                fh.write("v,f\n")
                fh.write("".join(f"{vv:.17g},{ff:.17g}\n" for vv, ff in
                                 zip(v.tolist(), sol.values[i].tolist())))
            curves.append((scheme, v, sol.values[i]))
        _svg_plot(out_dir / f"figure_{name}.svg", curves,
                  f"f(x={x_loc:.6g}, v)")
    if {"original", "improved"} <= set(sols):
        near = np.argsort(np.abs(v))[:3]
        peak = {s: float(np.abs(sols[s].values[locs["center"]][near]).max())
                for s in sols}
        result["center_peak"] = peak
        result["center_ratio"] = peak["original"] / peak["improved"]
    return result


def _report(cfg: RunConfig, out_dir: Path, study: str, axis: str,
            measure) -> ExperimentReport:
    """Sweep the study's levels per scheme and report `measure(levels,
    solutions)`, the levels it reports and one number for each."""
    levels, meshes = _meshes(cfg, study)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = ExperimentReport(axis=axis)
    for scheme in cfg.schemes:
        report.add_scheme(scheme, *measure(levels,
                                           _sweep(cfg, scheme, meshes)))
    (out_dir / "report.csv").write_text(report.to_csv(), encoding="utf-8")
    return report


def _against_finest(levels: tuple, sols: tuple) -> tuple:
    """Each coarse level's error against the finest."""
    return levels[:-1], [l2_error(sol, sols[-1]) for sol in sols[:-1]]


def run_v_convergence(cfg: RunConfig, out_dir: Path) -> ExperimentReport:
    """Velocity refinement sweep at fixed window: R_h = N_v/2 per level,
    errors against the finest level."""
    return _report(cfg, out_dir, "conv-v", "velocity", _against_finest)


def run_x_convergence(cfg: RunConfig, out_dir: Path) -> ExperimentReport:
    """Spatial refinement sweep on a fixed velocity grid, errors against the
    finest level restricted to each coarse (nested) grid."""
    return _report(cfg, out_dir, "conv-x", "space", _against_finest)


def run_constraint_study(cfg: RunConfig, out_dir: Path) -> ExperimentReport:
    """Constraint residual S over the velocity refinement sweep."""
    return _report(cfg, out_dir, "constraint", "velocity",
                   lambda levels, sols: (levels, [constraint_residual(sol)
                                                  for sol in sols]))


def run_solve(cfg: RunConfig, out_dir: Path) -> dict:
    """Single solve per scheme; full solution dump."""
    _, meshes = _meshes(cfg, "solve")
    out_dir.mkdir(parents=True, exist_ok=True)
    out = {}
    for scheme in cfg.schemes:
        sol = _sweep(cfg, scheme, meshes)[0]
        solution_to_csv(sol, out_dir / f"solution_{scheme}.csv")
        out[scheme] = sol
    return out


def run_norms(cfg: RunConfig, out_dir: Path) -> list[dict]:
    """Spectral norms of theta, A and B at one position across an R_h sweep.

    Levels are R_h values; each level uses the matching window N_v = 2 R_h,
    so each doubling of R_h halves h.  Expected behaviour across the levels:
    |theta|_2 <= 2 max|V|, |B|_2 uniformly bounded, and |A|_2 ~ h^(-1/2)
    (growth by sqrt(2) per level).
    """
    levels, meshes = _meshes(cfg, "norms")
    out_dir.mkdir(parents=True, exist_ok=True)
    profile = cfg.profile()
    quad = cfg.quad()
    rows = []
    for r_h, (_, vmesh) in zip(levels, meshes):
        kernel = build_theta_kernel(profile, cfg.norm_position, vmesh, quad)
        norms = operator_norm(kernel)
        rows.append({"r_h": r_h, "norm_theta": norms["theta"],
                     "norm_A": norms["A"], "norm_B": norms["B"]})
    lines = ["r_h,norm_theta,norm_A,norm_B"]
    for row in rows:
        lines.append(f"{row['r_h']:g},{row['norm_theta']:.17g},"
                     f"{row['norm_A']:.17g},{row['norm_B']:.17g}")
    (out_dir / "norms.csv").write_text("\n".join(lines) + "\n",
                                       encoding="utf-8")
    return rows


# --------------------------------------------------------------------------
# Entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wignerlab",
        description="Stationary Wigner boundary-value problem experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("figure", "conv-v", "conv-x", "constraint", "solve", "norms"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default="out")
        if name != "norms":
            p.add_argument("--scheme")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if getattr(args, "scheme", None) is not None:
            cfg = replace(cfg, scheme=args.scheme)
        driver = {"figure": run_figure_comparison,
                  "conv-v": run_v_convergence, "conv-x": run_x_convergence,
                  "constraint": run_constraint_study, "solve": run_solve,
                  "norms": run_norms}[args.command]
        result = driver(cfg, Path(args.out))
        if isinstance(result, ExperimentReport):
            print(result.to_text(), end="")
        elif args.command == "figure":
            for name, x_loc in result["locations"].items():
                print(f"slice {name}: x = {x_loc:.6g}")
            if "center_ratio" in result:
                print(f"center near-zero peak ratio (original/improved): "
                      f"{result['center_ratio']:.4f}")
        elif args.command == "solve":
            for scheme, sol in result.items():
                print(f"{scheme}: solved, residual {sol.residual:.3e}")
        else:
            for row in result:
                print(f"R_h={row['r_h']:g}: theta={row['norm_theta']:.6g} "
                      f"A={row['norm_A']:.6g} B={row['norm_B']:.6g}")
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except WignerlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # load_config reports its own; this is --out
        print(f"error: cannot write to {args.out}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
