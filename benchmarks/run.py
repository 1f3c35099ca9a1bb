"""wignerlab benchmark: refinement studies run end to end through the CLI
drivers, one fresh process per round.

Usage (from the root of a checkout):

    python3 benchmarks/run.py --workload v-sweep|x-sweep|norm-table \
        --seed N --seconds S --trace 0|1

`--trace 0` runs set-up probes, then whole rounds for as long as one more
round brings the run's length nearer to S seconds (at least one round), and
reports the medians of the end-to-end metrics.  `--trace 1` runs one
untraced and one traced round and reports the per-layer metrics of the
traced one plus the tracing overhead.
The inputs are the committed configs and do not depend on `--seed`, which is
only recorded.  The last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
SETUP_PROBES = 6
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class BenchmarkError(Exception):
    pass


def run_worker(workload: str, mode: str, deadline: float,
               tiny: bool = False) -> dict:
    """Start one fresh worker, wait for it, return its JSON with `setup_s`
    (spawn to configs parsed) and `wall_s` (spawn to exit) added."""
    out = OUT / workload
    if mode != "setup":
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--mode", mode, "--out", str(out)] + (["--tiny"] if tiny else [])
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(deadline - spawned, 1))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{mode} worker for {workload} ran past the "
                             f"run's time limit") from None
    ended = time.monotonic()
    if proc.returncode != 0:
        raise BenchmarkError(f"{mode} worker for {workload} exited with "
                             f"code {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    result["wall_s"] = ended - spawned
    return result


def measure(workload: str, seconds: float, deadline: float):
    """Set-up probes, then whole rounds for as long as one more round brings
    the run's length nearer to `seconds` (always at least one round)."""
    start = time.monotonic()
    setups = [run_worker(workload, "setup", deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    rounds = []
    while True:
        r = run_worker(workload, "run", deadline)
        rounds.append(r)
        setups.append(r["setup_s"])
        now = time.monotonic()
        if (now - start + r["wall_s"] / 2 >= seconds
                or now + 1.5 * r["wall_s"] >= deadline):
            break
    for k, r in enumerate(rounds):
        print(f"round {k}: study_s {r['study_s']:.3f}  study_cpu_s "
              f"{r['study_cpu_s']:.3f}  peak_rss_mb {r['peak_rss_mb']:.1f}  "
              f"setup_s {r['setup_s']:.3f}")
    print(f"medians over {len(rounds)} rounds; setup_s over {len(setups)} "
          f"processes; BLAS threads {rounds[0]['blas_threads']}")
    metrics = {
        "study_s": (statistics.median(r["study_s"] for r in rounds), "s"),
        "study_cpu_s": (statistics.median(r["study_cpu_s"] for r in rounds),
                        "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds),
                        "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return rounds, metrics


def trace(workload: str, deadline: float, tiny: bool = False):
    """One untraced and one traced round; per-layer metrics and overhead."""
    plain = run_worker(workload, "run", deadline, tiny)
    traced = run_worker(workload, "trace", deadline, tiny)
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    metrics["trace.study_s"] = (traced["study_s"], "s")
    metrics["trace.untraced_study_s"] = (plain["study_s"], "s")
    metrics["trace.overhead_s"] = (traced["study_s"] - plain["study_s"], "s")
    width = max(map(len, metrics))
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g} {unit}")
    print(f"spans written to {OUT / workload / 'spans.jsonl'}")
    return [plain, traced], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "wignerlab" / "__init__.py"] + [
        ROOT / "configs" / c for c in dict.fromkeys(
            s.config for s in WORKLOADS[args.workload].studies)]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"benchmark: missing {', '.join(missing)}; run from the root "
              f"of a wignerlab checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    print(f"workload {args.workload}, seed {args.seed} (inputs do not depend "
          f"on it), {args.seconds:g} s, trace {args.trace}")
    try:
        if args.trace:
            rounds, metrics = trace(args.workload, deadline)
        else:
            rounds, metrics = measure(args.workload, args.seconds, deadline)
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    bad = [c for r in rounds for c in r["checks"] if not c[1]]
    checked = sum(len(r["checks"]) for r in rounds)
    for name, _, detail in bad:
        print(f"FAILED check: {name}: {detail}")
    print(f"checks: {checked - len(bad)} of {checked} passed")
    print(json.dumps({
        "correct": not bad,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
