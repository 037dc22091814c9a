"""Run one workload on several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload distill --seeds 1 2 3 4 5 \\
        [--seconds 20] [--trace 0]

Runs are sequential, one process at a time. For every metric it prints
the median over the runs and the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the bound ``BENCHMARK.json`` gives the metric, and the
median and spread over runs of every number on the ``samples`` line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=int, nargs="+")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    samples: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        t0 = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        for line in lines:
            if line.startswith("samples "):
                for name, v in json.loads(line[len("samples "):]).items():
                    if isinstance(v, (int, float)):
                        samples.setdefault(name, []).append(v)
        print(f"seed {seed}: {time.perf_counter() - t0:.1f} s, correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{'metric':40s} {'median':>12s} {'iqr/med':>8s} {'bound':>6s}  values")
    for name, vals in values.items():
        med, spread = median_spread(vals)
        bound = bounds.get(name)
        flag = " !" if bound is not None and spread > bound / 3 else ""
        runs = " ".join(f"{v:.4g}" for v in vals)
        print(f"{name:40s} {med:12.6g} {spread:8.3f} {bound if bound is not None else '':>6}{flag:2s} {runs}")
    print("samples line, median and iqr/median over runs:")
    for name, vals in samples.items():
        med, spread = median_spread(vals)
        print(f"  {name:38s} {med:12.6g} {spread:8.3f}")
    return 0


def median_spread(vals: list[float]) -> tuple[float, float]:
    """Median, and the distance between the quartiles as a share of it."""
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
    return med, (q3 - q1) / abs(med) if med else 0.0


if __name__ == "__main__":
    sys.exit(main())
