"""spikessm benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {distill,align,infer} --seed N \
        --seconds S --trace {0,1}

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones of an untraced pass. With
``--trace 1`` the same work runs once untraced and once traced; the
metrics are the per-layer ones of the traced pass plus, for every
end-to-end metric, ``trace_overhead.<name>`` (traced minus untraced).
Spans of the traced pass are written to ``.perfbench_out/``. The line
before the result records the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("distill", "align", "infer")
# One BLAS thread (nproc here is 2): the shapes are small, and a second
# thread only adds scheduling noise to sub-millisecond calls.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def machine_info(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(p, rss_mb: float) -> dict[str, tuple[float, str]]:
    """Times are medians of samples scaled to the reference speed (see
    ``ruler``): the host's speed drifts over minutes, longer than a run."""
    import numpy as np

    return {
        "setup_s": (float(np.median(p.setup.scaled())), "s"),
        "step_ms_p50": (1e3 * float(np.median(p.step.scaled())), "ms"),
        "eval_tok_per_s": (p.eval_tokens / float(np.median(p.eval.scaled())), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def samples(p) -> dict:
    """Sample counts, percentiles and raw wall times, printed for reading.
    Request latencies are here rather than among the metrics: only
    ``infer`` serves requests, and every workload must report every
    metric."""
    import numpy as np

    from ruler import REF_MS
    from workloads import KERNELS

    def pct(xs, q, scale=1.0):
        return round(scale * float(np.percentile(xs, q)), 6)

    out = {"steps": len(p.step), "step_ms_p90": pct(p.step.scaled(), 90, 1e3),
           "step_wall_ms_p50": pct(p.step.raw, 50, 1e3),
           "setup_wall_ms_p50": pct(p.setup.raw, 50, 1e3),
           "setup_reps": len(p.setup), "eval_passes": len(p.eval),
           "eval_wall_tok_per_s": round(p.eval_tokens / float(np.median(p.eval.raw)), 1),
           "ref_ms_p50": pct(p.step.ref + p.eval.ref + p.setup.ref, 50, 1e3),
           "ref_ms_nominal": REF_MS,
           "requests": len(p.decode_ms["matmul"])}
    if p.decode_ms["matmul"]:
        out["greedy_divergent"] = p.divergent
        for k in KERNELS:
            for q in (50, 90):
                out[f"prefill_wall_ms_p{q}.{k}"] = pct(p.prefill_ms[k], q)
                out[f"decode_wall_ms_p{q}.{k}"] = pct(p.decode_ms[k], q)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "spikessm" / "__init__.py").is_file():
        print(f"perfbench: no spikessm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))

    import spans
    import workloads
    from spikessm import toy_config

    OUT_DIR.mkdir(exist_ok=True)
    info = machine_info(args)
    base = workloads.run_pass(args.workload, args.seed, args.seconds, OUT_DIR)
    untraced = end_to_end(base, peak_rss_mb())
    checks = [base.checks]
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = workloads.run_pass(args.workload, args.seed, args.seconds, OUT_DIR,
                                        tracer=tracer)
        finally:
            tracer.uninstall()
        checks.append(traced.checks)
        metrics = spans.layer_metrics(tracer, traced.audit, n_layers=toy_config().n_layers)
        for name, (value, unit) in end_to_end(traced, peak_rss_mb()).items():
            metrics[f"trace_overhead.{name}"] = (value - untraced[name][0], unit)
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = untraced

    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    for c in checks:
        for note in c.notes:
            print(f"check failed: {note}", file=sys.stderr)
    print("machine " + json.dumps(info))
    print("samples " + json.dumps(samples(base)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
