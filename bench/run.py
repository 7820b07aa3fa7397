#!/usr/bin/env python3
"""Benchmark entry point.

    python3 bench/run.py --workload corpus-verify --seed 1 --seconds 25 --trace 0

Run from the repository root; it imports ``bdmc`` from ``src/`` and nothing
else outside the standard library.  The inputs are set up several times (the
median is ``setup_s``), then whole passes over the workload repeat until
``--seconds`` are used up.  Each (graph, target) operation is timed in every
pass and its median over the passes counts.  All times are calibrated to the
host's nominal speed (see ``hostclock``); the ``report`` line also carries the
raw pass times and the host's measured speed.  With ``--trace 0`` the result
carries the end-to-end metrics.  With ``--trace 1`` untraced and traced passes
alternate, the result carries the per-layer metrics and the spans go to
``.bench_out/``.  Human-readable lines
come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 1.0            # cheap set-ups repeat until this much time is spent
SETUP_MAX_REPEATS = 200

END_TO_END = (
    ("setup_s", "s"),
    ("compile_s", "s"),
    ("verify_s", "s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p90_ms", "ms"),
    ("cnf_vars", "count"),
    ("cnf_clauses", "count"),
    ("peak_rss_mb", "MB"),
)


def import_package():
    """Import bdmc from this checkout's src/, refusing any other copy."""
    if not (SRC / "bdmc" / "__init__.py").is_file():
        sys.exit(f"bench: no bdmc sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import bdmc

    if Path(bdmc.__file__).resolve().parent != SRC / "bdmc":
        sys.exit(f"bench: imported bdmc from {bdmc.__file__}, not from {SRC}")


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def conditions() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def measure(run_pass, seconds: float, min_passes: int = 1) -> list:
    """Whole passes while one more is expected to end within ``seconds``."""
    passes = []
    start = perf_counter()
    while (len(passes) < min_passes
           or perf_counter() - start + median(p.wall_s for p in passes) <= seconds):
        gc.collect()
        passes.append(run_pass())
    return passes


def median_ops(passes) -> list:
    """Per operation, its median compile and verify time over the passes in
    which it succeeded (a failure already makes the result incorrect)."""
    out = []
    for runs in zip(*(p.ops for p in passes)):
        ok = [r for r in runs if r is not None]
        out.append((median(c for c, _ in ok), median(v for _, v in ok)) if ok else (0.0, 0.0))
    return out


def run_untraced(wl, seed: int, seconds: float, clock):
    import workloads
    from tracer import NullTracer

    setup_times = []
    raw_setup = 0.0
    while len(setup_times) < SETUP_MIN_REPEATS or (
            raw_setup < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPEATS):
        gc.collect()
        t0 = perf_counter()
        clock.start()
        items = workloads.setup(wl, seed, tick=clock.split)
        setup_times.append(clock.stop())
        raw_setup += perf_counter() - t0
    passes = measure(lambda: workloads.run_pass(wl, items, NullTracer(), clock), seconds)
    best = median_ops(passes)
    per_graph = len(workloads.TARGETS)
    graph_ms = [1e3 * sum(c + v for c, v in best[i:i + per_graph])
                for i in range(0, len(best), per_graph)]
    metrics = {
        "setup_s": median(setup_times),
        "compile_s": sum(c for c, _ in best),
        "verify_s": sum(v for _, v in best),
        "verdict_p50_ms": percentile(graph_ms, 50),
        "verdict_p90_ms": percentile(graph_ms, 90),
        "cnf_vars": passes[0].cnf_vars,
        "cnf_clauses": passes[0].cnf_clauses,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"setup_runs": len(setup_times), "verdict_samples": len(graph_ms)}
    return passes, metrics, dict(END_TO_END), extra


def run_traced(wl, seed: int, seconds: float, clock):
    import workloads
    from tracer import PER_LAYER, NullTracer, Tracer, layer_metrics, median_metrics

    tr = Tracer()
    with tr.installed():
        items = workloads.setup(wl, seed)
    setup_spans = (0, len(tr.spans))
    untraced, traced, per_pass = [], [], []

    def next_pass():
        # untraced and traced passes alternate, so both see the same host
        if len(untraced) <= len(traced):
            untraced.append(workloads.run_pass(wl, items, NullTracer(), clock))
            return untraced[-1]
        before = dict(tr.counts)
        lo = len(tr.spans)
        with tr.installed():
            res = workloads.run_pass(wl, items, tr, clock)
        counts = {k: v - before[k] for k, v in tr.counts.items()}
        per_pass.append(layer_metrics(tr, lo, len(tr.spans), counts, res.wall_s, setup_spans))
        traced.append(res)
        return res

    passes = measure(next_pass, seconds, min_passes=2)
    metrics = median_metrics(per_pass)
    metrics["trace.overhead_s"] = (sum(c + v for c, v in median_ops(traced))
                                   - sum(c + v for c, v in median_ops(untraced)))
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl.name}-seed{seed}.jsonl"
    tr.write(spans_path)
    units = {name: unit for name, unit, _ in PER_LAYER}
    extra = {"traced_passes": len(traced), "spans": len(tr.spans),
             "spans_file": str(spans_path.relative_to(ROOT))}
    return passes, {k: metrics[k] for k in units}, units, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_package()
    import workloads
    from hostclock import HostClock

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        ap.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    before = conditions()
    runner = run_traced if args.trace else run_untraced
    clock = HostClock()
    passes, metrics, units, extra = runner(wl, args.seed, args.seconds, clock)
    after = conditions()

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    digests = {p.digest for p in passes}
    checks = passes[0].strength_checks
    report = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "passes": len(passes), "pass_s": [p.wall_s for p in passes],
        "host_speed": median(clock.factors), "host_speed_range": [min(clock.factors), max(clock.factors)],
        "python": before["python"], "nproc": before["nproc"],
        "loadavg_start": before["loadavg"], "loadavg_end": after["loadavg"],
        "digest": passes[0].digest, "digest_stable": len(digests) == 1,
        "cnf_vars": passes[0].cnf_vars, "cnf_clauses": passes[0].cnf_clauses,
        "strength_checks": checks, "exhaustive_checks": passes[0].exhaustive_checks,
        "certified_share": passes[0].exhaustive_checks / checks if checks else None,
        "attempted": attempted, "failed": failed, "failed_share": failed / attempted,
        **extra,
    }
    for key, value in report.items():
        print(f"{key:24s} {value}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {units[name]}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
