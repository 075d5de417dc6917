"""One workload in one process: set up once, then run it repeatedly for a fixed time.

Started by ``run.py``.  Prints ``READY <monotonic clock>`` when set-up is done
(just before the first timed call), then, unless ``--probe`` is given, one
JSON line with the measurements.  ``--trace 1`` alternates untraced and
traced iterations; the traced ones give the per-layer metrics and the
untraced ones the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from oracle import Checks
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_ITERATIONS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "FLOCKKIT_THREADS")


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "machine": platform.machine(),
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


# per-layer metrics: (name, unit, value of one traced iteration's summary);
# counts must repeat exactly between iterations, times are reported as medians
def _span(key: str, *names: str):
    zero = 0 if key in ("calls", "work") else 0.0
    return lambda s: sum((s["spans"].get(n, {}).get(key, zero) for n in names), zero)


def _per(num, den, scale):
    return lambda s: scale * num(s) / den(s) if den(s) else 0.0


_ALIGN = "kernels.alignment_sums"
_steps = lambda s: s["align_parents"].get("dynamics.integrate", 0) // 4  # noqa: E731

COUNTS = [
    ("kernels.alignment_sums.calls", "count", _span("calls", _ALIGN)),
    ("kernels.alignment_sums.pairs", "count", _span("work", _ALIGN)),
    ("kernels.alignment_sums.small.calls", "count", lambda s: s["band"]["small"][0]),
    ("kernels.alignment_sums.large.calls", "count", lambda s: s["band"]["large"][0]),
    ("kernels.alignment_sums.large.pairs", "count", lambda s: s["band"]["large"][1]),
    ("kernels.kernel_table.calls", "count", _span("calls", "kernels.kernel_table")),
    ("geometry.displacement_table.calls", "count",
     _span("calls", "geometry.displacement_table")),
    ("geometry.values.calls", "count", _span("calls", "geometry.values")),
    ("dynamics.integrate.calls", "count", _span("calls", "dynamics.integrate")),
    ("dynamics.steps", "count", _steps),
    ("dynamics.rhs_evals", "count",
     lambda s: sum(s["align_parents"].get(n, 0) for n in ("dynamics.integrate", "dynamics.rhs"))),
    ("spectral.spectrum.calls", "count", _span("calls", "spectral.spectrum")),
    ("graph.is_connected.calls", "count", _span("calls", "graph.is_connected")),
    ("kinetic.evolve_cloud.calls", "count", _span("calls", "kinetic.evolve_cloud")),
    ("kinetic.transport_distance.calls", "count",
     _span("calls", "kinetic.transport_distance")),
    ("kinetic.transport_distance.points", "count",
     _span("work", "kinetic.transport_distance")),
    ("density.knn_entropy.calls", "count", _span("calls", "density.knn_entropy")),
    ("density.knn_entropy.points", "count", _span("work", "density.knn_entropy")),
    ("cli.run_scenario.calls", "count", _span("calls", "cli.run_scenario")),
    ("cli.artifact_bytes", "bytes", lambda s: s["artifact_bytes"]),
]

TIMES = [
    ("kernels.alignment_sums.self_s", "s", _span("self_s", _ALIGN)),
    ("kernels.alignment_sums.small.self_s", "s", lambda s: s["band"]["small"][2]),
    ("kernels.alignment_sums.large.self_s", "s", lambda s: s["band"]["large"][2]),
    ("kernels.alignment_sums.large.ns_per_pair", "ns",
     _per(lambda s: s["band"]["large"][3], lambda s: s["band"]["large"][1], 1e9)),
    ("kernels.kernel_table.self_s", "s", _span("self_s", "kernels.kernel_table")),
    ("geometry.displacement_table.self_s", "s", _span("self_s", "geometry.displacement_table")),
    ("geometry.values.self_s", "s", _span("self_s", "geometry.values")),
    ("dynamics.integrate.self_s", "s", _span("self_s", "dynamics.integrate")),
    ("dynamics.us_per_step", "us", _per(_span("incl_s", "dynamics.integrate"), _steps, 1e6)),
    ("spectral.spectrum.self_s", "s", _span("self_s", "spectral.spectrum")),
    ("spectral.interaction_matrix.self_s", "s", _span("self_s", "spectral.interaction_matrix")),
    ("graph.build_graph.self_s", "s", _span("self_s", "graph.build_graph")),
    ("graph.is_connected.self_s", "s", _span("self_s", "graph.is_connected")),
    ("graph.detect_flocking.self_s", "s", _span("self_s", "graph.detect_flocking")),
    ("kinetic.evolve_cloud.self_s", "s", _span("self_s", "kinetic.evolve_cloud")),
    ("kinetic.flow_characteristics.self_s", "s", _span("self_s", "kinetic.flow_characteristics")),
    ("kinetic.transport_distance.self_s", "s", _span("self_s", "kinetic.transport_distance")),
    ("density.knn_entropy.self_s", "s", _span("self_s", "density.knn_entropy")),
    ("density.entropy_decay_check.self_s", "s", _span("self_s", "density.entropy_decay_check")),
    ("cli.parse_config.self_s", "s", _span("self_s", "cli.parse_config_text", "cli.load_config")),
    ("cli.write_artifacts.self_s", "s",
     _span("self_s", "cli.write_csv", "cli.write_json", "cli._write_trajectory_jsonl")),
    ("trace.top_coverage", "frac", lambda s: s["top_coverage"]),
] + [(f"{layer}.self_s", "s", (lambda s, layer=layer: s["layers"][layer]))
     for layer in ("kernels", "geometry", "dynamics", "graph", "spectral", "kinetic",
                   "density", "cli")]

# computed from all iterations of the run rather than one summary
RUN_LEVEL = [
    ("kernels.alignment_sums.small.p50_us", "us"),
    ("kernels.alignment_sums.small.p99_us", "us"),
    ("proc.cpu_s", "s"),
    ("trace.overhead_s", "s"),
]


def per_layer_names() -> list[tuple[str, str]]:
    """``(name, unit)`` of every per-layer metric, in report order."""
    return [(n, u) for n, u, _ in COUNTS] + [(n, u) for n, u, _ in TIMES] + RUN_LEVEL


def exact_counts(summary: dict) -> dict:
    return {name: int(f(summary)) for name, _, f in COUNTS}


def layer_metrics(iterations: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics and the exact counts of the traced iterations."""
    traced = [it for it in iterations if it["traced"]]
    plain = [it for it in iterations if not it["traced"]]
    summaries = [it["trace"] for it in traced]
    counts = exact_counts(summaries[0])
    metrics = {name: {"value": counts[name], "unit": unit} for name, unit, _ in COUNTS}
    for name, unit, f in TIMES:
        metrics[name] = {"value": statistics.median(f(s) for s in summaries), "unit": unit}
    small = np.concatenate([np.asarray(s["small_us"], dtype=float) for s in summaries])
    for q, name in ((50, "p50_us"), (99, "p99_us")):
        value = float(np.percentile(small, q)) if small.size else 0.0
        metrics[f"kernels.alignment_sums.small.{name}"] = {"value": value, "unit": "us"}
    # the first iteration also warms the process up; leave it out when others exist
    plain = plain[1:] or plain
    metrics["proc.cpu_s"] = {"value": statistics.median(it["cpu_s"] for it in plain),
                             "unit": "s"}
    overhead = (statistics.median(it["wall_s"] for it in traced)
                - statistics.median(it["wall_s"] for it in plain))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics, counts


def measure(workload, seconds: float, trace: bool, work_dir: Path,
            spans_path: Path | None) -> dict:
    """Run ``workload`` for about ``seconds`` (at least MIN_ITERATIONS times)."""
    tracer = Tracer() if trace else None
    iterations: list[dict] = []
    attempted = 0
    failed: list[str] = []
    first = None
    spans_t0 = 0.0
    t_begin = clock()
    while True:
        k = len(iterations)
        traced = trace and k % 2 == 1
        out = work_dir / f"iter{k}"
        checks = Checks()
        if traced:
            tracer.reset()
            tracer.install()
        cpu0 = os.times()
        t0 = clock()
        try:
            outcome = workload.run(out, checks)
            t1 = clock()
        finally:
            if traced:
                tracer.uninstall()
        cpu1 = os.times()
        shutil.rmtree(out, ignore_errors=True)
        it = {"traced": traced, "wall_s": t1 - t0,
              "cpu_s": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)}
        if traced:
            it["trace"] = summary = tracer.summary(t1 - t0)
            summary["artifact_bytes"] = outcome.counts.get("artifact_bytes", 0)
            spans_t0 = t0
        # outputs, and the work the traced iterations did, repeat exactly
        if first is None:
            first = outcome
        else:
            checks.add("repeat.digest", outcome.digest == first.digest)
            checks.add("repeat.counts", outcome.counts == first.counts)
        attempted += checks.attempted
        failed += [f"iter{k}.{name}" for name in checks.failed]
        iterations.append(it)
        elapsed = clock() - t_begin
        typical = statistics.median(i["wall_s"] for i in iterations)
        if len(iterations) >= MIN_ITERATIONS and elapsed + typical > seconds:
            break

    result = {
        "iterations": [{k: v for k, v in it.items() if k != "trace"} for it in iterations],
        "wall_s": statistics.median(it["wall_s"] for it in iterations if not it["traced"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "digest": first.digest,
        "outcome_counts": first.counts,
    }
    if trace:
        if spans_path is not None:  # the last traced iteration's spans
            tracer.write(spans_path, spans_t0)
        metrics, counts = layer_metrics(iterations)
        result["attempted"] += 1
        if any(exact_counts(it["trace"]) != counts for it in iterations if it["traced"]):
            result["failed"].append("repeat.layer_counts")
        result["per_layer"] = metrics
        result["layer_counts"] = counts
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--probe", action="store_true",
                        help="stop after set-up (a set-up time sample)")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import flockkit
    import workloads  # imports flockkit's modules, numpy and scipy

    if not Path(flockkit.__file__).resolve().is_relative_to(src.resolve()):
        print(f"flockkit was imported from {flockkit.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    workload = workloads.setup(args.workload, args.seed)
    print(f"READY {clock()!r}", flush=True)
    if args.probe:
        return 0
    result = measure(workload, args.seconds, bool(args.trace), args.work_dir, args.spans)
    result["env"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
