"""flockkit benchmark: run one workload in a fresh process and report its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload particles --seed 1 --seconds 30 --trace 0

Workloads: ``particles``, ``mean_field``, ``entropy`` (see README.md).  With
``--trace 0`` the end-to-end metrics are reported (``wall_s``, ``setup_s``,
``peak_rss_mb``); with ``--trace 1`` the per-layer metrics from a traced
run.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the run
(environment, digest, exact counts, every iteration) is written to
``.perfbench_out/`` in the checkout.  The exit code is nonzero, and no
result is printed, when the workload cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("particles", "mean_field", "entropy")
SETUP_SAMPLES = 5  # the measured process plus four set-up-only processes
DEADLINE_S = 170.0
# one compute thread unless the caller chose otherwise: the workloads gain
# nothing from BLAS threads, whose idle spinning made timings follow the load
# on the other core
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_worker(args: list[str], deadline: float) -> tuple[float, list[str]]:
    """Run ``worker.py`` to completion; return its set-up time and stdout lines.

    Set-up time runs from just before the process is started to the moment
    it reports ready (both read from the system-wide monotonic clock).
    """
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *args]
    t_start = clock()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env={**SINGLE_THREAD, **os.environ})
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - clock()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker did not finish in time: {' '.join(cmd)}")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("READY "):
        raise WorkerError(f"worker exited with code {proc.returncode}: {' '.join(cmd)}")
    return float(lines[0].split()[1]) - t_start, lines[1:]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = clock() + DEADLINE_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--work-dir", str(work_dir)]
    try:
        setup_first, lines = run_worker(
            common + ["--trace", str(args.trace),
                      "--spans", str(OUT_DIR / f"{tag}.spans.csv.gz")], deadline)
        result = json.loads(lines[-1])
        setups = [setup_first]
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(common + ["--probe"], deadline)[0])
    except (WorkerError, json.JSONDecodeError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted, failed = result["attempted"], len(result["failed"])
    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_samples_s": setups,
              "check_fail_frac": failed / attempted, "metrics": metrics, **result}
    record_path = OUT_DIR / f"{tag}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(f"check_fail_frac = {failed}/{attempted}"
          + (f" failed: {', '.join(result['failed'])}" if failed else ""))
    print(f"digest = {result['digest']}  iterations = {len(result['iterations'])}"
          f"  record = {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
