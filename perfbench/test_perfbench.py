"""Tests of the benchmark itself (not part of the package's test suite).

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from flockkit import _kernels, dynamics, geometry, kinetic  # noqa: E402


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_one_seed_repeats_counts_and_digest(name, tmp_path):
    results = [worker.measure(workloads.setup(name, 3, "quick"), 0.0, True,
                              tmp_path / f"run{k}", None) for k in range(2)]
    for result in results:
        assert result["failed"] == []
        assert result["attempted"] > 0
    assert results[0]["digest"] == results[1]["digest"]
    assert results[0]["layer_counts"] == results[1]["layer_counts"]
    assert results[0]["outcome_counts"] == results[1]["outcome_counts"]
    assert results[0]["per_layer"]["trace.top_coverage"]["value"] >= 0.95


def test_quick_sizes_reach_both_pair_bands(tmp_path):
    for name in ("mean_field", "entropy"):
        counts = worker.measure(workloads.setup(name, 1, "quick"), 0.0, True,
                                tmp_path / name, None)["layer_counts"]
        assert counts["kernels.alignment_sums.small.calls"] > 0
        assert counts["kernels.alignment_sums.large.calls"] > 0


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        ("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == worker.per_layer_names()


def test_self_time_is_duration_minus_child_coverage():
    # a(0..10) > b(1..4) > c(2..3); a > d(5..9); e(11..12) at top level
    names = ["cli.a", "graph.b", "kernels.c", "graph.d", "cli.e"]
    parents = [-1, 0, 1, 0, -1]
    starts = [0.0, 1.0, 2.0, 5.0, 11.0]
    ends = [10.0, 4.0, 3.0, 9.0, 12.0]
    summary = tracing.summarize(names, parents, starts, ends, [0] * 5, wall_s=12.0)
    self_s = {n: rec["self_s"] for n, rec in summary["spans"].items()}
    assert self_s == {"cli.a": 3.0, "graph.b": 2.0, "kernels.c": 1.0, "graph.d": 4.0,
                      "cli.e": 1.0}
    assert summary["layers"]["cli"] == 4.0 and summary["layers"]["graph"] == 6.0
    assert summary["top_coverage"] == pytest.approx(11.0 / 12.0)


def test_tracer_sees_imported_names_and_restores_them():
    original = _kernels.alignment_sums
    assert dynamics.alignment_sums is original
    values = geometry.GaussianPeriodized.values
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert dynamics.alignment_sums is not original
        assert kinetic.alignment_sums is dynamics.alignment_sums
        dom = geometry.Torus(2, 10.0)
        spec = geometry.GaussianPeriodized(d=2, width=1.0, period=10.0)
        x = np.random.default_rng(0).uniform(0.0, 10.0, (30, 2))
        dynamics.rhs(dynamics.ParticleEnsemble(dom, x, np.zeros_like(x)), spec)
    finally:
        tracer.uninstall()
    assert dynamics.alignment_sums is original and _kernels.alignment_sums is original
    assert geometry.GaussianPeriodized.values is values
    summary = tracer.summary(1.0)
    assert summary["spans"]["kernels.alignment_sums"]["work"] == 900
    assert summary["align_parents"] == {"dynamics.rhs": 1}
    assert summary["spans"]["geometry.values"]["calls"] == 1


def test_kernel_oracle_catches_a_wrong_sum():
    dom = geometry.Torus(2, 10.0)
    spec = geometry.GaussianPeriodized(d=2, width=1.0, period=10.0)
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 10.0, (60, 2))
    v = rng.uniform(-0.5, 0.5, (60, 2))
    exact = oracle.kernel_oracle(_kernels.alignment_sums, spec, dom, x, v, x, v,
                                 np.random.default_rng(1))
    assert exact <= oracle.ORACLE_RTOL

    def off_by_1e9(*args):
        den, s = _kernels.alignment_sums(*args)
        return den, s * (1.0 + 1e-9)

    wrong = oracle.kernel_oracle(off_by_1e9, spec, dom, x, v, x, v, np.random.default_rng(1))
    assert wrong > oracle.ORACLE_RTOL


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "particles", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
