"""Tests of the benchmark itself, on reduced-size smoke passes.

    python3 -m pytest bench/test_bench.py -q

Each workload runs once untraced and twice traced, each in its own
process as the benchmark is meant to run.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = bench_run.WORKLOAD_NAMES


def invoke(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


@lru_cache(maxsize=None)
def smoke(workload: str, trace: int, attempt: int = 0) -> tuple[dict, dict]:
    proc = invoke(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("report ")
    return json.loads(lines[-1]), json.loads(lines[-2][len("report "):])


def test_benchmark_json_lists_the_metrics_the_script_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench_run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_prints_every_end_to_end_metric(workload):
    result, report = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, report["problems"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(bench_run.END_TO_END)
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name
        assert report["samples"][name] >= 1
    assert report["env"]["seed"] == 3 and report["env"]["numpy"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_prints_every_layer_metric(workload):
    result, report = smoke(workload, 1)
    assert result["correct"], report["problems"]
    units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counters_repeat_between_runs(workload):
    first, _ = smoke(workload, 1)
    second, _ = smoke(workload, 1, attempt=1)
    for name in tracing.EXACT_COUNTERS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_runs_agree_on_correctness(workload):
    _, plain = smoke(workload, 0)
    _, traced = smoke(workload, 1)
    assert traced["end_to_end"]["ref_err"] == plain["end_to_end"]["ref_err"]
    assert traced["fail_share"] == plain["fail_share"] == 0.0


def test_hbar_sweep_counts_match_the_order_5_step():
    metrics = smoke("hbar-sweep", 1)[0]["metrics"]
    # Per order-5 step: 1 CFL gradient, 4 stages x 6 orders, 6 blow-up
    # gradients; 4 stages x 5 Laplacians.
    assert metrics["numerics.d1_calls_per_step"]["value"] == 31
    assert metrics["numerics.d2_calls_per_step"]["value"] == 20
    assert metrics["numerics.cubic_calls_per_eval"]["value"] == 2
    assert metrics["trajectories.evaluate_calls_per_step"]["value"] == 4


def test_hierarchy_layers_stay_idle_on_oracle():
    metrics = smoke("oracle", 1)[0]["metrics"]
    assert metrics["hierarchy.steps"]["value"] == 0
    assert metrics["tdse.steps"]["value"] > 0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = invoke(tmp_path, "--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
