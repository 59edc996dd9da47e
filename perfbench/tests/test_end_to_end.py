"""Tiny runs of every workload through the one command, untraced and traced."""

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import tracing
from perfbench.run import END_TO_END_UNITS, ROOT, WORKLOADS

#: (workload, --scale): small inputs that still overflow some capacity; the
#: doubling session keeps enough arrivals for one checkpoint and restart.
TINY = [("replay_hotspot", "0.05"), ("session_doubling", "0.3"), ("service_window", "0.05")]


def run(workload, scale, trace, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", scale]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def rejection_cost_line(stdout):
    return next(line for line in stdout.splitlines() if line.startswith("rejection_cost "))


@pytest.mark.parametrize("workload,scale", TINY)
def test_untraced_and_traced_runs_agree(workload, scale):
    plain, traced = run(workload, scale, 0), run(workload, scale, 1)
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr
    first, second = json.loads(plain.stdout.splitlines()[-1]), json.loads(traced.stdout.splitlines()[-1])
    for result in (first, second):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in first["metrics"].items()} == END_TO_END_UNITS
    layer_units = dict(tracing.PER_LAYER_METRICS)
    assert {k: v["unit"] for k, v in second["metrics"].items()} == layer_units
    assert first["metrics"]["rejection_cost"]["value"] > 0
    assert rejection_cost_line(plain.stdout) == rejection_cost_line(traced.stdout)
    layers = {k: v["value"] for k, v in second["metrics"].items()}
    assert layers["trace.unattributed_ms"] >= 0
    assert layers["trace.window_ms"] > 0


def test_benchmark_json_lists_the_gated_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER_METRICS)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = run("replay_hotspot", "0.05", 0, cwd=tmp_path)
    assert result.returncode != 0
    assert result.stdout == ""
