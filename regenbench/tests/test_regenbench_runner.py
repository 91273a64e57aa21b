"""The runner end to end on small workloads, and its JSON spec."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from run import END_TO_END, PER_LAYER, run_workload
from workloads import WORKLOADS, Workload, ordered_ids

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


@pytest.mark.parametrize("workload", [
    Workload("smoke", ("table1",)),
    Workload("pooled_smoke", ("table1", "abl_credits"), jobs=2)])
def test_small_workload(workload, tmp_path):
    report = run_workload(workload, seed=3, seconds=0, trace=False,
                          work=tmp_path)
    assert report["correct"] is True
    assert (report["attempted"], report["failed"]) == (len(workload.ids), 0)
    assert set(report["metrics"]) == set(END_TO_END)
    for name, metric in report["metrics"].items():
        assert metric["unit"] == END_TO_END[name]
        assert metric["value"] > 0


def test_seed_orders_ids_and_nothing_else():
    workload = WORKLOADS["harness_fanout"]
    first = ordered_ids(workload, 1)
    assert first == ordered_ids(workload, 1)
    assert sorted(first) == sorted(workload.ids)
    assert any(ordered_ids(workload, seed) != first for seed in range(2, 6))


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload",
         "harness_fanout", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
