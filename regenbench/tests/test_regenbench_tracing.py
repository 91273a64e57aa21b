"""Traced runs: self time, restored patches, and counts that repeat."""

import time

import pytest
from run import PER_LAYER, run_workload
from tracing import Tracer
from workloads import Workload

from repro.core import registry
from repro.sim import Simulator

COUNTS = [name for name, unit in PER_LAYER.items()
          if unit in ("count", "bytes", "sim_us")]


def traced(workload, tmp_path, name):
    work = tmp_path / name
    work.mkdir()
    report = run_workload(workload, seed=1, seconds=0, trace=True, work=work)
    assert report["correct"] and report["failed"] == 0
    return {k: m["value"] for k, m in report["metrics"].items()}


def test_self_time_excludes_nested_spans():
    tracer = Tracer()
    inner = tracer.span(lambda: time.sleep(0.02), "inner")

    def body():
        time.sleep(0.01)
        inner()
    tracer.span(body, "outer")()
    total, own = tracer.total_s, tracer.self_s
    assert own["inner"] == total["inner"] >= 0.02
    assert own["outer"] == pytest.approx(total["outer"] - total["inner"])
    assert 0.01 <= own["outer"] < total["outer"]


def test_uninstall_restores_every_patch():
    before = (registry.run_experiment, Simulator.run)
    tracer = Tracer()
    tracer.install()
    assert (registry.run_experiment, Simulator.run) != before
    tracer.uninstall()
    assert (registry.run_experiment, Simulator.run) == before


def test_pool_counts_repeat_exactly(tmp_path):
    workload = Workload("tiny_pool", ("fig04b", "table1", "abl_credits"),
                        jobs=2)
    first = traced(workload, tmp_path, "a")
    second = traced(workload, tmp_path, "b")
    for name in COUNTS:
        assert first[name] == second[name], name
    assert first["sim.events"] > 0 and first["fabric.frames"] > 0
    assert first["exp.tasks"] == 3      # fig04b is one cell; two whole
    assert first["verbs.perftest_calls"] > 0
    for name, unit in PER_LAYER.items():
        if unit in ("s", "ns"):
            assert first[name] > 0, name


def test_serial_run_takes_no_task_path(tmp_path):
    metrics = traced(Workload("tiny", ("fig04b",)), tmp_path, "serial")
    assert metrics["sim.events"] > 0
    assert metrics["exp.tasks"] == 0
    assert 0 < metrics["exp.task_busy_s"] <= metrics["core.exp_s.max"]
    assert (metrics["exp.cache_hits"], metrics["exp.cache_misses"]) == (1, 1)
