"""Backend-conformance wall for the experiment engine.

The contract: the rendered store is **byte-identical to a serial run
for every execution backend, every worker count, and every completion
order**.

Layers covered:

* pure planning: request-order task decomposition;
* each backend end-to-end through ``run_experiments`` against the
  serial baseline: the local pool at several widths and the dry run,
  cold and against a warm cache;
* scheduler assembly: outcomes yielded out of order, terminal task
  failures with and without ``keep_going``.

A backend implements one method, ``run_tasks``; the fakes below are
the smallest backends there are.
"""

import pytest

from repro.core import registry
from repro.exp import (DryRunBackend, ExecutionBackend, LocalPoolBackend,
                       ResultCache, TaskOutcome, run_experiments,
                       write_jsonl)
from repro.exp.planner import build_tasks, run_task, task_key

SUBSET = ["table1", "fig04a", "fig13b"]     # 5 tasks: 2 whole + 3 cells


@pytest.fixture(scope="module")
def serial_bytes():
    """The reference store, built without the scheduler: ``--jobs 1``
    runs through the same backend path these tests compare against."""
    return {exp_id: registry.run_experiment(exp_id, True).to_json()
            for exp_id in SUBSET}


def _assert_identical(results, serial_bytes, ids=SUBSET):
    assert [r.exp_id for r in results] == list(ids)
    for result in results:
        assert result.to_json() == serial_bytes[result.exp_id]


# -- byte-identity across backends and worker counts ------------------------

@pytest.mark.parametrize("workers", [1, 2, 5])
def test_local_pool_byte_identical(workers, serial_bytes):
    got = run_experiments(SUBSET, quick=True,
                          backend=LocalPoolBackend(jobs=workers))
    _assert_identical(got, serial_bytes)


def test_dryrun_cold_executes_nothing(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("dry run executed an experiment")

    monkeypatch.setattr(registry, "run_experiment", boom)
    monkeypatch.setattr(registry, "run_cell", boom)
    backend = DryRunBackend()
    got = run_experiments(SUBSET, quick=True, backend=backend)
    assert got == []
    plan = backend.last_plan
    assert plan["n_tasks"] == 5
    assert plan["tasks"] == ["table1", "fig04a#0", "fig04a#1",
                             "fig04a#2", "fig13b"]
    assert plan["tasks_per_experiment"] == {"table1": 1, "fig04a": 3,
                                            "fig13b": 1}


def test_dryrun_warm_cache_is_byte_identical(tmp_path, monkeypatch,
                                             serial_bytes):
    """Cache prefetch precedes the backend, so a warm dry run returns
    the full byte-identical store while executing zero tasks."""
    cache = ResultCache(tmp_path / "cache")
    run_experiments(SUBSET, quick=True, jobs=1, cache=cache)

    def boom(*args, **kwargs):
        raise AssertionError("dry run executed despite warm cache")

    monkeypatch.setattr(registry, "run_experiment", boom)
    monkeypatch.setattr(registry, "run_cell", boom)
    got = run_experiments(SUBSET, quick=True, cache=cache,
                          backend=DryRunBackend())
    _assert_identical(got, serial_bytes)


def test_build_tasks_request_order():
    assert build_tasks(["fig04a", "table1"], quick=True) == [
        ("fig04a", 0), ("fig04a", 1), ("fig04a", 2), ("table1", None)]
    assert task_key(("fig04a", 2)) == "fig04a#2"
    assert task_key(("table1", None)) == "table1"


# -- scheduler assembly: order, errors, keep_going ---------------------------

class _ReversedBackend(ExecutionBackend):
    """Computes serially but yields outcomes in reverse request order —
    the scheduler must reassemble identically anyway."""

    name = "reversed"

    def run_tasks(self, tasks, ctx):
        outcomes = []
        for task in tasks:
            payload, snapshot = run_task(task, ctx)
            outcomes.append(TaskOutcome(task, payload=payload,
                                        snapshot=snapshot))
        yield from reversed(outcomes)


class _FailingBackend(ExecutionBackend):
    """Every task of ``bad_exp`` fails terminally; the rest succeed."""

    name = "failing"

    def __init__(self, bad_exp):
        super().__init__()
        self.bad_exp = bad_exp

    def run_tasks(self, tasks, ctx):
        for task in tasks:
            if task[0] == self.bad_exp:
                yield TaskOutcome(task, error=RuntimeError("boom"),
                                  attempts=ctx.retries + 1)
            else:
                payload, snapshot = run_task(task, ctx)
                yield TaskOutcome(task, payload=payload, snapshot=snapshot)


def test_out_of_order_outcomes_render_identical_store(tmp_path,
                                                      serial_bytes):
    """Satellite: completion order cannot leak into the rendered store
    — the JSON-lines files are compared as bytes."""
    serial = run_experiments(SUBSET, quick=True, jobs=1)
    scrambled = run_experiments(SUBSET, quick=True,
                                backend=_ReversedBackend())
    a, b = tmp_path / "serial.jsonl", tmp_path / "scrambled.jsonl"
    write_jsonl(a, serial)
    write_jsonl(b, scrambled)
    assert a.read_bytes() == b.read_bytes()
    _assert_identical(scrambled, serial_bytes)


def test_backend_failure_raises_without_keep_going():
    with pytest.raises(RuntimeError, match="boom"):
        run_experiments(["table1", "fig13b"], quick=True,
                        backend=_FailingBackend("table1"))


def test_backend_failure_collected_with_keep_going(serial_bytes):
    failures = []
    got = run_experiments(["table1", "fig13b"], quick=True,
                          backend=_FailingBackend("table1"),
                          keep_going=True, failures=failures)
    _assert_identical(got, serial_bytes, ids=["fig13b"])
    assert [f.exp_id for f in failures] == ["table1"]
    assert "boom" in failures[0].error
