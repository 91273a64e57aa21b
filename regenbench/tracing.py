"""Per-layer tracing for the regeneration benchmark.

The program carries no spans of its own, so this module wraps the
public functions of each layer from the outside, for the length of a
traced run, and restores them afterwards.  A wrapper records a span:
the call's duration, of which the part not covered by nested wrapped
calls is the span's *self time*.  Counts are read at the same
boundaries (events and simulated time off each :class:`Simulator`,
frames and bytes off each fabric built by ``build_cluster_of_clusters``).

Everything stays in memory.  A forked pool worker inherits the
wrappers; it starts from an empty state and, after each task, writes
its running totals to ``<spill_dir>/worker-<pid>.json``, which the
parent folds in once the experiments have returned.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional


def clock() -> float:
    """Host seconds for benchmark timing; never reaches result bytes."""
    # repro-lint: disable=DET101 -- host-side benchmark timing, not sim state
    return time.perf_counter()


class Tracer:
    """Spans and counts for one traced run, plus the patches that feed them."""

    def __init__(self, spill_dir: Optional[Path] = None):
        self.spill_dir = spill_dir
        self._patches: List[tuple] = []
        #: the process that installed the wrappers; any other is a worker
        self._parent_pid = self._pid = os.getpid()
        self.reset()

    # -- state ------------------------------------------------------------
    def reset(self) -> None:
        #: span name -> summed self time (s)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: span name -> summed inclusive time (s)
        self.total_s: Dict[str, float] = defaultdict(float)
        #: span name -> calls, and counters read off simulation objects
        self.counts: Dict[str, float] = defaultdict(int)
        self._stack: List[List[float]] = []
        self._sims: Dict[int, Any] = {}
        self._fabrics: List[Any] = []

    def _check_fork(self) -> None:
        # a forked worker inherits the parent's totals; it reports only
        # its own work
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            self.reset()

    def state(self) -> Dict[str, Dict]:
        self.harvest()
        return {"self_s": dict(self.self_s), "total_s": dict(self.total_s),
                "counts": dict(self.counts)}

    def merge(self, state: Dict[str, Dict]) -> None:
        for key, value in state["self_s"].items():
            self.self_s[key] += value
        for key, value in state["total_s"].items():
            self.total_s[key] += value
        for key, value in state["counts"].items():
            self.counts[key] += value

    def collect_spills(self) -> None:
        """Fold in, then delete, what pool workers wrote."""
        if self.spill_dir is None:
            return
        for path in sorted(self.spill_dir.glob("worker-*.json")):
            self.merge(json.loads(path.read_text()))
            path.unlink()

    def _spill(self) -> None:
        if self.spill_dir is None:
            return
        path = self.spill_dir / f"worker-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.state()))
        tmp.replace(path)

    # -- counts read off simulation objects ---------------------------------
    def harvest(self) -> None:
        """Add the counters of every simulator and fabric seen so far."""
        for sim in self._sims.values():
            self.counts["sim.events"] += sim.event_count
            self.counts["sim.flow_events"] += sim.flow_events
            self.counts["sim.simulated_us"] += sim.now
        for fabric in self._fabrics:
            links = list(fabric.links)
            if fabric.wan is not None:
                links.append(fabric.wan.wan_link)
                self.counts["wan.frames_forwarded"] += (
                    fabric.wan.a.frames_forwarded
                    + fabric.wan.b.frames_forwarded)
            for link in links:
                self.counts["fabric.frames"] += link.frames_carried
                self.counts["fabric.bytes"] += link.bytes_carried
                self.counts["fabric.frames_dropped"] += link.frames_dropped
        self._sims.clear()
        self._fabrics.clear()

    # -- wrapping -----------------------------------------------------------
    def span(self, fn: Callable, name: str,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span ``name``; ``after(args, result)`` runs
        once the span has closed."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._check_fork()
            frame = [0.0]
            tracer._stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                tracer._stack.pop()
                tracer.self_s[name] += duration - frame[0]
                tracer.total_s[name] += duration
                tracer.counts[name] += 1
                if tracer._stack:
                    tracer._stack[-1][0] += duration
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _replace(self, original: Callable, wrapper: Callable) -> None:
        """Put ``wrapper`` wherever a loaded ``repro`` module holds
        ``original``: its home module and every ``from ... import`` copy."""
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro"):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch_function(self, module: Any, attr: str, name: str,
                        after: Optional[Callable] = None) -> None:
        original = getattr(module, attr)
        self._replace(original, self.span(original, name, after))

    def _patch_method(self, cls: type, attr: str, name: str,
                      after: Optional[Callable] = None) -> None:
        self._patch(cls, attr, self.span(getattr(cls, attr), name, after))

    def install(self) -> None:
        """Wrap the public functions of every layer."""
        from repro.apps import nas
        from repro.core import registry
        from repro.exp import cache, planner
        from repro.fabric import topology
        from repro.flow import dispatch
        from repro.ipoib import netperf
        from repro.mpi import benchmarks, runtime
        from repro.nfs import iozone
        from repro.obs import metrics
        from repro.sim import core
        from repro.verbs import perftest

        def saw_sim(args, _result):
            self._sims[id(args[0])] = args[0]

        def saw_fabric(_args, fabric):
            self._fabrics.append(fabric)

        def gate(_args, engaged):
            self.counts["flow.engaged"] += bool(engaged)

        def experiment_done(_args, _result):
            if not self._stack:         # outermost: its sims are finished
                self.harvest()

        def task_done(_args, _result):
            if os.getpid() != self._parent_pid:
                self._spill()

        self._patch_method(core.Simulator, "run", "sim.run_s", saw_sim)
        self._patch_function(topology, "build_cluster_of_clusters",
                             "fabric.build", saw_fabric)
        for attr in sorted(vars(perftest)):
            if attr.startswith("run_"):
                self._patch_function(perftest, attr, "verbs.perftest")
        for attr in ("run_stream_bw", "run_parallel_stream_bw"):
            self._patch_function(netperf, attr, "ipoib.netperf")
        self._patch_function(dispatch, "engaged", "flow.gate_calls", gate)
        for attr in sorted(vars(benchmarks)):
            if attr.startswith("run_osu_"):
                self._patch_function(benchmarks, attr, "mpi.bench")
        self._patch_method(runtime.MPIJob, "run", "mpi.jobs")
        self._patch_function(nas, "run_nas", "apps.nas")
        self._patch_function(iozone, "run_iozone_read", "nfs.iozone")
        self._patch_method(metrics.MetricsRegistry, "merge_snapshot",
                           "obs.merge")
        for attr in ("run_experiment", "run_cell"):
            self._patch_experiment(registry, attr, experiment_done)
        for attr in ("resolve_ids", "n_cells"):
            self._patch_function(registry, attr, "exp.plan_s")
        self._patch_function(planner, "build_tasks", "exp.plan_s")
        self._patch_function(planner, "run_task", "exp.task", task_done)
        self._patch_method(cache.ResultCache, "load", "exp.cache_load_s")
        self._patch_method(cache.ResultCache, "save", "exp.cache_save_s")

    def _patch_experiment(self, module: Any, attr: str,
                          after: Callable) -> None:
        """Experiment entry points get a span named after the experiment
        (``core.exp_s.<id>``), so each id's host time is kept apart."""
        original = getattr(module, attr)
        spans: Dict[str, Callable] = {}

        @functools.wraps(original)
        def dispatch_by_id(exp_id, *args, **kwargs):
            wrapped = spans.get(exp_id)
            if wrapped is None:
                wrapped = spans[exp_id] = self.span(
                    original, f"core.exp_s.{exp_id}", after)
            return wrapped(exp_id, *args, **kwargs)

        self._replace(original, dispatch_by_id)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
