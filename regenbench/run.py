"""Paper-regeneration benchmark: host time to regenerate a set of figures.

One run times the workload's set-up in fresh processes
(:mod:`setup_probe`) and regenerates its quick-grid experiments through
``repro.exp.run_experiments``, round after round.  A round is a cold
regeneration into an empty result cache followed by warm replays from
that cache.  Between the rounds a calibration loop (:mod:`calibrate`)
measures the host's speed, and ``regen_s`` is scaled by it.  The whole
run ends within ``--seconds``, except that one round always runs.  Every
result is checked (:mod:`checks`); an experiment that raises or fails a
check counts as failed.

    python3 regenbench/run.py --workload mpi_packet --seed 1 \\
        --seconds 42 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics; with ``--trace 1`` the layers are
wrapped (:mod:`tracing`) and the object holds the per-layer metrics
instead.  A human-readable summary goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

from checks import differing, problems
from tracing import Tracer, clock
from workloads import WORKLOADS, Workload, ordered_ids

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: set-ups timed per run, half before the rounds and half after, so a
#: passing slow spell of the host does not set them all; ``setup_s`` is
#: their median
SETUP_PROBES = 9
#: an untraced round's cold regeneration is followed by replays from the
#: warm cache, at least this many and for at least this long; each set-up
#: after the rounds is followed by more, for at least this long.
#: ``warm_s`` is the fastest replay: a replay takes 0.1-1 ms, and on a
#: shared host the median of such short timings swung by 1.5x between
#: runs while the minimum moved far less (the same reasoning as
#: ``timeit``).
WARM_REPLAYS = 20
WARM_SECONDS = 0.25
#: the calibration loop's median time over the README's steadiness runs
#: (194 loops on a 2-vCPU VM); ``regen_s`` is scaled to it, so it reads
#: as seconds on that host at its median speed (see :class:`HostSpeed`)
REFERENCE_LOOP_S = 0.286

END_TO_END = {"setup_s": "s", "regen_s": "s", "warm_s": "s",
              "peak_rss_mb": "MB"}

#: Every per-layer metric is printed on every workload.  Layers that a
#: workload never enters report calls (0 there); the only times are
#: those every workload accrues, so no time reads a constant 0.
PER_LAYER = {
    "sim.events": "count", "sim.run_s": "s", "sim.ns_per_event": "ns",
    "sim.flow_events": "count", "sim.simulated_us": "sim_us",
    "fabric.frames": "count", "fabric.bytes": "bytes",
    "fabric.frames_dropped": "count", "wan.frames_forwarded": "count",
    "verbs.perftest_calls": "count", "ipoib.netperf_calls": "count",
    "flow.gate_calls": "count", "flow.engaged": "count",
    "mpi.bench_calls": "count", "mpi.jobs": "count",
    "apps.nas_calls": "count", "nfs.iozone_calls": "count",
    "model.self_s": "s", "obs.series": "count", "obs.merges": "count",
    "core.exp_s.max": "s", "exp.plan_s": "s", "exp.tasks": "count",
    "exp.task_busy_s": "s", "exp.pool_idle_s": "s",
    "exp.cache_load_s": "s", "exp.cache_save_s": "s",
    "exp.cache_hits": "count", "exp.cache_misses": "count",
    "exp.result_bytes": "bytes",
}

#: the model layers' public entry points, as span names in :mod:`tracing`
MODEL_SPANS = ("verbs.perftest", "ipoib.netperf", "mpi.bench", "apps.nas",
               "nfs.iozone")


class HostSpeed:
    """The calibration loop (:mod:`calibrate`) in a child process of its
    own, run between the timed parts of a run.

    ``factor`` is the median loop time over ``REFERENCE_LOOP_S``: how
    much slower than the reference the host ran during the run.
    """

    def __init__(self):
        self.samples: List[float] = []
        self._child = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self._child.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("calibration loop did not start")

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self._child.stdin.close()
        self._child.wait(timeout=60)
        self._child.stdout.close()

    def sample(self) -> float:
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        self.samples.append(float(self._child.stdout.readline()))
        return self.samples[-1]

    @property
    def factor(self) -> float:
        return statistics.median(self.samples) / REFERENCE_LOOP_S


def time_setup(workload: Workload, work: Path) -> float:
    """Seconds from starting a process to its first task being ready."""
    cache = tempfile.mkdtemp(prefix="probe-", dir=work)
    start = clock()
    with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), cache,
             json.dumps(dataclasses.asdict(workload))],
            stdout=subprocess.PIPE, text=True) as probe:
        line = probe.stdout.readline()
        elapsed = clock() - start
        probe.stdout.read()
        if probe.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {workload.name} failed")
    return elapsed


def max_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class WorkerGrowth:
    """The memory each pool worker adds after it is forked.

    A forked worker starts out sharing the parent's pages, and its own
    peak RSS counts them again.  So ``run_task`` is wrapped: a worker
    notes its peak RSS before its first task and writes, after each
    task, how far its peak has risen since.  Pages the worker only
    copies on write from the parent do not raise it; they are the
    parent's heap, already in the parent's own peak.
    """

    def __init__(self, directory: Path):
        self.directory = directory
        self._original = None

    def install(self) -> None:
        from repro.exp.backends import local
        original = self._original = local.run_task
        directory = self.directory
        directory.mkdir()
        before: Dict[int, int] = {}

        def run_task(*args, **kwargs):
            pid = os.getpid()
            before.setdefault(pid, max_rss_kib())
            try:
                return original(*args, **kwargs)
            finally:
                (directory / str(pid)).write_text(
                    str(max_rss_kib() - before[pid]))
        local.run_task = run_task

    def uninstall(self) -> None:
        from repro.exp.backends import local
        local.run_task = self._original

    def collect(self) -> int:
        """KiB added by the workers that reported since the last call;
        they are one pool's, so they ran side by side."""
        added = 0
        for path in self.directory.iterdir():
            added += int(path.read_text())
            path.unlink()
        return added


def experiment_times(tracer: Tracer) -> Dict[str, float]:
    """Host time per experiment id, summed over processes."""
    prefix = "core.exp_s."
    return {name[len(prefix):]: seconds
            for name, seconds in tracer.total_s.items()
            if name.startswith(prefix)}


def layer_metrics(tracer: Tracer, workload: Workload, regen_s: float,
                  cold: List, registry, hits: int,
                  misses: int) -> Dict[str, float]:
    """The per-layer metrics of one traced round."""
    own, count = tracer.self_s, tracer.counts
    events = count["sim.events"]
    per_id = experiment_times(tracer)
    busy = sum(per_id.values())
    metrics = {
        "sim.events": events,
        "sim.run_s": own["sim.run_s"],
        "sim.ns_per_event": own["sim.run_s"] * 1e9 / events if events else 0,
        "sim.flow_events": count["sim.flow_events"],
        "sim.simulated_us": count["sim.simulated_us"],
        "fabric.frames": count["fabric.frames"],
        "fabric.bytes": count["fabric.bytes"],
        "fabric.frames_dropped": count["fabric.frames_dropped"],
        "wan.frames_forwarded": count["wan.frames_forwarded"],
        "flow.gate_calls": count["flow.gate_calls"],
        "flow.engaged": count["flow.engaged"],
        "mpi.jobs": count["mpi.jobs"],
        "model.self_s": sum(own[name] for name in MODEL_SPANS),
        "obs.series": len(registry) if registry is not None else 0,
        "obs.merges": count["obs.merge"],
        "core.exp_s.max": max(per_id.values(), default=0.0),
        "exp.plan_s": own["exp.plan_s"],
        "exp.tasks": count["exp.task"],
        "exp.task_busy_s": busy,
        "exp.pool_idle_s": max(0.0, workload.jobs * regen_s - busy),
        "exp.cache_load_s": own["exp.cache_load_s"],
        "exp.cache_save_s": own["exp.cache_save_s"],
        "exp.cache_hits": hits,
        "exp.cache_misses": misses,
        "exp.result_bytes": sum(len(r.to_json()) for r in cold),
    }
    for name in MODEL_SPANS:
        metrics[f"{name}_calls"] = count[name]
    return {name: metrics[name] for name in PER_LAYER}


def regenerate(workload: Workload, ids: List[str], cache, registry,
               failures: Optional[List] = None):
    """One ``run_experiments`` call; returns the results and its seconds."""
    from repro.exp import run_experiments
    from repro.obs import use_registry

    scope = (contextlib.nullcontext() if registry is None
             else use_registry(registry))
    with scope:
        start = clock()
        results = run_experiments(
            ids, quick=True, jobs=workload.jobs, cache=cache,
            flow_mode=workload.flow_mode, keep_going=True,
            failures=failures)
        return results, clock() - start


def replay(workload: Workload, done: Dict, times: int,
           seconds: float) -> None:
    """Replay round ``done``'s results from its warm cache, at least
    ``times`` times and for at least ``seconds`` of wall time, into
    ``done``."""
    from repro.exp import ResultCache

    cold = done["cold"]
    computed = [r.exp_id for r in cold]
    until = clock() + seconds
    while len(done["warm_s"]) < times or clock() < until:
        cache = done["warm_cache"] = ResultCache(done["cache_dir"])
        warm, elapsed = regenerate(workload, computed, cache,
                                   done["registry"])
        done["warm_s"].append(elapsed)
        done["failed"].update(differing(cold, warm))
        if (cache.hits, cache.misses) != (len(computed), 0):
            done["faults"].add(f"warm replay: {cache.hits} hits and "
                               f"{cache.misses} misses for "
                               f"{len(computed)} cached experiments")


def run_round(workload: Workload, ids: List[str], work: Path,
              tracer: Optional[Tracer],
              growth: Optional[WorkerGrowth]) -> Dict:
    """One cold regeneration plus its warm replays."""
    from repro.exp import ResultCache
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry() if workload.observed else None
    cache_dir = work / "cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    if tracer is not None:
        tracer.reset()
    failures: List = []
    cold_cache = ResultCache(cache_dir)
    cold, regen_s = regenerate(workload, ids, cold_cache, registry, failures)
    done = {"regen_s": regen_s, "cold": cold, "cache_dir": cache_dir,
            "registry": registry, "warm_s": [], "faults": set(),
            "failed": {f.exp_id for f in failures},
            "worker_kib": growth.collect() if growth is not None else 0}
    for result in cold:
        found = problems(result)
        if found:
            done["failed"].add(result.exp_id)
            print("\n".join(found), file=sys.stderr)
    if tracer is None:
        replay(workload, done, WARM_REPLAYS, WARM_SECONDS)
        return done
    replay(workload, done, 1, 0.0)
    tracer.collect_spills()
    tracer.harvest()
    warm_cache = done["warm_cache"]
    done["layers"] = layer_metrics(
        tracer, workload, regen_s, cold, registry,
        cold_cache.hits + warm_cache.hits,
        cold_cache.misses + warm_cache.misses)
    done["per_id"] = experiment_times(tracer)
    return done


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool, work: Path) -> Dict:
    """Time set-up, then regenerate in rounds, all within ``seconds``
    (one round always runs); returns the result object the runner
    prints."""
    deadline = clock() + seconds
    if trace:
        return measure(workload, seed, deadline, None, work)
    with HostSpeed() as speed:
        return measure(workload, seed, deadline, speed, work)


def measure(workload: Workload, seed: int, deadline: float,
            speed: Optional[HostSpeed], work: Path) -> Dict:
    """The body of :func:`run_workload`, traced when ``speed`` is
    ``None``."""
    trace = speed is None
    ids = ordered_ids(workload, seed)
    sample_s = 0.0 if trace else speed.sample()
    setup = [] if trace else [time_setup(workload, work)
                              for _ in range(SETUP_PROBES // 2)]
    # what must still fit after the rounds: the other set-ups, each with
    # its replays, and, when observed, the registry-free reference run
    probes_left = 0 if trace else SETUP_PROBES - len(setup)
    probe_s = max(setup, default=0.0)
    tracer = growth = None
    if trace:
        spill = work / "spill"
        spill.mkdir()
        tracer = Tracer(spill)
        tracer.install()
    elif workload.jobs > 1:
        growth = WorkerGrowth(work / "rss")
        growth.install()
    rounds = []
    try:
        while True:
            began = clock()
            rounds.append(run_round(workload, ids, work, tracer, growth))
            if speed is not None:
                speed.sample()
            now = clock()
            reference_s = rounds[0]["regen_s"] if workload.observed else 0
            after = (probes_left * (probe_s + WARM_SECONDS) + reference_s
                     + sample_s)
            if now + (now - began) + after > deadline:
                break
    finally:
        for hook in (tracer, growth):
            if hook is not None:
                hook.uninstall()
    # the other set-ups, each followed by replays of the last round's
    # cache that share out the time left.  On a shared host a replay's
    # speed shifts for seconds at a time; with the replays of a round
    # alone, warm_s of one-round runs spread 0.31 over five seeds.
    for left in range(probes_left, 0, -1):
        setup.append(time_setup(workload, work))
        share = (deadline - reference_s - sample_s - clock()
                 - (left - 1) * probe_s) / left
        replay(workload, rounds[-1], 0, max(WARM_SECONDS, share))
    if speed is not None:
        speed.sample()

    faults = sorted(set().union(*(r["faults"] for r in rounds)))
    failed_ids = [r["failed"] for r in rounds]
    if workload.observed:
        # the registry must not change a single result byte
        from repro.exp import run_experiments
        plain = run_experiments(ids, quick=True, jobs=workload.jobs,
                                keep_going=True,
                                flow_mode=workload.flow_mode)
        for r, failed in zip(rounds, failed_ids):
            failed.update(differing(plain, r["cold"]))
    attempted = len(ids) * len(rounds)
    failed = sum(len(f) for f in failed_ids)
    for exp_id in sorted(set().union(*failed_ids)):
        print(f"failed: {exp_id}", file=sys.stderr)
    for fault in faults:
        print(f"fault: {fault}", file=sys.stderr)

    regen = [r["regen_s"] for r in rounds]
    if trace:
        metrics = {name: statistics.median(r["layers"][name] for r in rounds)
                   for name in PER_LAYER}
        units = PER_LAYER
        print(f"traced regen_s {statistics.median(regen):.4f} s",
              file=sys.stderr)
        for exp_id in ids:
            seconds = statistics.median(r["per_id"].get(exp_id, 0.0)
                                        for r in rounds)
            print(f"  core.exp_s.{exp_id:25s} {seconds:10.4f} s",
                  file=sys.stderr)
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "regen_s": statistics.median(regen) / speed.factor,
            "warm_s": min(s for r in rounds for s in r["warm_s"]),
            "peak_rss_mb": (max_rss_kib() + max(
                r["worker_kib"] for r in rounds)) / 1024,
        }
        units = END_TO_END
        print("  calibration loop " + " ".join(
            f"{s:.3f}" for s in speed.samples) + f" s, factor "
            f"{speed.factor:.4f}; unscaled regen_s "
            f"{statistics.median(regen):.6g}", file=sys.stderr)
    print(f"{workload.name}: {len(rounds)} round(s), seed {seed}, "
          f"ids {' '.join(ids)}", file=sys.stderr)
    print("  regen_s by round: " + " ".join(f"{s:.3f}" for s in regen),
          file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6f} {units[name]}", file=sys.stderr)
    return {"correct": not faults, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"regenbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    (ROOT / ".regenbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".regenbench"))
    try:
        report = run_workload(WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
