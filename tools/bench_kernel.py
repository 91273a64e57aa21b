#!/usr/bin/env python
"""Kernel scheduling benchmark: fast path vs. the frozen legacy baseline.

Measures the event-kernel fast path (``Simulator.call_at`` callback
records with a freelist, reusable timeouts, callback protocol pumps,
the single hoisted dispatch loop) and compares it with the original
allocation-per-event dispatch.  That dispatch no longer exists in the
tree: its numbers (every ``legacy_*`` field) were measured when it did
and are carried forward unchanged from the committed
``BENCH_kernel.json``.  Each speedup therefore divides a fresh number
by a frozen one, and is only meaningful on hardware comparable to the
host that measured the baseline.

Four measurements, written to ``BENCH_kernel.json`` at the repo root:

* **frame_storm** — the frame-delivery pattern every hop pays: 64
  in-flight chains of fire-and-forget scheduled deliveries
  (``call_at(..., cancellable=False)``), the exact shape of
  ``_HalfLink._deliver`` / ``Switch._forward`` /
  ``Longbow._send_on``.  Events/sec; target >= 1.8x the baseline.
* **frame_lifecycle** — the same storm with a cancellable retransmit
  timer armed per frame and cancelled on ACK (the RC pattern); a
  secondary, slightly adversarial number since cancellable records
  bypass the freelist.
* **allocations** — scheduling-footprint under ``tracemalloc``: bytes
  and heap blocks held per *pending* scheduled operation, slotted
  ``_Callback`` vs. the baseline's ``Event`` + callbacks list +
  closure.  This is the "zero-allocation" claim made concrete.
* **figure_sweeps** — real figure regenerations (``run_experiment``,
  quick grid, in-process, no result cache); target >= 1.3x
  wall-clock on each WAN sweep.

Timing protocol: ``gc`` disabled around each run, CPU time
(``time.process_time``) for the storms, wall clock for the sweeps,
best-of-N per variant (noise only ever slows a run down, so the
minimum is the least-biased estimate — the same reasoning as
``timeit``'s ``min``).  Medians are recorded alongside for honesty on
noisy boxes.

Usage::

    PYTHONPATH=src python tools/bench_kernel.py            # full run
    PYTHONPATH=src python tools/bench_kernel.py --smoke    # CI-sized
    PYTHONPATH=src python tools/bench_kernel.py --out x.json
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.sim import Simulator  # noqa: E402

#: The committed run whose ``legacy_*`` fields are the frozen baseline.
BASELINE = REPO / "BENCH_kernel.json"

TARGET_STORM_SPEEDUP = 1.8
TARGET_SWEEP_SPEEDUP = 1.3
TARGET_FLOW_SWEEP_SPEEDUP = 10.0


# -- workloads -----------------------------------------------------------

class _DeliveryChains:
    """64 in-flight chains of fire-and-forget frame deliveries."""

    def __init__(self, sim: Simulator, frames: int, chains: int = 64):
        self.sim = sim
        self.left = frames
        for _ in range(min(chains, frames)):
            self.left -= 1
            sim.call_at(1.7, self._deliver, None, cancellable=False)

    def _deliver(self, _arg) -> None:
        if self.left > 0:
            self.left -= 1
            self.sim.call_at(1.7, self._deliver, None, cancellable=False)


class _FrameLifecycles:
    """Deliver -> arm cancellable rtx timer -> ACK cancels it."""

    def __init__(self, sim: Simulator, frames: int, inflight: int = 64):
        self.sim = sim
        self.total = frames
        self.timers = {}
        self.next_id = min(inflight, frames)
        for fid in range(self.next_id):
            self._launch(fid)

    def _launch(self, fid: int) -> None:
        self.sim.call_at(1.7, self._deliver, fid, cancellable=False)

    def _deliver(self, fid: int) -> None:
        self.timers[fid] = self.sim.call_at(50.0, self._rtx, fid)
        self.sim.call_at(0.9, self._ack, fid, cancellable=False)

    def _ack(self, fid: int) -> None:
        self.timers.pop(fid).cancel()
        if self.next_id < self.total:
            self._launch(self.next_id)
            self.next_id += 1

    def _rtx(self, fid: int) -> None:  # pragma: no cover - never fires
        raise AssertionError("retransmit timer fired despite cancel")


def _run_storm(workload_cls, frames: int) -> float:
    """One storm run; returns events/sec (CPU time, gc off)."""
    sim = Simulator()
    workload_cls(sim, frames)
    gc.collect()
    gc.disable()
    try:
        # repro-lint: disable=DET101 -- host-side benchmark timing
        t0 = time.process_time()
        sim.run()
        # repro-lint: disable=DET101 -- host-side benchmark timing
        dt = time.process_time() - t0
    finally:
        gc.enable()
    return sim.event_count / dt


def _bench_storm(workload_cls, frames: int, rounds: int,
                 frozen: dict) -> dict:
    fast = [_run_storm(workload_cls, frames) for _ in range(rounds)]
    return {
        "frames": frames,
        "rounds": rounds,
        "fast_events_per_sec": max(fast),
        "legacy_events_per_sec": frozen["legacy_events_per_sec"],
        "speedup": max(fast) / frozen["legacy_events_per_sec"],
        "fast_median": statistics.median(fast),
        "legacy_median": frozen["legacy_median"],
    }


# -- allocation footprint ------------------------------------------------

def _pending_footprint(n: int, frozen: dict) -> dict:
    """Bytes/blocks held per pending scheduled op (timers armed but not
    yet fired — the steady state of a window of in-flight frames)."""

    def _noop() -> None:  # pragma: no cover - never fires
        pass

    sim = Simulator()
    gc.collect()
    tracemalloc.start()
    base_size, _ = tracemalloc.get_traced_memory()
    for i in range(n):
        sim.call_at(1e9 + i, _noop, cancellable=False)
    size, _ = tracemalloc.get_traced_memory()
    snap = tracemalloc.take_snapshot()
    tracemalloc.stop()
    blocks = sum(s.count for s in snap.statistics("filename"))
    bytes_per_op = (size - base_size) / n
    return {
        "pending_ops": n,
        "fast_bytes_per_op": round(bytes_per_op, 1),
        "legacy_bytes_per_op": frozen["legacy_bytes_per_op"],
        "bytes_ratio": round(frozen["legacy_bytes_per_op"] / bytes_per_op,
                             2),
        "fast_blocks": blocks,
        "legacy_blocks": frozen["legacy_blocks"],
    }


# -- figure sweeps -------------------------------------------------------

def _time_experiment(exp_id: str) -> float:
    from repro.core.registry import run_experiment
    gc.collect()
    # repro-lint: disable=DET101 -- wall-clock sweep timing, not sim state
    t0 = time.perf_counter()
    run_experiment(exp_id, quick=True)
    # repro-lint: disable=DET101 -- wall-clock sweep timing, not sim state
    return time.perf_counter() - t0


def _bench_sweep(exp_id: str, rounds: int, frozen: dict) -> dict:
    fast = min(_time_experiment(exp_id) for _ in range(rounds))
    legacy = frozen["legacy_seconds"]
    return {
        "experiment": exp_id,
        "rounds": rounds,
        "fast_seconds": round(fast, 3),
        "legacy_seconds": legacy,
        "speedup": round(legacy / fast, 2),
    }


# -- flow-level acceleration sweeps --------------------------------------

def _time_experiment_flow(exp_id: str, quick: bool, flow_mode) -> float:
    from repro.core.registry import run_experiment
    from repro.flow.context import activated
    gc.collect()
    # repro-lint: disable=DET101 -- wall-clock sweep timing, not sim state
    t0 = time.perf_counter()
    with activated(flow_mode):
        run_experiment(exp_id, quick=quick)
    # repro-lint: disable=DET101 -- wall-clock sweep timing, not sim state
    return time.perf_counter() - t0


def _bench_flow_sweep(exp_id: str, quick: bool) -> dict:
    """One figure sweep, packet mode vs flow mode, wall clock.

    Unlike the figure sweeps above this is a single round per
    variant: the packet side of a ``--full`` sweep runs for minutes and
    noise only ever slows a run down, so one measurement understates
    the speedup if anything.
    """
    packet = _time_experiment_flow(exp_id, quick, None)
    flow = _time_experiment_flow(exp_id, quick, "on")
    return {
        "experiment": exp_id,
        "grid": "quick" if quick else "full",
        "packet_seconds": round(packet, 3),
        "flow_seconds": round(flow, 3),
        "speedup": round(packet / flow, 2),
    }


# -- main ----------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small sizes, storm + fig05a only (CI)")
    ap.add_argument("--out", default=str(REPO / "BENCH_kernel.json"))
    args = ap.parse_args(argv)

    frames = 20_000 if args.smoke else 120_000
    rounds = 3 if args.smoke else 7
    frozen = json.loads(BASELINE.read_text())
    frozen_sweeps = {s["experiment"]: s for s in frozen["figure_sweeps"]}

    print(f"frame storm: {frames} frames x {rounds} rounds ...")
    storm = _bench_storm(_DeliveryChains, frames, rounds,
                         frozen["frame_storm"])
    print(f"  fast {storm['fast_events_per_sec']:,.0f} ev/s  "
          f"legacy {storm['legacy_events_per_sec']:,.0f} ev/s  "
          f"speedup {storm['speedup']:.2f}x")

    lifecycle = _bench_storm(_FrameLifecycles,
                             frames // 3 if args.smoke else 40_000, rounds,
                             frozen["frame_lifecycle"])
    print(f"frame lifecycle: speedup {lifecycle['speedup']:.2f}x")

    alloc = _pending_footprint(10_000 if args.smoke else 50_000,
                               frozen["allocations"])
    print(f"pending-op footprint: fast {alloc['fast_bytes_per_op']} B/op, "
          f"legacy {alloc['legacy_bytes_per_op']} B/op "
          f"({alloc['bytes_ratio']}x)")

    sweeps = []
    sweep_ids = ["fig05a"] if args.smoke else ["fig05a", "fig06a", "fig07a"]
    for exp_id in sweep_ids:
        res = _bench_sweep(exp_id, 1 if args.smoke else 3,
                           frozen_sweeps[exp_id])
        sweeps.append(res)
        print(f"{exp_id} quick cold: fast {res['fast_seconds']}s  "
              f"legacy {res['legacy_seconds']}s  "
              f"speedup {res['speedup']:.2f}x")

    flow_sweeps = []
    for exp_id in sweep_ids:
        res = _bench_flow_sweep(exp_id, quick=args.smoke)
        flow_sweeps.append(res)
        print(f"{exp_id} {res['grid']} flow: packet {res['packet_seconds']}s"
              f"  flow {res['flow_seconds']}s  "
              f"speedup {res['speedup']:.2f}x")
    flow_aggregate = round(
        sum(s["packet_seconds"] for s in flow_sweeps)
        / sum(s["flow_seconds"] for s in flow_sweeps), 2)
    print(f"flow sweeps aggregate: {flow_aggregate:.2f}x")

    doc = {
        "protocol": {
            "storm_metric": "events/sec, CPU time, gc disabled, "
                            "best-of-N",
            "legacy_baseline": "legacy_* fields frozen from the "
                               "committed BENCH_kernel.json; the "
                               "original dispatch is no longer in the "
                               "tree",
            "sweep_metric": "wall-clock seconds, quick grid, in-process, "
                            "best-of-N",
            "flow_sweep_metric": "wall-clock seconds, packet mode vs "
                                 "--flow on, full grid (quick in smoke), "
                                 "one round",
            "smoke": args.smoke,
        },
        "targets": {
            "frame_storm_speedup": TARGET_STORM_SPEEDUP,
            "figure_sweep_speedup": TARGET_SWEEP_SPEEDUP,
            "flow_sweep_speedup": TARGET_FLOW_SWEEP_SPEEDUP,
        },
        "frame_storm": storm,
        "frame_lifecycle": lifecycle,
        "allocations": alloc,
        "figure_sweeps": sweeps,
        "flow_sweeps": flow_sweeps,
        "flow_sweeps_aggregate_speedup": flow_aggregate,
    }
    out = Path(args.out)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")

    def verdict(ok: bool) -> str:
        return "MET" if ok else "MISSED"

    if not args.smoke:
        # The sweep target holds per figure, not for the best of them.
        sweep_verdicts = ", ".join(
            f"{s['experiment']} "
            f"{verdict(s['speedup'] >= TARGET_SWEEP_SPEEDUP)}"
            for s in sweeps)
        print(f"targets: storm "
              f"{verdict(storm['speedup'] >= TARGET_STORM_SPEEDUP)}, "
              f"sweep {sweep_verdicts}, "
              f"flow {verdict(flow_aggregate >= TARGET_FLOW_SWEEP_SPEEDUP)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
