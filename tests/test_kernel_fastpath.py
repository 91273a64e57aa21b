"""Tests for the event-kernel fast path.

Covers the ``call_at`` scheduling contract (ordering, cancellation,
freelist recycling), :class:`ReusableTimeout`, the hardened
``Event.trigger``, ``run(until=<number>)`` boundary semantics,
condition edge cases, the interrupt-vs-termination race, in-flight
``Link.set_delay`` behaviour — and the central equivalence claim: a
busy WAN workload reproduces the clocks, event counts and bandwidths
the original allocation-per-event dispatch produced, with and without
a metrics registry attached.
"""

import pytest

from repro.fabric import build_cluster_of_clusters
from repro.fabric.link import Link
from repro.fabric.packet import Frame
from repro.obs import MetricsRegistry, use_registry
from repro.sim import (URGENT, AllOf, AnyOf, ReusableTimeout,
                       SimulationError, Simulator)
from repro.verbs import perftest


# ---------------------------------------------------------------------------
# call_at ordering and cancellation
# ---------------------------------------------------------------------------

def test_call_at_shares_heap_order_with_events():
    """Callbacks fire exactly where an Event scheduled at the same
    instant would: (time, priority, seq) order, FIFO among equals."""
    sim = Simulator()
    log = []

    def waiter():
        yield sim.timeout(5.0)
        log.append("timeout")

    sim.call_at(5.0, lambda: log.append("cb-before"))
    sim.process(waiter())
    sim.call_at(5.0, lambda: log.append("cb-after"))
    sim.call_at(5.0, lambda: log.append("cb-urgent"), priority=URGENT)
    sim.run()
    # URGENT overtakes every NORMAL entry at t=5; the rest keep seq
    # order.  The process's Timeout is scheduled when the generator
    # first runs (its t=0 kick-off pop), which is after both call_at
    # lines above executed — so it fires last.
    assert log == ["cb-urgent", "cb-before", "cb-after", "timeout"]


def test_call_at_with_arg_and_call_soon():
    sim = Simulator()
    got = []
    sim.call_at(1.0, got.append, "x")
    sim.call_soon(got.append, "soon")
    sim.run()
    assert got == ["soon", "x"]
    assert sim.now == 1.0


def test_call_at_cancel_makes_dispatch_a_noop():
    sim = Simulator()
    fired = []
    handle = sim.call_at(3.0, fired.append, "nope")
    keep = sim.call_at(3.0, fired.append, "yes")
    handle.cancel()
    sim.run()
    assert fired == ["yes"]
    # The cancelled record still occupied its heap slot (one pop).
    assert sim.event_count == 2


def test_fire_and_forget_records_recycle_through_the_pool():
    sim = Simulator()
    assert sim.call_at(1.0, lambda: None, cancellable=False) is None
    sim.run()
    assert len(sim._cb_pool) == 1
    recycled = sim._cb_pool[0]
    # The next fire-and-forget schedule reuses the pooled record.
    sim.call_at(1.0, lambda: None, cancellable=False)
    assert not sim._cb_pool
    sim.run()
    assert sim._cb_pool[0] is recycled
    # Cancellable records are never pooled: a caller may hold the
    # handle and cancel after this dispatch cycle.
    sim.call_at(1.0, lambda: None)
    sim.run()
    assert len(sim._cb_pool) == 1


# ---------------------------------------------------------------------------
# ReusableTimeout
# ---------------------------------------------------------------------------

def test_reusable_timeout_rearms_across_sleeps():
    sim = Simulator()
    wait = ReusableTimeout(sim)
    clocks = []

    def sleeper():
        for delay in (2.0, 3.0, 1.5):
            yield wait.arm(delay)
            clocks.append(sim.now)

    sim.process(sleeper())
    sim.run()
    assert clocks == [2.0, 5.0, 6.5]


def test_reusable_timeout_rejects_negative_delay_and_double_arm():
    sim = Simulator()
    wait = ReusableTimeout(sim)
    with pytest.raises(ValueError):
        wait.arm(-1.0)
    wait.arm(5.0)
    with pytest.raises(SimulationError):
        wait.arm(1.0)  # still pending
    sim.run()


# ---------------------------------------------------------------------------
# Event.trigger hardening (satellite)
# ---------------------------------------------------------------------------

def test_trigger_from_untriggered_event_raises():
    sim = Simulator()
    src = sim.event()
    dst = sim.event()
    with pytest.raises(SimulationError, match="has not been triggered"):
        dst.trigger(src)


def test_trigger_copies_success_and_failure():
    sim = Simulator()
    src = sim.event()
    src.succeed(42)
    dst = sim.event()
    dst.trigger(src)
    assert dst.triggered and dst.value == 42


# ---------------------------------------------------------------------------
# run(until=<number>) boundary (satellite)
# ---------------------------------------------------------------------------

def test_run_until_boundary_is_strict():
    """Events scheduled for exactly ``until`` do not run; the clock
    still lands on ``until``."""
    sim = Simulator()
    fired = []
    sim.call_at(5.0, fired.append, "at-5")
    sim.call_at(4.999, fired.append, "before")
    sim.run(until=5.0)
    assert fired == ["before"]
    assert sim.now == 5.0
    sim.run(until=6.0)  # the boundary event runs in the next window
    assert fired == ["before", "at-5"]


# ---------------------------------------------------------------------------
# Condition edge cases (satellite)
# ---------------------------------------------------------------------------

def _failed_processed_event(sim):
    """A failed event whose callbacks have run (caught by a process)."""
    evt = sim.event()

    def catcher():
        try:
            yield evt
        except ValueError:
            pass

    sim.process(catcher())
    evt.fail(ValueError("boom"))
    sim.run()
    assert evt.processed and not evt.ok
    return evt


@pytest.mark.parametrize("cond_cls", [AnyOf, AllOf])
def test_condition_with_already_failed_event_fails(cond_cls):
    sim = Simulator()
    failed = _failed_processed_event(sim)
    pending = sim.event()
    caught = []

    def waiter():
        try:
            yield cond_cls(sim, [failed, pending])
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(waiter())
    sim.run()
    assert caught == ["boom"]


def test_interrupt_racing_same_instant_termination_is_defused():
    """An interrupt issued at the same instant the target terminates
    normally must neither raise into the dead generator nor crash the
    dispatcher with an unhandled failure."""
    sim = Simulator()
    gate = sim.event()
    done = []

    def target():
        yield gate
        done.append(sim.now)

    proc = sim.process(target())

    def driver():
        yield sim.timeout(5.0)
        # URGENT: the gate pop (resuming and terminating the target)
        # lands before the interrupt event's pop.
        gate.succeed(priority=URGENT)
        proc.interrupt("too late")

    sim.process(driver())
    sim.run()
    assert done == [5.0]
    assert proc.processed and proc.ok


# ---------------------------------------------------------------------------
# Link.set_delay in-flight behaviour (satellite)
# ---------------------------------------------------------------------------

class _Probe:
    """Link endpoint recording frame arrival times."""

    cut_through = False

    def __init__(self, sim):
        self.sim = sim
        self.arrivals = []

    def receive_frame(self, frame, link):
        self.arrivals.append((frame.frame_id, self.sim.now))


def test_set_delay_spares_frames_already_past_serialization():
    sim = Simulator()
    a, b = _Probe(sim), _Probe(sim)
    link = Link(sim, rate=1000.0, delay_us=100.0, name="dl").attach(a, b)

    def frame():
        return Frame(src_lid=1, dst_lid=2, size=1000, wire_bytes=1000)

    f1, f2, f3 = frame(), frame(), frame()
    link.send(a, f1)  # serialized by t=1, delivery scheduled for t=101
    sim.call_at(50.0, lambda: link.set_delay(0.0))
    sim.call_at(60.0, lambda: link.send(a, f2))
    sim.call_at(110.0, lambda: link.send(a, f3))
    sim.run()
    arrivals = dict(b.arrivals)
    # f1's delivery was scheduled when its last byte hit the wire (t=1,
    # delay still 100) — the change at t=50 cannot recall it.
    assert arrivals[f1.frame_id] == pytest.approx(101.0)
    # f2 serialized after the change (would arrive at t=61), but wires
    # are FIFO: delivery is clamped to never overtake f1.
    assert arrivals[f2.frame_id] == pytest.approx(101.0)
    # f3 serialized after f1 arrived: the new delay applies cleanly.
    assert arrivals[f3.frame_id] == pytest.approx(111.0)


# ---------------------------------------------------------------------------
# Whole-simulation equivalence with the original dispatch
# ---------------------------------------------------------------------------

#: What ``_busy_wan_workload`` produced under the original dispatch (an
#: ``Event`` plus closure per scheduled action, a fresh ``Timeout`` per
#: sleep, generator pumps, one ``step()`` call per event), recorded
#: before that implementation was retired.
ORIGINAL_DISPATCH = {"clock": 500000.4,
                     "bw": 985.5630413859469, "lat": 258.8679999999997}

#: Events the workload dispatches now.  The original dispatch counted
#: 4579; the 1275 missing entries are the no-op put/get events: a
#: ``StorePut`` for every put that buffered at once and a ``StoreGet``
#: for every pump get that found an item ready, which nothing waited on.
DISPATCHED_EVENTS = 3304

def _busy_wan_workload():
    """RC bandwidth then UD latency across a delayed Longbow WAN —
    exercises links, switches, Longbow credit flow, RC windows/ACKs and
    the UD pump in one simulation."""
    sim = Simulator()
    fabric = build_cluster_of_clusters(sim, 2, 2, wan_delay_us=250.0)
    bw = perftest.run_send_bw(sim, fabric.cluster_a[0],
                              fabric.cluster_b[0], 65536, iters=48)
    lat = perftest.run_send_lat(sim, fabric.cluster_a[1],
                                fabric.cluster_b[1], 256, iters=24,
                                transport="ud")
    sim.run()  # drain trailing ACKs so event counts cover everything
    return {"events": sim.event_count, "clock": sim.now,
            "bw": bw, "lat": lat}


@pytest.mark.parametrize("observed", [False, True],
                         ids=["plain", "metrics"])
def test_busy_wan_workload_matches_original_dispatch(observed):
    if observed:
        with use_registry(MetricsRegistry()):
            got = _busy_wan_workload()
    else:
        got = _busy_wan_workload()
    assert {k: got[k] for k in ORIGINAL_DISPATCH} == ORIGINAL_DISPATCH
    assert got["events"] == DISPATCHED_EVENTS
    assert got["events"] > 3_000  # meaningfully busy, not a toy run
