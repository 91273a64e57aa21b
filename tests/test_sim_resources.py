"""Unit tests for Store / PriorityStore / Resource."""

import pytest

from repro.sim import (URGENT, WAITING, PriorityStore, Resource, Simulator,
                       Store)


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------

def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer():
        for i in range(5):
            yield store.put(i)

    def consumer():
        for _ in range(5):
            got.append((yield store.get()))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == [0, 1, 2, 3, 4]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        got.append(((yield store.get()), sim.now))

    def producer():
        yield sim.timeout(7.0)
        yield store.put("item")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [("item", 7.0)]


def test_store_capacity_blocks_put():
    sim = Simulator()
    store = Store(sim, capacity=2)
    done_times = []

    def producer():
        for i in range(3):
            yield store.put(i)
            done_times.append(sim.now)

    def consumer():
        yield sim.timeout(10.0)
        yield store.get()

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert done_times == [0.0, 0.0, 10.0]


def test_store_len_tracks_items():
    sim = Simulator()
    store = Store(sim)
    store.put(1)
    store.put(2)
    sim.run()
    assert len(store) == 2


def test_store_try_put_full():
    sim = Simulator()
    store = Store(sim, capacity=1)
    assert store.try_put("a")
    sim.run()
    assert not store.try_put("b")


def test_store_invalid_capacity():
    with pytest.raises(ValueError):
        Store(Simulator(), capacity=0)


def test_store_multiple_consumers_fifo_service():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(name):
        item = yield store.get()
        got.append((name, item))

    sim.process(consumer("c1"))
    sim.process(consumer("c2"))

    def producer():
        yield sim.timeout(1.0)
        yield store.put("x")
        yield store.put("y")

    sim.process(producer())
    sim.run()
    assert got == [("c1", "x"), ("c2", "y")]


# ---------------------------------------------------------------------------
# Hand-offs off the event heap
# ---------------------------------------------------------------------------

def test_put_with_room_schedules_nothing():
    sim = Simulator()
    store = Store(sim)
    put = store.put("x")
    assert put.processed
    assert sim.peek() == float("inf")
    sim.run()
    assert sim.event_count == 0
    assert list(store.items) == ["x"]


def test_yielded_put_with_room_resumes_in_the_same_step():
    sim = Simulator()
    store = Store(sim)
    log = []

    def producer():
        sim.call_at(0.0, lambda: log.append("scheduled before the put"))
        yield store.put("x")
        log.append("resumed")

    sim.process(producer())
    sim.run()
    assert log == ["resumed", "scheduled before the put"]


def test_take_returns_a_ready_item_without_scheduling():
    sim = Simulator()
    store = Store(sim)
    store.put("x")
    assert store.take(lambda item: None) == "x"
    assert len(store) == 0
    assert sim.peek() == float("inf")


def test_take_on_empty_store_wakes_the_callback_once_fed():
    sim = Simulator()
    store = Store(sim)
    got = []
    assert store.take(lambda item: got.append((item, sim.now))) is WAITING
    sim.call_at(3.0, lambda: store.put("x"))
    sim.run()
    assert got == [("x", 3.0)]


def _getter_fire_order(kinds):
    """Queue one getter per entry of ``kinds`` ("event" = a process
    yielding ``get()``, "callback" = :meth:`Store.take`), then feed two
    items at t=5 with a zero-delay timeout created between the puts."""
    sim = Simulator()
    store = Store(sim)
    log = []

    def event_getter(n):
        log.append((n, (yield store.get())))

    def callback_getter(n):
        store.take(lambda item: log.append((n, item)))

    for n, kind in enumerate(kinds):
        # URGENT, like a process kick-off, so getters queue in order.
        if kind == "event":
            sim.process(event_getter(n))
        else:
            sim.call_at(0.0, callback_getter, n, priority=URGENT)

    def producer():
        yield sim.timeout(5.0)
        store.put("a")
        sim.timeout(0.0).callbacks.append(lambda _e: log.append("timeout"))
        store.put("b")

    sim.process(producer())
    sim.run()
    return log


@pytest.mark.parametrize("kinds", [("callback", "event"),
                                   ("event", "callback"),
                                   ("callback", "callback")])
def test_callback_getters_fire_where_event_getters_fire(kinds):
    reference = _getter_fire_order(("event", "event"))
    assert reference == [(0, "a"), "timeout", (1, "b")]
    assert _getter_fire_order(kinds) == reference


# ---------------------------------------------------------------------------
# PriorityStore
# ---------------------------------------------------------------------------

def test_priority_store_orders_items():
    sim = Simulator()
    store = PriorityStore(sim)
    got = []

    def producer():
        for i in (5, 1, 3):
            yield store.put(i)

    def consumer():
        yield sim.timeout(1.0)
        for _ in range(3):
            got.append((yield store.get()))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == [1, 3, 5]


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------

def test_resource_mutual_exclusion():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    timeline = []

    def worker(name):
        with res.request() as req:
            yield req
            timeline.append((name, "in", sim.now))
            yield sim.timeout(5.0)
            timeline.append((name, "out", sim.now))

    sim.process(worker("w1"))
    sim.process(worker("w2"))
    sim.run()
    assert timeline == [("w1", "in", 0.0), ("w1", "out", 5.0),
                        ("w2", "in", 5.0), ("w2", "out", 10.0)]


def test_resource_capacity_two_overlaps():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    finish = []

    def worker():
        with res.request() as req:
            yield req
            yield sim.timeout(5.0)
            finish.append(sim.now)

    for _ in range(4):
        sim.process(worker())
    sim.run()
    assert finish == [5.0, 5.0, 10.0, 10.0]


def test_resource_release_is_idempotent():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker():
        req = res.request()
        yield req
        res.release(req)
        res.release(req)  # no-op

    sim.process(worker())
    sim.run()
    assert res.count == 0


def test_resource_cancel_queued_request():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    holder = res.request()
    sim.run()
    queued = res.request()
    res.release(queued)  # cancel while still waiting
    res.release(holder)
    sim.run()
    assert res.count == 0 and res.queue_length == 0


def test_resource_queue_length():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    res.request()
    res.request()
    res.request()
    sim.run()
    assert res.count == 1
    assert res.queue_length == 2


def test_resource_invalid_capacity():
    with pytest.raises(ValueError):
        Resource(Simulator(), capacity=0)
