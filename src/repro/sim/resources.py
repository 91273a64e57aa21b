"""Waitable resources for simulation processes.

Three primitives cover every queueing need in the protocol models:

* :class:`Store` — a FIFO buffer of items with optional capacity; ``put``
  blocks when full, ``get`` blocks when empty.  Message queues, NIC rings
  and socket buffers are all Stores.
* :class:`PriorityStore` — a Store that yields the smallest item first
  (items must be orderable); used for out-of-order reassembly.
* :class:`Resource` — a counted semaphore with FIFO grant order; used for
  link arbitration and server thread pools.

All operations return :class:`~repro.sim.core.Event` subclasses so that
processes simply ``yield store.get()``.  Hand-offs that nothing waits on
never reach the event heap: a put that buffers at once returns an event
that is already processed, and a single-consumer callback pump pulls
items with :meth:`Store.take` instead of a :class:`StoreGet`.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, List

from .core import Event, Simulator

__all__ = ["Store", "PriorityStore", "Resource", "StorePut", "StoreGet",
           "ResourceRequest", "WAITING"]

#: Returned by :meth:`Store.take` when no item is ready and the callback
#: has been queued instead.
WAITING = object()


class StorePut(Event):
    """A put that must wait for room; succeeds (value=None) once the
    item is buffered.  Puts that find room never build one."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.sim)
        self.item = item
        store._put_waiters.append(self)
        store._dispatch()


class StoreGet(Event):
    """Pending get; succeeds with the retrieved item."""

    __slots__ = ()

    def __init__(self, store: "Store"):
        super().__init__(store.sim)
        # Common case inlined: an item is ready and nobody queued ahead.
        # Order matches the generic loop — when the store sits at
        # capacity with blocked putters, the getter still succeeds first
        # and the freed slot then unblocks the head putter.
        if not store._get_waiters and store._items:
            self.succeed(store._do_get())
            if store._put_waiters:
                store._dispatch()
        else:
            store._get_waiters.append(self)
            store._dispatch()


class Store:
    """FIFO item buffer with optional capacity."""

    def __init__(self, sim: Simulator, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self._items = self._make_items()
        self._put_waiters: List[StorePut] = []
        #: :class:`StoreGet` events and :meth:`take` callbacks, FIFO.
        self._get_waiters: List[Any] = []
        # What every put that buffers at once returns: already
        # processed, so yielding it resumes in the same step.
        self._put_done = Event(sim)
        self._put_done._value = None
        self._put_done.callbacks = None

    def _make_items(self):
        """FIFO stores keep a deque so ``get`` pops the head in O(1);
        :class:`PriorityStore` overrides this with a list for ``heapq``."""
        return deque()

    # -- public api -----------------------------------------------------
    def put(self, item: Any) -> Event:
        """Buffer ``item``.  With room and no putters queued ahead, the
        item is buffered and the head getter woken at once, and the
        returned event is already processed (nothing is scheduled);
        otherwise a pending :class:`StorePut` is returned."""
        if self._put_waiters or len(self._items) >= self.capacity:
            return StorePut(self, item)
        self._do_put(item)
        if self._get_waiters:
            self._dispatch()
        return self._put_done

    def get(self) -> StoreGet:
        return StoreGet(self)

    def take(self, fn: Callable[[Any], None]) -> Any:
        """Callback get for a single-consumer pump.

        Returns the head item when one is ready and nobody is queued
        ahead.  Otherwise queues ``fn`` and returns :data:`WAITING`;
        ``fn(item)`` then runs from the event heap at exactly the
        ``(time, priority, seq)`` slot a :class:`StoreGet` woken at the
        same point would take, with a pooled record instead of an event.
        """
        if self._get_waiters or not self._items:
            self._get_waiters.append(fn)
            self._dispatch()
            return WAITING
        item = self._do_get()
        if self._put_waiters:
            self._dispatch()
        return item

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when the store is full."""
        if len(self._items) >= self.capacity and not self._get_waiters:
            return False
        self.put(item)
        return True

    @property
    def items(self):
        """The buffered items (a deque for FIFO stores, a heap list for
        :class:`PriorityStore`)."""
        return self._items

    def __len__(self) -> int:
        return len(self._items)

    # -- storage policy (overridden by PriorityStore) --------------------
    def _do_put(self, item: Any) -> None:
        self._items.append(item)

    def _do_get(self) -> Any:
        return self._items.popleft()

    # -- matching -------------------------------------------------------
    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            while self._put_waiters and len(self._items) < self.capacity:
                putter = self._put_waiters.pop(0)
                self._do_put(putter.item)
                putter.succeed()
                progress = True
            while self._get_waiters and self._items:
                getter = self._get_waiters.pop(0)
                if getter.__class__ is StoreGet:
                    getter.succeed(self._do_get())
                else:
                    self.sim.call_at(0.0, getter, self._do_get(),
                                     cancellable=False)
                progress = True


class PriorityStore(Store):
    """A Store that always yields its smallest item (heap order)."""

    def _make_items(self):
        return []

    def _do_put(self, item: Any) -> None:
        heapq.heappush(self._items, item)

    def _do_get(self) -> Any:
        return heapq.heappop(self._items)


class ResourceRequest(Event):
    """Pending acquisition of one resource slot.

    Usable as a context manager inside a process::

        with res.request() as req:
            yield req
            ... hold the resource ...
        # released on exit
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim)
        self.resource = resource
        resource._waiters.append(self)
        resource._dispatch()

    def __enter__(self) -> "ResourceRequest":
        return self

    def __exit__(self, *exc) -> None:
        self.resource.release(self)


class Resource:
    """Counted semaphore with FIFO grant order."""

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._users: List[ResourceRequest] = []
        self._waiters: List[ResourceRequest] = []

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self) -> ResourceRequest:
        return ResourceRequest(self)

    def release(self, request: ResourceRequest) -> None:
        """Release a held (or still-queued) request.  Idempotent."""
        if request in self._users:
            self._users.remove(request)
            self._dispatch()
        elif request in self._waiters:
            self._waiters.remove(request)

    def _dispatch(self) -> None:
        while self._waiters and len(self._users) < self.capacity:
            req = self._waiters.pop(0)
            self._users.append(req)
            req.succeed()
