"""Discrete-event simulation kernel.

This is the substrate every protocol model in :mod:`repro` runs on.  The
design follows the classic event-list / process-interaction style (the
same model SimPy uses): a :class:`Simulator` owns a priority queue of
:class:`Event` objects ordered by ``(time, priority, sequence)``, and a
:class:`Process` wraps a Python generator that advances by yielding
events.  Time is a ``float`` in **microseconds** throughout the project;
the unit is a convention, nothing in the kernel depends on it.

The kernel is deliberately small and dependency-free: the correctness of
every figure in the paper reproduction rests on the ordering guarantees
documented here, which the test-suite pins down:

* events scheduled for the same instant fire in ``(priority, sequence)``
  order — i.e. FIFO among equal priorities;
* a process resumes in the same event-loop step its awaited event is
  processed, before any later-scheduled event;
* failures propagate into the waiting process as raised exceptions, and
  un-waited failures surface from :meth:`Simulator.run`.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "ReusableTimeout",
    "Process",
    "Interrupt",
    "AnyOf",
    "AllOf",
    "URGENT",
    "NORMAL",
    "SimulationError",
]

#: Scheduling priority for interrupts and other must-run-first events.
URGENT = 0
#: Default scheduling priority.
NORMAL = 1

_PENDING = object()

#: Sentinel distinguishing "no argument" from an explicit ``None`` in
#: :meth:`Simulator.call_at`; a callback scheduled without ``arg`` is
#: invoked as ``fn()``.
_NO_ARG = object()

_INF = float("inf")

#: Filled in by :mod:`repro.obs.metrics` when the observability layer is
#: imported: a zero-arg callable returning the process-wide default
#: ``MetricsRegistry`` (or ``None``).  The kernel itself never imports
#: the obs layer, so simulations that never touch metrics pay nothing.
default_metrics_provider: Optional[Callable[[], Any]] = None


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The interrupting cause is available as :attr:`cause`.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Event:
    """A one-shot occurrence on the simulation timeline.

    An event starts *pending*, becomes *triggered* once given a value (or
    failure) and scheduled, and *processed* after its callbacks have run.
    Processes wait on events by ``yield``-ing them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused", "_scheduled")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._defused: bool = False
        self._scheduled: bool = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is on the event queue."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful if triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("value of untriggered event is undefined")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0,
                priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``.

        ``delay`` schedules processing that far in the future (used by
        :class:`Timeout`); events may only be triggered once.
        """
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self, delay=delay, priority=priority)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0,
             priority: int = NORMAL) -> "Event":
        """Trigger the event as failed with exception ``exc``."""
        if not isinstance(exc, BaseException):
            raise TypeError(f"{exc!r} is not an exception")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exc
        self.sim._schedule(self, delay=delay, priority=priority)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger with the state of another (triggered) event."""
        if event._value is _PENDING:
            raise SimulationError(
                f"cannot trigger {self!r} from {event!r}: the source "
                f"event has not been triggered yet")
        if event._ok:
            self.succeed(event._value)
        else:
            self._defused = True
            self.fail(event._value)

    def __repr__(self) -> str:
        state = ("processed" if self.processed
                 else "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated microseconds from *now*."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(sim)
        self.succeed(value, delay=delay)


class ReusableTimeout(Event):
    """A timeout event its owner re-arms instead of reallocating.

    Processes that sleep at most once per loop iteration (retransmit
    timers, TCP/SDP CPU and RTO waits) would otherwise build a fresh
    :class:`Timeout` — one object plus one callback list — per sleep.
    A ``ReusableTimeout`` is created once per process and re-armed
    after each trip through the event loop::

        t = ReusableTimeout(sim)
        while True:
            ...
            yield t.arm(delay_us)

    Scheduling behaviour is *identical* to ``Timeout`` (same heap entry,
    same sequence-number consumption point), so swapping one in cannot
    move an event trace.  The owner must guarantee a single outstanding
    arm at a time; :meth:`arm` raises if the previous one is still
    pending.
    """

    __slots__ = ()

    def arm(self, delay: float, value: Any = None) -> "ReusableTimeout":
        """(Re-)schedule this timeout ``delay`` from now; returns self."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        if self._value is not _PENDING and self.callbacks is not None:
            raise SimulationError(f"{self!r} re-armed while still pending")
        self.callbacks = []
        self._value = value
        self._ok = True
        self._scheduled = True
        sim = self.sim
        heapq.heappush(sim._queue,
                       (sim._now + delay, NORMAL, next(sim._seq), self))
        return self


class _Callback:
    """A bare scheduled callable — the zero-allocation fast path.

    Rides the same ``(time, priority, seq)`` heap as :class:`Event`
    entries, so interleaving with events is exactly the FIFO-among-equal
    -priorities order the kernel guarantees; but dispatch is a direct
    call, with no callback list, no defused-failure bookkeeping and no
    per-occurrence ``Event`` allocation.  Nothing can wait on one —
    processes still yield events; callbacks are for fire-and-forget
    work (frame delivery, switch forwarding, completion delivery).
    """

    __slots__ = ("fn", "arg", "active", "recycle")

    def __init__(self, fn: Callable, arg: Any):
        self.fn = fn
        self.arg = arg
        self.active = True
        #: Freelist flag: set on non-cancellable callbacks, whose record
        #: goes back to the simulator's pool right after dispatch (no
        #: caller holds a handle that could cancel a recycled record).
        self.recycle = False

    def cancel(self) -> None:
        """Deactivate: the heap entry stays but dispatch is a no-op.

        This is the cheap timer-cancel used by retransmit/RPC timers —
        O(1), no heap surgery; the inert entry is popped and discarded
        at its original deadline.
        """
        self.active = False

    def __repr__(self) -> str:
        state = "active" if self.active else "cancelled"
        return f"<_Callback {state} {self.fn!r} at {id(self):#x}>"


class Process(Event):
    """A simulation process wrapping a generator.

    The process is itself an event that triggers when the generator
    returns (value = return value) or raises (failure).  Other processes
    may therefore ``yield proc`` to join it.
    """

    __slots__ = ("_generator", "_target", "name", "_m_resumes")

    def __init__(self, sim: "Simulator",
                 generator: Generator[Event, Any, Any],
                 name: Optional[str] = None):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(sim)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        self._m_resumes = (
            sim.metrics.counter("sim", "process_resumes", process=self.name)
            if sim.metrics is not None else None)
        # Kick off at the current instant.
        init = Event(sim)
        init.callbacks.append(self._resume)
        init.succeed(None, priority=URGENT)

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimulationError(f"{self!r} has terminated; cannot interrupt")
        if self._generator is self.sim._active_gen:
            raise SimulationError("a process cannot interrupt itself")
        evt = Event(self.sim)
        evt.callbacks.append(self._resume_interrupt)
        evt.fail(Interrupt(cause), priority=URGENT)

    # -- internal ------------------------------------------------------
    def _resume_interrupt(self, event: Event) -> None:
        if not self.is_alive:  # raced with normal termination
            event._defused = True
            return
        # Detach from whatever we were waiting on.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        self._resume(event)

    def _resume(self, event: Event) -> None:
        if self._m_resumes is not None:
            self._m_resumes.inc()
        self.sim._active_proc = self
        self.sim._active_gen = self._generator
        try:
            while True:
                try:
                    if event._ok:
                        target = self._generator.send(event._value)
                    else:
                        event._defused = True
                        target = self._generator.throw(event._value)
                except StopIteration as stop:
                    self._target = None
                    self.succeed(stop.value, priority=URGENT)
                    return
                except BaseException as exc:
                    self._target = None
                    self.fail(exc, priority=URGENT)
                    return

                if not isinstance(target, Event):
                    exc = TypeError(
                        f"process {self.name!r} yielded non-event {target!r}")
                    event = Event(self.sim)
                    event._ok = False
                    event._value = exc
                    continue
                if target.sim is not self.sim:
                    exc = SimulationError(
                        f"process {self.name!r} yielded event from a "
                        f"different simulator")
                    event = Event(self.sim)
                    event._ok = False
                    event._value = exc
                    continue

                if target.processed:
                    # Already done: resume synchronously with its value.
                    event = target
                    continue
                target.callbacks.append(self._resume)
                self._target = target
                return
        finally:
            self.sim._active_proc = None
            self.sim._active_gen = None


class _Condition(Event):
    """Base for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("_events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        self._count = 0
        for evt in self._events:
            if evt.sim is not sim:
                raise SimulationError("condition mixes simulators")
        for evt in self._events:
            if evt.processed:
                self._check(evt)
            else:
                evt.callbacks.append(self._check)
        if not self._events and not self.triggered:
            self.succeed({})

    def _matched(self, count: int) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._matched(self._count):
            self.succeed(self._collect())

    def _collect(self) -> dict:
        return {evt: evt._value
                for evt in self._events if evt.processed and evt._ok}


class AnyOf(_Condition):
    """Triggers when the first of ``events`` succeeds (fails on first failure)."""

    __slots__ = ()

    def _matched(self, count: int) -> bool:
        return count >= 1


class AllOf(_Condition):
    """Triggers when all of ``events`` have succeeded."""

    __slots__ = ()

    def _matched(self, count: int) -> bool:
        return count >= len(self._events)


class Simulator:
    """Event loop: owns simulated time and the pending-event queue."""

    def __init__(self, metrics: Any = None):
        self._now: float = 0.0
        self._queue: list = []
        self._seq = itertools.count()
        self._active_proc: Optional[Process] = None
        self._active_gen = None
        self._event_count = 0
        #: Analytic completions scheduled by flow mode (see
        #: :meth:`schedule_flow_completion`); packet-mode purity tests
        #: assert this stays zero.
        self.flow_events = 0
        #: Freelist of dispatched non-cancellable ``_Callback`` records.
        self._cb_pool: list = []
        #: Optional ``repro.obs.MetricsRegistry`` observing this run.
        self.metrics: Any = None
        self._m_events = None
        self._m_qdepth = None
        if metrics is None and default_metrics_provider is not None:
            metrics = default_metrics_provider()
        if metrics is not None:
            self.attach_metrics(metrics)

    def attach_metrics(self, registry: Any) -> None:
        """Observe this simulator with ``registry``.

        Must be called before the components whose activity should be
        recorded are constructed — instrumented objects cache their
        metric handles (or ``None``) at ``__init__`` time.
        """
        self.metrics = registry
        self._m_events = registry.counter("sim", "events_processed")
        self._m_qdepth = registry.gauge("sim", "queue_depth")

    # -- clock ----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_proc

    @property
    def event_count(self) -> int:
        """Total number of events processed so far (diagnostic)."""
        return self._event_count

    # -- factories ------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling -----------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0,
                  priority: int = NORMAL) -> None:
        if event._scheduled:
            raise SimulationError(f"{event!r} already scheduled")
        event._scheduled = True
        heapq.heappush(self._queue,
                       (self._now + delay, priority, next(self._seq), event))

    def call_at(self, delay: float, fn: Callable, arg: Any = _NO_ARG,
                priority: int = NORMAL,
                cancellable: bool = True) -> Optional[_Callback]:
        """Schedule a bare callable ``delay`` from now (fast path).

        The callback shares the event heap's ``(time, priority, seq)``
        ordering — it fires exactly where an ``Event`` scheduled at the
        same instant would — but costs one slotted record instead of an
        ``Event`` plus callback list plus closure, and dispatches as a
        direct call.  With ``arg`` given the callable is invoked as
        ``fn(arg)``, otherwise as ``fn()``.  The returned record's
        :meth:`~_Callback.cancel` makes the dispatch a no-op (cheap
        retransmit-timer cancellation).

        ``cancellable=False`` declares fire-and-forget use: no handle is
        returned, and the record is recycled through a freelist after
        dispatch, so steady-state per-packet scheduling allocates only
        the heap tuple.  Pass it at every hot site that never cancels.

        Nothing can *wait* on a callback: processes yield events.  Use
        ``call_at`` only for fire-and-forget work.
        """
        if cancellable:
            cb = _Callback(fn, arg)
        else:
            pool = self._cb_pool
            if pool:
                cb = pool.pop()
                cb.fn = fn
                cb.arg = arg
            else:
                cb = _Callback(fn, arg)
                cb.recycle = True
        heapq.heappush(self._queue,
                       (self._now + delay, priority, next(self._seq), cb))
        return cb if cancellable else None

    def call_soon(self, fn: Callable, arg: Any = _NO_ARG,
                  priority: int = NORMAL,
                  cancellable: bool = True) -> Optional[_Callback]:
        """:meth:`call_at` with zero delay — runs after pending events
        already scheduled for the current instant."""
        return self.call_at(0.0, fn, arg, priority, cancellable)

    def schedule_flow_completion(self, delay: float, fn: Callable,
                                 arg: Any = _NO_ARG) -> None:
        """Schedule an analytically computed flow-mode completion.

        The hybrid dispatch hook: :mod:`repro.flow` collapses a proved
        steady state into one of these instead of simulating its
        packets.  Semantically a fire-and-forget :meth:`call_at` on the
        freelist fast path; counted separately in :attr:`flow_events`
        so packet-fidelity invariants (``--faults``/``--metrics`` runs,
        the equivalence wall's packet side) can assert none fired.
        """
        self.flow_events += 1
        self.call_at(delay, fn, arg, cancellable=False)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event (or scheduled callback).

        A debugging aid: metrics count only what :meth:`run` dispatches.
        """
        if not self._queue:
            raise SimulationError("step() on empty event queue")
        t, _, _, event = heapq.heappop(self._queue)
        if t < self._now:  # pragma: no cover - defensive
            raise SimulationError("event scheduled in the past")
        self._now = t
        self._event_count += 1
        if event.__class__ is _Callback:
            if event.active:
                arg = event.arg
                if arg is _NO_ARG:
                    event.fn()
                else:
                    event.fn(arg)
            if event.recycle and len(self._cb_pool) < 1024:
                self._cb_pool.append(event)
            return
        callbacks, event.callbacks = event.callbacks, None
        for cb in callbacks:
            cb(event)
        if not event._ok and not event._defused:
            raise event._value

    def _dispatch(self, limit: float = _INF, stop=()) -> None:
        """The dispatch loop behind every :meth:`run`: pop and run
        events scheduled before ``limit`` until the queue drains or the
        ``stop`` list becomes non-empty.  Locals are hoisted and the
        body inlined, so a loop iteration costs no Python-level call
        beyond the dispatched callback itself.  Metrics, when attached,
        are recorded once on exit, never per event."""
        queue = self._queue
        pop = heapq.heappop
        no_arg = _NO_ARG
        cb_cls = _Callback
        pool = self._cb_pool
        count = 0
        try:
            while queue and queue[0][0] < limit and not stop:
                t, _, _, event = pop(queue)
                self._now = t
                count += 1
                if event.__class__ is cb_cls:
                    if event.active:
                        arg = event.arg
                        if arg is no_arg:
                            event.fn()
                        else:
                            event.fn(arg)
                    if event.recycle and len(pool) < 1024:
                        pool.append(event)
                    continue
                callbacks, event.callbacks = event.callbacks, None
                for cb in callbacks:
                    cb(event)
                if not event._ok and not event._defused:
                    raise event._value
        finally:
            self._event_count += count
            if self._m_events is not None:
                self._m_events.inc(count)
                self._m_qdepth.set(len(queue))

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run to exhaustion), a number (run
        until simulated time reaches it), or an :class:`Event` (run
        until that event is processed; returns its value / raises its
        failure).

        Numeric ``until`` semantics are **strict**: events scheduled for
        exactly ``until`` do *not* run — the loop processes events with
        ``time < until``, then sets the clock to ``until`` and returns,
        leaving boundary events pending for the next ``run()`` call.
        The regression tests pin this, so rely on it.

        With a metrics registry attached, ``sim.events_processed``
        grows by the number of events dispatched and ``sim.queue_depth``
        samples the pending-event count once, as the call returns.
        """
        if until is None:
            self._dispatch()
            return None
        if isinstance(until, Event):
            sentinel: list = []
            if until.processed:
                sentinel.append(until)
            else:
                until.callbacks.append(sentinel.append)
            self._dispatch(stop=sentinel)
            if not sentinel:
                raise SimulationError(
                    "event queue empty before awaited event triggered")
            if until._ok:
                return until._value
            until._defused = True
            raise until._value
        limit = float(until)
        if limit < self._now:
            raise ValueError(f"until={limit} is in the past (now={self._now})")
        self._dispatch(limit)
        self._now = limit
        return None
