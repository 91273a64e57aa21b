"""Point-to-point links.

A :class:`Link` joins two devices with a full-duplex pipe.  Each
direction is an independent :class:`_HalfLink` that serializes queued
frames at the link data rate and delivers them after the propagation
delay.  Serialization is sequential (the wire is busy for
``wire_bytes / rate`` µs per frame); propagation overlaps, so back-to-back
frames pipeline exactly as on a real wire.
"""

from __future__ import annotations

import itertools
from typing import Optional, Protocol

from ..sim import URGENT, WAITING, PriorityStore, Simulator
from .packet import Frame

__all__ = ["Link", "LinkEndpoint", "CUT_THROUGH_BYTES"]

#: Bytes a cut-through device latches before forwarding (one IB MTU
#: packet + headers).  Endpoints with a truthy ``cut_through`` attribute
#: (switches, Longbows) receive a frame after this much serialization,
#: while the link stays busy for the frame's full wire time — so
#: contention is exact and large messages pipeline across hops as on
#: real cut-through fabrics.  Destination HCAs always wait for the last
#: byte.
CUT_THROUGH_BYTES = 2078


class LinkEndpoint(Protocol):
    """Anything that can terminate a link (HCA, switch port, Longbow)."""

    def receive_frame(self, frame: Frame, link: "Link") -> None: ...


class _HalfLink:
    """One direction of a link: FIFO queue -> serialization -> delivery."""

    def __init__(self, sim: Simulator, rate: float, delay_us: float,
                 name: str):
        if rate <= 0:
            raise ValueError("link rate must be positive")
        if delay_us < 0:
            raise ValueError("propagation delay must be >= 0")
        self.sim = sim
        self.rate = rate
        #: Capacity (MB/s) reserved by flow-level traffic; packet frames
        #: serialize at ``rate - flow_reserved`` so flow and packet
        #: traffic share the wire honestly.
        self.flow_reserved = 0.0
        self._eff_rate = rate
        self.delay_us = delay_us
        #: Fault injection: probability a frame is silently dropped
        #: after serialization (bit-error model; exercises RC recovery).
        self.loss_rate = 0.0
        #: Optional ``random.Random`` powering loss/jitter decisions.
        self.rng = None
        #: Uniform extra per-frame delay bound (dispersion jitter), µs.
        self.jitter_us = 0.0
        #: Armed :class:`repro.faults.injector.LinkFaultInjector`, or
        #: ``None`` — the pump takes the exact pre-fault path then.
        self.faults = None
        self.frames_dropped = 0
        self._min_next_delivery = 0.0
        self.name = name
        # Weighted arbitration: control frames (priority 0) overtake
        # queued bulk data, approximating per-packet interleaving.
        self.queue: PriorityStore = PriorityStore(sim)
        self._seq = itertools.count()
        self.endpoint: Optional[LinkEndpoint] = None
        self.parent: Optional["Link"] = None
        self.bytes_carried = 0
        self.frames_carried = 0
        m = getattr(sim, "metrics", None)
        if m is not None:
            self._m_bytes = m.counter("link", "bytes", link=name)
            self._m_frames = m.counter("link", "frames", link=name)
            self._m_busy_us = m.counter("link", "busy_us", link=name)
            self._m_qdelay = m.histogram("link", "queue_delay_us", link=name)
        else:
            self._m_bytes = self._m_frames = None
            self._m_busy_us = self._m_qdelay = None
        # The pump is a callback state machine (:meth:`_next_frame` /
        # :meth:`_on_entry` / :meth:`_finish`): one URGENT kick-off pop,
        # one wake-up pop per frame that found the queue empty, and one
        # serialization pop per frame.
        sim.call_at(0.0, self._next_frame, priority=URGENT,
                    cancellable=False)

    def put(self, frame: Frame) -> None:
        self.queue.put((frame.priority, next(self._seq), frame,
                        self.sim.now))

    # -- pump ------------------------------------------------------------
    def _next_frame(self) -> None:
        queue = self.queue
        on_entry = self._on_entry
        while True:
            entry = queue.take(self._on_get)
            if entry is WAITING or on_entry(entry):
                return
            # Instant drop (link flap): take the next frame now —
            # iteratively, so a deep queue drained during a flap cannot
            # blow the stack.

    def _on_get(self, entry) -> None:
        if not self._on_entry(entry):
            self._next_frame()

    def _on_entry(self, entry) -> bool:
        """Start serializing one dequeued frame.  Returns False only on
        the instant-drop path (caller pulls the next frame)."""
        _prio, _seq, frame, enqueued_at = entry
        faults = self.faults
        if faults is not None and faults.is_down(self.sim.now):
            # Link flap, queue-drain semantics: the laser is off, so
            # the frame vanishes instantly without occupying the wire.
            self.frames_dropped += 1
            faults.count_flap_drop()
            return False
        ser = frame.wire_bytes / self._eff_rate
        if self._m_qdelay is not None:
            self._m_qdelay.observe(self.sim.now - enqueued_at)
            self._m_busy_us.inc(ser)
        if self.loss_rate and self.rng is not None \
                and self.rng.random() < self.loss_rate:
            self.sim.call_at(ser, self._drop_after_busy, cancellable=False)
            return True
        if faults is not None and faults.should_drop(self.name):
            self.sim.call_at(ser, self._drop_after_busy, cancellable=False)
            return True
        if self.jitter_us and self.rng is not None:
            # dispersion jitter delays delivery, not the wire
            extra = self.rng.uniform(0.0, self.jitter_us)
        else:
            extra = 0.0
        if faults is not None:
            extra += faults.extra_delay(self.sim.now)
        if getattr(self.endpoint, "cut_through", False):
            # Hand off after one packet's worth of bytes; the wire
            # stays busy for the full serialization.
            handoff = min(ser, CUT_THROUGH_BYTES / self._eff_rate)
            self._schedule_delivery(frame, handoff + self.delay_us + extra)
            self.sim.call_at(ser, self._finish, (frame, None),
                             cancellable=False)
        else:
            self.sim.call_at(ser, self._finish, (frame, extra),
                             cancellable=False)
        return True

    def _drop_after_busy(self) -> None:
        # The wire was busy for the frame's full serialization; the
        # frame itself is lost.
        self.frames_dropped += 1
        self._next_frame()

    def _finish(self, pair) -> None:
        frame, extra = pair
        if extra is not None:
            # Store-and-forward: delivery starts after the last byte,
            # reading delay_us *now* (set_delay applies to frames whose
            # serialization ends after the change).
            self._schedule_delivery(frame, self.delay_us + extra)
        self.bytes_carried += frame.wire_bytes
        self.frames_carried += 1
        if self._m_bytes is not None:
            self._m_bytes.inc(frame.wire_bytes)
            self._m_frames.inc()
        self._next_frame()

    def _schedule_delivery(self, frame: Frame, delay: float) -> None:
        # Jitter must never reorder frames (RC assumes FIFO wires):
        # delivery times are clamped to be non-decreasing.  Delivery is
        # a bare scheduled callback — the hottest per-frame allocation
        # the old Event + closure pair used to pay for.
        at = max(self.sim.now + delay, self._min_next_delivery)
        self._min_next_delivery = at
        self.sim.call_at(at - self.sim.now, self._deliver, frame,
                         cancellable=False)

    def _deliver(self, frame: Frame) -> None:
        frame.hops += 1
        self.endpoint.receive_frame(frame, self.parent)

    @property
    def queued_frames(self) -> int:
        return len(self.queue)


class Link:
    """Full-duplex link between endpoints ``a`` and ``b``."""

    def __init__(self, sim: Simulator, rate: float, delay_us: float = 0.0,
                 name: str = "link"):
        self.sim = sim
        self.name = name
        self.rate = rate
        self.delay_us = delay_us
        self._ab = _HalfLink(sim, rate, delay_us, f"{name}.ab")
        self._ba = _HalfLink(sim, rate, delay_us, f"{name}.ba")
        self._ab.parent = self
        self._ba.parent = self
        self.a: Optional[LinkEndpoint] = None
        self.b: Optional[LinkEndpoint] = None

    def attach(self, a: LinkEndpoint, b: LinkEndpoint) -> "Link":
        """Connect the two endpoints; must be called exactly once."""
        if self.a is not None or self.b is not None:
            raise RuntimeError(f"{self.name}: endpoints already attached")
        self.a, self.b = a, b
        self._ab.endpoint = b
        self._ba.endpoint = a
        return self

    def send(self, sender: LinkEndpoint, frame: Frame) -> None:
        """Queue ``frame`` for transmission away from ``sender``."""
        if sender is self.a:
            self._ab.put(frame)
        elif sender is self.b:
            self._ba.put(frame)
        else:
            raise ValueError(f"{sender!r} is not attached to {self.name}")

    # -- flow-reservation interface --------------------------------------
    def _half_from(self, sender: LinkEndpoint) -> _HalfLink:
        if sender is self.a:
            return self._ab
        if sender is self.b:
            return self._ba
        raise ValueError(f"{sender!r} is not attached to {self.name}")

    def reserve_flow(self, sender: LinkEndpoint, rate: float) -> None:
        """Reserve ``rate`` MB/s away from ``sender`` for flow traffic.

        Packet frames on that direction then serialize at the residual
        rate, so coexisting packet traffic sees the contention the
        collapsed flow would have caused.
        """
        if rate <= 0:
            raise ValueError("flow reservation must be positive")
        half = self._half_from(sender)
        if half.flow_reserved + rate >= half.rate:
            raise ValueError(
                f"{half.name}: reserving {rate} MB/s would exceed the "
                f"{half.rate} MB/s link rate "
                f"({half.flow_reserved} already reserved)")
        half.flow_reserved += rate
        half._eff_rate = half.rate - half.flow_reserved

    def release_flow(self, sender: LinkEndpoint, rate: float) -> None:
        """Release a reservation made with :meth:`reserve_flow`."""
        half = self._half_from(sender)
        if rate <= 0 or rate > half.flow_reserved + 1e-9:
            raise ValueError(
                f"{half.name}: releasing {rate} MB/s but only "
                f"{half.flow_reserved} reserved")
        half.flow_reserved = max(0.0, half.flow_reserved - rate)
        half._eff_rate = half.rate - half.flow_reserved

    def account_flow_bytes(self, sender: LinkEndpoint, nbytes: int,
                           frames: int = 0) -> None:
        """Account wire bytes a flow-mode collapse skipped simulating,
        so link byte-conservation invariants hold in either mode."""
        if nbytes < 0 or frames < 0:
            raise ValueError("flow accounting cannot be negative")
        half = self._half_from(sender)
        half.bytes_carried += nbytes
        half.frames_carried += frames

    def other(self, endpoint: LinkEndpoint) -> LinkEndpoint:
        if endpoint is self.a:
            return self.b
        if endpoint is self.b:
            return self.a
        raise ValueError(f"{endpoint!r} is not attached to {self.name}")

    def set_delay(self, delay_us: float) -> None:
        """Change the propagation delay (the Longbow web-UI knob).

        In-flight behaviour, pinned by
        ``tests/test_kernel_fastpath.py::test_set_delay_spares_frames_already_past_serialization``:

        * A frame whose delivery is already scheduled keeps the delay it
          was scheduled with — the change cannot recall bits on the wire.
        * Cut-through frames read ``delay_us`` when serialization
          *starts*; store-and-forward frames read it when serialization
          *ends*.  A frame mid-serialization at the time of the call
          therefore picks up the new value only in store-and-forward
          mode.
        * The wire stays FIFO regardless: each direction clamps delivery
          times to be non-decreasing, so *lowering* the delay never lets
          a later frame overtake one still in flight — it arrives
          immediately after instead.
        """
        if delay_us < 0:
            raise ValueError("propagation delay must be >= 0")
        self.delay_us = delay_us
        self._ab.delay_us = delay_us
        self._ba.delay_us = delay_us

    def inject_faults(self, rng, loss_rate: float = 0.0,
                      jitter_us: float = 0.0) -> None:
        """Enable uniform loss/jitter on both directions (legacy hook).

        ``rng`` is a ``random.Random`` (use
        :class:`repro.sim.rng.RngRegistry` for reproducibility).  For
        burst loss, flaps, delay spikes and declarative specs use
        :meth:`apply_faults` / :class:`repro.faults.FaultPlan`.
        """
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if jitter_us < 0:
            raise ValueError("jitter_us must be >= 0")
        for half in (self._ab, self._ba):
            half.rng = rng
            half.loss_rate = loss_rate
            half.jitter_us = jitter_us

    def apply_faults(self, plan, rng=None):
        """Arm a :class:`repro.faults.FaultPlan` on this link; returns
        the injector.  Equivalent to ``plan.apply(self, rng)``."""
        return plan.apply(self, rng)

    @property
    def frames_dropped(self) -> int:
        return self._ab.frames_dropped + self._ba.frames_dropped

    @property
    def bytes_carried(self) -> int:
        return self._ab.bytes_carried + self._ba.bytes_carried

    @property
    def frames_carried(self) -> int:
        return self._ab.frames_carried + self._ba.frames_carried
