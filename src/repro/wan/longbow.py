"""Obsidian Longbow XR model.

A Longbow pair extends an IB subnet over a WAN link.  In "basic switch
mode" each unit appears to the subnet manager as a transparent two-ported
switch (paper §2.2): everything arriving on the IB port is forwarded to
the WAN port and vice versa, with

* a fixed store-and-forward latency per unit (the pair adds ~5 µs total),
* an SDR-rate WAN link whose propagation delay is configurable — the
  delay-emulation knob the paper drives all its experiments with, and
* a deep buffer-credit pool: a unit only pushes a frame onto the WAN once
  the peer has buffer space, and credit is returned when the peer
  forwards the frame onward.  The pool is sized to cover the
  bandwidth-delay product of long pipes (Obsidian's headline feature);
  it can be shrunk to study credit-starved links.
"""

from __future__ import annotations

from typing import List, Optional

from ..calibration import HardwareProfile
from ..fabric.link import Link
from ..fabric.packet import Frame
from ..sim import URGENT, WAITING, Simulator, Store

__all__ = ["Longbow", "LongbowPair"]


class Longbow:
    """One Longbow unit: IB port + WAN port, pass-through forwarding."""

    #: Longbows forward cut-through like switches (see repro.fabric.link).
    cut_through = True

    def __init__(self, sim: Simulator, profile: HardwareProfile,
                 name: str = "longbow"):
        self.sim = sim
        self.profile = profile
        self.name = name
        self.lid: int = -1  # transparent, but the SM still counts it
        self.ib_link: Optional[Link] = None
        self.wan_link: Optional[Link] = None
        self.peer: Optional["Longbow"] = None
        #: Remaining buffer bytes at the *peer* we may still occupy.
        self.credits: int = profile.longbow_buffer_bytes
        self._credit_waiters: List = []
        self._to_wan: Store = Store(sim)
        self.frames_forwarded = 0
        #: Fault injection: cap on bytes queued toward the WAN port.
        #: ``None`` (the default) models the deep production buffer;
        #: see :meth:`set_ingress_limit`.
        self.ingress_limit_bytes: Optional[int] = None
        self._ingress_bytes = 0
        self.frames_dropped_overrun = 0
        self._m_overrun = None
        self._pool = profile.longbow_buffer_bytes
        self._pending_frame: Optional[Frame] = None
        # The WAN port is driven by a callback state machine, like the
        # link pump: one URGENT kick-off pop, one wake-up pop per frame
        # that found the queue empty, one Event pop per credit wait.
        sim.call_at(0.0, self._next_wan_frame, priority=URGENT,
                    cancellable=False)

    # -- wiring ----------------------------------------------------------
    def attach_ib(self, link: Link) -> None:
        self.ib_link = link

    def attach_wan(self, link: Link, peer: "Longbow") -> None:
        self.wan_link = link
        self.peer = peer

    def set_ingress_limit(self, limit_bytes: int) -> None:
        """Shrink the IB→WAN ingress buffer (fault injection).

        Frames arriving on the IB port while ``limit_bytes`` are already
        queued are dropped — a buffer overrun on an overdriven extender.
        The metric series registers here, never at construction, so
        clean runs stay byte-identical.
        """
        if limit_bytes <= 0:
            raise ValueError("ingress limit must be > 0 bytes")
        self.ingress_limit_bytes = limit_bytes
        m = getattr(self.sim, "metrics", None)
        if m is not None and self._m_overrun is None:
            self._m_overrun = m.counter("faults", "frames_dropped",
                                        longbow=self.name, cause="overrun")

    # -- forwarding ---------------------------------------------------------
    def receive_frame(self, frame: Frame, link: Link) -> None:
        if link is self.wan_link:
            # Frame crossed the WAN: hand buffer credit back to the peer
            # and forward onto the local IB fabric.
            self.peer._release_credit(frame.wire_bytes)
            self.frames_forwarded += 1
            self._forward_after(frame, self.ib_link)
        elif link is self.ib_link:
            if self.ingress_limit_bytes is not None:
                if (self._ingress_bytes + frame.wire_bytes
                        > self.ingress_limit_bytes):
                    self.frames_dropped_overrun += 1
                    if self._m_overrun is not None:
                        self._m_overrun.inc()
                    return
                self._ingress_bytes += frame.wire_bytes
            self._to_wan.put(frame)
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"{self.name}: frame from unknown link")

    # -- WAN pump ----------------------------------------------------------
    def _next_wan_frame(self) -> None:
        to_wan = self._to_wan
        on_frame = self._on_wan_frame
        while True:
            frame = to_wan.take(self._on_wan_get)
            if frame is WAITING or on_frame(frame):
                return
            # Frame forwarded instantly; pull the next one now.

    def _on_wan_get(self, frame: Frame) -> None:
        if not self._on_wan_frame(frame):
            self._next_wan_frame()

    def _on_wan_frame(self, frame: Frame) -> bool:
        """Returns True when waiting on credit, False once forwarded."""
        if self.ingress_limit_bytes is not None:
            self._ingress_bytes -= frame.wire_bytes
        # A frame larger than the whole pool streams through once the
        # buffer is fully drained (packet-granular hardware never
        # deadlocks on one big message).
        needed = min(frame.wire_bytes, self._pool)
        if self.credits < needed:
            self._pending_frame = frame
            waiter = self.sim.event()
            waiter.callbacks.append(self._on_credit)
            self._credit_waiters.append(waiter)
            return True
        self.credits -= frame.wire_bytes
        self.frames_forwarded += 1
        self._forward_after(frame, self.wan_link)
        return False

    def _on_credit(self, _event) -> None:
        frame = self._pending_frame
        needed = min(frame.wire_bytes, self._pool)
        if self.credits < needed:
            # Still short: queue another waiter.
            waiter = self.sim.event()
            waiter.callbacks.append(self._on_credit)
            self._credit_waiters.append(waiter)
            return
        self._pending_frame = None
        self.credits -= frame.wire_bytes
        self.frames_forwarded += 1
        self._forward_after(frame, self.wan_link)
        self._next_wan_frame()

    def _forward_after(self, frame: Frame, link: Link) -> None:
        self.sim.call_at(self.profile.longbow_forward_us, self._send_on,
                         (link, frame), cancellable=False)

    def _send_on(self, pair) -> None:
        link, frame = pair
        link.send(self, frame)

    def _release_credit(self, nbytes: int) -> None:
        self.credits += nbytes
        waiters, self._credit_waiters = self._credit_waiters, []
        for w in waiters:
            w.succeed()


class LongbowPair:
    """Two Longbows joined by a WAN link with a configurable delay."""

    def __init__(self, sim: Simulator, profile: HardwareProfile,
                 delay_us: float = 0.0, name: str = "wan"):
        self.sim = sim
        self.profile = profile
        self.a = Longbow(sim, profile, name=f"{name}.lb_a")
        self.b = Longbow(sim, profile, name=f"{name}.lb_b")
        self.wan_link = Link(sim, rate=profile.wan_rate, delay_us=delay_us,
                             name=f"{name}.link")
        self.wan_link.attach(self.a, self.b)
        self.a.attach_wan(self.wan_link, self.b)
        self.b.attach_wan(self.wan_link, self.a)

    @property
    def delay_us(self) -> float:
        return self.wan_link.delay_us

    def set_delay(self, delay_us: float) -> None:
        """The web-interface knob: one-way added delay in µs."""
        self.wan_link.set_delay(delay_us)

    @property
    def bytes_carried(self) -> int:
        return self.wan_link.bytes_carried
