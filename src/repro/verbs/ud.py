"""Unreliable Datagram transport.

UD is connectionless and unacknowledged: messages are limited to the IB
MTU, the sender completes as soon as the datagram is on the wire, and
datagrams arriving at a QP with no posted receive are silently dropped.
Because nothing waits for ACKs, UD bandwidth is **independent of WAN
delay** — the paper's Fig. 4 observation falls out of the model by
construction (and the test-suite checks it stays that way).
"""

from __future__ import annotations

from typing import Any, Tuple

from ..calibration import HardwareProfile
from ..fabric.node import HCA
from ..fabric.packet import Frame, wire_size
from ..sim import URGENT, WAITING, Simulator, Store
from .cq import CompletionQueue
from .ops import Opcode, SendWR, WCStatus, WorkCompletion
from .qp import QPState, QueuePair

__all__ = ["UDQueuePair"]

UD_DATA = "ud_data"


class UDQueuePair(QueuePair):
    """Unreliable-datagram queue pair."""

    transport = "ud"

    def __init__(self, sim: Simulator, hca: HCA, send_cq: CompletionQueue,
                 recv_cq: CompletionQueue, profile: HardwareProfile,
                 srq=None):
        super().__init__(sim, hca, send_cq, recv_cq, profile, srq=srq)
        self.state = QPState.RTS  # UD QPs need no connection
        self._send_backlog: Store = Store(sim)
        self.bytes_sent = 0
        self.messages_sent = 0
        m = getattr(sim, "metrics", None)
        if m is not None:
            self._m_msgs = m.counter("ud", "messages")
            self._m_bytes = m.counter("ud", "bytes_sent")
            self._m_wqe = m.counter("ud", "wqe_completions")
            self._m_dropped = m.counter("ud", "recv_dropped")
        else:
            self._m_msgs = self._m_bytes = None
            self._m_wqe = self._m_dropped = None
        # Callback send pump (see repro.fabric.link).
        sim.call_at(0.0, self._next_send, priority=URGENT,
                    cancellable=False)

    # -- send side -------------------------------------------------------
    def post_send(self, wr: SendWR) -> None:
        if wr.remote is None:
            raise ValueError("UD sends need an address handle: wr.remote")
        if wr.size > self.profile.ib_mtu:
            raise ValueError(
                f"UD message of {wr.size}B exceeds the {self.profile.ib_mtu}B "
                f"MTU (UD cannot segment)")
        self._send_backlog.put(wr)

    def send(self, remote: Tuple[int, int], size: int,
             payload: Any = None) -> SendWR:
        wr = SendWR(size, payload, remote=remote)
        self.post_send(wr)
        return wr

    # -- send pump ---------------------------------------------------------
    # One URGENT kick-off pop, one wake-up pop per datagram that found
    # the backlog empty, and one overhead pop per datagram.

    def _next_send(self) -> None:
        wr = self._send_backlog.take(self._start_send)
        if wr is not WAITING:
            self._start_send(wr)

    def _start_send(self, wr: SendWR) -> None:
        self.sim.call_at(self.profile.hca_send_overhead_us,
                         self._finish_send, wr, cancellable=False)

    def _finish_send(self, wr: SendWR) -> None:
        profile = self.profile
        dst_lid, dst_qpn = wr.remote
        frame = Frame(
            src_lid=self.hca.lid, dst_lid=dst_lid, size=wr.size,
            wire_bytes=wire_size(wr.size, profile.ib_mtu,
                                 profile.ud_packet_header),
            kind=UD_DATA, src_qpn=self.qpn, dst_qpn=dst_qpn,
            payload=wr)
        self.bytes_sent += wr.size
        self.messages_sent += 1
        if self._m_msgs is not None:
            self._m_msgs.inc()
            self._m_bytes.inc(wr.size)
            self._m_wqe.inc()
        self.sim.call_at(profile.hca_wire_latency_us,
                         self.hca.transmit, frame, cancellable=False)
        # Local completion: the datagram left the HCA; nobody waits
        # for the far end.
        self.send_cq.push(WorkCompletion(
            wr.wr_id, Opcode.SEND, WCStatus.SUCCESS, wr.size,
            self.qpn, self.sim.now))
        self._next_send()

    # -- receive side -------------------------------------------------------
    def handle_frame(self, frame: Frame) -> None:
        if frame.kind != UD_DATA:  # pragma: no cover - defensive
            raise RuntimeError(f"UD QP {self.qpn} got {frame.kind}")
        if not self._has_recv():
            self.recv_dropped += 1
            if self._m_dropped is not None:
                self._m_dropped.inc()
            return
        rwr = self._take_recv()
        self.sim.call_at(self.profile.hca_recv_overhead_us,
                         self._complete_recv, (rwr, frame),
                         cancellable=False)

    def _complete_recv(self, pair) -> None:
        rwr, frame = pair
        wr: SendWR = frame.payload
        self.recv_cq.push(WorkCompletion(
            rwr.wr_id, Opcode.RECV, WCStatus.SUCCESS, wr.size,
            self.qpn, self.sim.now, payload=wr.payload,
            src_qp=frame.src_qpn, src_lid=frame.src_lid))
