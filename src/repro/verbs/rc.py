"""Reliable Connected transport.

The RC QP is where the paper's central WAN effect lives: RC guarantees
reliable in-order delivery with ACKs, which **limits the number of
messages in flight to the send window**.  Over a long pipe the window
cannot cover the bandwidth-delay product for small and medium messages,
so their bandwidth collapses while large messages still fill the pipe —
exactly Fig. 5 of the paper.

Model notes
-----------
* One :class:`~repro.fabric.packet.Frame` carries one transport-level
  message; per-IB-packet (2 KB MTU) header bytes are accounted in the
  frame's wire size, so link occupancy matches a per-packet simulation.
* ACKs are cumulative per message.  Go-back-N retransmission with a
  retry budget mirrors the IB RC semantics; on exhaustion the QP moves
  to the error state and flushes, as a real HCA would.
* Receive-not-ready is modelled by buffering in-order arrivals until a
  receive is posted (well-behaved apps pre-post; tests exercise both).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Any, Deque, Optional

from ..calibration import HardwareProfile
from ..fabric.node import HCA
from ..fabric.packet import Frame, wire_size
from ..sim import URGENT, WAITING, ReusableTimeout, Simulator, Store
from .cq import CompletionQueue
from .ops import (
    AtomicWR,
    Opcode,
    RDMAReadWR,
    RDMAWriteWR,
    SendWR,
    WCStatus,
    WorkCompletion,
    WorkRequest,
)
from .qp import QPState, QueuePair

__all__ = ["RCQueuePair", "connect_rc_pair", "reconnect_rc_pair"]

DATA = "rc_data"
WRITE = "rc_write"
READ_REQ = "rc_read_req"
READ_RESP = "rc_read_resp"
ATOMIC_REQ = "rc_atomic_req"
ATOMIC_RESP = "rc_atomic_resp"
ACK = "rc_ack"

_KIND_BY_OPCODE = {Opcode.SEND: DATA,
                   Opcode.RDMA_WRITE: WRITE,
                   Opcode.RDMA_WRITE_WITH_IMM: WRITE,
                   Opcode.RDMA_READ: READ_REQ,
                   Opcode.ATOMIC_FETCH_ADD: ATOMIC_REQ,
                   Opcode.ATOMIC_CMP_SWAP: ATOMIC_REQ}


class RCQueuePair(QueuePair):
    """Reliable-connected queue pair."""

    transport = "rc"

    def __init__(self, sim: Simulator, hca: HCA, send_cq: CompletionQueue,
                 recv_cq: CompletionQueue, profile: HardwareProfile,
                 send_window: Optional[int] = None, srq=None):
        super().__init__(sim, hca, send_cq, recv_cq, profile, srq=srq)
        self.send_window = send_window or profile.rc_send_window
        self.remote_lid: Optional[int] = None
        self.remote_qpn: Optional[int] = None
        # sender state
        self._send_backlog: Store = Store(sim)
        self._next_psn = 0
        self._max_acked = -1
        self._unacked: "OrderedDict[int, _TxEntry]" = OrderedDict()
        self._window_free = sim.event()
        self._window_free.succeed()  # window starts open
        self.retransmissions = 0
        # receiver state
        self._expected_psn = 0
        self._rnr_backlog: Deque[Frame] = deque()
        # stats
        self.bytes_sent = 0
        self.messages_sent = 0
        self._inflight_bytes = 0
        # error/recovery state: the event fires when the QP enters the
        # error state (creating an unscheduled event is free, so the
        # clean path pays nothing for it).
        self.error_event = sim.event()
        self.reconnects = 0
        self._error_at: Optional[float] = None
        self._timer_alive = True
        m = getattr(sim, "metrics", None)
        if m is not None:
            self._m_stall_events = m.counter("rc", "window_stall_events")
            self._m_stall_us = m.counter("rc", "window_stall_us")
            self._m_retx = m.counter("rc", "retransmits")
            self._m_wqe = m.counter("rc", "wqe_completions")
            self._m_bytes = m.counter("rc", "bytes_sent")
            self._m_inflight_msgs = m.gauge("rc", "inflight_msgs")
            self._m_inflight_bytes = m.gauge("rc", "inflight_bytes")
        else:
            self._m_stall_events = self._m_stall_us = self._m_retx = None
            self._m_wqe = self._m_bytes = None
            self._m_inflight_msgs = self._m_inflight_bytes = None
        # The retransmit timer has at most one sleep outstanding, so
        # re-arming one record is heap-identical to a fresh Timeout.
        self._rtx_wait = ReusableTimeout(sim)
        self._pending_wr: Optional[WorkRequest] = None
        self._stalled_at = 0.0
        # Callback send pump (see repro.fabric.link); the retransmit
        # timer stays a process — it fires rarely.
        sim.call_at(0.0, self._next_wr, priority=URGENT,
                    cancellable=False)
        self._timer_kick = Store(sim)
        sim.process(self._retransmit_timer(), name=f"rcqp{self.qpn}.rtx")

    # -- connection management --------------------------------------------
    def connect(self, remote_lid: int, remote_qpn: int) -> None:
        if self.state is not QPState.INIT:
            raise RuntimeError(f"QP {self.qpn}: connect() in {self.state}")
        self.remote_lid = remote_lid
        self.remote_qpn = remote_qpn
        self.state = QPState.RTS
        if not self._timer_alive:
            # The retransmit timer exited when the QP entered the error
            # state; a reconnect needs a fresh one.
            self._timer_alive = True
            self.sim.process(self._retransmit_timer(),
                             name=f"rcqp{self.qpn}.rtx")
        if self._error_at is not None:
            self.reconnects += 1
            m = getattr(self.sim, "metrics", None)
            if m is not None:
                m.histogram("rc", "recovery_us").observe(
                    self.sim.now - self._error_at)
            self._error_at = None

    def reset(self) -> None:
        """``ibv_modify_qp(..., IBV_QPS_RESET)`` analogue.

        Flushes anything still queued, clears all transport state (PSNs,
        unacked messages, RNR backlog) and returns the QP to ``INIT`` so
        :meth:`connect` can re-establish it after an error.
        """
        for entry in self._unacked.values():
            self.send_cq.push(WorkCompletion(
                entry.wr.wr_id, entry.wr.opcode, WCStatus.WR_FLUSH_ERR,
                entry.wr.size, self.qpn, self.sim.now))
        self._unacked.clear()
        self._inflight_bytes = 0
        self._next_psn = 0
        self._max_acked = -1
        self._expected_psn = 0
        self._rnr_backlog.clear()
        self.remote_lid = None
        self.remote_qpn = None
        self.state = QPState.INIT
        if self.error_event.triggered:
            self.error_event = self.sim.event()  # re-arm for the next error
        if self._m_inflight_msgs is not None:
            self._m_inflight_msgs.set(0)
            self._m_inflight_bytes.set(0)
        if not self._window_free.triggered:
            self._window_free.succeed()

    # -- posting ------------------------------------------------------------
    def post_send(self, wr: WorkRequest) -> None:
        if self.state is not QPState.RTS:
            raise RuntimeError(f"QP {self.qpn}: post_send in {self.state}")
        if wr.opcode is Opcode.RECV:
            raise ValueError("use post_recv for receive WRs")
        self._send_backlog.put(wr)

    # convenience wrappers mirroring the verbs API surface
    def send(self, size: int, payload: Any = None,
             priority: int = 1) -> SendWR:
        # NOTE: priority 0 reorders frames on links.  RC PSN ordering
        # tolerates that only for payload-free cumulative ACKs; sends
        # carrying protocol payloads must stay at priority 1.
        wr = SendWR(size, payload, priority=priority)
        self.post_send(wr)
        return wr

    def rdma_write(self, size: int, payload: Any = None,
                   imm: Any = None) -> RDMAWriteWR:
        wr = RDMAWriteWR(size, payload, imm=imm)
        self.post_send(wr)
        return wr

    def rdma_read(self, size: int) -> RDMAReadWR:
        wr = RDMAReadWR(size)
        self.post_send(wr)
        return wr

    def atomic_fetch_add(self, addr: int, add: int) -> AtomicWR:
        wr = AtomicWR(Opcode.ATOMIC_FETCH_ADD, addr, add=add)
        self.post_send(wr)
        return wr

    def atomic_cmp_swap(self, addr: int, compare: int,
                        swap: int) -> AtomicWR:
        wr = AtomicWR(Opcode.ATOMIC_CMP_SWAP, addr, compare=compare,
                      swap=swap)
        self.post_send(wr)
        return wr

    # -- sender: the send pump -------------------------------------------
    # One URGENT kick-off pop, one wake-up pop per WR that found the
    # backlog empty, one Event pop per window stall and one overhead pop
    # per transmitted WR.

    def _next_wr(self) -> None:
        backlog = self._send_backlog
        on_wr = self._on_wr
        while True:
            wr = backlog.take(self._on_wr_ready)
            if wr is WAITING or on_wr(wr):
                return
            # WR flushed instantly (QP not RTS): drain the next one now,
            # iteratively.

    def _on_wr_ready(self, wr: "WorkRequest") -> None:
        if not self._on_wr(wr):
            self._next_wr()

    def _on_wr(self, wr: "WorkRequest") -> bool:
        """Returns False only on the instant-flush path."""
        if self.state is not QPState.RTS:
            self._flush(wr)
            return False
        if len(self._unacked) >= self.send_window:
            if self._m_stall_events is not None:
                self._m_stall_events.inc()
                self._stalled_at = self.sim.now
            self._wait_window(wr)
            return True
        self.sim.call_at(self.profile.hca_send_overhead_us,
                         self._post_overhead, wr, cancellable=False)
        return True

    def _wait_window(self, wr: "WorkRequest") -> None:
        if self._window_free.processed or self._window_free.triggered:
            self._window_free = self.sim.event()
        self._pending_wr = wr
        self._window_free.callbacks.append(self._on_window_free)

    def _on_window_free(self, _event) -> None:
        wr = self._pending_wr
        if (self.state is QPState.RTS
                and len(self._unacked) >= self.send_window):
            self._wait_window(wr)  # still full: the same stall goes on
            return
        self._pending_wr = None
        if self._m_stall_us is not None:
            self._m_stall_us.inc(self.sim.now - self._stalled_at)
        if self.state is not QPState.RTS:
            self._flush(wr)
            self._next_wr()
            return
        self.sim.call_at(self.profile.hca_send_overhead_us,
                         self._post_overhead, wr, cancellable=False)

    def _post_overhead(self, wr: "WorkRequest") -> None:
        psn = self._next_psn
        self._next_psn += 1
        entry = _TxEntry(wr, psn, self.sim.now)
        self._unacked[psn] = entry
        self._inflight_bytes += wr.size
        if self._m_inflight_msgs is not None:
            self._m_inflight_msgs.set(len(self._unacked))
            self._m_inflight_bytes.set(self._inflight_bytes)
        self._transmit(entry)
        if len(self._unacked) == 1:
            self._timer_kick.put(None)  # wake the retransmit timer
        self._next_wr()

    def _transmit(self, entry: "_TxEntry") -> None:
        wr = entry.wr
        kind = _KIND_BY_OPCODE[wr.opcode]
        size = (0 if wr.opcode in (Opcode.RDMA_READ,
                                   Opcode.ATOMIC_FETCH_ADD,
                                   Opcode.ATOMIC_CMP_SWAP) else wr.size)
        frame = Frame(
            src_lid=self.hca.lid, dst_lid=self.remote_lid,
            size=size,
            wire_bytes=wire_size(size, self.profile.ib_mtu,
                                 self.profile.rc_packet_header),
            kind=kind, src_qpn=self.qpn, dst_qpn=self.remote_qpn,
            payload=(entry.psn, wr), priority=wr.priority)
        self.bytes_sent += size
        self.messages_sent += 1
        if self._m_bytes is not None:
            self._m_bytes.inc(size)
        self.sim.call_at(self.profile.hca_wire_latency_us,
                         self.hca.transmit, frame, cancellable=False)

    # -- receiver + ACK handling ----------------------------------------------
    def handle_frame(self, frame: Frame) -> None:
        if self.state is QPState.ERROR:
            return
        if frame.kind == ACK:
            self._handle_ack(frame.payload)
        elif frame.kind in (READ_RESP, ATOMIC_RESP):
            self._handle_read_resp(frame)
        else:
            self._handle_request(frame)

    def _handle_request(self, frame: Frame) -> None:
        psn, wr = frame.payload
        if psn < self._expected_psn:
            # Duplicate from a retransmission: re-ACK, do not re-deliver.
            self._send_ack()
            return
        if psn > self._expected_psn:  # pragma: no cover - FIFO links
            return  # out-of-order: drop; sender will retransmit
        self._expected_psn += 1
        if frame.kind == READ_REQ:
            self._serve_read(frame, psn, wr)
            return
        if frame.kind == ATOMIC_REQ:
            self._serve_atomic(frame, psn, wr)
            return
        if frame.kind == DATA or (frame.kind == WRITE and wr.imm is not None):
            if not self._has_recv():
                self._rnr_backlog.append(frame)
                return
        self._deliver(frame)

    def _on_recv_posted(self) -> None:
        while self._rnr_backlog and self._has_recv():
            self._deliver(self._rnr_backlog.popleft())

    def _deliver(self, frame: Frame) -> None:
        psn, wr = frame.payload
        profile = self.profile
        if frame.kind == DATA:
            rwr = self._take_recv()
            if rwr.size < wr.size:
                raise RuntimeError(
                    f"QP {self.qpn}: recv buffer {rwr.size}B < message "
                    f"{wr.size}B (local length error)")
            def complete(rwr=rwr, wr=wr):
                self.recv_cq.push(WorkCompletion(
                    rwr.wr_id, Opcode.RECV, WCStatus.SUCCESS, wr.size,
                    self.qpn, self.sim.now, payload=wr.payload,
                    src_qp=frame.src_qpn, src_lid=frame.src_lid))
                self._send_ack()
            self._after(profile.hca_recv_overhead_us, complete)
        else:  # RDMA write: silent at the responder unless immediate
            latency = max(0.0, profile.hca_recv_overhead_us
                          - profile.rdma_write_discount_us)
            if wr.imm is not None:
                rwr = self._take_recv()
                def complete_imm(rwr=rwr, wr=wr):
                    self.recv_cq.push(WorkCompletion(
                        rwr.wr_id, Opcode.RECV, WCStatus.SUCCESS, wr.size,
                        self.qpn, self.sim.now, payload=wr.payload,
                        imm=wr.imm, src_qp=frame.src_qpn,
                        src_lid=frame.src_lid))
                    self._send_ack()
                self._after(latency, complete_imm)
            else:
                self._after(latency, self._send_ack)

    def _serve_read(self, frame: Frame, psn: int, wr: RDMAReadWR) -> None:
        resp = Frame(
            src_lid=self.hca.lid, dst_lid=frame.src_lid, size=wr.size,
            wire_bytes=wire_size(wr.size, self.profile.ib_mtu,
                                 self.profile.rc_packet_header),
            kind=READ_RESP, src_qpn=self.qpn, dst_qpn=frame.src_qpn,
            payload=(psn, wr))
        self.sim.call_at(self.profile.hca_recv_overhead_us,
                         self.hca.transmit, resp, cancellable=False)

    def _serve_atomic(self, frame: Frame, psn: int, wr: AtomicWR) -> None:
        mem = self.hca.atomic_mem
        old = mem.get(wr.addr, 0)
        if wr.opcode is Opcode.ATOMIC_FETCH_ADD:
            mem[wr.addr] = old + wr.add
        elif old == wr.compare:
            mem[wr.addr] = wr.swap
        resp = Frame(
            src_lid=self.hca.lid, dst_lid=frame.src_lid, size=8,
            wire_bytes=wire_size(8, self.profile.ib_mtu,
                                 self.profile.rc_packet_header),
            kind=ATOMIC_RESP, src_qpn=self.qpn, dst_qpn=frame.src_qpn,
            payload=(psn, wr, old))
        self.sim.call_at(self.profile.hca_recv_overhead_us,
                         self.hca.transmit, resp, cancellable=False)

    def _handle_read_resp(self, frame: Frame) -> None:
        psn = frame.payload[0]
        old = frame.payload[2] if len(frame.payload) > 2 else None
        self._complete_through(psn, atomic_result=old)
        # ACKs that arrived while the read was pending may cover later
        # sends; release them now that ordering allows it.
        self._complete_through(self._max_acked, skip_reads=True)

    def _send_ack(self) -> None:
        ack = Frame(
            src_lid=self.hca.lid, dst_lid=self.remote_lid,
            size=0, wire_bytes=self.profile.rc_ack_bytes, kind=ACK,
            src_qpn=self.qpn, dst_qpn=self.remote_qpn,
            payload=self._expected_psn - 1, priority=0)
        self.hca.transmit(ack)

    def _handle_ack(self, acked_psn: int) -> None:
        if acked_psn > self._max_acked:
            self._max_acked = acked_psn
        self._complete_through(acked_psn, skip_reads=True)

    _RESPONSE_OPS = (Opcode.RDMA_READ, Opcode.ATOMIC_FETCH_ADD,
                     Opcode.ATOMIC_CMP_SWAP)

    def _complete_through(self, psn: int, skip_reads: bool = False,
                          atomic_result=None) -> None:
        completed = 0
        while self._unacked:
            first_psn, entry = next(iter(self._unacked.items()))
            if first_psn > psn:
                break
            if skip_reads and entry.wr.opcode in self._RESPONSE_OPS:
                # Responses (not bare ACKs) complete reads/atomics.
                break
            del self._unacked[first_psn]
            self._inflight_bytes -= entry.wr.size
            payload = (atomic_result if first_psn == psn
                       and entry.wr.opcode in self._RESPONSE_OPS else None)
            self.send_cq.push(WorkCompletion(
                entry.wr.wr_id, entry.wr.opcode, WCStatus.SUCCESS,
                entry.wr.size, self.qpn, self.sim.now, payload=payload))
            completed += 1
        if completed:
            if self._m_wqe is not None:
                self._m_wqe.inc(completed)
                self._m_inflight_msgs.set(len(self._unacked))
                self._m_inflight_bytes.set(self._inflight_bytes)
            if not self._window_free.triggered:
                self._window_free.succeed()

    # -- reliability ------------------------------------------------------
    def _retransmit_timer(self):
        timeout_us = self.profile.rc_retransmit_timeout_us
        while True:
            if not self._unacked:
                yield self._timer_kick.get()
                continue
            entry = next(iter(self._unacked.values()))
            deadline = entry.sent_at + timeout_us
            if deadline > self.sim.now:
                yield self._rtx_wait.arm(deadline - self.sim.now)
            if self.state is QPState.ERROR:
                self._timer_alive = False
                return
            if not self._unacked:
                continue
            entry = next(iter(self._unacked.values()))
            if entry.sent_at + timeout_us > self.sim.now:
                continue  # progress was made; re-evaluate
            entry.retries += 1
            if entry.retries > self.profile.rc_retry_count:
                self._enter_error()
                self._timer_alive = False
                return
            # Go-back-N: resend every unacked message in order.
            self.retransmissions += len(self._unacked)
            if self._m_retx is not None:
                self._m_retx.inc(len(self._unacked))
            for e in self._unacked.values():
                e.sent_at = self.sim.now
                self._transmit(e)

    def _enter_error(self) -> None:
        self.state = QPState.ERROR
        self._error_at = self.sim.now
        m = getattr(self.sim, "metrics", None)
        if m is not None:
            # Registered lazily: only errored runs grow this series.
            m.counter("rc", "qp_errors").inc()
        if not self.error_event.triggered:
            self.error_event.succeed(self.sim.now)
        for entry in self._unacked.values():
            self.send_cq.push(WorkCompletion(
                entry.wr.wr_id, entry.wr.opcode, WCStatus.RETRY_EXC_ERR,
                entry.wr.size, self.qpn, self.sim.now))
        self._unacked.clear()
        self._inflight_bytes = 0
        if self._m_inflight_msgs is not None:
            self._m_inflight_msgs.set(0)
            self._m_inflight_bytes.set(0)
        if not self._window_free.triggered:
            self._window_free.succeed()

    def _flush(self, wr: WorkRequest) -> None:
        self.send_cq.push(WorkCompletion(
            wr.wr_id, wr.opcode, WCStatus.WR_FLUSH_ERR, wr.size,
            self.qpn, self.sim.now))

    @property
    def inflight(self) -> int:
        return len(self._unacked)


class _TxEntry:
    __slots__ = ("wr", "psn", "sent_at", "retries")

    def __init__(self, wr: WorkRequest, psn: int, sent_at: float):
        self.wr = wr
        self.psn = psn
        self.sent_at = sent_at
        self.retries = 0


def connect_rc_pair(qp_a: RCQueuePair, qp_b: RCQueuePair) -> None:
    """Out-of-band connection setup (what real apps do over sockets)."""
    qp_a.connect(qp_b.hca.lid, qp_b.qpn)
    qp_b.connect(qp_a.hca.lid, qp_a.qpn)


def reconnect_rc_pair(qp_a: RCQueuePair, qp_b: RCQueuePair) -> None:
    """Tear down and re-establish a connected pair after a QP error.

    Both QPs are reset (flushing anything still queued) and reconnected
    in one step, so neither side ever observes a half-connected peer.
    Posted receive buffers survive, as on real hardware.
    """
    qp_a.reset()
    qp_b.reset()
    connect_rc_pair(qp_a, qp_b)
