"""MPI process engine: point-to-point matching, eager and rendezvous.

Mirrors the MVAPICH2 CH3/verbs channel at the granularity the paper's
experiments depend on:

* **Eager path** (size <= :attr:`MPITuning.eager_threshold`): the payload
  is copied through pre-registered bounce buffers and sent on the RC
  connection; the send request completes when the IB-level ACK returns
  (buffer reuse), so eager throughput inherits the RC window dynamics.
* **Rendezvous path**: an RTS control message, a CTS from the receiver
  once a matching receive is posted, a zero-copy RDMA write of the data
  with immediate data as the FIN.  The extra WAN round-trip this
  handshake costs on medium messages is precisely what the paper's
  threshold-tuning experiment (Fig. 9) removes.
* **Matching** is (source, tag) with wildcards, with an unexpected-message
  queue, as the MPI standard requires.

Every rank pays a per-message software overhead and, on the eager path,
a per-byte copy cost, serialized on the rank's single CPU.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..calibration import HardwareProfile
from ..fabric.node import Node
from ..sim import Resource, Simulator, Store
from ..verbs.cq import CompletionQueue
from ..verbs.device import VerbsContext
from ..verbs.ops import RecvWR
from ..verbs.rc import RCQueuePair, connect_rc_pair
from .tuning import MPITuning

__all__ = ["MPIProcess", "MPIRequest", "MPICommError", "ANY_SOURCE",
           "ANY_TAG"]


class MPICommError(RuntimeError):
    """A communication operation failed at the transport layer.

    Raised (via the request's event) when the underlying RC QP reports a
    fatal completion — e.g. retry-budget exhaustion on a faulty WAN.
    The failure surfaces at the ``wait()`` call instead of deadlocking
    the job, so harnesses can catch it and tear down cleanly."""

#: Wildcards for :meth:`MPIProcess.irecv`.
ANY_SOURCE = None
ANY_TAG = None

#: MPI envelope bytes added to every eager message on the wire.
_EAGER_HDR = 32
_HUGE = 1 << 40

_req_ids = itertools.count(1)


class MPIRequest:
    """A non-blocking operation handle (MPI_Request analogue)."""

    __slots__ = ("req_id", "kind", "event", "src", "dst", "tag", "size",
                 "data")

    def __init__(self, sim: Simulator, kind: str):
        self.req_id = next(_req_ids)
        self.kind = kind
        self.event = sim.event()
        self.src: Optional[int] = None
        self.dst: Optional[int] = None
        self.tag: Optional[int] = None
        self.size: int = 0
        self.data: Any = None

    @property
    def done(self) -> bool:
        return self.event.triggered

    def _complete(self) -> None:
        if not self.event.triggered:
            self.event.succeed(self)

    def __repr__(self) -> str:
        state = "done" if self.done else "pending"
        return f"<MPIRequest {self.kind} #{self.req_id} {state}>"


class _PostedRecv:
    __slots__ = ("src", "tag", "req")

    def __init__(self, src, tag, req):
        self.src = src
        self.tag = tag
        self.req = req

    def matches(self, src: int, tag: int) -> bool:
        return ((self.src is ANY_SOURCE or self.src == src)
                and (self.tag is ANY_TAG or self.tag == tag))


class MPIProcess:
    """One MPI rank bound to a node."""

    def __init__(self, job, rank: int, node: Node, tuning: MPITuning):
        self.job = job
        self.rank = rank
        self.node = node
        self.tuning = tuning
        self.sim: Simulator = node.sim
        self.profile: HardwareProfile = node.profile
        self.ctx = VerbsContext(node)
        self.send_cq: CompletionQueue = self.ctx.create_cq(f"mpi{rank}.scq")
        self.recv_cq: CompletionQueue = self.ctx.create_cq(f"mpi{rank}.rcq")
        # The receive ring is ``recv_ring`` identical bounce buffers per
        # connection, so one descriptor serves every slot of every ring
        # and each replenish re-posts it.  Its wr_id cannot collide with
        # a send's: sends complete on ``send_cq``, receives on ``recv_cq``.
        self._ring_wr = RecvWR(_HUGE)
        self.cpu = Resource(self.sim, capacity=1)
        self._qps: Dict[int, RCQueuePair] = {}
        self._qpn_to_rank: Dict[int, int] = {}
        # matching engine
        self._posted: List[_PostedRecv] = []
        self._unexpected: Deque[Tuple] = deque()
        self._pending_rts: List[Tuple] = []
        self._send_reqs: Dict[int, MPIRequest] = {}   # wr_id -> request
        self._rndv_sends: Dict[int, Tuple] = {}       # req_id -> (dst, size, payload, req)
        self._rndv_recvs: Dict[int, MPIRequest] = {}  # req_id -> request
        self._tx: Store = Store(self.sim)
        self._coll_seq = itertools.count()
        # counters
        self.messages_sent = 0
        self.bytes_sent = 0
        m = getattr(self.sim, "metrics", None)
        if m is not None:
            self._m_eager = m.counter("mpi", "eager_msgs")
            self._m_rndv = m.counter("mpi", "rndv_msgs")
            self._m_bytes = m.counter("mpi", "bytes_sent")
        else:
            self._m_eager = self._m_rndv = self._m_bytes = None
        self.sim.process(self._tx_pump(), name=f"mpi{rank}.tx")
        self.sim.process(self._rx_dispatch(), name=f"mpi{rank}.rx")
        self.sim.process(self._tx_complete(), name=f"mpi{rank}.txc")

    # -- wiring ----------------------------------------------------------
    def qp_for(self, peer_rank: int) -> RCQueuePair:
        qp = self._qps.get(peer_rank)
        if qp is None:
            peer: MPIProcess = self.job.procs[peer_rank]
            qp = self.ctx.create_rc_qp(self.send_cq, self.recv_cq)
            peer_qp = peer.ctx.create_rc_qp(peer.send_cq, peer.recv_cq)
            connect_rc_pair(qp, peer_qp)
            self._register(peer_rank, qp)
            peer._register(self.rank, peer_qp)
        return qp

    def _register(self, peer_rank: int, qp: RCQueuePair) -> None:
        self._qps[peer_rank] = qp
        self._qpn_to_rank[qp.qpn] = peer_rank
        qp.post_recv(self._ring_wr, self.tuning.recv_ring)

    # -- non-blocking API ---------------------------------------------------
    def isend(self, dst: int, size: int, tag: int = 0,
              payload: Any = None) -> MPIRequest:
        """Start a send of ``size`` bytes to rank ``dst``."""
        if dst == self.rank:
            raise ValueError("self-sends are not supported by this engine")
        if size < 0:
            raise ValueError("size must be >= 0")
        req = MPIRequest(self.sim, "send")
        req.dst, req.tag, req.size = dst, tag, size
        if size < self.tuning.eager_threshold:
            if self._m_eager is not None:
                self._m_eager.inc()
            self._tx.put(("eager", dst, size, tag, payload, req))
        else:
            if self._m_rndv is not None:
                self._m_rndv.inc()
            self._rndv_sends[req.req_id] = (dst, size, payload, req)
            self._tx.put(("rts", dst, size, tag, None, req))
        if self._m_bytes is not None:
            self._m_bytes.inc(size)
        return req

    def irecv(self, src: Optional[int] = ANY_SOURCE,
              tag: Optional[int] = ANY_TAG) -> MPIRequest:
        """Post a receive matching ``(src, tag)`` (wildcards allowed)."""
        req = MPIRequest(self.sim, "recv")
        # 1) unexpected eager messages
        for i, msg in enumerate(self._unexpected):
            m_src, m_tag, m_size, m_data = msg
            if ((src is ANY_SOURCE or src == m_src)
                    and (tag is ANY_TAG or tag == m_tag)):
                del self._unexpected[i]
                self._finish_recv(req, m_src, m_tag, m_size, m_data)
                return req
        # 2) unmatched rendezvous RTS
        for i, rts in enumerate(self._pending_rts):
            m_src, m_tag, m_size, sreq_id = rts
            if ((src is ANY_SOURCE or src == m_src)
                    and (tag is ANY_TAG or tag == m_tag)):
                del self._pending_rts[i]
                self._accept_rndv(req, m_src, m_tag, m_size, sreq_id)
                return req
        # 3) wait for a future arrival
        self._posted.append(_PostedRecv(src, tag, req))
        return req

    # -- blocking wrappers (use with ``yield from``) -------------------------
    def send(self, dst: int, size: int, tag: int = 0, payload: Any = None):
        req = self.isend(dst, size, tag, payload)
        yield req.event
        return req

    def recv(self, src: Optional[int] = ANY_SOURCE,
             tag: Optional[int] = ANY_TAG):
        req = self.irecv(src, tag)
        yield req.event
        return req

    def sendrecv(self, dst: int, size: int, src: Optional[int] = None,
                 recv_size: Optional[int] = None, tag: int = 0,
                 payload: Any = None):
        """Concurrent send+recv (the deadlock-free exchange primitive)."""
        sreq = self.isend(dst, size, tag, payload)
        rreq = self.irecv(src if src is not None else dst, tag)
        yield self.sim.all_of([sreq.event, rreq.event])
        return rreq

    def waitall(self, requests):
        yield self.sim.all_of([r.event for r in requests])
        return requests

    def compute(self, us: float):
        """Model a local computation phase of ``us`` microseconds."""
        yield self.sim.timeout(us)

    # -- engine: transmit ----------------------------------------------------
    def _tx_pump(self):
        profile = self.profile
        while True:
            kind, dst, size, tag, payload, req = yield self._tx.get()
            qp = self.qp_for(dst)
            with self.cpu.request() as cpureq:
                yield cpureq
                cost = profile.mpi_overhead_us
                if kind == "eager":
                    cost += size * profile.mpi_eager_copy_us_per_byte
                yield self.sim.timeout(cost)
            if kind == "eager":
                wr = qp.send(size + _EAGER_HDR,
                             payload=("eager", self.rank, tag, size, payload))
                self._send_reqs[wr.wr_id] = req
            elif kind == "rts":
                qp.send(profile.mpi_ctrl_bytes,
                        payload=("rts", self.rank, tag, size, req.req_id))
            elif kind == "cts":
                qp.send(profile.mpi_ctrl_bytes,
                        payload=("cts", self.rank, tag, size, req))
            elif kind == "rndv_data":
                sreq_id, rreq_id = tag
                wr = qp.rdma_write(size, payload=payload,
                                   imm=("fin", rreq_id))
                self._send_reqs[wr.wr_id] = req
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown tx kind {kind}")
            self.messages_sent += 1
            self.bytes_sent += size

    def _tx_complete(self):
        while True:
            wc = yield self.send_cq.wait()
            req = self._send_reqs.pop(wc.wr_id, None)
            if req is not None:
                if not wc.ok:
                    req.event.fail(MPICommError(
                        f"rank {self.rank}: send failed: {wc.status.value}"))
                else:
                    req._complete()

    # -- engine: receive ----------------------------------------------------
    def _rx_dispatch(self):
        profile = self.profile
        while True:
            wc = yield self.recv_cq.wait()
            qp = self.node.hca.qp(wc.qp_num)
            qp.post_recv(self._ring_wr)  # replenish the ring
            if wc.imm is not None:
                _fin, rreq_id = wc.imm
                rreq = self._rndv_recvs.pop(rreq_id)
                self._finish_rndv_recv(rreq, wc.payload)
                continue
            msg = wc.payload
            with self.cpu.request() as cpureq:
                yield cpureq
                cost = profile.mpi_overhead_us
                if msg[0] == "eager":
                    cost += msg[3] * profile.mpi_eager_copy_us_per_byte
                yield self.sim.timeout(cost)
            self._handle(msg)

    def _handle(self, msg: Tuple) -> None:
        kind = msg[0]
        if kind == "eager":
            _, src, tag, size, data = msg
            posted = self._match_posted(src, tag)
            if posted is None:
                self._unexpected.append((src, tag, size, data))
            else:
                self._finish_recv(posted.req, src, tag, size, data)
        elif kind == "rts":
            _, src, tag, size, sreq_id = msg
            posted = self._match_posted(src, tag)
            if posted is None:
                self._pending_rts.append((src, tag, size, sreq_id))
            else:
                self._accept_rndv(posted.req, src, tag, size, sreq_id)
        elif kind == "cts":
            _, src, _tag, _size, handshake = msg
            sreq_id, rreq_id = handshake
            dst, size, payload, req = self._rndv_sends.pop(sreq_id)
            self._tx.put(("rndv_data", dst, size, (sreq_id, rreq_id),
                          payload, req))
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"rank {self.rank}: bad message {msg!r}")

    def _match_posted(self, src: int, tag: int) -> Optional[_PostedRecv]:
        for i, posted in enumerate(self._posted):
            if posted.matches(src, tag):
                del self._posted[i]
                return posted
        return None

    def _accept_rndv(self, req: MPIRequest, src: int, tag: int, size: int,
                     sreq_id: int) -> None:
        req.src, req.tag, req.size = src, tag, size
        self._rndv_recvs[req.req_id] = req
        self._tx.put(("cts", src, size, tag, None,
                      _CtsCarrier(sreq_id, req.req_id)))

    def _finish_recv(self, req: MPIRequest, src: int, tag: int, size: int,
                     data: Any) -> None:
        req.src, req.tag, req.size, req.data = src, tag, size, data
        req._complete()

    def _finish_rndv_recv(self, req: MPIRequest, data: Any) -> None:
        req.data = data
        req._complete()

    def __repr__(self) -> str:
        return f"<MPIProcess rank={self.rank} on {self.node.name}>"


class _CtsCarrier(tuple):
    """(sreq_id, rreq_id) pair riding a CTS control message."""

    def __new__(cls, sreq_id, rreq_id):
        return super().__new__(cls, (sreq_id, rreq_id))
