"""Sockets Direct Protocol (SDP) over the simulated RC transport.

SDP gives unmodified socket applications RDMA-class performance by
terminating the stream in the HCA instead of the kernel TCP/IP stack.
The paper's related work ([19]) benchmarks TTCP over SDP/IB across the
Longbows; this module provides the equivalent middleware so the
repository can compare all three socket paths: TCP/IPoIB-UD,
TCP/IPoIB-RC and SDP.

Model, following the OpenFabrics SDP design:

* **bcopy path** for small payloads — data is copied into private
  buffers and sent on the RC QP (per-byte copy cost, cheap setup);
* **zcopy path** for payloads at/above ``sdp_zcopy_threshold`` — the
  buffer is pinned and sent zero-copy (no per-byte CPU cost).

Either way the stream rides a Reliable Connection, so SDP inherits the
RC window dynamics over WAN — it beats IPoIB at LAN distances but is
*not* immune to long pipes.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional

from ..calibration import HardwareProfile
from ..fabric.node import Node
from ..fabric.topology import Fabric
from ..sim import ReusableTimeout, Simulator, Store
from ..verbs.device import VerbsContext
from ..verbs.ops import RecvWR
from ..verbs.rc import RCQueuePair, connect_rc_pair

__all__ = ["SdpStack", "SdpListener", "SdpSocket"]

_HUGE = 1 << 40
_CTRL = "sdp_ctrl"


class SdpStack:
    """Per-node SDP endpoint registry (the AF_INET_SDP analogue)."""

    #: registry of stacks by node LID, per fabric
    def __init__(self, node: Node, fabric: Fabric):
        self.node = node
        self.fabric = fabric
        self.sim: Simulator = node.sim
        self.profile: HardwareProfile = node.profile
        self.ctx = VerbsContext(node)
        self._listeners: Dict[int, "SdpListener"] = {}
        self._ports = itertools.count(30000)
        registry = fabric.__dict__.setdefault("_sdp_stacks", {})
        registry[node.lid] = self

    # -- api ------------------------------------------------------------------
    def listen(self, port: int) -> "SdpListener":
        if port in self._listeners:
            raise ValueError(f"SDP port {port} already listening")
        listener = SdpListener(self, port)
        self._listeners[port] = listener
        return listener

    def connect(self, dst_lid: int, dst_port: int):
        """Process yielding a connected :class:`SdpSocket`."""
        return self.sim.process(self._connect(dst_lid, dst_port),
                                name="sdp.connect")

    def _connect(self, dst_lid: int, dst_port: int):
        peer_stack = self.fabric.__dict__.get("_sdp_stacks", {}).get(dst_lid)
        if peer_stack is None:
            raise ConnectionRefusedError(f"no SDP stack at LID {dst_lid}")
        listener = peer_stack._listeners.get(dst_port)
        if listener is None:
            raise ConnectionRefusedError(
                f"SDP port {dst_port} not listening at LID {dst_lid}")
        local_port = next(self._ports)
        # Connection setup: one control round trip over the new QP pair
        # (the CM REQ/REP exchange).
        sock = SdpSocket(self, dst_lid, dst_port, local_port)
        peer_sock = SdpSocket(peer_stack, self.node.lid, local_port,
                              dst_port)
        connect_rc_pair(sock.qp, peer_sock.qp)
        sock._peer = peer_sock
        peer_sock._peer = sock
        sock.qp.send(64, payload=(_CTRL, "req"))
        yield peer_sock._ctrl.get()
        peer_sock.qp.send(64, payload=(_CTRL, "rep"))
        yield sock._ctrl.get()
        listener._backlog.put(peer_sock)
        return sock


class SdpListener:
    """Passive SDP endpoint."""

    def __init__(self, stack: SdpStack, port: int):
        self.stack = stack
        self.port = port
        self._backlog: Store = Store(stack.sim)

    def accept(self):
        return self._backlog.get()


class SdpSocket:
    """One end of an SDP stream."""

    def __init__(self, stack: SdpStack, peer_lid: int, peer_port: int,
                 local_port: int):
        self.stack = stack
        self.sim = stack.sim
        self.profile = stack.profile
        self.peer_lid = peer_lid
        self.peer_port = peer_port
        self.local_port = local_port
        scq = stack.ctx.create_cq(f"sdp{local_port}.scq")
        rcq = stack.ctx.create_cq(f"sdp{local_port}.rcq")
        self.qp: RCQueuePair = stack.ctx.create_rc_qp(scq, rcq)
        self.qp.post_recv(RecvWR(_HUGE), 512)
        self._peer: Optional["SdpSocket"] = None
        self._rx_bytes = 0
        self._rx_watchers = []
        self._records: Store = Store(self.sim)
        self._ctrl: Store = Store(self.sim)
        self._tx: Store = Store(self.sim)
        self.bytes_sent = 0
        self._tx_wait = ReusableTimeout(self.sim)
        self._rx_wait = ReusableTimeout(self.sim)
        self.sim.process(self._tx_pump(), name=f"sdp{local_port}.tx")
        self.sim.process(self._rx_pump(), name=f"sdp{local_port}.rx")

    # -- application API ------------------------------------------------------
    def send(self, nbytes: int, record: Any = None) -> None:
        """Queue ``nbytes``; ``record`` marks a message boundary."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        self._tx.put((nbytes, record))

    def recv_bytes(self, nbytes: int):
        """Event firing after ``nbytes`` more bytes arrive."""
        target = self._rx_bytes + nbytes
        evt = self.sim.event()
        if self._rx_bytes >= target:
            evt.succeed(self._rx_bytes)
        else:
            self._rx_watchers.append((target, evt))
        return evt

    def recv_record(self):
        """Event yielding the next ``(nbytes, record)``."""
        return self._records.get()

    # -- engine ----------------------------------------------------------
    def _tx_pump(self):
        profile = self.profile
        while True:
            nbytes, record = yield self._tx.get()
            remaining = nbytes
            while remaining > 0:
                chunk = min(remaining, profile.sdp_max_message)
                if chunk < profile.sdp_zcopy_threshold:
                    # bcopy: one buffer copy on the sending CPU
                    yield self._tx_wait.arm(
                        profile.sdp_bcopy_us_per_byte * chunk
                        + profile.sdp_op_overhead_us)
                else:
                    # zcopy: pin + post, no per-byte cost
                    yield self._tx_wait.arm(profile.sdp_zcopy_setup_us)
                is_last = remaining == chunk
                self.qp.send(chunk, payload=("sdp_data", chunk,
                                             record if is_last else None))
                self.bytes_sent += chunk
                remaining -= chunk

    def _rx_pump(self):
        profile = self.profile
        while True:
            wc = yield self.qp.recv_cq.wait()
            self.qp.post_recv(RecvWR(_HUGE))
            payload = wc.payload
            if payload and payload[0] == _CTRL:
                self._ctrl.put(payload)
                continue
            _kind, chunk, record = payload
            if chunk < profile.sdp_zcopy_threshold:
                yield self._rx_wait.arm(
                    profile.sdp_bcopy_us_per_byte * chunk)
            self._rx_bytes += chunk
            if record is not None:
                self._records.put((self._rx_bytes, record))
            if self._rx_watchers:
                still = []
                for target, evt in self._rx_watchers:
                    if self._rx_bytes >= target:
                        evt.succeed(self._rx_bytes)
                    else:
                        still.append((target, evt))
                self._rx_watchers = still
