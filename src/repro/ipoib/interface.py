"""IPoIB: IP datagrams over InfiniBand.

The Linux IPoIB driver has two data paths, both modelled here:

* **UD mode** — each IP packet rides one unreliable datagram, so the IP
  MTU is pinned to the 2 KB IB MTU (2044 B after the 4 B encapsulation
  header).  No link-level ACKs: loss/ordering is TCP's problem.
* **Connected mode (RC)** — a per-peer RC connection lets the IP MTU
  grow to 64 KB, amortizing per-packet stack costs; the price is that IP
  traffic now sits on top of the RC ACK window, which is exactly why
  NFS/IPoIB-RC tracks the verbs 64 KB curve over WAN (paper §3.3/§3.7).

Interfaces register with an :class:`IPoIBNetwork` (the neighbour-table /
ARP analogue) so peers can be resolved by LID.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from ..calibration import HardwareProfile
from ..fabric.node import Node
from ..fabric.topology import Fabric
from ..sim import Simulator
from ..verbs.device import VerbsContext
from ..verbs.ops import RecvWR
from ..verbs.rc import RCQueuePair, connect_rc_pair

__all__ = ["IPoIBNetwork", "IPoIBInterface"]

_RECV_RING = 256  # receive WRs kept posted per QP


class IPoIBNetwork:
    """Registry of IPoIB interfaces on one fabric (neighbour discovery)."""

    def __init__(self, fabric: Fabric, mode: str = "ud",
                 mtu: Optional[int] = None):
        if mode not in ("ud", "rc"):
            raise ValueError(f"unknown IPoIB mode {mode!r}")
        self.fabric = fabric
        self.sim = fabric.sim
        self.profile = fabric.profile
        self.mode = mode
        default = (self.profile.ipoib_ud_mtu if mode == "ud"
                   else self.profile.ipoib_rc_mtu)
        self.mtu = mtu if mtu is not None else default
        if mode == "ud" and self.mtu > self.profile.ib_mtu - self.profile.ipoib_header_bytes:
            raise ValueError(
                f"IPoIB-UD MTU {self.mtu} exceeds what a {self.profile.ib_mtu}B "
                f"IB datagram can carry")
        self.by_lid: Dict[int, "IPoIBInterface"] = {}
        self._ud_qpn_to_lid: Dict[int, int] = {}

    def add_interface(self, node: Node) -> "IPoIBInterface":
        if node.lid in self.by_lid:
            return self.by_lid[node.lid]
        iface = IPoIBInterface(self, node)
        self.by_lid[node.lid] = iface
        if iface._ud_qp is not None:
            self._ud_qpn_to_lid[iface._ud_qp.qpn] = node.lid
        node.software["ipoib"] = iface
        return iface

    def lookup(self, lid: int) -> "IPoIBInterface":
        try:
            return self.by_lid[lid]
        except KeyError:
            raise KeyError(f"no IPoIB interface at LID {lid} "
                           f"(neighbour not registered)") from None


class IPoIBInterface:
    """One node's IPoIB network device."""

    def __init__(self, network: IPoIBNetwork, node: Node):
        self.network = network
        self.node = node
        self.sim: Simulator = node.sim
        self.profile: HardwareProfile = node.profile
        self.mode = network.mode
        self.mtu = network.mtu
        #: Upper-layer input: ``receiver(src_lid, nbytes, payload)``.
        self.receiver: Optional[Callable[[int, int, Any], None]] = None
        self.ctx = VerbsContext(node)
        self._send_cq = self.ctx.create_cq("ipoib.scq")
        self._recv_cq = self.ctx.create_cq("ipoib.rcq")
        self.packets_sent = 0
        self.packets_received = 0
        if self.mode == "ud":
            self._ud_qp = self.ctx.create_ud_qp(self._send_cq, self._recv_cq)
            self._post_ring(self._ud_qp)
        else:
            self._ud_qp = None
            self._rc_qps: Dict[int, RCQueuePair] = {}
        self._qpn_to_lid: Dict[int, int] = {}
        self.sim.process(self._dispatch(), name=f"ipoib@{node.name}")

    # -- tx ------------------------------------------------------------------
    def send(self, dst_lid: int, nbytes: int, payload: Any = None) -> None:
        """Transmit one IP packet of ``nbytes`` (IP payload + IP headers).

        ``nbytes`` must fit the interface MTU; the 4-byte IPoIB
        encapsulation header is added here.
        """
        if nbytes > self.mtu:
            raise ValueError(f"IP packet of {nbytes}B exceeds MTU {self.mtu}")
        wire_payload = nbytes + self.profile.ipoib_header_bytes
        self.packets_sent += 1
        if self.mode == "ud":
            peer = self.network.lookup(dst_lid)
            self._ud_qp.send((dst_lid, peer._ud_qp.qpn), wire_payload,
                             payload=payload)
        else:
            qp = self._rc_qp_for(dst_lid)
            qp.send(wire_payload, payload=payload)

    # -- connected-mode connections ----------------------------------------
    def _rc_qp_for(self, dst_lid: int) -> RCQueuePair:
        qp = self._rc_qps.get(dst_lid)
        if qp is None:
            peer = self.network.lookup(dst_lid)
            qp = self.ctx.create_rc_qp(self._send_cq, self._recv_cq)
            peer_qp = peer.ctx.create_rc_qp(peer._send_cq, peer._recv_cq)
            connect_rc_pair(qp, peer_qp)
            self._post_ring(qp)
            peer._post_ring(peer_qp)
            self._rc_qps[dst_lid] = qp
            self._qpn_to_lid[qp.qpn] = dst_lid
            peer._rc_qps[self.node.lid] = peer_qp
            peer._qpn_to_lid[peer_qp.qpn] = self.node.lid
        return qp

    # -- rx ------------------------------------------------------------------
    def _post_ring(self, qp) -> None:
        cap = self.mtu + self.profile.ipoib_header_bytes
        qp.post_recv(RecvWR(cap), _RECV_RING)

    def _dispatch(self):
        cap = self.mtu + self.profile.ipoib_header_bytes
        while True:
            wc = yield self._recv_cq.wait()
            self.packets_received += 1
            # Replenish the ring on the QP the packet arrived on.
            qp = self.node.hca.qp(wc.qp_num)
            qp.post_recv(RecvWR(cap))
            if self.receiver is not None:
                nbytes = wc.byte_len - self.profile.ipoib_header_bytes
                self.receiver(wc.src_lid, nbytes, wc.payload)
