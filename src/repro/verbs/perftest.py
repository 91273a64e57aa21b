"""Verbs-level microbenchmarks (the OFED *perftest* suite analogue).

These reproduce ``ib_send_lat``, ``ib_send_bw``, ``ib_write_bw`` and their
bidirectional variants, which the paper uses for its §3.2 baseline.

Measurement conventions (matching perftest):

* latency = ping-pong round-trip / 2, averaged over iterations;
* bandwidth is measured in steady state, from the first to the last
  message completion, so pipe-fill time and the one-way delay offset do
  not bias short runs.  SEND bandwidth is observed at the receiver,
  RDMA-write bandwidth at the initiator (its only completion point).
"""

from __future__ import annotations

from typing import Optional

from ..fabric.node import Node
from ..sim import Simulator
from .device import create_connected_rc_pair, create_ud_pair
from .ops import RecvWR
from .qp import QueuePair
from .ud import UDQueuePair

__all__ = ["run_send_lat", "run_send_bw", "run_bidir_bw", "run_write_bw",
           "run_write_lat"]

_ACK_SLACK = 4096  # extra recv WRs posted beyond the strict need


def _make_pair(node_a: Node, node_b: Node, transport: str,
               window: Optional[int]):
    if transport == "rc":
        return create_connected_rc_pair(node_a, node_b, send_window=window)
    if transport == "ud":
        return create_ud_pair(node_a, node_b)
    raise ValueError(f"unknown transport {transport!r}")


def _send(qp: QueuePair, peer: QueuePair, size: int) -> None:
    if isinstance(qp, UDQueuePair):
        qp.send((peer.hca.lid, peer.qpn), size)
    else:
        qp.send(size)


# ---------------------------------------------------------------------------
# latency
# ---------------------------------------------------------------------------

def run_send_lat(sim: Simulator, node_a: Node, node_b: Node, size: int,
                 iters: int = 50, transport: str = "rc") -> float:
    """Ping-pong send/recv latency in µs (one way)."""
    qp_a, qp_b = _make_pair(node_a, node_b, transport, None)
    result = {}

    def client():
        qp_a.post_recv(RecvWR(size), iters)
        t0 = sim.now
        for _ in range(iters):
            _send(qp_a, qp_b, size)
            yield qp_a.recv_cq.wait()
        result["lat"] = (sim.now - t0) / (2 * iters)

    def server():
        qp_b.post_recv(RecvWR(size), iters)
        for _ in range(iters):
            yield qp_b.recv_cq.wait()
            _send(qp_b, qp_a, size)

    sim.process(server(), name="lat.server")
    done = sim.process(client(), name="lat.client")
    sim.run(until=done)
    return result["lat"]


def run_write_lat(sim: Simulator, node_a: Node, node_b: Node, size: int,
                  iters: int = 50) -> float:
    """RDMA-write ping-pong latency in µs (one way), via write-with-imm."""
    qp_a, qp_b = _make_pair(node_a, node_b, "rc", None)
    result = {}

    def client():
        qp_a.post_recv(RecvWR(size), iters)
        t0 = sim.now
        for _ in range(iters):
            qp_a.rdma_write(size, imm=1)
            yield qp_a.recv_cq.wait()
        result["lat"] = (sim.now - t0) / (2 * iters)

    def server():
        qp_b.post_recv(RecvWR(size), iters)
        for _ in range(iters):
            yield qp_b.recv_cq.wait()
            qp_b.rdma_write(size, imm=1)

    sim.process(server(), name="wlat.server")
    done = sim.process(client(), name="wlat.client")
    sim.run(until=done)
    return result["lat"]


# ---------------------------------------------------------------------------
# bandwidth
# ---------------------------------------------------------------------------

def run_send_bw(sim: Simulator, node_a: Node, node_b: Node, size: int,
                iters: int = 64, transport: str = "rc",
                window: Optional[int] = None, fabric=None) -> float:
    """Unidirectional send/recv bandwidth in MB/s, receiver-observed.

    With flow mode engaged (see :mod:`repro.flow.dispatch`) the run is
    delegated to the flow twin, which pays per-message events only
    until the steady state is proved and completes the tail
    analytically.  ``fabric`` is only consulted by that gate (fault
    plans force packet mode) and for WAN wire-byte accounting.
    """
    if iters < 2:
        raise ValueError("need at least 2 iterations")
    from ..flow.dispatch import engaged
    if engaged(sim, fabric):
        from ..flow.verbs import flow_send_bw
        return flow_send_bw(sim, node_a, node_b, size, iters=iters,
                            transport=transport, window=window,
                            fabric=fabric)
    qp_a, qp_b = _make_pair(node_a, node_b, transport, window)
    result = {}

    def sender():
        for _ in range(iters):
            _send(qp_a, qp_b, size)
        if False:  # pragma: no cover - keeps this a generator
            yield

    def receiver():
        qp_b.post_recv(RecvWR(size), iters)
        yield qp_b.recv_cq.wait()
        t0 = sim.now
        for _ in range(iters - 1):
            yield qp_b.recv_cq.wait()
        result["mbps"] = size * (iters - 1) / (sim.now - t0)

    sim.process(sender(), name="bw.sender")
    done = sim.process(receiver(), name="bw.receiver")
    sim.run(until=done)
    return result["mbps"]


def run_bidir_bw(sim: Simulator, node_a: Node, node_b: Node, size: int,
                 iters: int = 64, transport: str = "rc",
                 window: Optional[int] = None, fabric=None) -> float:
    """Bidirectional send/recv bandwidth in MB/s (sum of both directions)."""
    if iters < 2:
        raise ValueError("need at least 2 iterations")
    from ..flow.dispatch import engaged
    if engaged(sim, fabric):
        from ..flow.verbs import flow_bidir_bw
        return flow_bidir_bw(sim, node_a, node_b, size, iters=iters,
                             transport=transport, window=window,
                             fabric=fabric)
    qp_a, qp_b = _make_pair(node_a, node_b, transport, window)
    result = {}

    def sender(qp, peer):
        for _ in range(iters):
            _send(qp, peer, size)
        if False:  # pragma: no cover
            yield

    def receiver(qp, key):
        qp.post_recv(RecvWR(size), iters)
        yield qp.recv_cq.wait()
        t0 = sim.now
        for _ in range(iters - 1):
            yield qp.recv_cq.wait()
        result[key] = size * (iters - 1) / (sim.now - t0)

    sim.process(sender(qp_a, qp_b), name="bibw.sender.a")
    sim.process(sender(qp_b, qp_a), name="bibw.sender.b")
    done_a = sim.process(receiver(qp_b, "ab"), name="bibw.recv.b")
    done_b = sim.process(receiver(qp_a, "ba"), name="bibw.recv.a")
    sim.run(until=sim.all_of([done_a, done_b]))
    return result["ab"] + result["ba"]


def run_write_bw(sim: Simulator, node_a: Node, node_b: Node, size: int,
                 iters: int = 64, window: Optional[int] = None) -> float:
    """RDMA-write bandwidth in MB/s, initiator-observed."""
    if iters < 2:
        raise ValueError("need at least 2 iterations")
    qp_a, qp_b = _make_pair(node_a, node_b, "rc", window)
    result = {}

    def initiator():
        for _ in range(iters):
            qp_a.rdma_write(size)
        yield qp_a.send_cq.wait()
        t0 = sim.now
        for _ in range(iters - 1):
            yield qp_a.send_cq.wait()
        result["mbps"] = size * (iters - 1) / (sim.now - t0)

    done = sim.process(initiator(), name="wbw.initiator")
    sim.run(until=done)
    return result["mbps"]
