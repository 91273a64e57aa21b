"""Goodput-under-faults workloads (the fault experiment family's engine).

Each runner builds a fresh two-cluster WAN fabric, arms an optional
:class:`~repro.faults.plan.FaultPlan` on the WAN link, drives one
protocol for a fixed horizon (or fixed transfer) and returns a stats
dict.  They exercise the recovery path of every layer:

* **verbs RC** — retry-budget exhaustion drives the QP into the error
  state; a supervisor process reconnects the pair and refills the send
  pipeline (the application-level APM/CM analogue);
* **verbs UD** — no transport recovery at all: lost datagrams are simply
  gone, so goodput tracks ``offered * (1 - loss)`` independent of delay;
* **TCP/IPoIB** — the socket's RTO / fast-retransmit machinery
  (self-enabled on fault-armed fabrics) carries a fixed transfer to
  completion;
* **NFS** — RPC-level timeouts retransmit under the same xid, the
  server's duplicate-request cache absorbs replays, and the RDMA
  transport reconnects its RC QPs after errors.

This module deliberately avoids importing :mod:`repro.core` so the
``faults`` package stays import-light (``core.experiments`` imports us).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..calibration import DEFAULT_PROFILE, KB, MB, HardwareProfile
from ..fabric.topology import build_cluster_of_clusters
from ..ipoib.netperf import run_stream_bw
from ..nfs.iozone import run_iozone_read
from ..sim import Simulator
from ..verbs.device import create_connected_rc_pair, create_ud_pair
from ..verbs.ops import RecvWR
from ..verbs.qp import QPState
from ..verbs.rc import reconnect_rc_pair
from .plan import FaultPlan

__all__ = ["fault_profile", "run_rc_goodput", "run_ud_goodput",
           "run_tcp_goodput", "run_nfs_goodput"]

_HUGE = 1 << 40


def fault_profile(delay_us: float,
                  profile: HardwareProfile = DEFAULT_PROFILE,
                  ) -> HardwareProfile:
    """Profile tuned for fault runs: an RC retransmission timeout that
    scales with the WAN RTT (the production 500 ms default would eat the
    whole measurement horizon) and a small retry budget so loss bursts
    actually exhaust it."""
    rto = max(8.0 * delay_us + 500.0, 1000.0)
    return profile.with_overrides(rc_retransmit_timeout_us=rto,
                                  rc_retry_count=5)


def _wan_stats(fabric) -> Dict[str, float]:
    link = fabric.wan.wan_link
    return {"wan_frames_dropped": link.frames_dropped,
            "wan_frames_carried": link.frames_carried}


def run_rc_goodput(delay_us: float, plan: Optional[FaultPlan] = None,
                   duration_us: float = 40000.0, msg_bytes: int = 64 * KB,
                   depth: int = 8,
                   reconnect_wait_us: Optional[float] = None,
                   ) -> Dict[str, float]:
    """Verbs RC goodput over a fixed horizon, with reconnect-on-error.

    A supervisor process mirrors what a CM/APM-aware application does:
    wait for the QP error event, back off briefly, reset + reconnect the
    pair and refill the send pipeline.
    """
    sim = Simulator()
    profile = fault_profile(delay_us)
    fabric = build_cluster_of_clusters(sim, 1, 1, wan_delay_us=delay_us,
                                       profile=profile)
    if plan is not None:
        plan.apply(fabric)
    node_a, node_b = fabric.cluster_a[0], fabric.cluster_b[0]
    qa, qb = create_connected_rc_pair(node_a, node_b)
    if reconnect_wait_us is None:
        reconnect_wait_us = max(2000.0, 4.0 * delay_us)
    stats = {"received_bytes": 0.0, "qp_errors": 0.0, "reconnects": 0.0}

    qb.post_recv(RecvWR(_HUGE), 64)

    def receiver():
        while True:
            wc = yield qb.recv_cq.wait()
            if qb.state is not QPState.ERROR:
                qb.post_recv(RecvWR(_HUGE))
            if wc.ok:
                stats["received_bytes"] += wc.byte_len

    def sender():
        # Keep `depth` messages outstanding; errors park the pipeline
        # until the supervisor refills it after the reconnect.
        while True:
            wc = yield qa.send_cq.wait()
            if wc.ok and qa.state is QPState.RTS:
                qa.send(msg_bytes)

    def supervisor():
        while True:
            # reset() re-arms error_event, so re-read it every loop.
            yield qa.error_event
            stats["qp_errors"] += 1
            yield sim.timeout(reconnect_wait_us)
            reconnect_rc_pair(qa, qb)
            stats["reconnects"] += 1
            for _ in range(depth):
                qa.send(msg_bytes)

    sim.process(receiver(), name="flt.rc.rx")
    sim.process(sender(), name="flt.rc.tx")
    sim.process(supervisor(), name="flt.rc.sup")
    for _ in range(depth):
        qa.send(msg_bytes)
    sim.run(until=duration_us)
    stats["goodput_mb_s"] = stats["received_bytes"] / duration_us
    stats["rc_retransmissions"] = float(qa.retransmissions)
    stats.update(_wan_stats(fabric))
    return stats


def run_ud_goodput(delay_us: float, plan: Optional[FaultPlan] = None,
                   duration_us: float = 40000.0, msg_bytes: int = 2 * KB,
                   ) -> Dict[str, float]:
    """Paced open-loop UD datagram stream: what arrives, arrives.

    The sender paces at the WAN wire rate, so goodput is delay-
    independent and degrades only with the delivered fraction — the
    paper's UD-vs-RC WAN contrast, extended to lossy links.
    """
    sim = Simulator()
    profile = DEFAULT_PROFILE
    fabric = build_cluster_of_clusters(sim, 1, 1, wan_delay_us=delay_us,
                                       profile=profile)
    if plan is not None:
        plan.apply(fabric)
    node_a, node_b = fabric.cluster_a[0], fabric.cluster_b[0]
    qa, qb = create_ud_pair(node_a, node_b)
    msg_bytes = min(msg_bytes, profile.ib_mtu)
    stats = {"received_bytes": 0.0, "sent_msgs": 0.0}

    qb.post_recv(RecvWR(_HUGE), 512)

    def receiver():
        while True:
            wc = yield qb.recv_cq.wait()
            qb.post_recv(RecvWR(_HUGE))
            if wc.ok:
                stats["received_bytes"] += wc.byte_len

    def sender():
        gap = msg_bytes / profile.wan_rate
        remote = (node_b.lid, qb.qpn)
        while True:
            qa.send(remote, msg_bytes)
            stats["sent_msgs"] += 1
            yield sim.timeout(gap)

    sim.process(receiver(), name="flt.ud.rx")
    sim.process(sender(), name="flt.ud.tx")
    sim.run(until=duration_us)
    stats["goodput_mb_s"] = stats["received_bytes"] / duration_us
    stats.update(_wan_stats(fabric))
    return stats


def run_tcp_goodput(delay_us: float, plan: Optional[FaultPlan] = None,
                    total_bytes: int = 4 * MB, mode: str = "ud",
                    window: Optional[int] = None) -> Dict[str, float]:
    """IPoIB TCP stream goodput for a fixed transfer.

    On a fault-armed fabric the stack self-enables its RTO/fast-
    retransmit machinery, so the transfer completes (more slowly)
    instead of hanging on the first dropped segment.
    """
    sim = Simulator()
    fabric = build_cluster_of_clusters(sim, 1, 1, wan_delay_us=delay_us)
    if plan is not None:
        plan.apply(fabric)
    bw = run_stream_bw(sim, fabric, fabric.cluster_a[0],
                       fabric.cluster_b[0], total_bytes, mode=mode,
                       window=window)
    stats = {"goodput_mb_s": bw, "received_bytes": float(total_bytes)}
    stats.update(_wan_stats(fabric))
    return stats


def run_nfs_goodput(delay_us: float, plan: Optional[FaultPlan] = None,
                    transport: str = "rdma", read_bytes: int = 2 * MB,
                    n_streams: int = 2) -> Dict[str, float]:
    """NFS read goodput for a bounded IOzone run under faults.

    RPC timeouts/retransmissions self-enable from ``faults_active``;
    the RDMA transport additionally reconnects its RC pair after
    retry-budget exhaustion.
    """
    sim = Simulator()
    profile = fault_profile(delay_us)
    fabric = build_cluster_of_clusters(sim, 1, 1, wan_delay_us=delay_us,
                                       profile=profile)
    if plan is not None:
        plan.apply(fabric)
    bw = run_iozone_read(sim, fabric, fabric.cluster_a[0],
                         fabric.cluster_b[0], transport,
                         n_streams=n_streams, read_bytes=read_bytes)
    stats = {"goodput_mb_s": bw, "received_bytes": float(read_bytes)}
    stats.update(_wan_stats(fabric))
    return stats
