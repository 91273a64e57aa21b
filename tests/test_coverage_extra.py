"""Additional behavioural coverage: CQ semantics, TCP recovery hooks,
subgroup collectives, SDP thresholds, experiment flags."""

import pytest

from repro.calibration import DEFAULT_PROFILE, KB, MB
from repro.core import wan_clusters, wan_pair
from repro.fabric import build_back_to_back, build_cluster_of_clusters
from repro.mpi import MPIJob
from repro.sim import Simulator
from repro.verbs import RecvWR, create_connected_rc_pair


# ---------------------------------------------------------------------------
# CQ semantics
# ---------------------------------------------------------------------------

def test_cq_poll_respects_max_entries():
    sim = Simulator()
    fabric = build_back_to_back(sim)
    qa, qb = create_connected_rc_pair(*fabric.nodes)
    for _ in range(6):
        qb.post_recv(RecvWR(1 << 20))
    for _ in range(6):
        qa.send(64)
    sim.run(until=1000.0)
    first = qb.recv_cq.poll(max_entries=2)
    rest = qb.recv_cq.poll(max_entries=16)
    assert len(first) == 2 and len(rest) == 4


def test_cq_counts_completions():
    sim = Simulator()
    fabric = build_back_to_back(sim)
    qa, qb = create_connected_rc_pair(*fabric.nodes)
    for _ in range(3):
        qb.post_recv(RecvWR(1 << 20))
    for _ in range(3):
        qa.send(64)
    sim.run(until=1000.0)
    assert qb.recv_cq.completions_seen == 3
    assert qa.send_cq.completions_seen == 3


def test_multiple_blocking_waiters_each_get_one():
    sim = Simulator()
    fabric = build_back_to_back(sim)
    qa, qb = create_connected_rc_pair(*fabric.nodes)
    for _ in range(2):
        qb.post_recv(RecvWR(1 << 20))
    got = []

    def waiter(name):
        wc = yield qb.recv_cq.wait()
        got.append((name, wc.payload))

    sim.process(waiter("w1"))
    sim.process(waiter("w2"))
    qa.send(64, payload="a")
    qa.send(64, payload="b")
    sim.run(until=1000.0)
    assert sorted(p for _, p in got) == ["a", "b"]


# ---------------------------------------------------------------------------
# TCP loss-recovery hook (cc.on_loss is exercised even though the
# default fabric is lossless)
# ---------------------------------------------------------------------------

def test_cc_loss_then_regrowth():
    from repro.tcp import CongestionControl
    cc = CongestionControl(mss=1000, init_segments=64)
    cc.on_loss()
    assert not cc.in_slow_start  # ssthresh now equals cwnd
    before = cc.cwnd
    cc.on_ack(int(cc.cwnd))
    assert before < cc.cwnd < before + 1001  # linear growth after loss


def test_tcp_connect_returns_distinct_ports():
    from repro.ipoib.interface import IPoIBNetwork
    from repro.tcp import TcpStack
    sim = Simulator()
    fabric = build_cluster_of_clusters(sim, 1, 1)
    net = IPoIBNetwork(fabric, mode="ud")
    sa = TcpStack(net.add_interface(fabric.cluster_a[0]))
    sb = TcpStack(net.add_interface(fabric.cluster_b[0]))
    sb.listen(80)
    out = []

    def client():
        s1 = yield sa.connect(sb.lid, 80)
        s2 = yield sa.connect(sb.lid, 80)
        out.extend([s1.local_port, s2.local_port])

    sim.run(until=sim.process(client()))
    assert len(set(out)) == 2


# ---------------------------------------------------------------------------
# collectives on subgroups / hierarchical pieces
# ---------------------------------------------------------------------------

def test_hierarchical_allreduce_on_subgroup():
    from repro.core.hierarchical import hierarchical_allreduce
    s = wan_clusters(2, 2, 10.0)
    job = MPIJob(s.fabric, ppn=1, placement="block")
    group = [0, 2, 3]

    def prog(proc):
        if proc.rank in group:
            return (yield from hierarchical_allreduce(proc, 4 * KB,
                                                      ranks=group))
        yield proc.sim.timeout(1.0)
        return None

    results = job.run(prog)
    assert [results[r] for r in group] == [("allreduce", 4 * KB)] * 3


def test_reduce_on_subgroup_nonmember_untouched():
    from repro.mpi.collectives import reduce
    s = wan_clusters(2, 2, 0.0)
    job = MPIJob(s.fabric, ppn=1)

    def prog(proc):
        if proc.rank in (1, 2):
            return (yield from reduce(proc, 128, root=2, ranks=[1, 2]))
        yield proc.sim.timeout(1.0)
        return "outside"

    results = job.run(prog)
    assert results[2] == ("reduce", 128)
    assert results[0] == "outside"


def test_bcast_single_rank_group_is_noop():
    from repro.mpi.collectives import bcast
    s = wan_clusters(1, 1, 0.0)
    job = MPIJob(s.fabric, ppn=1)

    def prog(proc):
        if proc.rank == 0:
            data = yield from bcast(proc, 1 * KB, root=0, payload="solo",
                                    ranks=[0], algorithm="binomial")
            return data
        yield proc.sim.timeout(1.0)

    assert job.run(prog)[0] == "solo"


# ---------------------------------------------------------------------------
# SDP path selection
# ---------------------------------------------------------------------------

def test_sdp_bcopy_vs_zcopy_threshold_behaviour():
    """Sends below the zcopy threshold pay per-byte copy time; above it
    only a fixed pin cost — visible as a latency discontinuity."""
    from repro.sdp import SdpStack
    profile = DEFAULT_PROFILE
    below = profile.sdp_zcopy_threshold - 1024
    above = profile.sdp_zcopy_threshold

    def one_transfer(nbytes):
        sim = Simulator()
        fabric = build_cluster_of_clusters(sim, 1, 1, wan_delay_us=0.0)
        sa = SdpStack(fabric.cluster_a[0], fabric)
        sb = SdpStack(fabric.cluster_b[0], fabric)
        listener = sb.listen(80)
        span = {}

        def server():
            sock = yield listener.accept()
            t0 = sim.now
            yield sock.recv_bytes(nbytes)
            span["t"] = sim.now - t0

        def client():
            sock = yield sa.connect(sb.node.lid, 80)
            sock.send(nbytes)

        d = sim.process(server())
        sim.process(client())
        sim.run(until=d)
        return span["t"]

    t_below, t_above = one_transfer(below), one_transfer(above)
    # the larger zcopy message must not be slower than the smaller
    # bcopy one: copy costs dominate below the threshold
    assert t_above <= t_below * 1.05


# ---------------------------------------------------------------------------
# experiments: quick vs full flags
# ---------------------------------------------------------------------------

def test_full_sweep_is_superset_for_fig04a():
    from repro.core import run_experiment
    quick = run_experiment("fig04a", quick=True)
    full = run_experiment("fig04a", quick=False)
    assert len(full.rows) > len(quick.rows)
    assert quick.columns == full.columns


# ---------------------------------------------------------------------------
# NFS getattr over both transports
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("transport", ["rdma", "ipoib-ud"])
def test_nfs_getattr(transport):
    from repro.nfs import mount
    s = wan_pair(10.0)
    server, factory = mount(s.fabric, s.a, s.b, transport)
    server.export("/f", 12345)
    out = {}

    def main():
        client = yield from factory()
        out["size"] = yield from client.getattr("/f")

    s.sim.run(until=s.sim.process(main()))
    assert out["size"] == 12345


# ---------------------------------------------------------------------------
# pfs layout round-robin over many stripes
# ---------------------------------------------------------------------------

def test_pfs_round_robin_distribution_is_balanced():
    from repro.pfs import StripeLayout
    layout = StripeLayout("/f", size=64 * MB, stripe_size=1 * MB,
                          oss_indices=(0, 1, 2, 3))
    counts = {}
    for stripe in range(64):
        oss, _ = layout.locate(stripe * 1 * MB)
        counts[oss] = counts.get(oss, 0) + 1
    assert set(counts.values()) == {16}  # perfectly balanced
