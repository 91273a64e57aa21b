"""Unit tests for the verbs layer: QPs, CQs, RC reliability, UD semantics."""

import pytest

from repro.calibration import DEFAULT_PROFILE
from repro.fabric import build_back_to_back, build_cluster_of_clusters
from repro.sim import Simulator
from repro.verbs import (MemoryRegion, Opcode, ProtectionDomain, QPState,
                         RecvWR, SendWR, VerbsContext, WCStatus,
                         create_connected_rc_pair, create_ud_pair, perftest)


@pytest.fixture()
def b2b():
    sim = Simulator()
    fabric = build_back_to_back(sim)
    return sim, fabric.nodes[0], fabric.nodes[1]


# ---------------------------------------------------------------------------
# basic RC send/recv
# ---------------------------------------------------------------------------

def test_rc_send_delivers_payload(b2b):
    sim, a, b = b2b
    qp_a, qp_b = create_connected_rc_pair(a, b)
    qp_b.post_recv(RecvWR(4096))
    qp_a.send(1000, payload={"hello": "world"})

    def receiver():
        wc = yield qp_b.recv_cq.wait()
        return wc

    wc = sim.run(until=sim.process(receiver()))
    assert wc.ok and wc.byte_len == 1000
    assert wc.payload == {"hello": "world"}
    assert wc.opcode is Opcode.RECV


def test_rc_sender_gets_completion_after_ack(b2b):
    sim, a, b = b2b
    qp_a, qp_b = create_connected_rc_pair(a, b)
    qp_b.post_recv(RecvWR(4096))
    wr = qp_a.send(100)

    def waiter():
        wc = yield qp_a.send_cq.wait()
        return wc

    wc = sim.run(until=sim.process(waiter()))
    assert wc.ok and wc.wr_id == wr.wr_id and wc.opcode is Opcode.SEND


def test_rc_messages_delivered_in_order(b2b):
    sim, a, b = b2b
    qp_a, qp_b = create_connected_rc_pair(a, b)
    for _ in range(20):
        qp_b.post_recv(RecvWR(4096))
    for i in range(20):
        qp_a.send(64, payload=i)

    def receiver():
        got = []
        for _ in range(20):
            wc = yield qp_b.recv_cq.wait()
            got.append(wc.payload)
        return got

    assert sim.run(until=sim.process(receiver())) == list(range(20))


def test_rc_send_before_connect_raises(b2b):
    sim, a, _ = b2b
    ctx = VerbsContext(a)
    qp = ctx.create_rc_qp(ctx.create_cq(), ctx.create_cq())
    with pytest.raises(RuntimeError):
        qp.send(10)


def test_rc_double_connect_raises(b2b):
    sim, a, b = b2b
    qp_a, qp_b = create_connected_rc_pair(a, b)
    with pytest.raises(RuntimeError):
        qp_a.connect(qp_b.hca.lid, qp_b.qpn)


def test_rc_recv_buffer_too_small_is_an_error(b2b):
    sim, a, b = b2b
    qp_a, qp_b = create_connected_rc_pair(a, b)
    qp_b.post_recv(RecvWR(10))
    qp_a.send(100)
    with pytest.raises(RuntimeError, match="length error"):
        sim.run()


def test_rc_data_waits_for_posted_recv(b2b):
    """Arrival before a receive is posted is buffered, not lost."""
    sim, a, b = b2b
    qp_a, qp_b = create_connected_rc_pair(a, b)
    qp_a.send(100, payload="early")

    def late_poster():
        yield sim.timeout(50.0)
        qp_b.post_recv(RecvWR(4096))
        wc = yield qp_b.recv_cq.wait()
        return (wc.payload, sim.now >= 50.0)

    assert sim.run(until=sim.process(late_poster())) == ("early", True)


def test_post_recv_count_posts_a_ring_in_one_call(b2b):
    sim, a, b = b2b
    qp_a, qp_b = create_connected_rc_pair(a, b)
    wr = RecvWR(4096)
    qp_b.post_recv(wr, 5)
    assert list(qp_b.recv_queue) == [wr] * 5
    assert qp_b.recv_posted_total == 5
    qp_b.post_recv(RecvWR(4096))
    assert qp_b.recv_posted_total == 6


def test_post_recv_count_drains_an_rnr_backlog_in_one_call(b2b):
    sim, a, b = b2b
    qp_a, qp_b = create_connected_rc_pair(a, b)
    for i in range(3):
        qp_a.send(100, payload=i)
    sim.run(until=50.0)
    assert len(qp_b._rnr_backlog) == 3  # arrived before any receive
    drains = []
    hook = qp_b._on_recv_posted
    qp_b._on_recv_posted = lambda: (drains.append(1), hook())
    qp_b.post_recv(RecvWR(4096), 4)
    assert drains == [1]
    assert not qp_b._rnr_backlog
    assert len(qp_b.recv_queue) == 1
    assert qp_b.recv_posted_total == 4

    def receiver():
        got = []
        for _ in range(3):
            got.append((yield qp_b.recv_cq.wait()).payload)
        return got

    assert sim.run(until=sim.process(receiver())) == [0, 1, 2]


def test_srq_post_recv_count():
    sim = Simulator()
    fabric = build_back_to_back(sim)
    srq = VerbsContext(fabric.nodes[1]).create_srq()
    srq.post_recv(RecvWR(4096), 3)
    assert len(srq) == 3 and srq.posted_total == 3


def test_rc_window_limits_inflight(b2b):
    sim, a, b = b2b
    qp_a, qp_b = create_connected_rc_pair(a, b, send_window=4)
    # no receives posted at b: data buffers at the receiver QP, but ACKs
    # only flow once messages are *delivered*, so the sender stalls at 4.
    for i in range(10):
        qp_a.send(1024)
    sim.run(until=1000.0)  # well before the retransmission timeout
    assert qp_a.inflight == 4
    assert qp_a.messages_sent == 4


def test_rc_window_opens_on_ack(b2b):
    sim, a, b = b2b
    qp_a, qp_b = create_connected_rc_pair(a, b, send_window=2)
    for _ in range(6):
        qp_b.post_recv(RecvWR(4096))
    for _ in range(6):
        qp_a.send(512)

    def drain():
        for _ in range(6):
            yield qp_b.recv_cq.wait()

    sim.run(until=sim.process(drain()))
    sim.run()
    assert qp_a.inflight == 0
    assert qp_a.messages_sent == 6


# ---------------------------------------------------------------------------
# RDMA
# ---------------------------------------------------------------------------

def test_rdma_write_is_silent_at_responder(b2b):
    sim, a, b = b2b
    qp_a, qp_b = create_connected_rc_pair(a, b)
    qp_a.rdma_write(4096)

    def waiter():
        wc = yield qp_a.send_cq.wait()
        return wc

    wc = sim.run(until=sim.process(waiter()))
    assert wc.ok and wc.opcode is Opcode.RDMA_WRITE
    assert len(qp_b.recv_cq) == 0  # no responder-side completion


def test_rdma_write_with_imm_raises_recv_completion(b2b):
    sim, a, b = b2b
    qp_a, qp_b = create_connected_rc_pair(a, b)
    qp_b.post_recv(RecvWR(8192))
    qp_a.rdma_write(8192, payload="bulk", imm=0xCAFE)

    def receiver():
        wc = yield qp_b.recv_cq.wait()
        return wc

    wc = sim.run(until=sim.process(receiver()))
    assert wc.ok and wc.imm == 0xCAFE and wc.payload == "bulk"


def test_rdma_read_completes_with_data_rtt(b2b):
    sim, a, b = b2b
    qp_a, qp_b = create_connected_rc_pair(a, b)
    qp_a.rdma_read(65536)

    def waiter():
        wc = yield qp_a.send_cq.wait()
        return (wc, sim.now)

    wc, t = sim.run(until=sim.process(waiter()))
    assert wc.ok and wc.opcode is Opcode.RDMA_READ
    assert t > 65536 / DEFAULT_PROFILE.ddr_rate  # response carried the data


def test_rdma_read_then_send_complete_in_order(b2b):
    sim, a, b = b2b
    qp_a, qp_b = create_connected_rc_pair(a, b)
    qp_b.post_recv(RecvWR(64))
    qp_a.rdma_read(1024 * 1024)
    qp_a.send(64)

    def waiter():
        first = yield qp_a.send_cq.wait()
        second = yield qp_a.send_cq.wait()
        return (first.opcode, second.opcode)

    ops = sim.run(until=sim.process(waiter()))
    assert ops == (Opcode.RDMA_READ, Opcode.SEND)


# ---------------------------------------------------------------------------
# UD semantics
# ---------------------------------------------------------------------------

def test_ud_send_completes_locally_and_delivers(b2b):
    sim, a, b = b2b
    qp_a, qp_b = create_ud_pair(a, b)
    qp_b.post_recv(RecvWR(2048))
    qp_a.send((b.hca.lid, qp_b.qpn), 2048, payload="dgram")

    def receiver():
        wc = yield qp_b.recv_cq.wait()
        return wc

    wc = sim.run(until=sim.process(receiver()))
    assert wc.payload == "dgram"
    assert len(qp_a.send_cq) == 1  # local completion


def test_ud_rejects_messages_above_mtu(b2b):
    sim, a, b = b2b
    qp_a, qp_b = create_ud_pair(a, b)
    with pytest.raises(ValueError, match="MTU"):
        qp_a.send((b.hca.lid, qp_b.qpn), DEFAULT_PROFILE.ib_mtu + 1)


def test_ud_requires_address_handle(b2b):
    sim, a, b = b2b
    qp_a, _ = create_ud_pair(a, b)
    with pytest.raises(ValueError, match="remote"):
        qp_a.post_send(SendWR(100))


def test_ud_drops_without_posted_recv(b2b):
    sim, a, b = b2b
    qp_a, qp_b = create_ud_pair(a, b)
    qp_a.send((b.hca.lid, qp_b.qpn), 100)
    sim.run()
    assert qp_b.recv_dropped == 1
    assert len(qp_b.recv_cq) == 0


# ---------------------------------------------------------------------------
# reliability: retransmission and QP error state
# ---------------------------------------------------------------------------

def _lossy_once(link):
    """Make the a->b direction of a link drop its next data frame."""
    half = link._ab
    orig_put = half.put
    state = {"dropped": False}

    def put(frame):
        if not state["dropped"] and frame.kind == "rc_data":
            state["dropped"] = True
            return  # swallow the frame
        return orig_put(frame)

    half.put = put


def test_rc_retransmits_after_loss():
    profile = DEFAULT_PROFILE.with_overrides(rc_retransmit_timeout_us=100.0)
    sim = Simulator()
    fabric = build_back_to_back(sim, profile=profile)
    a, b = fabric.nodes
    qp_a, qp_b = create_connected_rc_pair(a, b)
    _lossy_once(fabric.links[0])
    qp_b.post_recv(RecvWR(4096))
    qp_a.send(256, payload="retry me")

    def receiver():
        wc = yield qp_b.recv_cq.wait()
        return (wc.payload, sim.now)

    payload, t = sim.run(until=sim.process(receiver()))
    assert payload == "retry me"
    assert t > 100.0  # needed at least one timeout period
    assert qp_a.retransmissions >= 1


def test_rc_duplicate_delivery_suppressed():
    """A spurious retransmission must not deliver the message twice."""
    profile = DEFAULT_PROFILE.with_overrides(rc_retransmit_timeout_us=20.0)
    sim = Simulator()
    fabric = build_back_to_back(sim, profile=profile)
    a, b = fabric.nodes
    qp_a, qp_b = create_connected_rc_pair(a, b)
    for _ in range(4):
        qp_b.post_recv(RecvWR(65536))
    for i in range(4):
        qp_a.send(65536, payload=i)  # 32us+ serialization >> 2us timeout

    def receiver():
        got = []
        for _ in range(4):
            wc = yield qp_b.recv_cq.wait()
            got.append(wc.payload)
        return got

    got = sim.run(until=sim.process(receiver()))
    sim.run(until=sim.now + 1000.0)
    assert got == [0, 1, 2, 3]
    assert len(qp_b.recv_cq) == 0  # nothing delivered twice
    assert qp_a.retransmissions >= 1


def test_rc_enters_error_after_retry_budget():
    profile = DEFAULT_PROFILE.with_overrides(rc_retransmit_timeout_us=10.0,
                                             rc_retry_count=2)
    sim = Simulator()
    fabric = build_back_to_back(sim, profile=profile)
    a, b = fabric.nodes
    qp_a, qp_b = create_connected_rc_pair(a, b)
    qp_b.close()  # peer vanishes: frames to it are dropped by the HCA
    qp_a.send(128)

    def waiter():
        wc = yield qp_a.send_cq.wait()
        return wc

    wc = sim.run(until=sim.process(waiter()))
    assert wc.status is WCStatus.RETRY_EXC_ERR
    assert qp_a.state is QPState.ERROR


def test_rc_flushes_backlog_in_error_state():
    profile = DEFAULT_PROFILE.with_overrides(rc_retransmit_timeout_us=10.0,
                                             rc_retry_count=1)
    sim = Simulator()
    fabric = build_back_to_back(sim, profile=profile)
    a, b = fabric.nodes
    qp_a, qp_b = create_connected_rc_pair(a, b, send_window=1)
    qp_b.close()
    for _ in range(3):
        qp_a.send(128)

    def waiter():
        statuses = []
        for _ in range(3):
            wc = yield qp_a.send_cq.wait()
            statuses.append(wc.status)
        return statuses

    statuses = sim.run(until=sim.process(waiter()))
    assert statuses[0] is WCStatus.RETRY_EXC_ERR
    assert all(s in (WCStatus.RETRY_EXC_ERR, WCStatus.WR_FLUSH_ERR)
               for s in statuses)


# ---------------------------------------------------------------------------
# CQ / MR bookkeeping
# ---------------------------------------------------------------------------

def test_cq_poll_nonblocking(b2b):
    sim, a, b = b2b
    qp_a, qp_b = create_connected_rc_pair(a, b)
    assert qp_a.send_cq.poll() == []
    qp_b.post_recv(RecvWR(256))
    qp_a.send(256)
    sim.run()
    wcs = qp_b.recv_cq.poll()
    assert len(wcs) == 1 and wcs[0].byte_len == 256


def test_mr_bounds_checking():
    pd = ProtectionDomain()
    mr = MemoryRegion(pd, 4096)
    mr.check(0, 4096)
    with pytest.raises(ValueError):
        mr.check(1, 4096)
    with pytest.raises(ValueError):
        MemoryRegion(pd, 0)


def test_mr_keys_unique():
    pd = ProtectionDomain()
    keys = {MemoryRegion(pd, 16).lkey for _ in range(10)}
    assert len(keys) == 10


# ---------------------------------------------------------------------------
# perftest sanity
# ---------------------------------------------------------------------------

def test_perftest_latency_scales_with_size(b2b):
    sim, a, b = b2b
    small = perftest.run_send_lat(sim, a, b, 2, iters=10)
    large = perftest.run_send_lat(sim, a, b, 65536, iters=10)
    assert large > small + 10.0  # serialization dominates


def test_perftest_bw_requires_two_iters(b2b):
    sim, a, b = b2b
    with pytest.raises(ValueError):
        perftest.run_send_bw(sim, a, b, 1024, iters=1)


def test_perftest_unknown_transport(b2b):
    sim, a, b = b2b
    with pytest.raises(ValueError):
        perftest.run_send_bw(sim, a, b, 1024, transport="xrc")


def test_bidir_roughly_double_unidir():
    sim = Simulator()
    f = build_cluster_of_clusters(sim, 1, 1, wan_delay_us=0.0)
    a, b = f.cluster_a[0], f.cluster_b[0]
    uni = perftest.run_send_bw(sim, a, b, 1024 * 1024, iters=24)
    bidir = perftest.run_bidir_bw(sim, a, b, 1024 * 1024, iters=24)
    assert bidir == pytest.approx(2 * uni, rel=0.1)


def test_write_bw_reaches_wire_speed():
    sim = Simulator()
    f = build_cluster_of_clusters(sim, 1, 1, wan_delay_us=0.0)
    bw = perftest.run_write_bw(sim, f.cluster_a[0], f.cluster_b[0],
                               size=1024 * 1024, iters=24)
    assert bw > 0.9 * DEFAULT_PROFILE.sdr_rate
