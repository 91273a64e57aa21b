"""Unit tests for MPI point-to-point: matching, eager, rendezvous."""

import pytest

from repro.calibration import KB, MB
from repro.fabric import build_cluster_of_clusters
from repro.mpi import ANY_SOURCE, ANY_TAG, MPIJob, MPITuning
from repro.sim import Simulator


def _job(nprocs=2, delay=0.0, nodes=(1, 1), tuning=None, placement="cyclic",
         ppn=1):
    sim = Simulator()
    fabric = build_cluster_of_clusters(sim, nodes[0], nodes[1],
                                       wan_delay_us=delay)
    job = MPIJob(fabric, nprocs=nprocs, ppn=ppn, placement=placement,
                 tuning=tuning or MPITuning())
    return sim, job


# ---------------------------------------------------------------------------
# basic semantics
# ---------------------------------------------------------------------------

def test_eager_send_recv_payload():
    sim, job = _job()

    def prog(proc):
        if proc.rank == 0:
            yield from proc.send(1, 100, tag=5, payload={"x": 1})
        else:
            req = yield from proc.recv(src=0, tag=5)
            return (req.src, req.tag, req.size, req.data)

    results = job.run(prog)
    assert results[1] == (0, 5, 100, {"x": 1})


def test_rendezvous_send_recv_payload():
    sim, job = _job()

    def prog(proc):
        if proc.rank == 0:
            yield from proc.send(1, 1 * MB, tag=5, payload="bulk")
        else:
            req = yield from proc.recv(src=0, tag=5)
            return req.data

    assert job.run(prog)[1] == "bulk"


def test_messages_arrive_in_order_same_pair():
    sim, job = _job()
    N = 30

    def prog(proc):
        if proc.rank == 0:
            for i in range(N):
                proc.isend(1, 64, tag=1, payload=i)
            yield from proc.recv(src=1, tag=2)
        else:
            got = []
            for _ in range(N):
                req = yield from proc.recv(src=0, tag=1)
                got.append(req.data)
            yield from proc.send(0, 1, tag=2)
            return got

    assert job.run(prog)[1] == list(range(N))


def test_tag_matching_selects_correct_message():
    sim, job = _job()

    def prog(proc):
        if proc.rank == 0:
            proc.isend(1, 10, tag=7, payload="seven")
            proc.isend(1, 10, tag=9, payload="nine")
            yield from proc.recv(src=1, tag=0)
        else:
            nine = yield from proc.recv(src=0, tag=9)
            seven = yield from proc.recv(src=0, tag=7)
            yield from proc.send(0, 1, tag=0)
            return (nine.data, seven.data)

    assert job.run(prog)[1] == ("nine", "seven")


def test_wildcard_source_and_tag():
    sim, job = _job(nprocs=3, nodes=(2, 1))

    def prog(proc):
        if proc.rank == 0:
            got = []
            for _ in range(2):
                req = yield from proc.recv(src=ANY_SOURCE, tag=ANY_TAG)
                got.append(req.src)
            return sorted(got)
        yield from proc.send(0, 32, tag=proc.rank)

    assert job.run(prog)[0] == [1, 2]


def test_unexpected_messages_buffered():
    sim, job = _job()

    def prog(proc):
        if proc.rank == 0:
            proc.isend(1, 100, tag=3, payload="early")
            yield from proc.recv(src=1, tag=4)
        else:
            yield from proc.compute(500.0)  # message arrives before recv
            req = yield from proc.recv(src=0, tag=3)
            yield from proc.send(0, 1, tag=4)
            return req.data

    assert job.run(prog)[1] == "early"


def test_rendezvous_waits_for_matching_recv():
    """RTS must not transfer data until the receive is posted."""
    sim, job = _job()
    timeline = {}

    def prog(proc):
        if proc.rank == 0:
            req = proc.isend(1, 1 * MB, tag=3)
            yield req.event
            timeline["send_done"] = sim.now
        else:
            yield from proc.compute(5000.0)
            timeline["recv_posted"] = sim.now
            yield from proc.recv(src=0, tag=3)

    job.run(prog)
    assert timeline["send_done"] > timeline["recv_posted"]


def test_self_send_rejected():
    sim, job = _job()

    def prog(proc):
        if proc.rank == 0:
            with pytest.raises(ValueError):
                proc.isend(0, 10)
        yield proc.sim.timeout(1.0)

    job.run(prog)


def test_negative_size_rejected():
    sim, job = _job()

    def prog(proc):
        if proc.rank == 0:
            with pytest.raises(ValueError):
                proc.isend(1, -1)
        yield proc.sim.timeout(1.0)

    job.run(prog)


def test_sendrecv_crosses_without_deadlock():
    sim, job = _job()

    def prog(proc):
        peer = 1 - proc.rank
        req = yield from proc.sendrecv(peer, 256 * KB)
        return req.size

    assert job.run(prog) == [256 * KB, 256 * KB]


def test_isend_overlaps_with_compute():
    sim, job = _job(delay=1000.0)

    def prog(proc):
        if proc.rank == 0:
            t0 = sim.now
            req = proc.isend(1, 1 * MB, tag=1)
            yield from proc.compute(3000.0)  # overlaps the WAN transfer
            yield req.event
            return sim.now - t0
        yield from proc.recv(src=0, tag=1)

    elapsed = job.run(prog)[0]
    # transfer needs >= 2 RTTs (rendezvous) ~ 4000+; compute is absorbed
    assert elapsed < 3000.0 + 4000.0


# ---------------------------------------------------------------------------
# protocol selection / tuning
# ---------------------------------------------------------------------------

def test_threshold_selects_protocol():
    sim, job = _job(tuning=MPITuning(eager_threshold=1 * KB))
    kinds = {}

    def prog(proc):
        if proc.rank == 0:
            kinds["small"] = 1023 < job.tuning.eager_threshold
            yield from proc.send(1, 1023)
            yield from proc.send(1, 1024)
        else:
            yield from proc.recv(src=0)
            yield from proc.recv(src=0)
            return proc.messages_sent  # CTS for the rendezvous one only

    # receiver sent exactly one control message (the CTS)
    assert job.run(prog)[1] == 1


def test_higher_threshold_improves_medium_bw_at_high_delay():
    from repro.mpi.benchmarks import run_osu_bw
    sim = Simulator()
    f = build_cluster_of_clusters(sim, 1, 1, wan_delay_us=10000.0)
    orig = run_osu_bw(sim, f, 16 * KB, window=16, iters=3)
    sim2 = Simulator()
    f2 = build_cluster_of_clusters(sim2, 1, 1, wan_delay_us=10000.0)
    tuned = run_osu_bw(sim2, f2, 16 * KB, window=16, iters=3,
                       tuning=MPITuning(eager_threshold=64 * KB))
    assert tuned > 1.5 * orig


def test_one_slot_recv_ring_under_an_eager_burst(monkeypatch):
    """With ``recv_ring=1`` a burst of eager sends outruns the ring:
    arrivals wait in the RC receiver-not-ready backlog and are drained
    one replenish at a time.  Timings are the ones a full ring gives."""
    from repro.verbs.rc import RCQueuePair
    drained = []
    hook = RCQueuePair._on_recv_posted

    def counting_hook(qp):
        drained.append(len(qp._rnr_backlog))
        hook(qp)

    monkeypatch.setattr(RCQueuePair, "_on_recv_posted", counting_hook)

    def burst(ring):
        sim, job = _job(delay=100.0, tuning=MPITuning(recv_ring=ring))

        def prog(proc):
            if proc.rank == 0:
                for i in range(40):
                    proc.isend(1, 8, tag=1, payload=i)
                yield from proc.recv(src=1, tag=2)
                return sim.now
            got = []
            for _ in range(40):
                req = yield from proc.recv(src=0, tag=1)
                got.append((req.data, sim.now))
            yield from proc.send(0, 8, tag=2)
            return got

        results = job.run(prog)
        return results, sim.now, job.procs[1]._qps[0].recv_posted_total

    drained.clear()
    one, one_end, one_posted = burst(1)
    assert max(drained) > 0  # the backlog was exercised
    # Recorded when the ring was posted one descriptor object at a time.
    assert one_end == 751.9872 and one[0] == 646.5695999999999
    assert one[1][16] == (16, 321.8848)
    assert one[1][-1] == (39, 538.1847999999999)
    full, full_end, full_posted = burst(512)
    assert full_end == one_end and full[0] == one[0]
    assert [d for d, _ in one[1]] == [d for d, _ in full[1]] == list(range(40))
    assert [t for _, t in one[1]] == pytest.approx([t for _, t in full[1]])
    assert (one_posted, full_posted) == (1 + 40, 512 + 40)


def test_mpi_latency_tracks_wan_delay():
    from repro.mpi.benchmarks import run_osu_latency
    sim = Simulator()
    f = build_cluster_of_clusters(sim, 1, 1, wan_delay_us=0.0)
    base = run_osu_latency(sim, f, 8, iters=10)
    sim2 = Simulator()
    f2 = build_cluster_of_clusters(sim2, 1, 1, wan_delay_us=500.0)
    far = run_osu_latency(sim2, f2, 8, iters=10)
    assert far == pytest.approx(base + 500.0, rel=0.02)


# ---------------------------------------------------------------------------
# placement
# ---------------------------------------------------------------------------

def test_block_placement_splits_clusters():
    sim, job = _job(nprocs=4, nodes=(2, 2), placement="block")
    assert job.cluster_of == ["A", "A", "B", "B"]


def test_cyclic_placement_alternates():
    sim, job = _job(nprocs=4, nodes=(2, 2), placement="cyclic")
    assert job.cluster_of == ["A", "B", "A", "B"]


def test_ppn_places_multiple_ranks_per_node():
    sim, job = _job(nprocs=4, nodes=(1, 1), placement="block", ppn=2)
    assert job.procs[0].node is job.procs[1].node
    assert job.procs[2].node is job.procs[3].node
    assert job.procs[0].node is not job.procs[2].node


def test_too_many_ranks_rejected():
    sim = Simulator()
    fabric = build_cluster_of_clusters(sim, 1, 1)
    with pytest.raises(ValueError):
        MPIJob(fabric, nprocs=5, ppn=1)


def test_invalid_placement_rejected():
    sim = Simulator()
    fabric = build_cluster_of_clusters(sim, 1, 1)
    with pytest.raises(ValueError):
        MPIJob(fabric, placement="scatter")


def test_ranks_in_cluster_query():
    sim, job = _job(nprocs=4, nodes=(2, 2), placement="block")
    assert job.ranks_in_cluster("A") == [0, 1]
    assert job.ranks_in_cluster("B") == [2, 3]
    assert job.clusters() == ["A", "B"]
