"""The fault-injection test wall: plans, recovery at every layer, and
the hardened scheduler.

Covers the ``repro.faults`` subsystem end to end:

* spec grammar round-trips and validation;
* the zero-overhead contract (an armed-but-empty plan changes nothing);
* fixed-seed determinism, including ``--jobs 1`` vs ``--jobs N``;
* recovery per layer — RC retry-budget exhaustion + reconnect, TCP
  RTO/fast-retransmit, NFS RPC retransmission + duplicate-request
  cache, MPI typed errors instead of deadlock, Longbow buffer overruns;
* scheduler hardening — per-task timeouts, retry after a worker is
  SIGKILLed, ``keep_going`` failure reports, incremental cache saves.
"""

import os
import signal
import time

import pytest

from repro.calibration import KB, MB
from repro.core import registry as reg
from repro.exp import ResultCache, run_experiments
from repro.exp.backends import local
from repro.fabric import build_cluster, build_cluster_of_clusters
from repro.faults import DelaySpike, FaultPlan, GilbertElliott, LinkFlap
from repro.faults.workloads import (fault_profile, run_nfs_goodput,
                                    run_rc_goodput, run_tcp_goodput,
                                    run_ud_goodput)
from repro.mpi import MPICommError, MPIJob
from repro.nfs import RPCTimeoutError
from repro.nfs.iozone import mount
from repro.nfs.rpc import RdmaRpcClient, RdmaRpcServer
from repro.sim import Simulator
from repro.verbs import reconnect_rc_pair
from repro.verbs.device import create_connected_rc_pair
from repro.verbs.ops import RecvWR
from repro.verbs.qp import QPState

_HUGE = 1 << 40


# ---------------------------------------------------------------------------
# FaultPlan: spec grammar, validation, round trips
# ---------------------------------------------------------------------------

FULL_SPEC = ("burst=0.4/0.05/0.3,jitter=12,flap@20000:5000,"
             "spike@1000:500:250,overrun=8192,seed=7")


def test_parse_full_spec():
    plan = FaultPlan.parse(FULL_SPEC)
    assert plan.loss == GilbertElliott(0.0, 0.4, 0.05, 0.3)
    assert plan.loss.is_bursty
    assert plan.jitter_us == 12.0
    assert plan.flaps == (LinkFlap(20000.0, 5000.0),)
    assert plan.spikes == (DelaySpike(1000.0, 500.0, 250.0),)
    assert plan.overrun_bytes == 8192
    assert plan.seed == 7


def test_spec_round_trip_is_identity():
    plan = FaultPlan.parse(FULL_SPEC)
    assert FaultPlan.parse(plan.to_spec()) == plan


def test_uniform_loss_token():
    plan = FaultPlan.parse("loss=0.25")
    assert plan.loss == GilbertElliott(0.25, 0.25)
    assert not plan.loss.is_bursty
    assert "loss=0.25" in plan.to_spec()


def test_empty_spec_is_the_default_plan():
    assert FaultPlan.parse("") == FaultPlan()
    assert FaultPlan.parse(" , ,") == FaultPlan()


def test_flaps_and_spikes_are_sorted():
    plan = FaultPlan(flaps=(LinkFlap(200.0, 10.0), LinkFlap(50.0, 10.0)),
                     spikes=(DelaySpike(90.0, 5.0, 1.0),
                             DelaySpike(10.0, 5.0, 1.0)))
    assert plan.flaps[0].at_us == 50.0
    assert plan.spikes[0].at_us == 10.0


@pytest.mark.parametrize("spec", [
    "loss=1.5",            # probability out of range
    "loss=1.0",            # loss state probabilities live in [0, 1)
    "burst=0.4/1.5/0.3",   # transition probability > 1
    "jitter=-2",           # negative jitter
    "flap@100",            # missing duration
    "flap@-5:100",         # negative start
    "flap@100:0",          # zero duration
    "spike@1:2:-3",        # negative extra delay
    "overrun=0",           # non-positive cap
    "wat=3",               # unknown token
])
def test_bad_specs_raise_value_error(spec):
    with pytest.raises(ValueError):
        FaultPlan.parse(spec)


def test_apply_requires_a_wan_fabric():
    sim = Simulator()
    fabric = build_cluster(sim, 2)
    with pytest.raises(ValueError, match="no Longbow pair"):
        FaultPlan.parse("loss=0.1").apply(fabric)


def test_apply_sets_faults_active_and_flags_injector():
    sim = Simulator()
    fabric = build_cluster_of_clusters(sim, 1, 1, wan_delay_us=10.0)
    assert not getattr(fabric, "faults_active", False)
    injector = FaultPlan.parse("flap@100:50,seed=1").apply(fabric)
    assert fabric.faults_active
    assert fabric.fault_injector is injector


def test_flap_windows_and_spikes_are_pure_time_functions():
    sim = Simulator()
    fabric = build_cluster_of_clusters(sim, 1, 1, wan_delay_us=10.0)
    plan = FaultPlan.parse("flap@100:50,spike@300:100:40,seed=1")
    injector = fabric.wan.wan_link.apply_faults(plan)
    assert not injector.is_down(99.0)
    assert injector.is_down(100.0) and injector.is_down(149.9)
    assert not injector.is_down(150.0)
    assert injector.extra_delay(299.0) == 0.0
    assert injector.extra_delay(350.0) == 40.0
    assert injector.extra_delay(400.0) == 0.0


# ---------------------------------------------------------------------------
# Zero overhead and determinism
# ---------------------------------------------------------------------------

def test_armed_empty_plan_changes_nothing():
    """A plan with no faults (seed only) must be behaviourally inert:
    identical goodput, identical frame counts."""
    clean = run_ud_goodput(10.0, None, duration_us=8000.0)
    armed = run_ud_goodput(10.0, FaultPlan.parse("seed=9"),
                           duration_us=8000.0)
    assert armed == clean


def test_fixed_seed_is_reproducible():
    spec = "burst=0.4/0.1/0.3,jitter=15,spike@3000:2000:500,seed=17"
    a = run_rc_goodput(100.0, FaultPlan.parse(spec), duration_us=15000.0)
    b = run_rc_goodput(100.0, FaultPlan.parse(spec), duration_us=15000.0)
    assert a == b
    assert a["wan_frames_dropped"] > 0


def test_different_seeds_differ():
    spec = "burst=0.5/0.1/0.3,seed={}"
    a = run_ud_goodput(10.0, FaultPlan.parse(spec.format(1)),
                       duration_us=10000.0)
    b = run_ud_goodput(10.0, FaultPlan.parse(spec.format(2)),
                       duration_us=10000.0)
    assert a["wan_frames_dropped"] != b["wan_frames_dropped"]


def test_faulted_experiment_bytes_identical_serial_vs_parallel():
    """The acceptance bar: a faulted sweep is byte-identical under
    ``--jobs 1`` and ``--jobs N``."""
    spec = "burst=0.3/0.1/0.3,seed=11"
    serial = run_experiments(["flt01b"], quick=True, jobs=1,
                             faults_spec=spec)
    parallel = run_experiments(["flt01b"], quick=True, jobs=2,
                               faults_spec=spec)
    assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]


# ---------------------------------------------------------------------------
# Per-layer recovery
# ---------------------------------------------------------------------------

def test_rc_retry_budget_exhaustion_then_reconnect():
    """A flap outlasting the RC retry budget drives the QP to ERROR;
    after the flap, reconnect_rc_pair restores a working connection."""
    sim = Simulator()
    profile = fault_profile(100.0)
    fabric = build_cluster_of_clusters(sim, 1, 1, wan_delay_us=100.0,
                                       profile=profile)
    FaultPlan.parse("flap@0:20000,seed=1").apply(fabric)
    qa, qb = create_connected_rc_pair(fabric.cluster_a[0],
                                      fabric.cluster_b[0])
    for _ in range(8):
        qb.post_recv(RecvWR(_HUGE))

    qa.send(64 * KB)
    sim.run(until=qa.error_event)
    assert qa.state is QPState.ERROR
    assert qa.retransmissions >= 1
    assert sim.now < 20000.0  # budget exhausted while the link was down

    sim.run(until=21000.0)  # flap is over
    reconnect_rc_pair(qa, qb)
    assert qa.state is QPState.RTS and qb.state is QPState.RTS

    got = {}

    def rx():
        got["wc"] = yield qb.recv_cq.wait()

    sim.process(rx(), name="t.rx")
    qa.send(4096)
    sim.run(until=30000.0)
    assert got["wc"].ok and got["wc"].byte_len == 4096


def test_rc_goodput_supervisor_reconnects_after_flap():
    plan = FaultPlan.parse("flap@5000:15000,seed=7")
    stats = run_rc_goodput(100.0, plan, duration_us=60000.0)
    assert stats["qp_errors"] >= 1
    assert stats["reconnects"] >= 1
    assert stats["rc_retransmissions"] >= 1
    assert stats["goodput_mb_s"] > 0  # traffic resumed after the flap


def test_rc_loss_hurts_relatively_more_at_high_delay():
    """The paper's WAN story, extended: the same loss rate costs RC a
    larger goodput fraction over a long pipe (each retransmission burns
    a full RTT)."""
    spec = "burst=0.08/0.1/0.3,seed=23"
    near_clean = run_rc_goodput(10.0, None, duration_us=20000.0)
    near_lossy = run_rc_goodput(10.0, FaultPlan.parse(spec),
                                duration_us=20000.0)
    far_clean = run_rc_goodput(1000.0, None, duration_us=20000.0)
    far_lossy = run_rc_goodput(1000.0, FaultPlan.parse(spec),
                               duration_us=20000.0)
    rel_near = near_lossy["goodput_mb_s"] / near_clean["goodput_mb_s"]
    rel_far = far_lossy["goodput_mb_s"] / far_clean["goodput_mb_s"]
    assert rel_far < rel_near < 1.0


def test_ud_loss_is_delay_independent():
    """UD has no recovery: goodput drops by the delivered fraction and
    is insensitive to the WAN delay (paced open loop)."""
    spec = "loss=0.2,seed=5"
    clean = run_ud_goodput(10.0, None, duration_us=20000.0)
    near = run_ud_goodput(10.0, FaultPlan.parse(spec), duration_us=20000.0)
    far = run_ud_goodput(1000.0, FaultPlan.parse(spec),
                         duration_us=20000.0)
    assert near["goodput_mb_s"] < 0.92 * clean["goodput_mb_s"]
    assert near["wan_frames_dropped"] > 0
    # delay independence, modulo the ramp while the pipe fills
    assert abs(near["goodput_mb_s"] - far["goodput_mb_s"]) \
        < 0.15 * near["goodput_mb_s"]


def test_tcp_transfer_completes_under_burst_loss():
    clean = run_tcp_goodput(100.0, None, total_bytes=MB)
    lossy = run_tcp_goodput(100.0,
                            FaultPlan.parse("burst=0.3/0.05/0.3,seed=9"),
                            total_bytes=MB)
    assert lossy["wan_frames_dropped"] > 0
    assert 0 < lossy["goodput_mb_s"] < clean["goodput_mb_s"]


def test_tcp_connect_survives_syn_loss():
    """SYN/SYN-ACK retransmission: loss=0.1,seed=5 drops the handshake,
    which hung connect() forever before SYN retries existed."""
    stats = run_tcp_goodput(100.0, FaultPlan.parse("loss=0.1,seed=5"),
                            total_bytes=MB)
    assert stats["goodput_mb_s"] > 0


def test_tcp_connect_times_out_on_permanent_outage():
    with pytest.raises(ConnectionError, match="timed out"):
        run_tcp_goodput(100.0, FaultPlan.parse("flap@0:1000000000,seed=1"),
                        total_bytes=MB)


def test_nfs_rdma_recovers_from_flap():
    plan = FaultPlan.parse("flap@2000:8000,seed=4")
    stats = run_nfs_goodput(100.0, plan, read_bytes=MB)
    assert stats["wan_frames_dropped"] > 0
    assert stats["goodput_mb_s"] > 0


def test_rdma_rpc_retransmits_and_server_dedups():
    """A delay spike pushes the first reply past the RPC timeout: the
    client retransmits under the same xid, the server's duplicate-
    request cache replays instead of re-executing, and the call still
    returns the right answer exactly once."""
    sim = Simulator()
    fabric = build_cluster_of_clusters(sim, 1, 1, wan_delay_us=100.0)
    FaultPlan.parse("spike@0:30000:8000,seed=2").apply(fabric)
    calls = {"n": 0}

    def handler(proc, args):
        calls["n"] += 1
        yield sim.timeout(10.0)
        return 4096, ("ok", args)

    server = RdmaRpcServer(fabric.cluster_b[0], handler)
    client = RdmaRpcClient(fabric.cluster_a[0], server,
                           call_timeout_us=2000.0, max_retries=8,
                           backoff=2.0)
    out = {}

    def main():
        out["result"] = yield from client.call("read", ("x",), req_bytes=64)

    done = sim.process(main(), name="t.drc")
    sim.run(until=done)
    assert out["result"] == ("ok", ("x",))
    assert client.rpc_retries >= 1
    assert calls["n"] == 1, "duplicate xid re-executed the handler"


def test_tcp_rpc_mount_retries_through_delay_spike():
    sim = Simulator()
    fabric = build_cluster_of_clusters(sim, 1, 1, wan_delay_us=100.0)
    FaultPlan.parse("spike@0:40000:9000,seed=3").apply(fabric)
    server, factory = mount(fabric, fabric.cluster_b[0],
                            fabric.cluster_a[0], "ipoib-ud",
                            rpc_timeout_us=3000.0, rpc_max_retries=8)
    server.export("/data", MB)
    out = {}

    def main():
        client = yield from factory()
        out["got"] = yield from client.read("/data", 0, 64 * KB)
        out["retries"] = client.rpc.rpc_retries

    done = sim.process(main(), name="t.tcp.rpc")
    sim.run(until=done)
    assert out["got"] == 64 * KB
    assert out["retries"] >= 1


def test_nfs_rpc_times_out_on_permanent_outage():
    sim = Simulator()
    profile = fault_profile(100.0)
    fabric = build_cluster_of_clusters(sim, 1, 1, wan_delay_us=100.0,
                                       profile=profile)
    FaultPlan.parse("flap@0:1000000000,seed=6").apply(fabric)
    server, factory = mount(fabric, fabric.cluster_b[0],
                            fabric.cluster_a[0], "rdma",
                            rpc_timeout_us=2000.0, rpc_max_retries=3)
    server.export("/data", MB)
    out = {}

    def main():
        client = yield from factory()
        try:
            yield from client.read("/data", 0, 4096)
        except RPCTimeoutError as exc:
            out["exc"] = exc

    done = sim.process(main(), name="t.nfs.timeout")
    sim.run(until=done)
    assert isinstance(out.get("exc"), RPCTimeoutError)
    assert "4 attempts" in str(out["exc"])


def test_mpi_send_fails_typed_instead_of_deadlocking():
    sim = Simulator()
    profile = fault_profile(100.0)
    fabric = build_cluster_of_clusters(sim, 1, 1, wan_delay_us=100.0,
                                       profile=profile)
    FaultPlan.parse("flap@0:1000000000,seed=3").apply(fabric)
    job = MPIJob(fabric, nprocs=2, placement="cyclic")

    def prog(proc):
        if proc.rank == 0:
            try:
                yield from proc.send(1, 1024, tag=1)
            except MPICommError:
                return "failed"
            return "sent"
        return None

    results = job.run(prog)
    assert results[0] == "failed"


def test_longbow_overrun_drops_frames():
    sim = Simulator()
    profile = fault_profile(10.0)
    fabric = build_cluster_of_clusters(sim, 1, 1, wan_delay_us=10.0,
                                       profile=profile)
    FaultPlan.parse("overrun=4000,seed=1").apply(fabric)
    assert fabric.wan.a.ingress_limit_bytes == 4000
    assert fabric.wan.b.ingress_limit_bytes == 4000
    qa, qb = create_connected_rc_pair(fabric.cluster_a[0],
                                      fabric.cluster_b[0])
    for _ in range(8):
        qb.post_recv(RecvWR(_HUGE))
    qa.send(64 * KB)  # far larger than the shrunken ingress buffer
    sim.run(until=15000.0)
    assert fabric.wan.a.frames_dropped_overrun > 0


def test_ingress_limit_validates():
    sim = Simulator()
    fabric = build_cluster_of_clusters(sim, 1, 1, wan_delay_us=10.0)
    with pytest.raises(ValueError):
        fabric.wan.a.set_ingress_limit(0)


# ---------------------------------------------------------------------------
# Hardened scheduler: timeouts, crashes, keep_going, incremental cache
# ---------------------------------------------------------------------------

_PREFIX = "tstflt-"


def _fixture_rows(quick):
    return ["n"], [(3,)], "scheduler-hardening fixture"


def _flaky(quick):
    sentinel = os.environ.get("REPRO_TEST_FLAKY_SENTINEL", "")
    if sentinel and os.path.exists(sentinel):
        os.unlink(sentinel)
        raise RuntimeError("injected transient failure")
    return _fixture_rows(quick)


def _always_fail(quick):
    raise RuntimeError("injected permanent failure")


def _kill_self_once(quick):
    sentinel = os.environ.get("REPRO_TEST_KILL_SENTINEL", "")
    if sentinel and os.path.exists(sentinel):
        os.unlink(sentinel)
        os.kill(os.getpid(), signal.SIGKILL)
    return _fixture_rows(quick)


def _sleepy(quick):
    time.sleep(5.0)
    return _fixture_rows(quick)


reg.experiment(_PREFIX + "ok", "always succeeds")(_fixture_rows)
reg.experiment(_PREFIX + "flaky", "fails once, then succeeds")(_flaky)
reg.experiment(_PREFIX + "fail", "always fails")(_always_fail)
reg.experiment(_PREFIX + "kill", "SIGKILLs its worker once")(_kill_self_once)
reg.experiment(_PREFIX + "sleep", "overruns any sane budget")(_sleepy)


@pytest.fixture(scope="module", autouse=True)
def _deregister_fixture_experiments():
    yield
    for exp_id in list(reg.EXPERIMENTS):
        if exp_id.startswith(_PREFIX):
            reg.EXPERIMENTS.pop(exp_id, None)
            reg.CELL_PLANS.pop(exp_id, None)


def test_failure_raises_by_default():
    with pytest.raises(RuntimeError, match="injected permanent failure"):
        run_experiments([_PREFIX + "fail"], quick=True, jobs=1)


def test_serial_retry_recovers_transient_failure(tmp_path, monkeypatch):
    sentinel = tmp_path / "flake-once"
    sentinel.touch()
    monkeypatch.setenv("REPRO_TEST_FLAKY_SENTINEL", str(sentinel))
    monkeypatch.setattr(local, "BACKOFF_S", 0.01)
    failures = []
    results = run_experiments([_PREFIX + "flaky"], quick=True, jobs=1,
                              retries=1, failures=failures)
    assert not failures
    assert results[0].rows == [(3,)]
    assert not sentinel.exists()


def test_pool_survives_sigkilled_worker(tmp_path, monkeypatch):
    """A worker killed outright breaks the pool; a fresh pool retries
    the unfinished tasks and the sweep still completes byte-identically
    to a clean run."""
    sentinel = tmp_path / "kill-once"
    sentinel.touch()
    monkeypatch.setenv("REPRO_TEST_KILL_SENTINEL", str(sentinel))
    monkeypatch.setattr(local, "BACKOFF_S", 0.01)
    failures = []
    results = run_experiments([_PREFIX + "kill", _PREFIX + "ok"],
                              quick=True, jobs=2, retries=1,
                              failures=failures)
    assert not failures
    assert not sentinel.exists()
    clean = run_experiments([_PREFIX + "kill", _PREFIX + "ok"],
                            quick=True, jobs=1)
    assert [r.to_json() for r in results] == [r.to_json() for r in clean]


def test_keep_going_reports_failure_and_salvages_the_rest(tmp_path,
                                                          monkeypatch):
    monkeypatch.setattr(local, "BACKOFF_S", 0.01)
    cache = ResultCache(tmp_path / "cache")
    failures = []
    results = run_experiments([_PREFIX + "fail", _PREFIX + "ok"],
                              quick=True, jobs=2, retries=1,
                              keep_going=True,
                              failures=failures, cache=cache)
    assert [r.exp_id for r in results] == [_PREFIX + "ok"]
    assert len(failures) == 1
    assert failures[0].exp_id == _PREFIX + "fail"
    assert failures[0].attempts == 2
    assert "injected permanent failure" in failures[0].error
    # incremental save: the healthy experiment was cached despite the
    # failure next to it
    assert cache.load(_PREFIX + "ok", True) is not None


def test_serial_keep_going_matches_pool_semantics():
    failures = []
    results = run_experiments([_PREFIX + "fail", _PREFIX + "ok"],
                              quick=True, jobs=1, keep_going=True,
                              failures=failures)
    assert [r.exp_id for r in results] == [_PREFIX + "ok"]
    assert failures[0].exp_id == _PREFIX + "fail"
    assert failures[0].attempts == 1


def test_timeout_fails_runaway_task_serial():
    failures = []
    t0 = time.monotonic()
    results = run_experiments([_PREFIX + "sleep"], quick=True, jobs=1,
                              timeout_s=0.3, keep_going=True,
                              failures=failures)
    assert time.monotonic() - t0 < 4.0
    assert results == []
    assert failures and "TimeoutError" in failures[0].error


def test_timeout_fails_runaway_task_in_pool():
    failures = []
    results = run_experiments([_PREFIX + "sleep", _PREFIX + "ok"],
                              quick=True, jobs=2, timeout_s=0.3,
                              keep_going=True, failures=failures)
    assert [r.exp_id for r in results] == [_PREFIX + "ok"]
    assert failures and failures[0].exp_id == _PREFIX + "sleep"


def test_invalid_retries_rejected():
    with pytest.raises(ValueError):
        run_experiments([_PREFIX + "ok"], quick=True, jobs=1, retries=-1)
