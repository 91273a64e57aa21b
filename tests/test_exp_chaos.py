"""Chaos wall for :mod:`repro.exp.chaos` and the hardened socket stack.

The contract: a chaos run **either completes byte-identical to a serial
run or fails closed with a typed error** — and the same seed makes the
same injection decisions, so a chaos failure is replayable.

Layers:

* the spec grammar (parse / round-trip / typed rejection);
* :class:`FrameInjector` determinism — the decision for frame *k* is a
  pure function of ``(seed, connection, direction, k)``;
* the live proxy: probabilistic faults, hard resets, half-open
  partitions, freezes and heartbeat delays against real socket workers,
  all byte-identical to the serial baseline;
* version negotiation failing closed in both directions;
* graceful degradation: no worker inside the connect budget ⇒ local
  fallback, with the result store unchanged.
"""

import contextlib
import json
import socket as socketlib
import threading
import time

import pytest

from repro.core import registry
from repro.exp import run_experiments
from repro.exp.backends import SocketWorkerBackend
from repro.exp.chaos import (ChaosError, ChaosPlan, FrameInjector,
                             ResetInjected, maybe_crash,
                             reset_crash_counts)
from repro.exp.planner import RunContext
from repro.exp.protocol import (PROTOCOL_VERSION, package_version,
                                recv_frame, send_frame)
from repro.exp.worker import serve
from repro.obs import MetricsRegistry, use_registry

SUBSET = ["table1", "fig04a", "fig13b"]     # 5 tasks: 2 whole + 3 cells
CTX = RunContext(quick=True)


@pytest.fixture(scope="module")
def serial_bytes():
    """The reference store, built without the scheduler."""
    return {exp_id: registry.run_experiment(exp_id, True).to_json()
            for exp_id in SUBSET}


def _assert_identical(results, serial_bytes, ids=SUBSET):
    assert [r.exp_id for r in results] == list(ids)
    for result in results:
        assert result.to_json() == serial_bytes[result.exp_id]


@contextlib.contextmanager
def thread_workers(address, n, stagger_s=0.0):
    host, port = address
    threads = []

    def _one(i):
        if stagger_s:
            time.sleep(stagger_s * i)
        serve(f"{host}:{port}", worker_id=f"chaos-{i}", timeout_s=30.0,
              connect_budget_s=30.0)

    for i in range(n):
        t = threading.Thread(target=_one, args=(i,), daemon=True)
        t.start()
        threads.append(t)
    try:
        yield threads
    finally:
        for t in threads:
            t.join(timeout=30)


# ---------------------------------------------------------------------------
# spec grammar
# ---------------------------------------------------------------------------

def test_spec_round_trips_through_every_token():
    spec = ("drop=0.1,dup=0.05,reorder=0.2,corrupt=0.01,reset@7,"
            "partition@3:4,freeze@2:0.5,hbdelay=1.5,seed=9")
    plan = ChaosPlan.parse(spec)
    assert plan.drop == 0.1 and plan.dup == 0.05
    assert plan.resets == (7,) and plan.partitions == ((3, 4),)
    assert plan.freezes == ((2, 0.5),) and plan.hb_delay_s == 1.5
    assert plan.seed == 9
    assert ChaosPlan.parse(plan.to_spec()) == plan


def test_empty_spec_is_a_noop_plan():
    assert ChaosPlan.parse("").is_noop
    assert ChaosPlan.parse("seed=5").is_noop
    assert not ChaosPlan.parse("drop=0.1").is_noop


@pytest.mark.parametrize("bad", [
    "drop=1.0", "dup=-0.1", "corrupt=nan", "loss=0.1", "reset@-1",
    "partition@3:0", "freeze@1:-2", "hbdelay=-1", "reset@x", "whatever",
])
def test_bad_specs_raise_typed_errors(bad):
    with pytest.raises(ChaosError):
        ChaosPlan.parse(bad)


# ---------------------------------------------------------------------------
# injector determinism
# ---------------------------------------------------------------------------

def _frame(i):
    body = json.dumps({"type": "RESULT", "i": i}).encode()
    return len(body).to_bytes(4, "big") + body


def _drive(plan, n_frames=40, conn=0, direction="w2c"):
    events = []
    injector = FrameInjector(plan, conn, direction,
                             record=lambda *e: events.append(e))
    forwarded = []
    for i in range(n_frames):
        try:
            _delay, frames = injector.feed(_frame(i), "RESULT")
        except ResetInjected:
            events.append((conn, direction, i, "RESULT", "raised-reset"))
            break
        forwarded.extend(frames)
    forwarded.extend(injector.flush())
    return events, forwarded


def test_identical_seed_identical_event_sequence():
    plan = ChaosPlan.parse("drop=0.2,dup=0.2,reorder=0.2,corrupt=0.1,seed=4")
    assert _drive(plan) == _drive(plan)


def test_different_seeds_make_different_decisions():
    runs = {tuple(_drive(ChaosPlan.parse(f"drop=0.3,dup=0.3,seed={s}"))[0])
            for s in range(5)}
    assert len(runs) == 5


def test_decisions_are_independent_per_connection_and_direction():
    plan = ChaosPlan.parse("drop=0.5,seed=1")
    assert (_drive(plan, conn=0)[0] != _drive(plan, conn=1)[0]
            or _drive(plan, conn=0, direction="c2w")[0]
            != _drive(plan, conn=0)[0])


def test_frame_zero_is_exempt_from_probabilistic_faults():
    # With drop=0.99 essentially everything vanishes — except frame 0.
    plan = ChaosPlan.parse("drop=0.99,seed=0")
    _events, forwarded = _drive(plan, n_frames=30)
    assert forwarded and forwarded[0] == _frame(0)


def test_corruption_is_detectable_never_reparseable():
    corrupted = FrameInjector._corrupt(_frame(3))
    assert corrupted[:4] == _frame(3)[:4]       # length prefix intact
    with pytest.raises(UnicodeDecodeError):
        corrupted[4:].decode()


def test_reset_fires_at_the_named_frame():
    plan = ChaosPlan.parse("reset@5")
    events, forwarded = _drive(plan, n_frames=10)
    assert events[-1][4] == "raised-reset"
    assert len(forwarded) == 5                  # frames 0..4 got through


def test_partition_blackholes_w2c_only():
    plan = ChaosPlan.parse("partition@2:3")
    _events, w2c = _drive(plan, n_frames=8)
    assert len(w2c) == 5                        # frames 2,3,4 blackholed
    _events, c2w = _drive(plan, n_frames=8, direction="c2w")
    assert len(c2w) == 8                        # coordinator side flows


def test_reorder_holds_one_slot_and_flushes_at_eof():
    plan = ChaosPlan.parse("reorder=0.99,seed=2")
    _events, forwarded = _drive(plan, n_frames=3)
    assert sorted(forwarded, key=lambda f: f[4:]) == sorted(
        [_frame(i) for i in range(3)], key=lambda f: f[4:])


# ---------------------------------------------------------------------------
# crash-point plumbing (the non-lethal halves)
# ---------------------------------------------------------------------------

def test_maybe_crash_ignores_other_points_and_counts_hits(monkeypatch):
    reset_crash_counts()
    monkeypatch.setenv("REPRO_EXP_CRASH_POINT", "journal.plan:3")
    maybe_crash("journal.result")       # different point: untouched
    maybe_crash("journal.plan")         # hit 1 of 3: survives
    maybe_crash("journal.plan")         # hit 2 of 3: survives
    reset_crash_counts()


def test_maybe_crash_is_inert_without_the_env(monkeypatch):
    monkeypatch.delenv("REPRO_EXP_CRASH_POINT", raising=False)
    for point in ("journal.plan", "backend.lease", "journal.result",
                  "scheduler.finalize"):
        maybe_crash(point)


# ---------------------------------------------------------------------------
# the live proxy: byte identity under fire
# ---------------------------------------------------------------------------

def _chaos_run(spec, workers=2, ids=SUBSET, lease_timeout_s=5.0):
    backend = SocketWorkerBackend(workers=workers, spawn=False,
                                  lease_timeout_s=lease_timeout_s,
                                  chaos=spec)
    try:
        assert backend.proxy is not None
        assert backend.public_address == backend.proxy.address
        with thread_workers(backend.public_address, workers):
            results = run_experiments(ids, quick=True, backend=backend)
        events = backend.proxy.events()
    finally:
        backend.close()
    return results, events


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_probabilistic_chaos_is_byte_identical(seed, serial_bytes):
    results, _events = _chaos_run(
        f"drop=0.04,dup=0.04,reorder=0.08,corrupt=0.02,seed={seed}")
    _assert_identical(results, serial_bytes)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chaos_over_pipelined_batched_cache_frames(seed, tmp_path,
                                                   serial_bytes):
    """The batched protocol under fire: a deep credit window plus
    CACHE_MGET prefetch and CACHE_MPUT publishes, with frames dropped,
    duplicated, reordered and corrupted.  Sweep 1 populates the shared
    cell cache through chaos; sweep 2 is served from it through chaos.
    Both must match the serial store byte for byte — a lost MGET reply
    degrades to recompute, a corrupted MPUT fails the connection
    closed, never the store."""
    spec = f"drop=0.05,dup=0.05,reorder=0.08,corrupt=0.02,seed={seed}"
    cells = str(tmp_path / "cells")
    for _sweep in range(2):
        backend = SocketWorkerBackend(workers=2, spawn=False,
                                      lease_timeout_s=5.0, chaos=spec,
                                      cache_dir=cells, pipeline=4)
        try:
            with thread_workers(backend.public_address, 2):
                results = run_experiments(SUBSET, quick=True,
                                          backend=backend)
        finally:
            backend.close()
        _assert_identical(results, serial_bytes)


# Targeted scenarios need parameters the fault can't livelock: resets
# repeat per connection, so the per-session frame budget (reset frame
# minus HELLO) must fit the largest single lease — fast tasks only,
# one worker, one RESULT per connection.  Partitions/freezes/delays
# just perturb timing, so the full subset (with its ~7 s cell) rides.
@pytest.mark.parametrize("spec,ids,workers,lease_s", [
    # hard RST after every post-HELLO frame: one RESULT per connection,
    # a reconnect storm the run must absorb
    ("reset@2,seed=1", ["table1", "fig04a"], 1, 10.0),
    # half-open partition: w2c frames 2..7 blackholed while c2w flows —
    # leases expire, reassignment churns until the window passes
    ("partition@2:6,seed=1", SUBSET, 2, 2.0),
    # frozen worker: a stall longer than the lease on frame 3
    ("freeze@3:2.5,seed=1", SUBSET, 2, 2.0),
    # every heartbeat arrives late (and delays the frames behind it)
    ("hbdelay=1.0,seed=1", SUBSET, 2, 2.0),
])
def test_targeted_faults_are_byte_identical(spec, ids, workers, lease_s,
                                            serial_bytes):
    results, events = _chaos_run(spec, workers=workers, ids=ids,
                                 lease_timeout_s=lease_s)
    _assert_identical(results, serial_bytes, ids=ids)
    assert events, f"{spec} injected nothing"


def test_chaos_events_are_counted_in_obs(serial_bytes):
    # Spawned *process* workers: thread workers would swap the
    # process-global default registry around each task body and drops
    # injected mid-compute would be counted elsewhere.  Events and the
    # counter are read only after close() joins the pump threads, so
    # every record has landed and all of them landed in scope.
    reg = MetricsRegistry()
    with use_registry(reg):
        backend = SocketWorkerBackend(workers=2, spawn=True,
                                      lease_timeout_s=5.0,
                                      chaos="drop=0.15,seed=7")
        proxy = backend.proxy
        try:
            results = run_experiments(SUBSET, quick=True, backend=backend)
        finally:
            backend.close()
        events = proxy.events()
    _assert_identical(results, serial_bytes)
    dropped = [e for e in events if e[4] == "drop"]
    counter = reg.get("exp", "chaos_events", action="drop")
    assert dropped and counter is not None
    assert counter.value == len(dropped)


def test_chaos_spec_requires_the_socket_backend():
    with pytest.raises(ChaosError, match="socket"):
        run_experiments(SUBSET[:1], quick=True, chaos_spec="drop=0.1")
    with pytest.raises(ChaosError, match="socket"):
        run_experiments(SUBSET[:1], quick=True, backend="local",
                        chaos_spec="drop=0.1")


def test_bad_chaos_spec_fails_before_any_backend_spawns():
    with pytest.raises(ChaosError):
        run_experiments(SUBSET[:1], quick=True, backend="socket",
                        chaos_spec="drop=2.0")


# ---------------------------------------------------------------------------
# version negotiation fails closed, both directions
# ---------------------------------------------------------------------------

def test_coordinator_rejects_mismatched_worker_version(serial_bytes):
    backend = SocketWorkerBackend(workers=1, spawn=False,
                                  lease_timeout_s=5.0)

    def impostor():
        with socketlib.create_connection(backend.address,
                                         timeout=10) as sock:
            send_frame(sock, {"type": "HELLO", "proto": PROTOCOL_VERSION,
                              "version": "0.0.0-impostor",
                              "worker": "impostor"})
            reply = recv_frame(sock)
            replies.append(reply)

    replies = []
    thread = threading.Thread(target=impostor, daemon=True)
    try:
        thread.start()
        with thread_workers(backend.address, 1):
            results = run_experiments(SUBSET, quick=True, backend=backend)
        thread.join(timeout=10)
    finally:
        backend.close()
    _assert_identical(results, serial_bytes)
    assert replies and replies[0]["type"] == "BYE"
    assert "version" in replies[0]["error"]
    assert backend.stats.get("version_mismatches", 0) == 1


def test_worker_rejects_mismatched_coordinator_version():
    listener = socketlib.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    host, port = listener.getsockname()[:2]
    rc = []

    def fake_coordinator():
        conn, _addr = listener.accept()
        with conn:
            hello = recv_frame(conn)
            assert hello["type"] == "HELLO"
            assert hello["version"] == package_version()
            send_frame(conn, {"type": "WELCOME",
                              "proto": PROTOCOL_VERSION,
                              "version": "0.0.0-impostor", "workers": 1,
                              "heartbeat_s": 1.0, "cache": False,
                              "ctx": CTX.to_wire()})
            time.sleep(0.5)

    thread = threading.Thread(target=fake_coordinator, daemon=True)
    thread.start()
    try:
        rc.append(serve(f"{host}:{port}", worker_id="victim",
                        timeout_s=5.0, connect_budget_s=5.0))
    finally:
        thread.join(timeout=10)
        listener.close()
    # Exit code 2: a fatal rejection, not a retryable transport error.
    assert rc == [2]


# ---------------------------------------------------------------------------
# reconnect + graceful degradation
# ---------------------------------------------------------------------------

def test_worker_retries_until_the_coordinator_exists(serial_bytes):
    # Reserve a port, start the worker first, bind the coordinator late:
    # seeded backoff must carry the worker across the listen gap.
    placeholder = socketlib.socket()
    placeholder.setsockopt(socketlib.SOL_SOCKET,
                           socketlib.SO_REUSEADDR, 1)
    placeholder.bind(("127.0.0.1", 0))
    host, port = placeholder.getsockname()[:2]
    placeholder.close()

    worker = threading.Thread(
        target=serve, args=(f"{host}:{port}",),
        kwargs={"worker_id": "early-bird", "timeout_s": 30.0,
                "connect_budget_s": 30.0},
        daemon=True)
    worker.start()
    time.sleep(0.3)         # let it fail at least one connect attempt
    backend = SocketWorkerBackend(workers=1, spawn=False,
                                  listen=f"{host}:{port}",
                                  lease_timeout_s=10.0)
    try:
        results = run_experiments(SUBSET, quick=True, backend=backend)
    finally:
        backend.close()
    worker.join(timeout=30)
    _assert_identical(results, serial_bytes)


def test_no_workers_falls_back_to_local(serial_bytes, capsys):
    reg = MetricsRegistry()
    with use_registry(reg):
        results = run_experiments(SUBSET, quick=True, backend="socket",
                                  listen="127.0.0.1:0",
                                  connect_budget_s=1.0)
    _assert_identical(results, serial_bytes)
    err = capsys.readouterr().err
    assert "falling back to the local backend" in err
    fallback = reg.get("exp", "backend_fallbacks", wanted="socket")
    assert fallback is not None and fallback.value == 1
