"""Backend-conformance wall for the distributed experiment engine.

The contract (ISSUE 7): the rendered store is **byte-identical to a
serial run for every execution backend, every worker count, and every
arrival/completion order** — and the distributed machinery survives
chaos (SIGKILLed workers, silent leases, duplicate results, garbage
frames) without ever corrupting that store or hanging.

Layers covered:

* pure planning: stable sharding (``shard_of``/``plan_shards``),
  request-order task decomposition;
* the lease state machine (``LeaseTable``) with a hand-cranked clock —
  no sockets, no sleeps;
* the wire protocol — roundtrip, truncation, garbage, fuzz: fail
  closed, never hang;
* each backend end-to-end through ``run_experiments`` against the
  serial baseline, including socket workers joining in shuffled order,
  killed mid-lease, expiring leases, and sharing the remote cell
  cache.

Socket tests run workers as in-process *threads* (the worker loop is
thread-safe and ``worker_env`` skips ``SIGALRM`` off the main thread);
subprocess workers are reserved for the SIGKILL/crash chaos tests that
need a real process to kill.
"""

import contextlib
import json
import os
import signal
import socket as socketlib
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import registry
from repro.exp import (BACKENDS, CellCache, DryRunBackend, ExecutionBackend,
                       LocalPoolBackend, ResultCache, SocketWorkerBackend,
                       TaskOutcome, create_backend, run_experiments,
                       write_jsonl)
from repro.exp.leases import LeaseTable
from repro.exp.planner import (RunContext, build_tasks, plan_shards,
                               run_task, shard_of, task_key)
from repro.exp.protocol import (COMPRESS_MAGIC, FAIL_CLOSED_FIXTURES,
                                MAX_FRAME, MESSAGE_TYPES, PROTOCOL_VERSION,
                                ProtocolError, decode_body, encode_frame,
                                package_version, recv_frame, send_frame)
from repro.exp.worker import serve

SUBSET = ["table1", "fig04a", "fig13b"]     # 5 tasks: 2 whole + 3 cells
CTX = RunContext(quick=True)


@pytest.fixture(scope="module")
def serial_bytes():
    """The reference store, built without the scheduler: ``--jobs 1``
    runs through the same backend path these tests compare against."""
    return {exp_id: registry.run_experiment(exp_id, True).to_json()
            for exp_id in SUBSET}


def _assert_identical(results, serial_bytes, ids=SUBSET):
    assert [r.exp_id for r in results] == list(ids)
    for result in results:
        assert result.to_json() == serial_bytes[result.exp_id]


@contextlib.contextmanager
def thread_workers(address, n, cache_dir=None, stagger_s=0.0):
    """Run ``n`` worker loops as daemon threads against ``address``."""
    host, port = address
    threads = []

    def _one(i):
        if stagger_s:
            time.sleep(stagger_s * i)
        serve(f"{host}:{port}", worker_id=f"thread-{i}",
              cache_dir=cache_dir, timeout_s=30.0)

    for i in range(n):
        t = threading.Thread(target=_one, args=(i,), daemon=True)
        t.start()
        threads.append(t)
    try:
        yield threads
    finally:
        for t in threads:
            t.join(timeout=30)


# -- byte-identity across backends and worker counts ------------------------

@pytest.mark.parametrize("workers", [1, 2, 5])
def test_local_pool_byte_identical(workers, serial_bytes):
    with LocalPoolBackend(jobs=workers) as backend:
        got = run_experiments(SUBSET, quick=True, backend=backend)
    _assert_identical(got, serial_bytes)


def test_local_pool_decodes_context_once_per_process(serial_bytes):
    """The warm-worker fast path: RunContext is decoded in the pool
    initializer, exactly once per worker process, never per task."""
    backend = LocalPoolBackend(jobs=3)
    got = run_experiments(SUBSET, quick=True, backend=backend)
    _assert_identical(got, serial_bytes)
    assert backend.ctx_decodes, "no chunk reported its decode count"
    assert all(count == 1 for count in backend.ctx_decodes.values()), \
        backend.ctx_decodes


@pytest.mark.parametrize("window", [1, 4, 16])
def test_pipelined_windows_byte_identical(window, serial_bytes):
    """The credit window is a wire-efficiency knob, not a semantics
    knob: every window produces the serial store, byte for byte."""
    backend = SocketWorkerBackend(workers=2, spawn=False,
                                  lease_timeout_s=10.0, pipeline=window)
    try:
        with thread_workers(backend.address, 2):
            got = run_experiments(SUBSET, quick=True, backend=backend)
    finally:
        backend.close()
    _assert_identical(got, serial_bytes)
    assert backend.stats["results"] == 5
    if window > 1:
        # with more credit than workers, some grant must have landed on
        # a worker that already had a lease in flight
        assert backend.stats.get("leases_pipelined", 0) >= 1
    plan = backend.plan(build_tasks(SUBSET, quick=True), CTX)
    assert plan["pipeline"] == window


@pytest.mark.parametrize("workers", [1, 2, 5])
def test_socket_byte_identical(workers, serial_bytes):
    backend = SocketWorkerBackend(workers=workers, spawn=False,
                                  lease_timeout_s=10.0)
    try:
        with thread_workers(backend.address, workers):
            got = run_experiments(SUBSET, quick=True, backend=backend)
    finally:
        backend.close()
    _assert_identical(got, serial_bytes)
    assert backend.stats["results"] == 5
    assert backend.stats["workers_joined"] == workers


def test_socket_shuffled_worker_arrival(serial_bytes):
    """Workers joining late and in arbitrary order change nothing."""
    backend = SocketWorkerBackend(workers=3, spawn=False,
                                  lease_timeout_s=10.0)
    try:
        with thread_workers(backend.address, 3, stagger_s=0.15):
            got = run_experiments(SUBSET, quick=True, backend=backend)
    finally:
        backend.close()
    _assert_identical(got, serial_bytes)


def test_dryrun_cold_executes_nothing(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("dry run executed an experiment")

    monkeypatch.setattr(registry, "run_experiment", boom)
    monkeypatch.setattr(registry, "run_cell", boom)
    backend = DryRunBackend(workers=2)
    got = run_experiments(SUBSET, quick=True, backend=backend)
    assert got == []
    plan = backend.last_plan
    assert plan["n_tasks"] == 5
    assert plan["tasks"] == ["table1", "fig04a#0", "fig04a#1",
                             "fig04a#2", "fig13b"]
    assert plan["tasks_per_experiment"] == {"table1": 1, "fig04a": 3,
                                            "fig13b": 1}
    planned_keys = [k for shard in plan["shards"] for k in shard["tasks"]]
    assert sorted(planned_keys) == sorted(plan["tasks"])


def test_dryrun_warm_cache_is_byte_identical(tmp_path, monkeypatch,
                                             serial_bytes):
    """Cache prefetch precedes the backend, so a warm dry run returns
    the full byte-identical store while executing zero tasks."""
    cache = ResultCache(tmp_path / "cache")
    run_experiments(SUBSET, quick=True, jobs=1, cache=cache)

    def boom(*args, **kwargs):
        raise AssertionError("dry run executed despite warm cache")

    monkeypatch.setattr(registry, "run_experiment", boom)
    monkeypatch.setattr(registry, "run_cell", boom)
    got = run_experiments(SUBSET, quick=True, cache=cache,
                          backend=DryRunBackend(workers=2))
    _assert_identical(got, serial_bytes)


def test_backend_registry_and_factory():
    assert set(BACKENDS) == {"local", "socket", "dryrun"}
    with pytest.raises(ValueError, match="unknown backend"):
        create_backend("carrier-pigeon")
    backend = create_backend("dryrun", jobs=3)
    assert isinstance(backend, DryRunBackend) and backend.workers == 3
    backend = create_backend("local", jobs=2)
    assert isinstance(backend, LocalPoolBackend) and backend.jobs == 2


# -- deterministic sharding --------------------------------------------------

def test_shard_of_is_stable_golden():
    """Placement is a pure function of (task key, shard count) — these
    values must never drift (they are SHA-256, not ``hash()``)."""
    import hashlib
    for task in [("table1", None), ("fig04a", 0), ("fig04a", 2),
                 ("fig13b", None)]:
        for n in (1, 2, 5, 7):
            digest = hashlib.sha256(task_key(task).encode()).digest()
            assert shard_of(task, n) == int.from_bytes(digest[:8],
                                                       "big") % n
    assert shard_of(("table1", None), 1) == 0
    with pytest.raises(ValueError):
        shard_of(("table1", None), 0)


def test_plan_shards_pure_and_order_preserving():
    tasks = build_tasks(SUBSET, quick=True)
    first = plan_shards(tasks, 3)
    assert plan_shards(tasks, 3) == first             # pure
    assert sorted(sum(first, [])) == sorted(tasks)    # a partition
    for shard in first:                               # request order kept
        assert shard == [t for t in tasks if t in shard]


def test_build_tasks_request_order():
    assert build_tasks(["fig04a", "table1"], quick=True) == [
        ("fig04a", 0), ("fig04a", 1), ("fig04a", 2), ("table1", None)]
    assert task_key(("fig04a", 2)) == "fig04a#2"
    assert task_key(("table1", None)) == "table1"


# -- the lease state machine (hand-cranked clock, no I/O) --------------------

TASKS = [("a", None), ("b", 0), ("b", 1)]


def test_lease_issue_heartbeat_complete():
    table = LeaseTable(TASKS, lease_timeout_s=10.0)
    lease = table.issue("w1", now=0.0)
    assert lease.task == ("a", None) and lease.attempt == 1
    assert table.heartbeat(lease.lease_id, now=5.0)       # renews
    assert not table.expire(now=14.0)                     # renewed past 10
    assert table.complete(lease.lease_id, lease.task) == "ok"
    assert table.is_done(("a", None))
    assert not table.settled()                            # b's cells remain


def test_lease_expiry_requeues_in_request_order():
    table = LeaseTable(TASKS, lease_timeout_s=1.0)
    l1 = table.issue("w1", now=0.0)
    l2 = table.issue("w2", now=0.0)
    assert [le.task for le in (l1, l2)] == TASKS[:2]
    expired = table.expire(now=2.0)
    assert {le.lease_id for le in expired} == {l1.lease_id, l2.lease_id}
    # requeued ahead of the never-issued third task: request order
    assert table.pending_tasks() == TASKS
    again = table.issue("w3", now=2.0)
    assert again.task == ("a", None) and again.attempt == 2


def test_lease_death_reassignment_is_free():
    """Worker death must NOT consume the failure budget — the SIGKILL
    acceptance criterion depends on completing with retries=0."""
    table = LeaseTable(TASKS, lease_timeout_s=10.0, max_failures=0)
    lease = table.issue("doomed", now=0.0)
    released = table.release_worker("doomed")
    assert [le.lease_id for le in released] == [lease.lease_id]
    retry = table.issue("healthy", now=1.0)
    assert retry.task == lease.task
    assert table.complete(retry.lease_id, retry.task) == "ok"
    assert table.exhausted_tasks() == []


def test_lease_reported_failures_consume_budget():
    table = LeaseTable(TASKS, lease_timeout_s=10.0, max_failures=1)
    l1 = table.issue("w", now=0.0)
    assert table.fail(l1.lease_id, l1.task)          # 1st failure: requeued
    l2 = table.issue("w", now=1.0)
    assert l2.task == l1.task
    assert not table.fail(l2.lease_id, l2.task)      # budget spent
    assert table.exhausted_tasks() == [l1.task]
    assert l1.task not in table.pending_tasks()


def test_lease_duplicate_and_late_results():
    table = LeaseTable(TASKS, lease_timeout_s=1.0)
    lease = table.issue("slow", now=0.0)
    table.expire(now=2.0)                            # reassigned away
    retry = table.issue("fast", now=2.0)
    assert retry.task == lease.task
    # the expired holder's result arrives first: accepted as "late"
    assert table.complete(lease.lease_id, lease.task) == "late"
    # the live holder's copy is a duplicate, changing nothing
    assert table.complete(retry.lease_id, retry.task) == "duplicate"
    assert table.stats["completed"] == 1
    assert table.stats["duplicates"] == 1


def test_lease_stale_heartbeat_after_reassignment():
    table = LeaseTable(TASKS, lease_timeout_s=1.0)
    lease = table.issue("silent", now=0.0)
    table.expire(now=2.0)
    assert not table.heartbeat(lease.lease_id, now=2.5)   # stale
    assert table.stats["stale_heartbeats"] == 1


def test_lease_shard_preference_and_work_stealing():
    table = LeaseTable(TASKS, lease_timeout_s=10.0)
    mine = [("b", 1)]
    lease = table.issue("w", now=0.0, prefer_shard=mine)
    assert lease.task == ("b", 1)                    # own shard first
    steal = table.issue("w", now=0.0, prefer_shard=mine)
    assert steal.task == ("a", None)                 # shard drained: steal


def test_lease_settled_and_validation():
    with pytest.raises(ValueError):
        LeaseTable(TASKS, lease_timeout_s=0.0)
    with pytest.raises(ValueError):
        LeaseTable(TASKS, lease_timeout_s=1.0, max_failures=-1)
    table = LeaseTable([("a", None)], lease_timeout_s=1.0)
    assert not table.settled()
    lease = table.issue("w", now=0.0)
    table.complete(lease.lease_id, lease.task)
    assert table.settled()
    assert table.issue("w", now=0.0) is None


def test_renew_worker_renews_exactly_the_holding_list():
    """Piggybacked liveness: a worker's ``holding`` list renews those
    leases and no others — a peer's lease must still expire."""
    table = LeaseTable(TASKS, lease_timeout_s=1.0)
    l1 = table.issue("w1", now=0.0)
    l2 = table.issue("w1", now=0.0)
    l3 = table.issue("w2", now=0.0)
    assert table.renew_worker("w1", now=0.9,
                              holding=[l1.lease_id, l2.lease_id]) == 2
    expired = table.expire(now=1.5)
    assert {le.lease_id for le in expired} == {l3.lease_id}


def test_renew_worker_never_renews_unheld_leases():
    """A lease id in ``holding`` that belongs to another worker (or a
    LEASE frame dropped on the wire) is NOT renewed — blanket renewal
    would keep a held-by-nobody task alive forever."""
    table = LeaseTable(TASKS, lease_timeout_s=1.0)
    l1 = table.issue("w1", now=0.0)
    l2 = table.issue("w2", now=0.0)
    # w1 claims w2's lease id too: only its own is renewed
    assert table.renew_worker("w1", now=0.9,
                              holding=[l1.lease_id, l2.lease_id]) == 1
    expired = table.expire(now=1.8)
    assert {le.lease_id for le in expired} == {l2.lease_id}
    # omitting holding renews the worker's whole pipeline
    assert table.renew_worker("w1", now=2.0) == 1
    assert not table.expire(now=2.9)


# -- the wire protocol: fail closed, never hang ------------------------------

def _pair():
    a, b = socketlib.socketpair()
    a.settimeout(10.0)
    b.settimeout(10.0)
    return a, b


def test_protocol_roundtrip_and_clean_eof():
    a, b = _pair()
    send_frame(a, {"type": "HELLO", "proto": PROTOCOL_VERSION,
                   "version": package_version(), "worker": "w"})
    assert recv_frame(b) == {"proto": PROTOCOL_VERSION, "type": "HELLO",
                             "version": package_version(), "worker": "w"}
    a.close()
    assert recv_frame(b) is None                     # EOF at a boundary
    b.close()


@pytest.mark.parametrize("raw,why", [
    (b"\x00\x00\x00\x00", "zero length"),
    (b"\xff\xff\xff\xff", "length over MAX_FRAME"),
    (b"\x00\x00\x00\x05ab", "truncated body"),
    (b"\x00\x00\x00\x03abc", "not JSON"),
    (b"\x00\x00\x00\x02[]", "not an object"),
    (b"\x00\x00\x00\x0f" + json.dumps({"type": "EVAL"}).encode(),
     "unknown type"),
    (b"\x00\x00", "truncated header"),
])
def test_protocol_malformed_frames_fail_closed(raw, why):
    a, b = _pair()
    a.sendall(raw)
    a.close()
    with pytest.raises(ProtocolError):
        recv_frame(b)
    b.close()


def test_protocol_oversized_outgoing_rejected():
    # MAX_FRAME bounds the decoded body, so even this perfectly
    # compressible payload must be rejected before the zlib fast path.
    a, b = _pair()
    with pytest.raises(ProtocolError):
        send_frame(a, {"type": "RESULT", "payload": "x" * (MAX_FRAME + 1)})
    a.close()
    b.close()


# -- the decode-fixture wall (PAR307's runtime half) -------------------------

def test_every_frame_type_has_a_fail_closed_fixture():
    """The static contract PAR307 lints, re-proved at runtime: the
    fixture dict and the message vocabulary are the same set."""
    assert set(FAIL_CLOSED_FIXTURES) == set(MESSAGE_TYPES)


@pytest.mark.parametrize("mtype", sorted(FAIL_CLOSED_FIXTURES))
def test_malformed_body_fixture_fails_closed(mtype):
    with pytest.raises(ProtocolError):
        decode_body(FAIL_CLOSED_FIXTURES[mtype])


# -- compressed frames --------------------------------------------------------

def test_protocol_big_body_compresses_and_roundtrips():
    big = {"type": "RESULT", "lease": 1,
           "payload": [{"row": i, "lat_us": 12.5} for i in range(2000)]}
    frame, compressed = encode_frame(big)
    assert compressed
    assert frame[4:5] == COMPRESS_MAGIC
    a, b = _pair()
    a.sendall(frame)
    a.close()
    assert recv_frame(b) == big
    b.close()


def test_protocol_small_bodies_stay_raw_json():
    frame, compressed = encode_frame({"type": "HEARTBEAT", "lease": 7})
    assert not compressed
    assert frame[4:5] == b"{"


def test_protocol_compressed_garbage_fails_closed():
    import zlib
    good = zlib.compress(json.dumps({"type": "BYE"}).encode())
    for bad in (COMPRESS_MAGIC + b"not a zlib stream",
                COMPRESS_MAGIC + good[:-2],          # truncated stream
                COMPRESS_MAGIC + good + b"trailing"):
        with pytest.raises(ProtocolError):
            decode_body(bad)


def test_protocol_decompression_bomb_fails_closed():
    """A tiny body must not inflate past MAX_FRAME."""
    import zlib
    bomb = COMPRESS_MAGIC + zlib.compress(b"0" * (MAX_FRAME + 4096))
    assert len(bomb) < 64 * 1024
    with pytest.raises(ProtocolError, match="MAX_FRAME"):
        decode_body(bomb)


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=0, max_size=64))
def test_protocol_fuzz_never_hangs(blob):
    """Arbitrary bytes then EOF: a valid frame, clean EOF, or a
    ProtocolError — never a hang, never a partial parse."""
    a, b = _pair()
    try:
        a.sendall(blob)
        a.close()
        try:
            message = recv_frame(b)
        except ProtocolError:
            pass
        else:
            assert message is None or (isinstance(message, dict)
                                       and "type" in message)
    finally:
        b.close()


def test_garbage_frames_to_live_coordinator(serial_bytes):
    """A client spraying garbage is dropped; the sweep still finishes
    byte-identically on the healthy workers."""
    backend = SocketWorkerBackend(workers=1, spawn=False,
                                  lease_timeout_s=10.0)
    stop = threading.Event()

    def vandal():
        host, port = backend.address
        while not stop.is_set():
            try:
                with socketlib.create_connection((host, port),
                                                 timeout=5.0) as sock:
                    sock.sendall(b"\xde\xad\xbe\xefgarbage")
                    sock.recv(1)        # wait for the coordinator's drop
            except OSError:
                time.sleep(0.05)

    thread = threading.Thread(target=vandal, daemon=True)
    thread.start()
    try:
        with thread_workers(backend.address, 1):
            got = run_experiments(SUBSET, quick=True, backend=backend)
    finally:
        stop.set()
        backend.close()
        thread.join(timeout=10)
    _assert_identical(got, serial_bytes)
    assert backend.stats.get("protocol_errors", 0) >= 1


# -- chaos: death, silence, duplication --------------------------------------

def test_sigkilled_worker_mid_lease_reassigns(tmp_path, monkeypatch,
                                              serial_bytes):
    """Acceptance criterion: SIGKILL a socket worker while it holds a
    lease; the sweep completes byte-identically with retries=0."""
    monkeypatch.setenv("REPRO_EXP_TASK_SLEEP_S", "1.0")
    backend = SocketWorkerBackend(workers=2, spawn=True,
                                  lease_timeout_s=15.0)
    killed = []

    def assassin():
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            # wait until both workers actually hold a lease, so the
            # kill is guaranteed to land mid-lease
            if backend.stats.get("leases_issued", 0) >= 2:
                pids = backend.worker_pids
                if pids:
                    time.sleep(0.2)      # into the 1.0s task sleep
                    os.kill(pids[0], signal.SIGKILL)
                    killed.append(pids[0])
                return
            time.sleep(0.05)

    thread = threading.Thread(target=assassin, daemon=True)
    thread.start()
    try:
        got = run_experiments(SUBSET, quick=True, backend=backend,
                              retries=0)
    finally:
        backend.close()
        thread.join(timeout=10)
    assert killed, "assassin never found a worker pid"
    _assert_identical(got, serial_bytes)
    reassigned = (backend.stats.get("reassignments_death", 0)
                  + backend.stats.get("reassignments_expiry", 0))
    assert reassigned >= 1


def test_pipelined_queue_outlives_lease_timeout(monkeypatch, serial_bytes):
    """Regression (heartbeat coalescing): one worker holds a window of
    4 leases whose queue takes 2s to drain against a 1s lease timeout.
    Piggybacked ``holding`` renewal must keep the *queued* leases alive
    — under the old per-current-lease heartbeat they expire while
    waiting and the run thrashes through reassignments."""
    monkeypatch.setenv("REPRO_EXP_TASK_SLEEP_S", "0.4")
    backend = SocketWorkerBackend(workers=1, spawn=False,
                                  lease_timeout_s=1.0, pipeline=4)
    try:
        with thread_workers(backend.address, 1):
            got = run_experiments(SUBSET, quick=True, backend=backend)
    finally:
        backend.close()
    _assert_identical(got, serial_bytes)
    assert backend.stats.get("reassignments_expiry", 0) == 0, backend.stats
    assert backend.stats.get("leases_pipelined", 0) >= 3


def test_sigkill_with_full_pipeline_window_frees_every_lease(monkeypatch,
                                                             serial_bytes):
    """A worker dies holding its entire credit window: every lease it
    held is reassigned for free (retries=0) and a late-joining worker
    completes the sweep byte-identically."""
    monkeypatch.setenv("REPRO_EXP_TASK_SLEEP_S", "0.5")
    backend = SocketWorkerBackend(workers=1, spawn=True,
                                  lease_timeout_s=15.0, pipeline=8)
    killed = []

    def assassin_then_rescuer():
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if (backend.stats.get("leases_issued", 0) >= 5
                    and backend.worker_pids):
                time.sleep(0.1)          # into the first task's sleep
                os.kill(backend.worker_pids[0], signal.SIGKILL)
                killed.append(backend.worker_pids[0])
                host, port = backend.address
                serve(f"{host}:{port}", worker_id="rescuer",
                      timeout_s=30.0)
                return
            time.sleep(0.02)

    thread = threading.Thread(target=assassin_then_rescuer, daemon=True)
    thread.start()
    try:
        got = run_experiments(SUBSET, quick=True, backend=backend,
                              retries=0)
    finally:
        backend.close()
        thread.join(timeout=10)
    assert killed, "assassin never saw a full window"
    _assert_identical(got, serial_bytes)
    freed = (backend.stats.get("reassignments_death", 0)
             + backend.stats.get("reassignments_expiry", 0))
    assert freed >= 4, backend.stats


def test_silent_lease_expires_and_reassigns(serial_bytes):
    """A worker that takes a lease and never heartbeats loses it; a
    healthy worker completes the sweep."""
    backend = SocketWorkerBackend(workers=2, spawn=False,
                                  lease_timeout_s=0.75)
    host, port = backend.address
    holder = {}

    def silent_client():
        with socketlib.create_connection((host, port), timeout=20.0) as s:
            send_frame(s, {"type": "HELLO", "proto": PROTOCOL_VERSION,
                           "version": package_version(),
                           "worker": "silent"})
            while True:
                msg = recv_frame(s)
                if msg is None or msg["type"] == "BYE":
                    return
                if msg["type"] == "LEASE":
                    holder.update(msg)   # sit on it: no heartbeat, ever
                    # stay connected so only *expiry* can free the task

    thread = threading.Thread(target=silent_client, daemon=True)
    thread.start()
    time.sleep(0.2)                      # let the silent client join first
    try:
        with thread_workers(backend.address, 1):
            got = run_experiments(SUBSET, quick=True, backend=backend)
    finally:
        backend.close()
        thread.join(timeout=10)
    assert holder, "silent client never got a lease"
    _assert_identical(got, serial_bytes)
    assert backend.stats.get("reassignments_expiry", 0) >= 1


def test_duplicate_result_and_stale_heartbeat_converge(monkeypatch,
                                                       serial_bytes):
    """A worker completing an already-reassigned lease — then sending
    the same RESULT again, then heartbeating the dead lease — changes
    nothing: one store, byte-identical."""
    # slow the healthy worker down so the sweep is still running when
    # the laggard's late/duplicate frames arrive
    monkeypatch.setenv("REPRO_EXP_TASK_SLEEP_S", "0.5")
    backend = SocketWorkerBackend(workers=2, spawn=False,
                                  lease_timeout_s=0.75)
    host, port = backend.address
    chaos_done = threading.Event()

    def laggard():
        with socketlib.create_connection((host, port), timeout=20.0) as s:
            send_frame(s, {"type": "HELLO", "proto": PROTOCOL_VERSION,
                           "version": package_version(),
                           "worker": "laggard"})
            lease = None
            while lease is None:
                msg = recv_frame(s)
                if msg is None or msg["type"] == "BYE":
                    return
                if msg["type"] == "LEASE":
                    lease = msg
            time.sleep(1.0)              # lease expires and is reassigned
            task = (lease["exp_id"], lease["index"])
            payload, snapshot = run_task(task, CTX)
            result = {"type": "RESULT", "lease": lease["lease"],
                      "payload": payload, "snapshot": snapshot,
                      "cached": None, "error": None}
            send_frame(s, result)        # late (or duplicate) completion
            send_frame(s, result)        # and a literal duplicate
            send_frame(s, {"type": "HEARTBEAT",
                           "lease": lease["lease"]})  # stale by now
            chaos_done.set()
            while True:                  # drain until BYE
                msg = recv_frame(s)
                if msg is None or msg["type"] == "BYE":
                    return

    thread = threading.Thread(target=laggard, daemon=True)
    thread.start()
    time.sleep(0.2)
    try:
        with thread_workers(backend.address, 1):
            got = run_experiments(SUBSET, quick=True, backend=backend)
    finally:
        backend.close()
        thread.join(timeout=10)
    assert chaos_done.wait(timeout=1), "laggard never ran its chaos"
    _assert_identical(got, serial_bytes)
    assert (backend.stats.get("duplicate_results", 0)
            + backend.stats.get("late_results", 0)) >= 1
    assert backend.stats.get("stale_heartbeats", 0) >= 1


def test_worker_killed_between_cache_put_and_result(tmp_path, monkeypatch,
                                                    serial_bytes):
    """The crash window between publishing to the shared cache and
    reporting the RESULT: the reassigned worker finds the payload in
    the remote cache and the sweep converges to one identical store."""
    marker = tmp_path / "die-once"
    monkeypatch.setenv("REPRO_EXP_DIE_AFTER_PUT", str(marker))
    backend = SocketWorkerBackend(workers=2, spawn=True,
                                  lease_timeout_s=15.0,
                                  cache_dir=str(tmp_path / "cells"))
    try:
        got = run_experiments(SUBSET, quick=True, backend=backend,
                              retries=0)
    finally:
        backend.close()
    assert marker.exists(), "no worker hit the crash window"
    _assert_identical(got, serial_bytes)
    assert (backend.stats.get("reassignments_death", 0)
            + backend.stats.get("reassignments_expiry", 0)) >= 1
    assert backend.stats.get("cache_hits_remote", 0) >= 1


# -- the remote cell cache ---------------------------------------------------

def test_remote_cache_hits_propagate_and_are_observable(tmp_path,
                                                        serial_bytes):
    """Sweep 2 over the same cell-cache dir is served entirely from
    CACHE_GET, and the hits surface as repro.obs counters."""
    from repro.obs import MetricsRegistry, use_registry
    cells = str(tmp_path / "cells")
    backend = SocketWorkerBackend(workers=2, spawn=True,
                                  lease_timeout_s=15.0, cache_dir=cells)
    try:
        run_experiments(SUBSET, quick=True, backend=backend)
    finally:
        backend.close()
    assert backend.stats.get("cache_publishes", 0) >= 5

    reg = MetricsRegistry()
    backend2 = SocketWorkerBackend(workers=2, spawn=True,
                                   lease_timeout_s=15.0, cache_dir=cells)
    try:
        with use_registry(reg):
            got = run_experiments(SUBSET, quick=True, backend=backend2)
    finally:
        backend2.close()
    _assert_identical(got, serial_bytes)
    assert backend2.stats.get("cache_hits_remote", 0) == 5
    counter = reg.get("exp", "cache_hits", backend="socket", where="remote")
    assert counter is not None, "hits did not surface in the registry"
    assert counter.value == 5
    leases = reg.get("exp", "leases_issued", backend="socket")
    assert leases is not None and leases.value >= 5


# -- scheduler assembly: order, errors, keep_going ---------------------------

class _ReversedBackend(ExecutionBackend):
    """Computes serially but yields outcomes in reverse request order —
    the scheduler must reassemble identically anyway."""

    name = "reversed"

    def run_tasks(self, tasks, ctx):
        outcomes = []
        for task in tasks:
            payload, snapshot = run_task(task, ctx)
            outcomes.append(TaskOutcome(task, payload=payload,
                                        snapshot=snapshot))
        yield from reversed(outcomes)

    def plan(self, tasks, ctx):
        return {"backend": self.name, "n_tasks": len(tasks)}

    def close(self):
        pass


class _FailingBackend(ExecutionBackend):
    """Every task of ``bad_exp`` fails terminally; the rest succeed."""

    name = "failing"

    def __init__(self, bad_exp):
        super().__init__()
        self.bad_exp = bad_exp

    def run_tasks(self, tasks, ctx):
        for task in tasks:
            if task[0] == self.bad_exp:
                yield TaskOutcome(task, error=RuntimeError("boom"),
                                  attempts=ctx.retries + 1)
            else:
                payload, snapshot = run_task(task, ctx)
                yield TaskOutcome(task, payload=payload, snapshot=snapshot)

    def plan(self, tasks, ctx):
        return {"backend": self.name, "n_tasks": len(tasks)}

    def close(self):
        pass


def test_out_of_order_outcomes_render_identical_store(tmp_path,
                                                      serial_bytes):
    """Satellite: completion order cannot leak into the rendered store
    — the JSON-lines files are compared as bytes."""
    serial = run_experiments(SUBSET, quick=True, jobs=1)
    scrambled = run_experiments(SUBSET, quick=True,
                                backend=_ReversedBackend())
    a, b = tmp_path / "serial.jsonl", tmp_path / "scrambled.jsonl"
    write_jsonl(a, serial)
    write_jsonl(b, scrambled)
    assert a.read_bytes() == b.read_bytes()
    _assert_identical(scrambled, serial_bytes)


def test_backend_failure_raises_without_keep_going():
    with pytest.raises(RuntimeError, match="boom"):
        run_experiments(["table1", "fig13b"], quick=True,
                        backend=_FailingBackend("table1"))


def test_backend_failure_collected_with_keep_going(serial_bytes):
    failures = []
    got = run_experiments(["table1", "fig13b"], quick=True,
                          backend=_FailingBackend("table1"),
                          keep_going=True, failures=failures)
    _assert_identical(got, serial_bytes, ids=["fig13b"])
    assert [f.exp_id for f in failures] == ["table1"]
    assert "boom" in failures[0].error


# -- the CLI worker joins an external coordinator ----------------------------

def test_external_worker_via_cli(tmp_path, serial_bytes):
    """`repro worker --connect` (the --listen deployment shape): the
    coordinator spawns nothing; an externally started CLI worker
    drains the sweep."""
    import subprocess
    import sys

    backend = SocketWorkerBackend(workers=1, spawn=False,
                                  lease_timeout_s=15.0)
    host, port = backend.address
    src_root = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_root] + [p for p in env.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker",
         "--connect", f"{host}:{port}", "--worker-id", "external-1"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        got = run_experiments(["table1", "fig13b"], quick=True,
                              backend=backend)
    finally:
        backend.close()
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
    _assert_identical(got, serial_bytes, ids=["table1", "fig13b"])
    assert proc.returncode == 0
