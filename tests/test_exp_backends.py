"""Backend-conformance wall for the experiment engine.

The contract: the rendered store is **byte-identical to a serial run
for every execution backend, every worker count, and every completion
order**.

Layers covered:

* pure planning: request-order task decomposition;
* each backend end-to-end through ``run_experiments`` against the
  serial baseline: the local pool at several widths and the dry run,
  cold and against a warm cache;
* scheduler assembly: outcomes yielded out of order, terminal task
  failures with and without ``keep_going``;
* the modules the retired socket backend left behind, until they go:
  stable shard placement, the lease state machine (hand-cranked clock),
  and the frame codec failing closed on malformed input.
"""

import json
import socket as socketlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import registry
from repro.exp import (BACKENDS, DryRunBackend, ExecutionBackend,
                       LocalPoolBackend, ResultCache, TaskOutcome,
                       create_backend, run_experiments, write_jsonl)
from repro.exp.leases import LeaseTable, plan_shards, shard_of
from repro.exp.planner import build_tasks, run_task, task_key
from repro.exp.protocol import (COMPRESS_MAGIC, FAIL_CLOSED_FIXTURES,
                                MAX_FRAME, MESSAGE_TYPES, PROTOCOL_VERSION,
                                ProtocolError, decode_body, encode_frame,
                                package_version, recv_frame, send_frame)

SUBSET = ["table1", "fig04a", "fig13b"]     # 5 tasks: 2 whole + 3 cells


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


def test_dryrun_cold_executes_nothing(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("dry run executed an experiment")

    monkeypatch.setattr(registry, "run_experiment", boom)
    monkeypatch.setattr(registry, "run_cell", boom)
    backend = DryRunBackend()
    got = run_experiments(SUBSET, quick=True, backend=backend)
    assert got == []
    plan = backend.last_plan
    assert plan["n_tasks"] == 5
    assert plan["tasks"] == ["table1", "fig04a#0", "fig04a#1",
                             "fig04a#2", "fig13b"]
    assert plan["tasks_per_experiment"] == {"table1": 1, "fig04a": 3,
                                            "fig13b": 1}


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
                          backend=DryRunBackend())
    _assert_identical(got, serial_bytes)


def test_backend_registry_and_factory():
    assert set(BACKENDS) == {"local", "dryrun"}
    with pytest.raises(ValueError, match="unknown backend"):
        create_backend("carrier-pigeon")
    with pytest.raises(ValueError, match="known: dryrun, local"):
        create_backend("socket")
    backend = create_backend("dryrun", jobs=3)
    assert isinstance(backend, DryRunBackend)
    backend = create_backend("local", jobs=2)
    assert isinstance(backend, LocalPoolBackend) and backend.jobs == 2


def test_build_tasks_request_order():
    assert build_tasks(["fig04a", "table1"], quick=True) == [
        ("fig04a", 0), ("fig04a", 1), ("fig04a", 2), ("table1", None)]
    assert task_key(("fig04a", 2)) == "fig04a#2"
    assert task_key(("table1", None)) == "table1"


# -- retired socket-stack modules --------------------------------------------
#
# repro.exp.leases (lease table, shard placement) and repro.exp.protocol
# (frame codec) have no caller since the socket backend was retired;
# their unit walls stay until the modules themselves are removed.

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


# -- the decode-fixture wall -------------------------------------------------

def test_every_frame_type_has_a_fail_closed_fixture():
    """Every frame type has a malformed-body fixture: the fixture dict
    and the message vocabulary are the same set."""
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
