"""Lease-boundary edge wall for :mod:`repro.exp.leases`.

The LeaseTable takes injected ``now`` values, so every boundary a
live coordinator could only *provoke* is pinned here exactly.  No
backend uses the table since the socket backend was retired; this wall
goes when the module does.

* a heartbeat arriving exactly at the deadline, in both orderings
  (renew-then-sweep and sweep-then-renew);
* a reassigned task whose original worker's RESULT arrives late, and
  the second copy after it;
* journal replay of both races — the journal's last-result-wins
  ``completed()`` map must agree with the table's verdicts;
* seeded random schedules: whatever order grants, expiries, failures
  and completions interleave in, the table settles with every task
  done or exhausted exactly once, and the same seed yields the same
  transition log.
"""

import random

from repro.exp.journal import RunJournal
from repro.exp.leases import LeaseTable
from repro.exp.planner import task_key

TASKS = [("table1", None), ("fig04a", 0), ("fig04a", 1), ("fig04a", 2)]


# ---------------------------------------------------------------------------
# heartbeats exactly at the deadline
# ---------------------------------------------------------------------------

def test_heartbeat_at_exact_deadline_renews_when_it_arrives_first():
    table = LeaseTable(TASKS[:1], lease_timeout_s=10.0)
    lease = table.issue("w1", now=0.0)
    assert lease.deadline == 10.0
    # The renew lands at t == deadline, before the expiry sweep runs.
    assert table.heartbeat(lease.lease_id, now=10.0) is True
    assert table.expire(now=10.0) == []
    assert lease.deadline == 20.0
    assert table.stats["heartbeats"] == 1
    assert table.stats["expired"] == 0


def test_expiry_sweep_at_exact_deadline_beats_a_late_heartbeat():
    table = LeaseTable(TASKS[:1], lease_timeout_s=10.0)
    lease = table.issue("w1", now=0.0)
    # Expiry is inclusive (deadline <= now): the sweep at t == deadline
    # takes the lease, and the same-instant heartbeat is stale.
    assert table.expire(now=10.0) == [lease]
    assert table.heartbeat(lease.lease_id, now=10.0) is False
    assert table.pending_tasks() == TASKS[:1]
    assert table.stats["stale_heartbeats"] == 1
    assert table.stats["expired"] == 1


def test_heartbeat_a_hair_before_deadline_survives_the_sweep():
    table = LeaseTable(TASKS[:1], lease_timeout_s=10.0)
    lease = table.issue("w1", now=0.0)
    assert table.heartbeat(lease.lease_id, now=9.999) is True
    assert table.expire(now=10.0) == []
    assert table.active_leases() == [lease]


# ---------------------------------------------------------------------------
# reassignment racing a late RESULT
# ---------------------------------------------------------------------------

def test_late_result_from_reassigned_lease_completes_the_task():
    table = LeaseTable(TASKS[:1], lease_timeout_s=10.0)
    old = table.issue("w1", now=0.0)
    assert table.expire(now=10.0) == [old]
    new = table.issue("w2", now=10.0)
    assert new.lease_id != old.lease_id
    assert new.attempt == 2
    # w1 was only slow, not dead: its RESULT beats w2's.  The rows are
    # byte-identical by the determinism contract, so first copy wins.
    assert table.complete(old.lease_id, old.task) == "late"
    assert table.is_done(old.task)
    # w2's copy is a duplicate and changes nothing.
    assert table.complete(new.lease_id, new.task) == "duplicate"
    assert table.settled()
    assert table.stats["completed"] == 1
    assert table.stats["duplicates"] == 1


def test_expired_task_completing_while_queued_leaves_the_queue():
    table = LeaseTable(TASKS[:2], lease_timeout_s=10.0)
    old = table.issue("w1", now=0.0)
    table.expire(now=10.0)
    assert old.task in table.pending_tasks()
    assert table.complete(old.lease_id, old.task) == "late"
    assert old.task not in table.pending_tasks()


def test_requeue_after_expiry_keeps_request_order():
    table = LeaseTable(TASKS, lease_timeout_s=10.0)
    first = table.issue("w1", now=0.0)      # takes TASKS[0]
    second = table.issue("w2", now=0.0)     # takes TASKS[1]
    assert (first.task, second.task) == (TASKS[0], TASKS[1])
    table.expire(now=10.0)
    # Both come back in request order, ahead of nothing they shouldn't.
    assert table.pending_tasks() == TASKS


# ---------------------------------------------------------------------------
# journal replay of the two races
# ---------------------------------------------------------------------------

def _journaled_run(tmp_path, race: str) -> RunJournal:
    """Drive a LeaseTable through ``race`` while journaling like the
    retired socket backend did: lease records at grant, result records
    at first completion only (duplicates are never journaled)."""
    journal = RunJournal.create(tmp_path, f"race-{race}")
    table = LeaseTable(TASKS[:1], lease_timeout_s=10.0)
    task = TASKS[0]
    old = table.issue("w1", now=0.0)
    journal.append({"type": "lease", "task": task_key(task),
                    "worker": old.worker, "lease": old.lease_id,
                    "attempt": old.attempt})
    table.expire(now=10.0)
    new = table.issue("w2", now=10.0)
    journal.append({"type": "lease", "task": task_key(task),
                    "worker": new.worker, "lease": new.lease_id,
                    "attempt": new.attempt})
    if race == "late":
        winner, loser = old, new
    else:
        winner, loser = new, old
    assert table.complete(winner.lease_id, task) in ("ok", "late")
    journal.append({"type": "result", "task": task_key(task),
                    "key": "k" * 64})
    assert table.complete(loser.lease_id, task) == "duplicate"
    journal.close()
    return journal


def test_journal_replay_of_late_result_race(tmp_path):
    journal = _journaled_run(tmp_path, "late")
    replayed = RunJournal.resume(tmp_path, journal.run_id)
    # Two grants, one result: replay sees the task completed once.
    records = replayed.records()
    assert [r["type"] for r in records] == ["lease", "lease", "result"]
    assert [r["attempt"] for r in records[:2]] == [1, 2]
    assert replayed.completed() == {task_key(TASKS[0]): "k" * 64}
    replayed.close()


def test_journal_replay_of_duplicate_result_race(tmp_path):
    journal = _journaled_run(tmp_path, "duplicate")
    replayed = RunJournal.resume(tmp_path, journal.run_id)
    assert replayed.completed() == {task_key(TASKS[0]): "k" * 64}
    assert sum(1 for r in replayed.records()
               if r["type"] == "result") == 1
    replayed.close()


# ---------------------------------------------------------------------------
# property-style: seeded random schedules
# ---------------------------------------------------------------------------

def _random_schedule(seed: int, n_tasks: int = 6,
                     max_failures: int = 1):
    """Run one randomized grant/renew/expire/fail/complete schedule.

    Returns the transition log so determinism can be asserted across
    identical seeds.
    """
    rng = random.Random(seed)
    tasks = [(f"exp{i}", i % 3 if i % 2 else None)
             for i in range(n_tasks)]
    table = LeaseTable(tasks, lease_timeout_s=5.0,
                       max_failures=max_failures)
    log = []
    now = 0.0
    workers = ["w1", "w2", "w3"]
    for _step in range(400):
        if table.settled():
            break
        now += rng.uniform(0.0, 2.0)
        op = rng.choice(["issue", "heartbeat", "expire", "fail",
                         "complete"])
        if op == "issue":
            lease = table.issue(rng.choice(workers), now)
            if lease is not None:
                log.append(("issue", lease.lease_id,
                            task_key(lease.task), lease.attempt))
        elif op == "heartbeat":
            active = table.active_leases()
            if active:
                lease = rng.choice(active)
                log.append(("hb", lease.lease_id,
                            table.heartbeat(lease.lease_id, now)))
        elif op == "expire":
            for lease in table.expire(now):
                log.append(("expire", lease.lease_id,
                            task_key(lease.task)))
        elif op == "fail":
            active = table.active_leases()
            if active:
                lease = rng.choice(active)
                log.append(("fail", lease.lease_id,
                            table.fail(lease.lease_id, lease.task)))
        else:
            active = table.active_leases()
            if active:
                lease = rng.choice(active)
                log.append(("complete", lease.lease_id,
                            table.complete(lease.lease_id, lease.task)))
    # Drain: grant and complete whatever is left so the run settles.
    while not table.settled():
        now += 1.0
        lease = table.issue("w-drain", now)
        if lease is None:
            table.expire(now + 10.0)
            continue
        log.append(("drain", task_key(lease.task),
                    table.complete(lease.lease_id, lease.task)))
    return tasks, table, log


def test_random_schedules_always_settle_each_task_exactly_once():
    for seed in range(12):
        tasks, table, _log = _random_schedule(seed)
        assert table.settled()
        for task in tasks:
            done = table.is_done(task)
            exhausted = task in table.exhausted_tasks()
            assert done != exhausted, (seed, task)
        # Conservation: every grant was eventually completed, expired,
        # released, failed or is impossible now that the table settled.
        assert table.active_leases() == []
        assert table.pending_tasks() == []
        stats = table.stats
        assert stats["completed"] + len(table.exhausted_tasks()) == len(
            tasks)


def test_identical_seed_identical_transition_log():
    for seed in (3, 7, 42):
        _t1, _tab1, log1 = _random_schedule(seed)
        _t2, _tab2, log2 = _random_schedule(seed)
        assert log1 == log2


def test_different_seeds_explore_different_schedules():
    logs = {tuple(_random_schedule(seed)[2]) for seed in range(6)}
    assert len(logs) > 1
