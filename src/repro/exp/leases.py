"""Lease bookkeeping and shard placement for distributed task execution.

No backend in the tree uses this module: it was the socket backend's
lease table, and the socket backend is retired (DESIGN §5f).  It stays,
self-contained and unit-tested, until the next change to ``repro.exp``
removes it together with its tests (ROADMAP).

A **lease** is the unit of at-least-once delivery: a coordinator
grants one task to one worker for a bounded wall-clock window, the
worker renews it with heartbeats while computing, and a lease whose
deadline passes — or whose worker's connection dies — returns its task
to the pending queue for **reassignment**.  Reassigned tasks converge
on the same byte-identical store because tasks are idempotent and
results are assembled in request order regardless of who finally
computed them.

Two very different failure kinds get very different budgets:

* **infrastructure loss** (worker SIGKILLed, connection cut, lease
  expired without heartbeat) requeues the task unconditionally — the
  task itself was never proven bad, so reassignment is free, exactly as
  a fresh pool re-runs tasks a dying pool took down with it;
* a **reported task error** (the worker ran it and sent back a failure)
  consumes the ``max_failures`` budget; past it the task is terminal —
  :meth:`exhausted_tasks` — mirroring ``--retries`` for the pool path.

The table is deliberately free of I/O and of direct clock reads: the
caller injects ``now`` values (a live coordinator would pass
``time.monotonic()``, the tests pass a hand-cranked fake), which
keeps every state transition — grant, renew, expire, complete,
duplicate, stale heartbeat — unit-testable without sockets or sleeps.

State machine per task::

    pending --issue--> active --complete--> done
       ^                 |  |
       |---expire--------+  +--fail--> pending   (failures <= budget)
       |---release_worker+  +--fail--> exhausted (budget spent)

Completions are idempotent: a RESULT for an already-done task is
reported as a duplicate and changes nothing; a RESULT on an expired
(reassigned) lease still completes the task if it is first — the rows
are deterministic, so whichever copy arrives first is the same bytes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .planner import Task, task_key

__all__ = ["Lease", "LeaseTable", "shard_of", "plan_shards"]


def shard_of(task: Task, n_shards: int) -> int:
    """Stable shard slot of ``task`` among ``n_shards``.

    SHA-256 of the cell key, reduced mod ``n_shards``: independent of
    worker arrival order, process boundaries and ``PYTHONHASHSEED``.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    digest = hashlib.sha256(task_key(task).encode()).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


def plan_shards(tasks: Sequence[Task], n_shards: int) -> List[List[Task]]:
    """Tasks grouped by shard slot, request order preserved per shard.

    A pure function of (task set, shard count): shuffling the worker
    arrival order — or calling this twice — cannot change it.  A shard
    is what :meth:`LeaseTable.issue` takes as ``prefer_shard``.
    """
    shards: List[List[Task]] = [[] for _ in range(n_shards)]
    for task in tasks:
        shards[shard_of(task, n_shards)].append(task)
    return shards


@dataclass
class Lease:
    """One grant of one task to one worker, valid until ``deadline``."""

    lease_id: int
    task: Task
    worker: str
    issued_at: float
    deadline: float
    attempt: int = 1


@dataclass
class _TaskState:
    seq: int                      # request-order position, for requeueing
    attempts: int = 0             # total grants (incl. reassignments)
    failures: int = 0             # worker-reported errors only
    done: bool = False
    exhausted: bool = False
    lease: Optional[Lease] = None  # the currently active lease, if any


class LeaseTable:
    """Grant/renew/expire/complete bookkeeping for one task set.

    ``lease_timeout_s`` bounds how long a silent worker may hold a
    task; ``max_failures`` is how many *reported* task errors beyond
    the first attempt are tolerated before the task is terminal (the
    distributed twin of the scheduler's ``retries``).
    """

    def __init__(self, tasks: Sequence[Task], lease_timeout_s: float,
                 max_failures: int = 0):
        if lease_timeout_s <= 0:
            raise ValueError(
                f"lease_timeout_s must be > 0, got {lease_timeout_s}")
        if max_failures < 0:
            raise ValueError(
                f"max_failures must be >= 0, got {max_failures}")
        self.lease_timeout_s = lease_timeout_s
        self.max_failures = max_failures
        self._states: Dict[Task, _TaskState] = {
            task: _TaskState(seq=i) for i, task in enumerate(tasks)}
        self._pending: List[Task] = list(tasks)   # request order
        self._active: Dict[int, Lease] = {}
        self._next_lease_id = 1
        # transition counters, mirrored into repro.obs by the backend
        self.stats = {"issued": 0, "completed": 0, "expired": 0,
                      "released": 0, "failed": 0, "duplicates": 0,
                      "stale_heartbeats": 0, "heartbeats": 0}

    # -- queries --------------------------------------------------------
    def pending_tasks(self) -> List[Task]:
        return list(self._pending)

    def active_leases(self) -> List[Lease]:
        return sorted(self._active.values(), key=lambda le: le.lease_id)

    def is_done(self, task: Task) -> bool:
        return self._states[task].done

    def exhausted_tasks(self) -> List[Task]:
        """Terminally failed tasks, in request order."""
        return sorted((t for t, s in self._states.items() if s.exhausted),
                      key=lambda t: self._states[t].seq)

    def settled(self) -> bool:
        """Every task is either done or terminally failed."""
        return all(s.done or s.exhausted for s in self._states.values())

    def attempts_of(self, task: Task) -> int:
        return self._states[task].attempts

    # -- transitions ----------------------------------------------------
    def issue(self, worker: str, now: float,
              prefer_shard: Optional[Sequence[Task]] = None
              ) -> Optional[Lease]:
        """Grant the next pending task to ``worker``, or ``None``.

        ``prefer_shard`` biases selection toward the worker's own shard
        (first pending member wins); when the shard is drained the
        first pending task overall is granted instead — work stealing
        keeps the sweep finishing even when a shard's owner died.
        """
        task = None
        if prefer_shard is not None:
            shard = set(prefer_shard)
            mine = [t for t in self._pending if t in shard]
            if mine:
                task = mine[0]
        if task is None and self._pending:
            task = self._pending[0]
        if task is None:
            return None
        self._pending.remove(task)
        state = self._states[task]
        state.attempts += 1
        lease = Lease(self._next_lease_id, task, worker, now,
                      now + self.lease_timeout_s, attempt=state.attempts)
        self._next_lease_id += 1
        self._active[lease.lease_id] = lease
        state.lease = lease
        self.stats["issued"] += 1
        return lease

    def heartbeat(self, lease_id: int, now: float) -> bool:
        """Renew a lease; ``False`` (stale) if it expired or finished.

        A heartbeat arriving after reassignment must not resurrect the
        old lease — the task either belongs to someone else now or is
        already done, and both are counted as stale.
        """
        lease = self._active.get(lease_id)
        if lease is None:
            self.stats["stale_heartbeats"] += 1
            return False
        lease.deadline = now + self.lease_timeout_s
        self.stats["heartbeats"] += 1
        return True

    def renew_worker(self, worker: str, now: float,
                     holding: Optional[Sequence[int]] = None) -> int:
        """Piggybacked liveness: renew ``worker``'s active leases.

        With lease pipelining a worker holds a *queue* of leases while
        computing the head one, and RESULT/CACHE traffic for the head
        proves the whole queue is alive — so those frames carry a
        ``holding`` list and the coordinator renews exactly the listed
        leases (never leases of other workers: a confused or malicious
        peer cannot keep someone else's lease alive).  ``holding=None``
        renews everything the worker holds.

        Renewing only what the worker *says* it holds matters: a LEASE
        frame dropped on the wire is queued nowhere, so it must be
        allowed to expire and reassign — blanket renewal on any frame
        would keep it alive forever and stall the sweep.

        Returns the number of leases renewed (0 means every listed id
        was stale — expired, reassigned, or never this worker's).
        """
        wanted = None if holding is None else set(holding)
        renewed = 0
        for lease in self._active.values():
            if lease.worker != worker:
                continue
            if wanted is not None and lease.lease_id not in wanted:
                continue
            lease.deadline = now + self.lease_timeout_s
            renewed += 1
        if renewed:
            self.stats["renewals"] = self.stats.get("renewals", 0) + renewed
        return renewed

    def complete(self, lease_id: int, task: Task) -> str:
        """Record a RESULT; returns ``"ok"``, ``"duplicate"`` or ``"late"``.

        * ``ok``: first completion of the task, via a live lease;
        * ``late``: first completion, but via a lease that had already
          been expired/reassigned — the result is accepted (it is
          byte-identical by the determinism contract) and the task is
          pulled back out of the pending queue;
        * ``duplicate``: the task was already done; nothing changes.
        """
        state = self._states[task]
        if state.done:
            self._drop_lease(lease_id)
            self.stats["duplicates"] += 1
            return "duplicate"
        verdict = "ok" if lease_id in self._active else "late"
        state.done = True
        state.exhausted = False
        self._drop_lease(lease_id)
        if state.lease is not None:
            self._drop_lease(state.lease.lease_id)
        if task in self._pending:     # completed while queued for retry
            self._pending.remove(task)
        self.stats["completed"] += 1
        return verdict

    def fail(self, lease_id: int, task: Task) -> bool:
        """A worker *reported* an error for its lease.

        Requeues the task while the failure budget lasts and returns
        ``True``; past the budget the task turns terminal
        (:meth:`exhausted_tasks`) and this returns ``False``.
        """
        self._drop_lease(lease_id)
        state = self._states[task]
        if state.done:
            return True
        state.failures += 1
        self.stats["failed"] += 1
        if state.failures > self.max_failures:
            state.exhausted = True
            if task in self._pending:
                self._pending.remove(task)
            return False
        self._requeue(task)
        return True

    def expire(self, now: float) -> List[Lease]:
        """Expire every overdue lease, requeueing the tasks; returns them."""
        overdue = [lease for lease in self._active.values()
                   if lease.deadline <= now]
        for lease in sorted(overdue, key=lambda le: le.lease_id):
            self._drop_lease(lease.lease_id)
            self._requeue(lease.task)
            self.stats["expired"] += 1
        return overdue

    def release_worker(self, worker: str) -> List[Lease]:
        """A worker died/disconnected: requeue all of its leases."""
        held = [lease for lease in self._active.values()
                if lease.worker == worker]
        for lease in sorted(held, key=lambda le: le.lease_id):
            self._drop_lease(lease.lease_id)
            self._requeue(lease.task)
            self.stats["released"] += 1
        return held

    # -- internals ------------------------------------------------------
    def _drop_lease(self, lease_id: int) -> None:
        lease = self._active.pop(lease_id, None)
        if lease is not None:
            state = self._states[lease.task]
            if state.lease is lease:
                state.lease = None

    def _requeue(self, task: Task) -> None:
        state = self._states[task]
        if state.done or state.exhausted or task in self._pending:
            return
        seq = state.seq
        at = next((i for i, t in enumerate(self._pending)
                   if self._states[t].seq > seq), len(self._pending))
        self._pending.insert(at, task)   # keep request order canonical
