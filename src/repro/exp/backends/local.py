"""LocalPoolBackend — tasks on this host, the default backend.

With one worker (``min(jobs, n_tasks) == 1``, which is every
``--jobs 1`` run) the tasks run in this process: no pool, no pickling,
and each task records straight into the caller's metrics registry, so
an observed ``--jobs 1`` run merges no snapshots and its summary is a
bare run's.  Only the tasks record there: the backend's own counters
stay in ``self.stats``.

With more, tasks fan out to a
:class:`~concurrent.futures.ProcessPoolExecutor`, and a worker that
dies outright (OOM kill, segfault) breaks the pool — so each retry
attempt rebuilds a **fresh pool** and resubmits only the unfinished
tasks.  The :class:`~repro.exp.planner.RunContext` reaches each worker
process **once**, pickled into the pool initializer rather than into
every submitted task, and tasks are submitted in chunks so a
many-tiny-cell grid pays one pickle/unpickle round trip per chunk
instead of per cell.

Both ways share one retry loop (exponential backoff from
:data:`BACKOFF_S`, lease journaling per attempt) and one per-task
capture, :func:`_run_each`: a failure is caught per task, so one bad
cell cannot take the tasks after it down.
Completed tasks are never recomputed; a task still failing after the
attempt budget is yielded as a failed outcome and the scheduler
decides (raise vs ``keep_going``).  Pool results are collected in
submission (= request) order, never completion order, so per-attempt
progress and merged metrics stay deterministic.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..journal import maybe_crash
from ..planner import RunContext, Task, run_task, task_key
from .base import ExecutionBackend, TaskOutcome

__all__ = ["LocalPoolBackend", "BACKOFF_S"]

#: Sleep before the first retry attempt, in seconds; it doubles with
#: every further attempt.
BACKOFF_S = 0.5

#: The run context of this pool worker process, set once by
#: :func:`_pool_init`.
_POOL_CTX: Optional[RunContext] = None


def _pool_init(parent_pid: int, ctx: RunContext) -> None:
    """Per-process setup: parent watchdog + the process-wide context.

    The watchdog exits the pool worker promptly if the coordinator
    dies: a coordinator killed hard (crash points, OOM, operator
    SIGKILL) orphans its pool — forked workers inherit the call-queue
    write ends, so they never see EOF and would idle forever, holding
    the coordinator's stdio pipes open.  A watchdog thread turns that
    into a fast, silent exit.
    """
    global _POOL_CTX

    def watch() -> None:
        while True:
            if os.getppid() != parent_pid:
                os._exit(0)
            time.sleep(0.5)
    threading.Thread(target=watch, daemon=True,
                     name="parent-watchdog").start()
    _POOL_CTX = ctx


def _run_each(tasks: Sequence[Task], ctx: RunContext) -> Iterator[Tuple]:
    """Run ``tasks`` in order, yielding ``("ok", payload, snapshot)``
    or ``("err", exception)`` as each one finishes."""
    for task in tasks:
        try:
            payload, snapshot = run_task(tuple(task), ctx)
        except Exception as exc:        # noqa: BLE001 — judged by parent
            yield ("err", exc)
        else:
            yield ("ok", payload, snapshot)


def _pool_chunk(chunk: List[Task]) -> List[Tuple]:
    """Run a chunk of tasks against the process-wide context."""
    if _POOL_CTX is None:
        raise RuntimeError("pool worker was not initialized with a "
                           "RunContext")
    return list(_run_each(chunk, _POOL_CTX))


class LocalPoolBackend(ExecutionBackend):
    """Run tasks on this host: in this process, or in a process pool."""

    name = "local"

    def __init__(self, jobs: int = 1):
        super().__init__()
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    def run_tasks(self, tasks: Sequence[Task],
                  ctx: RunContext) -> Iterator[TaskOutcome]:
        in_process = min(self.jobs, len(tasks)) == 1
        count = self._bump if in_process else self._count
        pending = list(tasks)
        errors: Dict[Task, BaseException] = {}
        attempts = 0
        while pending and attempts <= ctx.retries:
            if attempts:
                time.sleep(BACKOFF_S * 2 ** (attempts - 1))
                count("pool_rebuilds")
            errors = {}
            for task in pending:
                self._journal_event({"type": "lease",
                                     "task": task_key(task),
                                     "worker": "pool",
                                     "attempt": attempts + 1})
                maybe_crash("backend.lease")
            count("leases_issued", len(pending))
            entries = (zip(pending, _run_each(
                pending, dataclasses.replace(ctx, observe=False)))
                if in_process else self._in_pool(pending, ctx))
            for task, entry in entries:
                if entry[0] == "ok":
                    count("results")
                    yield TaskOutcome(task, payload=entry[1],
                                      snapshot=entry[2],
                                      attempts=attempts + 1)
                else:
                    errors[task] = entry[1]
            retried = [t for t in pending if t in errors]
            if retried and attempts < ctx.retries:
                count("reassignments", len(retried))
            pending = retried
            attempts += 1
        for task in pending:
            yield TaskOutcome(task, error=errors[task], attempts=attempts)

    def _in_pool(self, pending: List[Task],
                 ctx: RunContext) -> Iterator[Tuple[Task, Tuple]]:
        """One attempt on a fresh pool: a worker killed hard breaks the
        executor for every outstanding future, and a broken pool cannot
        be reused.  Yields ``(task, entry)`` in submission order."""
        max_workers = min(self.jobs, len(pending))
        # ~4 chunks per worker: big enough to amortise the pickle round
        # trip on tiny cells, small enough that a straggler chunk cannot
        # serialise the tail of the sweep
        chunk_size = max(1, -(-len(pending) // (max_workers * 4)))
        chunks = [pending[i:i + chunk_size]
                  for i in range(0, len(pending), chunk_size)]
        with ProcessPoolExecutor(
                max_workers=max_workers, initializer=_pool_init,
                initargs=(os.getpid(), ctx)) as pool:
            futures = [(chunk, pool.submit(_pool_chunk, chunk))
                       for chunk in chunks]
            for chunk, future in futures:
                try:
                    entries = future.result()
                except (Exception, BrokenProcessPool) as exc:
                    for task in chunk:      # the pool died under it
                        yield task, ("err", exc)
                    continue
                yield from zip(chunk, entries)
