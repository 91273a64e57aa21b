"""The experiment scheduler: planning, caching and result assembly.

:func:`run_experiments` is the engine behind ``repro experiments``.
Since the backend split it owns exactly three responsibilities, all
backend-independent:

* **planning** — resolve ids, consult the on-disk
  :class:`~repro.exp.cache.ResultCache`, and decompose the remainder
  into tasks (:func:`repro.exp.planner.build_tasks`);
* **delegation** — hand the task list to an execution backend
  (:mod:`repro.exp.backends`): the
  :class:`~repro.exp.backends.LocalPoolBackend` (the default; in this
  process for one worker, a process pool for more) or a dry run.
  There is one task path: ``--jobs 1`` is the local backend with one
  worker, not a separate serial loop;
* **assembly** — reassemble outcomes in request order, finalize and
  cache each experiment incrementally, merge metrics snapshots
  deterministically, and apply ``keep_going``.

Determinism contract
--------------------
Backend output is **byte-identical** to
:func:`repro.core.registry.run_experiment`, for every backend and
worker count:

* every experiment (and every cell) builds its own freshly seeded
  simulator, so workers share no simulation state;
* workers ship results back as plain result dicts / row lists, and
  the scheduler assembles them in request/index order, never
  completion order;
* every backend executes the same task body,
  :func:`repro.exp.planner.run_task`.

``tests/test_exp_backends.py`` is the conformance wall pinning this.

Metrics: tasks run in this process record straight into the attached
registry.  Tasks run in other processes run under a private
:class:`~repro.obs.MetricsRegistry` and return its snapshot; the
parent folds every snapshot into its own attached registry — in
request order, so merged summaries are deterministic too.  Cache hits
run no simulation and therefore contribute no metrics.

Hardening
---------
Long sweeps survive misbehaving workers:

* ``timeout_s`` arms a per-task wall-clock alarm *inside* the worker
  (``SIGALRM``), so a runaway simulation surfaces as a
  :class:`TimeoutError` result instead of wedging the backend;
* worker death is the backend's business — the local backend rebuilds
  a fresh pool and resubmits unfinished tasks — and completed results
  are never recomputed;
* ``keep_going=True`` converts a permanently failing experiment into an
  :class:`ExperimentFailure` entry (appended to ``failures``) while
  every unaffected experiment still completes and caches;
* results are cached **incrementally**, as soon as each experiment
  finalizes, so an interrupted sweep resumes from what it finished.

Crash safety
------------
``journal`` arms the write-ahead :class:`~repro.exp.journal.RunJournal`
the caller opened: the plan, every lease grant and every task result
are fsync'd to disk *before* the scheduler acts on them, and task
payloads are persisted in the journal's content-addressed cell cache.
A journal that already holds a plan record (one reopened with
:meth:`RunJournal.resume <repro.exp.journal.RunJournal.resume>`) is
resumed, which survives even a coordinator SIGKILL: the journaled plan
is adopted (and its digest verified — resuming into changed
sources/versions fails closed with
:class:`~repro.exp.journal.ResumeError`), journaled results are
reloaded, and only tasks without a journaled + cached payload execute
again — producing a store byte-identical to an uninterrupted run, with
skipped/re-executed counts observable via :mod:`repro.obs`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import registry
from ..core.registry import ExperimentResult
from ..faults.context import activated
from ..flow.context import activated as flow_activated
from .backends import ExecutionBackend, LocalPoolBackend
from .cache import ResultCache, cell_key
from .journal import ResumeError, RunJournal, maybe_crash, plan_digest
from .planner import RunContext, Task, build_tasks, task_key

__all__ = ["run_experiments", "ExperimentFailure"]


@dataclass
class ExperimentFailure:
    """Why one experiment produced no result under ``keep_going``."""

    exp_id: str
    error: str
    attempts: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.exp_id}: {self.error} (after {self.attempts} attempts)"


def run_experiments(ids: Sequence[str] = (), quick: bool = True,
                    jobs: Optional[int] = None,
                    cache: Optional[ResultCache] = None, *,
                    timeout_s: Optional[float] = None,
                    retries: int = 0,
                    keep_going: bool = False,
                    failures: Optional[List[ExperimentFailure]] = None,
                    faults_spec: Optional[str] = None,
                    flow_mode: Optional[str] = None,
                    backend: Optional[ExecutionBackend] = None,
                    journal: Optional[RunJournal] = None,
                    ) -> List[ExperimentResult]:
    """Run experiments, optionally cached, in parallel, and hardened.

    ``jobs=None`` means ``os.cpu_count()``; ``jobs=1`` runs every task
    in this process, through the same backend path as ``jobs=N``.
    Results come back in the order of ``ids`` (registry order when
    ``ids`` is empty).  Unknown ids raise
    :class:`~repro.core.registry.UnknownExperimentError` before any
    work starts.

    ``backend`` is the :class:`~repro.exp.backends.ExecutionBackend`
    to run tasks on; ``None`` means a
    :class:`~repro.exp.backends.LocalPoolBackend` of ``jobs`` workers
    (in this process when ``min(jobs, n_tasks) == 1``, a process pool
    otherwise).

    ``timeout_s`` bounds each task's wall clock; ``retries`` re-runs
    *failed* tasks (with exponentially growing sleeps between
    attempts, from :data:`repro.exp.backends.local.BACKOFF_S`).  With
    ``keep_going`` a permanently failed experiment is skipped — an
    :class:`ExperimentFailure` is appended to ``failures`` (when given)
    and the remaining experiments still run; without it every other
    task still finishes (and caches), then the first failure in request
    order propagates.

    ``faults_spec`` activates a process-wide
    :class:`~repro.faults.FaultPlan` spec for the duration of the run —
    in this process *and* in every worker — and becomes part of the
    result-cache key.  ``flow_mode`` does the same for flow-level
    acceleration (:mod:`repro.flow`): ``"auto"``/``"on"`` are keyed
    into the cache, ``"off"``/``None`` keep the clean packet-mode key.

    ``journal`` arms the write-ahead run journal; the run appends its
    end record and closes it.  A journal that already holds a plan
    record continues that run: its plan (ids, quick, fault/flow specs)
    is adopted and its digest verified, so ``ids`` may be left empty.
    """
    plan_rec = journal.plan_record() if journal is not None else None
    if plan_rec is not None:
        if ids and list(ids) != list(plan_rec["ids"]):
            raise ResumeError(f"--resume {journal.run_id} cannot change "
                              f"the experiment set (journaled: "
                              f"{' '.join(plan_rec['ids'])})")
        ids = list(plan_rec["ids"])
        quick = bool(plan_rec["quick"])
        faults_spec = plan_rec.get("faults")
        flow_mode = plan_rec.get("flow")
    keys = registry.resolve_ids(ids)
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    with activated(faults_spec), flow_activated(flow_mode):
        if plan_rec is not None:
            digest = plan_digest(keys, quick, faults_spec, flow_mode)
            if digest != plan_rec.get("digest"):
                raise ResumeError(
                    f"plan digest mismatch for run {journal.run_id!r}: "
                    f"the experiment sources, package version or specs "
                    f"changed since the journal was written — resuming "
                    f"would not reproduce the original bytes")
        results: Dict[str, ExperimentResult] = {}
        to_run: List[str] = []
        for exp_id in keys:
            cached = cache.load(exp_id, quick) if cache is not None else None
            if cached is not None:
                results[exp_id] = cached
            else:
                to_run.append(exp_id)
        if not (to_run or journal is not None or backend is not None):
            return [results[k] for k in keys]   # all cached: no backend

        failed: List[ExperimentFailure] = []
        from ..obs import get_default_registry
        parent_registry = get_default_registry()
        ctx = RunContext(quick=quick, observe=parent_registry is not None,
                         faults_spec=faults_spec, timeout_s=timeout_s,
                         flow_mode=flow_mode, retries=retries)
        tasks = build_tasks(to_run, quick)
        if backend is None:
            backend = LocalPoolBackend(jobs=min(jobs, max(len(tasks), 1)))
        preloaded: Dict[Task, Tuple[object, object]] = {}
        if journal is not None:
            if plan_rec is None:
                journal.append({
                    "type": "plan", "ids": list(keys), "quick": quick,
                    "faults": faults_spec, "flow": flow_mode,
                    "digest": plan_digest(keys, quick, faults_spec,
                                          flow_mode),
                    "backend": backend.name,
                    "tasks": [task_key(t) for t in tasks]})
                maybe_crash("journal.plan")
            else:
                preloaded = _preload_from_journal(journal, tasks,
                                                  parent_registry)
            backend.attach_journal(journal)
        try:
            _run_backend(backend, to_run, quick, tasks, preloaded,
                         results, cache, ctx, parent_registry,
                         keep_going, failed, journal)
        finally:
            if journal is not None:
                journal.append({"type": "end", "failures": len(failed)})
                journal.close()
        if failures is not None:
            failures.extend(failed)
        return [results[k] for k in keys if k in results]


def _preload_from_journal(journal: RunJournal, tasks: Sequence[Task],
                          parent_registry) -> Dict[Task, Tuple[object,
                                                               object]]:
    """Tasks whose results the journal already holds (key + payload).

    A journaled result whose payload is missing from the journal's cell
    cache (disk loss) simply re-executes — resume is safe, not clever.
    """
    completed = journal.completed()
    preloaded: Dict[Task, Tuple[object, object]] = {}
    for task in tasks:
        key = completed.get(task_key(task))
        if key is None:
            continue
        payload = journal.cells.load(key)
        if payload is not None:
            preloaded[task] = (payload, None)
    skipped = len(preloaded)
    reexecuted = len(tasks) - skipped
    if parent_registry is not None:
        parent_registry.counter("exp", "resume_tasks",
                                kind="skipped").inc(skipped)
        parent_registry.counter("exp", "resume_tasks",
                                kind="reexecuted").inc(reexecuted)
    journal.append({"type": "resume", "skipped": skipped,
                    "reexecuted": reexecuted})
    return preloaded


def _run_backend(exec_backend: ExecutionBackend, to_run: Sequence[str],
                 quick: bool, tasks: List[Task],
                 preloaded: Dict[Task, Tuple[object, object]],
                 results: Dict[str, ExperimentResult],
                 cache: Optional[ResultCache], ctx: RunContext,
                 parent_registry, keep_going: bool,
                 failed: List[ExperimentFailure],
                 journal: Optional[RunJournal] = None) -> None:
    """Drain one backend run, assembling outcomes in request order.

    The backend may yield outcomes in any order; experiments finalize
    (and cache) incrementally as soon as all of their tasks are in.
    Planned-only outcomes (dry run) finalize nothing.  ``preloaded``
    results (adopted from a resumed journal) count as already done and
    are never re-executed; every fresh payload is journaled (cell saved,
    then the result record appended) *before* finalization, so a crash
    between the two re-finalizes from the journal instead of re-running.
    """
    done: Dict[Task, Tuple[object, object]] = dict(preloaded)
    errors: Dict[Task, BaseException] = {}
    attempts: Dict[Task, int] = {}
    if done:
        _finalize_ready(to_run, quick, tasks, done, results, cache,
                        ctx.observe, parent_registry)
    remaining = [t for t in tasks if t not in done]
    for outcome in exec_backend.run_tasks(remaining, ctx):
        if outcome.planned:
            continue
        task = (outcome.task[0], outcome.task[1])
        if outcome.error is not None:
            errors[task] = outcome.error
            attempts[task] = outcome.attempts
            if journal is not None:
                journal.append({"type": "error", "task": task_key(task),
                                "error": repr(outcome.error),
                                "attempts": outcome.attempts})
            continue
        done[task] = (outcome.payload, outcome.snapshot)
        if journal is not None:
            key = cell_key(task[0], quick, task[1])
            journal.cells.save(key, outcome.payload)
            journal.append({"type": "result", "task": task_key(task),
                            "key": key})
            maybe_crash("journal.result")
        _finalize_ready(to_run, quick, tasks, done, results, cache,
                        ctx.observe, parent_registry)
    if errors:
        if not keep_going:
            raise next(errors[t] for t in tasks if t in errors)
        bad_exps: List[str] = []
        for task in tasks:
            if task in errors and task[0] not in bad_exps:
                bad_exps.append(task[0])
        for exp_id in bad_exps:
            first = next(t for t in tasks if t in errors and t[0] == exp_id)
            failed.append(ExperimentFailure(exp_id, repr(errors[first]),
                                            attempts.get(first, 1)))


def _finalize_ready(to_run: Sequence[str], quick: bool, tasks: List[Task],
                    done: Dict[Task, Tuple[object, object]],
                    results: Dict[str, ExperimentResult],
                    cache: Optional[ResultCache], observe: bool,
                    parent_registry) -> None:
    """Assemble every experiment whose tasks have all completed.

    Runs after each completed task, so finished experiments are cached
    incrementally — a later crash or ^C does not throw them away.
    Metrics snapshots merge exactly once per task, in request order.
    """
    for exp_id in to_run:
        if exp_id in results:
            continue
        exp_tasks = [t for t in tasks if t[0] == exp_id]
        if not all(t in done for t in exp_tasks):
            continue
        snapshots = []
        if exp_tasks[0][1] is None:
            payload, snap = done[exp_tasks[0]]
            results[exp_id] = ExperimentResult.from_dict(payload)
            snapshots.append(snap)
        else:
            rows = []
            for task in exp_tasks:
                row, snap = done[task]
                rows.append(tuple(row))
                snapshots.append(snap)
            results[exp_id] = registry.finalize_cells(exp_id, quick, rows)
        if cache is not None:
            cache.save(exp_id, quick, results[exp_id])
        maybe_crash("scheduler.finalize")
        if observe:
            for snap in snapshots:
                if snap:
                    parent_registry.merge_snapshot(snap)
