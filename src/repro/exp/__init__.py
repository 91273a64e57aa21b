"""repro.exp — the parallel experiment engine.

Composable, individually testable pieces:

* :mod:`repro.exp.scheduler` — :func:`run_experiments`: resolves ids,
  consults the cache, decomposes the rest into tasks and reassembles
  backend outcomes in deterministic order.  Every run takes this one
  path (``--jobs 1`` is the local backend running in-process), and
  every backend and worker count is byte-identical to
  :func:`repro.core.registry.run_experiment`;
* :mod:`repro.exp.planner` — task decomposition and the one task
  body every backend executes;
* :mod:`repro.exp.backends` — where tasks run: the local backend
  (default; in this process for one worker, a process pool for more),
  or a dry run that only plans;
* :mod:`repro.exp.cache` — :class:`CellCache`, the one on-disk
  content-addressed store of task payloads, keyed on experiment id +
  cell index + quick/full flag + package version + source digest;
  :class:`ResultCache` is its whole-experiment view (a plan-less
  experiment is the cell at index ``None``), making unchanged
  experiments free to re-run;
* :mod:`repro.exp.store` — a JSON-lines results store that
  EXPERIMENTS.md-style tables are rendered from;
* :mod:`repro.exp.journal` — the durable write-ahead run journal
  behind ``--resume`` (:class:`RunJournal`) and the crash-point hook
  its wall drives.

:mod:`repro.exp.leases` and :mod:`repro.exp.protocol` are what is left
of the retired socket backend: no module imports them, and they go in
the next change together with their unit tests.

Typical use (what ``repro experiments --jobs 4 --cache --out r.jsonl``
does)::

    from repro.exp import ResultCache, run_experiments, write_jsonl
    results = run_experiments(["fig04a", "fig05a"], quick=True, jobs=4,
                              cache=ResultCache())
    write_jsonl("r.jsonl", results)
"""

from .backends import (BACKENDS, DryRunBackend, ExecutionBackend,
                       LocalPoolBackend, TaskOutcome, create_backend)
from .cache import DEFAULT_CACHE_DIR, CellCache, ResultCache, source_digest
from .journal import JournalError, ResumeError, RunJournal, plan_digest
from .scheduler import ExperimentFailure, run_experiments
from .store import iter_jsonl, read_jsonl, render_store, write_jsonl

__all__ = ["run_experiments", "ExperimentFailure", "ResultCache",
           "CellCache", "DEFAULT_CACHE_DIR", "source_digest",
           "write_jsonl", "read_jsonl", "iter_jsonl", "render_store",
           "ExecutionBackend", "TaskOutcome", "LocalPoolBackend",
           "DryRunBackend", "BACKENDS", "create_backend", "JournalError",
           "ResumeError", "RunJournal", "plan_digest"]
