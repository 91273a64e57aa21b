"""Pluggable execution backends for the experiment engine.

The scheduler (:mod:`repro.exp.scheduler`) decides *what* to run and
how results are assembled; a backend decides *where* tasks execute:

* :class:`LocalPoolBackend` — this machine, the default: in this
  process for one worker (every ``--jobs 1`` run), a process pool for
  more;
* :class:`DryRunBackend` — plan without executing.

All backends execute the same task body
(:func:`repro.exp.planner.run_task`) and the scheduler reassembles
results in request order, so the rendered store is byte-identical to
:func:`repro.core.registry.run_experiment` regardless of backend,
worker count, or arrival order — ``tests/test_exp_backends.py`` is the
conformance wall pinning that.
"""

from __future__ import annotations

from typing import Dict, Type

from .base import ExecutionBackend, TaskOutcome
from .dryrun import DryRunBackend
from .local import LocalPoolBackend

__all__ = ["ExecutionBackend", "TaskOutcome", "LocalPoolBackend",
           "DryRunBackend", "BACKENDS", "create_backend"]

#: Name → class, the vocabulary of ``--backend``.
BACKENDS: Dict[str, Type[ExecutionBackend]] = {
    LocalPoolBackend.name: LocalPoolBackend,
    DryRunBackend.name: DryRunBackend,
}


def create_backend(name: str, *, jobs: int = 1) -> ExecutionBackend:
    """Build the backend ``name``; ``jobs`` sizes the local pool."""
    if name not in BACKENDS:
        known = ", ".join(sorted(BACKENDS))
        raise ValueError(f"unknown backend {name!r} (known: {known})")
    if name == LocalPoolBackend.name:
        return LocalPoolBackend(jobs=jobs)
    return DryRunBackend()
