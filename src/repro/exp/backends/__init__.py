"""Pluggable execution backends for the experiment engine.

The scheduler (:mod:`repro.exp.scheduler`) decides *what* to run and
how results are assembled; a backend decides *where* tasks execute:

* :class:`LocalPoolBackend` — this machine, the default: in this
  process for one worker (every ``--jobs 1`` run), a process pool for
  more;
* :class:`SocketWorkerBackend` — lease tasks to worker processes over
  TCP (``python -m repro.exp.worker``), on this host or any other;
* :class:`DryRunBackend` — plan and shard without executing.

All backends execute the same task body
(:func:`repro.exp.planner.run_task`) and the scheduler reassembles
results in request order, so the rendered store is byte-identical to
:func:`repro.core.registry.run_experiment` regardless of backend,
worker count, or arrival order — ``tests/test_exp_backends.py`` is the
conformance wall pinning that.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

from .base import ExecutionBackend, TaskOutcome
from .dryrun import DryRunBackend
from .local import LocalPoolBackend
from .socket import (NoWorkersError, RemoteTaskError, SocketWorkerBackend,
                     parse_address)

__all__ = ["ExecutionBackend", "TaskOutcome", "LocalPoolBackend",
           "SocketWorkerBackend", "DryRunBackend", "RemoteTaskError",
           "NoWorkersError", "BACKENDS", "create_backend", "parse_address"]

#: Name → class, the vocabulary of ``--backend``.
BACKENDS: Dict[str, Type[ExecutionBackend]] = {
    LocalPoolBackend.name: LocalPoolBackend,
    SocketWorkerBackend.name: SocketWorkerBackend,
    DryRunBackend.name: DryRunBackend,
}


def create_backend(name: str, *, jobs: int = 1,
                   workers: Optional[int] = None,
                   listen: Optional[str] = None,
                   cache_dir: Optional[str] = None,
                   lease_timeout_s: float = 30.0,
                   chaos: Optional[str] = None,
                   connect_budget_s: Optional[float] = None,
                   pipeline: Optional[int] = None
                   ) -> ExecutionBackend:
    """Build the backend ``name`` from scheduler/CLI-level knobs.

    ``jobs`` sizes the local pool; ``workers`` sizes socket/dry-run
    fan-out (defaulting to ``jobs``); ``listen`` switches the socket
    backend from spawn-local-workers to wait-for-external-workers;
    ``chaos`` arms a :class:`~repro.exp.chaos.ChaosPlan` proxy,
    ``connect_budget_s`` bounds the wait for the first worker handshake
    and ``pipeline`` forces the credit-based lease window
    (``--pipeline N``; default derives it from the grid size) — all
    three socket-only.
    """
    if name not in BACKENDS:
        known = ", ".join(sorted(BACKENDS))
        raise ValueError(f"unknown backend {name!r} (known: {known})")
    n_workers = workers if workers is not None else max(jobs, 1)
    if name == LocalPoolBackend.name:
        return LocalPoolBackend(jobs=max(jobs, n_workers))
    if name == SocketWorkerBackend.name:
        return SocketWorkerBackend(workers=n_workers, listen=listen,
                                   cache_dir=cache_dir,
                                   lease_timeout_s=lease_timeout_s,
                                   chaos=chaos,
                                   connect_budget_s=connect_budget_s,
                                   pipeline=pipeline)
    return DryRunBackend(workers=n_workers)
