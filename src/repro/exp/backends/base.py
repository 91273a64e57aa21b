"""The execution-backend interface and its shared plumbing.

An :class:`ExecutionBackend` answers one question for the scheduler:
*given these tasks and this run context, get each one executed
somewhere and hand me the outcomes*.  Everything else — cache
prefetching, result assembly in request order, ``keep_going``
semantics — stays in :mod:`repro.exp.scheduler`, identical for every
backend, which is what the conformance wall
(``tests/test_exp_backends.py``) pins.

The whole surface is one method, :meth:`~ExecutionBackend.run_tasks`:
a generator yielding exactly one final :class:`TaskOutcome` per task,
in any order.  Retries and pool rebuilds are the backend's private
business; by the time an outcome is yielded it is final.  A backend
holds nothing open between runs, so there is nothing to close.

Backends report operational counters in ``self.stats`` (a plain dict,
always on) and mirror them into :mod:`repro.obs` via :meth:`_count`
when a default registry is attached — leases issued, pool rebuilds and
reassignments are then observable next to the simulation's own
metrics.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Sequence

from ..planner import RunContext, Task

__all__ = ["TaskOutcome", "ExecutionBackend"]


@dataclass
class TaskOutcome:
    """The final fate of one task under a backend.

    Exactly one of three shapes:

    * executed: ``payload`` set (``snapshot`` too when the run is
      observed), ``error`` None, ``planned`` False;
    * failed after the backend's full retry budget: ``error`` holds
      the exception;
    * planned only (dry run): ``planned`` True, nothing else set.
    """

    task: Task
    payload: Any = None
    snapshot: Optional[Dict] = None
    error: Optional[BaseException] = None
    attempts: int = 1
    planned: bool = False


class ExecutionBackend(ABC):
    """Where tasks run: this process, a process pool, or nowhere."""

    #: ``--backend <name>``, also recorded in the journal's plan
    #: record; set by every subclass.
    name: str = ""

    def __init__(self) -> None:
        self.stats: Dict[str, int] = {}
        #: The run journal, when the scheduler attached one.
        self.journal = None

    # -- the surface the scheduler drives --------------------------------
    @abstractmethod
    def run_tasks(self, tasks: Sequence[Task],
                  ctx: RunContext) -> Iterator[TaskOutcome]:
        """Yield one final :class:`TaskOutcome` per task, any order."""

    # -- shared helpers -------------------------------------------------
    def attach_journal(self, journal) -> None:
        """Record lease grants into a :class:`~repro.exp.journal.RunJournal`.

        Deliberately *not* part of the abstract surface: journaling is
        optional, and backends that never grant (dry run) simply inherit
        the no-op behaviour of :meth:`_journal_event`.
        """
        self.journal = journal

    def _journal_event(self, record: Dict) -> None:
        if self.journal is not None:
            self.journal.append(record)

    def _bump(self, stat: str, amount: int = 1) -> None:
        self.stats[stat] = self.stats.get(stat, 0) + amount

    def _count(self, name: str, amount: int = 1) -> None:
        """``stats`` bump plus a repro.obs counter when one is attached."""
        self._bump(name, amount)
        from ...obs import get_default_registry
        registry = get_default_registry()
        if registry is not None:
            registry.counter("exp", name, backend=self.name).inc(amount)
