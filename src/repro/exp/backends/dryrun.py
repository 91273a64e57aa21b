"""DryRunBackend — plan a sweep without executing anything.

Answers "what would this run do" for free: how many tasks, how many
per experiment, and which experiments the scheduler already served
from the result cache (cache prefetch happens *before* the backend
sees anything, so a dry run against a warm cache returns the full
byte-identical store while this backend executes zero tasks — the
conformance wall pins exactly that).

Every task that reaches :meth:`run_tasks` is yielded as a
``planned``-only outcome; the scheduler skips finalization for those,
so no simulation, no cache writes and no metrics happen.  The computed
plan is kept on :attr:`last_plan` for the CLI to print.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence

from ..planner import RunContext, Task, task_key
from .base import ExecutionBackend, TaskOutcome

__all__ = ["DryRunBackend"]


class DryRunBackend(ExecutionBackend):
    """Plan and report; never execute."""

    name = "dryrun"

    def __init__(self) -> None:
        super().__init__()
        self.last_plan: Optional[Dict] = None

    def run_tasks(self, tasks: Sequence[Task],
                  ctx: RunContext) -> Iterator[TaskOutcome]:
        per_exp: Dict[str, int] = {}
        for exp_id, _index in tasks:
            per_exp[exp_id] = per_exp.get(exp_id, 0) + 1
        self.last_plan = {"backend": self.name, "n_tasks": len(tasks),
                          "tasks_per_experiment": per_exp,
                          "quick": ctx.quick,
                          "tasks": [task_key(t) for t in tasks]}
        self._count("tasks_planned", len(tasks))
        for task in tasks:
            yield TaskOutcome(task, planned=True)

    def close(self) -> None:
        pass
