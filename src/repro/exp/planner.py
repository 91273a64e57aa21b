"""Task planning for the experiment engine: decomposition and the task body.

The scheduler used to own three jobs at once — deciding *what* the
units of work are, *where* they run, and *how* failures are retried.
This module is the first job, pulled out so every execution backend
(:mod:`repro.exp.backends`) agrees on it:

* a **task** is ``(exp_id, cell_index-or-None)`` — one whole experiment,
  or one row of a :class:`~repro.core.registry.CellPlan` sweep;
* :func:`build_tasks` decomposes a run into tasks in request order,
  which is also the order results are assembled in — backends may
  complete tasks in any order at all;
* :func:`run_task` is the one true task body: every backend (the local
  backend, in this process or in pool workers) executes exactly this
  function, which is what makes their outputs byte-identical.
"""

from __future__ import annotations

import contextlib
import signal
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import registry

__all__ = ["Task", "RunContext", "task_key", "build_tasks", "run_task"]

#: One unit of backend work: ``(exp_id, cell_index-or-None)``.
Task = Tuple[str, Optional[int]]


def task_key(task: Task) -> str:
    """Canonical string identity of a task (``"fig04a#2"``, ``"table1"``)."""
    exp_id, index = task
    return exp_id if index is None else f"{exp_id}#{index}"


@dataclass(frozen=True)
class RunContext:
    """Everything a worker needs to execute a task faithfully.

    Pool workers receive it in its JSON-ready wire form
    (:meth:`to_wire`) and decode it once per process.
    """

    quick: bool = True
    observe: bool = False
    faults_spec: Optional[str] = None
    timeout_s: Optional[float] = None
    flow_mode: Optional[str] = None
    retries: int = 0
    backoff_s: float = 0.5

    def to_wire(self) -> Dict:
        return {"quick": self.quick, "observe": self.observe,
                "faults": self.faults_spec, "timeout_s": self.timeout_s,
                "flow": self.flow_mode}

    @classmethod
    def from_wire(cls, data: Dict) -> "RunContext":
        return cls(quick=bool(data.get("quick", True)),
                   observe=bool(data.get("observe", False)),
                   faults_spec=data.get("faults"),
                   timeout_s=data.get("timeout_s"),
                   flow_mode=data.get("flow"))


def build_tasks(exp_ids: Sequence[str], quick: bool) -> List[Task]:
    """Decompose ``exp_ids`` (request order) into backend tasks.

    Cell-decomposed sweeps contribute one task per row; everything else
    is a single whole-experiment task.
    """
    tasks: List[Task] = []
    for exp_id in exp_ids:
        n = registry.n_cells(exp_id, quick)
        if n:
            tasks.extend((exp_id, i) for i in range(n))
        else:
            tasks.append((exp_id, None))
    return tasks


# -- the one true task body (runs in this process and in pool workers) ----

def _raise_timeout(signum, frame):
    raise TimeoutError("experiment task exceeded its time budget")


@contextlib.contextmanager
def worker_env(faults_spec: Optional[str], timeout_s: Optional[float],
               flow_mode: Optional[str] = None):
    """Worker-side task context: fault spec, flow mode + wall-clock alarm.

    The fault spec and flow mode are always (re)applied — workers are
    reused across tasks, so leftover state from a previous task must
    never leak.  The alarm uses ``SIGALRM`` where available (main thread
    on POSIX); elsewhere tasks simply run unbounded.
    """
    from ..faults.context import set_active_spec
    from ..flow.context import set_flow_mode
    previous = set_active_spec(faults_spec)
    previous_flow = set_flow_mode(flow_mode)
    use_alarm = (timeout_s is not None and hasattr(signal, "setitimer")
                 and threading.current_thread() is threading.main_thread())
    if use_alarm:
        old_handler = signal.signal(signal.SIGALRM, _raise_timeout)
        old_timer = signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, *old_timer)
            signal.signal(signal.SIGALRM, old_handler)
        set_flow_mode(previous_flow)
        set_active_spec(previous)


def _observed(fn, *args):
    """Run ``fn(*args)`` under a fresh registry; return (value, snapshot)."""
    from ..obs import MetricsRegistry, use_registry
    reg = MetricsRegistry()
    with use_registry(reg):
        value = fn(*args)
    return value, reg.to_dict()


def run_task(task: Task, ctx: RunContext):
    """Execute one task under ``ctx``; returns ``(payload, snapshot)``.

    The payload is JSON-representable by construction — the result's
    ``to_dict()`` for whole experiments, the plain row list for cells —
    so it crosses process boundaries without losing a byte, and it is
    exactly what the cell cache stores.
    """
    exp_id, index = task
    with worker_env(ctx.faults_spec, ctx.timeout_s, ctx.flow_mode):
        if index is None:
            if ctx.observe:
                result, snap = _observed(registry.run_experiment,
                                         exp_id, ctx.quick)
                return result.to_dict(), snap
            return registry.run_experiment(exp_id, ctx.quick).to_dict(), None
        if ctx.observe:
            row, snap = _observed(registry.run_cell, exp_id, ctx.quick, index)
            return list(row), snap
        return list(registry.run_cell(exp_id, ctx.quick, index)), None
