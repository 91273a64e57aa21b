"""Execution backends for the experiment engine.

The scheduler (:mod:`repro.exp.scheduler`) decides *what* to run and
how results are assembled; a backend decides *where* tasks execute:

* :class:`LocalPoolBackend` — this machine, the default: in this
  process for one worker (every ``--jobs 1`` run), a process pool for
  more;
* :class:`DryRunBackend` — plan without executing.

A backend implements one method, ``run_tasks``.  The scheduler takes a
backend instance (``None`` means a :class:`LocalPoolBackend` sized to
the run), so there is no name registry: the CLI maps ``--backend`` to
an instance itself.

Both backends execute the same task body
(:func:`repro.exp.planner.run_task`) and the scheduler reassembles
results in request order, so the rendered store is byte-identical to
:func:`repro.core.registry.run_experiment` regardless of backend,
worker count, or arrival order — ``tests/test_exp_backends.py`` is the
conformance wall pinning that.
"""

from .base import ExecutionBackend, TaskOutcome
from .dryrun import DryRunBackend
from .local import LocalPoolBackend

__all__ = ["ExecutionBackend", "TaskOutcome", "LocalPoolBackend",
           "DryRunBackend"]
