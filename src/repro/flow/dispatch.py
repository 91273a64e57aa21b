"""The hybrid-dispatch gate: should this run use flow acceleration?

One predicate, consulted by the runner twins before they arm any flow
machinery.  Flow mode is *never* engaged when:

* the mode is unset or ``"off"`` (packet fidelity is the default);
* a metrics registry is attached to the simulator — per-frame series
  (link queue delays, RC window stalls) only exist in packet mode;
* a process-wide fault spec is active, or the fabric has an armed
  fault plan — loss/flap trajectories are packet-level by nature, and
  the equivalence argument only covers clean steady states.

``"on"`` and ``"auto"`` are identical at this gate; they differ only in
intent (``on`` is for tests that want the flow path exercised even on
tiny transfers where ``auto`` would never finish confirming).
"""

from __future__ import annotations

from ..faults import context as _faults_context
from . import context as _flow_context

__all__ = ["engaged"]


def engaged(sim, fabric=None) -> bool:
    """True when flow acceleration may arm for a run on ``sim``."""
    mode = _flow_context.get_flow_mode()
    if mode not in ("auto", "on"):
        return False
    if getattr(sim, "metrics", None) is not None:
        return False
    if _faults_context.get_active_spec() is not None:
        return False
    if fabric is not None and getattr(fabric, "faults_active", False):
        return False
    return True
