"""Determinism & simulation-safety static analysis.

Every replay guarantee in this reproduction — golden traces, cached
parallel runs, seeded fault plans, flow/packet equivalence — rests on
code-level invariants (no wall clock, no unseeded randomness, no
unordered iteration feeding the event loop, slotted hot-path records,
cross-file parity).  This package turns those
conventions into machine-checked rules; ``python -m repro.lint`` is
wired into CI as a gate.

Rule families:

* **DET** — determinism: bans nondeterministic inputs (wall clock,
  entropy, module-level :mod:`random`, ``id()`` ordering, set-order
  leaks).
* **SIM** — simulation safety: process generators yield events,
  callbacks are not generators, hot-path records declare
  ``__slots__``, no container mutation during its own iteration.
* **PAR** — cross-file parity: flow models read only real profile
  fields and name their packet twins, backends implement the full
  protocol surface, the harness times durations monotonically, and
  every wire frame type has a fail-closed decode fixture.

See ``python -m repro.lint --list-rules`` for the full table, and the
README "Static analysis" section for suppression syntax.
"""

from __future__ import annotations

from .cache import LintCache, lint_source_digest
from .engine import ENGINE_VERSION, FileContext, LintEngine, LintReport, \
    discover_files
from .registry import RULES, Rule, expand_selection, load_builtin_rules, \
    register
from .report import render_json, render_text
from .suppress import parse_suppressions
from .violations import Violation

__all__ = [
    "ENGINE_VERSION", "FileContext", "LintCache", "LintEngine",
    "LintReport", "RULES", "Rule", "Violation", "discover_files",
    "expand_selection", "lint_source_digest", "load_builtin_rules",
    "parse_suppressions", "register", "render_json", "render_text",
]
