"""Rule model and registry.

Every check is a :class:`Rule` subclass registered with :func:`register`.
Rules come in two scopes:

* ``file`` rules get one :class:`~repro.lint.engine.FileContext` at a
  time and may only look at that file;
* ``project`` rules run once per lint invocation over the whole file
  set — PAR303 needs to compare the flow models against
  ``repro/calibration.py``.

The ``LNT`` meta-rules are registered here too so they show up in
``--list-rules`` and can be ``--ignore``-d, but they are emitted by the
engine itself (suppression parsing, syntax errors), never invoked as
visitors.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List

from .violations import Violation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import FileContext

__all__ = ["Rule", "RULES", "register", "load_builtin_rules",
           "expand_selection", "SelectionError"]

#: Registry of rule id -> rule instance, filled by :func:`register`.
RULES: Dict[str, "Rule"] = {}


class Rule:
    """Base class for lint rules."""

    id: str = ""        #: e.g. ``"DET101"``
    name: str = ""      #: kebab-case slug, e.g. ``"wall-clock"``
    summary: str = ""   #: one-line description for ``--list-rules``
    scope: str = "file"  #: ``"file"``, ``"project"`` or ``"meta"``

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        """Yield violations for one file (``file``-scope rules)."""
        return iter(())

    def check_project(self, files: Dict[str, "FileContext"]
                      ) -> Iterator[Violation]:
        """Yield violations over the whole file set (``project`` scope).

        ``files`` maps the engine's posix-style relative path to its
        parsed context; rules locate anchors by path suffix so the same
        code works for ``src/repro/...`` trees and test fixtures.
        """
        return iter(())

    # -- helpers ---------------------------------------------------------
    def violation(self, ctx: "FileContext", node: ast.AST,
                  message: str) -> Violation:
        return Violation(self.id, self.name, ctx.rel,
                         getattr(node, "lineno", 1),
                         getattr(node, "col_offset", 0), message)


def register(cls):
    """Class decorator adding a rule (as a singleton) to :data:`RULES`."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in RULES:
        raise ValueError(f"duplicate rule id {cls.id}")
    RULES[cls.id] = cls()
    return cls


# -- meta rules (emitted by the engine, not run as visitors) -------------

@register
class SuppressionNeedsJustification(Rule):
    id = "LNT001"
    name = "suppression-needs-justification"
    summary = ("a `# repro-lint: disable=...` comment must carry a "
               "`-- <reason>` justification; unjustified suppressions "
               "are inert")
    scope = "meta"


@register
class SuppressionUnknownRule(Rule):
    id = "LNT002"
    name = "suppression-unknown-rule"
    summary = ("a suppression names a rule id that does not exist "
               "(typo or removed rule); the unknown id is ignored")
    scope = "meta"


@register
class SyntaxErrorRule(Rule):
    id = "LNT003"
    name = "syntax-error"
    summary = "the file does not parse; no other rule ran on it"
    scope = "meta"


_LOADED = False


def load_builtin_rules() -> None:
    """Import the rule packages exactly once, populating :data:`RULES`."""
    global _LOADED
    if _LOADED:
        return
    from .rules import con, det, par, sim  # noqa: F401  (import = register)
    _LOADED = True


class SelectionError(ValueError):
    """A ``--select``/``--ignore`` token matched no registered rule."""


def expand_selection(tokens: Iterable[str]) -> List[str]:
    """Expand rule-id / family-prefix tokens to concrete rule ids.

    ``"DET"`` expands to every DET rule; ``"SIM203"`` to itself.  An
    unknown token raises :class:`SelectionError` (CLI exit code 2) so
    typos cannot silently disable a gate.
    """
    out: List[str] = []
    for tok in tokens:
        tok = tok.strip()
        if not tok:
            continue
        matches = [rid for rid in RULES
                   if rid == tok or rid.startswith(tok)]
        if not matches:
            raise SelectionError(f"unknown rule or family {tok!r}")
        out.extend(m for m in matches if m not in out)
    return out
