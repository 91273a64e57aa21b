"""Per-file visitor pipeline and project-rule driver.

The engine is deliberately shaped like the experiment scheduler it
guards: deterministic inputs (sorted file list), deterministic outputs
(violations sorted by location), and a content-addressed cache so a
clean incremental re-run touches nothing.  One :class:`FileContext` is
built per file and shared by every rule, so each file is read and
parsed exactly once per invocation.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from .registry import RULES, load_builtin_rules
from .suppress import SuppressionSet, parse_suppressions
from .violations import Violation

__all__ = ["ENGINE_VERSION", "FileContext", "LintReport", "LintEngine",
           "discover_files", "check_single_file"]

#: Bumped whenever rule semantics change incompatibly; part of the
#: incremental-cache key, so stale cached verdicts are never reused.
#: v2: CON/WIRE families, shared project symbol-table pass.
ENGINE_VERSION = "2"


class FileContext:
    """Everything rules may know about one file: source, AST, imports."""

    def __init__(self, path: Path, rel: str, source: str):
        self.path = path
        #: Posix-style path as reported in violations and used by
        #: project rules for suffix matching (e.g. ``src/repro/sim/core.py``).
        self.rel = rel
        self.source = source
        self.tree: Optional[ast.Module] = None
        self.syntax_error: Optional[SyntaxError] = None
        try:
            self.tree = ast.parse(source, filename=rel)
        except SyntaxError as exc:
            self.syntax_error = exc
        self._imports: Optional[Dict[str, str]] = None

    # -- shared helpers --------------------------------------------------
    @property
    def imports(self) -> Dict[str, str]:
        """Local name -> dotted origin for every import in the file.

        ``import random as rnd`` maps ``rnd -> random``; ``from random
        import Random`` maps ``Random -> random.Random``.  Relative
        imports keep their dots (rules that need them resolve against
        the file path themselves).  Function-local imports are included:
        determinism hazards hide in those too.
        """
        if self._imports is None:
            table: Dict[str, str] = {}
            if self.tree is not None:
                for node in ast.walk(self.tree):
                    if isinstance(node, ast.Import):
                        for alias in node.names:
                            local = alias.asname or alias.name.split(".")[0]
                            origin = (alias.name if alias.asname
                                      else alias.name.split(".")[0])
                            table[local] = origin
                    elif isinstance(node, ast.ImportFrom):
                        mod = ("." * node.level) + (node.module or "")
                        for alias in node.names:
                            if alias.name == "*":
                                continue
                            table[alias.asname or alias.name] = (
                                f"{mod}.{alias.name}" if mod else alias.name)
            self._imports = table
        return self._imports

    def resolved_call_chain(self, func: ast.AST) -> Optional[str]:
        """Dotted name of a call target with its root import-resolved.

        ``time.time`` -> ``time.time``; with ``import datetime as dt``,
        ``dt.now`` -> ``datetime.now``; with ``from random import
        Random``, ``Random`` -> ``random.Random``.  Returns ``None``
        when the root is not an imported name (e.g. ``self.rng.random``)
        — such calls go through objects, not modules, and are not this
        linter's business.
        """
        parts: List[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        origin = self.imports.get(node.id)
        if origin is None:
            return None
        parts.append(origin)
        return ".".join(reversed(parts))


class LintReport:
    """The outcome of one engine run."""

    def __init__(self, violations: List[Violation], files_checked: int,
                 cache_hits: int = 0, cache_misses: int = 0,
                 incremental: bool = False):
        self.violations = sorted(violations, key=Violation.sort_key)
        self.files_checked = files_checked
        self.cache_hits = cache_hits
        self.cache_misses = cache_misses
        self.incremental = incremental

    @property
    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for v in self.violations:
            out[v.rule] = out.get(v.rule, 0) + 1
        return out

    @property
    def exit_code(self) -> int:
        return 1 if self.violations else 0


def discover_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories to a sorted, deduplicated ``.py`` list."""
    seen = {}
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for cand in candidates:
            parts = cand.parts
            if "__pycache__" in parts or any(
                    p.startswith(".") and p not in (".", "..")
                    for p in parts):
                continue
            seen[str(cand)] = cand
    return [seen[k] for k in sorted(seen)]


def check_single_file(ctx: FileContext, supp: SuppressionSet,
                      enabled: Sequence[str]) -> List[Violation]:
    """Meta + file-scope violations for one file (the cache payload).

    Module-level (not a method) so the ``--jobs`` process pool can run
    it in a child without pickling engine state.
    """
    found: List[Violation] = []
    _, meta = parse_suppressions(ctx.rel, ctx.source)
    found.extend(v for v in meta if v.rule in enabled)
    if ctx.syntax_error is not None:
        if "LNT003" in enabled:
            err = ctx.syntax_error
            found.append(Violation(
                "LNT003", "syntax-error", ctx.rel, err.lineno or 1,
                (err.offset or 1) - 1, f"syntax error: {err.msg}"))
        return found
    for rid in enabled:
        rule = RULES[rid]
        if rule.scope != "file":
            continue
        for v in rule.check(ctx):
            if not supp.is_suppressed(v.rule, v.line):
                found.append(v)
    return found


def _pool_check(args: tuple) -> List[dict]:
    """Process-pool worker: lint one file, return violation dicts.

    Re-reads and re-parses the file in the child (AST contexts are not
    worth pickling) and ships violations back as plain dicts so the
    parent can rebuild them regardless of pickle protocol quirks.
    """
    path_str, rel, enabled = args
    load_builtin_rules()
    source = Path(path_str).read_text(encoding="utf-8", errors="replace")
    ctx = FileContext(Path(path_str), rel, source)
    supp, _ = parse_suppressions(rel, source)
    return [v.to_dict() for v in check_single_file(ctx, supp, enabled)]


class LintEngine:
    """Runs the selected rules over a file set."""

    def __init__(self, select: Optional[Sequence[str]] = None,
                 ignore: Sequence[str] = (), cache=None, jobs: int = 1):
        load_builtin_rules()
        from .registry import expand_selection
        enabled = (expand_selection(select) if select
                   else list(RULES))
        for rid in expand_selection(ignore):
            if rid in enabled:
                enabled.remove(rid)
        #: Concrete rule ids this run checks, in registry order.
        self.enabled: List[str] = [rid for rid in RULES if rid in enabled]
        #: Optional :class:`repro.lint.cache.LintCache` for incremental
        #: runs; project rules always re-run (they are cross-file).
        self.cache = cache
        #: File-scope fan-out width.  Project rules always run serially
        #: in the parent: they need every context at once, and their
        #: verdicts depend on *pairs* of files.
        self.jobs = max(1, int(jobs))

    # -- internals -------------------------------------------------------
    def _file_rules(self):
        return [RULES[rid] for rid in self.enabled
                if RULES[rid].scope == "file"]

    def _project_rules(self):
        return [RULES[rid] for rid in self.enabled
                if RULES[rid].scope == "project"]

    def _check_one(self, ctx: FileContext,
                   supp: SuppressionSet) -> List[Violation]:
        return check_single_file(ctx, supp, self.enabled)

    # -- entry point -----------------------------------------------------
    def run(self, files: Sequence[Path],
            root: Optional[Path] = None) -> LintReport:
        root = root or Path.cwd()
        contexts: Dict[str, FileContext] = {}
        supps: Dict[str, SuppressionSet] = {}
        violations: List[Violation] = []
        pending: List[tuple] = []  # cache misses for the pool
        hits = misses = 0

        for path in files:
            try:
                rel = path.resolve().relative_to(root.resolve()).as_posix()
            except ValueError:
                rel = path.as_posix()
            source = path.read_text(encoding="utf-8", errors="replace")
            ctx = FileContext(path, rel, source)
            contexts[rel] = ctx
            supp, _ = parse_suppressions(rel, source)
            supps[rel] = supp

            if self.cache is not None:
                cached = self.cache.load(rel, source, self.enabled)
                if cached is not None:
                    hits += 1
                    violations.extend(cached)
                    continue
                misses += 1
            if self.jobs > 1:
                pending.append((str(path), rel, list(self.enabled)))
                continue
            found = self._check_one(ctx, supp)
            violations.extend(found)
            if self.cache is not None:
                self.cache.save(rel, source, self.enabled, found)

        if pending:
            violations.extend(self._run_pool(pending, contexts))

        # Project rules see every file and always run: their verdicts
        # depend on *pairs* of files, which a per-file digest cannot key.
        for rule in self._project_rules():
            for v in rule.check_project(contexts):
                supp = supps.get(v.path)
                if supp is None or not supp.is_suppressed(v.rule, v.line):
                    violations.append(v)

        return LintReport(violations, files_checked=len(files),
                          cache_hits=hits, cache_misses=misses,
                          incremental=self.cache is not None)

    def _run_pool(self, pending: List[tuple],
                  contexts: Dict[str, FileContext]) -> List[Violation]:
        """Fan file-scope checks out over a process pool.

        ``executor.map`` preserves submission order, and the report
        sorts violations by location anyway, so ``--jobs N`` output is
        byte-identical to ``--jobs 1`` (pinned by a test).  Falls back
        to serial when the platform cannot spawn processes.
        """
        import concurrent.futures
        found_all: List[Violation] = []
        try:
            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.jobs) as pool:
                results = list(pool.map(_pool_check, pending))
        except (OSError, ImportError):  # pragma: no cover - no fork
            results = [_pool_check(args) for args in pending]
        for (path_str, rel, _enabled), dicts in zip(pending, results):
            found = [Violation.from_dict(d) for d in dicts]
            found_all.extend(found)
            if self.cache is not None:
                ctx = contexts[rel]
                self.cache.save(rel, ctx.source, self.enabled, found)
        return found_all
