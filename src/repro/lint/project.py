"""Shared project symbol-table pass: thread model + call-graph reach.

PR 10 adds two rule families that both need to answer the same
questions about a module before they can say anything useful:

* which functions run on a spawned thread?  (``CON`` needs the split
  between thread context and main-thread context to reason about
  shared attributes and lock discipline);
* where do imports actually point, and which file in the lint set is
  the protocol / worker / coordinator anchor?  (``WIRE`` extracts one
  frame state machine per endpoint and compares them).

Rather than each rule re-walking the AST with its own half of the
answer, this module builds the answers once.  The engine constructs a
single :class:`ProjectIndex` per run and hands it to every
project-scope rule; file-scope rules call :func:`thread_model`
directly (results are memoised on the :class:`FileContext`).

Thread-entry inference
----------------------

A function is a *thread entry* when it appears as the ``target=`` of a
``threading.Thread(...)`` construction — ``target=name`` for module
functions, ``target=self.attr`` for methods (resolved against the
enclosing class).  From the entries we take a call-graph closure over
*bare-name* references: function ``f`` reaches ``g`` when ``f``'s body
mentions ``g``'s name as a call, a bare reference (callback passing:
``record=self.record``), or an attribute tail (``self._link.send``).
Bare-name matching over-approximates on collisions, which is the safe
direction for a concurrency linter: treating main-thread code as
threaded can at worst demand a lock that is merely redundant.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .engine import FileContext

__all__ = ["ProjectIndex", "ThreadModel", "FunctionInfo", "thread_model",
           "find_file", "module_parts", "resolve_imports", "dotted_name",
           "frozenset_strings", "global_assign", "is_lockish",
           "FUNC_NODES", "LOCK_FACTORIES", "THREADSAFE_FACTORIES"]

FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Constructors whose result is a lock-like guard object.
LOCK_FACTORIES = {"threading.Lock", "threading.RLock"}

#: Constructors whose result is internally synchronised — attributes
#: holding one of these are exempt from CON401 (calling ``.set()`` on
#: an Event from two threads is the *point* of an Event).
THREADSAFE_FACTORIES = {
    "threading.Event", "threading.Condition", "threading.Semaphore",
    "threading.BoundedSemaphore", "threading.Barrier",
    "queue.Queue", "queue.LifoQueue", "queue.PriorityQueue",
    "queue.SimpleQueue",
}


# -- generic helpers (shared with the PAR family) ------------------------

def find_file(files: Dict[str, FileContext],
              suffix: str) -> Optional[FileContext]:
    """First parsed context whose relative path ends with ``suffix``."""
    for rel, ctx in files.items():
        if rel.endswith(suffix) and ctx.tree is not None:
            return ctx
    return None


def module_parts(rel: str) -> List[str]:
    """``src/repro/sim/core.py`` -> ``["repro", "sim", "core"]``
    (best effort: everything from the first ``repro`` component on)."""
    parts = rel[:-3].split("/") if rel.endswith(".py") else rel.split("/")
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    return parts


def resolve_imports(ctx: FileContext) -> Dict[str, List[str]]:
    """Local alias -> absolute dotted-path parts, for every import in
    the file, with relative levels resolved against the file path."""
    pkg = module_parts(ctx.rel)[:-1]  # containing package
    table: Dict[str, List[str]] = {}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                table[local] = (alias.name.split(".") if alias.asname
                                else [alias.name.split(".")[0]])
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = (pkg[:len(pkg) - (node.level - 1)]
                        if node.level <= len(pkg) + 1 else [])
            else:
                base = []
            base = base + (node.module.split(".") if node.module else [])
            for alias in node.names:
                if alias.name == "*":
                    continue
                table[alias.asname or alias.name] = base + [alias.name]
    return table


def dotted_name(node: ast.AST) -> Optional[str]:
    """``self._link.lock`` -> ``"self._link.lock"``; ``None`` when the
    expression is not a plain dotted chain rooted at a Name."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def is_lockish(dotted: Optional[str]) -> bool:
    """Heuristic: the last path component names a lock (``self._lock``,
    ``self._link.lock``, ``_registry_lock``, ``mutex``)."""
    if not dotted:
        return False
    tail = dotted.rsplit(".", 1)[-1].lower()
    return "lock" in tail or "mutex" in tail


def frozenset_strings(node: ast.AST) -> Optional[List[str]]:
    """String elements of a ``frozenset({...})`` / ``frozenset([...])``
    literal, or ``None`` when the value is not that shape."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "frozenset" and len(node.args) == 1
            and not node.keywords):
        return None
    arg = node.args[0]
    if not isinstance(arg, (ast.Set, ast.List, ast.Tuple)):
        return None
    out: List[str] = []
    for elt in arg.elts:
        if not (isinstance(elt, ast.Constant)
                and isinstance(elt.value, str)):
            return None
        out.append(elt.value)
    return out


def global_assign(ctx: FileContext, name: str) -> Optional[ast.AST]:
    """The module-level ``name = ...`` statement, if any."""
    for node in ctx.tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            return node
        if (isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and node.target.id == name and node.value is not None):
            return node
    return None


# -- per-module thread model ---------------------------------------------

class FunctionInfo:
    """One function (or method, or nested def) in a module."""

    __slots__ = ("qualname", "cls", "node", "refs")

    def __init__(self, qualname: str, cls: Optional[str], node: ast.AST):
        self.qualname = qualname
        self.cls = cls
        self.node = node
        #: Bare names this function's own body references (call targets,
        #: attribute tails, plain Name loads) — the call-graph edges.
        self.refs: Set[str] = set()

    @property
    def bare(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


def own_body_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """Every node in ``fn``'s body *excluding* nested function defs —
    a nested def is its own unit with its own thread context."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, FUNC_NODES):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class ThreadModel:
    """Which functions of one module run on a spawned thread."""

    def __init__(self, ctx: FileContext):
        self.ctx = ctx
        #: qualname -> FunctionInfo for every def in the module.
        self.functions: Dict[str, FunctionInfo] = {}
        #: bare name -> qualnames sharing it (collision-tolerant index).
        self.by_bare: Dict[str, Set[str]] = {}
        #: qualnames named as ``Thread(target=...)``.
        self.entries: Set[str] = set()
        #: subset of entries constructed with ``daemon=True``.
        self.daemon_entries: Set[str] = set()
        #: entries plus everything bare-name-reachable from them.
        self.threaded: Set[str] = set()
        #: class name -> attrs assigned a Lock/RLock in that class.
        self.lock_attrs: Dict[str, Set[str]] = {}
        #: class name -> attrs assigned an internally-synchronised
        #: object (Event, Queue, ...).
        self.safe_attrs: Dict[str, Set[str]] = {}
        #: names assigned at module top level (CON404's "module state").
        self.module_globals: Set[str] = set()
        if ctx.tree is not None:
            self._build()

    # -- construction ----------------------------------------------------
    def _build(self) -> None:
        tree = self.ctx.tree
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        self.module_globals.add(t.id)
            elif (isinstance(node, ast.AnnAssign)
                  and isinstance(node.target, ast.Name)):
                self.module_globals.add(node.target.id)
        self._collect_functions(tree, cls=None)
        for info in self.functions.values():
            self.by_bare.setdefault(info.bare, set()).add(info.qualname)
        for info in self.functions.values():
            self._collect_refs(info)
            self._collect_entries(info.node, info.cls,
                                  skip_nested_defs=True)
        # Module-level Thread(...) constructions (no enclosing def).
        self._collect_entries(tree, cls=None, skip_nested_defs=True,
                              top_level=True)
        self._collect_attr_classes(tree)
        self._close_over_refs()

    def _collect_functions(self, node: ast.AST, cls: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                self._collect_functions(child, cls=child.name)
            elif isinstance(child, FUNC_NODES):
                qual = f"{cls}.{child.name}" if cls else child.name
                # Last definition wins on duplicates; fine for analysis.
                self.functions[qual] = FunctionInfo(qual, cls, child)
                self._collect_functions(child, cls=cls)
            else:
                self._collect_functions(child, cls=cls)

    def _collect_refs(self, info: FunctionInfo) -> None:
        for node in own_body_nodes(info.node):
            if isinstance(node, ast.Call) and isinstance(node.func,
                                                         ast.Name):
                info.refs.add(node.func.id)
            elif isinstance(node, ast.Name):
                if node.id in self.by_bare:
                    info.refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                # Attribute references (method calls, callback passing
                # like `record=self.record`) count only when rooted at
                # ``self`` — matching `dst.close()` against every
                # method named `close` would wrongly mark main-thread
                # teardown code as threaded and hide real CON401 races.
                if node.attr not in self.by_bare:
                    continue
                base = dotted_name(node.value)
                if base == "self" or (base or "").startswith("self."):
                    info.refs.add(node.attr)

    def _thread_target(self, call: ast.Call,
                       cls: Optional[str]) -> Tuple[Optional[str], bool]:
        """(entry key, daemon flag) of a ``Thread(...)`` call, if any."""
        chain = self.ctx.resolved_call_chain(call.func)
        if chain != "threading.Thread":
            return None, False
        target = None
        daemon = False
        for kw in call.keywords:
            if kw.arg == "target":
                target = kw.value
            elif kw.arg == "daemon":
                daemon = (isinstance(kw.value, ast.Constant)
                          and bool(kw.value.value))
        if target is None:
            return None, daemon
        if isinstance(target, ast.Name):
            return target.id, daemon
        if isinstance(target, ast.Attribute):
            if (isinstance(target.value, ast.Name)
                    and target.value.id == "self" and cls):
                return f"{cls}.{target.attr}", daemon
            return target.attr, daemon
        return None, daemon

    def _collect_entries(self, scope: ast.AST, cls: Optional[str],
                         skip_nested_defs: bool,
                         top_level: bool = False) -> None:
        nodes = (own_body_nodes(scope) if skip_nested_defs and not top_level
                 else self._top_level_nodes(scope) if top_level
                 else ast.walk(scope))
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            key, daemon = self._thread_target(node, cls)
            if key is None:
                continue
            for qual in self._resolve_entry(key):
                self.entries.add(qual)
                if daemon:
                    self.daemon_entries.add(qual)

    def _top_level_nodes(self, tree: ast.AST) -> Iterator[ast.AST]:
        for stmt in ast.iter_child_nodes(tree):
            if isinstance(stmt, FUNC_NODES + (ast.ClassDef,)):
                continue
            yield stmt
            yield from ast.walk(stmt)

    def _resolve_entry(self, key: str) -> Set[str]:
        if key in self.functions:
            return {key}
        bare = key.rsplit(".", 1)[-1]
        return set(self.by_bare.get(bare, ()))

    def _collect_attr_classes(self, tree: ast.Module) -> None:
        for info in self.functions.values():
            if info.cls is None:
                continue
            for node in own_body_nodes(info.node):
                if not isinstance(node, ast.Assign):
                    continue
                for t in node.targets:
                    if not (isinstance(t, ast.Attribute)
                            and isinstance(t.value, ast.Name)
                            and t.value.id == "self"):
                        continue
                    chain = (self.ctx.resolved_call_chain(node.value.func)
                             if isinstance(node.value, ast.Call) else None)
                    if chain in LOCK_FACTORIES:
                        self.lock_attrs.setdefault(info.cls,
                                                   set()).add(t.attr)
                    elif chain in THREADSAFE_FACTORIES:
                        self.safe_attrs.setdefault(info.cls,
                                                   set()).add(t.attr)

    def _close_over_refs(self) -> None:
        work = sorted(self.entries)
        self.threaded = set(work)
        while work:
            qual = work.pop()
            info = self.functions.get(qual)
            if info is None:
                continue
            for ref in info.refs:
                for nxt in self.by_bare.get(ref, ()):
                    if nxt not in self.threaded:
                        self.threaded.add(nxt)
                        work.append(nxt)

    # -- queries ---------------------------------------------------------
    def is_threaded(self, qualname: str) -> bool:
        return qualname in self.threaded

    def class_lock_attrs(self, cls: str) -> Set[str]:
        return self.lock_attrs.get(cls, set())

    def class_safe_attrs(self, cls: str) -> Set[str]:
        return self.safe_attrs.get(cls, set())


def thread_model(ctx: FileContext) -> ThreadModel:
    """Memoised :class:`ThreadModel` for one file context."""
    model = getattr(ctx, "_thread_model", None)
    if model is None:
        model = ThreadModel(ctx)
        ctx._thread_model = model
    return model


# -- whole-run index -----------------------------------------------------

class ProjectIndex:
    """One-per-run view of the lint set for project-scope rules.

    Wraps the ``files`` dict the engine already builds and memoises the
    expensive per-module answers (thread models, resolved imports) so
    CON, WIRE and PAR rules share one symbol-table pass instead of
    three.
    """

    def __init__(self, files: Dict[str, FileContext]):
        self.files = files
        self._imports: Dict[str, Dict[str, List[str]]] = {}

    def find(self, suffix: str) -> Optional[FileContext]:
        return find_file(self.files, suffix)

    def thread_model(self, ctx: FileContext) -> ThreadModel:
        return thread_model(ctx)

    def imports(self, ctx: FileContext) -> Dict[str, List[str]]:
        table = self._imports.get(ctx.rel)
        if table is None:
            table = resolve_imports(ctx)
            self._imports[ctx.rel] = table
        return table

    def sorted_contexts(self) -> Iterator[FileContext]:
        for rel in sorted(self.files):
            ctx = self.files[rel]
            if ctx.tree is not None:
                yield ctx
