"""CON — concurrency-discipline rules.

The harness runs threads next to processes: the local backend parks
a daemon watchdog thread next to a fork-based process pool, and the
cell cache must stay safe for concurrent writers.  These rules verify
the lock discipline of such code on every lint run, using the
per-module thread model from
:mod:`repro.lint.project` (``threading.Thread(target=...)`` entries
plus bare-name call-graph closure).

CON401  an attribute written outside ``__init__`` and touched from
        both thread context and main-thread context must have *one*
        common ``with <lock>:`` guard around every write.  Guarding
        each write with a different lock is the classic near-miss —
        two locks serialise nothing.
CON402  blocking calls (``time.sleep``, ``os.fsync``, socket
        send/recv/accept, protocol frame I/O) while holding a lock:
        every other thread contending for that lock now waits on the
        network, which is how a WAN stall becomes a process stall.
CON403  bare ``lock.acquire()`` must be immediately followed by
        ``try:`` / ``finally: lock.release()`` — any raise in between
        otherwise leaves the lock held forever.  (``with lock:`` is
        always fine and always preferred.)
CON404  a daemon thread mutating module-level state in a module that
        also starts a fork-based process pool: children fork with a
        snapshot of that state taken at an arbitrary point in the
        daemon's loop (the PR-8 parent-watchdog hazard).

The thread model over-approximates (bare-name reachability), which for
CON401 can at worst demand a lock that is merely redundant; CON402–404
do not depend on reachability at all.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..engine import FileContext
from ..project import (FUNC_NODES, ThreadModel, dotted_name, is_lockish,
                       own_body_nodes, thread_model)
from ..registry import Rule, register
from ..violations import Violation

__all__ = ["SharedWriteNoCommonLock", "BlockingCallUnderLock",
           "BareAcquireWithoutFinally", "DaemonThreadVsForkPool"]

#: Mutating container methods — ``self.attr.append(...)`` is a write
#: to ``attr`` for CON401 purposes (same set SIM204 uses).
_MUTATORS = {
    "append", "appendleft", "add", "insert", "extend", "remove",
    "discard", "pop", "popleft", "popitem", "clear", "update",
    "setdefault",
}

#: Socket methods that block on the peer or the network.
_BLOCKING_SOCKET_METHODS = {
    "send", "sendall", "sendto", "sendmsg",
    "recv", "recvfrom", "recv_into", "recvmsg",
    "accept", "connect",
}

#: Module-level calls that block outright.
_BLOCKING_CHAINS = {"time.sleep", "os.fsync"}

#: Frame I/O helpers from the wire protocol: one call is a full
#: network round of writes or reads.
_FRAME_IO = {"send_frame", "recv_frame"}

#: Call chains that start a fork-based worker pool (CON404).
_POOL_CHAINS = {
    "concurrent.futures.ProcessPoolExecutor",
    "multiprocessing.Pool", "multiprocessing.get_context",
}


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.x`` -> ``"x"``; None otherwise."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


class _GuardWalk:
    """Walks one function body tracking the set of held lock guards.

    Visits every node except nested function defs, calling
    ``callback(node, guards)`` with the *frozenset* of lock names
    (normalised dotted strings) held at that point.
    """

    def __init__(self, model: ThreadModel, cls: Optional[str]):
        self.model = model
        self.cls = cls

    def _lock_names(self, item: ast.withitem) -> Optional[str]:
        name = dotted_name(item.context_expr)
        if name is None:
            return None
        if is_lockish(name):
            return name
        attr = _self_attr(item.context_expr)
        if (attr is not None and self.cls
                and attr in self.model.class_lock_attrs(self.cls)):
            return name
        return None

    def walk(self, fn: ast.AST, callback) -> None:
        self._visit(list(ast.iter_child_nodes(fn)), frozenset(), callback)

    def _visit(self, nodes: List[ast.AST], guards: frozenset,
               callback) -> None:
        for node in nodes:
            if isinstance(node, FUNC_NODES):
                continue
            callback(node, guards)
            if isinstance(node, (ast.With, ast.AsyncWith)):
                held = {n for n in (self._lock_names(i)
                                    for i in node.items) if n}
                # Guard expressions themselves are evaluated unlocked.
                self._visit([i.context_expr for i in node.items],
                            guards, callback)
                self._visit(node.body, guards | held, callback)
            else:
                self._visit(list(ast.iter_child_nodes(node)), guards,
                            callback)


@register
class SharedWriteNoCommonLock(Rule):
    id = "CON401"
    name = "shared-write-no-common-lock"
    summary = ("an attribute touched from both thread and main context "
               "must have one common `with <lock>:` guard around every "
               "write outside __init__")
    scope = "file"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        model = thread_model(ctx)
        if not model.entries:
            return
        # class -> attr -> list of (write node, guards, threaded)
        writes: Dict[Tuple[str, str], List[Tuple[ast.AST, frozenset,
                                                 bool]]] = {}
        touched_threaded: Set[Tuple[str, str]] = set()
        touched_main: Set[Tuple[str, str]] = set()
        for info in model.functions.values():
            if info.cls is None or info.bare == "__init__":
                continue
            threaded = model.is_threaded(info.qualname)
            cls = info.cls

            def record(node, guards, *, cls=cls, threaded=threaded):
                attr = self._write_target(node)
                if attr is not None:
                    writes.setdefault((cls, attr), []).append(
                        (node, guards, threaded))
                for read in self._touched_attrs(node):
                    key = (cls, read)
                    (touched_threaded if threaded
                     else touched_main).add(key)

            _GuardWalk(model, cls).walk(info.node, record)
        for (cls, attr) in sorted(writes,
                                  key=lambda k: (k[0], k[1])):
            if is_lockish(attr):
                continue
            if attr in model.class_lock_attrs(cls):
                continue
            if attr in model.class_safe_attrs(cls):
                continue
            key = (cls, attr)
            if not (key in touched_threaded and key in touched_main):
                continue
            sites = writes[key]
            common = frozenset.intersection(*(g for _, g, _ in sites))
            if common:
                continue
            node = min((n for n, _, _ in sites),
                       key=lambda n: (n.lineno, n.col_offset))
            locks = sorted({lk for _, g, _ in sites for lk in g})
            held = (f" (writes hold {', '.join(locks)} — no single "
                    f"lock covers all of them)" if locks else "")
            yield self.violation(
                ctx, node,
                f"`{cls}.{attr}` is written outside __init__ and "
                f"touched from both a spawned thread and main-thread "
                f"code, but its writes share no common `with <lock>:` "
                f"guard{held} — interleaved mutation can tear the "
                f"structure mid-read")

    @staticmethod
    def _write_target(node: ast.AST) -> Optional[str]:
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for t in targets:
                attr = _self_attr(t)
                if attr is not None:
                    return attr
                # self.attr[k] = v mutates attr too.
                if isinstance(t, ast.Subscript):
                    attr = _self_attr(t.value)
                    if attr is not None:
                        return attr
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in _MUTATORS):
                attr = _self_attr(func.value)
                if attr is not None:
                    return attr
        return None

    @staticmethod
    def _touched_attrs(node: ast.AST) -> Iterator[str]:
        if isinstance(node, ast.Attribute):
            attr = _self_attr(node)
            if attr is not None:
                yield attr


@register
class BlockingCallUnderLock(Rule):
    id = "CON402"
    name = "blocking-call-under-lock"
    summary = ("no blocking call (sleep, fsync, socket send/recv/"
               "accept, frame I/O) while holding a lock — contention "
               "turns a network stall into a process stall")
    scope = "file"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        model = thread_model(ctx)
        found: List[Violation] = []

        def record(node, guards):
            if not guards or not isinstance(node, ast.Call):
                return
            why = self._blocking_reason(ctx, node)
            if why is None:
                return
            locks = ", ".join(sorted(guards))
            found.append(self.violation(
                ctx, node,
                f"{why} while holding {locks} — every thread "
                f"contending for that lock now blocks behind this "
                f"call; move the blocking operation outside the "
                f"critical section or hand the data off under the "
                f"lock and perform I/O after releasing it"))

        for info in model.functions.values():
            _GuardWalk(model, info.cls).walk(info.node, record)
        # Module-level `with lock:` blocks are rare but possible.
        yield from found

    @staticmethod
    def _blocking_reason(ctx: FileContext,
                         node: ast.Call) -> Optional[str]:
        chain = ctx.resolved_call_chain(node.func)
        if chain in _BLOCKING_CHAINS:
            return f"`{chain}()` blocks"
        func = node.func
        if isinstance(func, ast.Attribute):
            base = dotted_name(func.value)
            if (func.attr in _BLOCKING_SOCKET_METHODS and base
                    and "sock" in base.rsplit(".", 1)[-1].lower()):
                return f"socket call `{base}.{func.attr}()` blocks"
            if func.attr in _FRAME_IO:
                return f"frame I/O `{func.attr}()` blocks on the wire"
        if isinstance(func, ast.Name) and func.id in _FRAME_IO:
            origin = ctx.imports.get(func.id, "")
            if "protocol" in origin:
                return f"frame I/O `{func.id}()` blocks on the wire"
        return None


@register
class BareAcquireWithoutFinally(Rule):
    id = "CON403"
    name = "bare-acquire-without-finally"
    summary = ("`lock.acquire()` must be a statement immediately "
               "followed by try/finally `lock.release()` (or use "
               "`with lock:`)")
    scope = "file"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.tree is None:
            return
        safe: Set[int] = set()
        for body in self._statement_lists(ctx.tree):
            for i, stmt in enumerate(body):
                target = self._acquire_stmt(stmt)
                if target is None:
                    continue
                nxt = body[i + 1] if i + 1 < len(body) else None
                if (isinstance(nxt, ast.Try)
                        and self._releases(nxt.finalbody, target)):
                    safe.add(id(stmt.value))
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute)
                    and func.attr == "acquire"):
                continue
            base = dotted_name(func.value)
            if not is_lockish(base):
                continue
            if id(node) in safe:
                continue
            yield self.violation(
                ctx, node,
                f"bare `{base}.acquire()` without an immediate "
                f"try/finally `{base}.release()` — any exception "
                f"between acquire and release leaves the lock held "
                f"forever; prefer `with {base}:`")

    @staticmethod
    def _statement_lists(tree: ast.AST) -> Iterator[List[ast.AST]]:
        for node in ast.walk(tree):
            for field in ("body", "orelse", "finalbody"):
                block = getattr(node, field, None)
                if isinstance(block, list) and block:
                    yield block

    @staticmethod
    def _acquire_stmt(stmt: ast.AST) -> Optional[str]:
        if not (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)):
            return None
        func = stmt.value.func
        if not (isinstance(func, ast.Attribute)
                and func.attr == "acquire"):
            return None
        base = dotted_name(func.value)
        return base if is_lockish(base) else None

    @staticmethod
    def _releases(finalbody: List[ast.AST], target: str) -> bool:
        for stmt in finalbody:
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "release"
                        and dotted_name(node.func.value) == target):
                    return True
        return False


@register
class DaemonThreadVsForkPool(Rule):
    id = "CON404"
    name = "daemon-thread-vs-fork-pool"
    summary = ("a daemon thread must not mutate module-level state in "
               "a module that starts a fork-based process pool — "
               "children fork a torn snapshot")
    scope = "file"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        model = thread_model(ctx)
        if not model.daemon_entries:
            return
        if not self._starts_pool(ctx):
            return
        daemon_reach = self._daemon_closure(model)
        for qual in sorted(daemon_reach):
            info = model.functions.get(qual)
            if info is None:
                continue
            for node in own_body_nodes(info.node):
                name = self._global_write(node, model)
                if name is None:
                    continue
                yield self.violation(
                    ctx, node,
                    f"daemon thread code ({qual}) mutates module "
                    f"global `{name}` in a module that starts a "
                    f"fork-based pool — a child process forks with "
                    f"whatever half-written snapshot the daemon left "
                    f"at fork time; keep daemon threads read-only or "
                    f"move the state into the pool initializer")

    @staticmethod
    def _starts_pool(ctx: FileContext) -> bool:
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Call)
                    and ctx.resolved_call_chain(node.func)
                    in _POOL_CHAINS):
                return True
        return False

    @staticmethod
    def _daemon_closure(model: ThreadModel) -> Set[str]:
        reach = set(model.daemon_entries)
        work = sorted(reach)
        while work:
            qual = work.pop()
            info = model.functions.get(qual)
            if info is None:
                continue
            for ref in info.refs:
                for nxt in model.by_bare.get(ref, ()):
                    if nxt not in reach:
                        reach.add(nxt)
                        work.append(nxt)
        return reach

    @staticmethod
    def _global_write(node: ast.AST,
                      model: ThreadModel) -> Optional[str]:
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for t in targets:
                if (isinstance(t, ast.Name)
                        and t.id in model.module_globals):
                    return t.id
                if (isinstance(t, ast.Subscript)
                        and isinstance(t.value, ast.Name)
                        and t.value.id in model.module_globals):
                    return t.value.id
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in _MUTATORS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in model.module_globals):
                return func.value.id
        return None
