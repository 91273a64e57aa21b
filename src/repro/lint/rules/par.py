"""PAR — cross-file parity rules.

The flow-acceleration twins (``repro.flow``) can drift from the packet
layer they shadow in two ways.  Their analytic models recompute wire
footprints and service times from
:class:`repro.calibration.HardwareProfile` fields the packet layer uses
implicitly — a renamed or retired field would silently evaluate wrong
only in flow mode (PAR303).  And every flow twin declares which packet
module it must stay in lockstep with via a ``PACKET_TWIN`` global; a
twin without the pointer, or a pointer to a module that no longer
exists, orphans the equivalence wall (PAR304).

The distributed wire protocol gets the same treatment: PAR307 reads
``repro/exp/protocol.py`` and requires every frame type listed in
``MESSAGE_TYPES`` to carry a malformed-body fixture in
``FAIL_CLOSED_FIXTURES`` — the decode-fixture wall parametrizes over
that dict, so a new frame type cannot ship without a fail-closed
decode test.

All rules but one are ``project``-scope: they need the whole file set
and locate their anchors by path suffix (``repro/calibration.py``,
``repro/exp/protocol.py``), which makes them equally happy on the real
tree and on test fixtures.  PAR306 is the ``file``-scope outlier: it
polices the distributed harness (``repro/exp/``) itself, banning
non-monotonic clocks from timeout/lease/backoff arithmetic so the
chaos and resume walls measure what they think they measure.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

from ..engine import FileContext
from ..project import (FUNC_NODES, ProjectIndex, find_file,
                       frozenset_strings, global_assign, resolve_imports)
from ..registry import Rule, register
from ..violations import Violation

__all__ = ["ProfileAttrParity", "FlowPacketTwin",
           "BackendProtocolSurface", "MonotonicDurations",
           "FrameFixtureCoverage"]

_EXP_PACKAGE = "repro/exp/"
#: Clocks that jump on NTP slew/step or timezone churn.  Timeout,
#: lease, backoff and heartbeat arithmetic in the distributed harness
#: must come off ``time.monotonic``; ``perf_counter`` is banned too
#: because it is not comparable across processes, and the harness
#: routinely hands deadlines from coordinator to worker.
_NON_MONOTONIC_CLOCKS = {
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}
_CALIBRATION_SUFFIX = "repro/calibration.py"
_PROTOCOL_SUFFIX = "repro/exp/protocol.py"
_BACKENDS_BASE_SUFFIX = "repro/exp/backends/base.py"
_BACKENDS_PACKAGE = "repro/exp/backends/"
_FLOW_PACKAGE = "repro/flow/"
#: Packet-protocol packages a flow twin shadows.
_PACKET_PACKAGES = (("repro", "tcp"), ("repro", "verbs"),
                    ("repro", "ipoib"))
#: Shared helpers live in :mod:`repro.lint.project` since PR 10; the
#: private aliases keep this module's call sites unchanged.
_FUNC_NODES = FUNC_NODES
_find_file = find_file
_resolve_imports = resolve_imports


def _signature(fn: ast.AST) -> Tuple:
    """Comparable shape of a function def: positional arg names, number
    of defaults, vararg/kwarg presence, keyword-only names."""
    a = fn.args
    return (
        tuple(arg.arg for arg in a.posonlyargs + a.args),
        len(a.defaults),
        a.vararg is not None,
        tuple(arg.arg for arg in a.kwonlyargs),
        a.kwarg is not None,
    )


def _flow_files(files: Dict[str, FileContext]) -> Iterator[FileContext]:
    for rel in sorted(files):
        ctx = files[rel]
        if (ctx.tree is not None and _FLOW_PACKAGE in rel
                and not rel.endswith("__init__.py")):
            yield ctx


def _profile_members(calib: FileContext) -> Optional[set]:
    """Annotated fields + methods of ``HardwareProfile``, or ``None``
    when the class is not in this file."""
    for node in calib.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "HardwareProfile":
            members = set()
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)):
                    members.add(stmt.target.id)
                elif isinstance(stmt, _FUNC_NODES):
                    members.add(stmt.name)
            return members
    return None


@register
class ProfileAttrParity(Rule):
    id = "PAR303"
    name = "profile-attr-parity"
    summary = ("every profile.<attr> the flow models read must be a "
               "HardwareProfile field — analytic wire math must not "
               "drift from the calibration schema")
    scope = "project"

    def check_project(self, files: Dict[str, FileContext],
                      index: Optional[ProjectIndex] = None
                      ) -> Iterator[Violation]:
        calib = _find_file(files, _CALIBRATION_SUFFIX)
        if calib is None:
            return  # calibration outside the lint set; nothing to check
        members = _profile_members(calib)
        if members is None:
            return
        for ctx in _flow_files(files):
            for node in ast.walk(ctx.tree):
                if not (isinstance(node, ast.Attribute)
                        and isinstance(node.value, (ast.Name,
                                                    ast.Attribute))):
                    continue
                base = node.value
                base_name = (base.id if isinstance(base, ast.Name)
                             else base.attr)
                if base_name != "profile" or node.attr in members:
                    continue
                yield self.violation(
                    ctx, node,
                    f"{ctx.rel} reads `profile.{node.attr}` but "
                    f"HardwareProfile defines no such field — the flow "
                    f"model's analytic math has drifted from the "
                    f"calibration schema")


@register
class FlowPacketTwin(Rule):
    id = "PAR304"
    name = "flow-packet-twin"
    summary = ("every flow module shadowing a packet protocol must "
               "name its PACKET_TWIN module, and the pointer must "
               "resolve")
    scope = "project"

    def check_project(self, files: Dict[str, FileContext],
                      index: Optional[ProjectIndex] = None
                      ) -> Iterator[Violation]:
        # Twin resolution is only meaningful when the repro package
        # root is in the lint set (single-file runs cannot tell a
        # renamed twin from an unlinted one).
        root_present = any(rel.endswith("repro/__init__.py")
                           for rel in files)
        for ctx in _flow_files(files):
            imports = _resolve_imports(ctx)
            shadowed = sorted({
                ".".join(pkg) for parts in imports.values()
                for pkg in _PACKET_PACKAGES
                if tuple(parts[:2]) == pkg})
            twin = self._packet_twin(ctx)
            if twin is None:
                if shadowed:
                    yield self.violation(
                        ctx, ctx.tree,
                        f"{ctx.rel} imports from packet protocol "
                        f"package(s) {', '.join(shadowed)} but declares "
                        f"no PACKET_TWIN — the flow/packet equivalence "
                        f"wall cannot see which module it shadows")
                continue
            node, name = twin
            if not isinstance(name, str):
                yield self.violation(
                    ctx, node,
                    f"{ctx.rel} PACKET_TWIN must be a dotted module "
                    f"path string")
                continue
            if root_present and not self._resolves(files, name):
                yield self.violation(
                    ctx, node,
                    f"{ctx.rel} names PACKET_TWIN {name!r} but no such "
                    f"module exists — the twin pointer has rotted and "
                    f"the equivalence wall is orphaned")

    @staticmethod
    def _packet_twin(ctx: FileContext):
        for node in ctx.tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "PACKET_TWIN"
                    for t in node.targets):
                value = (node.value.value
                         if isinstance(node.value, ast.Constant) else None)
                return node, value
        return None

    @staticmethod
    def _resolves(files: Dict[str, FileContext], dotted: str) -> bool:
        path = dotted.replace(".", "/")
        return any(rel.endswith(path + ".py")
                   or rel.endswith(path + "/__init__.py")
                   for rel in files)


def _abstract_methods(base_ctx: FileContext) -> Optional[Dict[str, ast.AST]]:
    """``ExecutionBackend``'s ``@abstractmethod`` defs, by name, or
    ``None`` when the class is not in this file."""
    for node in base_ctx.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "ExecutionBackend":
            table: Dict[str, ast.AST] = {}
            for stmt in node.body:
                if isinstance(stmt, _FUNC_NODES) and any(
                        (isinstance(d, ast.Name) and d.id == "abstractmethod")
                        or (isinstance(d, ast.Attribute)
                            and d.attr == "abstractmethod")
                        for d in stmt.decorator_list):
                    table[stmt.name] = stmt
            return table
    return None


@register
class BackendProtocolSurface(Rule):
    id = "PAR305"
    name = "backend-protocol-surface"
    summary = ("every ExecutionBackend subclass must implement the full "
               "abstract protocol surface with matching signatures and "
               "set a non-empty registry name")
    scope = "project"

    def check_project(self, files: Dict[str, FileContext],
                      index: Optional[ProjectIndex] = None
                      ) -> Iterator[Violation]:
        base_ctx = _find_file(files, _BACKENDS_BASE_SUFFIX)
        if base_ctx is None:
            return  # base outside the lint set; nothing to check
        surface = _abstract_methods(base_ctx)
        if not surface:
            return
        for rel in sorted(files):
            ctx = files[rel]
            if (ctx.tree is None or _BACKENDS_PACKAGE not in rel
                    or rel.endswith(_BACKENDS_BASE_SUFFIX)):
                continue
            for cls in ctx.tree.body:
                if (isinstance(cls, ast.ClassDef)
                        and self._extends_backend(cls)):
                    yield from self._check_class(ctx, cls, surface)

    @staticmethod
    def _extends_backend(cls: ast.ClassDef) -> bool:
        return any(
            (isinstance(b, ast.Name) and b.id == "ExecutionBackend")
            or (isinstance(b, ast.Attribute)
                and b.attr == "ExecutionBackend")
            for b in cls.bases)

    def _check_class(self, ctx: FileContext, cls: ast.ClassDef,
                     surface: Dict[str, ast.AST]) -> Iterator[Violation]:
        for attr, spec in sorted(surface.items()):
            impl = next((s for s in cls.body
                         if isinstance(s, _FUNC_NODES) and s.name == attr),
                        None)
            if impl is None:
                yield self.violation(
                    ctx, cls,
                    f"{cls.name} implements no {attr!r} — the "
                    f"ExecutionBackend protocol surface is incomplete "
                    f"and the scheduler (and conformance wall) cannot "
                    f"drive this backend")
            elif _signature(impl) != _signature(spec):
                yield self.violation(
                    ctx, impl,
                    f"{cls.name}.{attr} has signature "
                    f"{_signature(impl)!r} but ExecutionBackend declares "
                    f"{_signature(spec)!r} — the scheduler calls every "
                    f"backend identically, so the surface must not drift")
        if not self._registry_name(cls):
            yield self.violation(
                ctx, cls,
                f"{cls.name} never sets a non-empty `name` class "
                f"attribute — the backend cannot be selected with "
                f"--backend or labelled in repro.obs counters")

    @staticmethod
    def _registry_name(cls: ast.ClassDef) -> bool:
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign):
                targets = [t for t in stmt.targets
                           if isinstance(t, ast.Name)]
            elif (isinstance(stmt, ast.AnnAssign)
                  and isinstance(stmt.target, ast.Name)):
                targets = [stmt.target]
            else:
                continue
            if any(t.id == "name" for t in targets):
                value = stmt.value
                return (isinstance(value, ast.Constant)
                        and isinstance(value.value, str)
                        and value.value != "")
        return False


@register
class MonotonicDurations(Rule):
    id = "PAR306"
    name = "monotonic-durations"
    summary = ("repro/exp/ timeout/lease/backoff arithmetic must read "
               "time.monotonic, never time.time/perf_counter or "
               "datetime clocks")
    scope = "file"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if _EXP_PACKAGE not in ctx.rel:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = ctx.resolved_call_chain(node.func)
            if chain not in _NON_MONOTONIC_CLOCKS:
                continue
            yield self.violation(
                ctx, node,
                f"`{chain}()` in the distributed harness — wall clocks "
                f"jump on NTP slew and are not comparable across "
                f"processes, so a lease or connect budget computed from "
                f"one can expire instantly or never; use "
                f"time.monotonic() (suppress only for operational "
                f"metadata such as journal run ids)")


_frozenset_strings = frozenset_strings
_global_assign = global_assign


@register
class FrameFixtureCoverage(Rule):
    id = "PAR307"
    name = "frame-fixture-coverage"
    summary = ("every protocol MESSAGE_TYPES frame type must have a "
               "fail-closed decode fixture in FAIL_CLOSED_FIXTURES")
    scope = "project"

    def check_project(self, files: Dict[str, FileContext],
                      index: Optional[ProjectIndex] = None
                      ) -> Iterator[Violation]:
        proto = _find_file(files, _PROTOCOL_SUFFIX)
        if proto is None:
            return  # protocol outside the lint set; nothing to check
        types_node = _global_assign(proto, "MESSAGE_TYPES")
        if types_node is None:
            return
        types = _frozenset_strings(types_node.value)
        if types is None:
            yield self.violation(
                proto, types_node,
                "MESSAGE_TYPES must be a frozenset literal of string "
                "frame types — a computed value hides the protocol "
                "vocabulary from static fixture-coverage checking")
            return
        fixtures_node = _global_assign(proto, "FAIL_CLOSED_FIXTURES")
        if fixtures_node is None:
            yield self.violation(
                proto, types_node,
                "protocol.py declares MESSAGE_TYPES but no "
                "FAIL_CLOSED_FIXTURES dict — no frame type has a "
                "fail-closed decode fixture, so malformed-frame "
                "handling is untested")
            return
        value = fixtures_node.value
        if not isinstance(value, ast.Dict):
            yield self.violation(
                proto, fixtures_node,
                "FAIL_CLOSED_FIXTURES must be an explicit dict literal "
                "keyed by frame type — a comprehension or computed "
                "value defeats static coverage checking")
            return
        covered = {k.value for k in value.keys
                   if isinstance(k, ast.Constant)
                   and isinstance(k.value, str)}
        for mtype in types:
            if mtype not in covered:
                yield self.violation(
                    proto, fixtures_node,
                    f"frame type {mtype!r} is in MESSAGE_TYPES but has "
                    f"no FAIL_CLOSED_FIXTURES entry — the decode-fixture "
                    f"wall never proves decode_body fails closed on a "
                    f"malformed {mtype} body")
