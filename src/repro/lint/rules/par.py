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

Both are ``project``-scope: they need the whole file set and locate
their anchor by path suffix (``repro/calibration.py``), which makes
them equally happy on the real tree and on test fixtures.  PAR306 is
the ``file``-scope outlier: it polices the experiment harness
(``repro/exp/``) itself, banning non-monotonic clocks from timeout and
backoff arithmetic so the resume wall measures what it thinks it
measures.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional

from ..engine import FileContext
from ..project import FUNC_NODES, find_file, resolve_imports
from ..registry import Rule, register
from ..violations import Violation

__all__ = ["ProfileAttrParity", "FlowPacketTwin", "MonotonicDurations"]

_EXP_PACKAGE = "repro/exp/"
#: Clocks that jump on NTP slew/step or timezone churn.  Timeout and
#: backoff arithmetic in the harness must come off ``time.monotonic``;
#: ``perf_counter`` is banned too because it is not comparable across
#: processes, and the harness runs tasks in pool workers.
_NON_MONOTONIC_CLOCKS = {
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}
_CALIBRATION_SUFFIX = "repro/calibration.py"
_FLOW_PACKAGE = "repro/flow/"
#: Packet-protocol packages a flow twin shadows.
_PACKET_PACKAGES = (("repro", "tcp"), ("repro", "verbs"),
                    ("repro", "ipoib"))


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
                elif isinstance(stmt, FUNC_NODES):
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

    def check_project(self, files: Dict[str, FileContext]
                      ) -> Iterator[Violation]:
        calib = find_file(files, _CALIBRATION_SUFFIX)
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

    def check_project(self, files: Dict[str, FileContext]
                      ) -> Iterator[Violation]:
        # Twin resolution is only meaningful when the repro package
        # root is in the lint set (single-file runs cannot tell a
        # renamed twin from an unlinted one).
        root_present = any(rel.endswith("repro/__init__.py")
                           for rel in files)
        for ctx in _flow_files(files):
            imports = resolve_imports(ctx)
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


@register
class MonotonicDurations(Rule):
    id = "PAR306"
    name = "monotonic-durations"
    summary = ("repro/exp/ timeout/backoff arithmetic must read "
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
                f"`{chain}()` in the experiment harness — wall clocks "
                f"jump on NTP slew and are not comparable across "
                f"processes, so a timeout or backoff computed from "
                f"one can expire instantly or never; use "
                f"time.monotonic() (suppress only for operational "
                f"metadata such as journal run ids)")
