"""On-disk content-addressed cache of task payloads and experiment results.

There is one store.  Its unit is a task payload
(:func:`repro.exp.planner.run_task`): a sweep row for a cell of a
:class:`~repro.core.registry.CellPlan`, or ``result.to_dict()`` for an
experiment without a plan.  A plan-less experiment is one cell,
``(exp_id, None)``, so its cached result *is* the entry at index
``None``: the cell entry and the experiment-level entry are one file
with one value.

Entries live under ``<root>/cells/<key>.json``, where ``key`` is
:func:`cell_key`, the SHA-256 of:

* the experiment id and the cell index (``None`` for a whole
  experiment);
* the quick/full flag;
* the installed ``repro.__version__``;
* a source digest of the experiment's functions (the registered body
  plus, for cell-decomposed sweeps, the cell-plan functions);
* the process-wide fault-injection spec, when one is active;
* the flow-acceleration mode, when set to ``auto``/``on`` (``off`` and
  unset are both exact packet mode and share the clean key).

Any of those changing — editing an experiment, bumping the package
version, flipping quick to full — changes the key, so stale entries are
simply never looked up again.

An entry's body is the payload's canonical JSON (sorted keys, no
whitespace), so an experiment entry's bytes equal ``result.to_json()``
and a warm hit is one ``json.loads``.  Writes go to a private temp file
and are renamed into place, so concurrent writers never tear an entry.
A corrupted or truncated entry — or one the reader rejects, such as an
experiment entry naming another experiment — is a miss and is deleted
best-effort, never an error: the cache can be blown away or
half-written at any time and the engine just recomputes.

:class:`CellCache` is the store; :class:`ResultCache` is its
whole-experiment view.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import json
import os
import re
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

from ..core import registry
from ..core.registry import ExperimentResult

__all__ = ["DEFAULT_CACHE_DIR", "ResultCache", "CellCache", "cell_key",
           "source_digest"]

DEFAULT_CACHE_DIR = ".repro-cache"

#: Per-process sequence for temp-file names: two *threads* of one
#: process writing the same entry concurrently must not share a temp
#: path (two processes are already distinguished by pid).
_TMP_SEQ = itertools.count()

#: Cell-cache keys are read back from journal records on disk and
#: become file names; only a bare SHA-256 hex digest is ever a valid key.
_KEY_RE = re.compile(r"\A[0-9a-f]{64}\Z")   # \Z: "$" would admit "...\n"


def _function_source(fn) -> str:
    try:
        return inspect.getsource(fn)
    except (OSError, TypeError):        # builtins, C funcs, lost source
        return repr(fn)


#: Digest memo keyed by exp_id, holding the exact registered objects
#: it was computed from.  Within one process an experiment's source
#: cannot change without re-registering (a new runner/plan object), so
#: identity checks make invalidation exact — and a warm worker stops
#: paying ``inspect.getsource`` file I/O for every cell of a sweep.
_DIGEST_MEMO: Dict[str, Tuple[Any, Any, str]] = {}


def source_digest(exp_id: str) -> str:
    """SHA-256 over the source of everything ``exp_id`` executes
    directly: its registered body and, if it is a cell-decomposed
    sweep, the cell plan's parameter and row functions.  Memoized per
    registered (runner, plan) pair — cache keys are computed once per
    cell per worker, and the sources cannot change under a live
    registration."""
    runner = registry.EXPERIMENTS[exp_id]
    plan = registry.CELL_PLANS.get(exp_id)
    memo = _DIGEST_MEMO.get(exp_id)
    if memo is not None and memo[0] is runner and memo[1] is plan:
        return memo[2]
    parts = [_function_source(getattr(runner, "raw_fn", runner))]
    if plan is not None:
        parts.append(_function_source(plan.params_of))
        parts.append(_function_source(plan.run_cell))
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    _DIGEST_MEMO[exp_id] = (runner, plan, digest)
    return digest


def cell_key(exp_id: str, quick: bool, index: Optional[int]) -> str:
    """The cache key of task ``(exp_id, index)``; diskless."""
    import repro
    payload = {"exp_id": exp_id, "quick": bool(quick), "index": index,
               "version": repro.__version__,
               "digest": source_digest(exp_id)}
    # A process-wide fault spec changes what experiments measure, so it
    # becomes part of the key — but only when one is active.
    from ..faults.context import get_active_spec
    spec = get_active_spec()
    if spec:
        payload["faults"] = spec
    # Same for flow-level acceleration: "auto"/"on" produce
    # shape-identical but not byte-identical numbers, so they get their
    # own keys; "off" (and unset) IS packet mode and shares the clean key.
    from ..flow.context import get_flow_mode
    flow_mode = get_flow_mode()
    if flow_mode and flow_mode != "off":
        payload["flow"] = flow_mode
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


class CellCache:
    """Content-addressed store of task payloads under ``<root>/cells/``.

    The run journal keeps its task payloads in one of these too, so
    ``--resume`` reloads exactly the bytes each task produced.
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR):
        self.root = Path(root) / "cells"
        self.hits = 0
        self.misses = 0

    def path_of(self, key: str) -> Path:
        if not _KEY_RE.match(key):
            raise ValueError(f"malformed cell-cache key {key!r}")
        return self.root / f"{key}.json"

    def load(self, key: str,
             decode: Optional[Callable[[Any], Any]] = None) -> Optional[Any]:
        """The cached payload (through ``decode``, when given), or
        ``None`` on a miss.

        An entry that is not JSON, or that ``decode`` rejects with
        ``ValueError``/``KeyError``/``TypeError``, is corrupt: it is
        deleted best-effort and counts as a miss.
        """
        try:
            path = self.path_of(key)
        except ValueError:
            self.misses += 1
            return None
        try:
            payload = json.loads(path.read_text())
            if decode is not None:
                payload = decode(payload)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def save(self, key: str, payload: Any) -> Path:
        """Atomically persist ``payload`` under ``key``.

        Each writer writes a private temp file (pid + per-process
        sequence) and renames it into place, which is atomic on POSIX:
        readers only ever see a complete entry, and for a
        content-addressed key every writer's bytes are identical anyway.
        """
        path = self.path_of(key)
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{next(_TMP_SEQ)}")
        tmp.write_text(json.dumps(payload, sort_keys=True,
                                  separators=(",", ":")))
        tmp.replace(path)
        return path

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if self.root.is_dir():
            for entry in self.root.glob("*.json"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed


class ResultCache:
    """Whole-experiment view over :class:`CellCache` rooted at ``root``:
    an experiment's cached result is its entry at index ``None``."""

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR):
        self.root = Path(root)
        self.cells = CellCache(root)
        self.hits = 0
        self.misses = 0

    def path(self, exp_id: str, quick: bool) -> Path:
        return self.cells.path_of(cell_key(exp_id, quick, None))

    def load(self, exp_id: str, quick: bool) -> Optional[ExperimentResult]:
        """The cached result, or ``None`` on miss/corruption."""
        def decode(payload) -> ExperimentResult:
            result = ExperimentResult.from_dict(payload)
            if result.exp_id != exp_id:
                raise ValueError("cache entry names a different experiment")
            return result

        result = self.cells.load(cell_key(exp_id, quick, None), decode)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def save(self, exp_id: str, quick: bool,
             result: ExperimentResult) -> Path:
        """Atomically persist ``result`` (its bytes are ``to_json()``)."""
        return self.cells.save(cell_key(exp_id, quick, None),
                               result.to_dict())

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        return self.cells.clear()
