"""The durable write-ahead run journal behind ``--journal``/``--resume``.

A journaled run appends one fsync'd, checksummed JSON line per event to
``<journal_dir>/<run_id>.jsonl`` *before* acting on it, and persists
every task payload in a content-addressed
:class:`~repro.exp.cache.CellCache` under
``<journal_dir>/<run_id>/cells/``.  Record vocabulary:

========== ==========================================================
type       meaning
========== ==========================================================
plan       the run's identity: experiment ids, quick/full, fault and
           flow specs, backend, task list, and the **plan digest**
           (a SHA-256 over ids + flags + package version + per-
           experiment source digests) that ``--resume`` must match
lease      a task grant (task key, worker, attempt)
result     a task completed; ``key`` addresses its payload in the
           journal's cell cache
error      a task failed on a worker (message, for post-mortems)
resume     a resume happened: how many tasks were skipped vs re-run
end        the run finished (failure count)
========== ==========================================================

Durability: each line is ``{"seq": n, "sha": ..., ...record...}`` where
``sha`` is the SHA-256 of the canonical ``(seq, record)`` encoding, and
the file handle is flushed **and fsync'd** after every append — a
SIGKILL (or power cut) can lose at most the record being written, never
a record that was acted upon.  On read, verification stops at the first
torn or corrupted line (everything after a torn write is suspect), and
resuming truncates the tail so new records never append after garbage.

``--resume RUN_ID`` then rebuilds the run: the plan record restores the
experiment set and flags, the plan digest is re-derived and must match
(a changed experiment source, package version or fault spec fails
closed with :class:`ResumeError` — silently "resuming" into different
numbers is the one unforgivable outcome), journaled results are
re-loaded from the cell cache, and only tasks without a journaled +
cached payload execute again.  Because every backend executes the same
idempotent task body and the scheduler assembles in request order, the
resumed store is byte-identical to an uninterrupted run — the resume
wall in ``tests/test_exp_journal.py`` pins exactly that.

Crash points
------------
:func:`maybe_crash` is the SIGKILL hook that wall drives: set
``REPRO_EXP_CRASH_POINT=<point>[:N]`` and the process kills itself
(``SIGKILL``, no cleanup, exactly like a power cut) the ``N``-th time
that named point is reached.  The wall kills the run at each of
:data:`CRASH_POINTS` and proves ``--resume`` completes it
byte-identically.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import signal
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from .cache import CellCache, source_digest

__all__ = ["DEFAULT_JOURNAL_DIR", "JournalError", "ResumeError",
           "RunJournal", "plan_digest", "new_run_id", "CRASH_POINT_ENV",
           "CRASH_POINTS", "maybe_crash", "reset_crash_counts"]

#: Journals live next to the result cache by default.
DEFAULT_JOURNAL_DIR = ".repro-cache/journal"

#: Run ids become file names; keep them boring.
_RUN_ID_RE = re.compile(r"\A[A-Za-z0-9][A-Za-z0-9._-]{0,63}\Z")


#: ``point[:N]`` — SIGKILL this process the N-th time ``point`` is hit.
CRASH_POINT_ENV = "REPRO_EXP_CRASH_POINT"

#: The named points :func:`maybe_crash` understands.
CRASH_POINTS = ("journal.plan", "backend.lease", "journal.result",
                "scheduler.finalize")

_crash_hits: Dict[str, int] = {}


def maybe_crash(point: str) -> None:
    """SIGKILL this process if ``REPRO_EXP_CRASH_POINT`` names ``point``.

    The spec is ``point`` or ``point:N`` (die on the N-th hit, default
    the first).  SIGKILL is deliberate: no atexit, no finally blocks,
    no flushes — exactly the failure ``--resume`` must survive.
    """
    spec = os.environ.get(CRASH_POINT_ENV)
    if not spec:
        return
    name, _, nth = spec.partition(":")
    if name != point:
        return
    _crash_hits[point] = _crash_hits.get(point, 0) + 1
    try:
        target = int(nth) if nth else 1
    except ValueError:
        target = 1
    if _crash_hits[point] >= target:
        os.kill(os.getpid(), signal.SIGKILL)


def reset_crash_counts() -> None:
    """Forget crash-point hit counts (test isolation)."""
    _crash_hits.clear()


class JournalError(Exception):
    """The journal cannot be created, written, or parsed."""


class ResumeError(JournalError):
    """A resume that would not reproduce the original run fails closed."""


def _package_version() -> str:
    import repro
    return repro.__version__


def plan_digest(exp_ids: Sequence[str], quick: bool,
                faults_spec: Optional[str],
                flow_mode: Optional[str]) -> str:
    """The run-identity digest ``--resume`` verifies.

    Mirrors the cache-key ingredients: a resumed run whose digest still
    matches is guaranteed to hit the same cache keys and produce the
    same bytes as the interrupted one.
    """
    payload = {"ids": list(exp_ids), "quick": bool(quick),
               "faults": faults_spec or None,
               "flow": (flow_mode if flow_mode and flow_mode != "off"
                        else None),
               "version": _package_version(),
               "sources": {exp_id: source_digest(exp_id)
                           for exp_id in exp_ids}}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def new_run_id() -> str:
    """A fresh, unique, filesystem-safe run id."""
    # Wall clock is fine here: run ids are operational metadata naming a
    # journal file; they never feed a result or a duration.
    now_ns = time.time_ns()  # repro-lint: disable=DET101,PAR306 -- run ids are operational metadata, never results or durations
    return f"run-{now_ns:016x}-{os.getpid():x}"


def _record_sha(seq: int, record: Dict) -> str:
    return hashlib.sha256(json.dumps([seq, record], sort_keys=True,
                                     separators=(",", ":")).encode()
                          ).hexdigest()


class RunJournal:
    """Append-only, fsync'd, checksummed event log of one run."""

    def __init__(self, root: Union[str, Path], run_id: str):
        if not _RUN_ID_RE.match(run_id):
            raise JournalError(f"malformed run id {run_id!r} (want "
                               f"[A-Za-z0-9][A-Za-z0-9._-]{{0,63}})")
        self.root = Path(root)
        self.run_id = run_id
        self.path = self.root / f"{run_id}.jsonl"
        #: Task payloads, content-addressed, under ``<root>/<run_id>/``.
        self.cells = CellCache(self.root / run_id)
        #: True when :meth:`records` found (and dropped) a torn tail.
        self.truncated = False
        self._seq = 0
        self._fh = None

    # -- lifecycle ------------------------------------------------------
    @classmethod
    def create(cls, root: Union[str, Path],
               run_id: Optional[str] = None) -> "RunJournal":
        """Open a fresh journal (the run id must not already exist)."""
        journal = cls(root, run_id or new_run_id())
        if journal.path.exists():
            raise JournalError(f"journal for run {journal.run_id!r} "
                               f"already exists at {journal.path}")
        journal.root.mkdir(parents=True, exist_ok=True)
        journal._fh = open(journal.path, "ab")
        return journal

    @classmethod
    def resume(cls, root: Union[str, Path], run_id: str) -> "RunJournal":
        """Reopen an existing journal for verification + continuation.

        Verifies every record checksum, drops (and physically truncates)
        a torn tail, and positions new appends after the last valid
        record.
        """
        journal = cls(root, run_id)
        if not journal.path.exists():
            raise ResumeError(f"no journal for run {run_id!r} under "
                              f"{journal.root} (known runs: "
                              f"{', '.join(journal.list_runs(root)) or 'none'})")
        valid_bytes = journal._scan()[1]
        if journal.truncated:
            with open(journal.path, "ab") as fh:
                fh.truncate(valid_bytes)
        journal._fh = open(journal.path, "ab")
        return journal

    @staticmethod
    def list_runs(root: Union[str, Path]) -> List[str]:
        """Run ids with a journal under ``root``, sorted."""
        root = Path(root)
        if not root.is_dir():
            return []
        return sorted(p.stem for p in root.glob("*.jsonl"))

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    # -- writing --------------------------------------------------------
    def append(self, record: Dict) -> None:
        """Durably append one record: write, flush, **fsync**.

        When this returns, the record survives a SIGKILL of this
        process — which is exactly when the caller may act on it.
        """
        if self._fh is None:
            raise JournalError("journal is not open for appending")
        seq = self._seq
        entry = {"seq": seq, "sha": _record_sha(seq, record)}
        entry.update(record)
        line = json.dumps(entry, sort_keys=True,
                          separators=(",", ":")) + "\n"
        self._fh.write(line.encode())
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._seq = seq + 1
        from ..obs import get_default_registry
        registry = get_default_registry()
        if registry is not None:
            registry.counter("exp", "journal_records",
                            type=str(record.get("type"))).inc()

    # -- reading --------------------------------------------------------
    def _scan(self):
        """(valid records, byte offset after the last valid line)."""
        records: List[Dict] = []
        valid_bytes = 0
        self.truncated = False
        try:
            raw = self.path.read_bytes()
        except OSError as exc:
            raise JournalError(f"cannot read journal {self.path}: "
                               f"{exc}") from exc
        offset = 0
        for line in raw.split(b"\n"):
            if not line:
                offset += 1
                continue
            try:
                entry = json.loads(line.decode())
                seq = entry["seq"]
                sha = entry["sha"]
                record = {k: v for k, v in entry.items()
                          if k not in ("seq", "sha")}
                ok = (seq == len(records)
                      and sha == _record_sha(seq, record))
            except (UnicodeDecodeError, ValueError, KeyError, TypeError):
                ok = False
            if not ok:
                # A torn or corrupted line: every later line is suspect
                # (appends happened after whatever tore this one).
                self.truncated = True
                break
            records.append(record)
            offset += len(line) + 1
            valid_bytes = offset
        self._seq = len(records)
        return records, valid_bytes

    def records(self) -> List[Dict]:
        """Every verified record, in append order (torn tail dropped)."""
        return self._scan()[0]

    def plan_record(self) -> Optional[Dict]:
        """The run's plan record (always record 0 when present)."""
        for record in self.records():
            if record.get("type") == "plan":
                return record
        return None

    def completed(self) -> Dict[str, str]:
        """``task key → cell-cache key`` for every journaled result."""
        return {str(record["task"]): str(record["key"])
                for record in self.records()
                if record.get("type") == "result" and record.get("key")}
