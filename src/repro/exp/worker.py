"""``python -m repro.exp.worker`` — a socket-backend worker process.

Start any number of these, on any hosts that can import :mod:`repro`
at the same version, and point them at a coordinator
(``repro experiments --backend socket``)::

    python -m repro.exp.worker --connect coordinator-host:7463
    # or, equivalently:
    python -m repro.cli worker --connect coordinator-host:7463

The worker speaks the length-prefixed JSON protocol of
:mod:`repro.exp.protocol`: HELLO, receive the WELCOME run context,
then drain LEASEs.  The coordinator pipelines grants (a credit window
of leases is in flight at once), so the worker keeps a local queue:
frames arriving while a task computes are filed, and the next task
starts without waiting for a fresh grant.

Cache traffic is batched.  When the WELCOME announces the worker's
shard, every shard key is prefetched up front in chunked CACHE_MGET
round trips — the per-cell blocking CACHE_GET only survives for
*reassigned* leases (``attempt > 1``), where another worker may have
published the row between its crash and our grant (and as the
fallback when prefetch is disabled).  Computed payloads are published
in batched CACHE_MPUT frames flushed **before** the batch's RESULTs,
preserving the publish-then-report ordering the crash-window tests
pin.  A worker given ``--cache-dir`` also consults and fills its own
local cache.

Liveness is piggybacked: every outgoing result/cache frame carries
``holding`` — the lease ids queued or computing here — and the
coordinator renews exactly those.  A single session-wide heartbeat
thread covers the quiet stretches (long computes), staying silent
whenever traffic flowed within the last interval; a worker that dies
mid-pipeline simply stops reporting and the coordinator reassigns its
whole window.

Reconnect: a worker started before the coordinator is listening, or
whose connection drops mid-run (network cut, chaos proxy reset),
retries with seeded exponential backoff + jitter instead of dying with
``ConnectionRefusedError``.  The ``--connect-budget`` flag (env
``REPRO_EXP_CONNECT_BUDGET_S``) caps how long the worker keeps trying
*without a successful handshake*; each completed WELCOME resets the
budget.  The jitter stream is seeded from the worker id via
:class:`~repro.sim.rng.RngRegistry`, so a fleet's retry schedule is
reproducible and workers don't thunder in lockstep.

Fail-closed: a malformed frame from the coordinator ends the
*connection* (and the worker reconnects fresh — parsing state never
survives garbage); a **version mismatch** in WELCOME, or a BYE
carrying an ``error``, ends the *process* with a typed message —
retrying a wrong-software pairing can never succeed.  Every socket
operation carries a timeout.

Exit codes: 0 clean (BYE / coordinator EOF), 1 connect budget
exhausted, 2 fatal protocol rejection (version mismatch / BYE error).

Chaos hooks (used by the conformance wall, harmless otherwise):

* ``REPRO_EXP_TASK_SLEEP_S`` — sleep this long inside each lease
  before computing, widening the mid-lease window tests SIGKILL into;
* ``REPRO_EXP_DIE_AFTER_PUT`` — a marker-file path; the first worker
  to claim it (atomically, ``O_EXCL``) calls ``os._exit`` right
  between publishing a payload to the cache and sending its RESULT —
  the exact crash window the lease layer must absorb.  Exactly one
  worker across the fleet dies.
"""

from __future__ import annotations

import argparse
import os
import select
import socket as socketlib
import sys
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..sim.rng import RngRegistry
from .cache import CellCache, cell_key
from .planner import RunContext, run_task, task_key
from .protocol import (PROTOCOL_VERSION, ProtocolError, VersionMismatchError,
                       check_versions, package_version, recv_frame,
                       send_frame)

__all__ = ["serve", "main", "CONNECT_BUDGET_ENV", "DEFAULT_CONNECT_BUDGET_S"]

TASK_SLEEP_ENV = "REPRO_EXP_TASK_SLEEP_S"
DIE_AFTER_PUT_ENV = "REPRO_EXP_DIE_AFTER_PUT"

#: Default ceiling on continuous time without a successful handshake.
CONNECT_BUDGET_ENV = "REPRO_EXP_CONNECT_BUDGET_S"
DEFAULT_CONNECT_BUDGET_S = 60.0

#: Backoff shape: 50 ms doubling to a 2 s cap, times jitter in [0.5, 1.5).
_BACKOFF_BASE_S = 0.05
_BACKOFF_CAP_S = 2.0

#: Keys per CACHE_MGET chunk during the WELCOME-time prefetch.
_MGET_BATCH = 64

#: Publish/report sub-batch: with a drained queue results go out
#: immediately (exactly the old per-lease pattern); with a deep
#: pipeline up to this many results amortise one CACHE_MPUT flush.
_PUT_BATCH = 4


def _monotonic() -> float:
    """Deadline/backoff clock (never feeds a result)."""
    return time.monotonic()  # repro-lint: disable=DET101 -- worker-side reconnect deadline clock only


def _default_connect_budget_s() -> float:
    try:
        value = float(os.environ.get(CONNECT_BUDGET_ENV, ""))
        return value if value > 0 else DEFAULT_CONNECT_BUDGET_S
    except ValueError:
        return DEFAULT_CONNECT_BUDGET_S


def _chaos_sleep_s() -> float:
    try:
        return max(0.0, float(os.environ.get(TASK_SLEEP_ENV, "0")))
    except ValueError:
        return 0.0


def _claim_chaos_death() -> bool:
    """Atomically claim the DIE_AFTER_PUT marker file; ``True`` for the
    single worker (fleet-wide) that should now crash."""
    target = os.environ.get(DIE_AFTER_PUT_ENV)
    if not target:
        return False
    try:
        os.close(os.open(target, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except OSError:
        return False
    return True


class _Link:
    """The send side of one session: socket, lock, and lease ledger.

    ``holding`` is every lease id this worker has queued or is
    computing; outgoing frames piggyback it so the coordinator can
    renew the whole pipeline from ordinary traffic.  ``last_tx`` lets
    the heartbeat thread stay silent while traffic flows.
    """

    def __init__(self, sock: socketlib.socket, lock: threading.Lock):
        self.sock = sock
        self.lock = lock
        self.holding: set = set()
        self.current: Optional[int] = None
        self.last_tx = _monotonic()

    def send(self, message: Dict, piggyback: bool = True) -> None:
        with self.lock:
            if piggyback and self.holding and "holding" not in message:
                message = dict(message)
                message["holding"] = sorted(self.holding)
            # The lock exists precisely to serialise whole frames onto
            # the shared socket: the only contender is the heartbeat
            # thread, which must not interleave its frame with ours.
            # repro-lint: disable=CON402 -- frame atomicity on the shared socket is the point of this lock; the only waiter is the heartbeat thread
            send_frame(self.sock, message)
            self.last_tx = _monotonic()

    def add_holding(self, lease_id: int) -> None:
        with self.lock:
            self.holding.add(lease_id)

    def settle(self, lease_id: int) -> None:
        """The lease's RESULT is about to go out: stop claiming it."""
        with self.lock:
            self.holding.discard(lease_id)
            if self.current == lease_id:
                self.current = None


class _SessionHeartbeat:
    """Session-wide lease renewal, suppressed while frames flow.

    One thread for the whole session (not one per lease): every
    interval it reports the full ``holding`` list, keeping *queued*
    leases alive while the head of the pipeline computes.  It stays
    silent whenever any frame went out within the last interval —
    result/cache traffic piggybacks the same list, so a busy pipeline
    heartbeats for free.
    """

    def __init__(self, link: _Link, interval_s: float):
        self._link = link
        self._interval_s = max(interval_s, 0.01)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            with self._link.lock:
                holding = sorted(self._link.holding)
                current = self._link.current
                recent = (_monotonic() - self._link.last_tx
                          < self._interval_s)
            if not holding or recent:
                continue
            message: Dict = {"type": "HEARTBEAT", "holding": holding}
            if current is not None:
                message["lease"] = current
            try:
                self._link.send(message, piggyback=False)
            except OSError:
                return

    def __enter__(self) -> "_SessionHeartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


def _apply_context(ctx: RunContext):
    """Arm the process-wide fault/flow context (cache keys and task
    bodies must see the coordinator's spec, exactly like pool workers)."""
    from ..faults.context import activated
    from ..flow.context import activated as flow_activated
    import contextlib
    stack = contextlib.ExitStack()
    stack.enter_context(activated(ctx.faults_spec))
    stack.enter_context(flow_activated(ctx.flow_mode))
    return stack


class _FatalRejection(Exception):
    """The coordinator rejected us for a reason retrying cannot fix."""


def serve(connect: str, worker_id: Optional[str] = None,
          cache_dir: Optional[str] = None,
          timeout_s: float = 60.0,
          connect_budget_s: Optional[float] = None) -> int:
    """Connect to a coordinator (retrying with seeded backoff) and drain
    leases until BYE; returns an exit code (0 clean, 1 connect budget
    exhausted, 2 fatal protocol rejection such as a version mismatch)."""
    address = _parse(connect)
    worker_id = worker_id or f"{socketlib.gethostname()}-{os.getpid()}"
    if connect_budget_s is None:
        connect_budget_s = _default_connect_budget_s()
    jitter = RngRegistry().stream(f"worker-backoff:{worker_id}")
    local_cache = CellCache(cache_dir) if cache_dir else None
    deadline: Optional[float] = None    # armed while un-handshaken
    attempt = 0
    while True:
        sock = None
        while sock is None:
            try:
                sock = socketlib.create_connection(address,
                                                   timeout=timeout_s)
                # Result/cache batches are back-to-back small writes;
                # without TCP_NODELAY, Nagle + delayed ACKs stall each
                # flush ~40ms and erase the pipelining win.
                sock.setsockopt(socketlib.IPPROTO_TCP,
                                socketlib.TCP_NODELAY, 1)
            except OSError as exc:
                now = _monotonic()
                if deadline is None:
                    deadline = now + connect_budget_s
                if now >= deadline:
                    print(f"repro worker: gave up connecting to "
                          f"{address[0]}:{address[1]} after "
                          f"{connect_budget_s:g}s: {exc}", file=sys.stderr)
                    return 1
                backoff = min(_BACKOFF_CAP_S,
                              _BACKOFF_BASE_S * 2 ** min(attempt, 10))
                attempt += 1
                time.sleep(min(backoff * (0.5 + jitter.random()),
                               max(0.0, deadline - now)))
        if deadline is None:
            deadline = _monotonic() + connect_budget_s
        welcomed = [False]      # set by _session once WELCOME checks out
        try:
            outcome = _session(sock, worker_id, local_cache, deadline,
                               welcomed)
        except _FatalRejection as exc:
            print(f"repro worker: rejected by coordinator: {exc}",
                  file=sys.stderr)
            return 2
        except VersionMismatchError as exc:
            print(f"repro worker: version mismatch: {exc}", file=sys.stderr)
            return 2
        except ProtocolError as exc:
            # Garbage on the wire fails this *connection* closed; a
            # fresh connection starts with clean parser state.  The
            # budget caps time *without a handshake*, so a session that
            # got its WELCOME still resets it.
            print(f"repro worker: protocol error: {exc}; reconnecting",
                  file=sys.stderr)
            outcome = "welcomed-retry" if welcomed[0] else "retry"
        except OSError as exc:
            print(f"repro worker: connection lost: {exc}; reconnecting",
                  file=sys.stderr)
            outcome = "welcomed-retry" if welcomed[0] else "retry"
        finally:
            try:
                sock.close()
            except OSError:
                pass
        if outcome == "done":
            return 0
        if outcome == "welcomed-retry":
            deadline = None     # a successful handshake resets the budget
            attempt = 0
        now = _monotonic()
        if deadline is not None and now >= deadline:
            print(f"repro worker: no successful handshake with "
                  f"{address[0]}:{address[1]} within {connect_budget_s:g}s",
                  file=sys.stderr)
            return 1


def _session(sock: socketlib.socket, worker_id: str,
             local_cache: Optional[CellCache], deadline: float,
             welcomed: Optional[List[bool]] = None) -> str:
    """One connection's worth of work.

    Returns ``"done"`` (orderly BYE/EOF), ``"retry"`` (no WELCOME
    arrived in budget — connection looks dead), or ``"welcomed-retry"``
    (EOF after a successful handshake — reconnect with a fresh budget).
    Raises :class:`_FatalRejection`/:class:`VersionMismatchError` when
    retrying cannot help.
    """
    link = _Link(sock, threading.Lock())
    link.send({"type": "HELLO", "proto": PROTOCOL_VERSION,
               "version": package_version(), "worker": worker_id},
              piggyback=False)
    welcome = _recv_within(sock, deadline)
    if welcome is None:
        return "retry"
    if welcome.get("type") == "BYE":
        error = welcome.get("error")
        if error:
            raise _FatalRejection(str(error))
        return "done"
    if welcome.get("type") != "WELCOME":
        raise ProtocolError(f"expected WELCOME, got "
                            f"{welcome.get('type')!r}")
    check_versions(welcome, "coordinator")
    if welcomed is not None:
        welcomed[0] = True
    ctx = RunContext.from_wire(welcome.get("ctx", {}))
    shared_cache = bool(welcome.get("cache"))
    heartbeat_s = float(welcome.get("heartbeat_s", 5.0))
    cache_wait_s = max(heartbeat_s * 4, 1.0)
    announce = welcome.get("prefetch")
    prefetch_mode = isinstance(announce, list)
    pending: Deque[Dict] = deque()
    with _apply_context(ctx):
        with _SessionHeartbeat(link, heartbeat_s):
            announced = _announced_keys(announce, ctx) \
                if prefetch_mode else set()
            prefetched: Dict[str, object] = {}
            if shared_cache and announced:
                prefetched = _prefetch(sock, link, pending,
                                       sorted(announced), cache_wait_s)
            while True:
                if not pending:
                    message = _recv_patiently(sock)
                    status = _route(message, pending, link)
                    if status is not None:
                        return status
                status = _drain_ready(sock, pending, link)
                if status is not None:
                    return status
                _process_batch(sock, link, pending, ctx, shared_cache,
                               prefetch_mode, announced, prefetched,
                               local_cache, cache_wait_s)


# repro-lint: disable=WIRE502 -- _route deliberately drops stray frames: late CACHE replies after a timeout are legal here, and the fail-closed arm lives one level up in _session
def _route(message: Optional[Dict], pending: Deque[Dict],
           link: _Link) -> Optional[str]:
    """File one incoming frame; returns a session status when it ends
    the session, ``None`` when draining should continue.

    LEASE frames join the local queue (and the holding ledger, so the
    heartbeat thread keeps them alive before they even start); stray
    frames — e.g. a chaos-duplicated CACHE reply for a finished wait —
    are dropped, never misfiled.
    """
    if message is None:
        return "welcomed-retry"
    mtype = message.get("type")
    if mtype == "BYE":
        error = message.get("error")
        if error:
            raise _FatalRejection(str(error))
        return "done"
    if mtype == "LEASE":
        pending.append(message)
        link.add_holding(int(message["lease"]))
    return None


def _drain_ready(sock: socketlib.socket, pending: Deque[Dict],
                 link: _Link) -> Optional[str]:
    """Queue every frame already arriving on the socket, non-blocking.

    ``select`` with a zero timeout tells us a frame has *started* to
    arrive; :func:`recv_frame` then blocks (under the socket timeout)
    only for the remainder of that frame — parser state never
    fragments the way a truly non-blocking read could.
    """
    while select.select([sock], [], [], 0)[0]:
        status = _route(recv_frame(sock), pending, link)
        if status is not None:
            return status
    return None


def _announced_keys(announce, ctx: RunContext) -> set:
    """Cache keys for the WELCOME's shard announcement.

    The set doubles as the "known at WELCOME time" ledger: a lease for
    a key *outside* it (work stolen from another worker's shard) still
    gets the blocking CACHE_GET fallback, since our prefetch never
    asked about it.
    """
    if not isinstance(announce, list):
        return set()
    keys = set()
    for entry in announce:
        try:
            exp_id, index = entry
        except (TypeError, ValueError) as exc:
            raise ProtocolError(
                f"malformed prefetch entry {entry!r}") from exc
        keys.add(cell_key(str(exp_id), ctx.quick, index))
    return keys


def _prefetch(sock: socketlib.socket, link: _Link, pending: Deque[Dict],
              keys: List[str], wait_s: float) -> Dict[str, object]:
    """Warm a session-local cache with our shard's keys.

    Chunked CACHE_MGET round trips replace what was one blocking
    CACHE_GET per cell.  Replies are merged until the ``eom`` chunk;
    an unanswered chunk (chaos can drop either frame) times out as
    all-miss — the worker just computes those cells, byte-identically.
    LEASE frames arriving mid-wait are queued, never lost.
    """
    found: Dict[str, object] = {}
    for start in range(0, len(keys), _MGET_BATCH):
        link.send({"type": "CACHE_MGET",
                   "keys": keys[start:start + _MGET_BATCH]})
        deadline = _monotonic() + wait_s
        while _monotonic() < deadline:
            try:
                reply = recv_frame(sock)
            except socketlib.timeout:
                continue
            if reply is None:
                raise OSError("coordinator went away during CACHE_MGET")
            if reply.get("type") == "CACHE" and "entries" in reply:
                entries = reply.get("entries")
                if isinstance(entries, dict):
                    for key, payload in entries.items():
                        if payload is not None:
                            found[str(key)] = payload
                if reply.get("eom", True):
                    break
                continue
            if _route(reply, pending, link) is not None:
                raise OSError("coordinator ended session during "
                              "CACHE_MGET")
    return found


def _process_batch(sock: socketlib.socket, link: _Link,
                   pending: Deque[Dict], ctx: RunContext,
                   shared_cache: bool, prefetch_mode: bool,
                   announced: set, prefetched: Dict[str, object],
                   local_cache: Optional[CellCache],
                   cache_wait_s: float) -> None:
    """Drain the local lease queue, batching publishes and results.

    Per lease, in order: the session prefetch map (a "remote" hit),
    the local disk cache (a "local" hit, republished), a blocking
    CACHE_GET only when this is a *reassigned* lease (``attempt > 1``
    — the previous holder may have published right before dying; the
    crash-window test pins this), when the key was never in our
    prefetch announcement (a lease stolen from another worker's
    shard), or when prefetch is off entirely, and finally a real
    compute.  Computed and locally-loaded payloads
    accumulate into one CACHE_MPUT flushed **before** their RESULTs —
    the publish-then-report order (and the DIE_AFTER_PUT crash window
    between the two) is exactly the single-frame protocol's.  With an
    empty queue the flush is per-lease, i.e. the old wire pattern.
    """
    puts: Dict[str, object] = {}
    computed = False
    results: List[Dict] = []

    def flush() -> None:
        nonlocal puts, computed, results
        if puts:
            link.send({"type": "CACHE_MPUT", "entries": puts})
            if computed and _claim_chaos_death():
                # chaos hook: die in the exact window between
                # publishing to the cache and reporting the RESULT
                os._exit(17)
        for frame in results:
            link.settle(int(frame["lease"]))
            link.send(frame)
        puts, computed, results = {}, False, []

    while pending:
        message = pending.popleft()
        lease_id = int(message["lease"])
        task = (str(message["exp_id"]), message.get("index"))
        attempt = int(message.get("attempt", 1))
        key = cell_key(task[0], ctx.quick, task[1])
        payload = prefetched.get(key)
        if payload is not None:
            results.append(_result_frame(lease_id, payload=payload,
                                         cached="remote"))
        elif (local_cache is not None
                and (payload := local_cache.load(key)) is not None):
            if shared_cache:
                puts[key] = payload
            results.append(_result_frame(lease_id, payload=payload,
                                         cached="local"))
        else:
            remote = None
            if shared_cache and (attempt > 1 or not prefetch_mode
                                 or key not in announced):
                remote = _cache_get(sock, link, pending, key,
                                    cache_wait_s)
            if remote is not None:
                results.append(_result_frame(lease_id, payload=remote,
                                             cached="remote"))
            else:
                results.append(_compute(link, lease_id, task, key, ctx,
                                        shared_cache, local_cache, puts))
                if shared_cache and key in puts:
                    computed = True
        if not pending or len(results) >= _PUT_BATCH:
            flush()
    flush()


def _compute(link: _Link, lease_id: int, task, key: str, ctx: RunContext,
             shared_cache: bool, local_cache: Optional[CellCache],
             puts: Dict[str, object]) -> Dict:
    """Run one task body; returns its RESULT frame (error or payload)."""
    with link.lock:
        link.current = lease_id
    try:
        sleep_s = _chaos_sleep_s()
        if sleep_s:
            time.sleep(sleep_s)
        try:
            payload, snapshot = run_task(tuple(task), ctx)
        except BaseException as exc:    # the coordinator judges retries
            return _result_frame(lease_id,
                                 error=f"{task_key(tuple(task))}: {exc!r}")
    finally:
        with link.lock:
            if link.current == lease_id:
                link.current = None
    if local_cache is not None:
        try:
            local_cache.save(key, payload)
        except OSError:
            pass
    if shared_cache:
        puts[key] = payload
        return _result_frame(lease_id, payload=payload,
                             snapshot=snapshot, key=key)
    return _result_frame(lease_id, payload=payload, snapshot=snapshot)


def _result_frame(lease_id: int, payload=None, snapshot=None,
                  cached: Optional[str] = None,
                  error: Optional[str] = None,
                  key: Optional[str] = None) -> Dict:
    frame = {"type": "RESULT", "lease": lease_id, "payload": payload,
             "snapshot": snapshot, "cached": cached, "error": error}
    if key is not None:
        frame["key"] = key      # lets the coordinator publish even if
    return frame                # the CACHE_MPUT was lost on the wire


def _cache_get(sock, link: _Link, pending: Deque[Dict], key: str,
               wait_s: float):
    """Ask the shared cache for ``key``; bounded wait, miss on timeout.

    Under chaos the CACHE reply can be dropped on the wire — waiting
    forever would wedge the lease past its deadline, so after ``wait_s``
    the worker treats the query as a miss and computes locally (the
    result is identical either way; only effort differs).  LEASE
    frames arriving mid-wait are queued, never lost."""
    link.send({"type": "CACHE_GET", "key": key})
    deadline = _monotonic() + wait_s
    while _monotonic() < deadline:
        try:
            reply = recv_frame(sock)
        except socketlib.timeout:
            continue
        if reply is None:
            raise OSError("coordinator went away during CACHE_GET")
        if reply.get("type") == "CACHE" and reply.get("key") == key:
            return reply.get("payload")
        if _route(reply, pending, link) is not None:
            raise OSError("coordinator ended session during CACHE_GET")
    return None


def _recv_within(sock, deadline: float) -> Optional[Dict]:
    """recv_frame bounded by an absolute deadline (None on timeout)."""
    while _monotonic() < deadline:
        try:
            return recv_frame(sock)
        except socketlib.timeout:
            continue
    return None


def _recv_patiently(sock) -> Optional[Dict]:
    """recv_frame, treating idle timeouts as 'keep waiting'.

    An idle worker legitimately waits while its peers drain the queue;
    only EOF/BYE or a protocol error ends the wait.  The surrounding
    test harness bounds the whole process's lifetime instead.
    """
    while True:
        try:
            return recv_frame(sock)
        except socketlib.timeout:
            continue


def _parse(connect: str) -> Tuple[str, int]:
    host, sep, port = connect.rpartition(":")
    if not sep or not port.isdigit():
        raise SystemExit(f"repro worker: --connect must be HOST:PORT, "
                         f"got {connect!r}")
    return (host or "127.0.0.1", int(port))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.exp.worker",
        description="socket-backend experiment worker")
    parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="coordinator address")
    parser.add_argument("--worker-id", default=None,
                        help="stable worker name (default: host-pid)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="optional local cell-cache directory")
    parser.add_argument("--timeout", type=float, default=60.0,
                        metavar="SECONDS",
                        help="socket timeout (default: %(default)s)")
    parser.add_argument("--connect-budget", type=float, default=None,
                        metavar="SECONDS",
                        help="give up after this long without a "
                             "successful coordinator handshake (default: "
                             f"${CONNECT_BUDGET_ENV} or "
                             f"{DEFAULT_CONNECT_BUDGET_S:g}s)")
    args = parser.parse_args(argv)
    return serve(args.connect, worker_id=args.worker_id,
                 cache_dir=args.cache_dir, timeout_s=args.timeout,
                 connect_budget_s=args.connect_budget)


if __name__ == "__main__":
    sys.exit(main())
