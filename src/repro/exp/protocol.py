"""Length-prefixed JSON message protocol for distributed execution.

No backend in the tree speaks this protocol: it was the socket
backend's wire format, and the socket backend is retired (DESIGN §5f).
The codec stays, self-contained and unit-tested, until the next change
to ``repro.exp`` removes it together with its tests (ROADMAP).

One frame = a 4-byte big-endian length followed by that many bytes of
canonical UTF-8 JSON (an object with a ``"type"`` key).  The message
vocabulary is deliberately tiny — the transport layering follows the
light-weight communication-library designs the ROADMAP cites:

========== =========== ==================================================
type       direction   meaning
========== =========== ==================================================
HELLO      worker→coord  join: protocol + package version + worker id
WELCOME    coord→worker  run config (:class:`~repro.exp.planner.RunContext`
                         wire form, slot, heartbeat/lease intervals,
                         optional shard-prefetch task list)
LEASE      coord→worker  a task grant: lease id + task identity + attempt
HEARTBEAT  worker→coord  lease renewal while a task is computing; may
                         carry ``"holding"`` (every lease id queued or
                         computing on this worker)
CACHE_GET  worker→coord  query the shared content-addressed cell cache
CACHE_MGET worker→coord  batched query: many keys in one round trip
CACHE      coord→worker  cache answer (single ``key``/``payload``, or a
                         batched ``entries`` map with an ``eom`` marker)
CACHE_PUT  worker→coord  publish a computed payload under its digest
CACHE_MPUT worker→coord  batched publish: ``entries`` maps key→payload
RESULT     worker→coord  task outcome (payload/snapshot or error)
BYE        both          orderly goodbye (coordinator: no more work; may
                         carry ``"error"`` explaining a rejection)
========== =========== ==================================================

Compressed frames: a body whose first byte is ``0x00`` is
:data:`COMPRESS_MAGIC` followed by a zlib stream of the canonical JSON.
Raw JSON bodies always start with ``{`` (0x7B), so the dispatch is
unambiguous.  Senders compress only when the body is at least
:data:`COMPRESS_MIN` bytes *and* compression actually shrinks it;
receivers inflate with a hard :data:`MAX_FRAME` output bound and fail
closed on truncated streams, trailing garbage, or decompression bombs.

Version negotiation: HELLO and WELCOME both carry ``proto``
(:data:`PROTOCOL_VERSION`) and ``version`` (the installed
``repro.__version__``).  Either side seeing a mismatch **fails
closed** with :class:`VersionMismatchError` — a mixed-version pair
would compute under different source digests and silently disagree on
cache keys and result bytes, so it must not compute at all.  The
rejecting side sends a BYE with an ``error`` field first, so the peer
can report *why* instead of a bare disconnect.

Fail-closed by construction: a frame whose length prefix is zero,
negative-ish (> :data:`MAX_FRAME`), whose body is truncated, is not
UTF-8 JSON, is not an object, or lacks a ``"type"`` raises
:class:`ProtocolError` — the peer drops the connection instead of
guessing.  Every socket passed in must already carry a timeout, so a
stalled peer surfaces as ``socket.timeout``, never as a hang.
"""

from __future__ import annotations

import json
import socket
import struct
import zlib
from typing import Dict, Optional, Tuple

__all__ = ["PROTOCOL_VERSION", "MAX_FRAME", "MESSAGE_TYPES",
           "COMPRESS_MIN", "COMPRESS_MAGIC", "FAIL_CLOSED_FIXTURES",
           "ProtocolError", "VersionMismatchError", "encode_frame",
           "send_frame", "recv_frame", "decode_body", "package_version",
           "check_versions"]

#: v2 added the ``version`` field to HELLO/WELCOME (mixed-version
#: pairs now degrade cleanly instead of misparsing).  v3 added the
#: batched cache frames (CACHE_MGET/CACHE_MPUT), lease pipelining
#: fields (LEASE ``attempt``, piggybacked ``holding`` lists) and the
#: zlib-compressed body encoding — a v2 peer would misparse all three,
#: so the handshake rejects it.
PROTOCOL_VERSION = 3

#: Hard ceiling on one frame body.  Quick-grid payloads are a few KB;
#: 16 MiB leaves room for full-sweep rows while making a garbage
#: length prefix (e.g. ASCII read as big-endian) fail immediately.
MAX_FRAME = 16 * 1024 * 1024

#: Bodies at least this large are eligible for the zlib fast path.
#: Control frames (LEASE, HEARTBEAT, small RESULTs) stay raw JSON —
#: compressing tiny bodies costs CPU and obscures debugging for no
#: wire saving.
COMPRESS_MIN = 8 * 1024

#: First body byte of a compressed frame.  Raw canonical JSON starts
#: with ``{`` so a single leading byte disambiguates.
COMPRESS_MAGIC = b"\x00"

MESSAGE_TYPES = frozenset({
    "HELLO", "WELCOME", "LEASE", "HEARTBEAT",
    "CACHE_GET", "CACHE_MGET", "CACHE", "CACHE_PUT", "CACHE_MPUT",
    "RESULT", "BYE",
})

#: One malformed frame *body* per message type that :func:`decode_body`
#: must reject with :class:`ProtocolError`.  The decode-fixture wall in
#: ``tests/test_exp_backends.py`` parametrizes over this dict, and the
#: PAR307 lint rule statically checks that every MESSAGE_TYPES entry
#: has a key here — so a new frame type cannot ship without a
#: fail-closed decode test.  Each fixture is type-specific on purpose:
#: a truncated JSON object naming the type, plus (for the batched
#: cache frames) a compressed-magic body whose zlib stream is garbage.
FAIL_CLOSED_FIXTURES: Dict[str, bytes] = {
    "HELLO": b'{"type":"HELLO","proto":',
    "WELCOME": b'{"type":"WELCOME","ctx":{',
    "LEASE": b'{"type":"LEASE","lease":1',
    "HEARTBEAT": b'{"type":"HEARTBEAT","holding":[1,',
    "CACHE_GET": b'{"type":"CACHE_GET","key":"',
    "CACHE_MGET": b'\x00CACHE_MGET not a zlib stream',
    "CACHE": b'{"type":"CACHE","entries":{',
    "CACHE_PUT": b'{"type":"CACHE_PUT","payload":',
    "CACHE_MPUT": b'\x00CACHE_MPUT not a zlib stream',
    "RESULT": b'{"type":"RESULT","lease":1,"payload":',
    "BYE": b'{"type":"BYE","error":"',
}

#: Message fields that only exist from a given protocol version on.
#: A peer older than the listed version simply omits the field, so
#: endpoint modules may only read these behind a version gate
#: (``check_versions`` / an explicit ``PROTOCOL_VERSION`` comparison);
#: the WIRE504 lint rule enforces that statically.
VERSION_GATED_FIELDS: Dict[str, int] = {
    "holding": 3,    # HEARTBEAT/RESULT piggybacked lease ledger
    "attempt": 3,    # LEASE retry counter (pipelined grants)
    "entries": 3,    # CACHE/CACHE_MPUT batched payload maps
    "keys": 3,       # CACHE_MGET batched query list
    "prefetch": 3,   # WELCOME shard-prefetch task list
    "eom": 3,        # CACHE end-of-multiget marker
}

_LEN = struct.Struct(">I")


class ProtocolError(Exception):
    """The peer sent something that is not a well-formed frame."""


class VersionMismatchError(ProtocolError):
    """The peer runs a different protocol or package version.

    A typed subclass so supervisors can distinguish "wrong software"
    (give up, fix the deployment) from "garbage on the wire" (drop the
    connection, keep serving).
    """


def package_version() -> str:
    """The installed ``repro.__version__`` (what HELLO/WELCOME carry)."""
    import repro
    return repro.__version__


def check_versions(message: Dict, who: str) -> None:
    """Fail closed unless ``message`` matches our proto + package.

    ``who`` names the peer ("worker"/"coordinator") for the error text.
    """
    proto = message.get("proto")
    if proto != PROTOCOL_VERSION:
        raise VersionMismatchError(
            f"{who} speaks protocol {proto!r}, we speak "
            f"{PROTOCOL_VERSION}")
    version = message.get("version")
    if version != package_version():
        raise VersionMismatchError(
            f"{who} runs repro {version!r}, we run "
            f"{package_version()!r} — mixed versions would disagree on "
            f"cache keys and result bytes")


def encode_frame(message: Dict) -> Tuple[bytes, bool]:
    """Serialize ``message`` canonically into one wire frame.

    Returns ``(frame_bytes, compressed)`` — the 4-byte length prefix
    plus the body, with the zlib fast path applied when the body is at
    least :data:`COMPRESS_MIN` bytes and compression actually shrinks
    it.  The ``compressed`` flag lets callers count wire savings
    (``exp/frames_compressed``) without re-inspecting bytes.
    """
    body = json.dumps(message, sort_keys=True,
                      separators=(",", ":")).encode()
    if len(body) > MAX_FRAME:
        # MAX_FRAME bounds the *decoded* body: receivers cap inflation
        # at MAX_FRAME, so a compressible-but-huge body must be
        # rejected here, not smuggled through the zlib path.
        raise ProtocolError(f"outgoing frame of {len(body)} bytes exceeds "
                            f"MAX_FRAME ({MAX_FRAME})")
    compressed = False
    if len(body) >= COMPRESS_MIN:
        packed = COMPRESS_MAGIC + zlib.compress(body, 6)
        if len(packed) < len(body):
            body = packed
            compressed = True
    return _LEN.pack(len(body)) + body, compressed


def send_frame(sock: socket.socket, message: Dict) -> bool:
    """Serialize ``message`` canonically and send it as one frame.

    Returns whether the body went out compressed (callers that don't
    count wire savings just ignore it).
    """
    frame, compressed = encode_frame(message)
    sock.sendall(frame)
    return compressed


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Exactly ``n`` bytes, ``None`` on clean EOF *before* any byte,
    :class:`ProtocolError` on EOF mid-read (a truncated frame)."""
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            if got == 0:
                return None
            raise ProtocolError(f"connection closed mid-frame "
                                f"({got}/{n} bytes)")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def _inflate(body: bytes) -> bytes:
    """Inflate a compressed frame body, bounded and fail-closed.

    The output is capped at :data:`MAX_FRAME` — a tiny body must not
    be allowed to balloon into an arbitrarily large object (the
    decompression-bomb twin of the garbage-length-prefix check).
    Truncated streams and trailing garbage are protocol errors too.
    """
    inflater = zlib.decompressobj()
    try:
        out = inflater.decompress(body[len(COMPRESS_MAGIC):], MAX_FRAME)
    except zlib.error as exc:
        raise ProtocolError(f"compressed frame body is not a zlib "
                            f"stream: {exc}") from exc
    if inflater.unconsumed_tail:
        raise ProtocolError(f"compressed frame inflates past MAX_FRAME "
                            f"({MAX_FRAME})")
    if not inflater.eof:
        raise ProtocolError("compressed frame body is truncated")
    if inflater.unused_data:
        raise ProtocolError("compressed frame has trailing garbage")
    return out


def decode_body(body: bytes) -> Dict:
    """Validate one frame body; the single point of fail-closed parsing
    shared by the blocking reader here and the coordinator's
    incremental buffer pump."""
    if body[:1] == COMPRESS_MAGIC:
        body = _inflate(body)
    try:
        message = json.loads(body.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame body is not JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(f"frame body is {type(message).__name__}, "
                            f"not an object")
    mtype = message.get("type")
    if mtype not in MESSAGE_TYPES:
        raise ProtocolError(f"unknown message type {mtype!r}")
    return message


def recv_frame(sock: socket.socket) -> Optional[Dict]:
    """One message, ``None`` on clean EOF at a frame boundary.

    Anything malformed — bad length, truncation, garbage bytes, a
    non-object body, an unknown ``"type"`` — raises
    :class:`ProtocolError`; callers must treat that as fatal for the
    connection (fail closed), never retry-parse.
    """
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length == 0 or length > MAX_FRAME:
        raise ProtocolError(f"frame length {length} outside (0, {MAX_FRAME}]")
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed between header and body")
    return decode_body(body)
