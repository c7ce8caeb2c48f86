"""The cross-process plan-cache tier behind :class:`~repro.service.cache.TieredPlanCache`.

- :class:`PlanCacheServer` is the **owner-process tier**: one LRU keyed by
  the service cache key ``(fingerprint, planner version, k, knobs)`` and
  tagged by version, so hot-swap invalidation works across processes.  The
  sharded gateway's supervisor owns one.
- :class:`SharedCacheClient` is a worker's connection to it.  Every
  operation is best-effort: a crashed or unreachable cache server degrades
  the worker to its local LRU, never to failed foreground requests.

Sockets, framing, the accept loop and the client's failure policy are
:mod:`repro.ipc`'s; this module is the op table and the tagged LRU.  Keys,
tags and values are opaque bytes here: what a value holds, and which values
a reader refuses, is :mod:`repro.service.cache`'s alone.
"""

from __future__ import annotations

import json
import struct
import threading
import time
from collections import OrderedDict

from repro.ipc import MAX_FRAME_BYTES, FrameClient, FrameServer
from repro.telemetry.trace import add_span, current_trace_id, span as trace_span

# Protocol op bytes (request payload = op + body) and reply status bytes.
_OP_GET = 0x47  # "G" + key            -> HIT + value | MISS
_OP_PUT = 0x50  # "P" + klen,key,tlen,tag,value -> OK
_OP_EXISTS = 0x45  # "E" + key         -> HIT | MISS
_OP_INVALIDATE = 0x49  # "I" + tag     -> OK + u32 dropped
_OP_CLEAR = 0x43  # "C"                -> OK
_OP_STATS = 0x53  # "S"                -> OK + json
_OP_PING = 0x3F  # "?"                 -> OK
_OP_TRACED = 0x54  # "T" + u8 idlen + trace id + inner op -> TRACED + f64 + reply
_REPLY_OK = b"O"
_REPLY_HIT = b"H"
_REPLY_MISS = b"M"
_REPLY_ERROR = b"X"
_REPLY_TRACED = b"T"

#: Span labels for traced cache ops (client side).
_OP_NAMES = {
    _OP_GET: "get",
    _OP_PUT: "put",
    _OP_EXISTS: "exists",
    _OP_INVALIDATE: "invalidate",
    _OP_CLEAR: "clear",
    _OP_STATS: "stats",
    _OP_PING: "ping",
}


class PlanCacheServer(FrameServer):
    """The shared plan-cache tier: one LRU, owned by the supervisor process.

    Workers reach it over a Unix socket with the ops above, one per frame.
    Entries carry a *version tag* (the cache key's planner/model version
    component), so a hot swap can invalidate a displaced version's plans
    across every worker with one ``invalidate`` call.

    Args:
        address: Unix-socket path to listen on.
        capacity: Maximum entries; least recently used are evicted when full.
    """

    def __init__(self, address: str, capacity: int = 8192):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        super().__init__(address, self._handle, name="plan-cache")
        self.capacity = capacity
        self._entries: OrderedDict[bytes, tuple[bytes, bytes]] = OrderedDict()
        self._by_tag: dict[bytes, set[bytes]] = {}
        self._entries_lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._inserts = 0
        self._evictions = 0
        self._invalidated = 0

    # ------------------------------------------------------------------ #
    # Protocol ops
    # ------------------------------------------------------------------ #
    def _handle(self, _connection, request: bytes) -> bytes:
        if not request:
            return _REPLY_ERROR + b"empty frame"
        op, body = request[0], request[1:]
        if op == _OP_TRACED:
            # Traced envelope: u8 id-length + trace id + the inner request.
            # The server times the inner op and ships the duration back; the
            # worker grafts it into the originating request's span tree.
            if not body or len(body) < 1 + body[0]:
                return _REPLY_ERROR + b"malformed traced frame"
            inner = body[1 + body[0] :]
            if inner and inner[0] == _OP_TRACED:
                # One envelope per op: unwrapping a peer's nesting would
                # recurse as deep as its frame is long.
                return _REPLY_ERROR + b"nested traced frame"
            started = time.perf_counter()
            reply = self._handle(_connection, inner)
            return _REPLY_TRACED + struct.pack(">d", time.perf_counter() - started) + reply
        if op == _OP_GET:
            value = self._get(body)
            return _REPLY_MISS if value is None else _REPLY_HIT + value
        if op == _OP_PUT:
            return self._put(body)
        if op == _OP_EXISTS:
            with self._entries_lock:
                return _REPLY_HIT if body in self._entries else _REPLY_MISS
        if op == _OP_INVALIDATE:
            return _REPLY_OK + struct.pack(">I", self._invalidate(body))
        if op == _OP_CLEAR:
            with self._entries_lock:
                self._entries.clear()
                self._by_tag.clear()
            return _REPLY_OK
        if op == _OP_STATS:
            return _REPLY_OK + json.dumps(self.stats()).encode("utf-8")
        if op == _OP_PING:
            return _REPLY_OK
        return _REPLY_ERROR + f"unknown op {op:#x}".encode("ascii")

    def _get(self, key: bytes) -> bytes | None:
        with self._entries_lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry[1]

    def _put(self, body: bytes) -> bytes:
        try:
            (key_len,) = struct.unpack(">I", body[:4])
            key = body[4 : 4 + key_len]
            offset = 4 + key_len
            (tag_len,) = struct.unpack(">I", body[offset : offset + 4])
            tag = body[offset + 4 : offset + 4 + tag_len]
            value = body[offset + 4 + tag_len :]
            if len(key) != key_len or len(tag) != tag_len:
                raise ValueError("truncated put body")
        except (struct.error, ValueError):
            return _REPLY_ERROR + b"malformed put"
        with self._entries_lock:
            old = self._entries.get(key)
            if old is not None and old[0] != tag:
                self._by_tag.get(old[0], set()).discard(key)
            self._entries[key] = (tag, value)
            self._entries.move_to_end(key)
            self._by_tag.setdefault(tag, set()).add(key)
            self._inserts += 1
            while len(self._entries) > self.capacity:
                evicted, (evicted_tag, _) = self._entries.popitem(last=False)
                keys = self._by_tag.get(evicted_tag)
                if keys is not None:
                    keys.discard(evicted)
                    if not keys:
                        del self._by_tag[evicted_tag]
                self._evictions += 1
        return _REPLY_OK

    def _invalidate(self, tag: bytes) -> int:
        with self._entries_lock:
            keys = self._by_tag.pop(tag, set())
            for key in keys:
                self._entries.pop(key, None)
            self._invalidated += len(keys)
            return len(keys)

    def stats(self) -> dict:
        """Tier-wide counters (all workers' traffic folded together)."""
        with self._entries_lock:
            hits, misses = self._hits, self._misses
            report = {
                "hits": hits,
                "misses": misses,
                "inserts": self._inserts,
                "evictions": self._evictions,
                "invalidated": self._invalidated,
                "size": len(self._entries),
                "versions": len(self._by_tag),
                "capacity": self.capacity,
            }
        lookups = hits + misses
        report["hit_rate"] = hits / lookups if lookups else 0.0
        return report

#: How long a worker treats the tier as down after a transport error.
RETRY_SECONDS = 1.0


class SharedCacheClient(FrameClient):
    """One worker's connection to the shared cache tier.

    What :class:`~repro.service.cache.TieredPlanCache` layers its L1 over.
    The connection is lazy and every operation is best-effort: a transport
    error marks the tier down for :data:`RETRY_SECONDS` (so a dead owner process
    costs one failed syscall per window, not one per request) and reports a
    miss / no-op — the layered local LRU keeps serving.
    """

    def __init__(self, address: str):
        super().__init__(address, retry_seconds=RETRY_SECONDS)

    def _request(self, payload: bytes) -> bytes | None:
        """One op's round trip; None when the tier is down/unreachable.

        Inside a traced request the op travels in a ``_OP_TRACED`` envelope:
        the client opens a ``cache.shared.<op>`` span around the round trip
        and grafts the server-measured duration under it, so a trace shows
        both the worker-side wait and the owner-process work.
        """
        trace_id = current_trace_id()
        if trace_id is None:
            return self.request(payload)
        encoded = trace_id.encode("ascii", "replace")[:255]
        op_name = _OP_NAMES.get(payload[0], "op") if payload else "op"
        with trace_span(f"cache.shared.{op_name}"):
            reply = self.request(bytes([_OP_TRACED, len(encoded)]) + encoded + payload)
            if (
                reply is not None
                and reply.startswith(_REPLY_TRACED)
                and len(reply) >= 9
            ):
                (seconds,) = struct.unpack_from(">d", reply, 1)
                add_span(
                    f"cache.server.{op_name}", seconds, process="cache-server"
                )
                reply = reply[9:]
            return reply

    def get(self, key: bytes) -> bytes | None:
        reply = self._request(bytes([_OP_GET]) + key)
        if reply is None or not reply.startswith(_REPLY_HIT):
            return None
        return reply[1:]

    def put(self, key: bytes, tag: bytes, value: bytes) -> bool:
        body = (
            bytes([_OP_PUT])
            + struct.pack(">I", len(key)) + key
            + struct.pack(">I", len(tag)) + tag
            + value
        )
        if len(body) + 4 > MAX_FRAME_BYTES:
            return False
        reply = self._request(body)
        return reply is not None and reply.startswith(_REPLY_OK)

    def exists(self, key: bytes) -> bool:
        reply = self._request(bytes([_OP_EXISTS]) + key)
        return reply is not None and reply.startswith(_REPLY_HIT)

    def invalidate(self, tag: bytes) -> int:
        reply = self._request(bytes([_OP_INVALIDATE]) + tag)
        if reply is None or not reply.startswith(_REPLY_OK) or len(reply) < 5:
            return 0
        return struct.unpack(">I", reply[1:5])[0]

    def clear(self) -> bool:
        reply = self._request(bytes([_OP_CLEAR]))
        return reply is not None and reply.startswith(_REPLY_OK)

    def ping(self) -> bool:
        reply = self._request(bytes([_OP_PING]))
        return reply is not None and reply.startswith(_REPLY_OK)

    def server_stats(self) -> dict | None:
        """The owner process's tier-wide counters, if it is reachable."""
        reply = self._request(bytes([_OP_STATS]))
        if reply is None or not reply.startswith(_REPLY_OK):
            return None
        try:
            return json.loads(reply[1:].decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return None
