"""Sharded gateway: pre-forked HTTP workers over one port + a shared cache tier.

One :class:`~repro.server.app.PlanningServer` process is GIL-bound on the
wire path (JSON codec + dispatch) the same way scoring was before the process
pool.  This module scales the gateway out without changing the worker:

- :class:`ShardedGateway` pre-forks N worker processes, each running today's
  ``PlanningServer`` unchanged, all accepting on **one shared listening
  port**.  On platforms with ``SO_REUSEPORT`` every worker binds its own
  socket and the kernel load-balances connections; elsewhere the supervisor
  binds a single listening socket and the forked workers accept on the
  inherited fd (the classic pre-fork model).  A supervisor thread
  health-checks the shard via ``/healthz``, respawns crashed workers within a
  pool-wide ``max_respawns`` budget (the
  :class:`~repro.scoring.process.ProcessPoolBackend` idiom), and drains
  workers gracefully on shutdown.
- :class:`PlanCacheServer` is the **owner-process plan-cache tier**: a
  thread-per-connection LRU server speaking a small length-prefixed binary
  protocol over a Unix socket, keyed by the service cache key
  ``(fingerprint, planner version, k, knobs)`` and tagged by version so
  hot-swap invalidation works across processes.
- :class:`SharedCacheClient` is the worker-side connection.  Every operation
  is best-effort: a crashed or unreachable cache server degrades the worker
  to its local LRU (:class:`~repro.service.cache.TieredPlanCache` layers the
  two), never to failed foreground requests.
- :class:`OpsBroadcastServer` / :class:`OpsChannelClient` are the
  **ops-coherence channel**: the kernel load-balances connections, so a
  ``promote``/``rollback`` POST lands on one worker — the receiving worker
  re-broadcasts it through the supervisor's bus and every sibling applies it
  locally, keeping the whole shard serving the same version.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import signal
import socket
import struct
import tempfile
import threading
import time
import urllib.error
import urllib.request
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.service.cache import ServicePlanCache, TieredPlanCache
from repro.telemetry.metrics import MetricsRegistry, merge_snapshots, render_snapshot
from repro.telemetry.profiling import flamegraph_from_profile, merge_profiles
from repro.telemetry.trace import add_span, current_trace_id, span as trace_span

if TYPE_CHECKING:
    from repro.server.app import PlanningServer

#: Cache-tier address: a Unix-socket path, or a TCP ``(host, port)`` pair on
#: platforms without ``AF_UNIX``.
CacheAddress = "str | tuple[str, int]"

#: Largest accepted protocol frame (a memoised top-k result is a few KB; this
#: bound keeps a confused peer from buffering the owner process to death).
MAX_FRAME_BYTES = 8 * 1024 * 1024

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


# ---------------------------------------------------------------------- #
# Length-prefixed framing
# ---------------------------------------------------------------------- #
def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = bytearray()
    while len(chunks) < count:
        chunk = sock.recv(count - len(chunks))
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        chunks += chunk
    return bytes(chunks)


def _send_frame(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(struct.pack(">I", len(payload)) + payload)


def _recv_frame(sock: socket.socket) -> bytes:
    (length,) = struct.unpack(">I", _recv_exact(sock, 4))
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(f"frame of {length} bytes exceeds the protocol cap")
    return _recv_exact(sock, length) if length else b""


def _make_server_socket(address) -> socket.socket:
    if isinstance(address, str):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.bind(address)
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(tuple(address))
    sock.listen(64)
    return sock


def _connect(address, timeout: float) -> socket.socket:
    if isinstance(address, str):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    sock.connect(tuple(address) if not isinstance(address, str) else address)
    return sock


# ---------------------------------------------------------------------- #
# The owner-process cache tier
# ---------------------------------------------------------------------- #
class PlanCacheServer:
    """The shared plan-cache tier: one LRU, owned by the supervisor process.

    Workers reach it over a Unix socket (TCP loopback where ``AF_UNIX`` is
    unavailable) with the length-prefixed protocol above.  Entries carry a
    *version tag* (the cache key's planner/model version component), so a hot
    swap can invalidate a displaced version's plans across every worker with
    one ``invalidate`` call.

    Args:
        address: Unix-socket path (or TCP ``(host, port)``) to listen on.
        capacity: Maximum entries; least recently used are evicted when full.
    """

    def __init__(self, address, capacity: int = 8192):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.address = address
        self.capacity = capacity
        self._entries: OrderedDict[bytes, tuple[bytes, bytes]] = OrderedDict()
        self._by_tag: dict[bytes, set[bytes]] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._inserts = 0
        self._evictions = 0
        self._invalidated = 0
        self._connections: set[socket.socket] = set()
        self._conn_lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "PlanCacheServer":
        """Bind the socket and serve connections on background threads."""
        if self._closed:
            raise RuntimeError("cache server is closed")
        if self._listener is not None:
            return self
        self._listener = _make_server_socket(self.address)
        if not isinstance(self.address, str):
            self.address = self._listener.getsockname()  # resolve port 0
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="plan-cache-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def close(self) -> None:
        """Stop accepting, sever live connections, release the socket."""
        if self._closed:
            return
        self._closed = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._conn_lock:
            connections = list(self._connections)
            self._connections.clear()
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        if isinstance(self.address, str):
            try:
                os.unlink(self.address)
            except OSError:
                pass

    def __enter__(self) -> "PlanCacheServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            with self._conn_lock:
                if self._closed:
                    conn.close()
                    return
                self._connections.add(conn)
            threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="plan-cache-conn", daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while True:
                request = _recv_frame(conn)
                _send_frame(conn, self._handle(request))
        except (ConnectionError, OSError, struct.error):
            pass  # peer went away (worker exit, crash-test kill, close())
        finally:
            with self._conn_lock:
                self._connections.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    # ------------------------------------------------------------------ #
    # Protocol ops
    # ------------------------------------------------------------------ #
    def _handle(self, request: bytes) -> bytes:
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
            started = time.perf_counter()
            reply = self._handle(inner)
            return (
                _REPLY_TRACED
                + struct.pack(">d", time.perf_counter() - started)
                + reply
            )
        if op == _OP_GET:
            value = self._get(body)
            return _REPLY_MISS if value is None else _REPLY_HIT + value
        if op == _OP_PUT:
            return self._put(body)
        if op == _OP_EXISTS:
            with self._lock:
                return _REPLY_HIT if body in self._entries else _REPLY_MISS
        if op == _OP_INVALIDATE:
            return _REPLY_OK + struct.pack(">I", self._invalidate(body))
        if op == _OP_CLEAR:
            with self._lock:
                self._entries.clear()
                self._by_tag.clear()
            return _REPLY_OK
        if op == _OP_STATS:
            return _REPLY_OK + json.dumps(self.stats()).encode("utf-8")
        if op == _OP_PING:
            return _REPLY_OK
        return _REPLY_ERROR + f"unknown op {op:#x}".encode("ascii")

    def _get(self, key: bytes) -> bytes | None:
        with self._lock:
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
        with self._lock:
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
        with self._lock:
            keys = self._by_tag.pop(tag, set())
            for key in keys:
                self._entries.pop(key, None)
            self._invalidated += len(keys)
            return len(keys)

    def stats(self) -> dict:
        """Tier-wide counters (all workers' traffic folded together)."""
        with self._lock:
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


# ---------------------------------------------------------------------- #
# The worker-side client
# ---------------------------------------------------------------------- #
class SharedCacheClient:
    """One worker's connection to the shared cache tier.

    Satisfies :class:`~repro.service.cache.SharedTierClient`.  The connection
    is lazy and every operation is best-effort: a transport error closes the
    socket, marks the tier down for ``retry_seconds`` (so a dead owner
    process costs one failed syscall per window, not one per request), and
    reports a miss / no-op — the layered local LRU keeps serving.
    """

    def __init__(self, address, *, timeout: float = 2.0, retry_seconds: float = 1.0):
        self.address = address
        self.timeout = timeout
        self.retry_seconds = retry_seconds
        self._sock: socket.socket | None = None
        self._lock = threading.Lock()
        self._down_until = 0.0
        self._ops = 0
        self._errors = 0
        self._skipped = 0

    @property
    def available(self) -> bool:
        """Whether the tier answered more recently than its last failure."""
        return time.monotonic() >= self._down_until

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def _request(self, payload: bytes) -> bytes | None:
        """One framed round trip; None when the tier is down/unreachable.

        Inside a traced request the op travels in a ``_OP_TRACED`` envelope:
        the client opens a ``cache.shared.<op>`` span around the round trip
        and grafts the server-measured duration under it, so a trace shows
        both the worker-side wait and the owner-process work.
        """
        trace_id = current_trace_id()
        if trace_id is None:
            return self._round_trip(payload)
        encoded = trace_id.encode("ascii", "replace")[:255]
        op_name = _OP_NAMES.get(payload[0], "op") if payload else "op"
        with trace_span(f"cache.shared.{op_name}"):
            reply = self._round_trip(
                bytes([_OP_TRACED, len(encoded)]) + encoded + payload
            )
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

    def _round_trip(self, payload: bytes) -> bytes | None:
        with self._lock:
            if time.monotonic() < self._down_until:
                self._skipped += 1
                return None
            try:
                if self._sock is None:
                    self._sock = _connect(self.address, self.timeout)
                _send_frame(self._sock, payload)
                reply = _recv_frame(self._sock)
                self._ops += 1
                return reply
            except (OSError, ConnectionError, struct.error):
                self._errors += 1
                self._down_until = time.monotonic() + self.retry_seconds
                if self._sock is not None:
                    try:
                        self._sock.close()
                    except OSError:
                        pass
                    self._sock = None
                return None

    # ------------------------------------------------------------------ #
    # SharedTierClient API
    # ------------------------------------------------------------------ #
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

    def stats(self) -> dict:
        """This client's transport counters."""
        with self._lock:
            return {
                "ops": self._ops,
                "errors": self._errors,
                "skipped_while_down": self._skipped,
                "available": time.monotonic() >= self._down_until,
            }

    def close(self) -> None:
        with self._lock:
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:
                    pass
                self._sock = None


# ---------------------------------------------------------------------- #
# The ops-coherence channel
# ---------------------------------------------------------------------- #
class OpsBroadcastServer:
    """Supervisor-owned fan-out bus for ops actions (promote/rollback).

    The kernel load-balances HTTP connections across workers, so a
    ``POST /v1/models/promote`` lands on *one* worker — without coherence the
    other workers keep serving the old version.  Each worker holds one
    long-lived connection to this server (same length-prefixed framing as
    the cache tier, JSON payloads); an op frame published by any worker is
    re-broadcast to every **other** connection, so the publisher never
    receives its own op back and each op is applied exactly once per worker.

    Args:
        address: Unix-socket path (or TCP ``(host, port)``) to listen on.
    """

    def __init__(self, address):
        self.address = address
        self._connections: dict[socket.socket, object] = {}
        self._conn_lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._closed = False
        self._published = 0
        self._delivered = 0
        self._delivery_errors = 0

    def start(self) -> "OpsBroadcastServer":
        """Bind the socket and relay frames on background threads."""
        if self._closed:
            raise RuntimeError("ops broadcast server is closed")
        if self._listener is not None:
            return self
        self._listener = _make_server_socket(self.address)
        if not isinstance(self.address, str):
            self.address = self._listener.getsockname()  # resolve port 0
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="ops-bus-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def close(self) -> None:
        """Stop accepting, sever live connections, release the socket."""
        if self._closed:
            return
        self._closed = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._conn_lock:
            connections = list(self._connections)
            self._connections.clear()
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        if isinstance(self.address, str):
            try:
                os.unlink(self.address)
            except OSError:
                pass

    def __enter__(self) -> "OpsBroadcastServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            with self._conn_lock:
                if self._closed:
                    conn.close()
                    return
                self._connections[conn] = None
            threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="ops-bus-conn", daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while True:
                frame = _recv_frame(conn)
                try:
                    message = json.loads(frame.decode("utf-8"))
                except (UnicodeDecodeError, ValueError):
                    continue  # a garbled frame is dropped, not fatal
                if isinstance(message, dict) and "hello" in message:
                    with self._conn_lock:
                        if conn in self._connections:
                            self._connections[conn] = message["hello"]
                    continue
                self._broadcast(conn, frame)
        except (ConnectionError, OSError, struct.error):
            pass  # peer went away (worker exit, crash, close())
        finally:
            with self._conn_lock:
                self._connections.pop(conn, None)
            try:
                conn.close()
            except OSError:
                pass

    def _broadcast(self, origin: socket.socket, frame: bytes) -> None:
        with self._conn_lock:
            self._published += 1
            peers = [conn for conn in self._connections if conn is not origin]
        for peer in peers:
            try:
                _send_frame(peer, frame)
                with self._conn_lock:
                    self._delivered += 1
            except (OSError, ConnectionError):
                # The reader loop owns teardown; it sees the broken socket.
                with self._conn_lock:
                    self._delivery_errors += 1

    def stats(self) -> dict:
        """Bus counters plus the currently connected worker ids."""
        with self._conn_lock:
            return {
                "connections": len(self._connections),
                "workers": sorted(
                    w for w in self._connections.values() if w is not None
                ),
                "published": self._published,
                "delivered": self._delivered,
                "delivery_errors": self._delivery_errors,
            }


class OpsChannelClient:
    """One worker's connection to the ops bus.

    Satisfies the gateway's ``ops_channel`` duck type (``publish(dict)``).
    A background listener thread delivers broadcasts from sibling workers to
    ``on_op`` (the gateway's ``apply_ops_message``).  Both directions are
    best-effort: a dead bus costs dropped coherence messages, never a failed
    foreground request.

    Args:
        address: The bus address (see :class:`OpsBroadcastServer`).
        worker_id: Announced to the bus in the hello frame (for stats).
        on_op: Callback invoked with each decoded broadcast dict.
        timeout: Connect/send timeout.
    """

    def __init__(self, address, worker_id: int, on_op, *, timeout: float = 2.0):
        self.address = address
        self.worker_id = worker_id
        self.on_op = on_op
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._send_lock = threading.Lock()
        self._listener: threading.Thread | None = None
        self._closed = False
        self._published = 0
        self._received = 0
        self._errors = 0

    def start(self) -> "OpsChannelClient":
        """Connect, announce, and start the listener thread."""
        if self._closed:
            raise RuntimeError("ops channel client is closed")
        if self._sock is not None:
            return self
        sock = _connect(self.address, self.timeout)
        # The listener blocks in recv indefinitely; only sends are bounded.
        sock.settimeout(None)
        _send_frame(sock, json.dumps({"hello": self.worker_id}).encode("utf-8"))
        self._sock = sock
        self._listener = threading.Thread(
            target=self._listen, name=f"ops-bus-listen-{self.worker_id}", daemon=True
        )
        self._listener.start()
        return self

    def publish(self, message: dict) -> bool:
        """Send one op frame to the bus (best-effort; False on failure)."""
        try:
            frame = json.dumps(message).encode("utf-8")
        except (TypeError, ValueError):
            return False
        with self._send_lock:
            if self._sock is None:
                return False
            try:
                self._sock.sendall(struct.pack(">I", len(frame)) + frame)
                self._published += 1
                return True
            except (OSError, ConnectionError):
                self._errors += 1
                return False

    def _listen(self) -> None:
        sock = self._sock
        try:
            while True:
                frame = _recv_frame(sock)
                try:
                    message = json.loads(frame.decode("utf-8"))
                except (UnicodeDecodeError, ValueError):
                    continue
                self._received += 1
                try:
                    self.on_op(message)
                except Exception:  # noqa: BLE001 - the listener must survive
                    pass
        except (ConnectionError, OSError, struct.error):
            pass  # bus went away; coherence degrades, serving continues

    def stats(self) -> dict:
        """This client's transport counters."""
        with self._send_lock:
            return {
                "published": self._published,
                "received": self._received,
                "errors": self._errors,
                "connected": self._sock is not None,
            }

    def close(self) -> None:
        self._closed = True
        with self._send_lock:
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:
                    pass
                self._sock = None
        if self._listener is not None:
            self._listener.join(timeout=1.0)


# ---------------------------------------------------------------------- #
# The fleet telemetry sink
# ---------------------------------------------------------------------- #
class TelemetrySnapshotServer:
    """Supervisor-owned sink for worker metrics snapshots.

    The sharded workers share one HTTP port the kernel load-balances, so the
    supervisor cannot scrape an *individual* worker over HTTP — each worker
    instead pushes its :meth:`PlanningServer.telemetry_snapshot` here
    (length-prefixed JSON frames ``{"worker_id": ..., "snapshot": ...}`` with
    an optional ``"profile"`` carrying the worker's sampling profile).  The
    sink keeps the latest snapshot and profile per worker slot; the
    supervisor's fleet ``/metrics`` merges snapshots with
    :func:`repro.telemetry.metrics.merge_snapshots` and its ``/v1/profile``
    merges profiles with :func:`repro.telemetry.profiling.merge_profiles`.
    """

    def __init__(self, address):
        self.address = address
        self._lock = threading.Lock()
        self._latest: dict[int, dict] = {}
        self._profiles: dict[int, dict] = {}
        self._received = 0
        self._connections: set[socket.socket] = set()
        self._conn_lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._closed = False

    def start(self) -> "TelemetrySnapshotServer":
        if self._closed:
            raise RuntimeError("telemetry sink is closed")
        if self._listener is not None:
            return self
        self._listener = _make_server_socket(self.address)
        if not isinstance(self.address, str):
            self.address = self._listener.getsockname()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="telemetry-sink-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._conn_lock:
            connections = list(self._connections)
            self._connections.clear()
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        if isinstance(self.address, str):
            try:
                os.unlink(self.address)
            except OSError:
                pass

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            with self._conn_lock:
                if self._closed:
                    conn.close()
                    return
                self._connections.add(conn)
            threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="telemetry-sink-conn", daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while True:
                frame = _recv_frame(conn)
                try:
                    message = json.loads(frame.decode("utf-8"))
                    worker_id = message["worker_id"]
                    snapshot = message["snapshot"]
                    if not isinstance(worker_id, int) or not isinstance(
                        snapshot, dict
                    ):
                        raise ValueError("malformed snapshot frame")
                except (UnicodeDecodeError, ValueError, KeyError, TypeError):
                    _send_frame(conn, _REPLY_ERROR + b"malformed snapshot")
                    continue
                profile = message.get("profile")
                with self._lock:
                    self._latest[worker_id] = snapshot
                    if isinstance(profile, dict):
                        self._profiles[worker_id] = profile
                    self._received += 1
                _send_frame(conn, _REPLY_OK)
        except (ConnectionError, OSError, struct.error):
            pass
        finally:
            with self._conn_lock:
                self._connections.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def snapshots(self) -> "list[dict]":
        """The latest snapshot from every worker that has pushed one."""
        with self._lock:
            return [self._latest[wid] for wid in sorted(self._latest)]

    def worker_ids(self) -> "list[int]":
        with self._lock:
            return sorted(self._latest)

    def profiles(self) -> "list[dict]":
        """The latest sampling profile from every worker that pushed one."""
        with self._lock:
            return [self._profiles[wid] for wid in sorted(self._profiles)]

    def stats(self) -> dict:
        with self._lock:
            return {
                "workers_reporting": len(self._latest),
                "snapshots_received": self._received,
            }


class TelemetryPushClient:
    """Worker-side pusher: ships registry snapshots to the supervisor sink.

    A background thread pushes every ``interval_seconds`` and once more on
    close (so short-lived workers still land their final counters).  Pushes
    are best-effort — a dead sink costs one failed syscall per tick, never a
    failed request.
    """

    def __init__(
        self,
        address,
        worker_id: int,
        snapshot_fn: "Callable[[], dict]",
        *,
        profile_fn: "Callable[[], dict] | None" = None,
        interval_seconds: float = 0.25,
        timeout: float = 2.0,
    ):
        self.address = address
        self.worker_id = worker_id
        self.snapshot_fn = snapshot_fn
        self.profile_fn = profile_fn
        self.interval_seconds = interval_seconds
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._pushed = 0
        self._errors = 0

    def start(self) -> "TelemetryPushClient":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._loop, name="telemetry-push", daemon=True
        )
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_seconds):
            self.push()
        self.push()  # final flush on shutdown

    def push(self) -> bool:
        """One snapshot push (also called directly by tests)."""
        try:
            message = {"worker_id": self.worker_id, "snapshot": self.snapshot_fn()}
            if self.profile_fn is not None:
                try:
                    profile = self.profile_fn()
                except Exception:  # noqa: BLE001 - profiling rides along best-effort
                    profile = None
                if isinstance(profile, dict):
                    message["profile"] = profile
            payload = json.dumps(message).encode("utf-8")
        except Exception:  # noqa: BLE001 - telemetry must not kill the worker
            self._errors += 1
            return False
        with self._lock:
            try:
                if self._sock is None:
                    self._sock = _connect(self.address, self.timeout)
                _send_frame(self._sock, payload)
                reply = _recv_frame(self._sock)
                if not reply.startswith(_REPLY_OK):
                    raise ConnectionError("sink rejected snapshot")
                self._pushed += 1
                return True
            except (OSError, ConnectionError, struct.error):
                self._errors += 1
                if self._sock is not None:
                    try:
                        self._sock.close()
                    except OSError:
                        pass
                    self._sock = None
                return False

    def stats(self) -> dict:
        return {"pushed": self._pushed, "errors": self._errors}

    def close(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        with self._lock:
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:
                    pass
                self._sock = None


# ---------------------------------------------------------------------- #
# The pre-forked gateway
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class WorkerSpec:
    """What a worker factory receives to build its gateway.

    Attributes:
        worker_id: Stable worker slot (0-based; survives respawns).
        host: Address the shared port is bound on.
        port: The concrete shared port (resolved by the supervisor).
        cache_address: Shared cache tier address, or None when disabled.
        ops_address: Ops-coherence bus address, or None when disabled.
        telemetry_address: Supervisor metrics sink address, or None when
            fleet telemetry is disabled.
    """

    worker_id: int
    host: str
    port: int
    cache_address: "str | tuple[str, int] | None" = None
    ops_address: "str | tuple[str, int] | None" = None
    telemetry_address: "str | tuple[str, int] | None" = None


#: Builds one worker's (unstarted) gateway from its spec.  Runs inside the
#: forked worker process; closures over a pre-built stack are fine — fork
#: inherits them without pickling.
WorkerFactory = Callable[[WorkerSpec], "PlanningServer"]


def _sharded_worker_main(
    factory: WorkerFactory,
    spec: WorkerSpec,
    listen_socket: socket.socket | None,
    shutdown_read_fd: int,
    shutdown_write_fd: int,
    ready_read_fd: int,
    ready_write_fd: int,
    drain_grace: float,
    local_cache_capacity: int | None,
) -> None:
    """One gateway worker process: build, serve, drain on shutdown.

    Coordination is deliberately pipe-based, not ``multiprocessing.Event`` /
    ``Queue``: those share cross-process locks, and a worker SIGKILLed while
    holding one (the respawn test does exactly that) would deadlock every
    sibling and the supervisor.  A pipe has no user-space lock to corrupt —
    the kernel closes a dead worker's ends, shutdown is the write end's EOF,
    and sub-``PIPE_BUF`` ready lines are atomic.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the supervisor owns Ctrl-C
    # Drop the inherited ends this worker must not hold: every worker closing
    # its copy of the shutdown write end is what lets the supervisor's close
    # deliver EOF to all of them.
    os.close(shutdown_write_fd)
    os.close(ready_read_fd)
    from repro.telemetry.logging import maybe_configure_from_env, set_log_context

    set_log_context(worker=spec.worker_id, process=f"gateway-worker-{spec.worker_id}")
    maybe_configure_from_env()
    gateway = factory(spec)
    gateway.worker_id = spec.worker_id
    if spec.cache_address is not None and gateway.service.cache is not None:
        local = gateway.service.cache
        if local_cache_capacity is not None:
            local = ServicePlanCache(local_cache_capacity)
        gateway.service.cache = TieredPlanCache(
            local, SharedCacheClient(spec.cache_address)
        )
    ops_client = None
    if spec.ops_address is not None:
        try:
            ops_client = OpsChannelClient(
                spec.ops_address, spec.worker_id, gateway.apply_ops_message
            ).start()
            gateway.ops_channel = ops_client
        except (OSError, ConnectionError):
            ops_client = None  # coherence degrades; serving continues
    telemetry_client = None
    if spec.telemetry_address is not None:
        telemetry_client = TelemetryPushClient(
            spec.telemetry_address,
            spec.worker_id,
            gateway.telemetry_snapshot,
            profile_fn=getattr(gateway, "profile_snapshot", None),
        ).start()
    gateway.start(reuse_port=listen_socket is None, listen_socket=listen_socket)
    message = json.dumps(
        {"worker_id": spec.worker_id, "pid": os.getpid(), "port": gateway.port}
    )
    os.write(ready_write_fd, (message + "\n").encode("utf-8"))
    try:
        os.read(shutdown_read_fd, 1)  # blocks until EOF (or an explicit byte)
    except OSError:
        pass
    finally:
        # Graceful drain: stop accepting, then give in-flight handler
        # threads a grace window to finish writing before the process exits.
        gateway.close()
        if telemetry_client is not None:
            telemetry_client.close()  # final snapshot push lands post-drain counts
        if ops_client is not None:
            ops_client.close()
        time.sleep(drain_grace)


class ShardedGateway:
    """Pre-forked multi-process gateway over one shared listening port.

    Args:
        worker_factory: Builds one worker's (unstarted)
            :class:`~repro.server.app.PlanningServer` from a
            :class:`WorkerSpec`.  Each worker process calls it once after the
            fork, so the factory may close over a pre-built stack (workload,
            network, planner) — workers inherit it copy-on-write.
        num_workers: Gateway worker processes to pre-fork.
        host: Bind address (loopback by default).
        port: Shared port (0 → the supervisor picks an ephemeral port and
            every worker binds it).
        shared_cache: Run the cross-process plan-cache tier (the supervisor
            owns it; workers layer it under their local LRU as an L2).
        shared_cache_capacity: Entry capacity of the shared tier.
        ops_channel: Run the ops-coherence bus: a promote/rollback landing
            on any worker is re-broadcast so every worker applies it.
        telemetry: Run the fleet telemetry tier: workers push their metrics
            snapshots to a supervisor sink, and the supervisor serves the
            merged fleet view on its own ``/metrics`` port (see
            :attr:`metrics_port`).
        local_cache_capacity: When set, each worker's L1 is shrunk to this
            many entries (the tier holds the long tail); None keeps the
            factory-built service's own cache as the L1.
        max_respawns: Crashed workers the supervisor may replace (pool-wide
            budget, the ``ProcessPoolBackend`` idiom; 0 disables respawn).
        health_interval_seconds: Supervisor poll interval for worker
            liveness and the ``/healthz`` probe.
        reuse_port: Force the socket strategy: True → per-worker
            ``SO_REUSEPORT`` sockets, False → one supervisor-bound socket
            inherited by the forked workers, None → auto (``SO_REUSEPORT``
            when the platform has it).
        drain_grace_seconds: In-flight grace window each worker waits after
            it stops accepting during shutdown.
        ready_timeout_seconds: How long :meth:`start` waits for every worker
            to report its socket bound and serving.
    """

    def __init__(
        self,
        worker_factory: WorkerFactory,
        *,
        num_workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        shared_cache: bool = True,
        shared_cache_capacity: int = 8192,
        ops_channel: bool = True,
        telemetry: bool = True,
        local_cache_capacity: int | None = None,
        max_respawns: int = 2,
        health_interval_seconds: float = 0.5,
        reuse_port: bool | None = None,
        drain_grace_seconds: float = 0.25,
        ready_timeout_seconds: float = 60.0,
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")
        self.worker_factory = worker_factory
        self.num_workers = num_workers
        self.max_respawns = max_respawns
        self.health_interval_seconds = health_interval_seconds
        self.drain_grace_seconds = drain_grace_seconds
        self.ready_timeout_seconds = ready_timeout_seconds
        self._host = host
        self._requested_port = port
        self._shared_cache = shared_cache
        self._shared_cache_capacity = shared_cache_capacity
        self._ops_channel = ops_channel
        self._telemetry = telemetry
        self._local_cache_capacity = local_cache_capacity
        self._reuse_port_requested = reuse_port

        self.cache_server: PlanCacheServer | None = None
        self.ops_server: OpsBroadcastServer | None = None
        self.telemetry_server: TelemetrySnapshotServer | None = None
        self._telemetry_address = None
        self._metrics_httpd: ThreadingHTTPServer | None = None
        self._metrics_thread: threading.Thread | None = None
        self._tempdir: str | None = None
        self._reserve_socket: socket.socket | None = None
        self._listen_socket: socket.socket | None = None
        self._port: int | None = None
        self._context = None
        # Pipe-based coordination (kill-safe; see _sharded_worker_main):
        # closing _shutdown_w EOFs every worker; workers report readiness as
        # atomic JSON lines on the ready pipe.
        self._shutdown_r: int | None = None
        self._shutdown_w: int | None = None
        self._ready_r: int | None = None
        self._ready_w: int | None = None
        self._ready_buffer = b""
        self._processes: list = []
        self._respawns_used = 0
        self._supervisor: threading.Thread | None = None
        self._supervisor_stop = threading.Event()
        self._state_lock = threading.Lock()
        self._health_failures = 0
        self._healthy_workers: set[int] = set()
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ShardedGateway":
        """Bind the shared port, pre-fork the workers, start the supervisor."""
        if self._closed:
            raise RuntimeError("sharded gateway is closed")
        if self._started:
            return self
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError as error:  # pragma: no cover - non-POSIX platforms
            raise RuntimeError(
                "ShardedGateway pre-forks its workers and requires the "
                "'fork' start method"
            ) from error

        self._tempdir = tempfile.mkdtemp(prefix="repro-shard-")
        cache_address = None
        if self._shared_cache:
            if hasattr(socket, "AF_UNIX"):
                cache_address = os.path.join(self._tempdir, "plan-cache.sock")
            else:  # pragma: no cover - non-POSIX platforms
                cache_address = ("127.0.0.1", 0)
            self.cache_server = PlanCacheServer(
                cache_address, capacity=self._shared_cache_capacity
            ).start()
            cache_address = self.cache_server.address  # resolved TCP port
        ops_address = None
        if self._ops_channel:
            if hasattr(socket, "AF_UNIX"):
                ops_address = os.path.join(self._tempdir, "ops.sock")
            else:  # pragma: no cover - non-POSIX platforms
                ops_address = ("127.0.0.1", 0)
            self.ops_server = OpsBroadcastServer(ops_address).start()
            ops_address = self.ops_server.address  # resolved TCP port
        if self._telemetry:
            if hasattr(socket, "AF_UNIX"):
                telemetry_address = os.path.join(self._tempdir, "telemetry.sock")
            else:  # pragma: no cover - non-POSIX platforms
                telemetry_address = ("127.0.0.1", 0)
            self.telemetry_server = TelemetrySnapshotServer(telemetry_address).start()
            self._telemetry_address = self.telemetry_server.address

        use_reuse_port = self._reuse_port_requested
        if use_reuse_port is None:
            use_reuse_port = hasattr(socket, "SO_REUSEPORT")
        if use_reuse_port:
            # Reserve the port without joining the accept pool: a bound but
            # never-listening socket keeps the port ours across worker
            # respawns, while connections go only to listening workers.
            reserve = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            reserve.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            reserve.bind((self._host, self._requested_port))
            self._reserve_socket = reserve
            self._port = reserve.getsockname()[1]
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self._host, self._requested_port))
            listener.listen(128)
            self._listen_socket = listener
            self._port = listener.getsockname()[1]
        self._use_reuse_port = use_reuse_port
        self._cache_address = cache_address
        self._ops_address = ops_address

        self._shutdown_r, self._shutdown_w = os.pipe()
        self._ready_r, self._ready_w = os.pipe()
        self._processes = [self._spawn_worker(slot) for slot in range(self.num_workers)]
        self._started = True
        self._await_ready(self.num_workers)
        self._supervisor = threading.Thread(
            target=self._supervise, name="shard-supervisor", daemon=True
        )
        self._supervisor.start()
        if self._telemetry:
            self._start_metrics_listener()
        return self

    def _start_metrics_listener(self) -> None:
        """Serve the fleet-merged ``/metrics`` on a supervisor-owned port.

        The workers share one load-balanced port, so scraping *that* port
        yields whichever worker the kernel picks.  The supervisor's listener
        is the deterministic scrape target: it merges the pushed worker
        snapshots with its own shard/tier gauges.
        """
        shard = self

        class _FleetMetricsHandler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - http.server API
                path = self.path.split("?", 1)[0]
                if path not in ("/metrics", "/healthz", "/v1/profile"):
                    self.send_error(404)
                    return
                try:
                    if path == "/healthz":
                        body = json.dumps(shard.fleet_health()).encode("utf-8")
                        content_type = "application/json"
                    elif path == "/v1/profile":
                        body = json.dumps(shard.fleet_profile()).encode("utf-8")
                        content_type = "application/json"
                    else:
                        body = shard.fleet_metrics_text().encode("utf-8")
                        content_type = "text/plain; version=0.0.4; charset=utf-8"
                except Exception:  # noqa: BLE001 - scrape must not kill supervision
                    self.send_error(500)
                    return
                self.send_response(200)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format, *args):  # noqa: A002 - http.server API
                pass

        httpd = ThreadingHTTPServer((self._host, 0), _FleetMetricsHandler)
        httpd.daemon_threads = True
        self._metrics_httpd = httpd
        self._metrics_thread = threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="shard-metrics",
            daemon=True,
        )
        self._metrics_thread.start()

    def _spawn_worker(self, slot: int):
        spec = WorkerSpec(
            worker_id=slot,
            host=self._host,
            port=self._port,
            cache_address=self._cache_address,
            ops_address=self._ops_address,
            telemetry_address=self._telemetry_address,
        )
        process = self._context.Process(
            target=_sharded_worker_main,
            args=(
                self.worker_factory,
                spec,
                None if self._use_reuse_port else self._listen_socket,
                self._shutdown_r,
                self._shutdown_w,
                self._ready_r,
                self._ready_w,
                self.drain_grace_seconds,
                self._local_cache_capacity,
            ),
            name=f"repro-gateway-worker-{slot}",
            daemon=True,
        )
        process.start()
        return process

    def _read_ready_messages(self, timeout: float) -> list[dict]:
        """Drain complete ready lines from the pipe (non-blocking at 0)."""
        import select

        try:
            readable, _, _ = select.select([self._ready_r], [], [], timeout)
        except (OSError, ValueError):
            return []
        if not readable:
            return []
        try:
            self._ready_buffer += os.read(self._ready_r, 65536)
        except OSError:
            return []
        messages = []
        while b"\n" in self._ready_buffer:
            line, self._ready_buffer = self._ready_buffer.split(b"\n", 1)
            try:
                messages.append(json.loads(line))
            except ValueError:
                pass
        return messages

    def _await_ready(self, count: int) -> None:
        deadline = time.monotonic() + self.ready_timeout_seconds
        seen = 0
        while seen < count:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                dead = [
                    (p.name, p.exitcode) for p in self._processes if not p.is_alive()
                ]
                raise RuntimeError(
                    f"only {seen}/{count} gateway workers became ready within "
                    f"{self.ready_timeout_seconds}s (dead: {dead})"
                )
            seen += len(self._read_ready_messages(min(remaining, 0.5)))

    @property
    def port(self) -> int:
        """The shared bound port (after :meth:`start`)."""
        if self._port is None:
            raise RuntimeError("sharded gateway is not started")
        return self._port

    @property
    def base_url(self) -> str:
        """``http://host:port`` of the shard."""
        return f"http://{self._host}:{self.port}"

    def close(self) -> None:
        """Drain workers, stop the supervisor, release the port and tier."""
        if self._closed:
            return
        self._closed = True
        self._supervisor_stop.set()
        if self._shutdown_w is not None:
            os.close(self._shutdown_w)  # EOF = shutdown signal to every worker
            self._shutdown_w = None
        if self._supervisor is not None:
            self._supervisor.join(timeout=2.0)
        deadline = time.monotonic() + 5.0 + self.drain_grace_seconds
        for process in self._processes:
            process.join(timeout=max(deadline - time.monotonic(), 0.1))
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        for fd in (self._shutdown_r, self._ready_r, self._ready_w):
            if fd is not None:
                try:
                    os.close(fd)
                except OSError:
                    pass
        self._shutdown_r = self._ready_r = self._ready_w = None
        for sock in (self._reserve_socket, self._listen_socket):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        if self._metrics_httpd is not None:
            self._metrics_httpd.shutdown()
            self._metrics_httpd.server_close()
            if self._metrics_thread is not None:
                self._metrics_thread.join(timeout=2.0)
        if self.cache_server is not None:
            self.cache_server.close()
        if self.ops_server is not None:
            self.ops_server.close()
        # Closed after the workers have joined so their final snapshot
        # pushes (post-drain counters) land in the sink first.
        if self.telemetry_server is not None:
            self.telemetry_server.close()
        if self._tempdir is not None:
            shutil.rmtree(self._tempdir, ignore_errors=True)

    def __enter__(self) -> "ShardedGateway":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Supervision: liveness, /healthz, respawn
    # ------------------------------------------------------------------ #
    def _supervise(self) -> None:
        while not self._supervisor_stop.wait(self.health_interval_seconds):
            self._read_ready_messages(0)  # drain respawned workers' reports
            self._reap_dead_workers()
            self._probe_health()

    def _reap_dead_workers(self) -> None:
        for slot, process in enumerate(self._processes):
            if process.is_alive() or self._supervisor_stop.is_set():
                continue
            process.join(timeout=0.1)  # reap the corpse; it already exited
            with self._state_lock:
                if self._respawns_used >= self.max_respawns:
                    continue
                self._respawns_used += 1
            self._processes[slot] = self._spawn_worker(slot)

    def _probe_health(self) -> None:
        """One ``/healthz`` exchange against the shared port.

        The kernel picks the answering worker, so a single probe checks "at
        least one worker is serving"; the per-worker ``worker_id`` in the
        body accumulates into :meth:`stats` as workers take turns answering.
        """
        try:
            request = urllib.request.Request(f"{self.base_url}/healthz", method="GET")
            with urllib.request.urlopen(request, timeout=1.0) as response:
                body = json.loads(response.read().decode("utf-8"))
            ok = body.get("status") == "ok"
        except (OSError, urllib.error.URLError, ValueError):
            ok = False
            body = {}
        with self._state_lock:
            if ok:
                self._health_failures = 0
                worker_id = body.get("worker_id")
                if isinstance(worker_id, int):
                    self._healthy_workers.add(worker_id)
            else:
                self._health_failures += 1

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def alive_workers(self) -> int:
        """Worker processes currently running."""
        return sum(int(process.is_alive()) for process in self._processes)

    def worker_pids(self) -> list[int]:
        """PIDs by worker slot (respawns change the pid, not the slot)."""
        return [process.pid for process in self._processes]

    def shared_cache_stats(self) -> dict | None:
        """Tier-wide cache counters (None when the tier is disabled)."""
        return self.cache_server.stats() if self.cache_server is not None else None

    @property
    def metrics_port(self) -> int:
        """Port of the supervisor's fleet ``/metrics`` listener."""
        if self._metrics_httpd is None:
            raise RuntimeError("fleet telemetry is disabled or not started")
        return self._metrics_httpd.server_address[1]

    @property
    def metrics_url(self) -> str:
        """``http://host:port/metrics`` of the fleet scrape target."""
        return f"http://{self._host}:{self.metrics_port}/metrics"

    def _supervisor_metrics_snapshot(self) -> dict:
        """Shard-level gauges plus the tier servers' own counters.

        Workers publish only their *client-side* shared-cache stats — the
        tier server's counters appear once here, not once per worker, so
        the fleet merge never multiplies them by ``num_workers``.
        """
        registry = MetricsRegistry()
        with self._state_lock:
            respawns = self._respawns_used
            health_failures = self._health_failures
        registry.gauge(
            "repro_shard_workers_alive",
            "Gateway worker processes currently running.",
            aggregation="last",
        ).set(self.alive_workers())
        registry.gauge(
            "repro_shard_workers_configured",
            "Gateway worker processes the shard was started with.",
            aggregation="last",
        ).set(self.num_workers)
        registry.counter(
            "repro_shard_respawns_total", "Crashed workers the supervisor replaced."
        ).set_total(respawns)
        registry.gauge(
            "repro_shard_health_failures",
            "Consecutive failed /healthz probes.",
            aggregation="last",
        ).set(health_failures)
        cache_gauges = {"size", "capacity", "versions", "hit_rate"}
        cache_stats = self.shared_cache_stats()
        if cache_stats is not None:
            for key, value in cache_stats.items():
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    continue
                if key in cache_gauges:
                    registry.gauge(
                        f"repro_shared_cache_{key}",
                        f"Shared plan-cache tier {key}.",
                        aggregation="last",
                    ).set(value)
                else:
                    registry.counter(
                        f"repro_shared_cache_{key}_total",
                        f"Shared plan-cache tier cumulative {key}.",
                    ).set_total(value)
        if self.ops_server is not None:
            for key, value in self.ops_server.stats().items():
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    continue
                if key == "connections":
                    registry.gauge(
                        "repro_ops_bus_connections",
                        "Workers connected to the ops-coherence bus.",
                        aggregation="last",
                    ).set(value)
                else:
                    registry.counter(
                        f"repro_ops_bus_{key}_total",
                        f"Ops-coherence bus cumulative {key}.",
                    ).set_total(value)
        if self.telemetry_server is not None:
            sink = self.telemetry_server.stats()
            registry.gauge(
                "repro_shard_workers_reporting",
                "Workers with a telemetry snapshot in the sink.",
                aggregation="last",
            ).set(sink["workers_reporting"])
            registry.counter(
                "repro_shard_snapshots_received_total",
                "Worker metrics snapshots received by the supervisor sink.",
            ).set_total(sink["snapshots_received"])
        return registry.snapshot()

    def fleet_metrics_snapshot(self) -> dict:
        """Fleet-merged registry snapshot: every worker plus the supervisor.

        Counters and histograms sum across workers; gauges merge by their
        declared aggregation (see
        :func:`repro.telemetry.metrics.merge_snapshots`).
        """
        snapshots = (
            self.telemetry_server.snapshots() if self.telemetry_server is not None else []
        )
        snapshots.append(self._supervisor_metrics_snapshot())
        return merge_snapshots(snapshots)

    def fleet_metrics_text(self) -> str:
        """The fleet-merged snapshot in Prometheus text exposition format."""
        return render_snapshot(self.fleet_metrics_snapshot())

    def fleet_health(self) -> dict:
        """Fleet-wide health: the *worst* worker's composite score.

        Each worker publishes its composite ``repro_health_score`` gauge with
        ``aggregation="min"``, so the fleet merge already yields the minimum
        across workers — a single degraded worker degrades the shard's
        reported status.  Before any worker has pushed a snapshot the score
        defaults to 1.0 (liveness alone is what :meth:`start` awaited).
        """
        score = 1.0
        try:
            merged = self.fleet_metrics_snapshot()
            for entry in merged.get("metrics", []):
                if entry.get("name") == "repro_health_score":
                    value = entry.get("value")
                    if isinstance(value, (int, float)):
                        score = min(score, float(value))
        except Exception:  # noqa: BLE001 - health must not raise
            pass
        if score >= 0.8:
            status = "ok"
        elif score >= 0.4:
            status = "degraded"
        else:
            status = "unhealthy"
        return {
            "status": status,
            "role": "shard-supervisor",
            "health_score": score,
            "alive_workers": self.alive_workers(),
            "workers_reporting": (
                len(self.telemetry_server.worker_ids())
                if self.telemetry_server is not None
                else 0
            ),
        }

    def fleet_profile(self) -> dict:
        """Fleet-merged sampling profile plus its flamegraph tree."""
        profiles = (
            self.telemetry_server.profiles()
            if self.telemetry_server is not None
            else []
        )
        merged = merge_profiles(profiles)
        return {
            "role": "shard-supervisor",
            "workers_profiled": len(profiles),
            "profile": merged,
            "flamegraph": flamegraph_from_profile(merged),
        }

    def stats(self) -> dict:
        """Supervisor-side view: liveness, respawns, health, tier counters."""
        with self._state_lock:
            health_failures = self._health_failures
            healthy_workers = sorted(self._healthy_workers)
            respawns = self._respawns_used
        return {
            "num_workers": self.num_workers,
            "alive_workers": self.alive_workers(),
            "respawns_used": respawns,
            "max_respawns": self.max_respawns,
            "consecutive_health_failures": health_failures,
            "workers_seen_healthy": healthy_workers,
            "reuse_port": getattr(self, "_use_reuse_port", None),
            "shared_cache": self.shared_cache_stats(),
            "ops_channel": (
                self.ops_server.stats() if self.ops_server is not None else None
            ),
            "telemetry": (
                self.telemetry_server.stats()
                if self.telemetry_server is not None
                else None
            ),
        }
