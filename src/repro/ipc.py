"""One framed-socket substrate for the sharded gateway's side channels.

The shared plan-cache tier (:mod:`repro.service.shared_tier`), the ops bus
and the telemetry sink (:mod:`repro.server.sharding`) are one thing on the
wire: a long-lived Unix stream socket per worker carrying frames of ``u32
big-endian length + payload``.  This module is that thing, once; a channel
adds only what its frames *mean*.  The contract (``tests/test_ipc.py``):

- **Framing.**  :func:`send_frame` writes header and payload in one
  ``sendall``; :func:`recv_frame` returns exactly the payload however the
  kernel split it, and raises ``ConnectionError`` on EOF (between frames or
  inside one) and on a header over :data:`MAX_FRAME_BYTES`, reading none of it.
- **Peer death is an EOF, never a held lock.**  Nothing here shares a
  user-space lock across processes.  A peer that exits, is SIGKILLed, dies
  half-way through a frame or announces an oversized one is seen by its own
  reader thread as EOF or a socket error; a :class:`FrameServer` drops
  exactly that connection and every other one keeps its round trips.  The
  one lock held across a socket write is the writer's own per-connection
  send lock (concurrent publishers must not interleave frames), and a write
  to a dead peer fails at once.
- **One failure policy** (:class:`FrameClient`).  A transport error closes
  the socket, is reported as ``None`` / ``False`` — never raised: the
  learned component's plumbing may degrade, it may not fail a foreground
  query — and leaves the peer alone for ``retry_seconds``: calls inside
  that window are skipped without a syscall, the first call after it
  reconnects and sends ``hello`` again.  The channels are three values of it,
  each argued where it is set: cache tier 1.0, telemetry pusher 0, ops bus inf.
"""

from __future__ import annotations

import os
import socket
import struct
import threading
import time
from contextlib import suppress
from typing import Callable

#: Largest accepted frame (a memoised top-k result is a few KB; this bound
#: keeps a confused peer from buffering the owner process to death).
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Connect / send / reply timeout of a :class:`FrameClient` socket.
SOCKET_TIMEOUT_SECONDS = 2.0
_HEADER = struct.Struct(">I")


def send_frame(sock: socket.socket, payload: bytes) -> None:
    """Write one frame: the payload's length, then the payload."""
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def recv_frame(sock: socket.socket) -> bytes:
    """Read one whole frame; ``ConnectionError`` on EOF or an oversized header."""
    (length,) = _HEADER.unpack(_recv_all(sock, _HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(f"frame of {length} bytes exceeds the protocol cap")
    return _recv_all(sock, length) if length else b""


def _recv_all(sock: socket.socket, count: int) -> bytes:
    data = sock.recv(count)
    if len(data) == count:
        return data  # the common case: one read
    chunks = bytearray(data)
    while len(chunks) < count:
        chunk = sock.recv(count - len(chunks))
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        chunks += chunk
    return bytes(chunks)


def _sever(sock: socket.socket) -> None:
    # On Linux ``close`` alone leaves a thread blocked in accept/recv on it blocked.
    with suppress(OSError):  # never connected, or the peer went first
        sock.shutdown(socket.SHUT_RDWR)
    sock.close()


class Connection:
    """One accepted peer: its socket, the lock that keeps frames written to it
    whole, and a ``tag`` for the handler's state that dies with the connection."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.send_lock = threading.Lock()
        self.tag: object = None


#: Runs on the connection's reader thread; returns the reply, or None (one-way).
FrameHandler = Callable[[Connection, bytes], "bytes | None"]


class FrameServer:
    """Listens on a Unix-socket path; one reader thread per connection.

    Args:
        address: Filesystem path to bind (unlinked again on :meth:`close`).
        handler: What a frame means (see :data:`FrameHandler`).
        name: Prefix of the thread names (``<name>-accept``, ``<name>-conn``).
    """

    def __init__(self, address: str, handler: FrameHandler, *, name: str = "frame-server"):
        self.address = address
        self.handler = handler
        self.name = name
        self._connections: set[Connection] = set()
        self._lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._closed = False

    def start(self) -> "FrameServer":
        """Bind the socket and serve connections on background threads."""
        if self._closed:
            raise RuntimeError(f"{self.name} server is closed")
        if self._listener is not None:
            return self
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            listener.bind(self.address)
            listener.listen(64)
        except OSError:
            listener.close()
            raise
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"{self.name}-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def close(self) -> None:
        """Stop accepting, sever live connections, unlink the socket path."""
        with self._lock:
            already_closed, self._closed = self._closed, True
        if already_closed or self._listener is None:
            return
        _sever(self._listener)
        self._accept_thread.join(timeout=2.0)  # no connection is added after this
        for conn in self.connections():  # each reader then discards its own
            _sever(conn.sock)
        with suppress(OSError):
            os.unlink(self.address)

    def __enter__(self) -> "FrameServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def connections(self) -> list[Connection]:
        """The live connections (a snapshot)."""
        with self._lock:
            return list(self._connections)

    def send_to_others(self, origin: Connection, frame: bytes) -> tuple[int, int]:
        """Send ``frame`` to all but ``origin``; returns ``(delivered, failed)``."""
        delivered = failed = 0
        for peer in self.connections():
            if peer is origin:
                continue
            try:
                with peer.send_lock:
                    send_frame(peer.sock, frame)
                delivered += 1
            except OSError:  # left to its own reader, which sees the same error
                failed += 1
        return delivered, failed

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            conn = Connection(sock)
            with self._lock:
                self._connections.add(conn)
            threading.Thread(
                target=self._serve, args=(conn,), name=f"{self.name}-conn", daemon=True
            ).start()

    def _serve(self, conn: Connection) -> None:
        sock, send_lock, handler = conn.sock, conn.send_lock, self.handler
        try:
            while True:
                reply = handler(conn, recv_frame(sock))
                if reply is not None:
                    with send_lock:
                        send_frame(sock, reply)
        except OSError:
            pass  # the peer went away: exit, crash, kill, or our own close()
        finally:
            with self._lock:
                self._connections.discard(conn)
            _sever(conn.sock)


class FrameClient:
    """One lazy, best-effort connection to a :class:`FrameServer`.

    ``request`` and ``subscribe`` do not mix on one client (the subscriber
    thread would read the reply), and a reconnect does not renew a
    subscription, so subscribers use ``retry_seconds=inf``.

    Args:
        address: The server's socket path.
        retry_seconds: How long a transport error leaves the peer alone.
        hello: A frame sent first on every (re)connection, if given.
    """

    def __init__(self, address: str, *, retry_seconds: float = 1.0, hello: bytes | None = None):
        self.address = address
        self.retry_seconds = retry_seconds
        self.hello = hello
        self._sock: socket.socket | None = None
        self._lock = threading.Lock()
        self._down_until = 0.0
        self._subscriber: threading.Thread | None = None
        self._ops = self._errors = self._skipped = 0

    @property
    def available(self) -> bool:
        """Whether the next call would reach for the peer (no down window)."""
        return time.monotonic() >= self._down_until

    def request(self, payload: bytes) -> bytes | None:
        """One framed round trip; ``None`` when the peer is down or fails."""
        with self._lock:
            return self._exchange(payload, want_reply=True)

    def send(self, payload: bytes) -> bool:
        """One frame, no reply awaited; ``False`` when the peer is down or fails."""
        with self._lock:
            return self._exchange(payload, want_reply=False) is not None

    def subscribe(self, on_frame: Callable[[bytes], None], *, name: str) -> bool:
        """Connect now; thread ``name`` hands ``on_frame`` each frame while connected."""
        with self._lock:
            if self._exchange(None, want_reply=False) is None:
                return False
            self._sock.settimeout(None)  # the subscriber waits as long as it takes
            self._subscriber = threading.Thread(
                target=self._deliver, args=(self._sock, on_frame), name=name, daemon=True
            )
            self._subscriber.start()
            return True

    def stats(self) -> dict:
        """Transport counters."""
        with self._lock:
            return {
                "ops": self._ops, "errors": self._errors,
                "skipped_while_down": self._skipped, "available": self.available,
            }

    def close(self) -> None:
        """Drop the connection for good (later calls are skipped)."""
        with self._lock:
            self._down(float("inf"))
        if self._subscriber is not None:
            self._subscriber.join(timeout=1.0)

    def _exchange(self, payload: bytes | None, want_reply: bool) -> bytes | None:
        # The failure policy (caller holds ``_lock``); no ``payload``: connect only.
        if time.monotonic() < self._down_until:
            self._skipped += 1
            return None
        try:
            if self._sock is None:
                self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                self._sock.settimeout(SOCKET_TIMEOUT_SECONDS)
                self._sock.connect(self.address)
                if self.hello is not None:
                    send_frame(self._sock, self.hello)
            if payload is not None:
                send_frame(self._sock, payload)
            reply = recv_frame(self._sock) if want_reply else b""
        except OSError:
            self._errors += 1
            self._down(self.retry_seconds)
            return None
        self._ops += payload is not None
        return reply

    def _down(self, seconds: float) -> None:
        self._down_until = time.monotonic() + seconds
        if self._sock is not None:
            _sever(self._sock)
            self._sock = None

    @staticmethod
    def _deliver(sock: socket.socket, on_frame: Callable[[bytes], None]) -> None:
        # Ends with the connection; the next send meets the same broken socket.
        with suppress(OSError):
            while True:
                on_frame(recv_frame(sock))
