"""The framed-socket substrate's contract (:mod:`repro.ipc`), stated once.

Every cross-process channel of the sharded gateway is built on it, so what
they all rely on is tested here rather than per channel:

- frames survive any split of the byte stream, in order, empty ones included;
- peer death is an EOF, never a held lock: a peer SIGKILLed half-way through
  a frame, or one announcing an oversized frame, costs exactly its own
  connection, and a sibling's round trip / delivery is not delayed by it;
- the client's one failure policy: first failure reported, calls inside the
  retry window skipped without touching a socket, reconnect (with ``hello``
  sent again) after it.
"""

from __future__ import annotations

import os
import random
import signal
import socket
import struct
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ipc
from repro.ipc import MAX_FRAME_BYTES, FrameClient, FrameServer, recv_frame, send_frame


def await_until(predicate, timeout: float = 5.0, message: str = "condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out awaiting {message}"
        time.sleep(0.005)


def raw_connection(address: str) -> socket.socket:
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(5.0)
    sock.connect(address)
    return sock


def fork_peer_dying_mid_frame(address: str) -> int:
    """Fork a child that connects, writes a frame header and half the payload
    it announced, and waits to be killed.  Returns its pid once it has
    written."""
    ready_r, ready_w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: nothing but raw syscalls, then wait for SIGKILL
        try:
            sock = raw_connection(address)
            sock.sendall(struct.pack(">I", 100) + b"h" * 50)
            os.write(ready_w, b"1")
            signal.pause()
        finally:
            os._exit(1)
    os.close(ready_w)
    try:
        assert os.read(ready_r, 1) == b"1", "the child never wrote its half frame"
    finally:
        os.close(ready_r)
    return pid


def kill_peer(pid: int) -> None:
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)


# ---------------------------------------------------------------------- #
# Framing
# ---------------------------------------------------------------------- #
class _Capture:
    """Stands in for a socket on the send side: keeps what was written."""

    def __init__(self):
        self.stream = b""

    def sendall(self, data: bytes) -> None:
        self.stream += data


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 64 * 1024), min_size=1, max_size=4),
    cuts=st.lists(st.integers(1, 80 * 1024), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_frames_survive_any_split_of_the_stream(sizes, cuts, seed):
    rng = random.Random(seed)
    payloads = [rng.randbytes(size) for size in sizes]
    capture = _Capture()
    for payload in payloads:
        send_frame(capture, payload)

    writer_end, reader_end = socket.socketpair()

    def write_in_chunks():
        offset, turn = 0, 0
        while offset < len(capture.stream):
            step = cuts[turn % len(cuts)]
            writer_end.sendall(capture.stream[offset : offset + step])
            offset, turn = offset + step, turn + 1

    writer = threading.Thread(target=write_in_chunks, daemon=True)
    writer.start()
    try:
        reader_end.settimeout(10.0)
        assert [recv_frame(reader_end) for _ in payloads] == payloads
        writer.join(timeout=10.0)
        assert not writer.is_alive()
        writer_end.close()
        with pytest.raises(ConnectionError):  # EOF at a frame boundary
            recv_frame(reader_end)
    finally:
        writer_end.close()
        reader_end.close()


# ---------------------------------------------------------------------- #
# Peer death is an EOF, never a held lock
# ---------------------------------------------------------------------- #
class TestPeerDeath:
    def test_peer_killed_mid_frame_costs_only_its_own_connection(self, tmp_path):
        with FrameServer(
            str(tmp_path / "echo.sock"), lambda conn, frame: b"echo:" + frame
        ) as server:
            sibling = FrameClient(server.address)
            assert sibling.request(b"before") == b"echo:before"
            victim = fork_peer_dying_mid_frame(server.address)
            try:
                await_until(lambda: len(server.connections()) == 2, message="the peer")
                # A reader blocked half-way through a frame holds nothing.
                assert sibling.request(b"during") == b"echo:during"
            finally:
                kill_peer(victim)
            await_until(
                lambda: len(server.connections()) == 1, message="the dead peer's drop"
            )
            started = time.monotonic()
            assert sibling.request(b"after") == b"echo:after"
            assert time.monotonic() - started < 1.0
            assert sibling.stats()["errors"] == 0
            sibling.close()

    def test_broadcast_with_a_dead_peer_among_the_recipients(self, tmp_path, monkeypatch):
        def relay(origin, frame):
            server.send_to_others(origin, frame)

        server = FrameServer(str(tmp_path / "bus.sock"), relay).start()
        try:
            received: list[bytes] = []
            publisher = FrameClient(server.address)
            listener = FrameClient(server.address)
            assert listener.subscribe(received.append, name="test-listener")
            assert publisher.send(b"op-0")
            await_until(lambda: received == [b"op-0"], message="the first delivery")

            victim = fork_peer_dying_mid_frame(server.address)
            await_until(lambda: len(server.connections()) == 3, message="the peer")
            with_the_dead = server.connections()
            kill_peer(victim)
            # Whether or not the bus has noticed the death yet, the sibling's
            # delivery is not held up by it.
            started = time.monotonic()
            assert publisher.send(b"op-1")
            await_until(
                lambda: received == [b"op-0", b"op-1"], timeout=1.0,
                message="delivery past the dead peer",
            )
            assert time.monotonic() - started < 1.0
            await_until(
                lambda: len(server.connections()) == 2, message="the dead peer's drop"
            )
            # And with the dead connection certainly among the recipients:
            # its write fails at once, the others are still served.
            with monkeypatch.context() as patch:
                patch.setattr(server, "connections", lambda: with_the_dead)
                assert server.send_to_others(None, b"op-2") == (2, 1)
            await_until(lambda: received[-1] == b"op-2", message="the last delivery")
            publisher.close()
            listener.close()
        finally:
            server.close()

    def test_oversized_header_closes_only_its_own_connection(self, tmp_path):
        with FrameServer(
            str(tmp_path / "cap.sock"), lambda conn, frame: b"%d" % len(frame)
        ) as server:
            sibling = FrameClient(server.address)
            assert sibling.request(b"") == b"0"
            confused = raw_connection(server.address)
            try:
                await_until(lambda: len(server.connections()) == 2, message="the peer")
                confused.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
                assert confused.recv(1) == b""  # dropped: EOF, no reply
            finally:
                confused.close()
            await_until(lambda: len(server.connections()) == 1, message="the drop")
            assert sibling.request(b"still here") == b"10"
            # The cap is inclusive: a frame of exactly the cap is a frame.
            exact = raw_connection(server.address)
            try:
                send_frame(exact, b"\x00" * MAX_FRAME_BYTES)
                assert recv_frame(exact) == b"%d" % MAX_FRAME_BYTES
            finally:
                exact.close()
            sibling.close()

    def test_close_ends_every_thread_and_unlinks_the_path(self, tmp_path):
        path = str(tmp_path / "closing.sock")
        server = FrameServer(path, lambda conn, frame: frame, name="closing").start()
        client = FrameClient(path)
        assert client.request(b"x") == b"x"
        started = time.monotonic()
        server.close()
        assert time.monotonic() - started < 1.0  # accept() is woken, not waited out
        await_until(
            lambda: not [t for t in threading.enumerate() if t.name.startswith("closing")],
            message="the server's threads",
        )
        assert not os.path.exists(path)
        with pytest.raises(RuntimeError):
            server.start()
        client.close()


# ---------------------------------------------------------------------- #
# The client's one failure policy
# ---------------------------------------------------------------------- #
class TestFailurePolicy:
    def test_fail_once_skip_inside_the_window_then_reconnect_with_hello(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "flap.sock")
        seen: list[bytes] = []

        def record(conn, frame):
            seen.append(frame)
            return None if frame == b"hello" else b"ok:" + frame  # hello is one-way

        first = FrameServer(path, record).start()
        client = FrameClient(path, retry_seconds=0.4, hello=b"hello")
        assert client.request(b"one") == b"ok:one"
        assert seen == [b"hello", b"one"]
        first.close()

        assert client.request(b"two") is None  # the failure itself: reported
        failed_at = time.monotonic()
        assert not client.available
        assert client.stats()["errors"] == 1

        # Inside the window nothing reaches for a socket at all.
        class NoSockets:
            def __getattr__(self, name):
                raise AssertionError(f"a call inside the down window used socket.{name}")

        second = FrameServer(path, record).start()  # up again, but not probed yet
        try:
            with monkeypatch.context() as patch:
                patch.setattr(ipc, "socket", NoSockets())
                assert client.request(b"three") is None
                assert client.send(b"four") is False
                assert client.request(b"five") is None
            assert time.monotonic() - failed_at < 0.4, "the test outran its own window"
            stats = client.stats()
            assert stats["skipped_while_down"] == 3
            assert stats["errors"] == 1
            assert len(second.connections()) == 0

            time.sleep(max(0.0, failed_at + 0.45 - time.monotonic()))
            assert client.available
            assert client.request(b"six") == b"ok:six"
            assert seen == [b"hello", b"one", b"hello", b"six"]
            assert client.stats()["ops"] == 2
        finally:
            client.close()
            second.close()

    def test_retry_zero_never_skips_and_inf_never_returns(self, tmp_path):
        path = str(tmp_path / "values.sock")
        eager = FrameClient(path, retry_seconds=0.0)
        never = FrameClient(path, retry_seconds=float("inf"))
        assert eager.request(b"x") is None  # nobody listening yet
        assert never.send(b"x") is False
        with FrameServer(path, lambda conn, frame: frame):
            assert eager.request(b"x") == b"x"  # no window to wait out
            assert never.send(b"x") is False  # down for good
        assert eager.stats()["skipped_while_down"] == 0
        assert never.stats()["skipped_while_down"] == 1
        eager.close()
        never.close()

    def test_a_subscription_ends_with_its_connection(self, tmp_path):
        path = str(tmp_path / "sub.sock")
        server = FrameServer(path, lambda conn, frame: None).start()
        client = FrameClient(path, retry_seconds=float("inf"))
        assert client.subscribe(lambda frame: None, name="test-subscriber")
        server.close()
        await_until(
            lambda: "test-subscriber" not in [t.name for t in threading.enumerate()],
            message="the subscriber thread's end",
        )
        # The next send meets the same broken socket: the one failure policy.
        assert client.send(b"x") is False
        assert not client.available
        assert client.stats()["errors"] == 1
        with FrameServer(path, lambda conn, frame: None) as revived:
            assert client.send(b"y") is False  # inf: no reconnect without a listener
            assert len(revived.connections()) == 0
        client.close()
