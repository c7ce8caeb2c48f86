"""Sharded gateway: pre-forked HTTP workers over one port, and their supervisor.

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
- The supervisor owns the **shared plan-cache tier**
  (:class:`~repro.service.shared_tier.PlanCacheServer`; every worker layers
  a :class:`~repro.service.shared_tier.SharedCacheClient` under its local
  LRU) — that pair lives beside :class:`~repro.service.cache.TieredPlanCache`
  in :mod:`repro.service.shared_tier`.
- :class:`OpsBroadcastServer` / :class:`OpsChannelClient` are the
  **ops-coherence channel**: the kernel load-balances connections, so a
  ``promote``/``rollback`` POST lands on one worker — the receiving worker
  re-broadcasts it through the supervisor's bus and every sibling applies it
  locally, keeping the whole shard serving the same version.
- :class:`TelemetrySnapshotServer` / :class:`TelemetryPushClient` are the
  **fleet telemetry sink**: workers push registry snapshots, the supervisor
  serves the merge on its own port.

All three channels are frames over :mod:`repro.ipc` (sockets, accept loop,
reconnect policy); what is here is what each channel's frames mean.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import shutil
import signal
import socket
import tempfile
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.ipc import Connection, FrameClient, FrameServer
from repro.service.cache import TieredPlanCache
from repro.service.shared_tier import PlanCacheServer, SharedCacheClient
from repro.telemetry.metrics import MetricsRegistry, merge_snapshots, render_snapshot
from repro.telemetry.profiling import flamegraph_from_profile, merge_profiles

if TYPE_CHECKING:
    from repro.server.app import PlanningServer

#: Seconds between a worker's telemetry pushes.
TELEMETRY_PUSH_SECONDS = 0.25

#: Backstop for a worker that stays alive but never reports ready (a dead
#: one fails :meth:`ShardedGateway.start` at once).
READY_TIMEOUT_SECONDS = 60.0

# The telemetry sink's one-byte verdict on a pushed frame.
_SNAPSHOT_STORED = b"O"
_SNAPSHOT_REJECTED = b"X"


def _decode_json(frame: bytes) -> object:
    """The frame's JSON value, or None for a garbled frame (dropped, not fatal)."""
    try:
        return json.loads(frame.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None


# ---------------------------------------------------------------------- #
# The ops-coherence channel
# ---------------------------------------------------------------------- #
class OpsBroadcastServer(FrameServer):
    """Supervisor-owned fan-out bus for ops actions (promote/rollback).

    The kernel load-balances HTTP connections across workers, so a
    ``POST /v1/models/promote`` lands on *one* worker — without coherence the
    other workers keep serving the old version.  Each worker holds one
    long-lived connection to this server (JSON frames); a worker's first
    frame is ``{"hello": <worker id>}``, and an op frame published by any
    worker is re-broadcast to every **other** connection, so the publisher
    never receives its own op back and each op is applied exactly once per
    worker.

    Args:
        address: Unix-socket path to listen on.
    """

    def __init__(self, address: str):
        super().__init__(address, self._relay, name="ops-bus")
        self._relay_lock = threading.Lock()
        self._published = 0
        self._delivered = 0
        self._delivery_errors = 0

    def _relay(self, origin: Connection, frame: bytes) -> None:
        message = _decode_json(frame)
        if message is None:
            return
        if isinstance(message, dict) and "hello" in message:
            # A peer's frame is outside input: anything but an int worker id
            # would poison the sort in stats().
            if isinstance(message["hello"], int):
                origin.tag = message["hello"]
            return
        # One fan-out at a time: every worker sees the ops in one order, and
        # stats() never reads the counters half-way through a delivery.
        with self._relay_lock:
            self._published += 1
            delivered, failed = self.send_to_others(origin, frame)
            self._delivered += delivered
            self._delivery_errors += failed

    def stats(self) -> dict:
        """Bus counters plus the currently connected worker ids."""
        connections = self.connections()
        with self._relay_lock:
            return {
                "connections": len(connections),
                "workers": sorted(c.tag for c in connections if c.tag is not None),
                "published": self._published,
                "delivered": self._delivered,
                "delivery_errors": self._delivery_errors,
            }


class OpsChannelClient(FrameClient):
    """One worker's connection to the ops bus.

    Satisfies the gateway's ``ops_channel`` duck type (``publish(dict)``).
    A background listener thread delivers broadcasts from sibling workers to
    ``on_op`` (the gateway's ``apply_ops_message``).  Both directions are
    best-effort: a dead bus costs dropped coherence messages, never a failed
    foreground request — and it stays dead (``retry_seconds`` is ``inf``): a
    reconnect would have no listener behind it.

    Args:
        address: The bus address (see :class:`OpsBroadcastServer`).
        worker_id: Announced to the bus in the hello frame (for stats).
        on_op: Callback invoked with each decoded broadcast dict.
    """

    def __init__(self, address: str, worker_id: int, on_op: "Callable[[object], None]"):
        hello = json.dumps({"hello": worker_id}).encode("utf-8")
        super().__init__(address, retry_seconds=math.inf, hello=hello)
        self.worker_id = worker_id
        self.on_op = on_op
        self._received = 0

    def start(self) -> "OpsChannelClient":
        """Connect, announce, and start the listener thread.

        An unreachable bus is not an error here either: the client comes
        back down, and :meth:`publish` reports False from then on.
        """
        if self._sock is None:
            self.subscribe(self._deliver_op, name=f"ops-bus-listen-{self.worker_id}")
        return self

    def publish(self, message: dict) -> bool:
        """Send one op frame to the bus (best-effort; False on failure)."""
        try:
            frame = json.dumps(message).encode("utf-8")
        except (TypeError, ValueError):
            return False
        return self.send(frame)

    def _deliver_op(self, frame: bytes) -> None:
        message = _decode_json(frame)
        if message is None:
            return
        self._received += 1
        try:
            self.on_op(message)
        except Exception:  # noqa: BLE001 - the listener must survive
            pass

    def stats(self) -> dict:
        """This client's transport counters."""
        transport = super().stats()
        return {
            "published": transport["ops"],
            "received": self._received,
            "errors": transport["errors"],
            "connected": self._sock is not None,
        }


# ---------------------------------------------------------------------- #
# The fleet telemetry sink
# ---------------------------------------------------------------------- #
class TelemetrySnapshotServer(FrameServer):
    """Supervisor-owned sink for worker metrics snapshots.

    The sharded workers share one HTTP port the kernel load-balances, so the
    supervisor cannot scrape an *individual* worker over HTTP — each worker
    instead pushes its :meth:`PlanningServer.telemetry_snapshot` here
    (JSON frames ``{"worker_id": ..., "snapshot": ...}`` with an optional
    ``"profile"`` carrying the worker's sampling profile).  The
    sink keeps the latest snapshot and profile per worker slot; the
    supervisor's fleet ``/metrics`` merges snapshots with
    :func:`repro.telemetry.metrics.merge_snapshots` and its ``/v1/profile``
    merges profiles with :func:`repro.telemetry.profiling.merge_profiles`.
    """

    def __init__(self, address: str):
        super().__init__(address, self._store, name="telemetry-sink")
        self._latest_lock = threading.Lock()
        self._latest: dict[int, dict] = {}
        self._profiles: dict[int, dict] = {}
        self._received = 0

    def _store(self, _connection: Connection, frame: bytes) -> bytes:
        message = _decode_json(frame)
        if (
            not isinstance(message, dict)
            or not isinstance(message.get("worker_id"), int)
            or not isinstance(message.get("snapshot"), dict)
        ):
            return _SNAPSHOT_REJECTED + b"malformed snapshot"
        worker_id, profile = message["worker_id"], message.get("profile")
        with self._latest_lock:
            self._latest[worker_id] = message["snapshot"]
            if isinstance(profile, dict):
                self._profiles[worker_id] = profile
            self._received += 1
        return _SNAPSHOT_STORED

    def snapshots(self) -> "list[dict]":
        """The latest snapshot from every worker that has pushed one."""
        with self._latest_lock:
            return [self._latest[wid] for wid in sorted(self._latest)]

    def worker_ids(self) -> "list[int]":
        with self._latest_lock:
            return sorted(self._latest)

    def profiles(self) -> "list[dict]":
        """The latest sampling profile from every worker that pushed one."""
        with self._latest_lock:
            return [self._profiles[wid] for wid in sorted(self._profiles)]

    def stats(self) -> dict:
        with self._latest_lock:
            return {
                "workers_reporting": len(self._latest),
                "snapshots_received": self._received,
            }


class TelemetryPushClient(FrameClient):
    """Worker-side pusher: ships registry snapshots to the supervisor sink.

    A background thread pushes every :data:`TELEMETRY_PUSH_SECONDS` and once
    more on close (so short-lived workers still land their final counters).
    Pushes are best-effort — a dead sink costs one failed syscall per tick
    (``retry_seconds`` is 0: the tick is the pacing, and the closing push is
    never inside a down window), never a failed request.
    """

    def __init__(
        self,
        address: str,
        worker_id: int,
        snapshot_fn: "Callable[[], dict]",
        *,
        profile_fn: "Callable[[], dict] | None" = None,
    ):
        super().__init__(address, retry_seconds=0.0)
        self.worker_id = worker_id
        self.snapshot_fn = snapshot_fn
        self.profile_fn = profile_fn
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> "TelemetryPushClient":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._loop, name="telemetry-push", daemon=True
        )
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(TELEMETRY_PUSH_SECONDS):
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
            return False
        reply = self.request(payload)
        return reply is not None and reply.startswith(_SNAPSHOT_STORED)

    def close(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        super().close()


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
    cache_address: str | None = None
    ops_address: str | None = None
    telemetry_address: str | None = None


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
        gateway.service.cache = TieredPlanCache(
            gateway.service.cache, SharedCacheClient(spec.cache_address)
        )
    ops_client = None
    if spec.ops_address is not None:
        # An unreachable bus leaves the client down: coherence degrades,
        # serving continues.
        ops_client = OpsChannelClient(
            spec.ops_address, spec.worker_id, gateway.apply_ops_message
        ).start()
        gateway.ops_channel = ops_client
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

    Workers also push their metrics snapshots to a supervisor sink, and the
    supervisor serves the merged fleet view on its own ``/metrics`` port (see
    :attr:`metrics_port`).
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
        max_respawns: int = 2,
        health_interval_seconds: float = 0.5,
        reuse_port: bool | None = None,
        drain_grace_seconds: float = 0.25,
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
        self._host = host
        self._requested_port = port
        self._shared_cache = shared_cache
        self._shared_cache_capacity = shared_cache_capacity
        self._ops_channel = ops_channel
        self._reuse_port_requested = reuse_port

        self.cache_server: PlanCacheServer | None = None
        self.ops_server: OpsBroadcastServer | None = None
        self.telemetry_server: TelemetrySnapshotServer | None = None
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
        self._supervisor: threading.Thread | None = None
        self._supervisor_stop = threading.Event()
        self._register_metrics()
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
        try:
            self._open()
        except BaseException:
            # ``__exit__`` never runs when ``__enter__`` raises: release the
            # temp dir, the channels and every worker already forked here.
            self.close()
            raise
        return self

    def _open(self) -> None:
        self._tempdir = tempfile.mkdtemp(prefix="repro-shard-")
        if self._shared_cache:
            self.cache_server = PlanCacheServer(
                os.path.join(self._tempdir, "plan-cache.sock"),
                capacity=self._shared_cache_capacity,
            ).start()
        if self._ops_channel:
            self.ops_server = OpsBroadcastServer(
                os.path.join(self._tempdir, "ops.sock")
            ).start()
        self.telemetry_server = TelemetrySnapshotServer(
            os.path.join(self._tempdir, "telemetry.sock")
        ).start()

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

        self._shutdown_r, self._shutdown_w = os.pipe()
        self._ready_r, self._ready_w = os.pipe()
        for slot in range(self.num_workers):
            self._processes.append(self._spawn_worker(slot))
        self._started = True
        self._await_ready()
        self._supervisor = threading.Thread(
            target=self._supervise, name="shard-supervisor", daemon=True
        )
        self._supervisor.start()
        self._start_metrics_listener()

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
            # A channel that is switched off has no server, hence no address.
            cache_address=getattr(self.cache_server, "address", None),
            ops_address=getattr(self.ops_server, "address", None),
            telemetry_address=self.telemetry_server.address,
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

    def _await_ready(self) -> None:
        """Block until every worker reports ready; raise once one cannot.

        A worker that died before reporting (its factory raised, say) never
        will, so that fails the start at once; :data:`READY_TIMEOUT_SECONDS`
        only bounds a worker that stays alive and silent.
        """
        deadline = time.monotonic() + READY_TIMEOUT_SECONDS
        ready: set = set()
        while len(ready) < self.num_workers:
            for message in self._read_ready_messages(0.1):
                ready.add(message.get("worker_id"))
            dead = [
                (process.name, process.exitcode)
                for slot, process in enumerate(self._processes)
                if slot not in ready and not process.is_alive()
            ]
            if dead or time.monotonic() > deadline:
                raise RuntimeError(
                    f"only {len(ready)}/{self.num_workers} gateway workers became "
                    f"ready (dead: {dead}, waited up to {READY_TIMEOUT_SECONDS}s)"
                )

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
                if self._respawns.value >= self.max_respawns:
                    continue
                self._respawns.inc()
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
            raise RuntimeError("sharded gateway is not started")
        return self._metrics_httpd.server_address[1]

    @property
    def metrics_url(self) -> str:
        """``http://host:port/metrics`` of the fleet scrape target."""
        return f"http://{self._host}:{self.metrics_port}/metrics"

    def _register_metrics(self) -> None:
        """:attr:`telemetry`: the supervisor's respawn counter and readers of
        the shard's state and of the tier servers' own counters.

        Workers publish only their *client-side* shared-cache stats — the
        tier server's counters appear once here, not once per worker, so
        the fleet merge never multiplies them by ``num_workers``.
        """
        registry = self.telemetry = MetricsRegistry()
        self._state_lock = registry.lock
        self._respawns = registry.counter(
            "repro_shard_respawns_total", "Crashed workers the supervisor replaced."
        )

        def gauge(name: str, help_text: str, fn) -> None:
            registry.gauge(name, help_text, aggregation="last").set_function(fn)

        def server_stat(server: str, key: str):
            owner = getattr(self, server)
            return None if owner is None else owner.stats()[key]

        gauge(
            "repro_shard_workers_alive",
            "Gateway worker processes currently running.", self.alive_workers,
        )
        gauge(
            "repro_shard_workers_configured",
            "Gateway worker processes the shard was started with.",
            lambda: self.num_workers,
        )
        gauge(
            "repro_shard_health_failures",
            "Consecutive failed /healthz probes.", lambda: self._health_failures,
        )
        for key in ("size", "capacity", "versions", "hit_rate"):
            gauge(
                f"repro_shared_cache_{key}", f"Shared plan-cache tier {key}.",
                lambda key=key: server_stat("cache_server", key),
            )
        for key in ("hits", "misses", "inserts", "evictions", "invalidated"):
            registry.counter(
                f"repro_shared_cache_{key}_total",
                f"Shared plan-cache tier cumulative {key}.",
            ).set_function(lambda key=key: server_stat("cache_server", key))
        gauge(
            "repro_ops_bus_connections",
            "Workers connected to the ops-coherence bus.",
            lambda: server_stat("ops_server", "connections"),
        )
        for key in ("published", "delivered", "delivery_errors"):
            registry.counter(
                f"repro_ops_bus_{key}_total", f"Ops-coherence bus cumulative {key}."
            ).set_function(lambda key=key: server_stat("ops_server", key))
        gauge(
            "repro_shard_workers_reporting",
            "Workers with a telemetry snapshot in the sink.",
            lambda: server_stat("telemetry_server", "workers_reporting"),
        )
        registry.counter(
            "repro_shard_snapshots_received_total",
            "Worker metrics snapshots received by the supervisor sink.",
        ).set_function(lambda: server_stat("telemetry_server", "snapshots_received"))

    def fleet_metrics_snapshot(self) -> dict:
        """Fleet-merged registry snapshot: every worker plus the supervisor.

        Counters and histograms sum across workers; gauges merge by their
        declared aggregation (see
        :func:`repro.telemetry.metrics.merge_snapshots`).
        """
        snapshots = (
            self.telemetry_server.snapshots() if self.telemetry_server is not None else []
        )
        snapshots.append(self.telemetry.snapshot())
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
            respawns = self._respawns.value
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
