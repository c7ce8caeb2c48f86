"""HTTP plumbing for the serving gateway: routing, JSON I/O, error mapping.

The handler is deliberately thin: it parses the request line and body, hands
the decoded payload to the :class:`~repro.server.app.PlanningServer` route
methods (which return ``(status, body)`` pairs), and serialises the reply.
All policy — admission mapping, planner routing, shadow sampling — lives in
the gateway, where it is unit-testable without a socket.

Error contract (JSON bodies everywhere, ``{"error": ..., "kind": ...}``):

- malformed JSON or a payload failing the wire codecs → **400**;
- unknown route or unknown planner/model version → **404**;
- admission rejection, over capacity → **429**;
- stale state (nothing to roll back to, featuriser mismatch) → **409**;
- gateway not configured for the operation / service closed → **503**;
- deadline expired at admission, or budget drained to an empty result →
  **504**.
"""

from __future__ import annotations

import json
import logging
import socket
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Callable
from urllib.parse import parse_qs, urlsplit

from repro.server.wire import (
    WireFormatError,
    json_bytes,
    service_response_json_bytes,
    service_responses_json_bytes,
)
from repro.telemetry.trace import start_trace

if TYPE_CHECKING:
    from repro.server.app import PlanningServer

#: Largest accepted request body (a structural 20-way join query is ~10 KB;
#: this bound exists so a misbehaving client cannot buffer us to death).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: The planning endpoints, with what encodes the service responses their
#: routes hand back (from bytes the cached results already hold; every other
#: route answers with a small dict).  These are also the endpoints that open
#: a request trace: the latency-critical path, while ops and introspection
#: endpoints stay untraced so the ring holds signal.
PLAN_RENDERERS = {
    "/v1/plan": service_response_json_bytes,
    "/v1/plan_many": service_responses_json_bytes,
}

#: ``(status, body)`` as produced by the gateway's route methods.
RouteResult = "tuple[int, dict]"


def _encode(status: int, body: object, render: Callable[..., bytes]) -> "tuple[int, bytes]":
    """``render(body)``, or an in-protocol 500 when it is not valid JSON.

    A codec bug that let a bare NaN through must fail loudly — but as a
    reply, not as invalid JSON or a dropped connection.
    """
    try:
        return status, render(body)
    except ValueError:
        return 500, json_bytes(
            {"error": "response was not JSON-serialisable", "kind": "internal"}
        )


class GatewayHTTPServer(ThreadingHTTPServer):
    """One thread per request; the planner service below does its own pooling.

    Two socket strategies beyond the default bind support the sharded
    gateway's pre-fork model (see :mod:`repro.server.sharding`):

    - ``reuse_port=True`` sets ``SO_REUSEPORT`` before binding, so several
      worker processes can each bind the same port and let the kernel
      load-balance incoming connections among them;
    - ``listen_socket=...`` adopts an already-bound, already-listening
      socket (inherited across ``fork`` from a supervisor) instead of
      binding at all — the fallback on platforms without ``SO_REUSEPORT``.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        server_address,
        RequestHandlerClass,  # noqa: N803 - http.server naming
        *,
        reuse_port: bool = False,
        listen_socket: socket.socket | None = None,
    ):
        self._reuse_port = reuse_port
        if listen_socket is None:
            super().__init__(server_address, RequestHandlerClass)
            return
        super().__init__(server_address, RequestHandlerClass, bind_and_activate=False)
        self.socket.close()  # replace the unbound default socket
        self.socket = listen_socket
        self.server_address = listen_socket.getsockname()
        host, port = self.server_address[:2]
        self.server_name = socket.getfqdn(host)
        self.server_port = port

    def server_bind(self) -> None:
        if self._reuse_port:
            if not hasattr(socket, "SO_REUSEPORT"):
                raise OSError("SO_REUSEPORT is not supported on this platform")
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()


class GatewayRequestHandler(BaseHTTPRequestHandler):
    """Routes gateway HTTP traffic; bound to one gateway via subclassing."""

    #: Set by :meth:`PlanningServer.start` on the per-server subclass.
    gateway: "PlanningServer"

    server_version = "repro-gateway/1.0"
    protocol_version = "HTTP/1.1"
    # Headers and body leave as one write.  The stdlib default (0) sends each
    # ``wfile.write`` on its own: two packets and two client wake-ups a
    # reply.  64 KiB holds any single-plan reply; a longer body goes out in
    # several writes.  ``handle_one_request`` flushes after every request,
    # ``finish`` after a ``send_error``, the SSE stream after every event.
    wbufsize = 64 * 1024
    # A lone write per exchange no longer trips Nagle, but back-to-back small
    # writes remain — SSE events, replies to a pipelining client, a body
    # longer than the buffer — and without TCP_NODELAY each would wait for
    # the peer's delayed ACK of the one before, ~40ms.
    disable_nagle_algorithm = True

    #: Trace id of the request being answered (None when it is untraced).
    _trace_id: str | None = None

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def handle_one_request(self) -> None:
        # This instance lives as long as its keep-alive connection: a reply
        # must not echo the trace id of the request before it.
        self._trace_id = None
        super().handle_one_request()

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        path = self.path.split("?", 1)[0]
        if path == "/v1/metrics/stream":
            self._stream_metrics()
            return
        if path == "/metrics":
            self._serve_prometheus()
            return
        if path.startswith("/v1/traces/"):
            trace_id = path[len("/v1/traces/") :]
            # Counted under one canonical bucket: per-id paths must not grow
            # the endpoint counters without bound.
            self._run_route(
                "/v1/traces/<trace_id>",
                lambda: self.gateway.handle_trace_lookup(trace_id),
            )
            return
        routes: dict[str, Callable[[], RouteResult]] = {
            "/healthz": self.gateway.handle_health,
            "/v1/metrics": self.gateway.handle_metrics,
            "/v1/models": self.gateway.handle_models,
            "/v1/experience": self.gateway.handle_experience,
            "/v1/traces": self.gateway.handle_traces,
            "/v1/profile": self.gateway.handle_profile,
            "/v1/alerts": self.gateway.handle_alerts,
        }
        self._dispatch(routes)

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        body_routes: dict[str, Callable[[object], RouteResult]] = {
            "/v1/plan": self.gateway.plan_response,
            "/v1/plan_many": self.gateway.plan_many_responses,
            "/v1/models/promote": self.gateway.handle_promote,
        }
        bare_routes: dict[str, Callable[[], RouteResult]] = {
            "/v1/models/rollback": self.gateway.handle_rollback,
        }
        path = self.path.split("?", 1)[0]
        if path in bare_routes:
            try:
                self._read_body()  # drain so keep-alive framing stays intact
            except WireFormatError as error:
                # The body was not consumed: the connection must close or the
                # unread bytes would be parsed as the next request line.
                self._reply(
                    path, 400, {"error": str(error), "kind": "bad_request"},
                    close=True,
                )
                return
            self._run_route(path, bare_routes[path])
            return
        handler = body_routes.get(path)
        if handler is None:
            try:
                self._read_body()  # drain: keep-alive framing stays intact
                drained = True
            except WireFormatError:
                drained = False
            self._reply(
                path, 404,
                {"error": f"no such endpoint: POST {path}", "kind": "not_found"},
                close=not drained,
            )
            return
        try:
            payload = self._read_json_body()
        except WireFormatError as error:
            # Oversized/undeclared bodies were not consumed; malformed JSON
            # was.  Closing unconditionally is the safe end of both cases.
            self._reply(
                path, 400, {"error": str(error), "kind": "bad_request"}, close=True
            )
            return
        render = PLAN_RENDERERS.get(path)
        if render is not None:
            # A valid inbound X-Repro-Trace id is adopted (cross-service
            # correlation); anything else gets a fresh id.  The id is echoed
            # on the response so clients can look the trace up afterwards.
            # The reply goes out only after the trace is recorded, so a
            # client that immediately asks /v1/traces always finds its own.
            with start_trace(
                path, trace_id=self.headers.get("X-Repro-Trace")
            ) as trace:
                if trace is not None:
                    self._trace_id = trace.trace_id
                try:
                    status, body = handler(payload)
                except Exception as error:  # noqa: BLE001 - transport answers
                    status, body = 500, {
                        "error": f"{type(error).__name__}: {error}",
                        "kind": "internal",
                    }
                if trace is not None:
                    trace.annotate(status=status)
            if not isinstance(body, dict):
                status, body = _encode(status, body, render)
            self._reply(path, status, body)
            return
        self._run_route(path, handler, payload)

    def _dispatch(self, routes: "dict[str, Callable[[], RouteResult]]") -> None:
        path = self.path.split("?", 1)[0]
        handler = routes.get(path)
        if handler is None:
            self._reply(
                path, 404, {"error": f"no such endpoint: GET {path}", "kind": "not_found"}
            )
            return
        self._run_route(path, handler)

    def _run_route(self, path: str, handler, *args) -> None:
        try:
            status, body = handler(*args)
        except Exception as error:  # noqa: BLE001 - the transport must answer
            status, body = 500, {
                "error": f"{type(error).__name__}: {error}",
                "kind": "internal",
            }
        self._reply(path, status, body)

    def _reply(
        self, path: str, status: int, body: "bytes | dict", close: bool = False
    ) -> None:
        """Count the exchange in the gateway metrics, then send it."""
        self._last_status = status
        self.gateway.count_http(path, status)
        self._send(status, body, close=close)

    # ------------------------------------------------------------------ #
    # JSON I/O
    # ------------------------------------------------------------------ #
    def _read_body(self) -> bytes:
        length = self.headers.get("Content-Length")
        try:
            length = int(length) if length is not None else 0
        except ValueError:
            raise WireFormatError("Content-Length is not an integer") from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise WireFormatError(
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte cap"
            )
        return self.rfile.read(length) if length else b""

    def _read_json_body(self) -> object:
        raw = self._read_body()
        if not raw:
            raise WireFormatError("request body is empty (expected a JSON object)")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as error:
            raise WireFormatError(f"request body is not valid JSON: {error}") from None

    def _send(self, status: int, body: "bytes | dict", close: bool = False) -> None:
        """Send ``body`` — already-encoded JSON, or a dict to encode."""
        if isinstance(body, bytes):
            encoded = body
        else:
            status, encoded = _encode(status, body, json_bytes)
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(encoded)))
            if close:
                # An unconsumed request body would be parsed as the next
                # request line on this connection; tell the client and stop
                # the keep-alive loop.
                self.send_header("Connection", "close")
                self.close_connection = True
            self.end_headers()
            self.wfile.write(encoded)
        except (BrokenPipeError, ConnectionResetError):  # client went away
            pass

    def send_response(self, code: int, message: str | None = None) -> None:
        """Every response — including ``send_error`` paths the route methods
        never see (malformed request line, unsupported method) — carries the
        worker id and, on traced exchanges, the trace id."""
        super().send_response(code, message)
        worker_id = getattr(self.gateway, "worker_id", None)
        if worker_id is not None:
            self.send_header("X-Repro-Worker", str(worker_id))
        if self._trace_id is not None:
            self.send_header("X-Repro-Trace", self._trace_id)

    # ------------------------------------------------------------------ #
    # Telemetry endpoints: Prometheus text and the SSE stream
    # ------------------------------------------------------------------ #
    def _serve_prometheus(self) -> None:
        try:
            text = self.gateway.prometheus_text()
        except Exception as error:  # noqa: BLE001 - the transport must answer
            self._reply(
                "/metrics", 500,
                {"error": f"{type(error).__name__}: {error}", "kind": "internal"},
            )
            return
        self._last_status = 200
        self.gateway.count_http("/metrics", 200)
        encoded = text.encode("utf-8")
        try:
            self.send_response(200)
            self.send_header(
                "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
            )
            self.send_header("Content-Length", str(len(encoded)))
            self.end_headers()
            self.wfile.write(encoded)
        except (BrokenPipeError, ConnectionResetError):
            pass

    def _stream_metrics(self) -> None:
        """``GET /v1/metrics/stream``: server-sent events until disconnect.

        Emits an ``event: metrics`` sample every ``interval`` seconds (query
        parameter, default 1s) and an ``event: lifecycle`` line for every bus
        event (promotions, rollbacks, scorer respawns) that lands in between.
        ``max_events=N`` ends the stream after N events — deterministic for
        tests and curl one-liners.
        """
        params = parse_qs(urlsplit(self.path).query)

        def _param(name: str, default: float) -> float:
            try:
                return float(params[name][0])
            except (KeyError, IndexError, ValueError):
                return default

        interval = min(max(_param("interval", 1.0), 0.05), 60.0)
        max_events = int(_param("max_events", 0))
        self._last_status = 200
        self.gateway.count_http("/v1/metrics/stream", 200)
        try:
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            self.send_header("Connection", "close")
            self.close_connection = True
            self.end_headers()
        except (BrokenPipeError, ConnectionResetError):
            return
        bus = self.gateway.event_bus
        cursor = bus.cursor
        sent = 0
        try:
            while True:
                events, cursor = bus.since(cursor)
                for event in events:
                    frame = "alert" if event.kind == "alert" else "lifecycle"
                    self._write_sse(frame, event.to_json_dict())
                    sent += 1
                    if max_events and sent >= max_events:
                        return
                self._write_sse("metrics", self.gateway.stream_sample())
                sent += 1
                if max_events and sent >= max_events:
                    return
                # Sleep in slices so a closing gateway releases the stream
                # promptly instead of holding the handler thread a full tick.
                deadline = time.monotonic() + interval
                while time.monotonic() < deadline:
                    if self.gateway.stopping_streams.wait(
                        min(0.25, max(deadline - time.monotonic(), 0.0))
                    ):
                        return
        except (BrokenPipeError, ConnectionResetError):  # client went away
            return

    def _write_sse(self, event: str, payload: dict) -> None:
        data = json.dumps(payload, allow_nan=False)
        self.wfile.write(f"event: {event}\ndata: {data}\n\n".encode("utf-8"))
        self.wfile.flush()

    # ------------------------------------------------------------------ #
    # Logging
    # ------------------------------------------------------------------ #
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not getattr(self.gateway, "verbose", False):
            return
        logger = logging.getLogger("repro.gateway")
        if logger.handlers or logging.getLogger("repro").handlers:
            # Structured mode: one JSON object per access-log line.
            logger.info(
                "%s", (format % args).strip(),
                extra={"repro_fields": {"client": self.address_string()}},
            )
        else:
            super().log_message(format, *args)
