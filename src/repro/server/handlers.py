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

Request head (``parse_request``; the server loop, ``send_error`` and the
status phrases stay ``http.server``'s, the head codec is this module's — no
mail-message parser on the request path).  Accepted grammar, bytes read as
ISO-8859-1::

    request-line = method SP target [SP "HTTP/" 1*10DIGIT "." 1*10DIGIT]
    field-line   = name ":" *(SP / HTAB) value (CRLF / LF)
    name         = 1*(%x21-39 / %x3B-7E)        ; visible ASCII bar ":"
    value        = *(any byte but CR and LF)

The request line follows the stdlib rule for rule: words split on blanks;
two words are an HTTP/0.9 ``GET`` (body-only reply, connection closed); a
leading ``//`` of the target collapses to ``/``; the connection is kept
alive from HTTP/1.1 on unless ``Connection: close`` (or when an HTTP/1.0
client asks ``keep-alive``).  Field names match in any case, the first value
of a repeated name wins, a value keeps its trailing blanks — all as the
stdlib's ``Message.get`` answered — and only ``Content-Length``,
``X-Repro-Trace``, ``Connection`` and ``Expect`` are ever looked up.
Limits: a request or field line of at most 65,536 bytes, at most 100 lines
in the field block counting the blank one that ends it, a body of at most
:data:`MAX_BODY_BYTES`.

======  ==============================================================
status  sent when (each closes the connection)
======  ==============================================================
400     request line of one or more than three words; a version that
        is not ``HTTP/<digits>.<digits>`` or has a component longer
        than 10 digits; a two-word request that is not ``GET``; a
        field line outside the grammar; ``Content-Length`` values
        that differ, or one that is not ASCII digits (JSON body)
414     request line longer than 65,536 bytes
431     field line longer than 65,536 bytes; more than 100 lines
501     no ``do_<METHOD>`` on the handler
505     version ``HTTP/2.0`` or above
======  ==============================================================

Where this is *stricter* than ``http.client``'s header parser, and why — each
is answered 400 rather than guessed at, because a proxy in front of the
gateway may frame the same bytes differently and the two would then
disagree on where the next request starts:

1. a continuation (obs-fold) line, which its ``feedparser`` joins onto the
   previous value (RFC 9112 §5.2 lets a server refuse it);
2. a field line with no colon, at which ``feedparser`` silently ends the
   head and **drops every field after it**, a ``Content-Length`` included;
3. an empty field name or one holding a blank or a byte outside visible
   ASCII, which ``feedparser`` treats like case 2;
4. ``Content-Length`` fields whose values are not the same text, of which
   the stdlib mapping silently answers the first;

and one more of the same family that the differential test against the
stdlib found: a bare CR inside a field line, which ``feedparser`` takes for
a line end (so ``X: a\rContent-Length: 0`` smuggles a field past anything
that splits on LF).
"""

from __future__ import annotations

import json
import logging
import re
import socket
import time
from email.utils import formatdate
from http import HTTPStatus
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

#: Routes by path: the name of the gateway method answering each (it
#: returns ``(status, body)``), looked up on the handler's gateway.
_GET_ROUTES = {
    "/healthz": "handle_health",
    "/v1/metrics": "handle_metrics",
    "/v1/models": "handle_models",
    "/v1/experience": "handle_experience",
    "/v1/traces": "handle_traces",
    "/v1/profile": "handle_profile",
    "/v1/alerts": "handle_alerts",
}
#: POST routes that read a JSON body, and those that take none.
_POST_BODY_ROUTES = {
    "/v1/plan": "plan_response",
    "/v1/plan_many": "plan_many_responses",
    "/v1/models/promote": "handle_promote",
}
_POST_BARE_ROUTES = {"/v1/models/rollback": "handle_rollback"}

#: ``http.client``'s limits: bytes in one line of a request head, and lines in
#: its field block (the blank line that ends the block counts as one).
_MAX_LINE = 65536
_MAX_HEADERS = 100

_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})").fullmatch
#: One field line, already decoded: name, colon, leading blanks dropped, the
#: value up to the line end.  No match is a 400 (see the module docstring).
_FIELD_LINE = re.compile(r"([!-9;-~]+):[ \t]*([^\r\n]*)\r?\n?").fullmatch


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


class _RequestFields:
    """The fields of one request head: any-case lookup, first value wins."""

    __slots__ = ("_first",)

    def __init__(self, first: "dict[str, str]"):
        self._first = first  # lower-cased name -> value

    def get(self, name: str, default: "str | None" = None) -> "str | None":
        return self._first.get(name.lower(), default)


#: ``(second, "Date: ...\r\n")`` of the last reply head.  Threads that race
#: on a new second each format it and store equal tuples.
_date_line: "tuple[int, str]" = (-1, "")


def _date_field() -> str:
    global _date_line
    second = int(time.time())
    cached = _date_line
    if cached[0] != second:
        cached = _date_line = (second, "Date: %s\r\n" % formatdate(second, usegmt=True))
    return cached[1]


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

    def parse_request(self) -> bool:
        """Parse ``raw_requestline`` and read the field block off ``rfile``.

        ``http.server``'s contract — ``command``, ``path``,
        ``request_version``, ``close_connection`` and ``headers`` set; False
        once an error reply was sent — and its outcome on every request line.
        The grammar, the limits and the field lines answered 400 where the
        stdlib would guess are in the module docstring.
        """
        self.command = None  # set in case of error on the first line
        self.request_version = self.default_request_version
        self.close_connection = True
        self.requestline = requestline = str(
            self.raw_requestline, "iso-8859-1"
        ).rstrip("\r\n")
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:  # enough to determine the protocol version
            version = words[-1]
            match = _VERSION(version)
            if match is None:
                self.send_error(
                    HTTPStatus.BAD_REQUEST, "Bad request version (%r)" % version
                )
                return False
            number = int(match[1]), int(match[2])
            if number >= (1, 1):
                self.close_connection = False
            if number >= (2, 0):
                self.send_error(
                    HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                    "Invalid HTTP version (%s)" % version[len("HTTP/"):],
                )
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(
                HTTPStatus.BAD_REQUEST, "Bad request syntax (%r)" % requestline
            )
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(
                    HTTPStatus.BAD_REQUEST,
                    "Bad HTTP/0.9 request type (%r)" % command,
                )
                return False
        if path.startswith("//"):
            # Clients read //host/path as a URI without a scheme: an open
            # redirect if the path is ever echoed.  Reduce to a single /.
            path = "/" + path.lstrip("/")
        self.command, self.path = command, path

        fields: dict[str, str] = {}
        self.headers = _RequestFields(fields)
        readline = self.rfile.readline
        lines = 0
        while True:
            line = readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Line too long",
                    "got more than %d bytes when reading header line" % _MAX_LINE,
                )
                return False
            lines += 1
            if lines > _MAX_HEADERS:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Too many headers",
                    "got more than %d headers" % _MAX_HEADERS,
                )
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            match = _FIELD_LINE(str(line, "iso-8859-1"))
            if match is None:
                self.send_error(HTTPStatus.BAD_REQUEST, "Bad header line")
                return False
            name = match[1].lower()
            if name not in fields:
                fields[name] = match[2]
            elif name == "content-length" and fields[name] != match[2]:
                self.send_error(
                    HTTPStatus.BAD_REQUEST, "Conflicting Content-Length headers"
                )
                return False

        connection = fields.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if (
            fields.get("expect", "").lower() == "100-continue"
            and self.request_version >= "HTTP/1.1"
        ):
            return self.handle_expect_100()
        return True

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
        route = _GET_ROUTES.get(path)
        if route is None:
            self._reply(
                path, 404, {"error": f"no such endpoint: GET {path}", "kind": "not_found"}
            )
            return
        self._run_route(path, getattr(self.gateway, route))

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        path = self.path.split("?", 1)[0]
        route = _POST_BARE_ROUTES.get(path)
        if route is not None:
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
            self._run_route(path, getattr(self.gateway, route))
            return
        route = _POST_BODY_ROUTES.get(path)
        if route is None:
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
        handler = getattr(self.gateway, route)
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
        declared = self.headers.get("Content-Length")
        if declared is None:
            return b""
        declared = declared.strip(" \t")
        # ASCII digits only: int() also reads "1_0", "+10" and any Unicode
        # decimal digit as 10, where a proxy in front reads something else.
        try:
            if not (declared.isascii() and declared.isdigit()):
                raise ValueError
            length = int(declared)  # refuses more digits than it converts
        except ValueError:
            raise WireFormatError("Content-Length is not a decimal number") from None
        if length > MAX_BODY_BYTES:
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
        fields = b"Content-Type: application/json\r\nContent-Length: %d\r\n" % len(encoded)
        if close:
            # An unconsumed request body would be parsed as the next
            # request line on this connection; tell the client and stop
            # the keep-alive loop.
            fields += b"Connection: close\r\n"
            self.close_connection = True
        try:
            self.send_response(status)
            if self.request_version != "HTTP/0.9":  # which gets the body alone
                self._headers_buffer.append(fields + b"\r\n")
                self.flush_headers()
            self.wfile.write(encoded)
        except (BrokenPipeError, ConnectionResetError):  # client went away
            pass

    def send_response(self, code: int, message: str | None = None) -> None:
        """Every response — including ``send_error`` paths the route methods
        never see (malformed request line, unsupported method) — carries the
        worker id and, on traced exchanges, the trace id."""
        self.log_request(code)
        if self.request_version == "HTTP/0.9":
            return
        if message is None:
            message = self.responses[code][0] if code in self.responses else ""
        head = "%s %d %s\r\nServer: %s\r\n%s" % (
            self.protocol_version, code, message, self.version_string(), _date_field()
        )
        worker_id = getattr(self.gateway, "worker_id", None)
        if worker_id is not None:
            head += f"X-Repro-Worker: {worker_id}\r\n"
        if self._trace_id is not None:
            head += f"X-Repro-Trace: {self._trace_id}\r\n"
        # One block, encoded once, where the stdlib appends a line a call.
        if not hasattr(self, "_headers_buffer"):
            self._headers_buffer = []
        self._headers_buffer.append(head.encode("latin-1"))

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
