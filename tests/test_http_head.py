"""The gateway's HTTP head codec against the stdlib's.

``GatewayRequestHandler`` reads a request head and writes a reply head with
its own code (``server/handlers.py``); what ``http.server`` did there is kept
in this file as the reference:

- a Hypothesis differential test runs generated request heads through both
  parsers over ``BytesIO`` and asserts equal outcomes, attributes, lookups,
  reply bytes and read offsets;
- the field lines the gateway refuses where the stdlib guesses, and the
  ``Content-Length`` spellings ``int()`` accepts, are pinned over a real
  socket, each asserting the connection closes;
- with the clock pinned, the reply bytes of every kind of reply equal what
  the stdlib's ``send_response`` / ``send_header`` / ``end_headers`` wrote.
"""

from __future__ import annotations

import io
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.planning.adapters import RandomPlanner
from repro.server import PlanningServer, query_to_json_dict
from repro.server import handlers
from repro.server.handlers import GatewayRequestHandler, _encode
from repro.server.wire import json_bytes
from repro.service.service import PlannerService
from repro.telemetry.events import EventBus
from tests.conftest import make_three_table_query

PINNED = 1_700_000_000.25  # Tue, 14 Nov 2023 22:13:20 GMT


# ---------------------------------------------------------------------- #
# The reference: the head handling of the commit before the codec
# ---------------------------------------------------------------------- #
class StdlibHead(GatewayRequestHandler):
    """``GatewayRequestHandler`` as it was on top of ``http.server``'s head."""

    parse_request = BaseHTTPRequestHandler.parse_request

    def send_response(self, code, message=None):
        BaseHTTPRequestHandler.send_response(self, code, message)
        worker_id = getattr(self.gateway, "worker_id", None)
        if worker_id is not None:
            self.send_header("X-Repro-Worker", str(worker_id))
        if self._trace_id is not None:
            self.send_header("X-Repro-Trace", self._trace_id)

    def _send(self, status, body, close=False):
        if isinstance(body, bytes):
            encoded = body
        else:
            status, encoded = _encode(status, body, json_bytes)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(encoded)))
        if close:
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(encoded)


class StubGateway:
    """What a handler asks of its gateway, answered with fixed values."""

    verbose = False

    def __init__(self, worker_id=None):
        self.worker_id = worker_id
        self.counted: list = []
        self.event_bus = EventBus()
        self.stopping_streams = threading.Event()

    def count_http(self, path, status):
        self.counted.append((path, status))

    def handle_health(self):
        return 200, {"status": "ok"}

    def plan_response(self, payload):
        if "query" not in payload:
            return 400, {"error": "payload has no query", "kind": "bad_request"}
        return 200, {"plans": [], "echo": payload}

    def __getattr__(self, name):
        # The handler builds its whole route table for every request.
        if name.startswith(("handle_", "plan_")):
            return lambda *args: (503, {"error": name, "kind": "unavailable"})
        raise AttributeError(name)

    def prometheus_text(self):
        return "# TYPE repro_up gauge\nrepro_up 1\n"

    def stream_sample(self):
        return {"qps": 0.0}


def offline(cls, raw: bytes, gateway=None):
    """A ``cls`` handler over ``raw``, never started: no socket, no thread."""
    handler = cls.__new__(cls)
    handler.rfile = io.BytesIO(raw)
    handler.wfile = io.BytesIO()
    handler.client_address = ("127.0.0.1", 0)
    handler.gateway = gateway or StubGateway()
    handler.close_connection = True
    return handler


def served_bytes(cls, raw: bytes, gateway=None):
    """Everything ``cls`` writes for the requests in ``raw``, clock pinned."""
    handler = offline(cls, raw, gateway)
    with mock.patch("time.time", return_value=PINNED):
        handler.handle_one_request()
        while not handler.close_connection:
            handler.handle_one_request()
    return handler, handler.wfile.getvalue()


# ---------------------------------------------------------------------- #
# (a) differential: generated request heads through both parsers
# ---------------------------------------------------------------------- #
VERSIONS = [
    "HTTP/1.1", "HTTP/1.0", "HTTP/1.1", "HTTP/2.0", "HTTP/1.1.1", "HTTP/01.1",
    "HTTP/1.01", "HTTP/0.9", "HTTP/3.1", "HTTP/12345678901.1",
    "HTTP/1.12345678901", "HTTP/1234567890.1", "HTTP/1.", "HTTP/.1", "HTTP/",
    "HTTP/1.\u00b2", "http/1.1", "HTTP/1,1", "HTTP/-1.1", "HTTP/+1.1", "XTTP/1.1",
]
latin1_word = st.text(
    st.characters(min_codepoint=0x21, max_codepoint=0xFF), min_size=1, max_size=6
)
word = st.one_of(
    st.sampled_from(["GET", "POST", "HEAD", "get", "/", "/v1/plan", "//a//b", "*",
                     "/healthz?x=1", "///"]),
    st.sampled_from(VERSIONS),
    latin1_word,
)
gap = st.sampled_from([" ", " ", "  ", "\t"])


@st.composite
def request_lines(draw) -> bytes:
    if draw(st.booleans()):  # well-formed, so that the field block is read
        words = [draw(st.sampled_from(["GET", "POST"])),
                 draw(st.sampled_from(["/healthz", "//v1//plan", "*"])),
                 draw(st.sampled_from(VERSIONS[:3]))]
    else:
        words = [draw(word) for _ in range(draw(st.integers(0, 4)))]
        if len(words) >= 3 and draw(st.booleans()):
            words[-1] = draw(st.sampled_from(VERSIONS))
    line = "".join(w + draw(gap) for w in words).rstrip(" \t") if words else ""
    return line.encode("iso-8859-1") + draw(st.sampled_from([b"\r\n", b"\n"]))


#: Field names the codec accepts: visible ASCII bar the colon.  (An empty name
#: or one with a blank, a line with no colon, a continuation line, a bare CR
#: and disagreeing Content-Lengths are refused — pinned in (b) below.)
name_chars = st.characters(min_codepoint=0x21, max_codepoint=0x7E, exclude_characters=":")
field_name = st.one_of(
    st.sampled_from(["Connection", "Expect", "X-Repro-Trace", "Host", "Accept",
                     "connection", "EXPECT", "x-a", "X-A", "X-a"]),
    st.text(name_chars, min_size=1, max_size=8),
)
blanks = st.text(st.sampled_from(" \t"), max_size=3)
field_value = st.one_of(
    st.sampled_from(["close", "keep-alive", "Close", "KEEP-ALIVE", "upgrade",
                     "100-continue", "100-Continue", "", "abc-123"]),
    st.text(st.characters(max_codepoint=0xFF, exclude_characters="\r\n"), max_size=12),
)
line_end = st.sampled_from([b"\r\n", b"\r\n", b"\n"])


@st.composite
def field_lines(draw) -> "list[tuple[str, bytes]]":
    """``(name, line)`` per field; lines past the head's end are never read."""
    fields = []
    for _ in range(draw(st.integers(0, 6))):
        name = draw(field_name)
        value = draw(blanks) + draw(field_value) + draw(blanks)
        line = f"{name}:{value}".encode("iso-8859-1") + draw(line_end)
        fields.append((name, line))
    # Now and then as many lines as the limit, one or two either side.
    total = draw(st.sampled_from([0] * 15 + [98, 99, 100, 101, 110]))
    fields += [("X-Pad", b"x-pad: p\r\n")] * (total - len(fields))
    if fields and draw(st.integers(0, 19)) == 0:
        index = draw(st.integers(0, len(fields) - 1))
        name, line = fields[index]
        fields[index] = (name, line[:-2] + b"v" * 65537 + b"\r\n")
    return fields


@st.composite
def request_heads(draw):
    fields = draw(field_lines())
    end = draw(st.sampled_from([b"\r\n", b"\r\n", b"\n", b""]))
    raw = draw(request_lines()) + b"".join(line for _, line in fields) + end
    if end:
        raw += draw(st.binary(max_size=8))  # a body: must stay unread
    return raw, [name for name, _ in fields]


def parse(cls, raw: bytes):
    handler = offline(cls, raw)
    handler.raw_requestline = handler.rfile.readline(65537)
    with mock.patch("time.time", return_value=PINNED):
        returned = handler.parse_request()
    return handler, returned


def assert_same_parse(raw: bytes, names=()):
    ours, ours_returned = parse(GatewayRequestHandler, raw)
    theirs, theirs_returned = parse(StdlibHead, raw)
    assert ours_returned is theirs_returned
    for attribute in ("command", "path", "request_version", "requestline",
                      "close_connection"):
        assert getattr(ours, attribute, None) == getattr(theirs, attribute, None), attribute
    # Any error reply (or a 100 Continue): status, phrase, fields and body.
    assert ours.wfile.getvalue() == theirs.wfile.getvalue()
    # The body starts where the stdlib says it does.
    assert ours.rfile.tell() == theirs.rfile.tell()
    if ours_returned:
        for name in {*names, "Connection", "Expect", "Content-Length", "Missing"}:
            for spelling in (name, name.lower(), name.upper(), name.swapcase()):
                assert ours.headers.get(spelling) == theirs.headers.get(spelling), spelling
        assert ours.headers.get("Missing", "fallback") == "fallback"


def head(request_line: str, *fields: str) -> bytes:
    return "".join(line + "\r\n" for line in (request_line, *fields, "")).encode(
        "iso-8859-1"
    )


class TestDifferentialAgainstTheStdlibParser:
    @settings(
        max_examples=400, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(request_heads())
    # One example per rule a wrong codec is most likely to break.
    @example((head("GET / HTTP/1.1", "X-A: first", "x-a: second", "X-A: third"), ["X-A"]))
    @example((head("GET / HTTP/1.0"), []))
    @example((head("GET / HTTP/1.0", "Connection: Keep-Alive"), []))
    @example((head("GET / HTTP/1.1", "connection: CLOSE"), []))
    @example((head("GET / HTTP/1.1", "Connection: close "), []))
    @example((head("GET / HTTP/1.1", *["X-%d: v" % i for i in range(99)]), ["X-98"]))
    @example((head("GET / HTTP/1.1", *["X-%d: v" % i for i in range(100)]), []))
    @example((head("GET / HTTP/1.1", "X-Long: " + "v" * 65526), ["X-Long"]))
    @example((head("GET / HTTP/1.1", "X-Long: " + "v" * 65527), []))
    @example((head("POST / HTTP/1.1", "Expect: 100-Continue") + b"body", []))
    @example((head("POST / HTTP/1.0", "Expect: 100-continue") + b"body", []))
    @example((head("GET /"), []))
    @example((head("POST /"), []))
    @example((head("GET //a//b HTTP/1.1"), []))
    @example((head("GET / HTTP/2.0"), []))
    @example((head("GET / HTTP/1.12345678901"), []))
    @example((head("GET / extra HTTP/1.1"), []))
    @example((head("GET"), []))
    @example((head(""), []))
    @example((b"GET / HTTP/1.1\nX-A:\t one \nX-B:\n\nbody", ["X-A", "X-B"]))
    @example((b"GET / HTTP/1.1\r\nX-A: caf\xe9\x00\x0b\x85\xa0\r\n", ["X-A"]))
    def test_every_outcome_matches(self, generated):
        raw, names = generated
        assert_same_parse(raw, names)

    def test_the_email_package_is_not_on_the_request_path(self):
        handler, returned = parse(
            GatewayRequestHandler, head("GET / HTTP/1.1", "Host: x", "Accept: */*")
        )
        assert returned is True
        assert type(handler.headers).__module__ == handlers.__name__


# ---------------------------------------------------------------------- #
# (b) over a real socket: refused field lines and Content-Length spellings
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def gateway():
    service = PlannerService(planner=RandomPlanner(seed=0))
    server = PlanningServer(service, profile=False).start()
    yield server
    server.close()
    service.close()


def split_replies(data: bytes) -> "list[tuple[int, dict, bytes]]":
    """``(status, fields, body)`` per reply in ``data``, by Content-Length."""
    replies = []
    while data:
        raw_head, separator, data = data.partition(b"\r\n\r\n")
        assert separator, raw_head
        status_line, *lines = raw_head.decode("iso-8859-1").split("\r\n")
        fields = dict(line.split(": ", 1) for line in lines)
        length = int(fields["Content-Length"])
        assert len(data) >= length, "a reply body was cut short"
        replies.append((int(status_line.split()[1]), fields, data[:length]))
        data = data[length:]
    return replies


def raw_exchange(gateway, data: bytes, patience: float = 3.0):
    """Send ``data``; return ``(replies, closed)``.

    Reads until the gateway closes the connection; ``closed`` is False when
    it was still open ``patience`` seconds after the last byte.
    """
    received = b""
    with socket.create_connection(("127.0.0.1", gateway.port), timeout=patience) as sock:
        sock.sendall(data)
        closed = False
        try:
            while chunk := sock.recv(65536):
                received += chunk
            closed = True
        except socket.timeout:
            pass
    return split_replies(received), closed


PLAN_BODY = json.dumps(
    {"query": query_to_json_dict(make_three_table_query()), "k": 1}
).encode("utf-8")
#: A request smuggled as the body of another: answered iff the gateway
#: lost track of where the first request's body ends.
SMUGGLED = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"


class TestRefusedFieldLines:
    @pytest.mark.parametrize(
        "bad_lines",
        [
            pytest.param(b"X-A: 1\r\n folded\r\n", id="obs-fold"),
            pytest.param(b"\tfirst line folded\r\n", id="obs-fold-first"),
            pytest.param(b"no colon here\r\n", id="no-colon"),
            pytest.param(b": value\r\n", id="empty-name"),
            pytest.param(b"Content-Length : 0\r\n", id="blank-before-colon"),
            pytest.param(b"X A: 1\r\n", id="blank-in-name"),
            pytest.param(b"X-\xe9: 1\r\n", id="non-ascii-name"),
            pytest.param(b"X-A: 1\rX-B: 2\r\n", id="bare-cr"),
            pytest.param(b"Content-Length: 0\r\n", id="content-lengths-differ"),
        ],
    )
    def test_400_and_the_connection_closes(self, gateway, bad_lines):
        # At the parent the stdlib mapping drops or never sees the real
        # Content-Length, the body stays unread, and it is answered as a
        # second request.
        request = (
            b"POST /v1/models/rollback HTTP/1.1\r\nHost: x\r\n" + bad_lines
            + b"Content-Length: %d\r\n\r\n" % len(SMUGGLED) + SMUGGLED
        )
        replies, closed = raw_exchange(gateway, request)
        assert [status for status, _, _ in replies] == [400]
        assert replies[0][1]["Connection"] == "close"
        assert closed

    def test_equal_content_lengths_are_one_content_length(self, gateway):
        request = (
            b"POST /v1/plan HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
            + b"Content-Length: %d\r\n" % len(PLAN_BODY) * 2 + b"\r\n" + PLAN_BODY
        )
        replies, closed = raw_exchange(gateway, request)
        assert [status for status, _, _ in replies] == [200] and closed


class TestContentLengthSpellings:
    @pytest.mark.parametrize(
        "spelling",
        [
            pytest.param(b"%d_0", id="underscore"),
            pytest.param(b"+%d0", id="plus"),
            pytest.param(b"-%d0", id="minus"),
            pytest.param(b"\xa0%d0", id="nbsp"),
            pytest.param(b"%d0\x0c", id="form-feed"),
            pytest.param(b"%d0.0", id="decimal-point"),
            pytest.param(b"0x%d0", id="hex"),
            # Arabic-Indic digits as UTF-8; a head is read as ISO-8859-1, so
            # int() never saw these as digits — refused before and after.
            pytest.param("\u0661\u0660".encode("utf-8"), id="unicode-digits"),
            pytest.param(b"", id="empty"),
            pytest.param(b"9" * 5000, id="more-digits-than-int-converts"),
        ],
    )
    def test_400_and_the_connection_closes(self, gateway, spelling):
        # A body ten times len(SMUGGLED) // 10 long, so that a length read
        # the int() way covers the smuggled request exactly.
        body = SMUGGLED.ljust(-(-len(SMUGGLED) // 10) * 10)
        if b"%d" in spelling:
            spelling = spelling % (len(body) // 10)
        request = (
            b"POST /v1/models/rollback HTTP/1.1\r\nHost: x\r\nContent-Length: "
            + spelling + b"\r\n\r\n" + body
        )
        replies, closed = raw_exchange(gateway, request)
        assert [status for status, _, _ in replies] == [400]
        assert json.loads(replies[0][2])["kind"] == "bad_request"
        assert closed

    @pytest.mark.parametrize("spelling", [b"00%d", b"%d \t", b"\t %d"])
    def test_leading_zeros_and_blanks_still_read(self, gateway, spelling):
        request = (
            b"POST /v1/plan HTTP/1.1\r\nHost: x\r\nContent-Length: "
            + spelling % len(PLAN_BODY) + b"\r\n\r\n" + PLAN_BODY
            + b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        replies, closed = raw_exchange(gateway, request)
        assert [status for status, _, _ in replies] == [200, 200] and closed
        assert json.loads(replies[0][2])["plans"]
        assert json.loads(replies[1][2])["status"] == "ok"


class TestPipelining:
    def test_two_requests_in_one_write_get_two_framed_replies(self, gateway):
        plan = (
            b"POST /v1/plan HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(PLAN_BODY) + PLAN_BODY
        )
        request = plan + plan.replace(b"Host: x", b"Host: x\r\nConnection: close")
        replies, closed = raw_exchange(gateway, request)
        assert [status for status, _, _ in replies] == [200, 200] and closed
        first, second = (json.loads(body) for _, _, body in replies)
        assert first["plans"] and second["plans"]
        assert "Connection" not in replies[0][1]


# ---------------------------------------------------------------------- #
# (c) reply bytes equal the stdlib sequence's, clock pinned
# ---------------------------------------------------------------------- #
def post(path: str, payload, trace: str = "X-Repro-Trace: fixed-id") -> bytes:
    """A traced POST; a fresh trace id is random, so each names its own."""
    body = json.dumps(payload).encode("utf-8")
    return head(f"POST {path} HTTP/1.1", "Host: x", trace,
                f"Content-Length: {len(body)}") + body


REPLIES = {
    "200 traced hit": (post("/v1/plan", {"query": "q1"}), None),
    "400 route answer": (post("/v1/plan", {"k": 1}), None),
    "400 unread body, close": (
        head("POST /v1/plan HTTP/1.1", "Content-Length: 1_0") + b"0123456789", None),
    "sharded worker, adopted trace": (
        post("/v1/plan", {"query": "q1"}, "x-repro-trace: abc-123"), 3),
    "sharded worker, 404": (head("GET /nowhere HTTP/1.1"), 3),
    "send_error 501": (head("BREW /pot HTTP/1.1"), 3),
    "send_error 400, request line": (head("GET / HTTP/1.1.1"), None),
    "send_error 431": (head("GET / HTTP/1.1", *["X-A: 1"] * 100), None),
    "send_error 414": (head("GET /" + "a" * 65536 + " HTTP/1.1"), None),
    "GET /metrics": (head("GET /metrics HTTP/1.1"), None),
    "SSE head and first event": (
        head("GET /v1/metrics/stream?max_events=1 HTTP/1.1"), 3),
    "HTTP/1.0 client": (head("GET /healthz HTTP/1.0"), None),
    "HTTP/0.9 gets the body alone": (head("GET /healthz"), 3),
    "keep-alive: trace id not echoed on the next reply": (
        post("/v1/plan", {"query": "q1"}) + head("GET /healthz HTTP/1.1")
        + head("GET /healthz HTTP/1.1", "Connection: close"), None),
}


class TestReplyBytes:
    @pytest.mark.parametrize("name", REPLIES)
    def test_equal_to_the_stdlib_sequence(self, name):
        raw, worker_id = REPLIES[name]
        ours, ours_bytes = served_bytes(GatewayRequestHandler, raw, StubGateway(worker_id))
        theirs, theirs_bytes = served_bytes(StdlibHead, raw, StubGateway(worker_id))
        assert ours_bytes == theirs_bytes
        assert ours.close_connection is theirs.close_connection is True
        assert ours.gateway.counted == theirs.gateway.counted
        # (A request line in error is answered as HTTP/0.9 is: no head.)
        if ours_bytes.startswith(b"HTTP/1.1 "):
            assert b"Date: Tue, 14 Nov 2023 22:13:20 GMT\r\n" in ours_bytes
            assert (b"X-Repro-Worker: 3\r\n" in ours_bytes) is (worker_id == 3)

    def test_the_adopted_trace_id_is_echoed(self):
        raw, worker_id = REPLIES["sharded worker, adopted trace"]
        _, reply = served_bytes(GatewayRequestHandler, raw, StubGateway(worker_id))
        (status, fields, _), = split_replies(reply)
        assert status == 200 and fields["X-Repro-Trace"] == "abc-123"
        assert list(fields) == ["Server", "Date", "X-Repro-Worker", "X-Repro-Trace",
                                "Content-Type", "Content-Length"]

    def test_the_date_changes_with_the_second_and_not_before(self):
        formatted = []
        real = handlers.formatdate

        def counting(*args, **kwargs):
            formatted.append(args[0])
            return real(*args, **kwargs)

        def date_at(now: float) -> str:
            handler = offline(GatewayRequestHandler, head("GET /healthz HTTP/1.1"))
            with mock.patch("time.time", return_value=now):
                handler.handle_one_request()
            (_, fields, _), = split_replies(handler.wfile.getvalue())
            return fields["Date"]

        with mock.patch.object(handlers, "formatdate", counting):
            assert date_at(PINNED + 10.0) == "Tue, 14 Nov 2023 22:13:30 GMT"
            assert date_at(PINNED + 10.5) == "Tue, 14 Nov 2023 22:13:30 GMT"
            assert date_at(PINNED + 10.74) == "Tue, 14 Nov 2023 22:13:30 GMT"
            assert len(formatted) == 1
            assert date_at(PINNED + 10.75) == "Tue, 14 Nov 2023 22:13:31 GMT"
            assert date_at(PINNED + 3600) == "Tue, 14 Nov 2023 23:13:20 GMT"
            assert len(formatted) == 3
        assert time.time() > PINNED  # the clock is back
