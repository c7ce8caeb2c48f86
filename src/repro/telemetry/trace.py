"""Request tracing: trace ids, flat span records, and the per-process trace ring.

One :class:`Trace` covers one gateway request end to end.  It holds one flat
list of :class:`Span` records; each record names its parent by index, and
record 0, the root, is the trace's own first clock read.  The tree exists
only when a trace is read: :meth:`Trace.to_json_dict` builds it.

The trace itself is carried in a :class:`contextvars.ContextVar`, set once
per request by :func:`start_trace`, so instrumentation deep inside the stack
(admission, cache lookup, beam search, scoring batches) attaches spans to
whatever request is running *without* threading a handle through every call
signature.  Nesting is the trace's open-span index: a :func:`span` scope
keeps the index it found on entry as its record's parent and puts it back
on exit, exception or not.  Two facts make the tree complete and lock-free:

- **Within a process** a request is served on one thread: the gateway
  thread that opened the trace runs admission, cache lookup, search and
  scoring itself (``PlannerService.plan``), so every span finds the context
  variable already set, and only that thread appends to the trace.
- **Across processes** only the 16-hex-char ``trace_id`` travels (an HTTP
  header, a field in the scoring wire payload, a wrapper frame on the
  shared-cache socket).  The remote side measures its own duration and ships
  it back in the reply; the caller, on the request's thread, *grafts* the
  remote span into the trace with :func:`add_span`, labelled with the
  remote process name.

A trace enters the ring when its scope exits, and only then can it be read
(``GET /v1/traces``), so readers never see a trace still growing.

Everything is a cheap no-op when tracing is disabled (``REPRO_TELEMETRY=0``
or :func:`set_enabled`) or when no trace is active: :func:`start_trace` and
:func:`span` then hand back one shared do-nothing scope, whose ``with``
yields ``None`` — the service layer can be instrumented unconditionally and
pay nothing on untraced paths.  Traced, ``with`` yields the :class:`Trace` /
:class:`Span`, which is its own scope.

Trace ids come from one per-process pseudo-random generator, seeded from
``os.urandom`` at import: one syscall per process, not one per request.  A
forked child re-seeds it (``os.register_at_fork``), so pre-forked gateway
workers never hand out the same id sequence; spawned processes import
afresh and seed their own.  Ids are correlation handles, not secrets.
"""

from __future__ import annotations

import contextvars
import os
import random
import threading
import time
from collections import deque

#: Recent completed traces retained per process.
RING_SIZE = 256

#: Worst-duration traces retained in the slow-request log.
SLOW_LOG_SIZE = 16

#: Longest accepted inbound trace id (anything longer is replaced, so a
#: hostile ``X-Repro-Trace`` header cannot bloat the ring).
MAX_TRACE_ID_CHARS = 64

_enabled = os.environ.get("REPRO_TELEMETRY", "1") != "0"
_clock = time.perf_counter


def enabled() -> bool:
    """Whether tracing is on for this process."""
    return _enabled


def set_enabled(flag: bool) -> None:
    """Process-wide tracing kill switch (also: env ``REPRO_TELEMETRY=0``)."""
    global _enabled
    _enabled = bool(flag)


#: Where trace ids come from; re-seeded in every forked child.
_ids = random.Random(os.urandom(16))
os.register_at_fork(after_in_child=lambda: _ids.seed(os.urandom(16)))


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id."""
    return _ids.getrandbits(64).to_bytes(8, "big").hex()


def valid_trace_id(value: object) -> bool:
    """Whether ``value`` is usable as an inbound trace id."""
    return (
        isinstance(value, str)
        and 0 < len(value) <= MAX_TRACE_ID_CHARS
        and all(ch.isalnum() or ch in "-_" for ch in value)
    )


class Span:
    """One timed stage of a trace: a record in its trace's flat list.

    ``parent`` is the index of the enclosing record (-1 for the root) and
    ``started`` an absolute ``perf_counter`` reading, so a record refers to
    no other object and a trace is never a reference cycle.  A record
    opened by :func:`span` is its own ``with`` scope: it keeps the
    annotation dict :func:`span` built, joins the active trace on entry and
    closes on exit.
    """

    __slots__ = ("name", "parent", "process", "started", "duration_seconds", "annotations")

    def __init__(self, name: str, annotations: dict, process: str | None = None):
        self.name = name
        self.annotations = annotations
        self.process = process
        self.duration_seconds = 0.0

    def __enter__(self) -> Span:
        trace = _current.get()
        spans = trace.spans
        self.parent = trace.open_index
        trace.open_index = len(spans)
        spans.append(self)
        self.started = _clock()
        return self

    def __exit__(self, *exc_info) -> None:
        self.duration_seconds = _clock() - self.started
        _current.get().open_index = self.parent

    def annotate(self, **fields) -> None:
        self.annotations.update(fields)


class Trace:
    """One request's spans, identified by a ``trace_id``; its own scope.

    ``root`` (``spans[0]``) is named after the request path and timed by the
    trace's own clock reads; ``open_index`` is the record new spans and
    grafts nest under.
    """

    __slots__ = ("trace_id", "path", "started_at", "root", "spans", "open_index", "_token")

    def __init__(self, path: str, trace_id: str | None = None):
        self.trace_id = trace_id if valid_trace_id(trace_id) else new_trace_id()
        self.path = path
        self.started_at = time.time()
        root = self.root = Span(path, {})
        root.parent = -1
        root.started = _clock()
        self.spans = [root]
        self.open_index = 0

    @property
    def duration_seconds(self) -> float:
        return self.root.duration_seconds

    def finish(self) -> None:
        root = self.root
        root.duration_seconds = _clock() - root.started

    def annotate(self, **fields) -> None:
        self.root.annotations.update(fields)

    def __enter__(self) -> Trace:
        self._token = _current.set(self)
        return self

    def __exit__(self, *exc_info) -> None:
        self.finish()
        _current.reset(self._token)
        # The token holds the thread's context, which the next request on
        # this thread points at its own trace: a recorded trace drops it.
        self._token = None
        _tracer.record(self)

    def to_json_dict(self) -> dict:
        t0 = self.root.started
        nodes: list[dict] = []
        for record in self.spans:
            node: dict = {
                "name": record.name,
                "start_ms": round((record.started - t0) * 1e3, 4),
                "duration_ms": round(record.duration_seconds * 1e3, 4),
            }
            if record.process is not None:
                node["process"] = record.process
            if record.annotations:
                node["annotations"] = dict(record.annotations)
            if record.parent >= 0:  # parents precede their children
                nodes[record.parent].setdefault("spans", []).append(node)
            nodes.append(node)
        return {
            "trace_id": self.trace_id,
            "path": self.path,
            "started_at": self.started_at,
            "duration_ms": nodes[0]["duration_ms"],
            "root": nodes[0],
        }


#: The trace the current execution context serves (None → not traced).
_current: contextvars.ContextVar[Trace | None] = contextvars.ContextVar(
    "repro_active_trace", default=None
)


class Tracer:
    """Bounded ring of completed traces plus a worst-N slow-request log."""

    def __init__(self):
        self._lock = threading.Lock()
        self._ring: deque[Trace] = deque(maxlen=RING_SIZE)
        self._slow: list[Trace] = []  # kept sorted, worst first
        self._recorded = 0

    def record(self, trace: Trace) -> None:
        duration = trace.root.duration_seconds
        with self._lock:
            self._recorded += 1
            self._ring.append(trace)
            # Most traces are faster than everything in a full slow log and
            # would sort to the end and be cut again (a tie too: the stable
            # sort keeps the older trace ahead), so they skip it.
            slow = self._slow
            if len(slow) < SLOW_LOG_SIZE or (
                slow and duration > slow[-1].duration_seconds
            ):
                slow.append(trace)
                slow.sort(key=lambda t: t.duration_seconds, reverse=True)
                del slow[SLOW_LOG_SIZE:]

    def recent(self, limit: int | None = None) -> list[Trace]:
        """Completed traces, newest first."""
        with self._lock:
            traces = list(reversed(self._ring))
        return traces if limit is None else traces[:limit]

    def slowest(self) -> list[Trace]:
        """The worst-duration traces seen, worst first."""
        with self._lock:
            return list(self._slow)

    def find(self, trace_id: str) -> Trace | None:
        """Resolve a trace id from the ring or the slow log.

        The slow log outlives ring eviction for the worst traces, which is
        exactly the set an alert annotation or JSON log line points at.
        """
        with self._lock:
            for trace in reversed(self._ring):
                if trace.trace_id == trace_id:
                    return trace
            for trace in self._slow:
                if trace.trace_id == trace_id:
                    return trace
        return None

    def to_json_dict(self, limit: int = 50) -> dict:
        return {
            "recorded": self._recorded,
            "ring_size": self._ring.maxlen,
            "traces": [trace.to_json_dict() for trace in self.recent(limit)],
            "slowest": [trace.to_json_dict() for trace in self.slowest()],
        }


_tracer = Tracer()


def get_tracer() -> Tracer:
    """The per-process trace ring (scorer processes get their own)."""
    return _tracer


# ---------------------------------------------------------------------- #
# Instrumentation API
# ---------------------------------------------------------------------- #
class _Untraced:
    """The scope :func:`start_trace` and :func:`span` hand out when there is
    nothing to record: ``with`` yields None."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        return None


_UNTRACED = _Untraced()


def start_trace(path: str, trace_id: str | None = None) -> Trace | _Untraced:
    """``with start_trace(path, trace_id=None) as trace``: one request's trace.

    ``trace`` is the open :class:`Trace` (an inbound ``trace_id`` is adopted
    when :func:`valid_trace_id`), recorded into the ring when the scope
    exits; it is None, and costs nothing downstream, when tracing is off.
    """
    return Trace(path, trace_id) if _enabled else _UNTRACED


def span(name: str, **annotations) -> Span | _Untraced:
    """``with span(name, **annotations) as child``: a child of the open span.

    ``child`` is the open :class:`Span`, closed when the scope exits; it is
    None, and nothing is recorded, when no trace is active.
    """
    if _current.get() is None:
        return _UNTRACED
    return Span(name, annotations)


def add_span(
    name: str, seconds: float, process: str | None = None, **annotations
) -> None:
    """Graft a remotely-measured span under the open span (no-op untraced)."""
    trace = _current.get()
    if trace is None:
        return
    record = Span(name, annotations, process)
    record.parent = trace.open_index
    # The remote side measured its own duration; back-date the start so the
    # graft renders inside the enclosing client-side span.
    record.started = max(_clock() - seconds, trace.root.started)
    record.duration_seconds = float(seconds)
    trace.spans.append(record)


def current_trace_id() -> str | None:
    """The active request's trace id, if any."""
    trace = _current.get()
    return None if trace is None else trace.trace_id
