"""Request tracing: trace ids, span trees, and the per-process trace ring.

One :class:`Trace` covers one gateway request end to end.  The active span is
carried in a :class:`contextvars.ContextVar`, so instrumentation deep inside
the stack (admission, cache lookup, beam search, scoring batches) attaches
spans to whatever request is running *without* threading a handle through
every call signature.  Two facts make the tree complete:

- **Within a process** a request is served on one thread: the gateway
  thread that opened the trace runs admission, cache lookup, search and
  scoring itself (``PlannerService.plan``), so every span finds the context
  variable already set and no context is ever copied to another thread.
- **Across processes** only the 16-hex-char ``trace_id`` travels (an HTTP
  header, a field in the scoring wire payload, a wrapper frame on the
  shared-cache socket).  The remote side measures its own duration and ships
  it back in the reply; the caller *grafts* the remote span into the live
  tree with :func:`add_span`, labelled with the remote process name.

Everything is a cheap no-op when tracing is disabled (``REPRO_TELEMETRY=0``
or :func:`set_enabled`) or when no trace is active — the service layer can
be instrumented unconditionally and pay nothing on untraced paths.

The two scopes, :func:`start_trace` and :func:`span`, are small ``__slots__``
classes with ``__enter__`` / ``__exit__``, not generator context managers:
a warm request opens three of them, so each is kept to a few attribute
stores.  ``with`` yields the :class:`Trace` / :class:`Span`, or ``None``
untraced, and a trace is recorded into the ring when its scope exits,
exception or not.

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

#: Recent completed traces retained per process.
DEFAULT_RING_SIZE = 256

#: Worst-duration traces retained in the slow-request log.
DEFAULT_SLOW_LOG_SIZE = 16

#: Longest accepted inbound trace id (anything longer is replaced, so a
#: hostile ``X-Repro-Trace`` header cannot bloat the ring).
MAX_TRACE_ID_CHARS = 64

_enabled = os.environ.get("REPRO_TELEMETRY", "1") != "0"


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
    return "%016x" % _ids.getrandbits(64)


def valid_trace_id(value: object) -> bool:
    """Whether ``value`` is usable as an inbound trace id."""
    return (
        isinstance(value, str)
        and 0 < len(value) <= MAX_TRACE_ID_CHARS
        and all(ch.isalnum() or ch in "-_" for ch in value)
    )


class Span:
    """One timed stage of a trace; spans nest into a tree.

    A span carries what it reads of its trace — the id, the clock origin and
    the lock — rather than the :class:`Trace`, which holds the root span: a
    reference back would make every traced request a reference cycle.

    Opening one is kept to the stores it needs, since a traced miss opens
    one per scoring batch: it adopts the annotation dict it is handed
    (:func:`span` builds a fresh one per call) instead of copying it, and
    ``children`` stays the empty tuple until a child is added.
    """

    __slots__ = (
        "trace_id", "name", "process", "start_offset", "duration_seconds",
        "annotations", "children", "_started", "_t0", "_lock",
    )

    def __init__(
        self, trace_id: str, t0: float, lock: threading.Lock, name: str,
        process: str | None = None, annotations: dict | None = None,
    ):
        self.trace_id = trace_id
        self.name = name
        self.process = process
        self._t0 = t0
        self._lock = lock
        self._started = time.perf_counter()
        self.start_offset = self._started - t0
        self.duration_seconds = 0.0
        self.annotations: dict = {} if annotations is None else annotations
        self.children: list[Span] | tuple = ()

    def _adopt(self, child: Span) -> None:
        with self._lock:
            if self.children:
                self.children.append(child)
            else:
                self.children = [child]

    def begin_span(
        self, name: str, process: str | None = None, annotations: dict | None = None,
    ) -> Span:
        """Open a child span of this one (it keeps ``annotations`` as its own)."""
        child = Span(self.trace_id, self._t0, self._lock, name, process, annotations)
        self._adopt(child)
        return child

    def graft(
        self, name: str, seconds: float, process: str | None = None, **annotations,
    ) -> Span:
        """Attach an already-measured remote span under this one."""
        child = Span(self.trace_id, self._t0, self._lock, name, process, annotations)
        # The remote side measured its own duration; back-date the offset so
        # the child renders inside the enclosing client-side span.
        child.start_offset = max(child.start_offset - seconds, 0.0)
        child.duration_seconds = float(seconds)
        self._adopt(child)
        return child

    def finish(self) -> None:
        self.duration_seconds = time.perf_counter() - self._started

    def annotate(self, **fields) -> None:
        self.annotations.update(fields)

    def to_json_dict(self) -> dict:
        with self._lock:
            children = list(self.children)
        payload: dict = {
            "name": self.name,
            "start_ms": round(self.start_offset * 1e3, 4),
            "duration_ms": round(self.duration_seconds * 1e3, 4),
        }
        if self.process is not None:
            payload["process"] = self.process
        if self.annotations:
            payload["annotations"] = dict(self.annotations)
        if children:
            payload["spans"] = [child.to_json_dict() for child in children]
        return payload


class Trace:
    """One request's span tree, identified by a ``trace_id``."""

    __slots__ = ("trace_id", "path", "started_at", "root")

    def __init__(self, path: str, trace_id: str | None = None):
        self.trace_id = trace_id if valid_trace_id(trace_id) else new_trace_id()
        self.path = path
        self.started_at = time.time()
        # Any thread holding a span may append a child; the per-trace lock,
        # shared by all its spans, keeps the tree consistent without a
        # global choke.
        self.root = Span(self.trace_id, time.perf_counter(), threading.Lock(), path)

    @property
    def duration_seconds(self) -> float:
        return self.root.duration_seconds

    def finish(self) -> None:
        self.root.finish()

    def annotate(self, **fields) -> None:
        self.root.annotate(**fields)

    def to_json_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "path": self.path,
            "started_at": self.started_at,
            "duration_ms": round(self.duration_seconds * 1e3, 4),
            "root": self.root.to_json_dict(),
        }


#: The span the current execution context is inside (None → not traced).
_current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
    "repro_active_span", default=None
)


class Tracer:
    """Bounded ring of completed traces plus a worst-N slow-request log."""

    def __init__(
        self,
        ring_size: int = DEFAULT_RING_SIZE,
        slow_log_size: int = DEFAULT_SLOW_LOG_SIZE,
    ):
        self.ring_size = ring_size
        self.slow_log_size = slow_log_size
        self._lock = threading.Lock()
        self._ring: list[Trace] = []
        self._slow: list[Trace] = []  # kept sorted, worst first
        self._recorded = 0

    def record(self, trace: Trace) -> None:
        with self._lock:
            self._recorded += 1
            self._ring.append(trace)
            if len(self._ring) > self.ring_size:
                del self._ring[: len(self._ring) - self.ring_size]
            # Most traces are faster than everything in a full slow log and
            # would sort to the end and be cut again (a tie too: the stable
            # sort keeps the older trace ahead), so they skip it.
            slow = self._slow
            if len(slow) < self.slow_log_size or (
                slow and trace.duration_seconds > slow[-1].duration_seconds
            ):
                slow.append(trace)
                slow.sort(key=lambda t: t.duration_seconds, reverse=True)
                del slow[self.slow_log_size :]

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
            "ring_size": self.ring_size,
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
class _TraceScope:
    """``with start_trace(path, trace_id=None) as trace``: one request's trace.

    ``trace`` is the open :class:`Trace` (an inbound ``trace_id`` is adopted
    when :func:`valid_trace_id`), recorded into the ring when the scope
    exits; it is None, and costs nothing downstream, when tracing is off.
    """

    __slots__ = ("_path", "_trace_id", "_trace", "_token")

    def __init__(self, path: str, trace_id: str | None = None):
        self._path = path
        self._trace_id = trace_id

    def __enter__(self) -> Trace | None:
        if not _enabled:
            self._trace = None
            return None
        trace = self._trace = Trace(self._path, trace_id=self._trace_id)
        self._token = _current.set(trace.root)
        return trace

    def __exit__(self, *exc_info) -> None:
        trace = self._trace
        if trace is not None:
            _current.reset(self._token)
            trace.finish()
            _tracer.record(trace)


class _SpanScope:
    """``with span(name, **annotations) as child``: a child of the active span.

    ``child`` is the open :class:`Span`, finished when the scope exits; it is
    None, and nothing is recorded, when no trace is active.
    """

    __slots__ = ("_name", "_annotations", "_span", "_token")

    def __init__(self, name: str, **annotations):
        self._name = name
        self._annotations = annotations

    def __enter__(self) -> Span | None:
        parent = _current.get()
        if parent is None:
            self._span = None
            return None
        child = self._span = parent.begin_span(self._name, annotations=self._annotations)
        self._token = _current.set(child)
        return child

    def __exit__(self, *exc_info) -> None:
        child = self._span
        if child is not None:
            _current.reset(self._token)
            child.finish()


start_trace = _TraceScope
span = _SpanScope


def add_span(
    name: str, seconds: float, process: str | None = None, **annotations
) -> None:
    """Graft a remotely-measured span under the active span (no-op untraced)."""
    parent = _current.get()
    if parent is None:
        return
    parent.graft(name, seconds, process=process, **annotations)


def current_trace_id() -> str | None:
    """The active request's trace id, if any."""
    current = _current.get()
    return None if current is None else current.trace_id
