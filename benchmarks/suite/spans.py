"""Spans recorded by the suite around calls into each layer of ``src/repro``.

Nothing under ``src/`` knows about this module: the workloads wrap public
callables (``planner.search``, ``service.plan``, ``network.forward``, ...) on
the *instances* they build, and the wrappers record here.  Every workload is
one closed-loop caller, so the calls of one operation hand off synchronously
from thread to thread (client -> HTTP handler -> scoring thread); one shared
stack therefore yields the parent of a span even across threads.

A span's layer is the part of its name before the first dot, and the layers
are the ``src/repro`` packages.  The root span of an operation is named
``op`` and belongs to no layer: its self time is the *unaccounted* row.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator

OP = "op"


class SpanRecorder:
    """In-memory span log: ``[name, start, end, parent, op id]`` rows.

    Spans are only recorded while :attr:`enabled` is set and an operation is
    open, so pass boundaries (metrics scrapes, result checks) never appear.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._next_op = 0
        self._lock = threading.Lock()
        self._origin = time.perf_counter()

    @contextmanager
    def operation(self) -> Iterator[None]:
        """The root span of one operation; yields inside the timed call."""
        if not self.enabled:
            yield
            return
        with self._lock:
            self._op = self._next_op
            self._next_op += 1
        try:
            with self.span(OP):
                yield
        finally:
            with self._lock:
                self._op = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled or self._op is None:
            yield
            return
        with self._lock:
            op = self._op
            # The handler thread may close ``server.do_POST`` a moment after
            # the client saw the reply and moved on: only spans of the same
            # operation are parents.
            parent = next(
                (i for i in reversed(self._stack) if self.spans[i][4] == op), None
            )
            index = len(self.spans)
            self.spans.append([name, time.perf_counter() - self._origin, None, parent, op])
            self._stack.append(index)
        try:
            yield
        finally:
            end = time.perf_counter() - self._origin
            with self._lock:
                self.spans[index][2] = end
                self._stack.remove(index)

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` recorded as a span named ``name`` on every call."""

        @functools.wraps(function)
        def recorded(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            with self.span(name):
                return function(*args, **kwargs)

        return recorded

    def wrap_method(self, target: object, attribute: str, name: str) -> None:
        """Shadow ``target.attribute`` on the instance with a recorded version."""
        setattr(target, attribute, self.wrap(name, getattr(target, attribute)))


class Proxy:
    """Delegates to ``inner``; the listed methods are recorded as spans.

    For collaborators handed to ``src/`` objects at construction (a cache, a
    shared-tier client, a scoring backend), where shadowing an attribute of a
    caller-owned instance is not possible.
    """

    def __init__(self, inner: object, recorder: SpanRecorder, names: dict[str, str]):
        self._inner = inner
        for attribute, name in names.items():
            setattr(self, attribute, recorder.wrap(name, getattr(inner, attribute)))

    def __getattr__(self, attribute: str):
        return getattr(self._inner, attribute)


# ---------------------------------------------------------------------- #
# Reading the log
# ---------------------------------------------------------------------- #
def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def clamped(spans: list[list]) -> list[list]:
    """Finished spans, each cut to the interval of its operation's root.

    The handler thread closes ``server.do_POST`` only when it next holds the
    interpreter lock, which can be long after the client read the reply and
    ended the operation; what a span does after its operation is not part of
    that operation's wall time.
    """
    roots = {row[4]: row for row in spans if row[0] == OP}
    cut = []
    for name, start, end, parent, op in spans:
        root = roots[op]
        end = root[2] if end is None else min(end, root[2])
        cut.append([name, min(start, end), end, parent, op])
    return cut


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its children cover."""
    result = [row[2] - row[1] for row in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            result[parent] -= end - start
    return result


def layer_shares(spans: list[list]) -> dict[str, float]:
    """Layer -> percent of the operations' wall time, plus ``unaccounted``."""
    wall = sum(row[2] - row[1] for row in spans if row[0] == OP)
    if wall <= 0:
        return {"unaccounted": 0.0}
    shares: dict[str, float] = {}
    for row, own in zip(spans, self_times(spans)):
        layer = "unaccounted" if row[0] == OP else layer_of(row[0])
        shares[layer] = shares.get(layer, 0.0) + own
    return {layer: 100.0 * seconds / wall for layer, seconds in shares.items()}


def ranked_layers(shares: dict[str, float]) -> list[str]:
    """The layers of ``shares``, largest share first (no ``unaccounted``)."""
    return sorted(
        (layer for layer in shares if layer != "unaccounted"),
        key=lambda layer: -shares[layer],
    )


def format_share_table(shares: dict[str, float]) -> str:
    """The layer -> share table, largest first, ``unaccounted`` last."""
    lines = [f"  {layer:<16}{shares[layer]:7.2f} %" for layer in ranked_layers(shares)]
    lines.append(f"  {'unaccounted':<16}{shares.get('unaccounted', 0.0):7.2f} %")
    return "\n".join(lines)
