"""Lifecycle event bus: promotions, rollbacks, scorer respawns, worker churn.

A bounded per-process ring with monotonically increasing sequence numbers.
Producers call :func:`emit_event` from wherever the event happens (the
gateway's ops routes, the lifecycle gate, the shadow rollback path, the
scoring pool's respawn) — emission never blocks and never raises into the
caller.  Consumers (the SSE stream, tests) poll with a cursor via
:meth:`EventBus.since`, so several dashboards can tail the same bus without
stealing each other's events.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

#: Events retained per process (a slow dashboard misses old ones, by design).
DEFAULT_CAPACITY = 512


@dataclass(frozen=True)
class Event:
    """One lifecycle occurrence."""

    seq: int
    kind: str
    timestamp: float
    fields: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "timestamp": self.timestamp,
            **self.fields,
        }


class EventBus:
    """Bounded ring of :class:`Event` with cursor-based tailing."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self._lock = threading.Lock()
        self._events: deque[Event] = deque(maxlen=capacity)
        self._seq = 0

    def emit(self, kind: str, **fields) -> Event:
        with self._lock:
            self._seq += 1
            event = Event(
                seq=self._seq, kind=kind, timestamp=time.time(), fields=fields
            )
            self._events.append(event)
        return event

    @property
    def cursor(self) -> int:
        """The latest sequence number (start tailing from here)."""
        return self._seq

    def since(self, cursor: int) -> "tuple[list[Event], int]":
        """Events emitted after ``cursor``, plus the new cursor."""
        with self._lock:
            events = [event for event in self._events if event.seq > cursor]
            return events, self._seq


_bus = EventBus()


def get_event_bus() -> EventBus:
    """The per-process lifecycle event bus."""
    return _bus


def emit_event(kind: str, **fields) -> None:
    """Emit onto the process bus; never raises into the calling path."""
    try:
        _bus.emit(kind, **fields)
    except Exception:  # noqa: BLE001 - telemetry must not fail the caller
        pass
