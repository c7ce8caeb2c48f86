"""The experience sink: record live-traffic observations off the hot path.

:class:`ExperienceSink` is the request-path half of the online-learning loop
(paper §4: plan → execute → observe → retrain).  The gateway calls
:meth:`ExperienceSink.record` with what it just served — the query, the chosen
plan and the model's predicted cost — and the call is nothing but a lock
acquire and a bounded-deque append:

- **never blocks**: a slow or stalled consumer fills the queue, after which
  new observations evict the oldest (and are counted as drops) instead of
  waiting;
- **never raises**: any failure is swallowed and counted, because a learning
  subsystem must not fail a foreground request;
- **self-auditing**: every call is timed, and a call that exceeds
  :data:`STALL_THRESHOLD_SECONDS` increments a ``stalls`` counter — the
  acceptance metric the online-learning soak holds at zero.

The expensive parts — computing the simulated-executed cost under the
yardstick, dedup, training — happen on the consumer side
(:class:`~repro.experience.loop.OnlineTrainerLoop`), which calls
:meth:`drain`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.experience.replay import ExperienceTuple

#: Observe calls slower than this are counted as request-path stalls.  The
#: budget is generous — an uncontended lock + deque append is microseconds —
#: so a nonzero counter means something actually blocked the hot path.
STALL_THRESHOLD_SECONDS = 0.05

#: Queue bound; when full, the oldest observation is evicted (and counted)
#: so the newest traffic is what training sees.
CAPACITY = 1024


@dataclass
class SinkStats:
    """Counters describing the request-path sink.

    Attributes:
        recorded: Observations accepted into the queue.
        dropped: Oldest observations evicted because the queue was full (the
            backpressure policy: drop history, never block the request).
        errors: ``record`` calls that failed internally (swallowed).
        depth: Observations currently queued awaiting the consumer.
        capacity: Queue bound.
        stalls: ``record`` calls that exceeded the stall threshold.
        max_record_seconds: Slowest ``record`` call seen (the watermark the
            stall counter is judged against).
    """

    recorded: int = 0
    dropped: int = 0
    errors: int = 0
    depth: int = 0
    capacity: int = 0
    stalls: int = 0
    max_record_seconds: float = 0.0

    def to_json_dict(self) -> dict:
        """JSON-safe dict form (all fields are JSON-native)."""
        return asdict(self)


class ExperienceSink:
    """A bounded, drop-counting queue between the request path and training.

    It holds :data:`CAPACITY` observations and counts a ``record`` slower
    than :data:`STALL_THRESHOLD_SECONDS` as a stall.
    """

    def __init__(self):
        self._queue: deque["ExperienceTuple"] = deque(maxlen=CAPACITY)
        self._lock = threading.Lock()
        self._recorded = 0
        self._dropped = 0
        self._errors = 0
        self._stalls = 0
        self._max_record_seconds = 0.0

    # ------------------------------------------------------------------ #
    # Request-path half
    # ------------------------------------------------------------------ #
    def record(self, observation: "ExperienceTuple") -> bool:
        """Queue one observation (never blocks, never raises).

        Returns True when the observation was queued without evicting
        anything, False when it displaced the oldest entry (queue full) or
        failed outright.
        """
        started = time.perf_counter()
        accepted = False
        evicted = False
        try:
            with self._lock:
                evicted = len(self._queue) == self._queue.maxlen
                self._queue.append(observation)
                self._recorded += 1
                if evicted:
                    self._dropped += 1
            accepted = not evicted
        except Exception:  # noqa: BLE001 - the hot path must not fail
            with self._lock:
                self._errors += 1
        finally:
            elapsed = time.perf_counter() - started
            with self._lock:
                if elapsed > self._max_record_seconds:
                    self._max_record_seconds = elapsed
                if elapsed > STALL_THRESHOLD_SECONDS:
                    self._stalls += 1
        return accepted

    # ------------------------------------------------------------------ #
    # Consumer half
    # ------------------------------------------------------------------ #
    def drain(self, max_items: int | None = None) -> list["ExperienceTuple"]:
        """Pop up to ``max_items`` queued observations (oldest first)."""
        with self._lock:
            count = len(self._queue) if max_items is None else min(
                max_items, len(self._queue)
            )
            return [self._queue.popleft() for _ in range(count)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._queue)

    def stats(self) -> SinkStats:
        """A snapshot of the sink counters."""
        with self._lock:
            return SinkStats(
                recorded=self._recorded,
                dropped=self._dropped,
                errors=self._errors,
                depth=len(self._queue),
                capacity=self._queue.maxlen,
                stalls=self._stalls,
                max_record_seconds=self._max_record_seconds,
            )
