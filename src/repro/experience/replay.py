"""The replay buffer: dedup, reservoir sampling, recency-weighted draws.

Live gateway traffic is wildly repetitive — the same workload queries arrive
over and over, and under a fixed model the planner keeps choosing the same
plans.  Feeding that stream to the trainer raw would overfit on whatever the
last burst happened to contain.  :class:`ReplayBuffer` turns the stream into
a training set:

- **fingerprint-level dedup**: one entry per ``(query fingerprint, plan
  fingerprint)`` pair; a repeat refreshes the entry's recency and
  executed-cost observation instead of growing the buffer;
- **reservoir sampling under a cap**: once the buffer is full, a *new*
  fingerprint replaces a uniformly random resident with probability
  ``capacity / tuples_seen`` (classic Algorithm R), so the buffer stays an
  unbiased sample of everything ever observed while bounding memory;
- **recency-weighted draws**: :meth:`sample` weights entries by
  ``0.5 ** (age / half_life)`` where age is measured in insertions, so
  training leans toward what the workload looks like *now* without ever
  fully forgetting the tail (Balsa keeps its whole ``D_real`` for label
  correction; the serving analogue cannot, so it biases instead).
"""

from __future__ import annotations

import random
import threading
from dataclasses import asdict, dataclass, replace

from repro.plans.nodes import PlanNode
from repro.sql.query import Query


@dataclass(frozen=True)
class ExperienceTuple:
    """One observed serving decision, ready to become training experience.

    Attributes:
        query: The planned query.
        plan: The plan the gateway served for it.
        predicted_cost: What the serving model predicted for the plan.
        executed_cost: The simulated-executed cost under the shared yardstick
            (None until the consumer computes it — the request path never
            runs the yardstick).
        planner_id: Registry identity of the planner that chose the plan.
        model_version: Version key of the model that served the request
            (stringified; version keys are tuples).
        created_at: ``time.time()`` when the observation was made.
    """

    query: Query
    plan: PlanNode
    predicted_cost: float
    executed_cost: float | None = None
    planner_id: str = ""
    model_version: str = ""
    created_at: float = 0.0

    def fingerprint(self) -> tuple[str, str]:
        """The dedup identity: (query fingerprint, plan fingerprint)."""
        return (self.query.fingerprint(), self.plan.fingerprint())


@dataclass
class ReplayBufferStats:
    """Counters describing the replay buffer.

    Attributes:
        size: Distinct (query, plan) entries currently held.
        capacity: Maximum entries.
        seen: Tuples ever offered to :meth:`ReplayBuffer.add`.
        duplicates: Offers that refreshed an existing fingerprint.
        reservoir_replacements: Full-buffer offers that displaced a resident.
        reservoir_skips: Full-buffer offers the reservoir declined.
    """

    size: int = 0
    capacity: int = 0
    seen: int = 0
    duplicates: int = 0
    reservoir_replacements: int = 0
    reservoir_skips: int = 0

    def to_json_dict(self) -> dict:
        """JSON-safe dict form (all fields are JSON-native)."""
        return asdict(self)


@dataclass
class _Entry:
    tuple: ExperienceTuple
    seq: int = 0
    hits: int = 1


class ReplayBuffer:
    """Deduplicating, capacity-bounded, recency-aware experience store.

    Args:
        capacity: Maximum distinct entries (reservoir sampling beyond it).
        recency_half_life: Sampling half-life measured in insertions: an
            entry ``recency_half_life`` insertions older than the newest has
            half its draw weight.
        seed: Seed for the reservoir and sampling RNG (deterministic tests).
    """

    def __init__(
        self,
        capacity: int = 2048,
        recency_half_life: float = 256.0,
        seed: int = 0,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if recency_half_life <= 0:
            raise ValueError("recency_half_life must be positive")
        self.capacity = capacity
        self.recency_half_life = recency_half_life
        self._rng = random.Random(seed)
        self._entries: dict[tuple[str, str], _Entry] = {}
        self._order: list[tuple[str, str]] = []  # slot list for reservoir swaps
        self._lock = threading.Lock()
        self._seq = 0
        self._seen = 0
        self._duplicates = 0
        self._replacements = 0
        self._skips = 0

    # ------------------------------------------------------------------ #
    # Adding experience
    # ------------------------------------------------------------------ #
    def add(self, item: ExperienceTuple) -> bool:
        """Offer one tuple; returns True when it is (still) resident.

        A known fingerprint refreshes the existing entry (recency, executed
        cost, hit count).  A new fingerprint is inserted directly while there
        is room, and competes in the reservoir once the buffer is full.
        """
        key = item.fingerprint()
        with self._lock:
            self._seen += 1
            self._seq += 1
            entry = self._entries.get(key)
            if entry is not None:
                self._duplicates += 1
                entry.tuple = item
                entry.seq = self._seq
                entry.hits += 1
                return True
            if len(self._entries) < self.capacity:
                self._insert_locked(key, item)
                return True
            # Reservoir (Algorithm R): keep each ever-seen fingerprint
            # resident with probability capacity / seen.
            if self._rng.random() >= self.capacity / self._seen:
                self._skips += 1
                return False
            victim_slot = self._rng.randrange(len(self._order))
            victim_key = self._order[victim_slot]
            del self._entries[victim_key]
            self._order[victim_slot] = key
            self._entries[key] = _Entry(tuple=item, seq=self._seq)
            self._replacements += 1
            return True

    def _insert_locked(self, key: tuple[str, str], item: ExperienceTuple) -> None:
        self._entries[key] = _Entry(tuple=item, seq=self._seq)
        self._order.append(key)

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def sample(self, k: int) -> list[ExperienceTuple]:
        """Draw up to ``k`` distinct tuples, recency-weighted.

        Weights decay by ``0.5 ** (age / recency_half_life)`` with age in
        insertions since the entry was last touched, so fresh traffic
        dominates while old fingerprints still surface occasionally.
        """
        if k < 1:
            return []
        with self._lock:
            entries = list(self._entries.values())
            newest = self._seq
            if not entries:
                return []
            weights = [
                0.5 ** ((newest - entry.seq) / self.recency_half_life)
                for entry in entries
            ]
            if k >= len(entries):
                return [entry.tuple for entry in entries]
            # Weighted sampling without replacement via exponential keys
            # (Efraimidis–Spirakis): higher weight → larger key.
            keyed = sorted(
                (
                    (self._rng.random() ** (1.0 / max(weight, 1e-12)), entry)
                    for weight, entry in zip(weights, entries)
                ),
                key=lambda pair: pair[0],
                reverse=True,
            )
            return [entry.tuple for _, entry in keyed[:k]]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> ReplayBufferStats:
        """A snapshot of the buffer counters."""
        with self._lock:
            return ReplayBufferStats(
                size=len(self._entries),
                capacity=self.capacity,
                seen=self._seen,
                duplicates=self._duplicates,
                reservoir_replacements=self._replacements,
                reservoir_skips=self._skips,
            )


def with_executed_cost(item: ExperienceTuple, executed_cost: float) -> ExperienceTuple:
    """A copy of ``item`` carrying its simulated-executed cost."""
    return replace(item, executed_cost=float(executed_cost))
