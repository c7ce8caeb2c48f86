"""Online learning from live gateway traffic (the serving-side §4 loop).

Balsa's core loop — plan, execute, observe the real cost, retrain — ran only
inside the offline agent until now.  This package runs it *while serving*:

- :class:`~repro.experience.sink.ExperienceSink` — the request-path recorder:
  a bounded, drop-counting queue the gateway appends one tuple to per served
  plan (never blocks, never raises, audits its own latency);
- :class:`~repro.experience.replay.ReplayBuffer` — fingerprint-dedup +
  reservoir sampling + recency-weighted draws, turning the repetitive live
  stream into a bounded training set;
- :class:`~repro.experience.loop.OnlineTrainerLoop` — the autonomous
  consumer: costs observations under the shared yardstick, replays them, and
  on a cadence/threshold policy runs fine-tune rounds through the existing
  :class:`~repro.lifecycle.manager.ModelLifecycle` (train → shadow gate →
  promote → live-monitor rollback arming);
- :class:`~repro.experience.metrics.ExperienceMetrics` — the counters and
  cost trend served by ``GET /v1/experience`` and the ``experience`` block
  of ``GET /v1/metrics``.
"""

from repro.experience.loop import OnlineTrainerLoop
from repro.experience.metrics import ExperienceMetrics
from repro.experience.replay import (
    ExperienceTuple,
    ReplayBuffer,
    ReplayBufferStats,
    with_executed_cost,
)
from repro.experience.sink import ExperienceSink, SinkStats

__all__ = [
    "ExperienceMetrics",
    "ExperienceSink",
    "ExperienceTuple",
    "OnlineTrainerLoop",
    "ReplayBuffer",
    "ReplayBufferStats",
    "SinkStats",
    "with_executed_cost",
]
