"""Declarative SLOs with multi-window burn-rate evaluation.

An :class:`SloObjective` names a good-event fraction the service promises
(``objective``) and how to pull cumulative ``(bad, total)`` event counts
out of a :class:`~repro.telemetry.metrics.MetricsRegistry` snapshot.  The
:class:`SloEvaluator` keeps a short timestamped history of those counters
per objective and computes **burn rates** the SRE way:

    ``burn(w) = (Δbad / Δtotal over window w) / (1 - objective)``

A burn rate of 1.0 spends the error budget exactly at the rate the
objective allows; 14.4 exhausts a 30-day budget in 2 days.  An objective
*breaches* only when **both** a fast window (default 5 minutes — catches
the regression quickly) and a slow window (default 1 hour — proves it is
sustained, not a blip) burn above the objective's threshold.  Both
windows scale down uniformly for tests via the evaluator's constructor.

Nothing here knows about alerting or HTTP: the evaluator turns snapshots
into :class:`SloStatus` rows; :mod:`repro.telemetry.alerts` turns those
rows into a state machine and actions.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "SeriesIndex",
    "SloEvaluator",
    "SloObjective",
    "SloStatus",
    "default_slo_objectives",
]

DEFAULT_FAST_WINDOW_SECONDS = 300.0
DEFAULT_SLOW_WINDOW_SECONDS = 3600.0


class SeriesIndex:
    """Read-side helper over one ``MetricsRegistry.snapshot()`` dict.

    Sums matching entries across label sets so extractors do not care how
    many planners or shards contributed a series.
    """

    def __init__(self, snapshot: dict) -> None:
        self._by_name: dict[str, list[dict]] = {}
        for entry in snapshot.get("metrics", []) if isinstance(snapshot, dict) else []:
            name = entry.get("name")
            if isinstance(name, str):
                self._by_name.setdefault(name, []).append(entry)

    def value(
        self,
        name: str,
        label_filter: Callable[[dict], bool] | None = None,
    ) -> float:
        """Summed counter/gauge value across matching label sets."""
        total = 0.0
        for entry in self._by_name.get(name, []):
            if entry.get("kind") not in {"counter", "gauge"}:
                continue
            if label_filter is not None and not label_filter(
                entry.get("labels", {}) or {}
            ):
                continue
            value = entry.get("value", 0.0)
            if isinstance(value, (int, float)):
                total += float(value)
        return total

    def histogram_split(self, name: str, threshold: float) -> tuple[float, float]:
        """``(bad, total)`` observation counts for one histogram family,
        where *bad* counts observations strictly above ``threshold``.

        Observations are only bucketed, not retained, so the split lands on
        bucket bounds: a bucket counts as *good* only when its entire range
        sits at or below the threshold — a threshold between bounds rounds
        toward flagging more observations bad, never fewer.
        """
        bad = 0.0
        total = 0.0
        for entry in self._by_name.get(name, []):
            if entry.get("kind") != "histogram":
                continue
            bounds = entry.get("bounds") or []
            counts = entry.get("counts") or []
            if len(counts) != len(bounds) + 1:
                continue
            entry_total = float(sum(counts))
            # Buckets are cumulative-by-construction here only in spirit:
            # counts[i] observes (bounds[i-1], bounds[i]], counts[-1] is the
            # +Inf bucket.  "Under" = every bucket whose upper bound stays
            # at or below the threshold.
            under = sum(
                float(count)
                for bound, count in zip(bounds, counts)
                if bound <= threshold
            )
            total += entry_total
            bad += max(entry_total - under, 0.0)
        return bad, total


@dataclass(frozen=True)
class SloObjective:
    """One service-level objective.

    Attributes:
        name: Stable identifier (doubles as the alert name).
        objective: Promised good-event fraction in ``(0, 1)``; the error
            budget is ``1 - objective``.
        extract: ``snapshot_index -> (cumulative_bad, cumulative_total)``.
        burn_threshold: Both windows must burn at or above this rate for
            the objective to breach.
        description: Human line for ``/v1/alerts`` annotations.
    """

    name: str
    objective: float
    extract: Callable[[SeriesIndex], tuple[float, float]]
    burn_threshold: float = 6.0
    description: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"objective must be in (0, 1), got {self.objective} for {self.name}"
            )
        if self.burn_threshold <= 0:
            raise ValueError(
                f"burn_threshold must be positive, got {self.burn_threshold}"
            )

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective


@dataclass
class SloStatus:
    """One objective's evaluation at one instant."""

    name: str
    objective: float
    burn_threshold: float
    fast_burn_rate: float = 0.0
    slow_burn_rate: float = 0.0
    bad_total: float = 0.0
    event_total: float = 0.0
    breaching: bool = False
    description: str = ""

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "objective": self.objective,
            "error_budget": 1.0 - self.objective,
            "burn_threshold": self.burn_threshold,
            "fast_burn_rate": self.fast_burn_rate,
            "slow_burn_rate": self.slow_burn_rate,
            "bad_total": self.bad_total,
            "event_total": self.event_total,
            "breaching": self.breaching,
            "description": self.description,
        }


@dataclass
class _History:
    """Timestamped cumulative ``(bad, total)`` samples for one objective."""

    points: deque = field(default_factory=deque)  # (t, bad, total)


class SloEvaluator:
    """Turns registry snapshots into burn-rate statuses.

    Args:
        objectives: The SLOs to track.
        fast_window_seconds / slow_window_seconds: Burn-rate windows; scale
            both down together for tests (e.g. 0.2s / 1.0s).
        clock: Injectable monotonic clock.
    """

    def __init__(
        self,
        objectives: list[SloObjective] | None = None,
        *,
        fast_window_seconds: float = DEFAULT_FAST_WINDOW_SECONDS,
        slow_window_seconds: float = DEFAULT_SLOW_WINDOW_SECONDS,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if fast_window_seconds <= 0 or slow_window_seconds < fast_window_seconds:
            raise ValueError(
                "need 0 < fast_window_seconds <= slow_window_seconds, got "
                f"{fast_window_seconds}/{slow_window_seconds}"
            )
        self.objectives = list(
            objectives if objectives is not None else default_slo_objectives()
        )
        names = [o.name for o in self.objectives]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate objective names: {names}")
        self.fast_window_seconds = float(fast_window_seconds)
        self.slow_window_seconds = float(slow_window_seconds)
        self._clock = clock
        self._history: dict[str, _History] = {o.name: _History() for o in self.objectives}

    def observe(self, snapshot: dict, now: float | None = None) -> list[SloStatus]:
        """Fold one snapshot into the history and evaluate every objective."""
        if now is None:
            now = self._clock()
        index = SeriesIndex(snapshot)
        statuses: list[SloStatus] = []
        for objective in self.objectives:
            history = self._history[objective.name]
            try:
                bad, total = objective.extract(index)
            except Exception:
                # A missing subsystem (no scorer pool, no sink) must never
                # take the watchtower down; treat as no new evidence.
                bad, total = 0.0, 0.0
            points = history.points
            # Cumulative counters only move forward; a reset (restart)
            # would make deltas negative, so restart the history instead.
            if points and (bad < points[-1][1] or total < points[-1][2]):
                points.clear()
            points.append((now, bad, total))
            horizon = now - self.slow_window_seconds
            # Keep one point at-or-before the horizon so the slow-window
            # delta spans the full window instead of shrinking as we prune.
            while len(points) >= 2 and points[1][0] <= horizon:
                points.popleft()
            fast = self._burn(objective, points, now, self.fast_window_seconds)
            slow = self._burn(objective, points, now, self.slow_window_seconds)
            statuses.append(
                SloStatus(
                    name=objective.name,
                    objective=objective.objective,
                    burn_threshold=objective.burn_threshold,
                    fast_burn_rate=fast,
                    slow_burn_rate=slow,
                    bad_total=bad,
                    event_total=total,
                    breaching=(
                        fast >= objective.burn_threshold
                        and slow >= objective.burn_threshold
                    ),
                    description=objective.description,
                )
            )
        return statuses

    @staticmethod
    def _burn(
        objective: SloObjective,
        points: deque,
        now: float,
        window: float,
    ) -> float:
        if len(points) < 2:
            return 0.0
        cutoff = now - window
        base = points[0]
        for point in points:
            if point[0] <= cutoff:
                base = point
            else:
                break
        newest = points[-1]
        delta_total = newest[2] - base[2]
        if delta_total <= 0:
            return 0.0
        delta_bad = max(newest[1] - base[1], 0.0)
        return (delta_bad / delta_total) / objective.error_budget


def default_slo_objectives(
    *,
    latency_threshold_seconds: float = 0.25,
    latency_objective: float = 0.99,
    error_rate_objective: float = 0.999,
    cache_hit_objective: float = 0.5,
    scorer_crash_objective: float = 0.999,
    sink_drop_objective: float = 0.99,
    burn_threshold: float = 6.0,
) -> list[SloObjective]:
    """The gateway's five stock objectives over its published series."""

    def latency(index: SeriesIndex) -> tuple[float, float]:
        return index.histogram_split(
            "repro_request_service_seconds", latency_threshold_seconds
        )

    def http_errors(index: SeriesIndex) -> tuple[float, float]:
        # A 504 answers a request whose own deadline budget ran out (zero,
        # or drained before a plan was found): the client's choice, not the
        # gateway failing.  Budget cuts are counted by
        # repro_service_deadline_exceeded_total and the latency histogram.
        def is_5xx(labels: dict) -> bool:
            status = str(labels.get("status", ""))
            return status.startswith("5") and status != "504"

        total = index.value("repro_http_responses_total")
        return index.value("repro_http_responses_total", is_5xx), total

    def cache_misses(index: SeriesIndex) -> tuple[float, float]:
        hits = index.value("repro_service_cache_hits_total")
        misses = index.value("repro_service_cache_misses_total")
        return misses, hits + misses

    def scorer_crashes(index: SeriesIndex) -> tuple[float, float]:
        crashes = index.value("repro_scoring_worker_crashes_total")
        requests = index.value("repro_scoring_requests_total")
        return crashes, max(requests, crashes)

    def sink_drops(index: SeriesIndex) -> tuple[float, float]:
        dropped = index.value("repro_experience_sink_dropped")
        recorded = index.value("repro_experience_sink_recorded")
        return dropped, dropped + recorded

    return [
        SloObjective(
            name="served_latency_p99",
            objective=latency_objective,
            extract=latency,
            burn_threshold=burn_threshold,
            description=(
                f"{latency_objective:.2%} of served requests complete within "
                f"{latency_threshold_seconds * 1e3:.0f}ms"
            ),
        ),
        SloObjective(
            name="http_error_rate",
            objective=error_rate_objective,
            extract=http_errors,
            burn_threshold=burn_threshold,
            description=f"{error_rate_objective:.2%} of HTTP responses are non-5xx",
        ),
        SloObjective(
            name="plan_cache_hit_rate",
            objective=cache_hit_objective,
            extract=cache_misses,
            burn_threshold=burn_threshold,
            description=(
                f"at least {cache_hit_objective:.0%} of plan lookups hit the cache"
            ),
        ),
        SloObjective(
            name="scorer_crash_rate",
            objective=scorer_crash_objective,
            extract=scorer_crashes,
            burn_threshold=burn_threshold,
            description=(
                f"fewer than {1 - scorer_crash_objective:.2%} of scoring requests "
                "coincide with a scorer crash"
            ),
        ),
        SloObjective(
            name="sink_drop_rate",
            objective=sink_drop_objective,
            extract=sink_drops,
            burn_threshold=burn_threshold,
            description=(
                f"fewer than {1 - sink_drop_objective:.0%} of experience tuples "
                "are dropped at the sink"
            ),
        ),
    ]
