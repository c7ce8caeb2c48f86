"""Live-traffic shadow scoring: watch real requests, roll back on regression.

The PR-3 :class:`~repro.lifecycle.shadow.ShadowEvaluator` gates promotions on
a *static probe workload*.  That catches candidates that regress on known
queries, but a promotion can still hurt exactly the traffic the probe set
does not cover — Bao's central argument (Marcus et al., VLDB 2021) is that a
learned optimizer must bound regressions on what users actually run.

:class:`TrafficShadower` closes that gap for the serving gateway:

1. A configurable fraction of real ``/v1/plan`` traffic is **sampled** into a
   bounded ring buffer (deterministic 1-in-N striding, so tests and replayed
   traffic behave identically).  Sampling is a lock + deque append — the
   foreground request path never waits on shadow work.
2. After a promotion the shadower is **armed** with the candidate (now
   serving) and baseline (previously serving) versions.  A worker thread
   drains the ring buffer *off the request path*, replans each sampled query
   with both versions restored from the registry, and costs both chosen
   plans under the shared yardstick.
3. Per-query comparisons feed a **rolling window** judged by the promotion
   gate's own rule (:func:`~repro.lifecycle.shadow.judge`) — a per-query
   bound (no sampled request's plan may cost more than
   ``max_regression`` times the baseline's) and a cost-weighted workload
   bound (the window's total candidate cost may not exceed
   ``max_total_regression`` times the baseline total).  Once the window
   holds ``min_samples`` and either bound breaks, the shadower triggers an
   **automatic rollback** through its
   :class:`~repro.lifecycle.manager.ModelLifecycle` — the one owner of what
   the service serves — and records a
   :class:`~repro.lifecycle.shadow.PromotionDecision` audit entry whose
   probes are the live queries that tripped the bound.

The shadower is built over a lifecycle and becomes that lifecycle's live
monitor: every promotion the lifecycle applies arms it with the (candidate,
displaced) pair, and every other move disarms it.  Foreground traffic keeps
being answered throughout: the rollback is one atomic swap on the serving
service.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING

from repro.lifecycle.shadow import (
    PlanCost,
    ProbeResult,
    PromotionDecision,
    judge,
    shadow_probe,
)
from repro.planning.adapters import BeamPlanner
from repro.search.beam import BeamSearchPlanner
from repro.sql.query import Query
from repro.telemetry.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.lifecycle.manager import ModelLifecycle

#: The shadower's event counters: (``ShadowTrafficStats`` field, help).  The
#: instrument counting a field lives at ``self._<field>``.
_COUNTERS = (
    ("observed", "Requests the shadower saw."),
    ("sampled", "Requests sampled into the ring."),
    ("dropped", "Samples evicted (ring full)."),
    ("replayed", "Queries replanned both ways."),
    ("rollbacks", "Automatic live-traffic rollbacks."),
    ("errors", "Shadow replans that failed."),
)


@dataclass
class ShadowTrafficStats:
    """Counters describing the live shadow-scoring loop.

    Attributes:
        observed: Foreground requests the shadower saw.
        sampled: Requests sampled into the ring buffer (1-in-N striding).
        dropped: Sampled requests evicted because the ring buffer was full.
        replayed: Sampled queries actually replanned against both versions.
        rollbacks: Automatic rollbacks triggered by live-traffic regression.
        errors: Shadow replans or rollbacks that failed (never surfaced to
            the foreground path).
        armed: Whether a candidate is currently being monitored.
        candidate_version: Version under monitoring (None when disarmed).
        baseline_version: Version it is compared against (None when disarmed).
        rolling_regression: Cost-weighted regression over the current window
            (total candidate cost / total baseline cost; 0 when empty).
        worst_regression: Largest single-query regression in the window.
        window_samples: Live samples currently in the rolling window.
        degraded: Whether the watchtower has tightened the bounds (a firing
            SLO alert shrinks the tolerated regression).
        effective_max_regression: The per-query bound currently enforced.
        effective_max_total_regression: The window bound currently enforced.
    """

    observed: int = 0
    sampled: int = 0
    dropped: int = 0
    replayed: int = 0
    rollbacks: int = 0
    errors: int = 0
    armed: bool = False
    candidate_version: int | None = None
    baseline_version: int | None = None
    rolling_regression: float = 0.0
    worst_regression: float = 0.0
    window_samples: int = 0
    degraded: bool = False
    effective_max_regression: float = 0.0
    effective_max_total_regression: float = 0.0

    def to_json_dict(self) -> dict:
        """JSON-safe dict form (non-finite floats use the wire spellings)."""
        from repro.server.wire import jsonable

        return jsonable(asdict(self))

#: Sampled queries waiting to be shadow-scored.
BUFFER_CAPACITY = 64


class TrafficShadower:
    """Samples live traffic, shadow-scores the candidate, rolls back on breach.

    Args:
        lifecycle: The owner of the serving model: its registry holds the
            candidate/baseline snapshots and the audit trail, its featuriser
            restores them, and its :meth:`~ModelLifecycle.rollback` applies
            a verdict.  The shadower sets itself as the lifecycle's
            ``live_monitor``.
        plan_cost: Shared yardstick ``(query, plan) -> cost`` (e.g.
            ``CoutCostModel(estimator).cost``); both versions' chosen plans
            are costed with it, so the comparison never trusts either model.
        sample_fraction: Fraction of observed traffic to shadow (deterministic
            1-in-``round(1/fraction)`` striding; 1.0 shadows everything).
        max_regression: Per-query bound: no sampled request's candidate plan
            may cost more than this multiple of the baseline plan (the same
            semantics as the promotion gate's per-probe bound).
        max_total_regression: Cost-weighted workload bound over the rolling
            window: total candidate cost / total baseline cost.
        min_samples: Live samples required before a verdict (a single noisy
            query must not unseat a promotion).
        window: Rolling-window size in samples.
        planner: Beam-search configuration for the shadow replans (defaults
            to paper settings; keep it small — this runs continuously).

    Sampled queries wait in a ring of :data:`BUFFER_CAPACITY`; when it is
    full, the oldest is dropped (and counted) rather than blocking anything.
    """

    def __init__(
        self,
        lifecycle: "ModelLifecycle",
        plan_cost: PlanCost,
        *,
        sample_fraction: float = 0.25,
        max_regression: float = 2.0,
        max_total_regression: float = 1.25,
        min_samples: int = 4,
        window: int = 32,
        planner: BeamSearchPlanner | None = None,
    ):
        if not 0.0 < sample_fraction <= 1.0:
            raise ValueError("sample_fraction must be in (0, 1]")
        if max_regression <= 0 or max_total_regression <= 0:
            raise ValueError("regression bounds must be positive")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if window < min_samples:
            raise ValueError("window must be >= min_samples")
        self.lifecycle = lifecycle
        self.plan_cost = plan_cost
        self.sample_fraction = sample_fraction
        self.max_regression = max_regression
        self.max_total_regression = max_total_regression
        self._degraded = False
        self.degraded_factor = 0.5
        self.min_samples = min_samples
        self.window = window
        self.planner = planner or BeamSearchPlanner()

        self._stride = max(1, round(1.0 / sample_fraction))
        self._buffer: deque[Query] = deque(maxlen=BUFFER_CAPACITY)
        self._window: deque[ProbeResult] = deque(maxlen=window)
        self._wake = threading.Event()
        self._closed = False
        self._register_metrics()
        self._inflight = 0  # samples popped but not yet appended/skipped

        self._armed = False
        # Bumped on every watch()/disarm(): probes replanned for a retired
        # (candidate, baseline) pair must never land in a newer pair's
        # window, and a rollback verdict must die with its generation.
        self._generation = 0
        self._candidate_version: int | None = None
        self._baseline_version: int | None = None
        self._candidate_planner: BeamPlanner | None = None
        self._baseline_planner: BeamPlanner | None = None

        self._worker = threading.Thread(
            target=self._run, name="traffic-shadower", daemon=True
        )
        self._worker.start()
        lifecycle.live_monitor = self

    def _register_metrics(self) -> None:
        """:attr:`telemetry`: the shadower's event counters (their lock is
        the shadower's lock) and readers of the armed pair's window."""
        registry = self.telemetry = MetricsRegistry()
        self._lock = registry.lock
        for field, help_text in _COUNTERS:
            setattr(
                self, f"_{field}",
                registry.counter(f"repro_shadow_{field}_total", help_text),
            )
        for field, help_text, aggregation in (
            ("armed", "Whether a candidate is being monitored.", "max"),
            ("rolling_regression",
             "Cost-weighted candidate/baseline regression over the window.", "mean"),
            ("worst_regression", "Largest single-query regression in the window.",
             "max"),
            ("window_samples", "Live samples in the rolling window.", "sum"),
        ):
            registry.gauge(
                f"repro_shadow_{field}", help_text, aggregation=aggregation
            ).set_function(lambda field=field: float(getattr(self.stats(), field)))

    # ------------------------------------------------------------------ #
    # Foreground hook
    # ------------------------------------------------------------------ #
    def observe(self, query: Query) -> None:
        """Note one foreground request (cheap; never blocks, never raises).

        Sampling happens whether or not a candidate is armed, so the ring
        buffer already holds recent traffic the moment a promotion lands.
        """
        with self._lock:
            if self._closed:
                return
            self._observed.inc()
            if (self._observed.value - 1) % self._stride != 0:
                return
            self._sampled.inc()
            if len(self._buffer) == self._buffer.maxlen:
                self._dropped.inc()
            self._buffer.append(query)
            armed = self._armed
        if armed:
            self._wake.set()

    # ------------------------------------------------------------------ #
    # Arming
    # ------------------------------------------------------------------ #
    def watch(
        self, candidate_version: int, baseline_version: int | None
    ) -> None:
        """Arm monitoring of ``candidate_version`` against ``baseline_version``.

        Call right after a promotion: the candidate is the newly serving
        version, the baseline is the version it displaced (the rollback
        target).  A ``None`` baseline (first-ever promotion) disarms — there
        is nothing to compare against or roll back to.  A pair that cannot
        be restored disarms too, then raises.
        """
        if baseline_version is None or baseline_version == candidate_version:
            self.disarm()
            return
        try:
            featurizer = self.lifecycle.featurizer
            registry = self.lifecycle.registry
            candidate = registry.restore(candidate_version, featurizer)
            baseline = registry.restore(baseline_version, featurizer)
        except Exception:
            self.disarm()
            raise
        with self._lock:
            self._generation += 1
            self._candidate_version = candidate_version
            self._baseline_version = baseline_version
            self._candidate_planner = BeamPlanner(candidate, planner=self.planner)
            self._baseline_planner = BeamPlanner(baseline, planner=self.planner)
            self._window.clear()
            self._armed = True
        self._wake.set()

    def disarm(self) -> None:
        """Stop monitoring (keeps sampling so the buffer stays warm)."""
        with self._lock:
            self._generation += 1
            self._armed = False
            self._candidate_version = None
            self._baseline_version = None
            self._candidate_planner = None
            self._baseline_planner = None
            self._window.clear()

    @property
    def armed(self) -> bool:
        """Whether a candidate is currently being monitored."""
        with self._lock:
            return self._armed

    # ------------------------------------------------------------------ #
    # Watchtower protective action
    # ------------------------------------------------------------------ #
    def set_degraded(self, degraded: bool, *, factor: float | None = None) -> None:
        """Tighten (or restore) the regression bounds under degraded health.

        While degraded, both bounds shrink toward 1.0 by ``degraded_factor``
        — excess-over-parity is scaled, so a 2.0x per-query bound becomes
        1.5x at factor 0.5 and a 1.25x window bound becomes 1.125x.  The
        configured bounds are never mutated; recovery restores them exactly.
        """
        if factor is not None:
            if not 0.0 < factor <= 1.0:
                raise ValueError("factor must be in (0, 1]")
            self.degraded_factor = factor
        wake = False
        with self._lock:
            if self._degraded != bool(degraded):
                self._degraded = bool(degraded)
                wake = self._degraded and self._armed
        if wake:
            # Nudge the shadow loop so the sampled backlog is judged under
            # the tighter bounds promptly rather than on the next timeout.
            self._wake.set()

    @property
    def degraded(self) -> bool:
        with self._lock:
            return self._degraded

    def _effective_bounds_locked(self) -> tuple[float, float]:
        if not self._degraded:
            return self.max_regression, self.max_total_regression
        factor = self.degraded_factor
        return (
            1.0 + max(self.max_regression - 1.0, 0.0) * factor,
            1.0 + max(self.max_total_regression - 1.0, 0.0) * factor,
        )

    # ------------------------------------------------------------------ #
    # Shadow loop
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        while True:
            self._wake.wait(timeout=0.1)
            self._wake.clear()
            if self._closed:
                return
            while True:
                with self._lock:
                    if self._closed or not self._armed or not self._buffer:
                        break
                    query = self._buffer.popleft()
                    candidate_planner = self._candidate_planner
                    baseline_planner = self._baseline_planner
                    generation = self._generation
                    self._inflight += 1
                try:
                    probe = shadow_probe(
                        query, candidate_planner, baseline_planner, self.plan_cost
                    )
                except Exception:  # noqa: BLE001 - shadow path must not die
                    with self._lock:
                        self._errors.inc()
                        self._inflight -= 1
                    continue
                verdict: PromotionDecision | None = None
                with self._lock:
                    self._inflight -= 1
                    if not self._armed or self._generation != generation:
                        # The pair this probe was replanned for is retired
                        # (re-arm or disarm raced the replan): its costs must
                        # not count toward the current pair's verdict.
                        continue
                    self._replayed.inc()
                    self._window.append(probe)
                    if len(self._window) >= self.min_samples:
                        verdict = self._judge_locked()
                if verdict is not None and not verdict.promoted:
                    self._trigger_rollback(verdict, generation)

    def _judge_locked(self) -> PromotionDecision:
        """The gate rule over the window, under the effective bounds."""
        return judge(
            self._window,
            *self._effective_bounds_locked(),
            candidate_version=self._candidate_version,
            serving_version=self._baseline_version,
        )

    def _trigger_rollback(self, verdict: PromotionDecision, generation: int) -> None:
        """Roll the promotion back and record the audit entry."""
        with self._lock:
            if not self._armed or self._generation != generation:
                return
            # Disarm first: the rollback below swaps the serving version, and
            # further shadow verdicts against a retired pair are meaningless.
            self._armed = False
            self._candidate_planner = None
            self._baseline_planner = None
        decision = replace(
            verdict,
            reason=(
                f"live-traffic regression bound breached over "
                f"{len(verdict.probes)} sampled requests: {verdict.reason}; "
                f"automatic rollback"
            ),
        )
        from repro.lifecycle.snapshot import LifecycleError

        lifecycle = self.lifecycle
        try:
            # Compare-and-rollback: the rollback only applies if the
            # condemned candidate is *still* serving, so a concurrent ops
            # promotion is never unseated by this verdict — the stale verdict
            # aborts with a LifecycleError.
            lifecycle.rollback(
                expected_serving=verdict.candidate_version, source="shadow"
            )
            lifecycle.registry.record_decision(decision)
            lifecycle.service.record_promotion_rejected()
            self._rollbacks.inc()
        except LifecycleError:
            # Stale verdict (serving moved on) — nothing to roll back.
            pass
        except Exception:  # noqa: BLE001 - shadow path must not die
            self._errors.inc()
        finally:
            self.disarm()

    # ------------------------------------------------------------------ #
    # Introspection and lifecycle
    # ------------------------------------------------------------------ #
    def drain(self, timeout: float = 5.0) -> bool:
        """Block until the sampled backlog is shadow-scored (or disarmed).

        Returns True when the buffer emptied (or monitoring ended) within
        ``timeout`` — the synchronisation point tests and the gateway's
        graceful shutdown use.
        """
        deadline = time.monotonic() + timeout
        self._wake.set()
        while time.monotonic() < deadline:
            with self._lock:
                # "Drained" means the backlog is empty AND no sample is
                # mid-replan: a verdict from the last popped query must be
                # visible when this returns.
                if self._closed or not self._armed or (
                    not self._buffer and self._inflight == 0
                ):
                    return True
            self._wake.set()
            time.sleep(0.005)
        return False

    def stats(self) -> ShadowTrafficStats:
        """A snapshot of the shadow-loop counters."""
        with self._lock:
            verdict = self._judge_locked()
            return ShadowTrafficStats(
                **{field: getattr(self, f"_{field}").value for field, _ in _COUNTERS},
                armed=self._armed,
                candidate_version=self._candidate_version,
                baseline_version=self._baseline_version,
                rolling_regression=verdict.total_regression,
                worst_regression=verdict.max_regression,
                window_samples=len(verdict.probes),
                degraded=self._degraded,
                effective_max_regression=verdict.regression_threshold,
                effective_max_total_regression=verdict.total_threshold,
            )

    def close(self) -> None:
        """Stop the shadow worker (sampled-but-unscored queries are dropped)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._armed = False
        self._wake.set()
        self._worker.join(timeout=2.0)

    def __enter__(self) -> "TrafficShadower":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
