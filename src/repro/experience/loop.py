"""The online trainer loop: close Balsa's on-policy loop against live traffic.

:class:`OnlineTrainerLoop` is the consumer side of the experience subsystem
and the serving analogue of the agent's training iteration (paper §4):

1. **drain** the request-path :class:`~repro.experience.sink.ExperienceSink`
   on a background thread and compute each observation's simulated-executed
   cost under the shared yardstick (``plan_cost`` — the same
   :math:`C_{out}`-style oracle the shadow gate uses), off the hot path;
2. **replay** the costed tuples into the
   :class:`~repro.experience.replay.ReplayBuffer` (dedup + reservoir);
3. on a cadence/threshold policy — at least ``min_new_tuples`` fresh tuples
   and at least ``min_round_interval_seconds`` since the last round — run a
   **fine-tune round**: draw a recency-weighted batch, expand it through the
   agent's :class:`~repro.agent.experience.ExperienceBuffer` (subplan
   augmentation + best-cost label correction, §4.1), featurize with the
   lifecycle's featuriser, and push it through
   :meth:`ModelLifecycle.advance` — which fine-tunes with the
   :class:`~repro.lifecycle.trainer.BackgroundTrainer` on the loop's thread,
   gates the candidate on the shadow probe workload and, on a pass,
   promotes it.  The lifecycle owns the promotion: it swaps, warms the
   cache, and arms its live monitor (a
   :class:`~repro.server.shadow_traffic.TrafficShadower` built over the same
   lifecycle) for automatic rollback.

The loop is fully autonomous once started: train → shadow → promote →
rollback-armed, while the gateway keeps serving.  Every round appends the
windowed mean executed cost of the traffic observed since the previous round
to :attr:`cost_trend` — the series the online-learning soak asserts trends
down.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import TYPE_CHECKING

from repro.agent.experience import ExperienceBuffer
from repro.experience.metrics import ExperienceMetrics
from repro.experience.replay import ExperienceTuple, ReplayBuffer, with_executed_cost
from repro.experience.sink import ExperienceSink
from repro.lifecycle.shadow import PlanCost
from repro.plans.nodes import PlanNode
from repro.sql.query import Query
from repro.telemetry.metrics import MetricsRegistry, gauge_entries

if TYPE_CHECKING:
    from repro.lifecycle.manager import ModelLifecycle
    from repro.lifecycle.shadow import PromotionDecision

#: The loop's round counters: (``ExperienceMetrics`` field, help).  The
#: instrument counting a field lives at ``self._<field>``.
_COUNTERS = (
    ("rounds", "Fine-tune rounds completed."),
    ("promotions", "Rounds whose candidate was promoted."),
    ("rejections", "Rounds the gate refused."),
    ("failures", "Rounds that errored."),
    ("trained_examples", "Training points consumed."),
)


class OnlineTrainerLoop:
    """Drains live experience into autonomous fine-tune → gate → promote rounds.

    Args:
        lifecycle: The train/gate/promote pipeline (it needs a gate); its
            featuriser featurizes training examples, and its live monitor is
            what arms rollback after each promotion this loop lands.
        plan_cost: Simulated-execution yardstick ``(query, plan) -> cost``,
            run on the loop thread (never the request path).
        sink: Request-path sink (one is built when omitted).
        buffer: Replay buffer (one is built when omitted).
        min_new_tuples: Fresh (costed) tuples required before a round fires.
        min_round_interval_seconds: Cooldown between rounds.
        sample_size: Recency-weighted tuples drawn per round.
        max_epochs: Epoch budget forwarded to the background trainer.  The
            first round refits the label transform (live yardstick costs
            rarely share the scale the network was born with); later rounds
            fine-tune incrementally.
        poll_interval_seconds: Loop-thread wake interval.
    """

    def __init__(
        self,
        lifecycle: "ModelLifecycle",
        plan_cost: PlanCost,
        *,
        sink: ExperienceSink | None = None,
        buffer: ReplayBuffer | None = None,
        min_new_tuples: int = 16,
        min_round_interval_seconds: float = 0.0,
        sample_size: int = 128,
        max_epochs: int | None = None,
        poll_interval_seconds: float = 0.05,
    ):
        if min_new_tuples < 1:
            raise ValueError("min_new_tuples must be >= 1")
        if sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        self.lifecycle = lifecycle
        self.plan_cost = plan_cost
        self.sink = sink if sink is not None else ExperienceSink()
        self.buffer = buffer if buffer is not None else ReplayBuffer()
        self.min_new_tuples = min_new_tuples
        self.min_round_interval_seconds = min_round_interval_seconds
        self.sample_size = sample_size
        self.max_epochs = max_epochs
        self.poll_interval_seconds = poll_interval_seconds
        self._refit_next_round = True

        self._round_lock = threading.Lock()
        self._wake = threading.Event()
        self._thread: threading.Thread | None = None
        self._closed = False

        self._promotions_paused = False
        self._pause_reason: str | None = None
        self._new_since_round = 0
        self._window_costs: list[float] = []
        self._last_round_at = 0.0
        self._cost_trend: list[float] = []
        self._register_metrics()

    def _register_metrics(self) -> None:
        """:attr:`telemetry`: the loop's round counters (its lock is the
        loop's lock) and readers of its state, sink and buffer."""
        registry = self.telemetry = MetricsRegistry()
        self._lock = registry.lock
        counter = registry.counter
        for field, help_text in _COUNTERS:
            setattr(
                self, f"_{field}", counter(f"repro_experience_{field}_total", help_text)
            )
        self._last_round_seconds = registry.gauge(
            "repro_experience_last_round_seconds",
            "Duration of the most recent round.", aggregation="max",
        )
        counter(
            "repro_experience_rollbacks_total",
            "Loop promotions rolled back by live traffic.",
        ).set_function(self._monitor_rollbacks)
        registry.gauge(
            "repro_experience_running",
            "Whether the trainer loop is alive.", aggregation="max",
        ).set_function(lambda: int(self.running))
        registry.gauge(
            "repro_experience_promotions_paused",
            "Whether the watchtower has gated autonomous promotions.",
            aggregation="max",
        ).set_function(lambda: int(self.promotions_paused))
        registry.gauge(
            "repro_experience_cost_trend_latest",
            "Latest windowed mean executed cost.", aggregation="mean",
        ).set_function(lambda: self._cost_trend[-1] if self._cost_trend else None)
        registry.add_reader(
            lambda: gauge_entries(
                "repro_experience_sink", "Request-path experience sink.",
                self.sink.stats().to_json_dict(),
            )
            + gauge_entries(
                "repro_experience_buffer", "Replay buffer.",
                self.buffer.stats().to_json_dict(),
            )
        )

    # ------------------------------------------------------------------ #
    # Request-path hook (delegates to the sink; never blocks, never raises)
    # ------------------------------------------------------------------ #
    def observe(
        self,
        query: Query,
        plan: PlanNode,
        predicted_cost: float,
        *,
        planner_id: str = "",
        model_version: object = None,
    ) -> None:
        """Record one served decision (the gateway's per-request call)."""
        try:
            item = ExperienceTuple(
                query=query,
                plan=plan,
                predicted_cost=float(predicted_cost),
                planner_id=planner_id,
                model_version="" if model_version is None else str(model_version),
                created_at=time.time(),
            )
        except Exception:  # noqa: BLE001 - the hot path must not fail
            return
        self.sink.record(item)
        if len(self.sink) >= self.min_new_tuples:
            self._wake.set()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "OnlineTrainerLoop":
        """Start the autonomous consumer thread (idempotent)."""
        if self._closed:
            raise RuntimeError("online trainer loop is closed")
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run, name="online-trainer-loop", daemon=True
        )
        self._thread.start()
        return self

    @property
    def running(self) -> bool:
        """Whether the consumer thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def close(self) -> None:
        """Stop the thread and ingest the sink's remainder."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._ingest()

    def __enter__(self) -> "OnlineTrainerLoop":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # The consumer thread
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        while True:
            self._wake.wait(timeout=self.poll_interval_seconds)
            self._wake.clear()
            if self._closed:
                return
            self._ingest()
            if self._round_due():
                try:
                    self._round(force=False)
                except Exception:  # noqa: BLE001 - the loop must survive a round
                    self._failures.inc()

    def _ingest(self) -> int:
        """Cost and replay everything queued in the sink; returns the count."""
        drained = self.sink.drain()
        ingested = 0
        for item in drained:
            try:
                executed = float(self.plan_cost(item.query, item.plan))
            except Exception:  # noqa: BLE001 - one bad plan must not stall the loop
                self._failures.inc()
                continue
            self.buffer.add(with_executed_cost(item, executed))
            with self._lock:
                self._new_since_round += 1
                self._window_costs.append(executed)
            ingested += 1
        return ingested

    def _round_due(self) -> bool:
        with self._lock:
            if self._promotions_paused:
                # The watchtower says the error budget is burning: keep
                # ingesting experience, but do not promote into a fire.
                return False
            if self._new_since_round < self.min_new_tuples:
                return False
            since = time.monotonic() - self._last_round_at
            return since >= self.min_round_interval_seconds

    def set_promotions_paused(self, paused: bool, reason: str | None = None) -> None:
        """Gate autonomous rounds (the watchtower's protective action).

        While paused the loop still drains the sink and grows the replay
        buffer — nothing is lost — but no fine-tune/promote round fires
        until resumed.  ``run_round_now`` stays available as an explicit
        operator override.
        """
        with self._lock:
            self._promotions_paused = bool(paused)
            self._pause_reason = reason if paused else None
        if not paused:
            self._wake.set()

    @property
    def promotions_paused(self) -> bool:
        with self._lock:
            return self._promotions_paused

    @property
    def pause_reason(self) -> str | None:
        with self._lock:
            return self._pause_reason

    def run_round_now(self) -> "PromotionDecision | None":
        """Ingest pending experience and run one round immediately.

        Bypasses the cadence/threshold policy (tests and the soak use it to
        pace rounds deterministically); returns the gate's decision, or None
        when the buffer holds no experience yet.
        """
        self._ingest()
        return self._round(force=True)

    def _round(self, force: bool) -> "PromotionDecision | None":
        with self._round_lock:
            with self._lock:
                if not force and self._new_since_round < self.min_new_tuples:
                    return None
                window = list(self._window_costs)
                self._window_costs.clear()
                self._new_since_round = 0
                self._last_round_at = time.monotonic()
                refit = self._refit_next_round
            batch = self.buffer.sample(self.sample_size)
            batch = [item for item in batch if item.executed_cost is not None]
            if not batch:
                return None
            started = time.perf_counter()
            points = self._training_points(batch)
            featurizer = self.lifecycle.featurizer
            examples = [featurizer.featurize(p.query, p.plan) for p in points]
            labels = [p.label for p in points]
            round_number = self._rounds.value + 1
            decision = self.lifecycle.advance(
                examples,
                labels,
                max_epochs=self.max_epochs,
                refit_label_transform=refit,
                source=f"online-round-{round_number}",
            )
            round_seconds = time.perf_counter() - started
            with self._lock:
                self._rounds.inc()
                self._refit_next_round = False
                self._trained_examples.inc(len(points))
                self._last_round_seconds.set(round_seconds)
                if window:
                    self._cost_trend.append(sum(window) / len(window))
                if decision.promoted:
                    self._promotions.inc()
                else:
                    self._rejections.inc()
            logging.getLogger("repro.experience").info(
                "online round %d %s",
                round_number,
                "promoted" if decision.promoted else "rejected",
                extra={
                    "repro_fields": {
                        "round": round_number,
                        "promoted": decision.promoted,
                        "candidate_version": decision.candidate_version,
                        "trained_examples": len(points),
                        "round_seconds": round(round_seconds, 4),
                    }
                },
            )
            return decision

    def _training_points(self, batch: list[ExperienceTuple]):
        """Expand a sampled batch through Balsa's §4.1 label correction.

        Each tuple becomes one agent-side execution record (its simulated
        cost standing in for latency); the agent buffer then augments by
        subplan and corrects every label to the best cost among sampled
        executions containing that subplan.  Records are keyed by query
        fingerprint, not by name: two different queries may share a
        client-chosen name, and must share neither a query nor a label.
        """
        queries = {item.query.fingerprint(): item.query for item in batch}
        experience = ExperienceBuffer(queries.__getitem__)
        for item in batch:
            experience.add_execution(
                item.query.fingerprint(), item.plan, item.executed_cost
            )
        return experience.training_points()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def _monitor_rollbacks(self) -> int:
        """Rollbacks the attached live monitor counted (0 without one)."""
        monitor = getattr(self.lifecycle, "live_monitor", None)
        stats = getattr(monitor, "stats", None)
        if callable(stats):
            try:
                return int(getattr(stats(), "rollbacks", 0))
            except Exception:  # noqa: BLE001 - metrics must not fail
                pass
        return 0

    def metrics(self) -> ExperienceMetrics:
        """A snapshot of the whole subsystem (sink + buffer + loop)."""
        rollbacks = self._monitor_rollbacks()
        with self._lock:
            return ExperienceMetrics(
                running=self.running,
                sink=self.sink.stats(),
                buffer=self.buffer.stats(),
                **{field: getattr(self, f"_{field}").value for field, _ in _COUNTERS},
                rollbacks=rollbacks,
                last_round_seconds=self._last_round_seconds.value,
                cost_trend=list(self._cost_trend),
                promotions_paused=self._promotions_paused,
                pause_reason=self._pause_reason,
            )
