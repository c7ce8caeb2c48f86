"""Scrape-time publication: fold every subsystem's counters into a registry.

The hot path never touches the registry.  :class:`GatewayTelemetry.collect`
runs when ``/metrics`` is scraped (or when a sharded worker pushes its
snapshot to the supervisor): it reads the existing dataclass snapshots —
``ServiceMetrics`` per planner, gateway HTTP counters, shadow stats, shared
cache client stats, ops-channel stats, ``ExperienceMetrics`` — and publishes
them as counters/gauges.  Request latency histograms are the one incremental
piece: each collect drains the service's request log from the last consumed
position (:meth:`PlannerService.drain_request_log`, exact under the metrics
lock) into fixed-bucket histograms, so scrapes are O(new requests), not
O(history).

This module deliberately duck-types the gateway and its stat blocks — the
telemetry package stays a leaf with no upward imports.
"""

from __future__ import annotations

import threading

from repro.telemetry.logging import logs_suppressed_total
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.profiling import get_profiler
from repro.telemetry.trace import get_tracer


def _publish_numbers(
    registry: MetricsRegistry,
    prefix: str,
    data: dict,
    *,
    help_text: str = "",
    labels: "dict[str, str] | None" = None,
    aggregation: str = "sum",
) -> None:
    """Publish every numeric/bool leaf of a (possibly nested) dict as gauges."""
    for name, value in data.items():
        if isinstance(value, dict):
            _publish_numbers(
                registry, f"{prefix}_{name}", value,
                help_text=help_text, labels=labels, aggregation=aggregation,
            )
            continue
        if isinstance(value, bool):
            value = int(value)
        if not isinstance(value, (int, float)) or value != value:  # skip NaN
            continue
        registry.gauge(
            f"{prefix}_{name}", help_text, labels, aggregation=aggregation
        ).set(value)


class GatewayTelemetry:
    """One gateway's registry plus the incremental request-log cursors."""

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry or MetricsRegistry()
        self._log_positions: dict[str, int] = {}
        # Scrapes can now be concurrent (Prometheus, the sharded push
        # client, and the watchtower's alert thread all collect): the
        # request-log cursors must advance exactly once per drained entry.
        self._collect_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #
    def collect(self, gateway) -> MetricsRegistry:
        """Publish every stat block the gateway can reach; returns the registry."""
        with self._collect_lock:
            return self._collect_locked(gateway)

    def _collect_locked(self, gateway) -> MetricsRegistry:
        for name, service in gateway.planner_services().items():
            self._publish_service(name, service)
        self._publish_http(gateway)
        shadower = getattr(gateway, "shadower", None)
        if shadower is not None:
            self._publish_shadow(shadower.stats())
        shared_stats = getattr(gateway.service.cache, "shared_stats", None)
        if callable(shared_stats):
            stats = shared_stats()
            if stats:
                _publish_numbers(
                    self.registry, "repro_shared_cache_client", stats,
                    help_text="Shared plan-cache tier, worker-side client.",
                )
        ops_channel = getattr(gateway, "ops_channel", None)
        if ops_channel is not None and hasattr(ops_channel, "stats"):
            _publish_numbers(
                self.registry, "repro_ops_channel", ops_channel.stats(),
                help_text="Sharded ops-coherence channel (worker side).",
            )
        experience = getattr(gateway, "experience", None)
        if experience is not None:
            self._publish_experience(experience.metrics())
        tracer = get_tracer()
        self.registry.counter(
            "repro_traces_recorded_total", "Completed request traces."
        ).set_total(tracer._recorded)
        self._publish_watchtower(gateway)
        return self.registry

    def _publish_watchtower(self, gateway) -> None:
        """Alert/health/profiler/log-suppression series (the PR-10 layer)."""
        reg = self.registry
        alerts = getattr(gateway, "alerts", None)
        if alerts is not None:
            reg.gauge(
                "repro_alerts_firing", "SLO alerts currently firing."
            ).set(len(alerts.firing()))
            reg.gauge(
                "repro_alerts_pending", "SLO alerts currently pending."
            ).set(len(alerts.pending()))
        health_score = getattr(gateway, "health_score", None)
        if callable(health_score):
            # aggregation="min": the fleet merge reports the sickest worker.
            reg.gauge(
                "repro_health_score",
                "Composite gateway health in [0, 1] (1 = no active alerts).",
                aggregation="min",
            ).set(health_score())
        reg.counter(
            "repro_logs_suppressed_total",
            "Log lines dropped by the rate-limit filter.",
        ).set_total(logs_suppressed_total())
        profiler = get_profiler()
        if profiler is not None:
            profile = profiler.snapshot()
            reg.counter(
                "repro_profiler_samples_total",
                "Sampling-profiler passes taken in this process.",
            ).set_total(profile["samples"])
            reg.gauge(
                "repro_profiler_hz", "Configured profiler sampling rate."
            ).set(profile["hz"])

    def snapshot(self, gateway) -> dict:
        return self.collect(gateway).snapshot()

    def render(self, gateway) -> str:
        return self.collect(gateway).render()

    # ------------------------------------------------------------------ #
    # Blocks
    # ------------------------------------------------------------------ #
    def _publish_service(self, name: str, service) -> None:
        reg = self.registry
        labels = {"planner": name}
        metrics = service.metrics()

        def counter(metric: str, help_text: str, value: float) -> None:
            reg.counter(metric, help_text, labels).set_total(value)

        counter("repro_service_requests_total", "Requests served.", metrics.requests)
        counter(
            "repro_service_cache_hits_total", "Plan-cache hits.", metrics.cache_hits
        )
        counter(
            "repro_service_cache_misses_total",
            "Requests that ran a planner.", metrics.cache_misses,
        )
        counter(
            "repro_service_coalesced_total",
            "Requests deduplicated onto an in-flight search.",
            metrics.coalesced_requests,
        )
        counter(
            "repro_service_rejected_total",
            "Requests refused admission.", metrics.rejected_requests,
        )
        counter(
            "repro_service_deadline_exceeded_total",
            "Served requests whose search was budget-cut.",
            metrics.deadline_exceeded_requests,
        )
        counter("repro_service_swaps_total", "Model hot swaps.", metrics.swaps)
        counter(
            "repro_service_promotions_rejected_total",
            "Candidates the shadow gate refused.", metrics.promotions_rejected,
        )
        counter(
            "repro_service_warmed_entries_total",
            "Cache entries repopulated by warming.", metrics.warmed_entries,
        )
        counter(
            "repro_service_states_expanded_total",
            "Search states expanded.", metrics.total_states_expanded,
        )
        counter(
            "repro_service_plans_scored_total",
            "Candidate plans scored.", metrics.total_plans_scored,
        )
        counter(
            "repro_service_queue_wait_seconds_total",
            "Summed queue wait.", metrics.total_queue_wait_seconds,
        )
        counter(
            "repro_service_planning_seconds_total",
            "Summed planner time.", metrics.total_planning_seconds,
        )
        counter(
            "repro_service_service_seconds_total",
            "Summed end-to-end service time.", metrics.total_service_seconds,
        )
        reg.gauge(
            "repro_service_pending_requests",
            "Requests admitted but not completed.", labels,
        ).set(service.pending_requests)
        reg.gauge(
            "repro_service_cache_size", "Local plan-cache entries.", labels
        ).set(metrics.cache.size)
        counter(
            "repro_service_cache_evictions_total",
            "Local plan-cache evictions.", metrics.cache.evictions,
        )
        reg.gauge(
            "repro_service_cache_hit_rate",
            "Fraction of requests answered from cache.", labels,
            aggregation="mean",
        ).set(metrics.hit_rate)

        scoring = metrics.scoring
        counter(
            "repro_scoring_requests_total",
            "Scoring requests from beam searches.", scoring.requests,
        )
        counter(
            "repro_scoring_examples_total",
            "(query, plan) pairs scored.", scoring.examples,
        )
        counter(
            "repro_scoring_forward_batches_total",
            "Value-network forward passes run.", scoring.forward_batches,
        )
        counter(
            "repro_scoring_versions_published_total",
            "Model versions published to scorers.", scoring.versions_published,
        )
        counter(
            "repro_scoring_worker_crashes_total",
            "Scorer processes dead mid-service.", scoring.worker_crashes,
        )
        counter(
            "repro_scoring_workers_respawned_total",
            "Crashed scorers replaced.", scoring.workers_respawned,
        )
        counter(
            "repro_scoring_backend_failures_total",
            "Scoring submits failing with a typed error.",
            metrics.scoring_backend_failures,
        )
        counter(
            "repro_scoring_fallbacks_total",
            "Services abandoning their backend for in-process scoring.",
            metrics.scoring_fallbacks,
        )
        reg.gauge(
            "repro_scoring_max_batch_examples",
            "Largest forward-pass batch.", labels, aggregation="max",
        ).set(scoring.max_batch_examples)
        reg.gauge(
            "repro_scoring_workers",
            "Routable scorer processes.", labels,
        ).set(scoring.workers_current)
        reg.gauge(
            "repro_scoring_queue_depth",
            "Scoring requests in flight.", labels,
        ).set(scoring.queue_depth)
        for worker, depth in enumerate(scoring.worker_queue_depths):
            reg.gauge(
                "repro_scoring_worker_queue_depth",
                "In-flight requests per scorer.",
                {**labels, "worker": str(worker)},
            ).set(depth)
        for worker, busy in enumerate(scoring.worker_inflight):
            reg.gauge(
                "repro_scoring_worker_inflight",
                "Batches being scored per scorer.",
                {**labels, "worker": str(worker)},
            ).set(busy)

        self._drain_latency_histograms(name, service, labels)

    def _drain_latency_histograms(self, name: str, service, labels: dict) -> None:
        drain = getattr(service, "drain_request_log", None)
        if not callable(drain):
            return
        entries, position = drain(self._log_positions.get(name, 0))
        self._log_positions[name] = position
        if not entries:
            return
        reg = self.registry
        service_hist = reg.histogram(
            "repro_request_service_seconds",
            "End-to-end time inside the service per request.", labels,
        )
        planning_hist = reg.histogram(
            "repro_request_planning_seconds",
            "Planner time per cache-missing request.", labels,
        )
        wait_hist = reg.histogram(
            "repro_request_queue_wait_seconds",
            "Queue wait per request.", labels,
        )
        for stats in entries:
            service_hist.observe(stats.service_seconds)
            wait_hist.observe(stats.queue_wait_seconds)
            if not stats.cache_hit and not stats.coalesced:
                planning_hist.observe(stats.planning_seconds)

    def _publish_http(self, gateway) -> None:
        requests_by_endpoint, responses_by_status = gateway.http_counters()
        for path, count in requests_by_endpoint.items():
            self.registry.counter(
                "repro_http_requests_total",
                "Handled HTTP exchanges by endpoint.", {"path": path},
            ).set_total(count)
        for status, count in responses_by_status.items():
            self.registry.counter(
                "repro_http_responses_total",
                "HTTP responses by status code.", {"status": str(status)},
            ).set_total(count)

    def _publish_shadow(self, stats) -> None:
        reg = self.registry

        def counter(metric: str, help_text: str, value: float) -> None:
            reg.counter(metric, help_text).set_total(value)

        counter("repro_shadow_observed_total", "Requests the shadower saw.",
                stats.observed)
        counter("repro_shadow_sampled_total", "Requests sampled into the ring.",
                stats.sampled)
        counter("repro_shadow_dropped_total", "Samples evicted (ring full).",
                stats.dropped)
        counter("repro_shadow_replayed_total", "Queries replanned both ways.",
                stats.replayed)
        counter("repro_shadow_rollbacks_total",
                "Automatic live-traffic rollbacks.", stats.rollbacks)
        counter("repro_shadow_errors_total", "Shadow replans that failed.",
                stats.errors)
        reg.gauge(
            "repro_shadow_armed", "Whether a candidate is being monitored.",
            aggregation="max",
        ).set(int(stats.armed))
        reg.gauge(
            "repro_shadow_rolling_regression",
            "Cost-weighted candidate/baseline regression over the window.",
            aggregation="mean",
        ).set(stats.rolling_regression)
        reg.gauge(
            "repro_shadow_worst_regression",
            "Largest single-query regression in the window.",
            aggregation="max",
        ).set(stats.worst_regression)
        reg.gauge(
            "repro_shadow_window_samples", "Live samples in the rolling window."
        ).set(stats.window_samples)

    def _publish_experience(self, metrics) -> None:
        reg = self.registry

        def counter(metric: str, help_text: str, value: float) -> None:
            reg.counter(metric, help_text).set_total(value)

        reg.gauge(
            "repro_experience_running",
            "Whether the trainer loop is alive.", aggregation="max",
        ).set(int(metrics.running))
        counter("repro_experience_rounds_total", "Fine-tune rounds completed.",
                metrics.rounds)
        counter("repro_experience_promotions_total",
                "Rounds whose candidate was promoted.", metrics.promotions)
        counter("repro_experience_rejections_total",
                "Rounds the gate refused.", metrics.rejections)
        counter("repro_experience_failures_total", "Rounds that errored.",
                metrics.failures)
        counter("repro_experience_rollbacks_total",
                "Loop promotions rolled back by live traffic.", metrics.rollbacks)
        counter("repro_experience_trained_examples_total",
                "Training points consumed.", metrics.trained_examples)
        reg.gauge(
            "repro_experience_last_round_seconds",
            "Duration of the most recent round.", aggregation="max",
        ).set(metrics.last_round_seconds)
        reg.gauge(
            "repro_experience_promotions_paused",
            "Whether the watchtower has gated autonomous promotions.",
            aggregation="max",
        ).set(int(getattr(metrics, "promotions_paused", False)))
        if metrics.cost_trend:
            reg.gauge(
                "repro_experience_cost_trend_latest",
                "Latest windowed mean executed cost.", aggregation="mean",
            ).set(metrics.cost_trend[-1])
        _publish_numbers(
            reg, "repro_experience_sink", metrics.sink.to_json_dict(),
            help_text="Request-path experience sink.",
        )
        _publish_numbers(
            reg, "repro_experience_buffer", metrics.buffer.to_json_dict(),
            help_text="Replay buffer.",
        )
