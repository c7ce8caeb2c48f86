"""Tests for the watchtower: profiling, SLO burn rates, alerts, actions.

Covers the unit layer (sampling profiler + folded-stack merge/flamegraph,
burn-rate math with an injected clock, the pending → firing → resolved alert
state machine, gauge-aggregation merge edge cases), the gateway integration
(``/v1/traces/<trace_id>``, ``/v1/profile``, ``/v1/alerts``, watchtower
series on ``/metrics``), and the acceptance drill end to end: an injected
latency regression drives an SLO alert from pending to firing on the event
bus, pauses online-trainer promotions and tightens the traffic shadower,
then resolves after recovery — with zero failed foreground requests.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.costmodel.cout import CoutCostModel
from repro.experience import OnlineTrainerLoop
from repro.lifecycle import ModelLifecycle, ModelRegistry, ShadowEvaluator
from repro.model.value_network import ValueNetwork, ValueNetworkConfig
from repro.search.beam import BeamSearchPlanner
from repro.server import PlanningServer, TrafficShadower
from repro.service.service import PlannerService
from repro.telemetry import (
    AlertManager,
    MetricsRegistry,
    SamplingProfiler,
    SeriesIndex,
    SloEvaluator,
    SloObjective,
    default_slo_objectives,
    emit_event,
    flamegraph_from_profile,
    get_event_bus,
    merge_profiles,
    merge_snapshots,
    new_trace_id,
)
from repro.telemetry import alerts, profiling, slo
from repro.telemetry.profiling import (
    get_profiler,
    start_profiler,
    stop_profiler,
    write_profile_atomic,
)
from repro.workloads.benchmark import make_job_benchmark


def small_planner() -> BeamSearchPlanner:
    return BeamSearchPlanner(beam_size=2, top_k=2, enumerate_scan_operators=False)


@pytest.fixture(scope="module")
def bench():
    return make_job_benchmark(
        fact_rows=200, num_queries=6, num_templates=3, test_size=2,
        seed=3, size_range=(3, 4),
    )


@pytest.fixture(scope="module")
def network(bench) -> ValueNetwork:
    return ValueNetwork(
        bench.featurizer,
        ValueNetworkConfig(
            query_hidden=16, query_embedding=8, tree_channels=(16, 8),
            head_hidden=8, seed=3,
        ),
    )


def http(method: str, url: str, payload=None, headers=None, timeout: float = 30.0):
    data = None
    send_headers = dict(headers or {})
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        send_headers["Content-Type"] = "application/json"
    request = urllib.request.Request(
        url, data=data, method=method, headers=send_headers
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return (
                response.status,
                json.loads(response.read().decode("utf-8")),
                dict(response.headers),
            )
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8")), dict(error.headers)


# ---------------------------------------------------------------------- #
# Sampling profiler
# ---------------------------------------------------------------------- #
def _watchtower_spin_loop(stop: threading.Event) -> None:
    """Distinctively named so its frames are findable in folded stacks."""
    while not stop.is_set():
        sum(range(256))


class TestSamplingProfiler:
    def test_sampler_sees_a_busy_thread(self):
        stop = threading.Event()
        worker = threading.Thread(target=_watchtower_spin_loop, args=(stop,))
        worker.start()
        profiler = SamplingProfiler(process="unit")
        profiler.start()
        try:
            time.sleep(0.15)
        finally:
            profiler.stop()
            stop.set()
            worker.join()
        snapshot = profiler.snapshot()
        assert snapshot["process"] == "unit"
        assert snapshot["samples"] > 0
        assert snapshot["duration_seconds"] > 0.0
        assert any(
            "_watchtower_spin_loop" in stack for stack in snapshot["stacks"]
        ), snapshot["stacks"]
        # Folded keys are root-first file:function frames.
        assert all(":" in key for key in snapshot["stacks"])

    def test_merge_sums_stacks_and_skips_garbage(self):
        one = {
            "process": "a", "samples": 2, "threads_sampled": 2,
            "duration_seconds": 1.0, "stacks": {"f:x;f:y": 2},
        }
        two = {
            "process": "b", "samples": 3, "threads_sampled": 4,
            "duration_seconds": 0.5, "stacks": {"f:x;f:y": 1, "f:z": 3},
        }
        merged = merge_profiles([one, None, 42, {"stacks": "not-a-dict"}, two])
        assert merged["stacks"] == {"f:x;f:y": 3, "f:z": 3}
        assert merged["samples"] == 5
        assert merged["threads_sampled"] == 6
        assert merged["duration_seconds"] == pytest.approx(1.5)
        assert merged["processes"] == ["a", "b"]

    def test_flamegraph_tree_shape_and_ordering(self):
        profile = {"stacks": {"a:f;b:g": 3, "a:f;c:h": 1, "d:i": 2}}
        tree = flamegraph_from_profile(profile)
        assert tree["name"] == "all" and tree["value"] == 6
        # Children sort by descending value.
        names = [child["name"] for child in tree["children"]]
        assert names == ["a:f", "d:i"]
        root_af = tree["children"][0]
        assert root_af["value"] == 4
        assert [c["value"] for c in root_af["children"]] == [3, 1]
        assert "children" not in tree["children"][1]

    def test_distinct_stack_bound_folds_into_overflow(self, monkeypatch):
        monkeypatch.setattr(profiling, "MAX_DISTINCT_STACKS", 0)
        stop = threading.Event()
        worker = threading.Thread(target=_watchtower_spin_loop, args=(stop,))
        worker.start()
        profiler = SamplingProfiler()
        try:
            assert profiler.sample_once() >= 1
        finally:
            stop.set()
            worker.join()
        assert set(profiler.snapshot()["stacks"]) == {"<overflow>"}

    def test_global_profiler_is_refcounted(self):
        first = start_profiler(process="ref-test")
        second = start_profiler()
        try:
            assert first is not None and second is first
            assert get_profiler() is first and first.running
            stop_profiler()  # one release: still running for the other holder
            assert get_profiler() is first and first.running
        finally:
            stop_profiler()
        assert get_profiler() is None
        assert not first.running

    def test_env_kill_switch_disables_acquisition(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "0")
        assert start_profiler() is None
        assert get_profiler() is None

    def test_atomic_profile_write_round_trips(self, tmp_path):
        path = str(tmp_path / "profile.json")
        write_profile_atomic({"stacks": {"a:b": 1}, "samples": 1}, path)
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle)["stacks"] == {"a:b": 1}


# ---------------------------------------------------------------------- #
# SLO burn-rate evaluation
# ---------------------------------------------------------------------- #
def _counter_snapshot(bad: float, total: float) -> dict:
    return {
        "metrics": [
            {"name": "t_bad_total", "kind": "counter", "labels": {}, "value": bad},
            {"name": "t_events_total", "kind": "counter", "labels": {}, "value": total},
        ]
    }


def set_windows(monkeypatch, fast: float, slow: float) -> None:
    """Shrink the burn-rate windows to a unit test's time scale."""
    monkeypatch.setattr(slo, "FAST_WINDOW_SECONDS", fast)
    monkeypatch.setattr(slo, "SLOW_WINDOW_SECONDS", slow)


def _ratio_objective(objective: float = 0.9, threshold: float = 2.0) -> SloObjective:
    return SloObjective(
        name="unit_ratio",
        objective=objective,
        extract=lambda index: (
            index.value("t_bad_total"), index.value("t_events_total")
        ),
        burn_threshold=threshold,
    )


class TestSloEvaluator:
    def test_burn_rate_math_over_both_windows(self, monkeypatch):
        set_windows(monkeypatch, 5.0, 20.0)
        evaluator = SloEvaluator([_ratio_objective(objective=0.9, threshold=2.0)])
        evaluator.observe(_counter_snapshot(0, 0), now=0.0)
        evaluator.observe(_counter_snapshot(0, 100), now=1.0)
        # 50 bad of 100 new events: ratio 0.5 against a 0.1 budget -> burn 5.
        (status,) = evaluator.observe(_counter_snapshot(50, 200), now=2.0)
        assert status.fast_burn_rate == pytest.approx(50 / 200 / 0.1)
        assert status.slow_burn_rate == pytest.approx(50 / 200 / 0.1)
        assert status.breaching

    def test_fast_window_recovers_before_slow(self, monkeypatch):
        set_windows(monkeypatch, 2.0, 30.0)
        evaluator = SloEvaluator([_ratio_objective(objective=0.9, threshold=2.0)])
        evaluator.observe(_counter_snapshot(0, 0), now=0.0)
        evaluator.observe(_counter_snapshot(40, 100), now=1.0)  # bad burst
        # Then a clean stretch: fast window sees only good events, slow
        # window still remembers the burst -> no longer breaching (AND).
        (status,) = evaluator.observe(_counter_snapshot(40, 500), now=5.0)
        assert status.fast_burn_rate == 0.0
        assert status.slow_burn_rate > 0.0
        assert not status.breaching

    def test_counter_reset_restarts_history(self, monkeypatch):
        set_windows(monkeypatch, 5.0, 5.0)
        evaluator = SloEvaluator([_ratio_objective()])
        evaluator.observe(_counter_snapshot(50, 100), now=0.0)
        # A restarted process reports smaller cumulative counters; deltas
        # against the old history would be negative, so it resets instead.
        (status,) = evaluator.observe(_counter_snapshot(0, 10), now=1.0)
        assert status.fast_burn_rate == 0.0 and not status.breaching

    def test_extractor_errors_count_as_no_evidence(self, monkeypatch):
        def boom(index):
            raise KeyError("missing subsystem")

        objective = SloObjective(name="boom", objective=0.9, extract=boom)
        set_windows(monkeypatch, 1.0, 1.0)
        evaluator = SloEvaluator([objective])
        (status,) = evaluator.observe(_counter_snapshot(1, 1), now=0.0)
        assert status.event_total == 0.0 and not status.breaching

    def test_histogram_split_rounds_toward_bad(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t_lat_seconds", "t", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            hist.observe(value)
        index = SeriesIndex(registry.snapshot())
        # Threshold on a bound: buckets at or under 0.1 are good.
        assert index.histogram_split("t_lat_seconds", 0.1) == (2.0, 4.0)
        # Threshold between bounds rounds toward flagging more bad: the
        # (0.01, 0.1] bucket cannot be proven under 0.05, so it counts bad.
        assert index.histogram_split("t_lat_seconds", 0.05) == (3.0, 4.0)

    def test_default_objectives_cover_the_five_slos(self):
        names = {o.name for o in default_slo_objectives()}
        assert names == {
            "served_latency_p99",
            "http_error_rate",
            "plan_cache_hit_rate",
            "scorer_crash_rate",
            "sink_drop_rate",
        }

    @pytest.mark.parametrize("status,fires", [(504, False), (500, True), (503, True)])
    def test_http_error_rate_leaves_out_budget_cuts(self, status, fires, monkeypatch):
        """Two zero-budget 504s in eight responses are the clients' own
        deadlines, not gateway errors; two 500s or 503s burn the budget."""
        (objective,) = [
            o for o in default_slo_objectives() if o.name == "http_error_rate"
        ]
        set_windows(monkeypatch, 5.0, 5.0)
        evaluator = SloEvaluator([objective])
        registry = MetricsRegistry()

        def respond(code: int, times: int) -> None:
            registry.counter(
                "repro_http_responses_total", "HTTP responses by status code.",
                {"status": str(code)},
            ).inc(times)

        evaluator.observe(registry.snapshot(), now=0.0)
        respond(200, 6)
        respond(status, 2)
        (verdict,) = evaluator.observe(registry.snapshot(), now=1.0)
        assert verdict.event_total == 8.0
        assert verdict.bad_total == (2.0 if fires else 0.0)
        assert verdict.breaching is fires

    def test_objective_validation(self):
        with pytest.raises(ValueError):
            SloEvaluator([_ratio_objective(), _ratio_objective()])
        with pytest.raises(ValueError):
            SloObjective(name="x", objective=1.5, extract=lambda i: (0, 0))


# ---------------------------------------------------------------------- #
# Alert state machine
# ---------------------------------------------------------------------- #
class TestAlertManager:
    @pytest.fixture(autouse=True)
    def unit_timings(self, monkeypatch):
        """Windows, pending time and renotify interval on the tests' clock."""
        set_windows(monkeypatch, 100.0, 100.0)
        monkeypatch.setattr(alerts, "PENDING_FOR_SECONDS", 2.0)
        monkeypatch.setattr(alerts, "RENOTIFY_INTERVAL_SECONDS", 10.0)

    def make_manager(self):
        events: list[dict] = []

        def emit(kind, **fields):
            events.append({"kind": kind, **fields})

        evaluator = SloEvaluator([_ratio_objective(objective=0.9, threshold=2.0)])
        return AlertManager(evaluator, emit=emit), events

    def test_pending_to_firing_to_resolved(self):
        manager, events = self.make_manager()
        manager.evaluate(_counter_snapshot(0, 0), now=0.0)
        manager.evaluate(_counter_snapshot(90, 100), now=1.0)  # breach begins
        assert manager.pending() == ["unit_ratio"] and not events

        manager.evaluate(_counter_snapshot(180, 200), now=2.0)  # still pending
        assert manager.pending() == ["unit_ratio"] and not events

        manager.evaluate(_counter_snapshot(270, 300), now=3.5)  # past pending_for
        assert manager.firing() == ["unit_ratio"]
        assert len(events) == 1 and events[0]["state"] == "firing"
        assert events[0]["kind"] == "alert" and events[0]["notify_count"] == 1

        # Firing again inside the renotify interval: deduped, no new event.
        manager.evaluate(_counter_snapshot(360, 400), now=4.0)
        assert len(events) == 1

        # Past the renotify interval: one repeat notification.
        manager.evaluate(_counter_snapshot(450, 500), now=14.0)
        assert len(events) == 2 and events[1]["notify_count"] == 2

        # Recovery: only good events from here; both burn windows are wide,
        # so feed enough good traffic to dilute the bad fraction under
        # threshold * budget (0.2).
        manager.evaluate(_counter_snapshot(450, 5000), now=15.0)
        assert manager.firing() == [] and manager.pending() == []
        assert events[-1]["state"] == "resolved"
        payload = manager.to_json_dict()
        assert [a["name"] for a in payload["recently_resolved"]] == ["unit_ratio"]
        alert = payload["recently_resolved"][0]
        assert alert["fired_at"] > alert["since"]  # it passed through pending
        assert payload["evaluations"] == 7

    def test_pending_blip_is_absorbed_silently(self):
        manager, events = self.make_manager()
        manager.evaluate(_counter_snapshot(0, 0), now=0.0)
        manager.evaluate(_counter_snapshot(90, 100), now=1.0)
        assert manager.pending() == ["unit_ratio"]
        manager.evaluate(_counter_snapshot(90, 5000), now=2.0)  # recovered in time
        assert manager.pending() == [] and manager.firing() == []
        assert not events  # never fired, never notified
        assert manager.to_json_dict()["recently_resolved"] == []

    def test_listener_runs_on_state_changes_only(self, monkeypatch):
        monkeypatch.setattr(alerts, "PENDING_FOR_SECONDS", 0.0)
        manager, _ = self.make_manager()
        calls: list[list[str]] = []
        manager.add_listener(lambda m: calls.append(m.firing()))
        manager.evaluate(_counter_snapshot(0, 0), now=0.0)
        assert calls == []  # nothing breaching, no transition
        manager.evaluate(_counter_snapshot(90, 100), now=1.0)
        assert calls[-1] == ["unit_ratio"]  # pending_for=0 -> fires immediately
        steady = len(calls)
        manager.evaluate(_counter_snapshot(180, 200), now=2.0)  # still firing
        assert len(calls) == steady
        manager.evaluate(_counter_snapshot(180, 9000), now=3.0)  # resolve
        assert len(calls) == steady + 1 and calls[-1] == []

    def test_broken_listener_does_not_stop_evaluation(self, monkeypatch):
        monkeypatch.setattr(alerts, "PENDING_FOR_SECONDS", 0.0)
        manager, events = self.make_manager()

        def broken(_manager):
            raise RuntimeError("action failed")

        manager.add_listener(broken)
        manager.evaluate(_counter_snapshot(0, 0), now=0.0)
        manager.evaluate(_counter_snapshot(90, 100), now=1.0)
        assert manager.firing() == ["unit_ratio"]
        assert events and events[0]["state"] == "firing"

    def test_start_requires_snapshot_fn(self):
        manager, _ = self.make_manager()
        with pytest.raises(ValueError):
            manager.start()

    def test_json_payload_lists_objectives_and_windows(self):
        manager, _ = self.make_manager()
        payload = manager.to_json_dict()
        assert payload["objectives"][0]["name"] == "unit_ratio"
        assert payload["windows"]["pending_for_seconds"] == 2.0
        assert payload["windows"]["renotify_interval_seconds"] == 10.0
        assert payload["firing"] == [] and payload["active"] == []


# ---------------------------------------------------------------------- #
# Snapshot merging: gauge-aggregation edge cases (satellite)
# ---------------------------------------------------------------------- #
def _gauge_entry(name: str, value: float, aggregation: str | None = None) -> dict:
    entry = {"name": name, "kind": "gauge", "help": "t", "labels": {}, "value": value}
    if aggregation is not None:
        entry["aggregation"] = aggregation
    return entry


class TestMergeSnapshotGaugeModes:
    def test_mean_min_last_modes(self):
        snapshots = [
            {"metrics": [
                _gauge_entry("t_mean", 2.0, "mean"),
                _gauge_entry("t_min", 2.0, "min"),
                _gauge_entry("t_last", 2.0, "last"),
            ]},
            {"metrics": [
                _gauge_entry("t_mean", 4.0, "mean"),
                _gauge_entry("t_min", 4.0, "min"),
                _gauge_entry("t_last", 4.0, "last"),
            ]},
            {"metrics": [
                _gauge_entry("t_mean", 9.0, "mean"),
                _gauge_entry("t_min", 1.0, "min"),
                _gauge_entry("t_last", 7.0, "last"),
            ]},
        ]
        values = {
            m["name"]: m["value"] for m in merge_snapshots(snapshots)["metrics"]
        }
        assert values["t_mean"] == pytest.approx(5.0)
        assert values["t_min"] == 1.0
        assert values["t_last"] == 7.0

    def test_missing_aggregation_key_defaults_to_sum(self):
        # Snapshots from an older worker may omit the key entirely.
        snapshots = [
            {"metrics": [_gauge_entry("t_plain", 2.0)]},
            {"metrics": [_gauge_entry("t_plain", 3.0)]},
        ]
        (merged,) = merge_snapshots(snapshots)["metrics"]
        assert merged["value"] == 5.0

    def test_mixed_mode_conflict_keeps_the_first_seen_mode(self):
        snapshots = [
            {"metrics": [_gauge_entry("t_mixed", 2.0, "max")]},
            {"metrics": [_gauge_entry("t_mixed", 9.0, "min")]},
            {"metrics": [_gauge_entry("t_mixed", 5.0, "sum")]},
        ]
        (merged,) = merge_snapshots(snapshots)["metrics"]
        assert merged["value"] == 9.0  # max() governed the whole merge
        assert merged["aggregation"] == "max"

    def test_mixed_kind_conflict_drops_the_stray(self):
        snapshots = [
            {"metrics": [{"name": "t_kind", "kind": "counter", "labels": {},
                          "help": "t", "value": 3.0}]},
            {"metrics": [_gauge_entry("t_kind", 9.0, "sum")]},
        ]
        (merged,) = merge_snapshots(snapshots)["metrics"]
        assert merged["kind"] == "counter" and merged["value"] == 3.0


# ---------------------------------------------------------------------- #
# Gateway integration: the watchtower's HTTP surface
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def watch_gateway(bench, network):
    """A gateway with the stock watchtower (default alerts + profiler)."""
    service = PlannerService(
        network, planner=small_planner(), max_workers=2, cache_capacity=64,
        scoring_backend="process",
    )
    gateway = PlanningServer(service, queries=bench.all_queries())
    gateway.worker_id = 3
    gateway.start()
    yield gateway
    gateway.close()
    service.close()


class TestWatchtowerGatewaySurface:
    def test_single_trace_lookup(self, watch_gateway, bench):
        query = list(bench.train_queries)[0]
        trace_id = new_trace_id()
        status, body, _ = http(
            "POST", f"{watch_gateway.base_url}/v1/plan",
            {"query": query.name, "k": 2},
            headers={"X-Repro-Trace": trace_id},
        )
        assert status == 200, body
        status, body, _ = http(
            "GET", f"{watch_gateway.base_url}/v1/traces/{trace_id}"
        )
        assert status == 200
        assert body["trace"]["trace_id"] == trace_id
        assert body["trace"]["root"]["name"] == "/v1/plan"
        assert body["worker_id"] == 3

        status, body, _ = http(
            "GET", f"{watch_gateway.base_url}/v1/traces/{new_trace_id()}"
        )
        assert status == 404 and body["kind"] == "unknown_trace"

    def test_profile_endpoint_serves_merged_flamegraph(self, watch_gateway, bench):
        query = list(bench.train_queries)[0]
        # Give the sampler traffic and time to accrue samples.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            http(
                "POST", f"{watch_gateway.base_url}/v1/plan",
                {"query": query.name, "k": 2},
            )
            status, body, _ = http(
                "GET", f"{watch_gateway.base_url}/v1/profile"
            )
            assert status == 200
            if body["profile"]["samples"] > 0 and body["profile"]["stacks"]:
                break
            time.sleep(0.05)
        assert body["profile"]["samples"] > 0
        assert any(
            p.startswith("gateway") for p in body["profile"]["processes"]
        ), body["profile"]["processes"]
        flame = body["flamegraph"]
        assert flame["name"] == "all" and flame["value"] > 0 and flame["children"]

    def test_alerts_endpoint_and_healthy_scores(self, watch_gateway):
        status, body, _ = http("GET", f"{watch_gateway.base_url}/v1/alerts")
        assert status == 200
        assert body["firing"] == [] and body["pending"] == []
        assert len(body["objectives"]) == 5
        assert body["health_score"] == 1.0
        assert body["windows"]["fast_seconds"] > 0

        status, health, _ = http("GET", f"{watch_gateway.base_url}/healthz")
        assert status == 200 and health["status"] == "ok"
        assert health["health_score"] == 1.0
        assert health["alerts_firing"] == [] and health["alerts_pending"] == []

    def test_metrics_expose_watchtower_series(self, watch_gateway):
        with urllib.request.urlopen(
            f"{watch_gateway.base_url}/metrics", timeout=30
        ) as response:
            text = response.read().decode("utf-8")
        assert "repro_alerts_firing 0" in text
        assert "repro_health_score 1" in text
        assert "repro_profiler_samples_total" in text
        assert "repro_profiler_hz" in text


# ---------------------------------------------------------------------- #
# The acceptance drill: regression -> firing -> actions -> recovery
# ---------------------------------------------------------------------- #
class TestAlertDrillEndToEnd:
    def test_latency_regression_fires_pauses_and_resolves(self, bench, network, monkeypatch):
        queries = list(bench.train_queries)
        plan_cost = CoutCostModel(bench.estimator).cost
        service = PlannerService(
            network, planner=small_planner(), cache_capacity=64
        )
        registry = ModelRegistry()
        gate = ShadowEvaluator(
            queries[:2], plan_cost, planner=small_planner(),
            max_regression=25.0, max_total_regression=5.0,
        )
        lifecycle = ModelLifecycle(
            service, registry, gate, featurizer=bench.featurizer
        )
        lifecycle.baseline(network)
        loop = OnlineTrainerLoop(lifecycle, plan_cost, min_new_tuples=100_000)
        shadower = TrafficShadower(
            lifecycle, plan_cost,
            sample_fraction=0.5, min_samples=1_000, window=1_000,
            planner=small_planner(),
            max_regression=3.0, max_total_regression=2.0,
        )
        # Tight windows so the drill runs in seconds: only the latency SLO
        # can realistically trip (no 5xx, no crashes, no sink drops).
        set_windows(monkeypatch, 0.6, 1.5)
        monkeypatch.setattr(alerts, "PENDING_FOR_SECONDS", 0.2)
        monkeypatch.setattr(alerts, "RENOTIFY_INTERVAL_SECONDS", 60.0)
        monkeypatch.setattr(alerts, "INTERVAL_SECONDS", 0.05)
        gateway = PlanningServer(
            service, lifecycle=lifecycle, shadower=shadower, experience=loop,
            queries=bench.all_queries(), profile=False,
        )
        manager = gateway.alerts
        manager.evaluator = SloEvaluator(
            default_slo_objectives(latency_threshold_seconds=0.05, burn_threshold=3.0)
        )
        bus = get_event_bus()
        _, cursor = bus.since(bus.cursor)
        statuses: list[int] = []

        def drive(deadline: float, stop_when) -> None:
            while time.monotonic() < deadline:
                for query in queries[:3]:
                    status, body, _ = http(
                        "POST", f"{gateway.base_url}/v1/plan",
                        {"query": query.name, "k": 2},
                    )
                    assert status == 200, body
                    statuses.append(status)
                if stop_when():
                    return
                time.sleep(0.02)

        gateway.start()
        try:
            # Phase 1 — healthy traffic: warm the cache, no alerts.
            drive(time.monotonic() + 2.0, lambda: len(statuses) >= 9)
            assert manager.firing() == []
            assert not loop.promotions_paused and not shadower.degraded

            # Phase 2 — inject a latency regression: every service call now
            # takes ~80ms against the 50ms SLO threshold (still succeeding).
            original_handle = service._handle

            def slow_handle(envelope, submitted_at):
                time.sleep(0.08)
                return original_handle(envelope, submitted_at)

            service._handle = slow_handle
            drive(
                time.monotonic() + 20.0,
                lambda: "served_latency_p99" in manager.firing(),
            )
            assert manager.firing() == ["served_latency_p99"], (
                manager.to_json_dict()
            )
            # Protective actions engaged: promotions paused, shadower tight.
            assert loop.promotions_paused
            assert loop.pause_reason == "served_latency_p99"
            assert shadower.degraded
            stats = shadower.stats()
            assert stats.effective_max_regression < 3.0
            _, health, _ = http("GET", f"{gateway.base_url}/healthz")
            assert health["status"] == "degraded"
            assert health["alerts_firing"] == ["served_latency_p99"]
            # The alert passed through pending before firing.
            _, alerts_body, _ = http("GET", f"{gateway.base_url}/v1/alerts")
            (active,) = alerts_body["active"]
            assert active["state"] == "firing"
            assert active["fired_at"] > active["since"]

            # Phase 3 — recovery: restore the fast path; fresh good traffic
            # drains both burn windows and the alert resolves.
            service._handle = original_handle
            drive(
                time.monotonic() + 20.0,
                lambda: manager.firing() == [] and not loop.promotions_paused,
            )
            assert manager.firing() == [] and manager.pending() == []
            assert not loop.promotions_paused and loop.pause_reason is None
            assert not shadower.degraded
            _, health, _ = http("GET", f"{gateway.base_url}/healthz")
            assert health["status"] == "ok" and health["health_score"] == 1.0
            resolved = manager.to_json_dict()["recently_resolved"]
            assert any(a["name"] == "served_latency_p99" for a in resolved)

            # The whole lifecycle rode the event bus: firing then resolved.
            events, _ = bus.since(cursor)
            alert_events = [
                e.to_json_dict() for e in events
                if e.to_json_dict().get("kind") == "alert"
            ]
            states = [
                e["state"] for e in alert_events
                if e.get("name") == "served_latency_p99"
            ]
            assert "firing" in states and "resolved" in states
            assert states.index("firing") < states.index("resolved")

            # Zero failed foreground requests across the whole drill.
            assert statuses and all(code == 200 for code in statuses)
        finally:
            gateway.close()
            shadower.close()
            loop.close()
            service.close()

    def test_alert_events_stream_as_sse_alert_frames(self, watch_gateway):
        url = (
            f"{watch_gateway.base_url}/v1/metrics/stream"
            "?interval=0.05&max_events=200"
        )
        lines: list[str] = []

        def consume() -> None:
            with urllib.request.urlopen(url, timeout=30) as response:
                deadline = time.monotonic() + 15
                while time.monotonic() < deadline:
                    line = response.readline()
                    if not line:
                        break
                    decoded = line.decode("utf-8")
                    lines.append(decoded)
                    if '"slo_drill_probe"' in decoded:
                        break

        reader = threading.Thread(target=consume)
        reader.start()
        time.sleep(0.3)  # the stream is up; now publish an alert event
        emit_event(
            "alert", name="slo_drill_probe", state="firing", fast_burn_rate=9.0
        )
        reader.join(timeout=20)
        assert not reader.is_alive(), "SSE reader did not finish"
        text = "".join(lines)
        blocks = [b for b in text.split("\n\n") if b.strip()]
        alert_blocks = [b for b in blocks if b.startswith("event: alert")]
        assert alert_blocks, text[-800:]
        payload = json.loads(alert_blocks[0].split("data: ", 1)[1])
        assert payload["kind"] == "alert"
        assert payload["name"] == "slo_drill_probe"
        assert payload["state"] == "firing"
