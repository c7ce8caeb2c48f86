"""Tests for the telemetry subsystem: tracing, metrics, events, streaming.

Covers the unit layer (registry exposition and merging, span trees, ring
bounds, the event bus, JSON logging), the gateway integration (a ``/v1/plan``
request producing one trace whose spans cross the scorer *process* and the
shared-cache *server*, Prometheus exposition covering every subsystem, worker
headers on error responses, SSE lifecycle events), and the fleet layer (a
2-worker :class:`~repro.server.sharding.ShardedGateway` whose supervisor
serves worker-merged ``/metrics``).
"""

from __future__ import annotations

import json
import logging
import math
import random
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.costmodel.cout import CoutCostModel
from repro.experience import ExperienceMetrics
from repro.lifecycle import ModelLifecycle, ModelRegistry
from repro.model.value_network import ValueNetwork, ValueNetworkConfig
from repro.search.beam import BeamSearchPlanner
from repro.server import PlanningServer, TrafficShadower
from repro.server.shadow_traffic import ShadowTrafficStats
from repro.server.sharding import (
    PlanCacheServer,
    ShardedGateway,
    SharedCacheClient,
    TelemetryPushClient,
    TelemetrySnapshotServer,
    WorkerSpec,
)
from repro.service.cache import TieredPlanCache
from repro.service.service import PlannerService
from repro.telemetry import (
    EventBus,
    JsonLogFormatter,
    MetricsRegistry,
    add_span,
    current_trace_id,
    emit_event,
    enabled,
    get_event_bus,
    get_tracer,
    merge_snapshots,
    new_trace_id,
    render_snapshot,
    set_enabled,
    set_log_context,
    span,
    start_trace,
    valid_trace_id,
)
from repro.telemetry.metrics import gauge_entries
from repro.telemetry.trace import Trace, Tracer
from repro.workloads.benchmark import make_job_benchmark


def small_planner() -> BeamSearchPlanner:
    return BeamSearchPlanner(beam_size=2, top_k=2, enumerate_scan_operators=False)


@pytest.fixture(scope="module")
def bench():
    return make_job_benchmark(
        fact_rows=200, num_queries=6, num_templates=3, test_size=2,
        seed=2, size_range=(3, 4),
    )


@pytest.fixture(scope="module")
def network(bench) -> ValueNetwork:
    """Untrained but servable: telemetry cares about spans, not plan quality."""
    return ValueNetwork(
        bench.featurizer,
        ValueNetworkConfig(
            query_hidden=16, query_embedding=8, tree_channels=(16, 8),
            head_hidden=8, seed=2,
        ),
    )


def http(method: str, url: str, payload=None, headers=None, timeout: float = 30.0):
    """One JSON HTTP exchange; returns (status, body, response headers)."""
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


def fetch_text(url: str, timeout: float = 30.0) -> tuple[int, str]:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, response.read().decode("utf-8")


def span_index(trace_json: dict) -> dict:
    """Flatten a trace's span tree into {name: span_dict} (pre-order)."""
    index: dict = {}

    def walk(node: dict) -> None:
        index.setdefault(node["name"], node)
        for child in node.get("spans", []):
            walk(child)

    walk(trace_json["root"])
    return index


def span_names(node: dict) -> tuple:
    """A rendered span tree as ``(name, [children])``."""
    return (node["name"], [span_names(child) for child in node.get("spans", [])])


def untimed(node: dict) -> dict:
    """A rendered span tree without its clock readings."""
    kept = {key: value for key, value in node.items() if not key.endswith("_ms")}
    if "spans" in kept:
        kept["spans"] = [untimed(child) for child in kept["spans"]]
    return kept


# ---------------------------------------------------------------------- #
# Metrics registry
# ---------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_counter_gauge_histogram_render(self):
        registry = MetricsRegistry()
        registry.counter("t_requests_total", "Requests.", {"planner": "a"}).inc(3)
        registry.gauge("t_pending", "Pending.").set(2.5)
        hist = registry.histogram("t_seconds", "Latency.")
        hist.observe(0.0002)
        hist.observe(100.0)  # beyond the last bound -> +Inf bucket
        text = render_snapshot(registry.snapshot())
        assert "# HELP t_requests_total Requests." in text
        assert "# TYPE t_requests_total counter" in text
        assert 't_requests_total{planner="a"} 3' in text
        assert "t_pending 2.5" in text
        assert 't_seconds_bucket{le="+Inf"} 2' in text
        assert "t_seconds_count 2" in text
        # Buckets are cumulative: every bound above 0.0002 already counts it.
        assert 't_seconds_bucket{le="0.00025"} 1' in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("t_total", "t", {"q": 'he said "hi"\n'}).inc()
        text = render_snapshot(registry.snapshot())
        assert 't_total{q="he said \\"hi\\"\\n"} 1' in text

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("t_metric", "t")
        with pytest.raises(ValueError):
            registry.gauge("t_metric", "t")

    def test_merge_sums_counters_and_histograms(self):
        snapshots = []
        for value in (3, 4):
            registry = MetricsRegistry()
            registry.counter("t_total", "t", {"planner": "a"}).inc(value)
            registry.histogram("t_seconds", "t").observe(0.01)
            snapshots.append(registry.snapshot())
        merged = merge_snapshots(snapshots)
        text = render_snapshot(merged)
        assert 't_total{planner="a"} 7' in text
        assert "t_seconds_count 2" in text

    def test_merge_gauges_by_aggregation(self):
        snapshots = []
        for value in (2.0, 4.0):
            registry = MetricsRegistry()
            registry.gauge("t_sum", "t").set(value)
            registry.gauge("t_max", "t", aggregation="max").set(value)
            registry.gauge("t_mean", "t", aggregation="mean").set(value)
            snapshots.append(registry.snapshot())
        values = {
            metric["name"]: metric["value"]
            for metric in merge_snapshots(snapshots)["metrics"]
        }
        assert values["t_sum"] == 6.0
        assert values["t_max"] == 4.0
        assert values["t_mean"] == 3.0

    def test_fleet_hit_rate_weighs_workers_by_their_requests(self):
        """A busy worker at 100 % hits and an idle one at 0 %: the fleet's
        rate is hits over requests (0.990), not the mean of the two (0.5)."""
        snapshots = []
        for requests, hits in ((1000, 1000), (10, 0)):
            registry = MetricsRegistry()
            for planner, scale in (("default", 1), ("expert", 2)):
                labels = {"planner": planner}
                registry.counter("repro_service_requests_total", "r", labels).inc(requests * scale)
                registry.counter("repro_service_cache_hits_total", "h", labels).inc(hits)
                registry.gauge(
                    "repro_service_cache_hit_rate", "rate", labels, aggregation="mean"
                ).set(hits / (requests * scale))
            snapshots.append(registry.snapshot())
        rates = {
            metric["labels"]["planner"]: metric["value"]
            for metric in merge_snapshots(snapshots)["metrics"]
            if metric["name"] == "repro_service_cache_hit_rate"
        }
        assert rates["default"] == pytest.approx(1000 / 1010)
        assert rates["expert"] == pytest.approx(1000 / 2020)

    def test_fleet_shared_hit_rate_weighs_workers_by_their_lookups(self):
        """The shared-tier client's stats are ``sum`` gauges, yet two workers
        at 0.5 must not merge to 1.0: the fleet's rate is its hits over its
        lookups, whatever each worker's share of them."""
        snapshots = []
        for hits, misses in ((50, 50), (1, 1), (0, 8)):
            registry = MetricsRegistry()
            lookups = hits + misses
            registry.add_reader(
                lambda hits=hits, misses=misses, lookups=lookups: gauge_entries(
                    "repro_shared_cache_client", "client",
                    {
                        "shared_hits": hits,
                        "shared_misses": misses,
                        "shared_hit_rate": hits / lookups,
                    },
                )
            )
            snapshots.append(registry.snapshot())
        values = {
            metric["name"]: metric["value"]
            for metric in merge_snapshots(snapshots)["metrics"]
        }
        assert values["repro_shared_cache_client_shared_hits"] == 51
        assert values["repro_shared_cache_client_shared_hit_rate"] == pytest.approx(
            51 / 110
        )


# ---------------------------------------------------------------------- #
# Tracing
# ---------------------------------------------------------------------- #
class TestTracing:
    def test_span_tree_nesting_and_annotations(self):
        with start_trace("/v1/plan") as trace:
            with span("outer", k=2):
                with span("inner"):
                    pass
            trace_id = trace.trace_id
        recorded = get_tracer().find(trace_id)
        assert recorded is not None
        index = span_index(recorded.to_json_dict())
        assert {"outer", "inner"} <= set(index)
        assert index["outer"]["annotations"] == {"k": 2}
        assert index["inner"] in index["outer"]["spans"]

    def test_grafted_span_backdates_its_start(self):
        with start_trace("/x") as trace:
            add_span("remote.work", 0.25, process="scorer-1", examples=4)
            trace_id = trace.trace_id
        recorded = get_tracer().find(trace_id)
        grafted = span_index(recorded.to_json_dict())["remote.work"]
        assert grafted["process"] == "scorer-1"
        assert grafted["duration_ms"] == pytest.approx(250.0)
        assert grafted["start_ms"] >= 0.0

    def test_a_raising_span_restores_its_parent_as_the_open_span(self):
        with pytest.raises(KeyError):
            with start_trace("/raises") as trace:
                with span("outer"):
                    with pytest.raises(ValueError):
                        with span("inner"):
                            with span("innermost"):
                                raise ValueError
                    with span("after"):
                        pass
                    add_span("outer.graft", 0.001, process="scorer-0")
                add_span("root.graft", 0.001)
                with span("sibling"):
                    raise KeyError
        assert current_trace_id() is None
        assert get_tracer().find(trace.trace_id) is trace
        assert span_names(trace.to_json_dict()["root"]) == (
            "/raises", [
                ("outer", [
                    ("inner", [("innermost", [])]),
                    ("after", []),
                    ("outer.graft", []),
                ]),
                ("root.graft", []),
                ("sibling", []),
            ],
        )

    def test_traces_on_concurrent_threads_keep_their_own_spans(self):
        """Each thread's trace holds only its own spans, without a per-trace
        lock, and the ring counts every trace (more threads than cores,
        a short switch interval)."""
        threads_count, per_thread = 8, 150
        done: dict[int, list] = {}
        start = threading.Barrier(threads_count)

        def serve(worker: int) -> None:
            start.wait()
            traces = done[worker] = []
            for _ in range(per_thread):
                with start_trace(f"/w{worker}") as trace:
                    with span(f"outer{worker}"):
                        with span(f"inner{worker}"):
                            add_span(f"graft{worker}", 0.0001)
                    with span(f"after{worker}"):
                        pass
                traces.append(trace)

        recorded = get_tracer()._recorded
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [
                threading.Thread(target=serve, args=(worker,))
                for worker in range(threads_count)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(60.0)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert get_tracer()._recorded - recorded == threads_count * per_thread
        for worker, traces in done.items():
            assert len(traces) == per_thread
            for trace in traces:
                assert span_names(trace.to_json_dict()["root"]) == (
                    f"/w{worker}", [
                        (f"outer{worker}", [
                            (f"inner{worker}", [(f"graft{worker}", [])]),
                        ]),
                        (f"after{worker}", []),
                    ],
                )

    def test_a_grafted_remote_span_renders_the_pinned_tree(self):
        with start_trace("/v1/plan", trace_id="graft-1") as trace:
            with span("search"):
                with span("scoring", plans=4):
                    add_span("scoring.forward", 0.002, process="scorer-0", examples=4)
            trace.annotate(status=200)
        rendered = get_tracer().find("graft-1").to_json_dict()
        assert list(rendered) == ["trace_id", "path", "started_at", "duration_ms", "root"]
        assert (rendered["trace_id"], rendered["path"]) == ("graft-1", "/v1/plan")
        assert rendered["duration_ms"] == rendered["root"]["duration_ms"]
        assert untimed(rendered["root"]) == {
            "name": "/v1/plan", "annotations": {"status": 200}, "spans": [{
                "name": "search", "spans": [{
                    "name": "scoring", "annotations": {"plans": 4}, "spans": [{
                        "name": "scoring.forward", "process": "scorer-0",
                        "annotations": {"examples": 4},
                    }],
                }],
            }],
        }
        root = rendered["root"]
        scoring = root["spans"][0]["spans"][0]
        graft = scoring["spans"][0]
        assert list(root) == ["name", "start_ms", "duration_ms", "annotations", "spans"]
        assert list(graft) == ["name", "start_ms", "duration_ms", "process", "annotations"]
        assert root["start_ms"] == 0.0
        assert graft["duration_ms"] == 2.0
        # Back-dated by its remote duration, never before the trace began.
        assert 0.0 <= graft["start_ms"] < scoring["start_ms"] + scoring["duration_ms"]

    def test_ring_is_bounded_and_counter_is_not(self):
        tracer = Tracer(ring_size=4)
        for index in range(10):
            trace = Trace(f"/q{index}")
            trace.finish()
            tracer.record(trace)
        payload = tracer.to_json_dict()
        assert payload["recorded"] == 10
        assert len(payload["traces"]) == 4
        assert payload["traces"][0]["path"] == "/q9"  # newest first

    def test_slowest_keeps_the_worst_requests(self):
        tracer = Tracer(ring_size=8, slow_log_size=2)
        for seconds in (0.01, 0.5, 0.02, 0.9):
            trace = Trace("/p")
            trace.root.duration_seconds = seconds
            tracer.record(trace)
        slowest = tracer.to_json_dict()["slowest"]
        durations = [entry["duration_ms"] for entry in slowest]
        assert durations == sorted(durations, reverse=True)
        assert durations[0] == pytest.approx(900.0)
        assert len(durations) == 2

    def test_slow_log_matches_a_full_sort_ties_included(self):
        # record() leaves the slow log alone unless a trace belongs in it;
        # the contents and the order of ties must be those of sorting
        # everything recorded so far (stable: the older trace first).
        rng = random.Random(0)
        for size in (0, 1, 3, 16):
            tracer = Tracer(ring_size=4, slow_log_size=size)
            recorded = []
            for _ in range(200):
                trace = Trace("/p")
                trace.root.duration_seconds = rng.choice((0.1, 0.2, 0.3, rng.random()))
                tracer.record(trace)
                recorded.append(trace)
                expected = sorted(
                    recorded, key=lambda t: t.duration_seconds, reverse=True
                )[:size]
                assert [id(t) for t in tracer.slowest()] == [id(t) for t in expected]

    def test_new_trace_ids_are_16_hex_chars_and_distinct(self):
        ids = {new_trace_id() for _ in range(1000)}
        assert len(ids) == 1000
        assert all(len(i) == 16 and int(i, 16) >= 0 and valid_trace_id(i) for i in ids)

    def test_disabled_tracing_is_a_noop(self):
        was = enabled()
        try:
            set_enabled(False)
            with start_trace("/off") as trace:
                assert trace is None
                with span("nothing") as child:
                    assert child is None
        finally:
            set_enabled(was)

    def test_incoming_trace_id_is_honored_and_invalid_ones_replaced(self):
        supplied = new_trace_id()
        with start_trace("/x", trace_id=supplied) as trace:
            assert trace.trace_id == supplied
        with start_trace("/x", trace_id="not valid! way " + "x" * 100) as trace:
            assert valid_trace_id(trace.trace_id)
            assert trace.trace_id != supplied


# ---------------------------------------------------------------------- #
# Events and logging
# ---------------------------------------------------------------------- #
class TestEventsAndLogging:
    def test_event_bus_cursor_and_capacity(self):
        bus = EventBus(capacity=4)
        cursor = bus.cursor
        for index in range(6):
            bus.emit("tick", index=index)
        events, cursor = bus.since(cursor)
        # The two oldest fell off the ring; the rest arrive in order.
        assert [event.fields["index"] for event in events] == [2, 3, 4, 5]
        assert bus.since(cursor)[0] == []

    def test_emit_event_reaches_the_global_bus(self):
        bus = get_event_bus()
        cursor = bus.cursor
        emit_event("test_event", detail="yes")
        events, _ = bus.since(cursor)
        assert any(
            event.kind == "test_event" and event.fields["detail"] == "yes"
            for event in events
        )

    def test_json_log_formatter_carries_trace_and_context(self):
        formatter = JsonLogFormatter()
        set_log_context(worker=3)
        try:
            with start_trace("/logged") as trace:
                record = logging.LogRecord(
                    "repro.test", logging.INFO, __file__, 1, "hello %s", ("world",),
                    None,
                )
                record.repro_fields = {"round": 7}
                payload = json.loads(formatter.format(record))
                assert payload["message"] == "hello world"
                assert payload["level"] == "info"
                assert payload["trace_id"] == trace.trace_id
                assert payload["worker"] == 3
                assert payload["round"] == 7
        finally:
            set_log_context(worker=None)


# ---------------------------------------------------------------------- #
# Non-finite floats on the ops wire (satellite: consistent spellings)
# ---------------------------------------------------------------------- #
class TestWireSpellings:
    def test_experience_metrics_spell_non_finite_floats(self):
        metrics = ExperienceMetrics(
            last_round_seconds=math.nan, cost_trend=[1.0, math.inf]
        )
        body = metrics.to_json_dict()
        json.dumps(body, allow_nan=False)  # strictly JSON-safe
        assert body["last_round_seconds"] == "NaN"
        assert body["cost_trend"] == [1.0, "Infinity"]

    def test_shadow_stats_spell_non_finite_floats(self):
        stats = ShadowTrafficStats(
            rolling_regression=math.inf, worst_regression=math.nan
        )
        body = stats.to_json_dict()
        json.dumps(body, allow_nan=False)
        assert body["rolling_regression"] == "Infinity"
        assert body["worst_regression"] == "NaN"


# ---------------------------------------------------------------------- #
# Gateway integration: one stack, process-pool scoring, shared cache tier
# ---------------------------------------------------------------------- #
class _StubExperience:
    """The minimal ``experience`` surface the gateway consumes."""

    def __init__(self):
        self._metrics = ExperienceMetrics(running=True, rounds=1)
        self.telemetry = MetricsRegistry()
        self.telemetry.counter(
            "repro_experience_rounds_total", "Fine-tune rounds completed."
        ).inc()

    def observe(self, *args, **kwargs) -> None:
        pass

    def metrics(self) -> ExperienceMetrics:
        return self._metrics


@pytest.fixture(scope="module")
def tele_stack(bench, network, tmp_path_factory):
    """Gateway + process-pool scorers + shared cache tier, started once."""
    tmp = tmp_path_factory.mktemp("telemetry")
    cache_server = PlanCacheServer(str(tmp / "cache.sock"), capacity=256).start()
    service = PlannerService(
        network,
        planner=small_planner(),
        max_workers=2,
        cache_capacity=64,
        scoring_backend="process",
    )
    service.cache = TieredPlanCache(
        service.cache, SharedCacheClient(cache_server.address)
    )
    registry = ModelRegistry(retention=8)
    baseline = registry.register(network, source="baseline")
    registry.promote(baseline.version)
    candidate = registry.register(network.clone(), source="candidate")
    lifecycle = ModelLifecycle(service, registry, featurizer=bench.featurizer)
    shadower = TrafficShadower(
        lifecycle,
        CoutCostModel(bench.estimator).cost,
        sample_fraction=0.5,
        min_samples=1_000,  # observe-only: never enough samples to roll back
        window=1_000,
        planner=small_planner(),
    )
    gateway = PlanningServer(
        service,
        lifecycle=lifecycle,
        shadower=shadower,
        experience=_StubExperience(),
        queries=bench.all_queries(),
    )
    gateway.worker_id = 7  # exercise the worker header on every response
    gateway.start()
    yield {
        "gateway": gateway,
        "service": service,
        "candidate_version": candidate.version,
        "baseline_version": baseline.version,
        "queries": list(bench.train_queries),
    }
    gateway.close()
    shadower.close()
    service.close()
    cache_server.close()


class TestGatewayTelemetry:
    def test_plan_request_produces_a_cross_process_trace(self, tele_stack):
        gateway = tele_stack["gateway"]
        query = tele_stack["queries"][0]
        trace_id = new_trace_id()
        status, body, headers = http(
            "POST", f"{gateway.base_url}/v1/plan",
            {"query": query.name, "k": 2},
            headers={"X-Repro-Trace": trace_id},
        )
        assert status == 200 and body["plans"]
        assert headers.get("X-Repro-Trace") == trace_id
        assert headers.get("X-Repro-Worker") == "7"

        status, payload, _ = http("GET", f"{gateway.base_url}/v1/traces")
        assert status == 200
        assert payload["worker_id"] == 7
        traces = [t for t in payload["traces"] if t["trace_id"] == trace_id]
        assert traces, f"trace {trace_id} not in the ring"
        index = span_index(traces[0])
        # The serving pipeline end to end...
        assert {"admission", "cache.lookup", "search", "scoring"} <= set(index)
        # ...including work measured inside the scorer *process*...
        assert index["scoring.forward"]["process"].startswith("scorer-")
        assert index["scoring.forward"] in index["scoring"]["spans"]
        # ...and inside the shared-cache *server* process/thread.
        assert "cache.shared.put" in index
        assert index["cache.server.put"]["process"] == "cache-server"
        assert traces[0]["root"]["annotations"]["status"] == 200

    def test_cache_hit_annotates_the_lookup_span(self, tele_stack):
        gateway = tele_stack["gateway"]
        query = tele_stack["queries"][0]
        payload = {"query": query.name, "k": 2}
        http("POST", f"{gateway.base_url}/v1/plan", payload)  # warm
        trace_id = new_trace_id()
        status, _, _ = http(
            "POST", f"{gateway.base_url}/v1/plan", payload,
            headers={"X-Repro-Trace": trace_id},
        )
        assert status == 200
        _, traces, _ = http("GET", f"{gateway.base_url}/v1/traces")
        match = [t for t in traces["traces"] if t["trace_id"] == trace_id]
        index = span_index(match[0])
        assert index["cache.lookup"]["annotations"]["hit"] is True
        assert "search" not in index

    def test_prometheus_exposition_covers_every_subsystem(self, tele_stack):
        gateway = tele_stack["gateway"]
        for query in tele_stack["queries"][:3]:
            http("POST", f"{gateway.base_url}/v1/plan", {"query": query.name})
        status, text = fetch_text(f"{gateway.base_url}/metrics")
        assert status == 200
        expected = [
            'repro_service_requests_total{planner="default"}',  # service
            "repro_scoring_requests_total",                     # scoring
            "repro_service_cache_hit_rate",                     # cache (L1)
            "repro_shared_cache_client_shared_stores",          # cache (tier)
            "repro_shadow_observed_total",                      # shadow
            "repro_experience_rounds_total",                    # experience
            'repro_http_requests_total{path="/v1/plan"}',       # gateway HTTP
            "repro_request_service_seconds_bucket",             # latency hist
            "repro_traces_recorded_total",                      # tracer
        ]
        for needle in expected:
            assert needle in text, f"{needle} missing from /metrics"
        # Exposition is well-formed enough for a Prometheus scraper: every
        # sample line's metric has a TYPE comment.
        typed = {
            line.split()[2] for line in text.splitlines()
            if line.startswith("# TYPE")
        }
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name = line.split("{")[0].split()[0]
            base = name
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix):
                    base = name[: -len(suffix)]
                    break
            assert base in typed or name in typed, f"untyped sample {name}"

    def test_error_responses_carry_the_worker_header(self, tele_stack):
        gateway = tele_stack["gateway"]
        # A routing 404 goes through BaseHTTPRequestHandler.send_error...
        status, _, headers = http("GET", f"{gateway.base_url}/definitely/not")
        assert status == 404
        assert headers.get("X-Repro-Worker") == "7"
        # ...and a handler-level error through the JSON reply path.
        status, body, headers = http(
            "POST", f"{gateway.base_url}/v1/plan", {"query": "no-such-query"}
        )
        assert status in (400, 404) and "error" in body
        assert headers.get("X-Repro-Worker") == "7"

    def test_stream_delivers_metrics_and_the_promotion_event(self, tele_stack):
        gateway = tele_stack["gateway"]
        query = tele_stack["queries"][0]
        http("POST", f"{gateway.base_url}/v1/plan", {"query": query.name})
        url = f"{gateway.base_url}/v1/metrics/stream?interval=0.1&max_events=400"
        lines: list[str] = []

        def consume() -> None:
            # Read line-by-line and hang up as soon as the promotion arrives:
            # the promote itself (network swap + scorer broadcast) can take
            # longer than a few stream ticks, so a fixed-size read would race.
            with urllib.request.urlopen(url, timeout=30) as response:
                assert response.headers["Content-Type"].startswith(
                    "text/event-stream"
                )
                deadline = time.monotonic() + 25
                while time.monotonic() < deadline:
                    line = response.readline()
                    if not line:
                        break
                    decoded = line.decode("utf-8")
                    lines.append(decoded)
                    if '"kind": "promotion"' in decoded:
                        break

        reader = threading.Thread(target=consume)
        reader.start()
        time.sleep(0.35)  # stream is up; now emit a promotion mid-stream
        status, body, _ = http(
            "POST", f"{gateway.base_url}/v1/models/promote",
            {"version": tele_stack["candidate_version"]},
        )
        assert status == 200, body
        reader.join(timeout=30)
        assert not reader.is_alive(), "SSE reader did not finish"
        text = "".join(lines)
        events = [block for block in text.split("\n\n") if block.strip()]
        metrics_events = [e for e in events if e.startswith("event: metrics")]
        lifecycle_events = [e for e in events if e.startswith("event: lifecycle")]
        assert metrics_events, text
        sample = json.loads(metrics_events[0].split("data: ", 1)[1])
        assert sample["requests"] >= 1 and sample["worker_id"] == 7
        promoted = [
            json.loads(e.split("data: ", 1)[1]) for e in lifecycle_events
        ]
        assert any(
            e.get("kind") == "promotion"
            and e.get("version") == tele_stack["candidate_version"]
            for e in promoted
        ), f"no promotion event in stream: {text[-500:]}"
        # Restore the baseline for any later test.
        http("POST", f"{gateway.base_url}/v1/models/rollback")


# ---------------------------------------------------------------------- #
# Fleet telemetry: the sharded supervisor's merged /metrics
# ---------------------------------------------------------------------- #
def make_worker_factory(bench, network):
    def factory(spec: WorkerSpec) -> PlanningServer:
        service = PlannerService(
            network, planner=small_planner(), cache_capacity=128
        )
        return PlanningServer(
            service, queries=bench.all_queries(), host=spec.host, port=spec.port
        )

    return factory


class TestFleetTelemetry:
    def test_sink_and_push_client_round_trip(self, tmp_path):
        sink = TelemetrySnapshotServer(str(tmp_path / "telemetry.sock")).start()
        try:
            def snapshot_for(value: int):
                registry = MetricsRegistry()
                registry.counter("t_total", "t").inc(value)
                return registry.snapshot()

            clients = [
                TelemetryPushClient(
                    sink.address, worker_id, lambda v=value: snapshot_for(v)
                )
                for worker_id, value in ((0, 3), (1, 4))
            ]
            try:
                for client in clients:
                    assert client.push() is True
                assert sink.worker_ids() == [0, 1]
                merged = merge_snapshots(sink.snapshots())
                assert "t_total 7" in render_snapshot(merged)
                assert sink.stats()["snapshots_received"] == 2
            finally:
                for client in clients:
                    client.close()
        finally:
            sink.close()

    def test_two_worker_fleet_metrics_aggregation(self, bench, network):
        queries = list(bench.train_queries)
        driven = 0
        shard = ShardedGateway(
            make_worker_factory(bench, network),
            num_workers=2,
            max_respawns=0,
            drain_grace_seconds=0.05,
        )
        with shard:
            for round_index in range(3):
                for query in queries:
                    status, body, _ = http(
                        "POST", f"{shard.base_url}/v1/plan",
                        {"query": query.name, "k": 2},
                    )
                    assert status == 200 and body["plans"]
                    driven += 1

            # Workers push snapshots every ~0.25s; wait for both to report
            # and for the merged counter to cover all driven traffic.
            deadline = time.monotonic() + 20.0
            requests_total = 0.0
            while time.monotonic() < deadline:
                snapshot = shard.fleet_metrics_snapshot()
                reporting = (
                    shard.telemetry_server.stats()["workers_reporting"]
                )
                requests_total = sum(
                    metric["value"]
                    for metric in snapshot["metrics"]
                    if metric["name"] == "repro_service_requests_total"
                )
                if reporting == 2 and requests_total >= driven:
                    break
                time.sleep(0.1)
            assert shard.telemetry_server.stats()["workers_reporting"] == 2
            assert requests_total >= driven, (
                f"fleet merge saw {requests_total} requests, drove {driven}"
            )

            # The supervisor's own HTTP scrape target serves the same view.
            status, text = fetch_text(shard.metrics_url)
            assert status == 200
            assert "repro_shard_workers_alive 2" in text
            assert "repro_service_requests_total" in text
            assert "repro_http_requests_total" in text
            assert "repro_shard_snapshots_received_total" in text
            assert "repro_shared_cache_hits_total" in text
            # Worker-pushed histograms merged: the fleet saw every request.
            count_lines = [
                line for line in text.splitlines()
                if line.startswith("repro_request_service_seconds_count")
            ]
            assert count_lines and float(count_lines[0].split()[-1]) >= driven
        # After close() the supervisor listener is gone.
        with pytest.raises((OSError, urllib.error.URLError)):
            fetch_text(shard.metrics_url, timeout=2.0)
