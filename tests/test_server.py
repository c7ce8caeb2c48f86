"""Tests for the serving gateway: wire codecs, HTTP endpoints, live shadow
scoring with automatic rollback, and registry persistence restore."""

from __future__ import annotations

import json
import math
import time
import urllib.error
import urllib.request

import pytest

from repro.cardinality.estimator import HistogramEstimator
from repro.costmodel.cout import CoutCostModel
from repro.featurization.featurizer import QueryPlanFeaturizer
from repro.lifecycle import ModelLifecycle, ModelRegistry, ShadowEvaluator
from repro.model.trainer import ValueNetworkTrainer
from repro.model.value_network import ValueNetwork, ValueNetworkConfig
from repro.optimizer.quickpick import random_plan
from repro.planning.adapters import RandomPlanner
from repro.planning.envelope import PlanRequest, PlanResult
from repro.planning.registry import PlannerRegistry
from repro.search.beam import BeamSearchPlanner
from repro.server import (
    PlanningServer,
    TrafficShadower,
    WireFormatError,
    plan_from_json_dict,
    plan_request_from_json_dict,
    plan_result_from_json_dict,
    plan_to_json_dict,
    query_from_json_dict,
    query_to_json_dict,
)
from repro.service.metrics import ServiceMetrics
from repro.service.service import PlannerService
from repro.utils.rng import derive_seed, new_rng
from repro.workloads.benchmark import make_job_benchmark
from tests.conftest import make_three_table_query

# ---------------------------------------------------------------------- #
# Shared serving stack (module scope: building + training is the expensive
# part; every gateway test runs against this one stack)
# ---------------------------------------------------------------------- #


def small_planner() -> BeamSearchPlanner:
    return BeamSearchPlanner(beam_size=3, top_k=2, enumerate_scan_operators=False)


@pytest.fixture(scope="module")
def bench():
    return make_job_benchmark(
        fact_rows=300, num_queries=10, num_templates=4, test_size=3,
        seed=0, size_range=(3, 5),
    )


@pytest.fixture(scope="module")
def queries(bench):
    return list(bench.train_queries)


@pytest.fixture(scope="module")
def cost_model(bench):
    return CoutCostModel(bench.estimator)


@pytest.fixture(scope="module")
def trained_network(bench, queries, cost_model) -> ValueNetwork:
    """A network fitted to cout costs so its plan ranking is meaningful."""
    examples, labels = [], []
    for query in queries:
        seen: set[str] = set()
        for index in range(40):
            plan = random_plan(query, new_rng(derive_seed(0, query.name, index)))
            if plan.fingerprint() in seen:
                continue
            seen.add(plan.fingerprint())
            examples.append(bench.featurizer.featurize(query, plan))
            labels.append(cost_model.cost(query, plan))
    network = ValueNetwork(
        bench.featurizer,
        ValueNetworkConfig(
            query_hidden=32, query_embedding=16, tree_channels=(32, 16),
            head_hidden=16, seed=0,
        ),
    )
    ValueNetworkTrainer(
        network, learning_rate=3e-3, max_epochs=60, validation_fraction=0.0, seed=0
    ).fit(examples, labels)
    return network


def sabotage(network: ValueNetwork) -> ValueNetwork:
    """A clone whose prediction order is inverted (an injected regression)."""
    bad = network.clone()
    bad.head_fc2.weight.value = -bad.head_fc2.weight.value
    bad.head_fc2.bias.value = -bad.head_fc2.bias.value
    bad.bump_version()
    return bad


@pytest.fixture(scope="module")
def stack(bench, queries, cost_model, trained_network, tmp_path_factory):
    """Service + persisted registry + shadower + gateway, started once."""
    persist_dir = tmp_path_factory.mktemp("gateway-registry")
    service = PlannerService(
        trained_network, planner=small_planner(), cache_capacity=512
    )
    registry = ModelRegistry(retention=8, persist_dir=persist_dir)
    baseline = registry.register(trained_network, source="baseline")
    registry.promote(baseline.version)
    lifecycle = ModelLifecycle(service, registry, featurizer=bench.featurizer)
    shadower = TrafficShadower(
        lifecycle,
        cost_model.cost,
        sample_fraction=1.0,
        buffer_capacity=64,
        max_regression=1.3,
        max_total_regression=1.25,
        min_samples=3,
        window=16,
        planner=small_planner(),
    )
    planner_registry = PlannerRegistry()
    planner_registry.register("random", RandomPlanner(seed=0))
    gateway = PlanningServer(
        service,
        lifecycle=lifecycle,
        shadower=shadower,
        planner_registry=planner_registry,
        queries=bench.all_queries(),
    ).start()
    yield {
        "service": service,
        "registry": registry,
        "shadower": shadower,
        "gateway": gateway,
        "baseline_version": baseline.version,
        "persist_dir": persist_dir,
    }
    gateway.close()
    shadower.close()
    service.close()


def http(method: str, url: str, payload=None, timeout: float = 30.0):
    """One JSON HTTP exchange; returns (status, decoded body)."""
    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(url, data=data, method=method, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


# ---------------------------------------------------------------------- #
# Wire codecs: round trips
# ---------------------------------------------------------------------- #
class TestWireRoundTrips:
    def test_query_round_trip_preserves_fingerprint(self, queries):
        for query in queries:
            body = query_to_json_dict(query)
            json.dumps(body, allow_nan=False)  # strictly JSON-safe
            restored = query_from_json_dict(body)
            assert restored.fingerprint() == query.fingerprint()
            assert restored.name == query.name

    def test_plan_round_trip_preserves_fingerprint(self, queries):
        for query in queries:
            for index in range(5):
                plan = random_plan(
                    query, new_rng(derive_seed(1, query.name, index))
                )
                body = plan_to_json_dict(plan)
                json.dumps(body, allow_nan=False)
                assert plan_from_json_dict(body).fingerprint() == plan.fingerprint()

    def test_plan_request_round_trip(self, queries):
        request = PlanRequest(
            query=queries[0],
            k=3,
            deadline_seconds=2.5,
            priority=7,
            knobs={"explore": True, "arms": 3, "eps": float("nan")},
        )
        body = request.to_json_dict()
        json.dumps(body, allow_nan=False)
        restored = PlanRequest.from_json_dict(body)
        assert restored.query.fingerprint() == request.query.fingerprint()
        assert restored.k == 3
        assert restored.deadline_seconds == 2.5
        assert restored.priority == 7
        knobs = dict(restored.knobs)
        # Non-finite knob values survive the wire as floats, not spellings.
        assert math.isnan(knobs.pop("eps"))
        assert knobs == {"explore": True, "arms": 3}

    def test_plan_result_round_trip_with_non_finite_predictions(self, queries):
        query = queries[0]
        plans = [
            random_plan(query, new_rng(derive_seed(2, query.name, index)))
            for index in range(3)
        ]
        result = PlanResult(
            plans=plans,
            predicted_latencies=[1.5, float("nan"), float("inf")],
            planning_seconds=0.25,
            states_expanded=11,
            plans_scored=29,
            planner_name="beam",
            deadline_exceeded=True,
            cacheable=False,
            extra={"arm_index": 2, "note": "x"},
        )
        body = result.to_json_dict()
        json.dumps(body, allow_nan=False)
        restored = PlanResult.from_json_dict(body)
        assert [p.fingerprint() for p in restored.plans] == [
            p.fingerprint() for p in plans
        ]
        assert restored.predicted_latencies[0] == 1.5
        assert math.isnan(restored.predicted_latencies[1])
        assert math.isinf(restored.predicted_latencies[2])
        assert restored.planning_seconds == 0.25
        assert restored.states_expanded == 11
        assert restored.plans_scored == 29
        assert restored.planner_name == "beam"
        assert restored.deadline_exceeded is True
        assert restored.cacheable is False
        assert restored.extra == {"arm_index": 2, "note": "x"}

    def test_plan_result_negative_infinity_round_trip(self):
        result = PlanResult(plans=[], predicted_latencies=[float("-inf")])
        restored = PlanResult.from_json_dict(result.to_json_dict())
        assert restored.predicted_latencies[0] == -math.inf

    def test_random_request_property_round_trip(self, queries):
        """Property-style sweep: random (query, k, deadline, knobs) combos."""
        for seed in range(20):
            rng = new_rng(derive_seed(3, seed))
            query = queries[int(rng.integers(len(queries)))]
            request = PlanRequest(
                query=query,
                k=int(rng.integers(1, 6)),
                deadline_seconds=(
                    None if rng.random() < 0.5 else float(rng.random() * 10)
                ),
                priority=int(rng.integers(-3, 9)),
                knobs={f"knob{int(rng.integers(4))}": float(rng.random())},
            )
            restored = PlanRequest.from_json_dict(
                json.loads(json.dumps(request.to_json_dict(), allow_nan=False))
            )
            assert restored.query.fingerprint() == query.fingerprint()
            assert restored.k == request.k
            if request.deadline_seconds is None:
                assert restored.deadline_seconds is None
            else:
                assert restored.deadline_seconds == pytest.approx(
                    request.deadline_seconds
                )
            assert restored.priority == request.priority
            assert dict(restored.knobs) == dict(request.knobs)

    def test_service_metrics_round_trip(self):
        metrics = ServiceMetrics(
            requests=10, cache_hits=4, cache_misses=6, swaps=2,
            total_planning_seconds=1.25, wall_seconds=3.5,
        )
        metrics.cache.hits = 4
        metrics.cache.size = 3
        metrics.scoring.requests = 17
        metrics.scoring.max_batch_examples = 64
        body = json.loads(json.dumps(metrics.to_json_dict(), allow_nan=False))
        assert body["requests"] == 10
        assert body["cache_hits"] == 4
        assert body["swaps"] == 2
        assert body["total_planning_seconds"] == 1.25
        assert body["cache"]["hits"] == 4
        assert body["cache"]["size"] == 3
        assert body["scoring"]["requests"] == 17
        assert body["scoring"]["max_batch_examples"] == 64
        assert body["derived"]["hit_rate"] == pytest.approx(0.4)

    def test_promotion_decision_round_trip(self):
        from repro.lifecycle.shadow import ProbeResult, PromotionDecision

        decision = PromotionDecision(
            candidate_version=3,
            serving_version=2,
            promoted=False,
            reason="live-traffic regression",
            probes=[ProbeResult("q1", 10.0, 25.0, 2.5)],
            max_regression=2.5,
            regression_threshold=1.3,
            total_regression=2.5,
            total_threshold=1.3,
        )
        body = json.loads(json.dumps(decision.to_json_dict(), allow_nan=False))
        assert body["candidate_version"] == 3
        assert body["serving_version"] == 2
        assert body["promoted"] is False
        assert body["reason"] == "live-traffic regression"
        assert body["probes"][0]["query_name"] == "q1"
        assert body["probes"][0]["regression"] == 2.5
        assert body["created_at"] == pytest.approx(decision.created_at)


# ---------------------------------------------------------------------- #
# Wire codecs: malformed payload rejection
# ---------------------------------------------------------------------- #
class TestWireRejection:
    @pytest.mark.parametrize(
        "payload",
        [
            [],  # not an object
            {"query": None},
            {"query": {"name": "q", "tables": []}},  # no tables
            {"query": {"name": "q", "tables": "title"}},  # tables not a list
            {"query": {"name": 3, "tables": [{"table": "t", "alias": "t"}]}},
        ],
    )
    def test_bad_request_shapes(self, payload):
        with pytest.raises(WireFormatError):
            plan_request_from_json_dict(payload)

    def test_by_name_query_without_resolver(self):
        with pytest.raises(WireFormatError, match="by-name"):
            plan_request_from_json_dict({"query": "q7b"})

    def test_by_name_query_unknown_name(self):
        with pytest.raises(WireFormatError, match="unknown query name"):
            plan_request_from_json_dict(
                {"query": "nope"}, query_resolver={}.__getitem__
            )

    @pytest.mark.parametrize("k", [0, -1, True, "3", 1.5])
    def test_bad_k_rejected(self, k):
        query = query_to_json_dict(make_three_table_query())
        with pytest.raises(WireFormatError):
            plan_request_from_json_dict({"query": query, "k": k})

    def test_unknown_operator_rejected(self):
        body = query_to_json_dict(make_three_table_query())
        body["filters"][0]["op"] = "LIKE"
        with pytest.raises(WireFormatError, match="unknown comparison operator"):
            query_from_json_dict(body)

    def test_between_arity_enforced(self):
        body = query_to_json_dict(make_three_table_query())
        body["filters"].append(
            {"alias": "t", "column": "production_year", "op": "BETWEEN",
             "value": [1, 2, 3]}
        )
        with pytest.raises(WireFormatError, match="BETWEEN"):
            query_from_json_dict(body)

    def test_join_referencing_unknown_alias_rejected(self):
        body = query_to_json_dict(make_three_table_query())
        body["joins"][0]["left_alias"] = "zz"
        with pytest.raises(WireFormatError):
            query_from_json_dict(body)

    def test_plan_with_overlapping_join_inputs_rejected(self):
        scan = {"scan": {"alias": "t", "table": "title", "operator": "SeqScan"}}
        with pytest.raises(WireFormatError):
            plan_from_json_dict(
                {"join": {"operator": "HashJoin", "left": scan, "right": scan}}
            )

    def test_plan_missing_kind_rejected(self):
        with pytest.raises(WireFormatError, match="scan.*join|join.*scan"):
            plan_from_json_dict({"table": "title"})

    def test_bad_prediction_value_rejected(self):
        with pytest.raises(WireFormatError, match="predicted_latencies"):
            plan_result_from_json_dict(
                {"plans": [], "predicted_latencies": ["soon"]}
            )

    def test_bad_deadline_rejected(self):
        query = query_to_json_dict(make_three_table_query())
        with pytest.raises(WireFormatError):
            plan_request_from_json_dict({"query": query, "deadline_seconds": "fast"})


# ---------------------------------------------------------------------- #
# Gateway endpoints over real HTTP
# ---------------------------------------------------------------------- #
class TestGatewayEndpoints:
    def test_health(self, stack):
        status, body = http("GET", f"{stack['gateway'].base_url}/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["serving_version"] == stack["registry"].serving_version
        assert "default" in body["planners"] and "random" in body["planners"]

    def test_plan_by_name_parity_with_in_process_service(self, stack, queries):
        """20 HTTP plans must match the in-process service exactly."""
        gateway, service = stack["gateway"], stack["service"]
        checked = 0
        for k in (1, 2, 3):
            for query in queries:
                status, body = http(
                    "POST",
                    f"{gateway.base_url}/v1/plan",
                    {"query": query.name, "k": k},
                )
                assert status == 200, body
                inproc = service.plan(PlanRequest(query=query, k=k))
                assert [
                    plan_from_json_dict(p).fingerprint() for p in body["plans"]
                ] == [p.fingerprint() for p in inproc.plans]
                assert body["predicted_latencies"] == pytest.approx(
                    inproc.predicted_latencies
                )
                assert body["planner_name"] == inproc.planner_name
                assert body["query_name"] == query.name
                checked += 1
        assert checked == 3 * len(queries) >= 20

    def test_plan_structural_query(self, stack, queries):
        body = {"query": query_to_json_dict(queries[0]), "k": 1}
        status, reply = http(
            "POST", f"{stack['gateway'].base_url}/v1/plan", body
        )
        assert status == 200
        assert reply["plans"], reply
        assert reply["stats"]["planner_name"] == reply["planner_name"]

    def test_plan_many_preserves_order(self, stack, queries):
        requests = [{"query": query.name, "k": 1} for query in queries]
        status, reply = http(
            "POST",
            f"{stack['gateway'].base_url}/v1/plan_many",
            {"requests": requests},
        )
        assert status == 200
        assert [entry["query_name"] for entry in reply["results"]] == [
            query.name for query in queries
        ]

    def test_plan_routed_to_registered_planner(self, stack, queries):
        status, reply = http(
            "POST",
            f"{stack['gateway'].base_url}/v1/plan",
            {"query": queries[0].name, "k": 2, "planner": "random"},
        )
        assert status == 200
        assert reply["planner_name"] == "random"
        # Samplers score nothing: NaN survives the wire as its spelling.
        assert reply["predicted_latencies"] == ["NaN", "NaN"]

    def test_unknown_planner_404(self, stack, queries):
        status, reply = http(
            "POST",
            f"{stack['gateway'].base_url}/v1/plan",
            {"query": queries[0].name, "planner": "oracle"},
        )
        assert status == 404
        assert reply["kind"] == "unknown_planner"

    def test_unknown_query_name_400(self, stack):
        status, reply = http(
            "POST", f"{stack['gateway'].base_url}/v1/plan", {"query": "qqq"}
        )
        assert status == 400
        assert reply["kind"] == "bad_request"

    def test_invalid_json_400(self, stack):
        request = urllib.request.Request(
            f"{stack['gateway'].base_url}/v1/plan",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_expired_deadline_504(self, stack, queries):
        status, reply = http(
            "POST",
            f"{stack['gateway'].base_url}/v1/plan",
            {"query": queries[0].name, "deadline_seconds": 0},
        )
        assert status == 504
        assert reply["kind"] == "admission"
        assert reply["reason"] == "deadline_expired"

    def test_unknown_endpoint_404(self, stack):
        status, reply = http("GET", f"{stack['gateway'].base_url}/v2/plan")
        assert status == 404

    def test_unknown_post_with_body_does_not_corrupt_keep_alive(self, stack, queries):
        """An unconsumed request body must never be parsed as the next
        request line: the error reply either drained it or closes the
        connection (Connection: close)."""
        import http.client

        connection = http.client.HTTPConnection(
            "127.0.0.1", stack["gateway"].port, timeout=10
        )
        try:
            body = json.dumps({"junk": True})
            connection.request(
                "POST", "/v1/nope", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = response.read()
            assert response.status == 404, payload
            # Either the body was drained (keep-alive intact) or the server
            # told us to reconnect; both keep the framing sound.
            if response.will_close:
                connection.close()
                connection.connect()
            connection.request(
                "POST", "/v1/plan",
                body=json.dumps({"query": queries[0].name}),
                headers={"Content-Type": "application/json"},
            )
            second = connection.getresponse()
            second.read()
            assert second.status == 200  # parsed as a real request
        finally:
            connection.close()

    def test_error_responses_are_counted_in_gateway_metrics(self, stack):
        base = stack["gateway"].base_url
        http("GET", f"{base}/v2/nowhere")  # 404, no route
        request = urllib.request.Request(
            f"{base}/v1/plan", data=b"{bad", method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(request, timeout=10)  # 400, bad JSON
        status, body = http("GET", f"{base}/v1/metrics")
        assert status == 200
        by_status = body["gateway"]["responses_by_status"]
        assert by_status.get("404", 0) >= 1
        assert by_status.get("400", 0) >= 1

    def test_metrics_endpoint(self, stack, queries):
        http("POST", f"{stack['gateway'].base_url}/v1/plan", {"query": queries[0].name})
        status, body = http("GET", f"{stack['gateway'].base_url}/v1/metrics")
        assert status == 200
        default = body["planners"]["default"]
        assert default["requests"] > 0
        assert default["cache"]["size"] >= 1
        assert body["gateway"]["requests_by_endpoint"]["/v1/plan"] >= 1
        assert body["shadow"] is not None
        assert body["shadow"]["observed"] >= 1

    def test_models_endpoint(self, stack):
        status, body = http("GET", f"{stack['gateway'].base_url}/v1/models")
        assert status == 200
        registry = stack["registry"]
        assert body["serving_version"] == registry.serving_version
        assert body["versions"] == registry.versions()
        assert body["serving_history"] == registry.serving_history()
        assert {s["version"] for s in body["snapshots"]} == set(registry.versions())


class TestGatewayWithoutRegistry:
    """A minimal protocol-mode gateway: capacity rejection and missing ops."""

    @pytest.fixture()
    def tiny_gateway(self):
        service = PlannerService(
            planner=RandomPlanner(seed=0), max_pending=0
        )
        gateway = PlanningServer(service).start()
        yield gateway
        gateway.close()
        service.close()

    def test_over_capacity_429(self, tiny_gateway):
        body = {"query": query_to_json_dict(make_three_table_query())}
        status, reply = http("POST", f"{tiny_gateway.base_url}/v1/plan", body)
        assert status == 429
        assert reply["reason"] == "over_capacity"

    def test_models_unavailable_503(self, tiny_gateway):
        status, reply = http("GET", f"{tiny_gateway.base_url}/v1/models")
        assert status == 503

    def test_promote_unavailable_503(self, tiny_gateway):
        status, reply = http(
            "POST", f"{tiny_gateway.base_url}/v1/models/promote", {"version": 1}
        )
        assert status == 503


# ---------------------------------------------------------------------- #
# Live shadow scoring: sampling mechanics
# ---------------------------------------------------------------------- #
class TestOneNameTwoQueries:
    """An inline query's name is the client's choice; its answer is not."""

    @staticmethod
    def _fresh_gateway(bench):
        """A gateway over a stack no query has been through: its own
        estimator, featuriser (same weights: the seed) and service."""
        featurizer = QueryPlanFeaturizer(
            bench.database.schema, HistogramEstimator(bench.database)
        )
        network = ValueNetwork(
            featurizer,
            ValueNetworkConfig(
                query_hidden=16, query_embedding=8, tree_channels=(16, 8),
                head_hidden=8, seed=3,
            ),
        )
        service = PlannerService(network, planner=small_planner())
        gateway = PlanningServer(service, queries=bench.all_queries()).start()
        return gateway, service

    def test_two_inline_queries_sharing_a_name_each_get_their_own_plan(self, bench, queries):
        first, second = next(
            (a, b)
            for a in queries for b in queries
            if a.aliases == b.aliases and a.filters != b.filters
        )
        named, named_service = self._fresh_gateway(bench)
        inline, inline_service = self._fresh_gateway(bench)
        try:
            answers = []
            for query in (first, second):
                status, by_name = http(
                    "POST", f"{named.base_url}/v1/plan", {"query": query.name, "k": 2}
                )
                assert status == 200, by_name
                payload = dict(query_to_json_dict(query), name="same")
                status, reply = http(
                    "POST", f"{inline.base_url}/v1/plan", {"query": payload, "k": 2}
                )
                assert status == 200, reply
                assert reply["query_name"] == "same"
                assert not reply["stats"]["cache_hit"]
                assert reply["plans"] == by_name["plans"]
                assert reply["predicted_latencies"] == by_name["predicted_latencies"]
                answers.append(reply["predicted_latencies"])
            assert answers[0] != answers[1]
        finally:
            for closing in (named, named_service, inline, inline_service):
                closing.close()


class TestTrafficShadowerSampling:
    def test_stride_sampling_and_ring_bound(self, stack, queries):
        service, registry = stack["service"], stack["registry"]
        shadower = TrafficShadower(
            ModelLifecycle(service, registry),
            lambda query, plan: 1.0,
            sample_fraction=0.5,
            buffer_capacity=2,
        )
        try:
            for _ in range(10):
                shadower.observe(queries[0])
            stats = shadower.stats()
            assert stats.observed == 10
            assert stats.sampled == 5
            assert stats.dropped == 3  # ring of 2: the other 3 were evicted
            assert stats.armed is False
        finally:
            shadower.close()

    def test_watch_without_baseline_disarms(self, stack):
        shadower = stack["shadower"]
        shadower.watch(stack["baseline_version"], None)
        assert shadower.armed is False

    def test_observe_after_close_is_noop(self, stack, queries):
        service, registry = stack["service"], stack["registry"]
        shadower = TrafficShadower(
            ModelLifecycle(service, registry), lambda q, p: 1.0
        )
        shadower.close()
        shadower.observe(queries[0])  # must not raise
        assert shadower.stats().observed == 0


# ---------------------------------------------------------------------- #
# The end-to-end acceptance flow
# ---------------------------------------------------------------------- #
class TestEndToEndRollback:
    def test_bad_promotion_rolled_back_by_live_traffic(
        self, stack, queries, trained_network
    ):
        """Promote a sabotaged candidate over HTTP; live traffic must trip
        the automatic rollback with zero failed foreground requests."""
        gateway = stack["gateway"]
        registry = stack["registry"]
        shadower = stack["shadower"]
        baseline_version = registry.serving_version
        bad = registry.register(sabotage(trained_network), source="sabotaged")

        status, reply = http(
            "POST",
            f"{gateway.base_url}/v1/models/promote",
            {"version": bad.version},
        )
        assert status == 200, reply
        assert reply["serving_version"] == bad.version
        assert reply["previous_serving_version"] == baseline_version
        assert reply["shadow_armed"] is True
        assert registry.serving_version == bad.version

        # Foreground traffic: every request must keep succeeding while the
        # shadower replans samples off the request path.
        failures = 0
        deadline = time.monotonic() + 60.0
        tripped = False
        while time.monotonic() < deadline:
            for query in queries:
                plan_status, plan_body = http(
                    "POST", f"{gateway.base_url}/v1/plan", {"query": query.name}
                )
                if plan_status != 200 or not plan_body.get("plans"):
                    failures += 1
            shadower.drain(timeout=10.0)
            if registry.serving_version == baseline_version:
                tripped = True
                break
        assert tripped, (
            f"live traffic never tripped the rollback: {shadower.stats()}"
        )
        assert failures == 0

        # The audit trail records the live-traffic verdict.
        live_decisions = [
            decision
            for decision in registry.decisions()
            if decision.candidate_version == bad.version and not decision.promoted
        ]
        assert live_decisions
        assert "live-traffic" in live_decisions[-1].reason
        assert "automatic rollback" in live_decisions[-1].reason
        assert live_decisions[-1].probes  # the sampled queries that tripped it

        stats = shadower.stats()
        assert stats.rollbacks == 1
        assert stats.armed is False

        # The ops surface agrees: serving is the restored baseline.
        status, body = http("GET", f"{gateway.base_url}/v1/models")
        assert status == 200
        assert body["serving_version"] == baseline_version
        assert body["serving_history"][-1] == baseline_version
        decisions = body["decisions"]
        assert any("live-traffic" in d["reason"] for d in decisions)

        # And the restored model actually answers.
        plan_status, plan_body = http(
            "POST", f"{gateway.base_url}/v1/plan", {"query": queries[0].name}
        )
        assert plan_status == 200 and plan_body["plans"]

    def test_explicit_rollback_endpoint(self, stack, trained_network):
        gateway, registry = stack["gateway"], stack["registry"]
        serving_before = registry.serving_version
        clean = registry.register(trained_network.clone(), source="clean")
        status, reply = http(
            "POST",
            f"{gateway.base_url}/v1/models/promote",
            {"version": clean.version},
        )
        assert status == 200
        assert registry.serving_version == clean.version
        status, reply = http("POST", f"{gateway.base_url}/v1/models/rollback")
        assert status == 200, reply
        assert reply["serving_version"] == serving_before
        assert reply["rolled_back_from"] == clean.version
        assert registry.serving_version == serving_before
        assert stack["shadower"].armed is False

    def test_promote_unknown_version_404(self, stack):
        status, reply = http(
            "POST", f"{stack['gateway'].base_url}/v1/models/promote", {"version": 999}
        )
        assert status == 404
        assert reply["kind"] == "unknown_version"

    def test_compare_and_rollback_guard(self, stack):
        """A stale live-traffic verdict must not unseat a fresh promotion."""
        from repro.lifecycle import LifecycleError

        registry = stack["registry"]
        serving = registry.serving_version
        with pytest.raises(LifecycleError, match="rollback aborted"):
            registry.rollback(expected_serving=serving + 1000)
        assert registry.serving_version == serving


# ---------------------------------------------------------------------- #
# Registry persistence: restart resumes the serving chain
# ---------------------------------------------------------------------- #
class TestPersistedRestore:
    def test_load_persisted_restores_chain(self, stack, bench):
        registry = stack["registry"]
        restored = ModelRegistry.load_persisted(stack["persist_dir"])
        assert restored.serving_version == registry.serving_version
        # Rollback targets survive the restart (the chain, not just the tip).
        assert restored.serving_history()[-1] == registry.serving_history()[-1]
        assert set(restored.versions()) >= set(restored.serving_history())
        network = restored.serving().restore(bench.featurizer)
        assert network is not None
        # Version numbering continues where the previous process stopped.
        fresh = restored.register(network, source="post-restart")
        assert fresh.version > max(registry.versions())

    def test_load_persisted_empty_dir_raises(self, tmp_path):
        from repro.lifecycle import LifecycleError

        with pytest.raises(LifecycleError):
            ModelRegistry.load_persisted(tmp_path)

    @pytest.mark.parametrize("corrupt", ["[]", '"x"', "{not json"])
    def test_load_persisted_survives_corrupt_manifest(
        self, stack, tmp_path, corrupt
    ):
        import shutil

        snapshots = sorted(stack["persist_dir"].glob("model-v*.npz"))
        shutil.copy(snapshots[-1], tmp_path / snapshots[-1].name)
        (tmp_path / "serving.json").write_text(corrupt)
        with pytest.warns(RuntimeWarning, match="manifest"):
            restored = ModelRegistry.load_persisted(tmp_path)
        # Fallback: the newest loadable snapshot is taken as serving.
        assert restored.serving_version == restored.versions()[-1]

    def test_gateway_boot_restores_persisted_serving(
        self, stack, bench, trained_network
    ):
        """A 'restarted' gateway resumes the last promoted model."""
        loaded = ModelRegistry.load_persisted(stack["persist_dir"])
        fresh_network = ValueNetwork(
            bench.featurizer,
            ValueNetworkConfig(
                query_hidden=32, query_embedding=16, tree_channels=(32, 16),
                head_hidden=16, seed=99,
            ),
        )
        service = PlannerService(
            fresh_network, planner=small_planner()
        )
        try:
            gateway = PlanningServer(
                service,
                lifecycle=ModelLifecycle(service, loaded, featurizer=bench.featurizer),
            )
            assert gateway.restored_serving_version == loaded.serving_version
            # The service now plans with the persisted weights, not the fresh
            # seed-99 network it was constructed with.
            serving = service.serving_network()
            assert serving is not fresh_network
        finally:
            service.close()


# ---------------------------------------------------------------------- #
# Lifecycle integration: promotions arm the live monitor
# ---------------------------------------------------------------------- #
class _RecordingMonitor:
    def __init__(self):
        self.watched: list[tuple] = []
        self.disarmed = 0

    def watch(self, candidate_version, baseline_version):
        self.watched.append((candidate_version, baseline_version))

    def disarm(self):
        self.disarmed += 1


class TestLifecycleLiveMonitor:
    def test_promotion_arms_and_rollback_disarms(
        self, bench, queries, cost_model, trained_network
    ):
        service = PlannerService(
            trained_network.clone(), planner=small_planner()
        )
        registry = ModelRegistry(retention=8)
        shadow = ShadowEvaluator(
            queries[:3],
            cost_model.cost,
            max_regression=1.5,
            max_total_regression=1.2,
            planner=small_planner(),
        )
        lifecycle = ModelLifecycle(service, registry, shadow, warm_queries=[])
        monitor = _RecordingMonitor()
        lifecycle.live_monitor = monitor
        try:
            baseline = lifecycle.baseline()
            candidate = registry.register(
                trained_network.clone(), source="candidate"
            )
            decision = lifecycle.evaluate_and_apply(candidate)
            assert decision.promoted, decision.reason
            assert monitor.watched == [(candidate.version, baseline.version)]
            lifecycle.rollback(source="test")
            assert monitor.disarmed == 1
        finally:
            service.close()

    def test_gateway_wires_shadower_into_lifecycle(
        self, bench, queries, cost_model, trained_network
    ):
        """A shadower built over the lifecycle is its live monitor: the
        gateway's promote route arms it and its rollback route disarms it."""
        service = PlannerService(
            trained_network.clone(), planner=small_planner()
        )
        registry = ModelRegistry(retention=8)
        shadow = ShadowEvaluator(
            queries[:2], cost_model.cost, planner=small_planner()
        )
        lifecycle = ModelLifecycle(service, registry, shadow, warm_queries=[])
        shadower = TrafficShadower(lifecycle, cost_model.cost)
        try:
            baseline = lifecycle.baseline()
            candidate = registry.register(trained_network.clone(), source="c")
            gateway = PlanningServer(
                service, lifecycle=lifecycle, shadower=shadower,
                restore_serving=False,
            )
            assert lifecycle.live_monitor is shadower
            status, reply = gateway.handle_promote({"version": candidate.version})
            assert status == 200 and shadower.armed
            status, reply = gateway.handle_rollback()
            assert status == 200
            assert reply["serving_version"] == baseline.version
            assert shadower.armed is False
        finally:
            shadower.close()
            service.close()
