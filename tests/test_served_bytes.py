"""A served reply is made of bytes the stack already holds.

The gateway renders each cached ``PlanResult`` once, splices the per-request
``query_name`` / ``stats`` tail behind it and sends headers and body in one
write.  None of that may change a byte of what a client reads, so every
reply here is compared with the reference rendering —
``json.dumps(response.to_json_dict(), allow_nan=False)`` — of the very
response object the gateway served.
"""

from __future__ import annotations

import dataclasses
import gc
import http.client
import json
import math
import socket
import sys
import threading
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lifecycle import ModelLifecycle, ModelRegistry
from repro.model.value_network import ValueNetwork, ValueNetworkConfig
from repro.optimizer.quickpick import random_plan
from repro.planning.envelope import PlanRequest, PlanResult
from repro.plans.nodes import JoinNode, JoinOperator, PlanNode, ScanNode
from repro.search.beam import BeamSearchPlanner
from repro.server import PlanningServer, wire
from repro.server.sharding import PlanCacheServer, SharedCacheClient
from repro.service.cache import ServicePlanCache, TieredPlanCache
from repro.service.metrics import RequestStats
from repro.service.service import PlannerService, ServiceResponse
from repro.workloads.benchmark import make_job_benchmark
from tests.conftest import make_three_table_query
from tests.test_cold_path import plan_trees


def dict_bytes(response: ServiceResponse) -> bytes:
    """The reference: what the gateway sent before replies were spliced."""
    return json.dumps(response.to_json_dict(), allow_nan=False).encode("utf-8")


def rendered_nodes(result: PlanResult) -> int:
    """Nodes one rendering of ``result`` renders: each distinct node object
    once, however many of its plans share it."""
    return len({id(node) for plan in result.plans for node in plan.iter_nodes()})


# ---------------------------------------------------------------------- #
# (a) byte identity on generated responses
# ---------------------------------------------------------------------- #
any_float = st.floats(allow_nan=True, allow_infinity=True)
names = st.text(max_size=10)  # unicode included
extra_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**40), 2**40) | any_float | names,
    lambda inner: st.lists(inner, max_size=3)
    | st.tuples(inner, inner)
    | st.dictionaries(names, inner, max_size=3),
    max_leaves=6,
)


#: Names the JSON encoder must escape: quotes, backslashes, control and
#: non-ASCII characters (a lone surrogate too).
escaped_names = st.text(
    st.sampled_from('a"\\/\n\x00\x7fé中\u2028\ud800😀'), min_size=1, max_size=6
)


def renamed(plan: PlanNode, names: dict) -> PlanNode:
    """``plan`` with each scan's alias and table replaced from ``names``."""
    if isinstance(plan, ScanNode):
        alias, table = names[plan.alias]
        return ScanNode(alias=alias, table=table, operator=plan.operator)
    return JoinNode(renamed(plan.left, names), renamed(plan.right, names), plan.operator)


@st.composite
def escaped_plan_trees(draw) -> PlanNode:
    """A plan tree whose aliases and tables are drawn from ``escaped_names``."""
    plan = draw(plan_trees(max_leaves=5))
    scans = list(plan.iter_scans())
    aliases = draw(st.lists(escaped_names, min_size=len(scans), max_size=len(scans), unique=True))
    tables = draw(st.lists(escaped_names, min_size=len(scans), max_size=len(scans)))
    return renamed(plan, {s.alias: names for s, names in zip(scans, zip(aliases, tables))})


@st.composite
def plan_results(draw) -> PlanResult:
    plans = draw(st.lists(plan_trees(max_leaves=5) | escaped_plan_trees(), max_size=10))
    return PlanResult(
        plans=plans,
        predicted_latencies=[draw(any_float) for _ in plans],
        planning_seconds=draw(any_float),
        states_expanded=draw(st.integers(0, 10**6)),
        plans_scored=draw(st.integers(0, 10**6)),
        planner_name=draw(names),
        deadline_exceeded=draw(st.booleans()),
        cacheable=draw(st.booleans()),
        extra=draw(st.dictionaries(names, extra_values, max_size=3)),
    )


@st.composite
def request_stats(draw) -> RequestStats:
    return RequestStats(
        query_name=draw(names),
        cache_hit=draw(st.booleans()),
        coalesced=draw(st.booleans()),
        queue_wait_seconds=draw(any_float),
        planning_seconds=draw(any_float),
        service_seconds=draw(any_float),
        model_version=draw(
            st.none() | st.integers(0, 99) | st.tuples(names, st.integers(0, 99))
        ),
        planner_name=draw(names),
        deadline_exceeded=draw(st.booleans()),
        priority=draw(st.integers(-5, 5)),
    )


def respond(result: PlanResult, query, stats, linked: bool) -> ServiceResponse:
    """A response as ``PlannerService._finish`` builds one from ``result``."""
    fields = {f.name: getattr(result, f.name) for f in dataclasses.fields(PlanResult)}
    response = ServiceResponse(**fields, query=query, stats=stats)
    if linked:
        response._origin = result
    return response


@st.composite
def service_responses(draw, result=None) -> ServiceResponse:
    if result is None:
        result = draw(plan_results())
    query = draw(st.none() | names.map(make_three_table_query))
    stats = draw(st.none() | request_stats())
    return respond(result, query, stats, linked=draw(st.booleans()))


class TestSplicedBytesAreTheDictRendering:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_plan_response(self, data):
        result = data.draw(plan_results())
        first = data.draw(service_responses(result=result))
        assert wire.service_response_json_bytes(first) == dict_bytes(first)
        # A second response for the same result (another request's stats)
        # reuses the result's rendering and still matches its own dict.
        second = data.draw(service_responses(result=result))
        assert wire.service_response_json_bytes(second) == dict_bytes(second)
        assert wire.service_response_json_bytes(first) == dict_bytes(first)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), count=st.sampled_from([0, 1, 3]))
    def test_plan_many(self, data, count):
        responses = [data.draw(service_responses()) for _ in range(count)]
        expected = json.dumps(
            {"results": [response.to_json_dict() for response in responses]},
            allow_nan=False,
        ).encode("utf-8")
        assert wire.service_responses_json_bytes(responses) == expected

    def test_the_rendering_is_not_a_dataclass_field(self):
        plan = random_plan(make_three_table_query(), 0)
        result = PlanResult(plans=[plan], predicted_latencies=[1.0])
        twin = PlanResult(plans=[plan], predicted_latencies=[1.0])
        rendered = wire.plan_result_json_bytes(result)
        assert rendered == json.dumps(wire.plan_result_to_json_dict(result)).encode()
        assert wire.plan_result_json_bytes(result) is rendered
        assert result == twin and repr(result) == repr(twin)
        assert "_json_bytes" not in dataclasses.asdict(result)
        # A changed copy is a new object and renders afresh.
        renamed = dataclasses.replace(result, planner_name="other")
        assert b'"planner_name": "other"' in wire.plan_result_json_bytes(renamed)


# ---------------------------------------------------------------------- #
# (a'') the stats tail: a template, byte for byte the dict codec
# ---------------------------------------------------------------------- #
def tail_reference(response: ServiceResponse) -> bytes:
    """The tail as the dict codec renders it: ``, "query_name": ... }``."""
    rendered = json.dumps(wire._per_request_to_json_dict(response), allow_nan=False)
    return b", " + rendered.encode("utf-8")[1:]


edge_floats = st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072e-308, 1e300]
)
timings = edge_floats | st.floats(allow_nan=True, allow_infinity=True)
awkward_text = st.text(
    st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "\u00e9", "\u2603",
                     "\U0001f600", "\ud800", "a", " "])
    | st.characters(),
    max_size=12,
)
plain_versions = st.none() | st.integers(-(2**70), 2**70) | awkward_text
versions = st.recursive(
    plain_versions | st.booleans() | timings,
    lambda inner: st.tuples(inner) | st.tuples(inner, inner),
    max_leaves=5,
)
#: A field the template does not spell sends the tail down the dict path.
uncovered = st.sampled_from([
    ("cache_hit", 1), ("coalesced", 0), ("deadline_exceeded", None),
    ("queue_wait_seconds", 3), ("service_seconds", True),
    ("planner_name", type("Name", (str,), {})("sub")), ("priority", False),
])


@st.composite
def tail_responses(draw) -> ServiceResponse:
    stats = None
    if draw(st.booleans()) or draw(st.booleans()):
        stats = RequestStats(
            query_name="unused",
            cache_hit=draw(st.booleans()),
            coalesced=draw(st.booleans()),
            queue_wait_seconds=draw(timings),
            planning_seconds=draw(timings),
            service_seconds=draw(timings),
            model_version=draw(versions),
            planner_name=draw(awkward_text),
            deadline_exceeded=draw(st.booleans()),
            priority=draw(st.integers(-(2**70), 2**70)),
        )
        if draw(st.integers(0, 9)) == 0:
            name, value = draw(uncovered)
            setattr(stats, name, value)
    query = draw(st.none() | awkward_text.map(make_three_table_query))
    return respond(PlanResult(plans=[], predicted_latencies=[]), query, stats, linked=True)


class TestTemplatedTail:
    @settings(max_examples=400, deadline=None)
    @given(response=tail_responses())
    def test_the_template_renders_the_dict_codec_bytes(self, response):
        expected = tail_reference(response)
        assert wire._per_request_json_tail(response) == expected
        assert wire.json_bytes(wire._per_request_to_json_dict(response)) == (
            b"{" + expected[2:]
        )
        assert wire.service_response_json_bytes(response) == dict_bytes(response)

    def test_equal_versions_of_different_types_render_apart(self):
        # 1 == 1.0 == True, (1,) == (True,): a memo keyed by value alone
        # would hand one of them the other's spelling.
        spelled = []
        for version in (1, True, 1.0, (1, "a"), (True, "a"), (1.0, "a"), 1, (1, "a")):
            stats = RequestStats(
                query_name="q", cache_hit=True, coalesced=False,
                queue_wait_seconds=0.0, planning_seconds=0.0, service_seconds=0.0,
                model_version=version, planner_name="beam",
            )
            response = respond(PlanResult(plans=[], predicted_latencies=[]), None, stats, True)
            assert wire._per_request_json_tail(response) == tail_reference(response)
            spelled.append(json.loads(b"{" + wire._per_request_json_tail(response)[2:])
                           ["stats"]["model_version"])
        assert spelled == [1, True, 1.0, [1, "a"], [True, "a"], [1.0, "a"], 1, [1, "a"]]
        assert [type(value) for value in spelled[:3]] == [int, bool, float]

    def test_json_bytes_is_strict(self):
        with pytest.raises(ValueError):
            wire.json_bytes({"x": math.nan})
        with pytest.raises(ValueError):
            wire.json_bytes(math.inf)
        payload = {"a": [1.5, -0.0, "\u00e9\"", None, True], "b": {"c": 5e-324}}
        assert wire.json_bytes(payload) == json.dumps(payload, allow_nan=False).encode()


# ---------------------------------------------------------------------- #
# (a') a shared-tier payload decodes to a result that renders it again
# ---------------------------------------------------------------------- #
@st.composite
def shared_plan_results(draw) -> PlanResult:
    """Results whose plans share subtrees, as a search's top-k do: the same
    inputs under another operator, an input on its own, whole plans twice."""
    result = draw(plan_results())
    plans = list(result.plans)
    for plan in result.plans:
        if isinstance(plan, JoinNode):
            plans.append(plan.with_operator(draw(st.sampled_from(list(JoinOperator)))))
            plans.append(plan.left)
    plans += plans[: draw(st.integers(0, len(plans)))]
    return dataclasses.replace(
        result, plans=plans, predicted_latencies=[draw(any_float) for _ in plans]
    )


def structure(plan: PlanNode) -> tuple:
    """Everything the wire carries of a subtree, as one hashable value."""
    if isinstance(plan, ScanNode):
        return (plan.alias, plan.table, plan.operator)
    return (plan.operator, structure(plan.left), structure(plan.right))


def scan(alias: str, operator: str = "SeqScan") -> dict:
    return {"scan": {"alias": alias, "table": "title", "operator": operator}}


def join(left: dict, right: dict, operator: str = "HashJoin") -> dict:
    return {"join": {"operator": operator, "left": left, "right": right}}


AB = join(scan("a"), scan("b"))

#: Payloads the decoder rejects, each with the message it has always given.
REJECTED = [
    ("not an object", [],
     "plan result: expected a JSON object, got list"),
    ("plans not an array", {"plans": {}},
     "plans: expected a JSON array, got dict"),
    ("a plan not an object", {"plans": ["scan"]},
     "plan: expected a JSON object, got str"),
    ("neither scan nor join", {"plans": [{"table": "title"}]},
     "plan: expected exactly one of 'scan' or 'join'"),
    ("scan not an object", {"plans": [{"scan": 1}]},
     "plan.scan: expected a JSON object, got int"),
    ("unknown scan operator", {"plans": [scan("a", "BitmapScan")]},
     "plan.scan.operator: unknown operator 'BitmapScan'"),
    ("alias not a string", {"plans": [scan(1)]},
     "plan.scan.alias: expected a string, got int"),
    ("missing table", {"plans": [{"scan": {"alias": "a"}}]},
     "plan.scan.table: expected a string, got NoneType"),
    ("unknown join operator", {"plans": [join(scan("a"), scan("b"), "SortJoin")]},
     "plan.join.operator: unknown operator 'SortJoin'"),
    ("join input missing", {"plans": [{"join": {"operator": "HashJoin", "left": scan("a")}}]},
     "plan.join: plan: expected a JSON object, got NoneType"),
    ("overlapping inputs", {"plans": [join(scan("a"), scan("a"))]},
     "plan.join: join inputs overlap on aliases ['a']"),
    ("a shared subtree joined with itself", {"plans": [AB, join(AB, AB)]},
     "plan.join: join inputs overlap on aliases ['a', 'b']"),
    ("overlap deep in a shared subtree", {"plans": [AB, join(scan("c"), join(AB, scan("b")))]},
     "plan.join: plan.join: join inputs overlap on aliases ['b']"),
    ("latencies not an array", {"plans": [], "predicted_latencies": "NaN"},
     "predicted_latencies: expected a JSON array, got str"),
    ("a latency spelled nan", {"plans": [scan("a")], "predicted_latencies": ["nan"]},
     "predicted_latencies[0]: expected a number, got 'nan'"),
    ("a boolean latency", {"plans": [scan("a")], "predicted_latencies": [True]},
     "predicted_latencies[0]: expected a number, got True"),
    ("states_expanded a float", {"states_expanded": 1.5},
     "plan result: states_expanded: expected an integer, got 1.5"),
    ("plans_scored a boolean", {"plans_scored": False},
     "plan result: plans_scored: expected an integer, got False"),
    ("planner_name a number", {"planner_name": 3},
     "plan result: planner_name: expected a string, got int"),
    ("extra an array", {"extra": []},
     "plan result: extra: expected a JSON object, got list"),
    ("planning_seconds a string", {"planning_seconds": "fast"},
     "plan result: planning_seconds: expected a number, got 'fast'"),
]


class InMemoryTier:
    """The shared-tier calls a lookup and a store make, over a dict."""

    def __init__(self):
        self.values: dict = {}

    def get(self, key: bytes):
        return self.values.get(key)

    def put(self, key: bytes, tag: bytes, value: bytes) -> bool:
        self.values[key] = value
        return True


class TestSharedTierPayloads:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_a_decoded_payload_renders_to_the_same_bytes(self, data):
        """What lets a shared-tier hit reply with the payload it was handed."""
        result = data.draw(shared_plan_results())
        payload = wire.plan_result_json_bytes(result)
        decoded = wire.plan_result_from_json_dict(json.loads(payload))
        assert wire.plan_result_json_bytes(decoded) == payload
        # One node per distinct subtree, shared as the search's plans were.
        nodes = {id(node): node for plan in decoded.plans for node in plan.iter_nodes()}
        assert len(nodes) == len({structure(node) for node in nodes.values()})
        # And a reply spliced from the payload is the dict rendering.
        hit = wire.plan_result_from_json_dict(json.loads(payload))
        hit._json_bytes = payload
        response = data.draw(service_responses(result=hit))
        assert wire.service_response_json_bytes(response) == dict_bytes(response)
        # Through a tier value: the hit keeps the payload, its fields cross
        # the header, its plans decode when read, shared as before.
        tier = TieredPlanCache(ServicePlanCache(0), InMemoryTier())
        tier.store(("query", "version", 1), result)
        held = tier.lookup(("query", "version", 1))
        assert held._json_bytes == payload and len(held.plans) == len(result.plans)
        assert wire.plan_result_json_bytes(dataclasses.replace(held)) == payload
        nodes = {id(node): node for plan in held.plans for node in plan.iter_nodes()}
        assert len(nodes) == len({structure(node) for node in nodes.values()})

    def test_concurrent_first_reads_of_a_hit_agree(self):
        query = make_three_table_query()
        result = PlanResult(
            plans=[random_plan(query, seed) for seed in range(3)],
            predicted_latencies=[1.0, 2.0, 3.0],
        )
        tier = TieredPlanCache(ServicePlanCache(0), InMemoryTier())
        tier.store(("query", "version", 1), result)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                held = tier.lookup(("query", "version", 1))
                reads: list = []
                threads = [
                    threading.Thread(target=lambda: reads.append(list(held.plans)))
                    for _ in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                assert reads == [result.plans] * 8 and held.plans == result.plans
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize(
        "payload, message",
        [(payload, message) for _, payload, message in REJECTED],
        ids=[name for name, _, _ in REJECTED],
    )
    def test_malformed_payloads_are_rejected_as_before(self, payload, message):
        with pytest.raises(wire.WireFormatError) as raised:
            wire.plan_result_from_json_dict(payload)
        assert str(raised.value) == message


# ---------------------------------------------------------------------- #
# The serving stack under test
# ---------------------------------------------------------------------- #
def small_planner() -> BeamSearchPlanner:
    return BeamSearchPlanner(beam_size=2, top_k=2, enumerate_scan_operators=False)


@pytest.fixture(scope="module")
def bench():
    return make_job_benchmark(
        fact_rows=200, num_queries=6, num_templates=3, test_size=2,
        seed=2, size_range=(3, 4),
    )


@pytest.fixture(scope="module")
def queries(bench):
    return list(bench.train_queries)


def make_network(bench, seed: int = 2) -> ValueNetwork:
    """Untrained but servable: these tests read bytes, not plan quality."""
    return ValueNetwork(
        bench.featurizer,
        ValueNetworkConfig(
            query_hidden=16, query_embedding=8, tree_channels=(16, 8),
            head_hidden=8, seed=seed,
        ),
    )


@pytest.fixture(scope="module")
def network(bench) -> ValueNetwork:
    return make_network(bench)


class Served:
    """A gateway over ``service`` that remembers the responses it served."""

    def __init__(self, service: PlannerService, queries, **gateway_kwargs):
        self.service = service
        self.gateway = PlanningServer(
            service, queries=queries, alerts=False, profile=False, **gateway_kwargs
        )
        #: Every ``plan_response`` / ``plan_many_responses`` answer, in order.
        self.answers: list = []
        for name in ("plan_response", "plan_many_responses"):
            setattr(self.gateway, name, self._recording(getattr(self.gateway, name)))
        self.gateway.start()

    def _recording(self, route):
        def recorded(payload):
            status, answer = route(payload)
            self.answers.append(answer)
            return status, answer

        return recorded

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.gateway.port, timeout=30)

    def exchange(self, method: str, path: str, payload=None, headers=None,
                 connection=None):
        """One exchange: ``(status, raw body bytes, response headers)``."""
        own = connection is None
        connection = connection or self.connect()
        try:
            body = None if payload is None else json.dumps(payload).encode("utf-8")
            send = dict(headers or {})
            if body is not None:
                send["Content-Type"] = "application/json"
            connection.request(method, path, body=body, headers=send)
            response = connection.getresponse()
            return response.status, response.read(), response.headers
        finally:
            if own:
                connection.close()

    def plan(self, query_name: str, **fields):
        return self.exchange("POST", "/v1/plan", {"query": query_name, "k": 2, **fields})

    def close(self) -> None:
        self.gateway.close()
        self.service.close()


@pytest.fixture
def served(network, queries):
    stack = Served(
        PlannerService(network, planner=small_planner()), queries
    )
    yield stack
    stack.close()


@pytest.fixture
def cache_server(tmp_path):
    server = PlanCacheServer(str(tmp_path / "cache.sock"), capacity=64).start()
    yield server
    server.close()


def tiered_service(network, client: SharedCacheClient) -> PlannerService:
    service = PlannerService(network, planner=small_planner())
    service.cache = TieredPlanCache(service.cache, client)
    return service


@pytest.fixture
def count_renders(monkeypatch):
    """Counts plan nodes rendered into reply bytes (``_render_plan_node``
    calls; the dict codec of the reference rendering is not counted)."""
    calls = [0]
    original = wire._render_plan_node

    def counting(plan, memo):
        calls[0] += 1
        return original(plan, memo)

    monkeypatch.setattr(wire, "_render_plan_node", counting)
    return calls


class GatedPlanner:
    """A protocol planner whose search waits until the test lets it finish."""

    name = "gated"
    thread_safe = True

    def __init__(self, **result_fields):
        self.result_fields = result_fields
        self.entered = threading.Event()
        self.release = threading.Event()
        self.release.set()

    def plan(self, request: PlanRequest) -> PlanResult:
        self.entered.set()
        assert self.release.wait(timeout=10)
        fields = {
            "plans": [random_plan(request.query, 0)],
            "predicted_latencies": [1.5],
            "planning_seconds": 0.01,
            "planner_name": self.name,
            **self.result_fields,
        }
        return PlanResult(**fields)


# ---------------------------------------------------------------------- #
# (b) every /v1/plan outcome, over a real socket
# ---------------------------------------------------------------------- #
class TestRepliesOverASocket:
    def test_miss_then_l1_hit(self, served, queries):
        status, raw, _ = served.plan(queries[0].name)
        miss = served.answers[-1]
        assert status == 200 and not miss.stats.cache_hit and miss.plans
        assert raw == dict_bytes(miss)

        status, raw, _ = served.plan(queries[0].name)
        hit = served.answers[-1]
        assert status == 200 and hit.stats.cache_hit
        assert raw == dict_bytes(hit)
        assert hit._origin is miss._origin  # one cached object, one rendering

    def test_shared_tier_hit(self, network, queries, cache_server, shared_client):
        first = tiered_service(network, shared_client(cache_server.address))
        second = Served(tiered_service(network, shared_client(cache_server.address)), queries)
        try:
            planned = first.plan(PlanRequest(query=queries[1], k=2))
            status, raw, _ = second.plan(queries[1].name)
            answer = second.answers[-1]
            assert status == 200 and answer.stats.cache_hit
            assert second.service.cache.shared_stats()["shared_hits"] == 1
            assert raw == dict_bytes(answer)
            assert [p.fingerprint() for p in answer.plans] == [
                p.fingerprint() for p in planned.plans
            ]
        finally:
            second.close()
            first.close()

    def test_coalesced_join(self, queries):
        planner = GatedPlanner()
        planner.release.clear()
        stack = Served(PlannerService(planner=planner), queries)
        joined = threading.Event()
        join_flight = stack.service._join_flight

        def watched_join(key):
            flight, leader = join_flight(key)
            if not leader:
                joined.set()
            return flight, leader

        stack.service._join_flight = watched_join
        replies: list = []
        threads = [
            threading.Thread(target=lambda: replies.append(stack.plan(queries[0].name)))
            for _ in range(2)
        ]
        try:
            threads[0].start()
            assert planner.entered.wait(timeout=10)
            threads[1].start()
            assert joined.wait(timeout=10)
            planner.release.set()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
        finally:
            planner.release.set()
            stack.close()
        assert [status for status, _, _ in replies] == [200, 200]
        leader, follower = sorted(stack.answers, key=lambda a: a.stats.coalesced)
        assert follower.stats.coalesced and not leader.stats.coalesced
        assert follower._origin is leader._origin
        assert sorted(raw for _, raw, _ in replies) == sorted(
            [dict_bytes(leader), dict_bytes(follower)]
        )

    def test_budget_truncated_504(self, served, queries):
        status, raw, _ = served.plan(queries[2].name, deadline_seconds=1e-9)
        answer = served.answers[-1]
        assert status == 504
        assert answer.deadline_exceeded and not answer.plans
        assert raw == dict_bytes(answer)

    def test_plan_many(self, served, queries):
        served.plan(queries[0].name)  # the batch mixes a hit with misses
        payload = {"requests": [{"query": q.name, "k": 2} for q in queries[:3]]}
        status, raw, _ = served.exchange("POST", "/v1/plan_many", payload)
        answers = served.answers[-1]
        assert status == 200 and len(answers) == 3
        assert raw == json.dumps(
            {"results": [answer.to_json_dict() for answer in answers]}, allow_nan=False
        ).encode("utf-8")
        # The socket-less form keeps returning the dict.
        status, body = served.gateway.handle_plan({"query": queries[0].name, "k": 2})
        assert status == 200 and body["stats"]["cache_hit"] is True


# ---------------------------------------------------------------------- #
# (c) how often a result is rendered
# ---------------------------------------------------------------------- #
class TestRenderCounts:
    def test_miss_behind_a_shared_tier_renders_once_and_hits_never(
        self, network, queries, cache_server, shared_client, count_renders
    ):
        stack = Served(tiered_service(network, shared_client(cache_server.address)), queries)
        try:
            status, _, _ = stack.plan(queries[0].name)
            miss = stack.answers[-1]
            assert status == 200 and not miss.stats.cache_hit
            assert stack.service.cache.shared_stats()["shared_stores"] == 1
            # The tier write and the reply share one rendering.
            assert count_renders[0] == rendered_nodes(miss)
            for _ in range(3):
                status, raw, _ = stack.plan(queries[0].name)
                assert status == 200 and stack.answers[-1].stats.cache_hit
                assert raw == dict_bytes(stack.answers[-1])
        finally:
            stack.close()
        # dict_bytes above renders through the dict codec, which is not
        # counted: still the one rendering, and not one more from the gateway.
        assert count_renders[0] == rendered_nodes(miss)

    def test_shared_tier_hit_renders_nothing(
        self, network, queries, cache_server, shared_client, count_renders
    ):
        """The hit's reply splices the bytes the storing worker rendered."""
        first = tiered_service(network, shared_client(cache_server.address))
        second = Served(tiered_service(network, shared_client(cache_server.address)), queries)
        try:
            first.plan(PlanRequest(query=queries[1], k=2))
            stored = count_renders[0]
            assert stored > 0
            status, raw, _ = second.plan(queries[1].name)
            answer = second.answers[-1]
            assert status == 200 and answer.stats.cache_hit
            assert second.service.cache.shared_stats()["shared_hits"] == 1
            assert count_renders[0] == stored
            assert raw == dict_bytes(answer)
        finally:
            second.close()
            first.close()

    def test_shared_tier_hit_decodes_nothing_it_does_not_read(
        self, network, queries, cache_server, shared_client, monkeypatch
    ):
        """The hit's plans are the storing worker's, built when first read."""
        decodes = [0]
        decode = wire.plan_from_json_dict

        def counting(payload, memo=None):
            decodes[0] += 1
            return decode(payload, memo)

        monkeypatch.setattr(wire, "plan_from_json_dict", counting)
        first = tiered_service(network, shared_client(cache_server.address))
        second = Served(tiered_service(network, shared_client(cache_server.address)), queries)
        try:
            planned = first.plan(PlanRequest(query=queries[1], k=2))
            rendering = wire.plan_result_json_bytes(planned._origin)
            status, raw, _ = second.plan(queries[1].name)
            answer = second.answers[-1]
            assert status == 200 and answer.stats.cache_hit
            assert second.service.cache.shared_stats()["shared_hits"] == 1
            assert len(answer.plans) == len(planned.plans) == 2
            assert decodes[0] == 0
            assert raw == rendering[:-1] + wire._per_request_json_tail(answer)
            assert [p.fingerprint() for p in answer.plans] == [
                p.fingerprint() for p in planned.plans
            ]
            read = decodes[0]
            assert read > 0
            # Read again: the same trees, nothing decoded twice.
            assert list(answer.plans)[0] is answer.plans[0]
            assert decodes[0] == read
            eager = wire.plan_result_from_json_dict(json.loads(rendering))
            assert answer._origin == eager and eager == answer._origin
            assert raw == dict_bytes(answer)
        finally:
            second.close()
            first.close()

    def test_l1_hit_over_http_renders_nothing(self, served, queries, count_renders):
        served.plan(queries[0].name)
        rendered = count_renders[0]
        assert rendered == rendered_nodes(served.answers[-1])
        for _ in range(3):
            status, _, _ = served.plan(queries[0].name)
            assert status == 200 and served.answers[-1].stats.cache_hit
        assert count_renders[0] == rendered

    def test_in_process_callers_never_render(self, network, queries, count_renders):
        with PlannerService(network, planner=small_planner()) as service:
            for _ in range(3):
                assert service.plan(queries[0]).plans
                assert all(r.plans for r in service.plan_many(queries[:3]))
            assert service.metrics().cache_hits > 0
        assert count_renders[0] == 0


# ---------------------------------------------------------------------- #
# (d) the rendering lives and dies with the cached result
# ---------------------------------------------------------------------- #
class TestRenderingLifetime:
    @staticmethod
    def serve_and_forget(stack: Served, query_name: str) -> weakref.ref:
        """Serve ``query_name`` over HTTP; a weak reference to its result."""
        status, _, _ = stack.plan(query_name)
        assert status == 200
        origin = stack.answers[-1]._origin
        assert origin._json_bytes is not None
        stack.answers.clear()
        return weakref.ref(origin)

    @pytest.fixture
    def tiny(self, network, queries):
        stack = Served(
            PlannerService(
                network, planner=small_planner(), cache_capacity=1
            ),
            queries,
        )
        yield stack
        stack.close()

    def test_lru_eviction_frees_it(self, tiny, queries):
        result = self.serve_and_forget(tiny, queries[0].name)
        gc.collect()
        assert result() is not None  # the cache holds it
        self.serve_and_forget(tiny, queries[1].name)  # evicts queries[0]
        gc.collect()
        assert result() is None

    def test_invalidate_version_frees_it(self, tiny, queries, network):
        result = self.serve_and_forget(tiny, queries[0].name)
        assert tiny.service.cache.invalidate_version(network.version_key()) == 1
        gc.collect()
        assert result() is None

    def test_clear_frees_it(self, tiny, queries):
        result = self.serve_and_forget(tiny, queries[0].name)
        tiny.service.cache.clear()
        gc.collect()
        assert result() is None

    def test_a_promoted_version_gets_its_own_rendering(self, bench, queries):
        serving = make_network(bench, seed=2)
        candidate = make_network(bench, seed=3)
        registry = ModelRegistry(retention=4)
        registry.promote(registry.register(serving, source="baseline").version)
        promoted = registry.register(candidate, source="candidate")
        service = PlannerService(serving, planner=small_planner())
        stack = Served(
            service, queries,
            lifecycle=ModelLifecycle(service, registry, featurizer=bench.featurizer),
        )
        try:
            status, before, _ = stack.plan(queries[0].name)
            assert status == 200
            old_version = stack.answers[-1].stats.model_version
            displaced = self.serve_and_forget(stack, queries[0].name)

            status, _, _ = stack.exchange(
                "POST", "/v1/models/promote", {"version": promoted.version}
            )
            assert status == 200
            gc.collect()
            assert displaced() is None  # retired with its version

            status, after, _ = stack.plan(queries[0].name)
            answer = stack.answers[-1]
            assert status == 200 and not answer.stats.cache_hit
            assert answer.stats.model_version != old_version
            assert after == dict_bytes(answer)
            assert json.loads(after)["predicted_latencies"] != (
                json.loads(before)["predicted_latencies"]
            )
        finally:
            stack.close()


# ---------------------------------------------------------------------- #
# (e) a bare NaN past the codecs is a 500, in protocol
# ---------------------------------------------------------------------- #
class TestUnserialisableResult:
    def test_bare_nan_answers_500_and_the_connection_survives(self, queries):
        # ``states_expanded`` is an int on the wire, so no codec spells it.
        planner = GatedPlanner(states_expanded=float("nan"))
        stack = Served(PlannerService(planner=planner), queries)
        connection = stack.connect()
        try:
            for _ in range(2):  # a miss, then the cached result
                status, raw, _ = stack.exchange(
                    "POST", "/v1/plan", {"query": queries[0].name},
                    connection=connection,
                )
                assert status == 500
                assert json.loads(raw) == {
                    "error": "response was not JSON-serialisable", "kind": "internal",
                }
            status, raw, _ = stack.exchange(
                "POST", "/v1/plan_many", {"requests": [{"query": queries[0].name}]},
                connection=connection,
            )
            assert status == 500 and json.loads(raw)["kind"] == "internal"
            status, raw, _ = stack.exchange("GET", "/healthz", connection=connection)
            assert status == 200 and json.loads(raw)["status"] == "ok"
        finally:
            connection.close()
            stack.close()


# ---------------------------------------------------------------------- #
# (f) one reply, one socket write
# ---------------------------------------------------------------------- #
class CountingSocket(socket.socket):
    """An accepted connection that logs the size of every write."""

    writes: list

    def send(self, data, *args):
        self.writes.append(len(data))
        return super().send(data, *args)

    def sendall(self, data, *args):
        self.writes.append(len(data))
        return super().sendall(data, *args)


def count_writes(gateway: PlanningServer) -> list:
    """Make every connection ``gateway`` accepts from now on log its writes."""
    writes: list = []
    httpd = gateway._httpd
    accept = httpd.get_request

    def get_request():
        accepted, address = accept()
        counting = CountingSocket(
            accepted.family, accepted.type, accepted.proto, fileno=accepted.detach()
        )
        counting.writes = writes
        return counting, address

    httpd.get_request = get_request
    return writes


class TestOneWritePerReply:
    def test_each_reply_is_one_write(self, served, queries):
        writes = count_writes(served.gateway)
        connection = served.connect()
        try:
            exchanges = [
                ("POST", "/v1/plan", {"query": queries[0].name, "k": 2}),  # miss
                ("POST", "/v1/plan", {"query": queries[0].name, "k": 2}),  # hit
                ("POST", "/v1/plan", {"query": "no-such-query"}),  # 400
                ("GET", "/healthz", None),
                ("GET", "/metrics", None),
            ]
            for method, path, payload in exchanges:
                del writes[:]
                status, raw, headers = served.exchange(
                    method, path, payload, connection=connection
                )
                assert status in (200, 400)
                assert len(writes) == 1, (path, writes)
                assert writes[0] > len(raw) == int(headers["Content-Length"])
        finally:
            connection.close()

    def test_sse_stream_still_delivers_its_first_event_at_once(self, served):
        connection = served.connect()
        try:
            started = time.monotonic()
            connection.request("GET", "/v1/metrics/stream?interval=30&max_events=2")
            response = connection.getresponse()
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/event-stream")
            assert response.readline() == b"event: metrics\n"
            assert json.loads(response.readline().split(b"data: ", 1)[1])
            # Long before the second event (30 s away) would have flushed it.
            assert time.monotonic() - started < 5.0
        finally:
            connection.close()


# ---------------------------------------------------------------------- #
# X-Repro-Trace on a keep-alive connection
# ---------------------------------------------------------------------- #
class TestTraceHeaderPerRequest:
    def test_untraced_replies_do_not_echo_an_earlier_trace(self, served, queries):
        connection = served.connect()
        payload = {"query": queries[0].name, "k": 2}

        def trace_of(method, path, body=None, headers=None):
            status, _, reply = served.exchange(
                method, path, body, headers=headers, connection=connection
            )
            return status, reply.get("X-Repro-Trace")

        try:
            assert trace_of("GET", "/healthz") == (200, None)
            status, first = trace_of("POST", "/v1/plan", payload)
            assert status == 200 and first
            assert trace_of("GET", "/healthz") == (200, None)
            assert trace_of("GET", "/v1/metrics") == (200, None)
            assert trace_of("POST", "/v1/models/promote", {"version": 1}) == (503, None)
            status, second = trace_of("POST", "/v1/plan", payload)
            assert status == 200 and second and second != first
            assert trace_of(
                "POST", "/v1/plan", payload, headers={"X-Repro-Trace": "abc-123"}
            ) == (200, "abc-123")
            assert trace_of("GET", "/healthz") == (200, None)
        finally:
            connection.close()
