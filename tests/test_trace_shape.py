"""What a served ``/v1/plan`` records in the trace ring, through a live gateway.

The span names, their nesting and the annotation keys of a hit and of a miss
are pinned as literals: how the scopes are implemented may change, what they
record may not.  Also here: the ``X-Repro-Trace`` echo (a valid inbound id
adopted, an invalid one replaced), a route that raises (its trace is still
recorded and its 500 carries the id), and trace ids in a forked child.
"""

from __future__ import annotations

import http.client
import json
import os

import pytest

from repro.model.value_network import ValueNetwork, ValueNetworkConfig
from repro.search.beam import BeamSearchPlanner
from repro.server import PlanningServer
from repro.service.service import PlannerService
from repro.telemetry import (
    current_trace_id,
    get_tracer,
    new_trace_id,
    span,
    start_trace,
    valid_trace_id,
)
from repro.workloads.benchmark import make_job_benchmark

#: ``(name, sorted annotation keys, children)`` of a miss of the first train
#: query (four relations; beam 2, top-k 2, no scan-operator enumeration).
MISS_SHAPE = (
    "/v1/plan", ("status",), [
        ("admission", ("query",), []),
        ("cache.lookup", ("hit",), []),
        ("search", (), [
            ("scoring", ("plans",), []),
            ("scoring", ("plans",), []),
            ("scoring", ("plans",), []),
            ("scoring", ("plans",), []),
        ]),
    ],
)
#: The same request again: an L1 hit.
HIT_SHAPE = (
    "/v1/plan", ("status",), [
        ("admission", ("query",), []),
        ("cache.lookup", ("hit",), []),
    ],
)


def shape(node: dict) -> tuple:
    return (
        node["name"],
        tuple(sorted(node.get("annotations", {}))),
        [shape(child) for child in node.get("spans", [])],
    )


@pytest.fixture(scope="module")
def stack():
    bench = make_job_benchmark(
        fact_rows=200, num_queries=6, num_templates=3, test_size=2,
        seed=2, size_range=(3, 4),
    )
    network = ValueNetwork(
        bench.featurizer,
        ValueNetworkConfig(
            query_hidden=16, query_embedding=8, tree_channels=(16, 8),
            head_hidden=8, seed=2,
        ),
    )
    service = PlannerService(
        network,
        planner=BeamSearchPlanner(beam_size=2, top_k=2, enumerate_scan_operators=False),
        cache_capacity=64,
    )
    gateway = PlanningServer(service, queries=bench.all_queries()).start()
    yield gateway, list(bench.train_queries)
    gateway.close()
    service.close()


def post_plan(gateway, query_name: str, headers=None):
    """``(status, body, echoed trace id)`` of one ``POST /v1/plan``."""
    connection = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=30)
    try:
        connection.request(
            "POST", "/v1/plan",
            body=json.dumps({"query": query_name, "k": 2}),
            headers={"Content-Type": "application/json", **(headers or {})},
        )
        response = connection.getresponse()
        return (
            response.status, json.loads(response.read()),
            response.getheader("X-Repro-Trace"),
        )
    finally:
        connection.close()


def recorded_shape(trace_id: str) -> tuple:
    trace = get_tracer().find(trace_id)
    assert trace is not None, f"trace {trace_id} was not recorded"
    return shape(trace.to_json_dict()["root"])


class TestTraceShape:
    def test_a_miss_and_a_hit_record_the_pinned_span_trees(self, stack):
        gateway, queries = stack
        status, body, miss_id = post_plan(gateway, queries[0].name)
        assert status == 200 and not body["stats"]["cache_hit"]
        assert recorded_shape(miss_id) == MISS_SHAPE
        status, body, hit_id = post_plan(gateway, queries[0].name)
        assert status == 200 and body["stats"]["cache_hit"]
        assert recorded_shape(hit_id) == HIT_SHAPE
        assert get_tracer().find(hit_id).root.annotations == {"status": 200}

    def test_a_valid_inbound_id_is_adopted_and_an_invalid_one_replaced(self, stack):
        gateway, queries = stack
        status, _, echoed = post_plan(
            gateway, queries[1].name, {"X-Repro-Trace": "client-id_42"}
        )
        assert status == 200 and echoed == "client-id_42"
        assert get_tracer().find("client-id_42") is not None
        for invalid in ("not valid!", "x" * 65):
            status, _, echoed = post_plan(
                gateway, queries[1].name, {"X-Repro-Trace": invalid}
            )
            assert status == 200 and echoed != invalid
            assert len(echoed) == 16 and int(echoed, 16) >= 0
            assert get_tracer().find(echoed) is not None
        status, _, echoed = post_plan(gateway, queries[1].name)
        assert status == 200 and valid_trace_id(echoed) and len(echoed) == 16

    def test_a_route_that_raises_records_its_trace_and_answers_with_the_id(
        self, stack, monkeypatch
    ):
        gateway, queries = stack

        def broken(payload):
            raise RuntimeError("route failed")

        monkeypatch.setattr(gateway, "plan_response", broken)
        status, body, echoed = post_plan(gateway, queries[0].name)
        assert status == 500
        assert body == {"error": "RuntimeError: route failed", "kind": "internal"}
        assert echoed and recorded_shape(echoed) == ("/v1/plan", ("status",), [])
        assert get_tracer().find(echoed).root.annotations == {"status": 500}


class TestScopes:
    def test_a_scope_left_by_an_exception_still_records_and_restores(self):
        with pytest.raises(KeyError):
            with start_trace("/raises") as trace:
                with span("outer", step=1) as outer:
                    with pytest.raises(ValueError):
                        with span("inner"):
                            raise ValueError
                    assert current_trace_id() == trace.trace_id
                    outer.annotate(after=True)
                    raise KeyError
        assert current_trace_id() is None
        assert recorded_shape(trace.trace_id) == (
            "/raises", (), [("outer", ("after", "step"), [("inner", (), [])])]
        )
        with span("untraced") as nothing:
            assert nothing is None


class TestTraceIds:
    def test_a_forked_child_draws_other_ids_than_its_parent(self):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: report its next id and leave at once
            try:
                os.close(read_end)
                os.write(write_end, new_trace_id().encode("ascii"))
            finally:
                os._exit(0)
        os.close(write_end)
        try:
            child = b""
            while len(child) < 16:
                chunk = os.read(read_end, 16 - len(child))
                if not chunk:
                    break
                child += chunk
        finally:
            os.close(read_end)
            os.waitpid(pid, 0)
        assert len(child) == 16
        assert child.decode("ascii") != new_trace_id()
