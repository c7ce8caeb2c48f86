"""Microcells: one isolated timing per layer, on inputs captured from a search.

Each traced workload measures the cells of the layers it loads, once:
``cold_plan`` featurization, the forward pass and the scoring transports;
``served_warm`` the cached service call, the plan cache, the wire codecs and
the HTTP exchange, on its own live service and gateway; ``served_mixed`` the
shared cache tier; ``learn`` a training step and plan execution.  Timings are
normalised by the host probe like every other timing of the suite
(``HostProbe.measure``).

The two process-transport cells each own one scorer process: they start it,
close the backend (which joins it) and verify it gone.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
from estimators import typical
from probe import HostProbe
from workloads import TOP_K, exchange, fresh_network, make_planner

from repro.featurization.featurizer import QueryPlanFeaturizer, batch_examples
from repro.nn.losses import mse_loss
from repro.nn.optim import Adam
from repro.planning.envelope import PlanRequest, PlanResult
from repro.scoring import make_scoring_backend, pack_examples, unpack_examples
from repro.server.sharding import PlanCacheServer, SharedCacheClient
from repro.server.wire import plan_request_from_json_dict, plan_result_to_json_dict
from repro.service.cache import ServicePlanCache, encode_cache_key, version_tag
from repro.telemetry import enabled as telemetry_enabled
from repro.telemetry import set_enabled as set_telemetry_enabled

CAPTURED_EXAMPLES = 128


def captured_search(queries, network):
    """Cold searches of ``queries`` until 128 plans went to scoring.

    Returns the last search's ``(query, result, frontiers)`` and every scored
    ``(query, plan)`` pair.
    """
    scored = []
    for query in queries:
        frontiers: list[list] = []

        def capturing_score(scored_query, plans):
            frontiers.append(list(plans))
            return network.predict(scored_query, plans)

        result = make_planner().search(query, network, score_fn=capturing_score)
        scored += [(query, plan) for frontier in frontiers for plan in frontier]
        if len(scored) >= CAPTURED_EXAMPLES:
            return query, result, frontiers, scored
    raise RuntimeError(f"captured only {len(scored)} plans; the cells need {CAPTURED_EXAMPLES}")


def planning_cells(bench, query, probe: HostProbe, scratch_dir: str) -> dict[str, float]:
    """featurization, model (inference) and scoring, on one cold search of ``query``."""
    network = fresh_network(bench)
    featurizer = network.featurizer
    _, _, frontiers, scored = captured_search([query], network)
    plans = [plan for _, plan in scored]
    frontier = max(frontiers, key=len)
    examples = [featurizer.featurize(query, plan) for plan in plans]
    cells: dict[str, float] = {}

    def featurize_cold():
        fresh = QueryPlanFeaturizer(bench.database.schema, bench.estimator)
        for plan in plans:
            fresh.featurize(query, plan)

    cells["featurization.cold_us_per_example"] = probe.measure(featurize_cold) / len(plans) * 1e6
    cells["featurization.warm_us_per_example"] = (
        probe.measure(lambda: [featurizer.featurize(query, plan) for plan in plans])
        / len(plans) * 1e6
    )
    dimensions = (featurizer.query_dimension, featurizer.plan_node_dimension)
    batch = examples[:CAPTURED_EXAMPLES]
    cells["featurization.batch_us_per_example"] = (
        probe.measure(lambda: batch_examples(batch, *dimensions)) / len(batch) * 1e6
    )
    for size in (16, 128):
        queries, trees = featurizer.batch(examples[:size])
        cells[f"model.forward_us_per_example_b{size}"] = (
            probe.measure(lambda: network.forward(queries, trees)) / size * 1e6
        )

    def submit_cell(name: str, **kwargs) -> float:
        backend = make_scoring_backend(name, lambda: network, **kwargs)
        try:
            if hasattr(backend, "wait_ready") and not backend.wait_ready(timeout=60.0):
                raise RuntimeError(f"{name} scorer did not start")
            expected = network.predict(query, frontier)
            scored = backend.submit(query, frontier, version=network)  # publishes
            if not np.allclose(scored, expected, rtol=1e-9, atol=0.0):
                raise RuntimeError(f"{name} backend disagrees with network.predict")
            seconds = probe.measure(lambda: backend.submit(query, frontier, version=network))
        finally:
            backend.close()
            if "spool_dir" in kwargs:
                shutil.rmtree(kwargs["spool_dir"], ignore_errors=True)
        if hasattr(backend, "alive_workers") and backend.alive_workers() != 0:
            raise RuntimeError(f"{name} backend left a scorer process running")
        return seconds / len(frontier) * 1e6

    cells["scoring.inproc_us_per_example"] = submit_cell("inproc")
    cells["scoring.threaded_us_per_example"] = submit_cell("threaded")
    frontier_examples = [featurizer.featurize(query, plan) for plan in frontier]
    payload = pack_examples(frontier_examples)
    cells["scoring.wire_pack_us_per_example"] = (
        probe.measure(lambda: pack_examples(frontier_examples)) / len(frontier) * 1e6
    )
    cells["scoring.wire_unpack_us_per_example"] = (
        probe.measure(lambda: unpack_examples(payload)) / len(frontier) * 1e6
    )
    for metric, name in (
        ("scoring.process_roundtrip_us_per_example", "process"),
        ("scoring.shm_roundtrip_us_per_example", "process+shm"),
    ):
        cells[metric] = submit_cell(
            name, featurizer=featurizer, num_workers=1, autoscaler=None,
            spool_dir=os.path.join(scratch_dir, f"spool-{name}"),
        )
    return cells


def serving_cells(service, network, connection, query, probe: HostProbe) -> dict[str, float]:
    """service and server, on the live service and gateway; ``query`` is cached."""
    request = PlanRequest(query=query, k=TOP_K)
    result = response = service.plan(request)
    cells: dict[str, float] = {}
    cells["service.hit_us"] = (
        probe.measure(lambda: [service.plan(request) for _ in range(50)]) / 50 * 1e6
    )
    cache = ServicePlanCache(4096)
    key = (query.fingerprint(), network.version_key(), TOP_K, ())
    cells["service.cache_store_us"] = (
        probe.measure(lambda: [cache.store(key, result) for _ in range(200)]) / 200 * 1e6
    )
    cells["service.cache_lookup_us"] = (
        probe.measure(lambda: [cache.lookup(key) for _ in range(200)]) / 200 * 1e6
    )

    request_bytes = json.dumps({"query": query.name, "k": TOP_K}).encode("utf-8")
    resolver = {query.name: query}.__getitem__
    cells["server.decode_request_us"] = probe.measure(
        lambda: [
            plan_request_from_json_dict(json.loads(request_bytes), query_resolver=resolver)
            for _ in range(50)
        ]
    ) / 50 * 1e6
    cells["server.encode_response_us"] = probe.measure(
        lambda: [
            json.dumps(response.to_json_dict(), allow_nan=False).encode("utf-8")
            for _ in range(20)
        ]
    ) / 20 * 1e6
    # Timings print with a varying number of digits; the exact size is that
    # of the answer alone.
    answer = PlanResult(
        plans=result.plans, predicted_latencies=result.predicted_latencies,
        states_expanded=result.states_expanded, plans_scored=result.plans_scored,
        planner_name=result.planner_name,
    )
    cells["server.response_bytes"] = len(
        json.dumps(plan_result_to_json_dict(answer), allow_nan=False).encode("utf-8")
    )

    def exchanges(count: int):
        for _ in range(count):
            status, _ = exchange(connection, "POST", "/v1/plan", request_bytes)
            if status != 200:
                raise RuntimeError(f"POST /v1/plan answered {status}")

    warm_us = probe.measure(lambda: exchanges(20), repeats=15) / 20 * 1e6
    cells["server.http_overhead_us"] = (
        warm_us - cells["service.hit_us"]
        - cells["server.decode_request_us"] - cells["server.encode_response_us"]
    )
    # Telemetry on and off in alternating slices, so host drift hits both.
    telemetry_was = telemetry_enabled()
    slices: dict[bool, list[float]] = {True: [], False: []}
    try:
        for index in range(10):
            flag = index % 2 == 0
            set_telemetry_enabled(flag)
            slices[flag].append(probe.measure(lambda: exchanges(20), repeats=3))
    finally:
        set_telemetry_enabled(telemetry_was)
    on, off = typical(slices[True]), typical(slices[False])
    cells["telemetry.overhead_pct"] = (on - off) / off * 100.0
    return cells


def shared_tier_cells(query, result, network, probe: HostProbe, scratch_dir: str):
    """The shared cache tier's wire: a put and a get of one k = 10 answer."""
    address = os.path.relpath(os.path.join(scratch_dir, "cells-cache.sock"))
    key = (query.fingerprint(), network.version_key(), TOP_K, ())
    wire_key, tag = encode_cache_key(key), version_tag(key[1])
    value = json.dumps(plan_result_to_json_dict(result), allow_nan=False).encode("utf-8")
    cache_server = PlanCacheServer(address, capacity=16).start()
    shared = None
    try:
        shared = SharedCacheClient(address)

        def shared_put():
            for _ in range(50):
                if not shared.put(wire_key, tag, value):
                    raise RuntimeError("shared tier refused a put")

        def shared_get():
            for _ in range(50):
                if shared.get(wire_key) != value:
                    raise RuntimeError("shared tier lost the entry")

        return {
            "service.shared_put_us": probe.measure(shared_put) / 50 * 1e6,
            "service.shared_get_us": probe.measure(shared_get) / 50 * 1e6,
        }
    finally:
        if shared is not None:
            shared.close()
        cache_server.close()


def learning_cells(bench, probe: HostProbe) -> dict[str, float]:
    """model (a training step) and execution, on searches of the train queries."""
    network = fresh_network(bench)
    query, result, _, scored = captured_search(bench.train_queries, network)
    examples = [
        network.featurizer.featurize(scored_query, plan)
        for scored_query, plan in scored[:CAPTURED_EXAMPLES]
    ]
    trainee = fresh_network(bench)
    labels = network.predict_examples(examples)
    trainee.fit_label_transform(labels)
    targets = trainee.transform_labels(labels)
    queries, trees = trainee.featurizer.batch(examples)
    optimizer = Adam(trainee.parameters(), learning_rate=1e-3)

    def train_step():
        optimizer.zero_grad()
        outputs = trainee.forward(queries, trees, training=True)
        _, gradient = mse_loss(outputs, targets)
        trainee.backward(gradient)
        optimizer.clip_gradients(10.0)
        optimizer.step()

    return {
        "model.train_step_ms_b128": probe.measure(train_step) * 1e3,
        "execution.execute_us_per_plan": (
            probe.measure(lambda: [bench.engine.execute(query, plan) for plan in result.plans])
            / len(result.plans) * 1e6
        ),
    }
