"""The metrics exposition is a contract: a golden catalogue of every series.

Dashboards and the watchtower's SLO rules (``repro.telemetry.slo``) read
series by name, so a rename, a dropped label or a changed gauge
aggregation breaks them silently.  One scripted session drives a gateway
through a hit, a miss, a coalesced pair, a rejection, an expired deadline,
one shadowed sample, one online round and one alert transition; a second
drives a two-worker sharded gateway.  The catalogue records, for the
gateway's ``/metrics`` and the supervisor's fleet view, every series'
name, kind, help text, label set and gauge aggregation, plus the values of
the counters the session determines.  ``tests/data/metrics_catalogue.json``
holds it; to regenerate after a deliberate change::

    PYTHONPATH=src python tests/test_metrics_catalogue.py > tests/data/metrics_catalogue.json
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
import urllib.error
import urllib.request

from repro.costmodel.cout import CoutCostModel
from repro.experience import OnlineTrainerLoop
from repro.lifecycle import ModelLifecycle, ModelRegistry, ShadowEvaluator
from repro.model.value_network import ValueNetwork, ValueNetworkConfig
from repro.search.beam import BeamSearchPlanner
from repro.server import PlanningServer, TrafficShadower
from repro.server.sharding import ShardedGateway, WorkerSpec
from repro.service.service import PlannerService
from repro.telemetry.alerts import AlertManager
from repro.telemetry.slo import SloEvaluator, default_slo_objectives
from repro.workloads.benchmark import make_job_benchmark

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "metrics_catalogue.json")

#: Counters whose value the scripted session does not determine: time sums,
#: process-global tallies shared with whatever else ran in the process, and
#: tier traffic that depends on which worker the kernel routed a request to.
UNDETERMINED = frozenset(
    {
        "repro_service_queue_wait_seconds_total",
        "repro_service_planning_seconds_total",
        "repro_service_service_seconds_total",
        "repro_traces_recorded_total",
        "repro_profiler_samples_total",
        "repro_shard_snapshots_received_total",
        "repro_shared_cache_hits_total",
        "repro_shared_cache_misses_total",
        "repro_shared_cache_inserts_total",
        "repro_ops_bus_published_total",
        "repro_ops_bus_delivered_total",
        "repro_ops_bus_delivery_errors_total",
    }
)


def small_planner() -> BeamSearchPlanner:
    return BeamSearchPlanner(beam_size=2, top_k=2, enumerate_scan_operators=False)


class GatedPlanner(BeamSearchPlanner):
    """Beam search that holds one query's search until ``release`` is set."""

    def __init__(self, held: str):
        super().__init__(beam_size=2, top_k=2, enumerate_scan_operators=False)
        self.held = held
        self.release = threading.Event()

    def search(self, query, net, score_fn=None, top_k=None, deadline=None):
        if query.name == self.held:
            assert self.release.wait(30.0)
        return super().search(
            query, net, score_fn=score_fn, top_k=top_k, deadline=deadline
        )


def make_bench():
    return make_job_benchmark(
        fact_rows=200, num_queries=6, num_templates=3, test_size=2,
        seed=2, size_range=(3, 4),
    )


def make_network(bench) -> ValueNetwork:
    return ValueNetwork(
        bench.featurizer,
        ValueNetworkConfig(
            query_hidden=16, query_embedding=8, tree_channels=(16, 8),
            head_hidden=8, seed=2,
        ),
    )


def post(url: str, payload: dict) -> int:
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            response.read()
            return response.status
    except urllib.error.HTTPError as error:
        error.read()
        return error.code


def get(url: str) -> str:
    with urllib.request.urlopen(url, timeout=60) as response:
        return response.read().decode("utf-8")


def wait_until(condition, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.005)


def catalogue(snapshot: dict) -> list[dict]:
    """One sorted row per series: its identity plus determined values."""
    rows = []
    for entry in snapshot["metrics"]:
        row = {
            "name": entry["name"],
            "kind": entry["kind"],
            "help": entry["help"],
            "labels": dict(sorted(entry["labels"].items())),
        }
        if entry["kind"] == "gauge":
            row["aggregation"] = entry["aggregation"]
        elif entry["kind"] == "histogram":
            row["count"] = entry["count"]
        elif entry["name"] not in UNDETERMINED:
            row["value"] = entry["value"]
        rows.append(row)
    rows.sort(key=lambda row: (row["name"], sorted(row["labels"].items())))
    return rows


def gateway_session() -> tuple[dict, str]:
    """The scripted single-gateway session; its snapshot and ``/metrics``."""
    bench = make_bench()
    network = make_network(bench)
    queries = list(bench.train_queries)
    plan_cost = CoutCostModel(bench.estimator).cost
    planner = GatedPlanner(held=queries[1].name)
    service = PlannerService(network, planner=planner, cache_capacity=64)
    registry = ModelRegistry()
    # Bounds no candidate can meet: the online round is a rejection, so no
    # promotion arms the shadower and no replay races the snapshot.
    gate = ShadowEvaluator(
        queries[:2], plan_cost, planner=small_planner(),
        max_regression=1e-9, max_total_regression=1e-9,
    )
    lifecycle = ModelLifecycle(service, registry, gate, featurizer=bench.featurizer)
    lifecycle.baseline(network)
    shadower = TrafficShadower(
        lifecycle, plan_cost, sample_fraction=0.01,
        min_samples=1_000, window=1_000, planner=small_planner(),
    )
    loop = OnlineTrainerLoop(
        lifecycle, plan_cost, min_new_tuples=10_000, sample_size=16, max_epochs=1
    )
    # Every served request is "slow" against a 1ns objective, so the second
    # evaluation moves the latency alert straight to firing.
    alerts = AlertManager(
        SloEvaluator(default_slo_objectives(latency_threshold_seconds=1e-9)),
        pending_for_seconds=0.0,
        interval_seconds=3600.0,
    )
    gateway = PlanningServer(
        service, lifecycle=lifecycle, shadower=shadower,
        experience=loop, queries=bench.all_queries(), alerts=alerts,
    )
    gateway.start()
    try:
        plan_url = f"{gateway.base_url}/v1/plan"
        alerts.evaluate(gateway.telemetry_snapshot(), now=0.0)
        assert post(plan_url, {"query": queries[0].name}) == 200  # miss
        assert post(plan_url, {"query": queries[0].name}) == 200  # hit
        statuses: list[int] = []
        leader = threading.Thread(
            target=lambda: statuses.append(post(plan_url, {"query": queries[1].name}))
        )
        leader.start()
        wait_until(lambda: service._flights)
        follower = threading.Thread(
            target=lambda: statuses.append(post(plan_url, {"query": queries[1].name}))
        )
        follower.start()
        wait_until(lambda: service.pending_requests == 2)
        time.sleep(0.2)  # the follower reaches the leader's flight
        planner.release.set()
        leader.join(60)
        follower.join(60)
        assert statuses == [200, 200]
        rejected = {"query": queries[2].name, "deadline_seconds": 0}
        assert post(plan_url, rejected) == 504
        expired = {"query": queries[2].name, "deadline_seconds": 1e-9}
        assert post(plan_url, expired) == 504
        decision = loop.run_round_now()
        assert decision is not None and not decision.promoted
        alerts.evaluate(gateway.telemetry_snapshot(), now=1.0)
        assert alerts.firing()
        get(f"{gateway.base_url}/v1/metrics")
        text = get(f"{gateway.base_url}/metrics")
        return gateway.telemetry_snapshot(), text
    finally:
        gateway.close()
        loop.close()
        shadower.close()
        service.close()


def fleet_session() -> dict:
    """Two sharded workers, one miss and one hit: the supervisor's view."""
    bench = make_bench()
    network = make_network(bench)
    query = bench.train_queries[0].name

    def factory(spec: WorkerSpec) -> PlanningServer:
        service = PlannerService(network, planner=small_planner(), cache_capacity=64)
        return PlanningServer(
            service, queries=bench.all_queries(), host=spec.host, port=spec.port
        )

    shard = ShardedGateway(
        factory, num_workers=2, max_respawns=0, drain_grace_seconds=0.05
    )
    with shard:
        for _ in range(2):
            assert post(f"{shard.base_url}/v1/plan", {"query": query}) == 200

        def settled() -> bool:
            values = {
                entry["name"]: entry.get("value")
                for entry in shard.fleet_metrics_snapshot()["metrics"]
            }
            return (
                values.get("repro_shard_workers_reporting") == 2
                and values.get("repro_service_requests_total") == 2
            )

        wait_until(settled)
        return shard.fleet_metrics_snapshot()


def record() -> dict:
    snapshot, _ = gateway_session()
    return {
        "gateway": catalogue(snapshot),
        "fleet": catalogue(fleet_session()),
    }


def test_gateway_exposition_matches_the_catalogue():
    with open(GOLDEN) as handle:
        golden = json.load(handle)["gateway"]
    snapshot, text = gateway_session()
    assert catalogue(snapshot) == golden
    typed = {line.split()[2] for line in text.splitlines() if line.startswith("# TYPE")}
    assert typed == {row["name"] for row in golden}


def test_fleet_exposition_matches_the_catalogue():
    with open(GOLDEN) as handle:
        golden = json.load(handle)["fleet"]
    assert catalogue(fleet_session()) == golden


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
