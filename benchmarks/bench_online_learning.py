"""Online-learning soak: the gateway learns from its own live traffic.

Not a paper figure — this measures the closed serving loop added on top of
the paper's training loop (§4 run *while serving*).  The bench stands up the
full online stack — gateway + registry + shadow gate + armed traffic
shadower + :class:`~repro.experience.loop.OnlineTrainerLoop` — seeds it with
a randomly initialised serving network, and then just keeps sending the
workload through ``handle_plan``:

1. every served plan flows into the experience sink; the loop costs it under
   the shared yardstick, replays it, and autonomously fine-tunes, gates and
   promotes new versions while traffic continues;
2. the loop's ``cost_trend`` — the windowed mean simulated-executed cost of
   traffic between rounds — must fall across at least two autonomous
   promotions (the gateway demonstrably learned from its own traffic);
3. the whole soak must be invisible to the foreground: zero failed requests,
   zero request-path sink stalls, zero automatic rollbacks.

Headline figures land in ``benchmark.extra_info`` so ``--benchmark-json``
artifacts expose them to CI (``benchmarks/baselines/online.json``).
"""

from __future__ import annotations

import time

from benchmarks.conftest import run_once
from repro.evaluation.experiments import TINY_JOB_ARGS
from repro.costmodel.cout import CoutCostModel
from repro.experience import OnlineTrainerLoop
from repro.lifecycle import (
    BackgroundTrainer,
    ModelLifecycle,
    ModelRegistry,
    ShadowEvaluator,
)
from repro.model.value_network import ValueNetwork, ValueNetworkConfig
from repro.search.beam import BeamSearchPlanner
from repro.server import PlanningServer, TrafficShadower
from repro.service.service import PlannerService
from repro.workloads.benchmark import make_job_benchmark

#: Autonomous promotions the soak must observe (the issue's acceptance bar).
TARGET_PROMOTIONS = 2
#: Hard cap on autonomous rounds: not every candidate passes the improvement
#: gate, so the soak budgets many attempts per promotion it needs.
MAX_ROUNDS = 24
#: The headline bar: final-window mean executed cost vs the first window.
MAX_COST_TREND_RATIO = 0.95
#: Per-phase safety deadline (the loop is event-driven; this only bounds CI).
PHASE_TIMEOUT_SECONDS = 180.0


def _make_planner() -> BeamSearchPlanner:
    return BeamSearchPlanner(beam_size=3, top_k=3, enumerate_scan_operators=False)


def _acceptance_met(metrics) -> bool:
    """The issue's bar: costs trended down across >= 2 autonomous promotions."""
    trend = metrics.cost_trend
    ratio = trend[-1] / trend[0] if len(trend) >= 2 else 1.0
    return (
        metrics.promotions >= TARGET_PROMOTIONS
        and ratio <= MAX_COST_TREND_RATIO
    )


def _run_online_soak() -> dict:
    # A deliberately narrow workload: online fine-tuning learns from the
    # handful of plans its own traffic surfaces, so per-query capacity (not
    # query count) is what makes the cost trend demonstrably fall.
    num_queries = 6
    bundle = make_job_benchmark(
        fact_rows=TINY_JOB_ARGS["fact_rows"],
        num_queries=num_queries,
        num_templates=min(TINY_JOB_ARGS["num_templates"], num_queries),
        test_size=min(TINY_JOB_ARGS["test_size"], max(num_queries - 4, 1)),
        seed=0,
        # Bigger joins: 5-7-way plan spaces have real cost spread, so a
        # model that learns from traffic has headroom to show it.
        size_range=(5, 7),
    )
    queries = list(bundle.train_queries)
    plan_cost = CoutCostModel(bundle.environment().estimator).cost

    # Deliberately untrained: everything the gateway ends up knowing about
    # plan quality must come from its own traffic.
    serving = ValueNetwork(
        bundle.featurizer,
        ValueNetworkConfig(
            query_hidden=32, query_embedding=16, tree_channels=(32, 16),
            head_hidden=16, seed=0,
        ),
    )
    service = PlannerService(
        serving, planner=_make_planner(), cache_capacity=256
    )
    registry = ModelRegistry()
    # Near-improvement-only promotion: the loop's whole point is a falling
    # cost trend, so the gate refuses candidates that cost more in total on
    # the probe workload — with just enough slack (2%) that a near-equal
    # candidate still lands and the loop keeps taking steps.
    gate = ShadowEvaluator(
        queries, plan_cost,
        max_regression=10.0, max_total_regression=1.02,
        planner=_make_planner(),
    )
    lifecycle = ModelLifecycle(
        service, registry, gate,
        # Gentle per-round fine-tuning: an online loop takes many small
        # steps; hard fits on a tiny traffic window overfit and fail the gate.
        trainer=BackgroundTrainer(
            registry, learning_rate=3e-3, validation_fraction=0.0, patience=10,
            max_epochs=5,
        ),
        featurizer=bundle.featurizer,
    )
    shadower = TrafficShadower(
        lifecycle, plan_cost,
        sample_fraction=0.25, max_regression=3.0, max_total_regression=1.5,
        min_samples=4, window=32, planner=_make_planner(),
    )
    loop = OnlineTrainerLoop(
        lifecycle, plan_cost,
        min_new_tuples=len(queries) * 3,
        # Mini-batch rounds: drawing a fresh recency-weighted subset each
        # round keeps successive candidates distinct, so a rejection is a
        # retry with different data rather than a deterministic dead end.
        sample_size=16,
        # Small steps on purpose: each round should capture only part of the
        # remaining headroom, so the cost descent spans several promotions
        # instead of collapsing into one giant first round.
        max_epochs=5,
        min_round_interval_seconds=0.0,
    )
    gateway = PlanningServer(
        service, lifecycle=lifecycle, shadower=shadower, experience=loop,
        queries=queries,
    )
    lifecycle.baseline(serving)

    failed_requests = 0
    requests_sent = 0
    try:
        loop.start()
        # Keep taking autonomous rounds until the acceptance bar is met: the
        # gate rejects non-improving candidates, so each promotion may take a
        # few mini-batch retries, all fed by the same live traffic.
        while not _acceptance_met(loop.metrics()):
            completed = loop.metrics().rounds
            assert completed < MAX_ROUNDS, loop.metrics().to_json_dict()
            deadline = time.monotonic() + PHASE_TIMEOUT_SECONDS
            # Keep the workload flowing until the loop lands its next
            # autonomous round; the sink threshold is what fires it.
            while loop.metrics().rounds == completed:
                assert time.monotonic() < deadline, (
                    f"round {completed + 1} never fired: "
                    f"{loop.metrics().to_json_dict()}"
                )
                for query in queries:
                    status, body = gateway.handle_plan(
                        {"query": query.name, "k": 3}
                    )
                    requests_sent += 1
                    if status != 200 or not body.get("plans"):
                        failed_requests += 1
                time.sleep(0.01)
        shadower.drain(timeout=10.0)
    finally:
        loop.close()
        gateway.close()
        shadower.close()
        service.close()

    metrics = loop.metrics()
    sink = metrics.sink
    trend = metrics.cost_trend
    cost_trend_ratio = trend[-1] / trend[0] if len(trend) >= 2 else 1.0

    # The loop must have learned from its own traffic without ever touching
    # the foreground: promotions landed, costs fell, nothing failed.
    assert metrics.promotions >= TARGET_PROMOTIONS, metrics.to_json_dict()
    assert metrics.failures == 0, metrics.to_json_dict()
    assert metrics.rollbacks == 0, metrics.to_json_dict()
    assert failed_requests == 0
    assert sink.stalls == 0, sink.to_json_dict()
    assert len(trend) >= 2
    assert cost_trend_ratio <= MAX_COST_TREND_RATIO, trend

    return {
        "queries": len(queries),
        "requests_sent": requests_sent,
        "failed_requests": failed_requests,
        "rounds": metrics.rounds,
        "autonomous_promotions": metrics.promotions,
        "rejections": metrics.rejections,
        "rollbacks": metrics.rollbacks,
        "trained_examples": metrics.trained_examples,
        "sink_recorded": sink.recorded,
        "sink_dropped": sink.dropped,
        "sink_stalls": sink.stalls,
        "sink_max_record_ms": sink.max_record_seconds * 1e3,
        "buffer_size": metrics.buffer.size,
        "duplicates_folded": metrics.buffer.duplicates,
        "cost_trend_first": trend[0],
        "cost_trend_last": trend[-1],
        "cost_trend_ratio": cost_trend_ratio,
        "serving_version": registry.serving_version,
    }


def bench_online_learning_soak(benchmark):
    result = run_once(benchmark, _run_online_soak)
    print()
    print(
        f"online soak: {result['requests_sent']} requests "
        f"({result['failed_requests']} failed), {result['rounds']} autonomous "
        f"rounds -> {result['autonomous_promotions']} promotions, "
        f"{result['rejections']} rejections, {result['rollbacks']} rollbacks "
        f"(serving v{result['serving_version']})"
    )
    print(
        f"cost trend: {result['cost_trend_first']:.1f} -> "
        f"{result['cost_trend_last']:.1f} "
        f"({result['cost_trend_ratio']:.2%} of the first window)"
    )
    print(
        f"experience path: {result['sink_recorded']} recorded, "
        f"{result['sink_dropped']} dropped, {result['sink_stalls']} stalls "
        f"(worst record {result['sink_max_record_ms']:.3f}ms); replay buffer "
        f"{result['buffer_size']} entries, {result['duplicates_folded']} "
        f"duplicates folded; {result['trained_examples']} examples trained"
    )
    for key, value in result.items():
        benchmark.extra_info[key] = round(float(value), 4)
