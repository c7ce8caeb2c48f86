"""Model-lifecycle swap: serving availability and warm-hit rate across a swap.

Not a paper figure — this measures the lifecycle subsystem added on top of the
paper's training loop.  The bench stands up the full serving stack (planner
service + model registry + trainer + shadow gate) and then, while
``plan_many`` traffic hammers the service from a separate thread:

1. fine-tunes a clean candidate on the main thread, shadow-evaluates it, and
   hot-swaps it in (the gate must pass);
2. submits a sabotaged candidate (inverted prediction head — an injected
   regression) which the gate must reject, leaving the promoted version
   serving;
3. measures availability across the whole window (zero failed or dropped
   requests) and the post-swap warm-hit rate on the probe workload (the cache
   warmer must keep steady-state traffic on the warm path, >= 0.9).

Headline figures land in ``benchmark.extra_info`` so ``--benchmark-json``
artifacts expose them to CI.
"""

from __future__ import annotations

import os
import threading
import time

from benchmarks.conftest import run_once
from repro.evaluation.experiments import TINY_JOB_ARGS
from repro.costmodel.cout import CoutCostModel
from repro.lifecycle import BackgroundTrainer, ModelLifecycle, ModelRegistry, ShadowEvaluator
from repro.model.trainer import ValueNetworkTrainer
from repro.model.value_network import ValueNetwork, ValueNetworkConfig
from repro.optimizer.quickpick import random_plan
from repro.search.beam import BeamSearchPlanner
from repro.service.service import PlannerService
from repro.utils.rng import derive_seed, new_rng
from repro.workloads.benchmark import make_job_benchmark

#: CI smoke mode (REPRO_BENCH_QUICK=1) shrinks the workload further.
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") == "1"

MIN_WARM_HIT_RATE = 0.9
MAX_REGRESSION = 1.3


def _make_planner() -> BeamSearchPlanner:
    return BeamSearchPlanner(beam_size=5, top_k=3, enumerate_scan_operators=False)


def _collect_experience(bundle, queries, cost_model, plans_per_query: int):
    """Random plans labelled with cout costs (dense enough to learn ranking)."""
    examples, labels = [], []
    for query in queries:
        seen: set[str] = set()
        for index in range(plans_per_query):
            plan = random_plan(query, new_rng(derive_seed(0, query.name, index)))
            fingerprint = plan.fingerprint()
            if fingerprint in seen:
                continue
            seen.add(fingerprint)
            examples.append(bundle.featurizer.featurize(query, plan))
            labels.append(cost_model.cost(query, plan))
    return examples, labels


def _train_serving(bundle, examples, labels) -> ValueNetwork:
    network = ValueNetwork(
        bundle.featurizer,
        ValueNetworkConfig(
            query_hidden=32, query_embedding=16, tree_channels=(32, 16),
            head_hidden=16, seed=0,
        ),
    )
    ValueNetworkTrainer(
        network, learning_rate=3e-3, max_epochs=60,
        validation_fraction=0.0, seed=0,
    ).fit(examples, labels)
    return network


def _sabotage(network: ValueNetwork) -> ValueNetwork:
    """A clone whose prediction order is inverted: an injected regression."""
    bad = network.clone()
    bad.head_fc2.weight.value = -bad.head_fc2.weight.value
    bad.head_fc2.bias.value = -bad.head_fc2.bias.value
    bad.bump_version()
    return bad


def _run_lifecycle_swap() -> dict:
    num_queries = 8 if QUICK else TINY_JOB_ARGS["num_queries"]
    bundle = make_job_benchmark(
        fact_rows=TINY_JOB_ARGS["fact_rows"],
        num_queries=num_queries,
        num_templates=min(TINY_JOB_ARGS["num_templates"], num_queries),
        test_size=min(TINY_JOB_ARGS["test_size"], max(num_queries - 2, 1)),
        seed=0,
        size_range=TINY_JOB_ARGS["size_range"],
    )
    queries = list(bundle.train_queries)
    cost_model = CoutCostModel(bundle.environment().estimator)
    examples, labels = _collect_experience(
        bundle, queries, cost_model, plans_per_query=40
    )
    serving = _train_serving(bundle, examples, labels)

    service = PlannerService(serving, planner=_make_planner())
    registry = ModelRegistry()
    shadow = ShadowEvaluator(
        queries, cost_model.cost, max_regression=MAX_REGRESSION,
        planner=_make_planner(),
    )
    lifecycle = ModelLifecycle(
        service, registry, shadow, trainer=BackgroundTrainer(registry, max_epochs=2)
    )

    failures: list[BaseException] = []
    served: list = []
    stop = threading.Event()

    def traffic() -> None:
        while not stop.is_set():
            try:
                served.extend(service.plan_many(queries))
            except BaseException as error:  # noqa: BLE001 - measured, not hidden
                failures.append(error)
                return

    thread = threading.Thread(target=traffic)
    with service:
        lifecycle.baseline()
        thread.start()
        try:
            swap_started = time.perf_counter()
            clean_decision = lifecycle.advance(
                examples, labels, refit_label_transform=True
            )
            swap_seconds = time.perf_counter() - swap_started

            bad_snapshot = registry.register(_sabotage(serving), source="sabotaged")
            rejected_decision = lifecycle.evaluate_and_apply(bad_snapshot)
        finally:
            stop.set()
            thread.join()

        window_metrics = service.metrics()

        # Post-swap warm path: one pass over the probe workload, measured on
        # fresh counters so warm hits are attributable.
        service.reset_metrics()
        post = service.plan_many(queries)
        warm_hits = sum(response.cache_hit for response in post)
        warm_hit_rate = warm_hits / len(post)

    # The gate must pass the clean candidate and reject the sabotaged one,
    # the swap must be invisible to traffic, and the cache must stay warm.
    assert clean_decision.promoted, clean_decision.reason
    assert not rejected_decision.promoted, rejected_decision.reason
    assert registry.serving_version == clean_decision.candidate_version
    assert not failures, failures[:1]
    assert all(response.plans for response in served)
    assert window_metrics.swaps == 1
    assert window_metrics.promotions_rejected == 1
    assert warm_hit_rate >= MIN_WARM_HIT_RATE, warm_hit_rate

    dropped = sum(1 for response in served if not response.plans)
    return {
        "queries": len(queries),
        "experience_examples": len(examples),
        "requests_served": len(served) + len(post),
        "failed_requests": len(failures) + dropped,
        "availability": 1.0 if not failures and not dropped else 0.0,
        "swap_window_seconds": swap_seconds,
        "warm_hit_rate": warm_hit_rate,
        "warmed_entries": window_metrics.warmed_entries,
        "swaps": window_metrics.swaps,
        "promotions_rejected": window_metrics.promotions_rejected,
        "clean_max_regression": clean_decision.max_regression,
        "rejected_max_regression": rejected_decision.max_regression,
        "serving_version": registry.serving_version,
    }


def bench_lifecycle_swap(benchmark):
    result = run_once(benchmark, _run_lifecycle_swap)
    print()
    print(
        f"lifecycle swap: {result['requests_served']} requests served across a "
        f"hot swap, {result['failed_requests']} failed "
        f"(availability {result['availability']:.0%})"
    )
    print(
        f"train+shadow+swap+warm window: {result['swap_window_seconds']:.3f}s; "
        f"post-swap warm-hit rate {result['warm_hit_rate']:.2%} "
        f"({result['warmed_entries']} entries warmed)"
    )
    print(
        f"shadow gate: clean candidate max regression "
        f"{result['clean_max_regression']:.3f} (promoted, serving v"
        f"{result['serving_version']}), injected regression "
        f"{result['rejected_max_regression']:.3f} (rejected)"
    )
    for key, value in result.items():
        benchmark.extra_info[key] = round(float(value), 4)
