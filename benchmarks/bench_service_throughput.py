"""Planner-service throughput: queries/sec, cache-hit speedup, coalescing.

Not a paper figure — this measures the serving layer added on top of the
paper's beam search.  For each workload (JOB-like and TPC-H-like) the bench
plans the full query set three ways under one untrained value network:

- ``serial``      — plain ``BeamSearchPlanner.search`` in a loop (the
  pre-service baseline; also warms the shared featurizer cache so the service
  passes measure search + scoring, not featurisation);
- ``cold``        — ``PlannerService.plan_many`` on the calling thread with
  in-process scoring, empty plan cache (every request misses);
- ``warm``        — the same requests again (every request hits the cache).

Two unified-API legs ride along on the JOB workload:

- ``deadline``    — the same requests with a per-request planning budget
  (25% of the mean serial search); beam search must cut off mid-search, which
  measurably reduces both planning time and states expanded;
- ``registry``    — a non-beam planner (``"postgres"`` from the benchmark's
  planner registry) served through the same ``plan_many`` cache/dedup path.

The numbers to watch: warm/cold speedup (must be >= 5x, it is typically a few
hundred x), the deadline cut, service-vs-serial wall clock, and the
scoring backend's mean forward batch size.  All headline figures are
attached to ``benchmark.extra_info`` so ``--benchmark-json`` artifacts expose
them to CI.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import run_once
from repro.evaluation.experiments import TINY_JOB_ARGS, TINY_TPCH
from repro.evaluation.reporting import format_table
from repro.model.value_network import ValueNetwork, ValueNetworkConfig
from repro.planning.envelope import PlanRequest
from repro.search.beam import BeamSearchPlanner
from repro.service.service import PlannerService
from repro.workloads.benchmark import make_job_benchmark, make_tpch_benchmark

#: CI smoke mode (REPRO_BENCH_QUICK=1) shrinks the workloads further.
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") == "1"

MIN_WARM_SPEEDUP = 5.0


def _make_planner() -> BeamSearchPlanner:
    return BeamSearchPlanner(beam_size=5, top_k=3, enumerate_scan_operators=False)


def _make_network(benchmark_bundle) -> ValueNetwork:
    return ValueNetwork(
        benchmark_bundle.featurizer,
        ValueNetworkConfig(
            query_hidden=32, query_embedding=16, tree_channels=(32, 16), head_hidden=16,
            seed=0,
        ),
    )


def _measure_workload(bundle, queries) -> dict:
    """Plan ``queries`` serially, then cold and warm through the service."""
    network = _make_network(bundle)
    planner = _make_planner()

    serial_started = time.perf_counter()
    serial_results = [planner.search(query, network) for query in queries]
    serial_seconds = time.perf_counter() - serial_started

    with bundle.planner_service(network, planner=_make_planner()) as service:
        cold_started = time.perf_counter()
        cold = service.plan_many(queries)
        cold_seconds = time.perf_counter() - cold_started

        warm_started = time.perf_counter()
        warm = service.plan_many(queries)
        warm_seconds = time.perf_counter() - warm_started
        metrics = service.metrics()

    assert all(not response.cache_hit for response in cold)
    assert all(response.cache_hit for response in warm)
    # The service returns the same best plans as the bare search.
    for direct, response in zip(serial_results, cold):
        assert direct.best_plan.fingerprint() == response.best_plan.fingerprint()

    count = len(queries)
    return {
        "queries": count,
        "serial_seconds": serial_seconds,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "serial_qps": count / serial_seconds if serial_seconds > 0 else 0.0,
        "cold_qps": count / cold_seconds if cold_seconds > 0 else 0.0,
        "warm_qps": count / warm_seconds if warm_seconds > 0 else 0.0,
        "warm_speedup": cold_seconds / warm_seconds if warm_seconds > 0 else float("inf"),
        "service_speedup": serial_seconds / cold_seconds if cold_seconds > 0 else 0.0,
        "hit_rate": metrics.hit_rate,
        "mean_forward_batch": metrics.scoring.mean_batch_examples,
        "max_forward_batch": metrics.scoring.max_batch_examples,
    }


def _measure_deadline_cut(bundle, queries) -> dict:
    """Plan with and without per-request budgets; budgets must cut the search.

    A fresh network (new cache version) plans every query twice through a
    service: once with no budget, once with a budget of 25% of
    the mean unconstrained search time.  Beam search's budget-aware cutoff
    must truncate at least one search and reduce total planning work.
    """
    network = _make_network(bundle)
    planner = _make_planner()

    full_started = time.perf_counter()
    full_results = [planner.search(query, network) for query in queries]
    full_seconds = time.perf_counter() - full_started
    full_states = sum(result.states_expanded for result in full_results)
    budget = 0.25 * full_seconds / max(len(queries), 1)

    with PlannerService(network, planner=_make_planner()) as service:
        responses = service.plan_many(
            PlanRequest(query=query, k=planner.top_k, deadline_seconds=budget)
            for query in queries
        )
        metrics = service.metrics()

    cut_seconds = sum(response.planning_seconds for response in responses)
    cut_states = sum(response.states_expanded for response in responses)
    truncated = sum(response.deadline_exceeded for response in responses)

    # The budget-aware cutoff must engage and must shrink the search.
    assert truncated > 0, "no search hit its planning budget"
    assert cut_states < full_states, (cut_states, full_states)
    assert metrics.deadline_exceeded_requests == truncated
    return {
        "budget_seconds": budget,
        "full_planning_seconds": full_seconds,
        "deadline_planning_seconds": cut_seconds,
        "deadline_cut": full_seconds / cut_seconds if cut_seconds > 0 else float("inf"),
        "full_states_expanded": full_states,
        "deadline_states_expanded": cut_states,
        "truncated_requests": truncated,
    }


def _measure_registry_routed(bundle, queries) -> dict:
    """Serve a non-beam registry planner through ``PlannerService.plan_many``."""
    registry = bundle.planner_registry(network=_make_network(bundle), seed=0)
    with PlannerService(planner=registry.get("postgres")) as service:
        cold_started = time.perf_counter()
        cold = service.plan_many(queries)
        cold_seconds = time.perf_counter() - cold_started
        warm = service.plan_many(queries)
        metrics = service.metrics()

    assert all(response.planner_name == "postgres" for response in cold)
    assert all(response.plans for response in cold)
    assert all(response.cache_hit for response in warm)
    return {
        "queries": len(queries),
        "cold_seconds": cold_seconds,
        "cold_qps": len(queries) / cold_seconds if cold_seconds > 0 else 0.0,
        "hit_rate": metrics.hit_rate,
    }


def _run_service_throughput() -> dict:
    num_queries = 8 if QUICK else TINY_JOB_ARGS["num_queries"]
    job = make_job_benchmark(
        fact_rows=TINY_JOB_ARGS["fact_rows"],
        num_queries=num_queries,
        num_templates=min(TINY_JOB_ARGS["num_templates"], num_queries),
        test_size=min(TINY_JOB_ARGS["test_size"], max(num_queries - 2, 1)),
        seed=0,
        size_range=TINY_JOB_ARGS["size_range"],
    )
    tpch = make_tpch_benchmark(
        base_rows=dict(TINY_TPCH.args)["base_rows"],
        queries_per_template=1 if QUICK else dict(TINY_TPCH.args)["queries_per_template"],
        seed=0,
    )
    rows = {
        "job": _measure_workload(job, job.all_queries()),
        "tpch": _measure_workload(tpch, tpch.all_queries()),
    }
    extras = {
        "deadline": _measure_deadline_cut(job, job.all_queries()),
        "registry_postgres": _measure_registry_routed(job, job.all_queries()),
    }
    return {"workloads": rows, "extras": extras}


def bench_service_throughput(benchmark):
    outcome = run_once(benchmark, _run_service_throughput)
    result = outcome["workloads"]
    extras = outcome["extras"]
    print()
    print(
        format_table(
            [
                "workload", "queries", "serial q/s", "cold q/s", "warm q/s",
                "warm speedup", "mean batch",
            ],
            [
                [
                    name,
                    row["queries"],
                    f"{row['serial_qps']:.1f}",
                    f"{row['cold_qps']:.1f}",
                    f"{row['warm_qps']:.0f}",
                    f"{row['warm_speedup']:.0f}x",
                    f"{row['mean_forward_batch']:.1f}",
                ]
                for name, row in result.items()
            ],
            title="Planner service throughput (cold = empty cache, warm = repeat)",
        )
    )
    deadline = extras["deadline"]
    registry = extras["registry_postgres"]
    print(
        f"deadline budget={deadline['budget_seconds'] * 1e3:.1f}ms/query: "
        f"planning {deadline['full_planning_seconds']:.3f}s -> "
        f"{deadline['deadline_planning_seconds']:.3f}s "
        f"({deadline['deadline_cut']:.1f}x cut, "
        f"{deadline['truncated_requests']} truncated, "
        f"states {deadline['full_states_expanded']} -> "
        f"{deadline['deadline_states_expanded']})"
    )
    print(
        f"registry-routed postgres: {registry['queries']} queries at "
        f"{registry['cold_qps']:.1f} q/s cold, hit_rate {registry['hit_rate']:.2%}"
    )
    for name, row in result.items():
        for key in (
            "serial_qps", "cold_qps", "warm_qps", "warm_speedup",
            "service_speedup", "mean_forward_batch",
        ):
            benchmark.extra_info[f"{name}_{key}"] = round(float(row[key]), 3)
        # The acceptance bar: a warm cache must be at least 5x faster.
        assert row["warm_speedup"] >= MIN_WARM_SPEEDUP, (name, row["warm_speedup"])
    for key in ("deadline_cut", "truncated_requests", "deadline_planning_seconds",
                "full_planning_seconds"):
        benchmark.extra_info[f"deadline_{key}"] = round(float(deadline[key]), 4)
    benchmark.extra_info["registry_postgres_cold_qps"] = round(registry["cold_qps"], 3)
    # A mid-search deadline must measurably cut beam-search planning time.
    assert deadline["deadline_planning_seconds"] < deadline["full_planning_seconds"]
