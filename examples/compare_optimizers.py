"""Compare every registered planner on one workload through one harness.

Reproduces the qualitative comparison behind Figure 6 / Figure 15 / Table 3 of
the paper on a small JOB-like benchmark — experts, Bao, Neo-impl, Balsa and
the random baselines — but through the unified planning API: the trained
agents and the classical optimizers are registered under string names, and a
single loop sends the same ``PlanRequest`` envelope to each of them.

Run with::

    python examples/compare_optimizers.py
"""

from __future__ import annotations

import numpy as np

from repro import BalsaAgent, BalsaConfig, BaoAgent, NeoAgent, PlanRequest, make_job_benchmark
from repro.evaluation.reporting import format_table


def run_planner_comparison(benchmark, registry, k: int = 1) -> list[dict]:
    """Every registered planner answers the same envelopes on the same engine.

    Executions run *without* a latency cap: the engine charges disastrous
    plans a pessimistic latency proportional to the exploded intermediate (a
    fixed cap would charge every guard-tripping query the identical full cap,
    erasing the differences this comparison exists to show).  Guard trips are
    counted per planner in ``timeouts``.
    """
    rows = []
    for name in registry.available():
        planner = registry.get(name)
        planning_times: list[float] = []
        runtimes = {"train": 0.0, "test": 0.0}
        timeouts = 0
        for split, queries in (
            ("train", benchmark.train_queries),
            ("test", benchmark.test_queries),
        ):
            for query in queries:
                result = planner.plan(PlanRequest(query=query, k=k))
                planning_times.append(result.planning_seconds)
                execution = benchmark.engine.execute(query, result.best_plan)
                runtimes[split] += execution.latency
                timeouts += int(execution.timed_out)
        rows.append({
            "planner": name,
            "train_runtime": runtimes["train"],
            "test_runtime": runtimes["test"],
            "mean_planning_ms": 1000.0 * float(np.mean(planning_times)),
            "timeouts": timeouts,
        })
    return rows


def main() -> None:
    benchmark = make_job_benchmark(
        fact_rows=700, num_queries=28, num_templates=8, test_size=6,
        size_range=(4, 7), seed=1,
    )
    expert_runtimes = benchmark.expert_runtimes()

    # Train the learned planners first; the registry then serves them next to
    # the classical ones under the same names-to-planners mapping.
    bao = BaoAgent(benchmark.environment(), benchmark.expert("postgres"), seed=0)
    bao.train(num_iterations=6)

    config = BalsaConfig.small(seed=0, num_iterations=8)
    neo = NeoAgent(benchmark.environment(), benchmark.expert("postgres"), config,
                   expert_runtimes=expert_runtimes)
    neo.train()

    balsa = BalsaAgent(benchmark.environment(), BalsaConfig.small(seed=0, num_iterations=12),
                       expert_runtimes=expert_runtimes)
    balsa.train()

    # One registry, nine planners: "beam" is Balsa's trained value network
    # searched with the agent's own beam settings, "bao"/"neo" the trained
    # agents, the rest the classical baselines.
    registry = benchmark.planner_registry(
        network=balsa.value_network, bao=bao, neo=neo, seed=0,
        beam_planner=balsa.planner,
    )

    # One harness for every planner: each registry name answers the same
    # envelope, every chosen plan runs on the same simulated engine (the
    # engine charges disastrous plans pessimistically, so no cap is needed).
    rows = run_planner_comparison(benchmark, registry)

    print(format_table(
        ["planner", "train workload runtime (s)", "test workload runtime (s)",
         "mean planning (ms)"],
        [
            [row["planner"], row["train_runtime"], row["test_runtime"],
             f"{row['mean_planning_ms']:.1f}"]
            for row in rows
        ],
        title="Workload runtimes on the simulated engine (lower is better)",
    ))


if __name__ == "__main__":
    main()
