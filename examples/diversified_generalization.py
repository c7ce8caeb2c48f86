"""Diversified experiences and out-of-distribution generalisation (paper §6, §8.5).

Trains several independently seeded Balsa agents on the JOB-like workload,
merges their experience buffers, retrains a fresh "Balsa-Nx" agent offline
(no additional query executions) and evaluates everything on the Ext-JOB-like
queries, whose join templates never appear during training.

Run with::

    python examples/diversified_generalization.py
"""

from __future__ import annotations

from repro import BalsaAgent, BalsaConfig, make_job_benchmark
from repro.diversity import merge_agent_experiences, retrain_from_experience
from repro.diversity.merge import count_unique_plans
from repro.evaluation.reporting import format_table


def main() -> None:
    num_agents = 3
    benchmark = make_job_benchmark(
        fact_rows=700, num_queries=28, num_templates=8, test_size=6,
        size_range=(4, 7), seed=2, include_ext_job=True,
    )
    ext_job = benchmark.extra_queries["ext_job"]
    expert_runtimes = benchmark.expert_runtimes(
        list(benchmark.all_queries()) + list(ext_job)
    )
    expert_ext = sum(expert_runtimes[q.name] for q in ext_job)

    # Train N independently seeded agents on the same training workload.
    agents = []
    for seed in range(num_agents):
        config = BalsaConfig.small(seed=seed, num_iterations=10)
        agent = BalsaAgent(
            benchmark.environment(), config, expert_runtimes=expert_runtimes, agent_id=seed
        )
        agent.train()
        agents.append(agent)
        print(f"agent {seed}: unique plans seen = {agent.experience.num_unique_plans()}")

    # Table 1: unique plans grow almost linearly with the number of agents.
    rows = []
    for count in range(1, num_agents + 1):
        unique = count_unique_plans(a.experience for a in agents[:count])
        rows.append([count, unique])
    print(format_table(["agents merged", "unique plans"], rows, title="\nTable 1 analogue"))

    # Retrain a fresh agent on the merged experience (no executions).
    merged = merge_agent_experiences(agents)
    balsa_nx = retrain_from_experience(
        benchmark.environment(), merged, BalsaConfig.small(seed=100), expert_runtimes
    )

    def ext_normalized(agent: BalsaAgent) -> float:
        latencies = agent.evaluate(ext_job)
        return sum(latency for _, latency in latencies.values()) / expert_ext

    print(format_table(
        ["agent", "Ext-JOB normalized runtime (lower is better)"],
        [
            ["balsa (single agent)", ext_normalized(agents[0])],
            [f"balsa-{num_agents}x (merged, retrained)", ext_normalized(balsa_nx)],
        ],
        title="\nFigure 17 analogue: out-of-distribution generalisation",
    ))


if __name__ == "__main__":
    main()
