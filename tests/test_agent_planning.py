"""The agent plans by calling its own beam search.

Every training iteration plans with weights the previous update just changed,
so the agent keeps no plan cache: it hands ``BeamSearchPlanner.search`` its
network and a counting ``score_fn``, and sums each search's work into
``agent.search_counts``.  These tests pin what that promises: repeated plans
under unchanged weights agree and are counted every time, the counts are the
searches' own, and the protocol adapter honours ``k`` and the deadline.
"""

from __future__ import annotations

import pytest

from repro.agent.balsa import BalsaAgent
from repro.agent.config import BalsaConfig
from repro.planning.adapters import AgentPlanner
from repro.planning.envelope import PlanRequest
from repro.workloads.benchmark import make_job_benchmark

CONFIG = BalsaConfig(
    seed=0, num_iterations=1, beam_size=3, top_k=2, enumerate_scan_operators=False,
    use_simulation=False, retrain_epochs=2, update_epochs=1, eval_interval=0,
)


@pytest.fixture(scope="module")
def bundle():
    return make_job_benchmark(
        fact_rows=300, num_queries=10, num_templates=4, test_size=3,
        seed=0, size_range=(3, 5),
    )


@pytest.fixture
def agent(bundle):
    agent = BalsaAgent(bundle.environment(), CONFIG)
    agent.bootstrap_from_simulation()
    return agent


def counts_of(agent: BalsaAgent) -> tuple[int, int, int, int]:
    counts = agent.search_counts
    return (
        counts.states_expanded, counts.plans_scored,
        counts.score_calls, counts.scored_examples,
    )


def test_repeated_evaluations_plan_alike_and_count_both_rounds(agent, bundle):
    queries = list(bundle.test_queries)
    first = agent.evaluate(queries)
    once = counts_of(agent)
    second = agent.evaluate(queries)
    assert {name: plan.fingerprint() for name, (plan, _) in first.items()} == {
        name: plan.fingerprint() for name, (plan, _) in second.items()
    }
    assert all(once)
    assert counts_of(agent) == tuple(2 * count for count in once)


def test_the_counts_are_the_searches_own(agent, bundle):
    results = []
    search = agent.planner.search

    def recorded_search(*args, **kwargs):
        results.append(search(*args, **kwargs))
        return results[-1]

    batches = []
    predict = agent.value_network.predict

    def counted_predict(query, plans):
        batches.append(len(plans))
        return predict(query, plans)

    agent.planner.search = recorded_search
    agent.value_network.predict = counted_predict
    agent.train_iteration()
    agent.evaluate(bundle.test_queries)

    counts = agent.search_counts
    assert len(results) == len(bundle.train_queries) + len(bundle.test_queries)
    assert counts.states_expanded == sum(result.states_expanded for result in results)
    assert counts.plans_scored == sum(result.plans_scored for result in results)
    assert counts.score_calls == len(batches)
    assert counts.scored_examples == sum(batches) == counts.plans_scored


def test_the_suite_view_reads_the_same_counts(agent, bundle):
    agent.planner_service.plan_many(
        PlanRequest(query=query, k=2) for query in bundle.test_queries
    )
    metrics = agent.planner_service.metrics()
    assert (
        metrics.total_states_expanded, metrics.total_plans_scored,
        metrics.scoring.requests, metrics.scoring.examples,
    ) == counts_of(agent)


def test_the_adapter_honours_k_and_a_drained_budget(agent, bundle):
    adapter = AgentPlanner(agent, name="neo")
    query = bundle.test_queries[0]
    for k in (1, 2):
        result = adapter.plan(PlanRequest(query=query, k=k))
        assert len(result.plans) == k
        assert result.planner_name == "neo"
        assert not result.deadline_exceeded
    drained = adapter.plan(PlanRequest(query=query, k=2, deadline_seconds=1e-6))
    assert drained.deadline_exceeded
    assert len(drained.plans) < 2


def test_planning_before_bootstrap_raises(bundle):
    agent = BalsaAgent(bundle.environment(), CONFIG)
    with pytest.raises(RuntimeError, match="bootstrapped"):
        agent.plan(PlanRequest(query=bundle.test_queries[0]))
