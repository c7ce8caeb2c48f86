"""Integration tests: Balsa, Neo-impl, Bao, diversified experiences on a tiny job_benchmark."""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.agent.balsa import BalsaAgent
from repro.agent.config import BalsaConfig
from repro.baselines.bao import BaoAgent
from repro.baselines.neo import NeoAgent, neo_config
from repro.baselines.random_agent import RandomPlanAgent
from repro.diversity.merge import (
    count_unique_plans,
    merge_agent_experiences,
    retrain_from_experience,
)
from repro.execution.hints import STANDARD_HINT_SETS
from repro.model.value_network import ValueNetworkConfig
from repro.planning.envelope import PlanRequest
from repro.plans.validation import validate_plan
from repro.sql.query import Query, QuerySet
from repro.workloads.benchmark import make_job_benchmark


def tiny_config(seed=0, iterations=2, **overrides):
    config = BalsaConfig(
        seed=seed,
        num_iterations=iterations,
        beam_size=3,
        top_k=2,
        enumerate_scan_operators=False,
        sim_max_points_per_query=200,
        sim_max_epochs=3,
        update_epochs=2,
        retrain_epochs=3,
        eval_interval=2,
        num_execution_nodes=2,
        network=ValueNetworkConfig(
            query_hidden=16, query_embedding=8, tree_channels=(16, 8), head_hidden=8, seed=seed
        ),
    )
    if overrides:
        config = replace(config, **overrides)
    return config


@pytest.fixture(scope="module")
def job_benchmark():
    return make_job_benchmark(
        fact_rows=300, num_queries=10, num_templates=4, test_size=3,
        seed=0, size_range=(3, 5),
    )


@pytest.fixture(scope="module")
def expert_runtimes(job_benchmark):
    return job_benchmark.expert_runtimes()


@pytest.fixture(scope="module")
def trained_agent(job_benchmark, expert_runtimes):
    agent = BalsaAgent(job_benchmark.environment(), tiny_config(), expert_runtimes=expert_runtimes)
    agent.train()
    return agent


class TestBalsaAgent:
    def test_history_recorded(self, trained_agent):
        history = trained_agent.history
        assert len(history.iterations) == 2
        assert history.sim_dataset_size > 0
        for metrics in history.iterations:
            assert metrics.train_runtime > 0
            assert metrics.unique_plans_seen > 0
            assert metrics.normalized_runtime is not None
            assert metrics.composition is not None
        assert history.iterations[1].elapsed_seconds > history.iterations[0].elapsed_seconds

    def test_experience_collected_per_query(self, trained_agent, job_benchmark):
        assert len(trained_agent.experience) == 2 * len(job_benchmark.train_queries)

    def test_timeout_enabled_after_iteration_zero(self, trained_agent):
        assert trained_agent.history.iterations[0].timeout_budget is None
        assert trained_agent.history.iterations[1].timeout_budget is not None

    def test_plan_query_returns_valid_plan(self, trained_agent, job_benchmark):
        query = job_benchmark.test_queries[0]
        plan = trained_agent.plan_query(query)
        validate_plan(query, plan)

    def test_evaluate_returns_all_queries(self, trained_agent, job_benchmark):
        results = trained_agent.evaluate(job_benchmark.test_queries)
        assert set(results) == set(job_benchmark.test_queries.names())
        assert all(latency > 0 for _, latency in results.values())

    def test_workload_runtime_finite_and_not_disastrous(
        self, trained_agent, job_benchmark, expert_runtimes
    ):
        runtime = trained_agent.workload_runtime(job_benchmark.train_queries)
        expert_total = sum(expert_runtimes[q.name] for q in job_benchmark.train_queries)
        assert math.isfinite(runtime)
        # After sim bootstrapping + two iterations the agent must be far from
        # the 45-79x disaster range of random agents.
        assert runtime < 20 * expert_total

    def test_test_evaluation_recorded_on_eval_iterations(self, trained_agent):
        assert trained_agent.history.iterations[0].test_runtime is not None

    def test_no_simulation_variant_runs(self, job_benchmark, expert_runtimes):
        agent = BalsaAgent(
            job_benchmark.environment(),
            tiny_config(iterations=1, use_simulation=False, simulator="none"),
            expert_runtimes=expert_runtimes,
        )
        agent.train()
        assert agent.history.sim_dataset_size == 0
        assert len(agent.history.iterations) == 1

    def test_expert_simulator_variant_runs(self, job_benchmark, expert_runtimes):
        agent = BalsaAgent(
            job_benchmark.environment(),
            tiny_config(iterations=1, simulator="expert"),
            expert_runtimes=expert_runtimes,
        )
        agent.train()
        assert agent.history.sim_dataset_size > 0


class TestNeoAgent:
    def test_neo_config_switches(self):
        config = neo_config(tiny_config())
        assert not config.use_simulation
        assert not config.use_timeouts
        assert not config.on_policy
        assert config.exploration == "none"

    def test_neo_bootstraps_from_demonstrations(self, job_benchmark, expert_runtimes):
        agent = NeoAgent(
            job_benchmark.environment(),
            job_benchmark.expert("postgres"),
            tiny_config(iterations=1),
            expert_runtimes=expert_runtimes,
        )
        agent.train()
        # One demonstration per training query plus one execution per iteration.
        assert len(agent.experience) == 2 * len(job_benchmark.train_queries)
        assert agent.history.sim_dataset_size > 0
        assert agent.history.iterations[0].timeout_budget is None


class TestBaoAgent:
    def test_bao_improves_or_matches_unsteered_expert(self, job_benchmark):
        agent = BaoAgent(job_benchmark.environment(), job_benchmark.expert("postgres"), seed=0)
        agent.train(num_iterations=2)
        assert len(agent.history.train_runtimes) == 2
        steered = agent.workload_runtime(job_benchmark.train_queries)
        unsteered = job_benchmark.expert_workload_runtime(job_benchmark.train_queries)
        assert steered <= unsteered * 1.5

    def test_bao_arm_choice_in_range(self, job_benchmark):
        agent = BaoAgent(job_benchmark.environment(), job_benchmark.expert("postgres"), seed=0)
        agent.bootstrap()
        arm = agent.choose_arm(job_benchmark.train_queries[0], explore=False)
        assert 0 <= arm < len(STANDARD_HINT_SETS)

    def test_bao_plans_are_valid(self, job_benchmark):
        agent = BaoAgent(job_benchmark.environment(), job_benchmark.expert("postgres"), seed=0)
        agent.bootstrap()
        query = job_benchmark.test_queries[0]
        result = agent.plan(PlanRequest(query=query))
        plan, arm = result.best_plan, result.extra["arm_index"]
        validate_plan(query, plan)
        hint = STANDARD_HINT_SETS[arm]
        assert all(hint.allows_join(j.operator) for j in plan.iter_joins())

    def test_a_same_named_twin_is_learned_from_its_own_body(self, job_benchmark):
        query = next(q for q in job_benchmark.train_queries if q.filters)
        twin = Query(name=query.name, tables=query.tables, joins=query.joins, filters=())
        environment = replace(
            job_benchmark.environment(), train_queries=QuerySet("twins", [query, twin])
        )
        agent = BaoAgent(environment, job_benchmark.expert("postgres"), seed=0)
        features = agent._features
        assert not np.array_equal(features(query, 0), features(twin, 0))
        rows = []

        def recorded(row_query, arm_index):
            rows.append(features(row_query, arm_index))
            return rows[-1]

        agent._features = recorded
        agent.bootstrap()  # observes each twin once under arm 0, then refits
        assert len(rows) == 2
        for row, own in zip(rows, (query, twin)):
            np.testing.assert_array_equal(row, features(own, 0))


class TestRandomAgent:
    def test_random_agent_much_slower_than_expert(self, job_benchmark, expert_runtimes):
        agent = RandomPlanAgent(job_benchmark.environment(), seed=0)
        expert_total = sum(expert_runtimes[q.name] for q in job_benchmark.train_queries)
        cap = 50 * expert_total
        runtime = agent.workload_runtime(job_benchmark.train_queries, timeout=cap)
        assert runtime > expert_total

    def test_random_agent_deterministic(self, job_benchmark):
        a = RandomPlanAgent(job_benchmark.environment(), seed=3)
        b = RandomPlanAgent(job_benchmark.environment(), seed=3)
        query = job_benchmark.train_queries[0]
        assert a.plan_query(query).fingerprint() == b.plan_query(query).fingerprint()


class TestDiversifiedExperiences:
    def test_merge_and_retrain(self, job_benchmark, expert_runtimes, trained_agent):
        second = BalsaAgent(
            job_benchmark.environment(),
            tiny_config(seed=1),
            expert_runtimes=expert_runtimes,
            agent_id=1,
        )
        second.train()
        merged = merge_agent_experiences([trained_agent, second])
        assert len(merged) == len(trained_agent.experience) + len(second.experience)
        unique_single = count_unique_plans([trained_agent.experience])
        unique_merged = count_unique_plans([trained_agent.experience, second.experience])
        assert unique_merged >= unique_single

        retrained = retrain_from_experience(
            job_benchmark.environment(), merged, tiny_config(seed=7), expert_runtimes
        )
        query = job_benchmark.test_queries[0]
        plan = retrained.plan_query(query)
        validate_plan(query, plan)

    def test_merge_requires_agents(self):
        with pytest.raises(ValueError):
            merge_agent_experiences([])
