"""Tests for agent components: experience, exploration, timeouts, config."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agent.balsa import BalsaAgent
from repro.agent.config import BalsaConfig
from repro.agent.environment import BalsaEnvironment
from repro.agent.experience import ExecutionRecord, ExperienceBuffer
from repro.agent.exploration import (
    CountBasedExploration,
    EpsilonGreedyExploration,
    NoExploration,
    make_exploration,
)
from repro.agent.timeout_policy import TimeoutPolicy
from repro.execution.engine import ExecutionEngine
from repro.planning.envelope import PlanResult
from repro.plans.builders import scan
from repro.plans.nodes import JoinNode, JoinOperator
from repro.sql.expr import ComparisonOp, FilterPredicate
from repro.sql.query import Query, QuerySet
from tests.conftest import left_deep_of


@pytest.fixture
def buffer():
    return ExperienceBuffer()


def _record(query, order, latency, operator=JoinOperator.HASH_JOIN, **kwargs):
    return ExecutionRecord(
        query=query,
        plan=left_deep_of(query, order, operator),
        latency=latency,
        **kwargs,
    )


class TestExperienceBuffer:
    def test_visit_counts_and_unique_plans(self, buffer, three_table_query):
        q = three_table_query
        buffer.add(_record(q, ["t", "mc", "cn"], 1.0))
        buffer.add(_record(q, ["t", "mc", "cn"], 2.0))
        buffer.add(_record(q, ["cn", "mc", "t"], 3.0))
        plan = left_deep_of(q, ["t", "mc", "cn"])
        assert buffer.visit_count(q, plan) == 2
        assert buffer.has_executed(q, plan)
        assert buffer.num_unique_plans() == 2
        assert len(buffer) == 3

    def test_best_latency_ignores_timeouts(self, buffer, three_table_query):
        q = three_table_query
        buffer.add(_record(q, ["t", "mc", "cn"], 4096.0, timed_out=True))
        assert buffer.best_latency(q) is None
        buffer.add(_record(q, ["cn", "mc", "t"], 2.5))
        assert buffer.best_latency(q) == 2.5

    def test_label_correction_uses_best_containing_execution(self, buffer, three_table_query):
        q = three_table_query
        # Two executions share the subplan Join(t, mc) scanned the same way.
        shared_prefix = JoinNode(scan(q, "t"), scan(q, "mc"))
        slow = JoinNode(shared_prefix, scan(q, "cn"), JoinOperator.NESTED_LOOP)
        fast = JoinNode(shared_prefix, scan(q, "cn"), JoinOperator.HASH_JOIN)
        buffer.add(ExecutionRecord(q, slow, latency=10.0))
        buffer.add(ExecutionRecord(q, fast, latency=1.0))
        assert buffer.corrected_label(q, shared_prefix) == 1.0
        assert buffer.corrected_label(q, slow) == 10.0
        assert buffer.corrected_label(q, fast) == 1.0

    def test_training_points_on_policy_filter(self, buffer, three_table_query):
        q = three_table_query
        buffer.add(_record(q, ["t", "mc", "cn"], 5.0, iteration=0))
        buffer.add(_record(q, ["cn", "mc", "t"], 3.0, iteration=1))
        all_points = buffer.training_points()
        latest = buffer.training_points(iteration=1)
        assert len(all_points) == 10  # two plans x five subplans
        assert len(latest) == 5

    def test_training_points_label_correction_spans_buffer(self, buffer, three_table_query):
        q = three_table_query
        buffer.add(_record(q, ["t", "mc", "cn"], 5.0, iteration=0))
        buffer.add(_record(q, ["t", "mc", "cn"], 1.0, iteration=1))
        points = buffer.training_points(iteration=0)
        # Even iteration-0 records get the improved label from iteration 1.
        assert all(p.label == 1.0 for p in points)

    def test_merged_with(self, three_table_query):
        q = three_table_query
        a = ExperienceBuffer()
        b = ExperienceBuffer()
        a.add(_record(q, ["t", "mc", "cn"], 1.0, agent_id=0))
        b.add(_record(q, ["cn", "mc", "t"], 2.0, agent_id=1))
        merged = a.merged_with([b])
        assert len(merged) == 2
        assert merged.num_unique_plans() == 2

    def test_agent_filter(self, buffer, three_table_query):
        q = three_table_query
        buffer.add(_record(q, ["t", "mc", "cn"], 1.0, agent_id=0))
        buffer.add(_record(q, ["cn", "mc", "t"], 2.0, agent_id=1))
        assert len(buffer.training_points(agent_id=1)) == 5


def scanned_best_latency(records, query):
    """The best latency as a scan of every record: the reference."""
    best = None
    for record in records:
        if record.query.fingerprint() == query.fingerprint() and not record.timed_out:
            if best is None or record.latency < best:
                best = record.latency
    return best


class TestBestLatency:
    @settings(max_examples=60, deadline=None)
    @given(
        runs=st.lists(
            st.tuples(
                st.sampled_from(["q3", "twin", "other"]),
                st.sampled_from([0.5, 1.0, 2.5, 4096.0]),
                st.booleans(),
            ),
            max_size=30,
        )
    )
    def test_the_kept_best_is_the_scan(self, three_table_query, runs):
        buffer = ExperienceBuffer()
        plan = left_deep_of(three_table_query, ["t", "mc", "cn"])
        # Four structurally different queries, two of them sharing a name.
        queries = {
            name: Query(
                name=query_name, tables=three_table_query.tables,
                joins=three_table_query.joins, filters=filters,
            )
            for name, query_name, filters in [
                ("q3", "q3", three_table_query.filters),
                ("twin", "q3", three_table_query.filters[:1]),
                ("other", "other", three_table_query.filters[1:]),
                ("never executed", "never executed", ()),
            ]
        }
        for name, latency, timed_out in runs:
            buffer.add(ExecutionRecord(queries[name], plan, latency, timed_out=timed_out))
            for query in queries.values():
                assert buffer.best_latency(query) == scanned_best_latency(
                    buffer.records, query
                )


class TestEnvironmentPlanCache:
    def test_a_same_named_twin_is_not_served_the_first_querys_result(
        self, imdb_database, estimator, featurizer, three_table_query
    ):
        query = three_table_query
        twin = Query(name=query.name, tables=query.tables, joins=query.joins, filters=())
        environment = BalsaEnvironment(
            imdb_database, ExecutionEngine(imdb_database), estimator, featurizer,
            QuerySet("train", [query]), QuerySet("test", []),
        )
        plan = left_deep_of(query, ["t", "mc", "cn"])
        first, _ = environment.execute(query, plan)
        result, cached = environment.execute(twin, plan)
        assert not cached
        assert result.latency == ExecutionEngine(imdb_database).execute(twin, plan).latency
        assert result.latency != first.latency
        assert environment.execute(twin, plan)[1]


class TestSameNamedTwins:
    def test_each_twin_trains_on_its_own_query_and_labels(
        self, imdb_database, estimator, featurizer, three_table_query
    ):
        """Two queries named ``q3`` over the same aliases, told apart only by
        a filter literal, each executed once by an agent iteration: every
        training point carries its own record's query and latency, so
        neither twin's label leaks into the other's subplans."""
        query = three_table_query
        twin = Query(
            name=query.name, tables=query.tables, joins=query.joins,
            filters=(
                FilterPredicate("t", "production_year", ComparisonOp.GT, 2010),
                query.filters[1],
            ),
        )
        environment = BalsaEnvironment(
            imdb_database, ExecutionEngine(imdb_database), estimator, featurizer,
            QuerySet("train", [query, twin]), QuerySet("test", []),
        )
        agent = BalsaAgent(environment, BalsaConfig.small(seed=0, num_iterations=1))
        try:
            agent.bootstrap_from_simulation()
            agent.train_iteration()
            records = agent.experience.records
            assert [record.iteration for record in records] == [0, 0]
            latencies = [record.latency for record in records]
            assert latencies[0] != latencies[1]
            points = agent.experience.training_points(iteration=0)
            subplans = [len(list(record.plan.iter_subplans())) for record in records]
            assert len(points) == sum(subplans)
            owners = [query] * subplans[0] + [twin] * subplans[1]
            labels = [latencies[0]] * subplans[0] + [latencies[1]] * subplans[1]
            assert all(point.query is owner for point, owner in zip(points, owners))
            assert [point.label for point in points] == labels
        finally:
            agent.close()


class TestExploration:
    def _planner_result(self, query):
        plans = [
            left_deep_of(query, ["t", "mc", "cn"]),
            left_deep_of(query, ["cn", "mc", "t"]),
            left_deep_of(query, ["mc", "t", "cn"]),
        ]
        return PlanResult(
            plans=plans,
            predicted_latencies=[1.0, 2.0, 3.0],
            planning_seconds=0.01,
        )

    def test_count_based_picks_best_unseen(self, buffer, three_table_query):
        q = three_table_query
        result = self._planner_result(q)
        strategy = CountBasedExploration()
        buffer.add(ExecutionRecord(q, result.plans[0], 1.0))
        chosen = strategy.choose(q, result, buffer)
        assert chosen.fingerprint() == result.plans[1].fingerprint()

    def test_count_based_falls_back_to_best(self, buffer, three_table_query):
        q = three_table_query
        result = self._planner_result(q)
        strategy = CountBasedExploration()
        for plan in result.plans:
            buffer.add(ExecutionRecord(q, plan, 1.0))
        assert strategy.choose(q, result, buffer) is result.best_plan

    def test_no_exploration_always_best(self, buffer, three_table_query):
        result = self._planner_result(three_table_query)
        assert NoExploration().choose(three_table_query, result, buffer) is result.best_plan

    def test_epsilon_greedy_sometimes_random(self, buffer, three_table_query):
        result = self._planner_result(three_table_query)
        strategy = EpsilonGreedyExploration(epsilon=1.0, seed=0)
        chosen = strategy.choose(three_table_query, result, buffer)
        # With epsilon = 1 the plan is always a random one (valid for the query).
        assert chosen.leaf_aliases == frozenset(three_table_query.aliases)

    def test_epsilon_zero_is_greedy(self, buffer, three_table_query):
        result = self._planner_result(three_table_query)
        strategy = EpsilonGreedyExploration(epsilon=0.0, seed=0)
        assert strategy.choose(three_table_query, result, buffer) is result.best_plan

    def test_factory(self):
        assert isinstance(make_exploration("count"), CountBasedExploration)
        assert isinstance(make_exploration("epsilon"), EpsilonGreedyExploration)
        assert isinstance(make_exploration("none"), NoExploration)
        with pytest.raises(ValueError):
            make_exploration("bogus")

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            EpsilonGreedyExploration(epsilon=1.5)


class TestTimeoutPolicy:
    def test_no_timeout_before_first_iteration(self):
        policy = TimeoutPolicy(slack=2.0)
        assert policy.current_timeout() is None

    def test_timeout_after_observation(self):
        policy = TimeoutPolicy(slack=2.0)
        policy.observe_iteration(3.0)
        assert policy.current_timeout() == 6.0

    def test_timeout_tightens_monotonically(self):
        policy = TimeoutPolicy(slack=2.0)
        policy.observe_iteration(3.0)
        policy.observe_iteration(5.0)
        assert policy.current_timeout() == 6.0
        policy.observe_iteration(1.0)
        assert policy.current_timeout() == 2.0

    def test_disabled_policy_never_times_out(self):
        policy = TimeoutPolicy(enabled=False)
        policy.observe_iteration(3.0)
        assert policy.current_timeout() is None

    def test_label_for(self):
        policy = TimeoutPolicy(timeout_label=4096.0)
        assert policy.label_for(2.0, timed_out=False) == 2.0
        assert policy.label_for(2.0, timed_out=True) == 4096.0

    def test_zero_runtime_ignored(self):
        policy = TimeoutPolicy()
        policy.observe_iteration(0.0)
        assert policy.current_timeout() is None


class TestBalsaConfig:
    def test_defaults_match_paper(self):
        config = BalsaConfig()
        assert config.beam_size == 20
        assert config.top_k == 10
        assert TimeoutPolicy().slack == 2.0
        assert config.timeout_label == 4096.0
        assert config.on_policy and config.use_timeouts and config.use_simulation

    def test_small_preset_is_lighter(self):
        small = BalsaConfig.small()
        assert small.beam_size < BalsaConfig().beam_size
        assert small.num_iterations < BalsaConfig().num_iterations

    def test_with_seed_propagates_to_network(self):
        config = BalsaConfig.small(seed=0)
        reseeded = config.with_seed(7)
        assert reseeded.seed == 7
        assert reseeded.network.seed == 7

    def test_paper_preset(self):
        assert BalsaConfig.paper().num_iterations == 500
