"""Tests for the classical optimizers: DP, greedy, QuickPick, experts."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel.cout import CoutCostModel
from repro.costmodel.expert import ExpertCostModel
from repro.execution.hints import HintSet
from repro.optimizer.dp import DynamicProgrammingOptimizer
from repro.optimizer.expert import make_commdb_optimizer, make_postgres_optimizer
from repro.optimizer.greedy import GreedyOptimizer
from repro.optimizer.quickpick import QuickPickOptimizer, random_plan
from repro.planning.envelope import PlanRequest
from repro.plans.analysis import PlanShape, plan_shape
from repro.plans.nodes import JoinOperator, ScanOperator
from repro.plans.validation import is_valid_plan, validate_plan
from repro.sql.query import Query
from tests.conftest import left_deep_of


def brute_force_left_deep_best(query: Query, cost_model) -> float:
    """Cheapest left-deep hash-join plan by exhaustive permutation search."""
    best = float("inf")
    for order in itertools.permutations(query.aliases):
        try:
            plan = left_deep_of(query, list(order))
            validate_plan(query, plan)
        except Exception:
            continue
        best = min(best, cost_model.cost(query, plan))
    return best


class TestDynamicProgramming:
    def test_best_plan_is_valid(self, estimator, five_table_query):
        dp = DynamicProgrammingOptimizer(CoutCostModel(estimator), physical=False)
        result = dp.optimize(five_table_query)
        assert result.best_plan is not None
        validate_plan(five_table_query, result.best_plan)

    def test_dp_at_least_as_good_as_left_deep_brute_force(self, estimator, three_table_query):
        model = CoutCostModel(estimator)
        dp = DynamicProgrammingOptimizer(model, physical=False)
        result = dp.optimize(three_table_query)
        brute = brute_force_left_deep_best(three_table_query, model)
        assert result.best_cost <= brute + 1e-6

    def test_left_deep_restriction(self, estimator, five_table_query):
        dp = DynamicProgrammingOptimizer(
            CoutCostModel(estimator), left_deep_only=True, physical=False
        )
        result = dp.optimize(five_table_query)
        assert plan_shape(result.best_plan) in (PlanShape.LEFT_DEEP, PlanShape.SINGLE_TABLE)

    def test_bushy_cost_never_worse_than_left_deep(self, estimator, five_table_query):
        model = CoutCostModel(estimator)
        bushy = DynamicProgrammingOptimizer(model, physical=False).optimize(five_table_query)
        left_deep = DynamicProgrammingOptimizer(
            model, left_deep_only=True, physical=False
        ).optimize(five_table_query)
        assert bushy.best_cost <= left_deep.best_cost + 1e-9

    def test_collect_all_produces_candidates(self, estimator, three_table_query):
        dp = DynamicProgrammingOptimizer(CoutCostModel(estimator), physical=False)
        result = dp.optimize(three_table_query, collect_all=True)
        assert len(result.enumerated) == result.num_candidates > 0
        # Every enumerated candidate is a valid partial plan of its alias set.
        for candidate in result.enumerated:
            restricted = three_table_query.restricted_to(candidate.aliases)
            validate_plan(restricted, candidate.plan)

    def test_physical_enumeration_uses_operators(self, imdb_database, estimator, three_table_query):
        model = ExpertCostModel(estimator, imdb_database)
        dp = DynamicProgrammingOptimizer(model, physical=True)
        result = dp.optimize(three_table_query, collect_all=True)
        operators = {
            node.operator
            for candidate in result.enumerated
            for node in candidate.plan.iter_joins()
        }
        assert len(operators) >= 2

    def test_hint_set_restricts_operators(self, imdb_database, estimator, three_table_query):
        model = ExpertCostModel(estimator, imdb_database)
        hint = HintSet("hash_only", (JoinOperator.HASH_JOIN,), (ScanOperator.SEQ_SCAN,))
        dp = DynamicProgrammingOptimizer(model, hint_set=hint, physical=True)
        result = dp.optimize(three_table_query)
        for node in result.best_plan.iter_joins():
            assert node.operator is JoinOperator.HASH_JOIN
        for node in result.best_plan.iter_scans():
            assert node.operator is ScanOperator.SEQ_SCAN

    def test_disconnected_query_rejected(self, estimator):
        from repro.sql.query import TableRef

        query = Query("disc", (TableRef("title", "t"), TableRef("name", "n")))
        dp = DynamicProgrammingOptimizer(CoutCostModel(estimator), physical=False)
        with pytest.raises(ValueError):
            dp.optimize(query)


class TestGreedy:
    def test_produces_valid_plan(self, imdb_database, estimator, five_table_query):
        greedy = GreedyOptimizer(ExpertCostModel(estimator, imdb_database))
        result = greedy.plan(PlanRequest(query=five_table_query))
        plan, cost = result.best_plan, result.best_predicted_latency
        assert result.planner_name == "greedy"
        validate_plan(five_table_query, plan)
        assert cost > 0

    def test_greedy_cost_not_better_than_dp(self, imdb_database, estimator, five_table_query):
        model = ExpertCostModel(estimator, imdb_database)
        dp_cost = DynamicProgrammingOptimizer(model).optimize(five_table_query).best_cost
        _, greedy_cost = GreedyOptimizer(model).best_plan_and_cost(five_table_query)
        assert greedy_cost >= dp_cost - 1e-6


class TestQuickPick:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_plans_always_valid(self, seed, five_table_query):
        plan = random_plan(five_table_query, seed)
        assert is_valid_plan(five_table_query, plan)

    def test_left_deep_mode(self, five_table_query):
        plan = random_plan(five_table_query, 3, bushy=False)
        assert plan_shape(plan) in (PlanShape.LEFT_DEEP, PlanShape.SINGLE_TABLE)

    def test_optimizer_wrapper_varies_plans(self, five_table_query):
        optimizer = QuickPickOptimizer(seed=0)
        fingerprints = {
            optimizer.plan(PlanRequest(query=five_table_query)).best_plan.fingerprint()
            for _ in range(10)
        }
        assert len(fingerprints) > 1


class TestExpertOptimizers:
    def test_postgres_expert_plans_are_valid_and_cached(self, imdb_database, estimator, five_table_query):
        expert = make_postgres_optimizer(imdb_database, estimator)
        plan_a = expert.plan(PlanRequest(query=five_table_query)).best_plan
        plan_b = expert.plan(PlanRequest(query=five_table_query)).best_plan
        validate_plan(five_table_query, plan_a)
        assert plan_a.fingerprint() == plan_b.fingerprint()
        assert expert.stats.queries_planned == 1  # second call was cached

    def test_a_same_named_twin_gets_its_own_plan(self):
        from repro.api import make_job_benchmark

        bench = make_job_benchmark(
            fact_rows=300, num_queries=12, num_templates=6, test_size=3, seed=0, size_range=(3, 6)
        )
        queries = bench.all_queries()
        five = next(q for q in queries if len(q.aliases) == 5)
        four = next(q for q in queries if len(q.aliases) == 4)
        twin = Query(name=five.name, tables=four.tables, joins=four.joins, filters=four.filters)
        postgres = bench.expert("postgres")
        for query in (five, twin):
            validate_plan(query, postgres.plan(PlanRequest(query=query)).best_plan)

    def test_commdb_expert_is_left_deep(self, imdb_database, estimator, five_table_query):
        expert = make_commdb_optimizer(imdb_database, estimator)
        plan = expert.plan(PlanRequest(query=five_table_query)).best_plan
        assert plan_shape(plan) in (PlanShape.LEFT_DEEP, PlanShape.SINGLE_TABLE)

    def test_greedy_fallback_above_dp_limit(self, imdb_database, estimator, five_table_query):
        expert = make_postgres_optimizer(imdb_database, estimator, max_dp_tables=3)
        expert.plan(PlanRequest(query=five_table_query))
        assert expert.stats.greedy_planned == 1

    def test_with_hint_set_restricts_plan(self, imdb_database, estimator, five_table_query):
        expert = make_postgres_optimizer(imdb_database, estimator)
        restricted = expert.with_hint_set(
            HintSet("no_nl", (JoinOperator.HASH_JOIN, JoinOperator.MERGE_JOIN), (ScanOperator.SEQ_SCAN, ScanOperator.INDEX_SCAN))
        )
        plan = restricted.plan(PlanRequest(query=five_table_query)).best_plan
        assert all(j.operator is not JoinOperator.NESTED_LOOP for j in plan.iter_joins())

    def test_expert_beats_random_plans_on_latency(self, imdb_database, engine, estimator, five_table_query):
        expert = make_postgres_optimizer(imdb_database, estimator)
        expert_plan = expert.plan(PlanRequest(query=five_table_query)).best_plan
        expert_latency = engine.execute(five_table_query, expert_plan).latency
        random_latencies = [
            engine.execute(five_table_query, random_plan(five_table_query, s), timeout=600).latency
            for s in range(5)
        ]
        assert expert_latency <= min(random_latencies) * 1.5
