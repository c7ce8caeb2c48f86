"""The engine's ledger: a replayed plan reads bit for bit as a materialised one.

``ExecutionEngine`` records what every plan node it finished cost and replays
a plan whose nodes it knows.  Every test here runs a plan on an engine whose
ledger already holds nodes and on a fresh engine (an empty ledger, so it
materialises every join), and asserts ``==`` on what the agent reads.  A test
that means to replay also checks ``num_materialised`` did not move, so a
ledger that silently falls back to materialising cannot pass it.
"""

from __future__ import annotations

from copy import deepcopy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.engine import ExecutionEngine, ExecutionResult
from repro.optimizer.expert import make_commdb_optimizer, make_postgres_optimizer
from repro.optimizer.quickpick import random_plan
from repro.plans.builders import scan
from repro.plans.nodes import JoinNode, JoinOperator, PlanNode, ScanNode, ScanOperator
from repro.sql.expr import ComparisonOp, FilterPredicate, JoinPredicate
from repro.sql.query import Query, TableRef
from repro.storage.database import Database
from repro.storage.table import Table
from repro.workloads.benchmark import make_job_benchmark
from repro.workloads.job import make_job_queries
from tests.conftest import make_five_table_query, make_three_table_query

#: Random JOB-like queries of 3-7 relations plus the two hand-written ones.
QUERIES = make_job_queries(num_queries=12, num_templates=6, seed=5, size_range=(3, 7))[0]
QUERIES += [make_three_table_query(), make_five_table_query()]

query_indexes = st.integers(0, len(QUERIES) - 1)
plan_seeds = st.integers(0, 2**16)


def assert_same(result: ExecutionResult, expected: ExecutionResult) -> None:
    assert result.latency == expected.latency
    assert result.work == expected.work
    assert result.timed_out == expected.timed_out
    assert result.output_rows == expected.output_rows
    # Insertion order too: both walks finish nodes in the same postorder.
    assert list(result.node_cardinalities.items()) == list(
        expected.node_cardinalities.items()
    )


def materialised(engine: ExecutionEngine, query: Query, plan: PlanNode, timeout=None):
    """What an engine like ``engine`` with an empty ledger reports."""
    fresh = ExecutionEngine(
        engine.database, engine.latency_model, engine.max_intermediate_rows
    )
    result = fresh.execute(query, plan, timeout=timeout)
    assert fresh.num_materialised == 1
    return result


def replayed(engine: ExecutionEngine, query: Query, plan: PlanNode, timeout=None):
    """Execute a plan whose nodes ``engine`` must already know."""
    before = engine.num_materialised
    result = engine.execute(query, plan, timeout=timeout)
    assert engine.num_materialised == before, "the ledger did not answer"
    return result


def with_join_operators(plan: PlanNode, operators) -> PlanNode:
    """``plan`` with its joins' operators drawn, in postorder, from ``operators``."""
    if isinstance(plan, ScanNode):
        return plan
    left = with_join_operators(plan.left, operators)
    right = with_join_operators(plan.right, operators)
    return JoinNode(left, right, next(operators))


@pytest.fixture(scope="module")
def shared(imdb_database):
    """One engine every example of a test adds to, as agents sharing a bundle do."""
    return ExecutionEngine(imdb_database)


class TestRandomPlans:
    @settings(max_examples=40, deadline=None)
    @given(index=query_indexes, seed=plan_seeds, bushy=st.booleans())
    def test_replay_equals_materialising(self, shared, index, seed, bushy):
        query = QUERIES[index]
        plan = random_plan(query, seed, bushy=bushy)
        expected = materialised(shared, query, plan, timeout=3600.0)
        # The first run may already replay: other plans left its nodes.
        assert_same(shared.execute(query, plan, timeout=3600.0), expected)
        assert_same(replayed(shared, query, plan, timeout=3600.0), expected)

    def test_every_split_of_one_alias_set_is_its_own_join(self, imdb_database):
        q = make_three_table_query()
        t, mc, cn = scan(q, "t"), scan(q, "mc"), scan(q, "cn")
        # The same three aliases on top, split {t, mc} | {cn} and {t} | {mc, cn}.
        plans = [JoinNode(JoinNode(t, mc), cn), JoinNode(t, JoinNode(mc, cn))]
        engine = ExecutionEngine(imdb_database)
        for plan in plans:
            engine.execute(q, plan)
        for plan in plans:
            assert_same(replayed(engine, q, plan), materialised(engine, q, plan))
        first, second = (materialised(engine, q, plan) for plan in plans)
        assert first.work != second.work

    @settings(max_examples=25, deadline=None)
    @given(
        index=query_indexes,
        seed=plan_seeds,
        operators=st.lists(st.sampled_from(list(JoinOperator)), min_size=12, max_size=12),
    )
    def test_plans_differing_only_in_join_operators(self, shared, index, seed, operators):
        query = QUERIES[index]
        plan = random_plan(query, seed)
        variant = with_join_operators(plan, iter(operators))
        for candidate in (plan, variant):
            expected = materialised(shared, query, candidate, timeout=3600.0)
            assert_same(shared.execute(query, candidate, timeout=3600.0), expected)
            assert_same(replayed(shared, query, candidate, timeout=3600.0), expected)


class TestTimeouts:
    @settings(max_examples=30, deadline=None)
    @given(
        index=query_indexes,
        seed=plan_seeds,
        fractions=st.lists(st.floats(0.02, 1.2), min_size=1, max_size=4),
    )
    def test_budgets_that_cut_mid_plan(self, imdb_database, index, seed, fractions):
        query = QUERIES[index]
        plan = random_plan(query, seed)
        engine = ExecutionEngine(imdb_database)
        full = materialised(engine, query, plan)
        budgets = [full.latency * fraction for fraction in fractions]
        expected = [materialised(engine, query, plan, budget) for budget in budgets]
        for budget, reference in zip(budgets, expected):
            assert_same(engine.execute(query, plan, timeout=budget), reference)
        # Every budget again: the ledger now holds each node any run reached,
        # the one whose check timed out included.
        for budget, reference in zip(budgets, expected):
            assert_same(replayed(engine, query, plan, budget), reference)

    def test_a_timed_out_run_replays_under_its_own_budget(self, imdb_database):
        q = make_five_table_query()
        plan = random_plan(q, 3)
        engine = ExecutionEngine(imdb_database)
        budget = materialised(engine, q, plan).latency / 2
        first = engine.execute(q, plan, timeout=budget)
        assert first.timed_out
        assert_same(replayed(engine, q, plan, budget), first)
        assert_same(first, materialised(engine, q, plan, budget))

    def test_a_tighter_budget_than_the_recording_run(self, imdb_database):
        q = make_five_table_query()
        plan = random_plan(q, 4)
        engine = ExecutionEngine(imdb_database)
        full = engine.execute(q, plan)  # records every node
        for fraction in (0.9, 0.5, 0.1, 0.01):
            budget = full.latency * fraction
            result = replayed(engine, q, plan, budget)
            assert result.timed_out
            assert_same(result, materialised(engine, q, plan, budget))


class TestExplosions:
    @pytest.fixture(scope="class")
    def guarded(self, imdb_database):
        return ExecutionEngine(imdb_database, max_intermediate_rows=40)

    @settings(max_examples=30, deadline=None)
    @given(
        index=query_indexes,
        seed=plan_seeds,
        timeout=st.sampled_from([None, 1e-3, 3600.0]),
    )
    def test_recorded_explosions_raise_where_materialising_does(
        self, guarded, index, seed, timeout
    ):
        query = QUERIES[index]
        plan = random_plan(query, seed)
        expected = materialised(guarded, query, plan, timeout)
        assert_same(guarded.execute(query, plan, timeout=timeout), expected)
        assert_same(replayed(guarded, query, plan, timeout), expected)

    def test_an_explosion_is_replayed(self, imdb_database):
        q = make_five_table_query()
        plan = random_plan(q, 0)
        engine = ExecutionEngine(imdb_database, max_intermediate_rows=1)
        first = engine.execute(q, plan)
        assert first.timed_out and first.output_rows == 0
        assert_same(replayed(engine, q, plan), first)
        assert_same(first, materialised(engine, q, plan))


class TestQueryIdentity:
    @settings(max_examples=25, deadline=None)
    @given(
        index=query_indexes,
        seed=plan_seeds,
        keep=st.lists(st.booleans(), min_size=5, max_size=5),
    )
    def test_same_named_twins_with_different_filters(self, shared, index, seed, keep):
        query = QUERIES[index]
        twin = Query(
            name=query.name,
            tables=query.tables,
            joins=query.joins,
            filters=tuple(f for f, kept in zip(query.filters, keep) if kept),
        )
        plan = random_plan(query, seed)
        for candidate in (query, twin):
            assert_same(
                shared.execute(candidate, plan, timeout=3600.0),
                materialised(shared, candidate, plan, timeout=3600.0),
            )
        # Each twin has its own entries now: both replay.
        for candidate in (query, twin):
            assert_same(
                replayed(shared, candidate, plan, timeout=3600.0),
                materialised(shared, candidate, plan, timeout=3600.0),
            )

    def test_a_reordered_query_executes_without_the_ledger(self, imdb_database):
        title = imdb_database.table("title")
        filters = (
            FilterPredicate("t", "kind_id", ComparisonOp.EQ, int(title.column("kind_id")[0])),
            FilterPredicate("t", "id", ComparisonOp.EQ, int(title.column("id")[0])),
        )
        tables = (TableRef("title", "t"), TableRef("movie_companies", "mc"))
        joins = (JoinPredicate("t", "id", "mc", "movie_id"),)
        query = Query("q", tables, joins, filters)
        reordered = Query("q", tables, joins, filters[::-1])
        assert query.fingerprint() == reordered.fingerprint()
        plan = JoinNode(scan(query, "t", ScanOperator.INDEX_SCAN), scan(query, "mc"))
        engine = ExecutionEngine(imdb_database)
        # The index scan probes the first equality filter, so the order shows.
        assert materialised(engine, query, plan).work != materialised(engine, reordered, plan).work
        for candidate in (query, reordered, query, reordered):
            assert_same(engine.execute(candidate, plan), materialised(engine, candidate, plan))


class TestBound:
    def test_a_full_ledger_is_dropped_whole(self, imdb_database, monkeypatch):
        import repro.execution.engine as engine_module

        monkeypatch.setattr(engine_module, "_LEDGER_NODES", 4)
        q = make_three_table_query()
        plan = random_plan(q, 1)  # five nodes: past the bound once recorded
        engine = ExecutionEngine(imdb_database)
        first = engine.execute(q, plan)
        assert engine.num_materialised == 1
        assert_same(engine.execute(q, plan), first)
        assert engine.num_materialised == 2
        assert engine.num_executions == 2


# ---------------------------------------------------------------------- #
# Declared indexes, built on first probe
# ---------------------------------------------------------------------- #
#: The suite's ``learn`` bundle (9 train / 3 test queries of 3-6 relations).
LEARN_BUNDLE = dict(
    fact_rows=300, num_queries=12, num_templates=6, test_size=3, seed=0, size_range=(3, 6)
)


def eagerly_indexed(database: Database) -> Database:
    """A copy of ``database`` with every declared index already built."""
    copy = deepcopy(database)
    for table in copy.tables.values():
        for column in table.indexed:
            table.index(column)
    return copy


def index_differences(lazy: Database, eager: Database, queries, plans_per_query=6):
    """Every execution and expert answer on which ``lazy`` and ``eager`` differ.

    Each query runs random plans (every scan and join operator, bushy and
    left-deep) on an engine per database, then the ``postgres`` and
    ``commdb`` experts plan it over each database's own cost model.
    """
    engines = [ExecutionEngine(database) for database in (lazy, eager)]
    experts = [
        [make(database) for make in (make_postgres_optimizer, make_commdb_optimizer)]
        for database in (lazy, eager)
    ]
    differences = []
    for query in queries:
        for seed in range(plans_per_query):
            plan = random_plan(query, seed, bushy=seed % 2 == 0)
            lazy_result, eager_result = (
                engine.execute(query, plan, timeout=3600.0) for engine in engines
            )
            if lazy_result != eager_result:
                differences.append((query.name, plan.fingerprint()))
        for lazy_expert, eager_expert in zip(*experts):
            if lazy_expert.optimize_with_cost(query) != eager_expert.optimize_with_cost(query):
                differences.append((query.name, lazy_expert.name))
    return differences


@pytest.fixture(scope="module")
def learn_bundle():
    return make_job_benchmark(**LEARN_BUNDLE)


def unprobed(database: Database) -> Database:
    """A copy of a database nothing has probed yet: every index declared, none built."""
    copy = deepcopy(database)
    assert all(not table._indexes for table in copy.tables.values())
    return copy


class TestDeclaredIndexes:
    def test_the_learn_bundle_answers_as_if_every_index_were_built(self, learn_bundle):
        lazy = unprobed(learn_bundle.database)
        eager = eagerly_indexed(lazy)
        assert index_differences(lazy, eager, learn_bundle.all_queries()) == []
        # The executions probed some indexes, and only declared ones.
        built = {(t.name, c) for t in lazy.tables.values() for c in t._indexes}
        assert built and all(c in lazy.table(name).indexed for name, c in built)

    def test_the_fixture_database_answers_as_if_every_index_were_built(
        self, imdb_database
    ):
        eager = eagerly_indexed(imdb_database)
        assert index_differences(imdb_database, eager, QUERIES) == []

    def test_a_has_index_that_reads_only_built_indexes_is_caught(
        self, learn_bundle, monkeypatch
    ):
        lazy = unprobed(learn_bundle.database)
        eager = eagerly_indexed(lazy)
        monkeypatch.setattr(
            Table, "has_index", lambda table, column: column in table._indexes
        )
        assert index_differences(lazy, eager, learn_bundle.all_queries())

