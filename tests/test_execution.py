"""Tests for the execution engine: join kernels, operators, timeouts, caching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.cluster import ExecutionCluster
from repro.execution.engine import ExecutionEngine
from repro.execution.latency import LatencyModel
from repro.execution.plan_cache import PlanCache
from repro.execution.result import estimate_match_count, match_keys
from repro.optimizer.quickpick import random_plan
from repro.plans.builders import scan
from repro.plans.nodes import JoinNode, JoinOperator
from repro.plans.validation import InvalidPlanError
from tests.conftest import left_deep_of


class TestMatchKeys:
    def test_simple_match(self):
        build = np.array([1, 2, 2, 3])
        probe = np.array([2, 4, 1])
        build_idx, probe_idx = match_keys(build, probe)
        pairs = set(zip(build_idx.tolist(), probe_idx.tolist()))
        assert pairs == {(1, 0), (2, 0), (0, 2)}

    def test_empty_inputs(self):
        empty = np.array([], dtype=np.int64)
        build_idx, probe_idx = match_keys(empty, np.array([1, 2]))
        assert build_idx.size == 0 and probe_idx.size == 0

    @settings(max_examples=40, deadline=None)
    @given(
        build=st.lists(st.integers(0, 8), min_size=0, max_size=40),
        probe=st.lists(st.integers(0, 10), min_size=0, max_size=40),
    )
    def test_match_count_property(self, build, probe):
        build = np.array(build, dtype=np.int64)
        probe = np.array(probe, dtype=np.int64)
        build_idx, probe_idx = match_keys(build, probe)
        brute = sum(int((build == p).sum()) for p in probe)
        assert build_idx.size == brute == probe_idx.size
        assert estimate_match_count(build, probe) == brute
        if build_idx.size:
            assert np.all(build[build_idx] == probe[probe_idx])


class TestEngineCorrectness:
    def test_join_order_invariance(self, engine, five_table_query):
        q = five_table_query
        orders = [
            ["t", "mc", "cn", "mi", "it"],
            ["cn", "mc", "t", "mi", "it"],
            ["it", "mi", "t", "mc", "cn"],
        ]
        cardinalities = set()
        for order in orders:
            plan = left_deep_of(q, order)
            result = engine.execute(q, plan)
            assert not result.timed_out
            cardinalities.add(result.output_rows)
        assert len(cardinalities) == 1

    def test_operator_invariance_of_output(self, engine, three_table_query):
        q = three_table_query
        outputs = set()
        for operator in JoinOperator:
            plan = JoinNode(
                JoinNode(scan(q, "t"), scan(q, "mc"), operator), scan(q, "cn"), operator
            )
            outputs.add(engine.execute(q, plan).output_rows)
        assert len(outputs) == 1

    def test_filters_reduce_cardinality(self, engine, three_table_query):
        q = three_table_query
        unfiltered = q.restricted_to(set(q.aliases))
        unfiltered = type(q)(
            name="nofilters", tables=q.tables, joins=q.joins, filters=()
        )
        plan_f = left_deep_of(q, ["t", "mc", "cn"])
        plan_u = left_deep_of(unfiltered, ["t", "mc", "cn"])
        filtered_rows = engine.execute(q, plan_f).output_rows
        unfiltered_rows = engine.execute(unfiltered, plan_u).output_rows
        assert filtered_rows <= unfiltered_rows

    def test_node_cardinalities_recorded(self, engine, three_table_query):
        q = three_table_query
        result = engine.execute(q, left_deep_of(q, ["t", "mc", "cn"]))
        assert frozenset({"t"}) in result.node_cardinalities
        assert frozenset({"t", "mc", "cn"}) in result.node_cardinalities
        assert result.node_cardinalities[frozenset(q.aliases)] == result.output_rows

    def test_invalid_plan_rejected(self, engine, five_table_query, three_table_query):
        plan = left_deep_of(three_table_query, ["t", "mc", "cn"])
        with pytest.raises(InvalidPlanError):
            engine.execute(five_table_query, plan)


class TestEngineLatency:
    def test_latency_positive_and_work_consistent(self, engine, three_table_query):
        q = three_table_query
        result = engine.execute(q, left_deep_of(q, ["t", "mc", "cn"]))
        assert result.latency > 0
        assert result.latency == pytest.approx(
            engine.latency_model.to_latency(result.work)
        )

    def test_bad_plans_are_slower(self, engine, five_table_query):
        q = five_table_query
        good = left_deep_of(q, ["cn", "mc", "t", "mi", "it"], JoinOperator.HASH_JOIN)
        # Pure non-indexed nested loops over the large fact tables are a
        # "disastrous" choice.
        bad = left_deep_of(q, ["mi", "t", "mc", "cn", "it"], JoinOperator.NESTED_LOOP)
        good_latency = engine.execute(q, good).latency
        bad_latency = engine.execute(q, bad, timeout=3600).latency
        assert bad_latency > 2 * good_latency

    def test_timeout_cuts_execution(self, engine, five_table_query):
        q = five_table_query
        bad = left_deep_of(q, ["mi", "t", "mc", "cn", "it"], JoinOperator.NESTED_LOOP)
        budget = 1e-4
        result = engine.execute(q, bad, timeout=budget)
        assert result.timed_out
        assert result.latency == budget

    def test_timeout_not_triggered_for_fast_plan(self, engine, three_table_query):
        q = three_table_query
        plan = left_deep_of(q, ["cn", "mc", "t"])
        result = engine.execute(q, plan, timeout=3600.0)
        assert not result.timed_out

    def test_noise_is_deterministic_per_seed(self, imdb_database, three_table_query):
        q = three_table_query
        plan = left_deep_of(q, ["t", "mc", "cn"])
        model = LatencyModel(noise_std=0.2)
        a = ExecutionEngine(imdb_database, latency_model=model, noise_seed=1)
        b = ExecutionEngine(imdb_database, latency_model=model, noise_seed=1)
        assert a.execute(q, plan).latency == pytest.approx(b.execute(q, plan).latency)

    def test_execution_counters(self, imdb_database, three_table_query):
        engine = ExecutionEngine(imdb_database)
        q = three_table_query
        engine.execute(q, left_deep_of(q, ["t", "mc", "cn"]))
        assert engine.num_executions == 1
        assert engine.total_simulated_seconds > 0


class TestLatencyModel:
    def test_round_trip(self):
        model = LatencyModel()
        assert model.to_work(model.to_latency(1234.0)) == pytest.approx(1234.0)

    def test_noise_disabled_by_default(self):
        model = LatencyModel()
        assert model.apply_noise(1.0, 42) == 1.0

    def test_noise_applied_when_enabled(self):
        model = LatencyModel(noise_std=0.5)
        assert model.apply_noise(1.0, 42) != 1.0


class TestPlanCache:
    def _result(self, timed_out=False, latency=1.0):
        from repro.execution.engine import ExecutionResult

        return ExecutionResult(
            query_name="q",
            plan_fingerprint="p",
            latency=latency,
            timed_out=timed_out,
            output_rows=10,
            work=100.0,
        )

    def test_hit_after_store(self):
        cache = PlanCache()
        cache.store("q", "p", self._result(), timeout=None)
        assert cache.lookup("q", "p", timeout=None) is not None
        assert cache.hits == 1

    def test_miss_on_unknown(self):
        cache = PlanCache()
        assert cache.lookup("q", "p", None) is None
        assert cache.misses == 1

    def test_timed_out_entry_not_reused_for_larger_budget(self):
        cache = PlanCache()
        cache.store("q", "p", self._result(timed_out=True, latency=2.0), timeout=2.0)
        assert cache.lookup("q", "p", timeout=10.0) is None
        assert cache.lookup("q", "p", timeout=1.0) is not None

    def test_timed_out_entry_answers_only_its_own_kind_of_budget(self):
        # An uncapped explosion is charged the engine's pessimistic latency,
        # a capped execution of the same plan its cap: neither answers the
        # other.
        cache = PlanCache()
        cache.store("q", "p", self._result(timed_out=True, latency=50.0), timeout=None)
        assert cache.lookup("q", "p", timeout=5.0) is None
        assert cache.lookup("q", "p", timeout=None).latency == 50.0
        cache.store("q", "p", self._result(timed_out=True, latency=5.0), timeout=5.0)
        assert cache.lookup("q", "p", timeout=None) is None
        assert cache.lookup("q", "p", timeout=5.0).latency == 5.0

    def test_capped_execution_after_an_uncapped_explosion_is_charged_the_cap(
        self, imdb_database
    ):
        from repro.agent.environment import BalsaEnvironment
        from tests.conftest import make_five_table_query

        query = make_five_table_query()
        plan = random_plan(query, 0)
        engine = ExecutionEngine(imdb_database, max_intermediate_rows=1)
        environment = BalsaEnvironment(  # only the engine and the cache run
            database=imdb_database, engine=engine, estimator=None, featurizer=None,
            train_queries=None, test_queries=None,
        )
        exploded, cached = environment.execute(query, plan)
        assert exploded.timed_out and not cached
        cap = exploded.latency / 10
        capped, cached = environment.execute(query, plan, timeout=cap)
        assert capped.timed_out and not cached
        assert capped.latency == cap
        assert environment.execute(query, plan, timeout=cap) == (capped, True)
        assert environment.execute(query, plan)[0].latency == exploded.latency

    def test_completed_result_not_overwritten_by_timeout(self):
        cache = PlanCache()
        cache.store("q", "p", self._result(timed_out=False), timeout=None)
        cache.store("q", "p", self._result(timed_out=True), timeout=1.0)
        assert not cache.lookup("q", "p", None).timed_out

    def test_clear(self):
        cache = PlanCache()
        cache.store("q", "p", self._result(), None)
        cache.clear()
        assert len(cache) == 0


class TestExecutionCluster:
    def test_single_node_serialises_executions(self):
        cluster = ExecutionCluster(num_nodes=1)
        timing = cluster.iteration_elapsed([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        assert timing.elapsed == pytest.approx(3.0)

    def test_many_nodes_parallelise(self):
        serial = ExecutionCluster(num_nodes=1).iteration_elapsed([0.0] * 4, [1.0] * 4)
        parallel = ExecutionCluster(num_nodes=4).iteration_elapsed([0.0] * 4, [1.0] * 4)
        assert parallel.elapsed < serial.elapsed

    def test_planning_pipelined_with_execution(self):
        cluster = ExecutionCluster(num_nodes=2)
        timing = cluster.iteration_elapsed([0.5, 0.5], [2.0, 2.0])
        # Plan 1 done at 0.5, runs until 2.5; plan 2 done at 1.0, runs until 3.0.
        assert timing.elapsed == pytest.approx(3.0)
        assert timing.planning_time == pytest.approx(1.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            ExecutionCluster(1).iteration_elapsed([0.1], [1.0, 2.0])

    def test_invalid_node_count(self):
        with pytest.raises(ValueError):
            ExecutionCluster(0)


class TestRandomPlansOnEngine:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_plans_execute_and_match_cardinality(
        self, engine, five_table_query, seed
    ):
        q = five_table_query
        reference = engine.execute(q, left_deep_of(q, ["cn", "mc", "t", "mi", "it"]))
        plan = random_plan(q, seed)
        result = engine.execute(q, plan, timeout=3600.0)
        if not result.timed_out:
            assert result.output_rows == reference.output_rows
