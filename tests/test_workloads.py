"""Tests for workload generation, splits and benchmark assembly."""

import pytest

from repro.execution.engine import ExecutionEngine
from repro.sql.query import Query
from repro.workloads.benchmark import make_job_benchmark, make_tpch_benchmark
from repro.workloads.job import JOB_ALIASES, make_ext_job_queries, make_job_queries
from repro.workloads.splits import random_split, slow_split, slowest_templates, template_split
from repro.workloads.tpch import make_tpch_queries


class TestJobGeneration:
    def test_query_count_and_names_unique(self):
        queries, template_of = make_job_queries(num_queries=40, num_templates=10, seed=0)
        assert len(queries) == 40
        assert len({q.name for q in queries}) == 40
        assert set(template_of) == {q.name for q in queries}

    def test_queries_are_connected_and_within_size_range(self):
        queries, _ = make_job_queries(num_queries=30, num_templates=10, seed=1, size_range=(3, 8))
        for query in queries:
            assert query.is_connected()
            assert 3 <= query.num_tables <= 8
            assert query.num_joins >= query.num_tables - 1

    def test_queries_reference_known_tables(self):
        queries, _ = make_job_queries(num_queries=20, num_templates=5, seed=2)
        for query in queries:
            for table_ref in query.tables:
                assert table_ref.alias in JOB_ALIASES
                assert JOB_ALIASES[table_ref.alias] == table_ref.table

    def test_variants_share_join_graph_but_differ_in_filters(self):
        queries, template_of = make_job_queries(num_queries=30, num_templates=10, seed=3)
        by_template: dict[int, list] = {}
        for query in queries:
            by_template.setdefault(template_of[query.name], []).append(query)
        multi = next(group for group in by_template.values() if len(group) >= 2)
        assert set(multi[0].aliases) == set(multi[1].aliases)

    def test_deterministic_per_seed(self):
        a, _ = make_job_queries(num_queries=10, num_templates=5, seed=9)
        b, _ = make_job_queries(num_queries=10, num_templates=5, seed=9)
        assert [q.name for q in a] == [q.name for q in b]
        assert [len(q.filters) for q in a] == [len(q.filters) for q in b]

    def test_filters_within_count_bounds(self):
        queries, _ = make_job_queries(
            num_queries=20, num_templates=5, seed=4, filters_per_query=(2, 4)
        )
        for query in queries:
            assert len(query.filters) <= 4

    def test_ext_job_differs_from_job(self):
        job_queries, _ = make_job_queries(num_queries=20, num_templates=5, seed=0)
        ext = make_ext_job_queries(num_queries=10, seed=99)
        assert len(ext) == 10
        assert all(q.name.startswith("ext") for q in ext)
        assert all(q.is_connected() for q in ext)
        job_names = {q.name for q in job_queries}
        assert not job_names & {q.name for q in ext}


class TestTpchGeneration:
    def test_template_partition(self):
        train, test = make_tpch_queries(queries_per_template=4, seed=0)
        assert len(train) == 7 * 4
        assert len(test) == 4
        assert all(q.name.startswith("tpch10") for q in test)

    def test_queries_connected(self):
        train, test = make_tpch_queries(queries_per_template=2, seed=1)
        for query in train + test:
            assert query.is_connected()

    def test_join_counts_small(self):
        train, _ = make_tpch_queries(queries_per_template=1, seed=0)
        assert max(q.num_tables for q in train) <= 8


class TestSplits:
    @pytest.fixture(scope="class")
    def queries(self):
        queries, template_of = make_job_queries(num_queries=20, num_templates=5, seed=0)
        return queries, template_of

    def test_random_split_partition(self, queries):
        qs, _ = queries
        train, test = random_split(qs, test_size=5, seed=0)
        assert len(train) == 15 and len(test) == 5
        assert not set(train.names()) & set(test.names())

    def test_random_split_too_large_test(self, queries):
        qs, _ = queries
        with pytest.raises(ValueError):
            random_split(qs, test_size=len(qs))

    def test_slow_split_selects_slowest(self, queries):
        qs, _ = queries
        runtimes = {q.name: float(i) for i, q in enumerate(qs)}
        train, test = slow_split(qs, runtimes, test_size=3)
        assert set(test.names()) == {qs[-1].name, qs[-2].name, qs[-3].name}

    def test_slow_split_missing_runtime(self, queries):
        qs, _ = queries
        with pytest.raises(KeyError):
            slow_split(qs, {}, test_size=3)

    def test_template_split_holds_out_whole_templates(self, queries):
        qs, template_of = queries
        held_out = [0, 1]
        train, test = template_split(qs, template_of, held_out)
        assert all(template_of[name] in held_out for name in test.names())
        assert all(template_of[name] not in held_out for name in train.names())

    def test_slowest_templates(self, queries):
        qs, template_of = queries
        runtimes = {q.name: (10.0 if template_of[q.name] == 2 else 1.0) for q in qs}
        worst = slowest_templates(qs, template_of, runtimes, num_templates=1)
        assert worst == [2]


class TestBenchmarks:
    @pytest.fixture(scope="class")
    def job_benchmark(self):
        return make_job_benchmark(
            fact_rows=300, num_queries=10, num_templates=4, test_size=3,
            seed=0, size_range=(3, 5),
        )

    def test_job_benchmark_structure(self, job_benchmark):
        assert len(job_benchmark.train_queries) == 7
        assert len(job_benchmark.test_queries) == 3
        assert {"postgres", "commdb"} <= set(job_benchmark.experts)
        assert job_benchmark.database.table("movie_companies").has_index("movie_id")

    def test_environment_shares_substrate(self, job_benchmark):
        environment = job_benchmark.environment()
        assert environment.database is job_benchmark.database

    def test_expert_runtimes_cached(self, job_benchmark):
        first = job_benchmark.expert_runtimes()
        executions_after_first = job_benchmark.engine.num_executions
        second = job_benchmark.expert_runtimes()
        assert first == second
        assert job_benchmark.engine.num_executions == executions_after_first

    def test_a_same_named_twin_gets_its_own_expert_plan_and_latency(self, job_benchmark):
        query = next(q for q in job_benchmark.train_queries if q.filters)
        twin = Query(name=query.name, tables=query.tables, joins=query.joins, filters=())
        _, first = job_benchmark.expert_plan_and_latency(query)
        plan, latency = job_benchmark.expert_plan_and_latency(twin)
        expected_plan, _ = job_benchmark.expert("postgres").optimize_with_cost(twin)
        assert plan == expected_plan
        assert latency == ExecutionEngine(job_benchmark.database).execute(twin, plan).latency
        assert latency != first
        assert job_benchmark.expert_plan_and_latency(query)[1] == first

    def test_expert_workload_runtime_positive(self, job_benchmark):
        assert job_benchmark.expert_workload_runtime(job_benchmark.train_queries) > 0

    def test_unknown_expert_raises(self, job_benchmark):
        with pytest.raises(KeyError):
            job_benchmark.expert("oracle")

    def test_slow_split_benchmark(self):
        benchmark = make_job_benchmark(
            split="slow", fact_rows=300, num_queries=8, num_templates=4,
            test_size=2, seed=0, size_range=(3, 5),
        )
        runtimes = benchmark.expert_runtimes()
        test_runtimes = [runtimes[n] for n in benchmark.test_queries.names()]
        train_runtimes = [runtimes[n] for n in benchmark.train_queries.names()]
        assert min(test_runtimes) >= max(train_runtimes) - 1e-9

    def test_ext_job_included_when_requested(self):
        benchmark = make_job_benchmark(
            fact_rows=300, num_queries=8, num_templates=4, test_size=2,
            seed=0, size_range=(3, 5), include_ext_job=True,
        )
        assert "ext_job" in benchmark.extra_queries
        assert len(benchmark.extra_queries["ext_job"]) == 24

    def test_invalid_split_rejected(self):
        with pytest.raises(ValueError):
            make_job_benchmark(split="bogus", fact_rows=300, num_queries=8,
                               num_templates=4, test_size=2)

    def test_tpch_benchmark_structure(self):
        benchmark = make_tpch_benchmark(base_rows=200, queries_per_template=2, seed=0)
        assert len(benchmark.train_queries) == 14
        assert len(benchmark.test_queries) == 2
        assert benchmark.database.table("lineitem").num_rows > 0
