"""Tests for the column store: tables, hash indexes and statistics."""

import threading

import numpy as np
import pytest

from repro.catalog.imdb import make_imdb_schema
from repro.storage.database import Database
from repro.storage.index import HashIndex
from repro.storage.statistics import collect_statistics
from repro.storage.table import Table
from repro.workloads.benchmark import make_job_benchmark


class TestTable:
    def test_num_rows_and_columns(self):
        table = Table("t", {"id": np.arange(5), "x": np.ones(5)})
        assert table.num_rows == 5
        assert set(table.columns) == {"id", "x"}

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError):
            Table("t", {"a": np.arange(3), "b": np.arange(4)})

    def test_unknown_column_raises(self):
        table = Table("t", {"id": np.arange(3)})
        with pytest.raises(KeyError):
            table.column("nope")

    def test_index_built_lazily(self):
        table = Table("t", {"id": np.arange(10)})
        assert not table.has_index("id")
        table.index("id")
        assert table.has_index("id")

    def test_empty_table(self):
        assert Table("t", {}).num_rows == 0


class TestHashIndex:
    def test_lookup_existing_value(self):
        index = HashIndex.build(np.array([5, 3, 5, 7, 3, 5]))
        assert sorted(index.lookup(5).tolist()) == [0, 2, 5]
        assert sorted(index.lookup(3).tolist()) == [1, 4]

    def test_lookup_missing_value(self):
        index = HashIndex.build(np.array([1, 2, 3]))
        assert index.lookup(99).size == 0

    def test_counts(self):
        index = HashIndex.build(np.array([1, 1, 2]))
        assert index.lookup(1).tolist() == [0, 1]
        assert index.lookup(2).tolist() == [2]
        assert index.lookup(1).dtype == index.lookup(0).dtype == np.int64

    @pytest.mark.parametrize(
        "column",
        [
            *(
                np.random.default_rng(seed).integers(0, high, size=size, dtype=np.int64)
                for seed, high, size in [(0, 5, 1000), (1, 50, 2000), (2, 3, 7), (3, 10**6, 500)]
            ),
            np.full(64, 7, dtype=np.int64),
            np.array([42], dtype=np.int64),
        ],
        ids=["dup-5", "dup-50", "dup-3-short", "sparse", "single-value", "one-row"],
    )
    def test_build_equals_the_unique_build(self, column):
        """One sort and a run-boundary scan give what ``np.unique`` over the
        sorted column gave: every array equal, dtypes included."""
        order = np.argsort(column, kind="stable")
        distinct_values, starts, counts = np.unique(
            column[order], return_index=True, return_counts=True
        )
        index = HashIndex.build(column)
        for got, want in [
            (index.row_ids, order),
            (index.distinct_values, distinct_values),
            (index.starts, starts),
            (index.counts, counts),
        ]:
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


class TestDatabase:
    def test_add_and_lookup(self, imdb_database):
        assert imdb_database.table("title").num_rows > 0

    def test_unknown_table_raises(self, imdb_database):
        with pytest.raises(KeyError):
            imdb_database.table("nope")

    def test_add_table_not_in_schema_rejected(self):
        schema = make_imdb_schema(fact_rows=50)
        database = Database(schema=schema)
        with pytest.raises(KeyError):
            database.add_table(Table("unknown", {"id": np.arange(3)}))

    def test_join_indexes_built(self, imdb_database):
        assert imdb_database.table("movie_companies").has_index("movie_id")
        assert imdb_database.table("title").has_index("id")
        assert not imdb_database.table("title").has_index("production_year")


class TestDeclaredIndexes:
    def test_a_fresh_bundle_declares_every_key_and_builds_none(self):
        database = make_job_benchmark(seed=0).database
        for table_def in database.schema.tables.values():
            table = database.table(table_def.name)
            keys = {"id", *(fk.column for fk in table_def.foreign_keys)}
            assert table.indexed == keys
            assert all(table.has_index(column) for column in keys)
            assert not any(table.has_index(column) for column in set(table.columns) - keys)
            assert table._indexes == {}

    def test_a_lazy_index_is_the_eager_one(self, imdb_database):
        table = imdb_database.table("movie_companies")
        column = table.column("movie_id")
        eager = HashIndex.build(column)
        for value in (int(column[0]), int(column.max()), -5):
            lazy = table.index("movie_id").lookup(value)
            assert lazy.dtype == eager.lookup(value).dtype == np.int64
            assert lazy.tolist() == eager.lookup(value).tolist()

    def test_eight_threads_racing_on_the_first_probe(self):
        rng = np.random.default_rng(0)
        table = Table("t", {"k": rng.integers(0, 1000, size=200_000)}, frozenset({"k"}))
        expected = HashIndex.build(table.column("k")).lookup(7)
        barrier = threading.Barrier(8)
        found: list[np.ndarray] = []

        def first_probe() -> None:
            barrier.wait()
            found.append(table.index("k").lookup(7))

        threads = [threading.Thread(target=first_probe) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(found) == 8
        for row_ids in found:
            assert row_ids.dtype == np.int64
            assert row_ids.tolist() == expected.tolist()
        assert len(table.index("k").row_ids) == table.num_rows


class TestStatistics:
    def test_collect_statistics_shapes(self, imdb_database):
        stats = collect_statistics(imdb_database, num_buckets=10, num_mcv=5)
        title = stats["title"]
        assert title.num_rows == imdb_database.table("title").num_rows
        year = title.column("production_year")
        assert year.num_distinct > 10
        assert len(year.histogram_bounds) == 11
        assert len(year.most_common_values) <= 5

    def test_equality_selectivity_bounds(self, imdb_database):
        stats = collect_statistics(imdb_database)
        column = stats["cast_info"].column("role_id")
        selectivity = column.equality_selectivity(0)
        assert 0.0 <= selectivity <= 1.0

    def test_range_selectivity_full_range_near_one(self, imdb_database):
        stats = collect_statistics(imdb_database)
        column = stats["title"].column("production_year")
        assert column.range_selectivity(None, None) > 0.95
        assert column.range_selectivity(column.max_value + 1, None) <= 0.05

    def test_range_selectivity_monotone(self, imdb_database):
        stats = collect_statistics(imdb_database)
        column = stats["title"].column("production_year")
        narrow = column.range_selectivity(1990, 1995)
        wide = column.range_selectivity(1950, 2010)
        assert wide >= narrow

    def test_empty_range(self, imdb_database):
        stats = collect_statistics(imdb_database)
        column = stats["title"].column("production_year")
        assert column.range_selectivity(2000, 1990) == 0.0
