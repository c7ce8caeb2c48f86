"""Tests for schemas and synthetic data generation."""

import numpy as np
import pytest

from repro.catalog.datagen import generate_database, sample_zipf, zipf_probabilities
from repro.catalog.imdb import make_imdb_schema
from repro.catalog.schema import ColumnDef, ColumnKind, ForeignKey, Schema, TableDef
from repro.catalog.tpch import make_tpch_schema


class TestSchema:
    def test_imdb_schema_validates(self):
        schema = make_imdb_schema()
        assert "title" in schema.tables
        assert len(schema.tables) >= 15
        schema.validate()

    def test_tpch_schema_validates(self):
        schema = make_tpch_schema()
        assert set(schema.table_names()) >= {"lineitem", "orders", "customer", "region"}
        schema.validate()

    def test_duplicate_table_rejected(self):
        schema = Schema("s")
        schema.add(TableDef("a", 10))
        with pytest.raises(ValueError):
            schema.add(TableDef("a", 10))

    def test_missing_fk_target_rejected(self):
        schema = Schema("s")
        schema.add(
            TableDef(
                "a",
                10,
                (ColumnDef("b_id", ColumnKind.FOREIGN_KEY),),
                (ForeignKey("b_id", "missing"),),
            )
        )
        with pytest.raises(ValueError):
            schema.validate()

    def test_unknown_table_lookup_raises(self):
        with pytest.raises(KeyError):
            make_imdb_schema().table("nope")

    def test_implicit_primary_key(self):
        table = make_imdb_schema().table("title")
        assert table.column("id").kind is ColumnKind.PRIMARY_KEY
        assert table.column_names()[0] == "id"

    def test_unknown_column_raises(self):
        with pytest.raises(KeyError):
            make_imdb_schema().table("title").column("nope")

    def test_foreign_key_edges_cover_title(self):
        schema = make_imdb_schema()
        edges = schema.foreign_key_edges()
        assert any(e[2] == "title" for e in edges)


class TestZipf:
    def test_probabilities_sum_to_one(self):
        probabilities = zipf_probabilities(10, 1.2)
        assert probabilities.shape == (10,)
        assert np.isclose(probabilities.sum(), 1.0)

    def test_zero_skew_is_uniform(self):
        probabilities = zipf_probabilities(5, 0.0)
        assert np.allclose(probabilities, 0.2)

    def test_skew_concentrates_mass(self):
        skewed = zipf_probabilities(100, 1.5)
        assert skewed[0] > 10 * skewed[-1]

    def test_invalid_size_raises(self):
        with pytest.raises(ValueError):
            zipf_probabilities(0, 1.0)

    def test_sample_zipf_values_from_domain(self):
        rng = np.random.default_rng(0)
        values = np.array([10, 20, 30])
        samples = sample_zipf(rng, values, 100, 1.0)
        assert set(np.unique(samples)) <= {10, 20, 30}


class TestGenerateDatabase:
    def test_deterministic(self):
        schema = make_imdb_schema(fact_rows=200)
        a = generate_database(schema, seed=3)
        b = generate_database(schema, seed=3)
        assert np.array_equal(
            a.table("cast_info").column("movie_id"), b.table("cast_info").column("movie_id")
        )

    def test_different_seeds_differ(self):
        schema = make_imdb_schema(fact_rows=200)
        a = generate_database(schema, seed=3)
        b = generate_database(schema, seed=4)
        assert not np.array_equal(
            a.table("cast_info").column("movie_id"), b.table("cast_info").column("movie_id")
        )

    def test_scale_changes_row_counts(self):
        schema = make_imdb_schema(fact_rows=200)
        small = generate_database(schema, scale=0.5, seed=0)
        large = generate_database(schema, scale=2.0, seed=0)
        assert large.table("title").num_rows > small.table("title").num_rows

    def test_foreign_keys_reference_existing_rows(self, imdb_database):
        title_rows = imdb_database.table("title").num_rows
        movie_ids = imdb_database.table("movie_companies").column("movie_id")
        assert movie_ids.min() >= 0
        assert movie_ids.max() < title_rows

    def test_primary_keys_are_contiguous(self, imdb_database):
        ids = imdb_database.table("title").column("id")
        assert np.array_equal(ids, np.arange(len(ids)))

    def test_null_fraction_produces_sentinels(self):
        schema = make_imdb_schema(fact_rows=500)
        database = generate_database(schema, seed=0)
        person_role = database.table("cast_info").column("person_role_id")
        assert (person_role == -1).mean() > 0.05

    def test_min_rows_floor(self):
        schema = make_imdb_schema(fact_rows=200)
        database = generate_database(schema, scale=0.001, seed=0, min_rows=8)
        assert all(t.num_rows >= 8 for t in database.tables.values())

    def test_table_ratios_roughly_preserved(self, imdb_database):
        assert imdb_database.table("cast_info").num_rows > imdb_database.table("title").num_rows
        assert imdb_database.table("title").num_rows > imdb_database.table("company_type").num_rows

    def test_tpch_generation(self, tpch_database):
        assert tpch_database.table("lineitem").num_rows > tpch_database.table("orders").num_rows
        assert tpch_database.table("region").num_rows >= 5
        custkeys = tpch_database.table("orders").column("o_custkey")
        assert custkeys.max() < tpch_database.table("customer").num_rows
