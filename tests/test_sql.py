"""Tests for the SQL layer: predicates, queries, join graphs, the mini parser."""

import re

import numpy as np
import pytest

from repro.sql.expr import ComparisonOp, FilterPredicate, JoinPredicate, evaluate_filter
from repro.sql.query import Query, QuerySet, TableRef

from tests.conftest import make_five_table_query, make_three_table_query


class TestFilterPredicate:
    @pytest.mark.parametrize(
        "op, value, expected",
        [
            (ComparisonOp.EQ, 3, [False, False, False, True, False]),
            (ComparisonOp.NE, 3, [True, True, True, False, True]),
            (ComparisonOp.LT, 2, [True, True, False, False, False]),
            (ComparisonOp.LE, 2, [True, True, True, False, False]),
            (ComparisonOp.GT, 2, [False, False, False, True, True]),
            (ComparisonOp.GE, 2, [False, False, True, True, True]),
            (ComparisonOp.IN, (0, 4), [True, False, False, False, True]),
            (ComparisonOp.BETWEEN, (1, 3), [False, True, True, True, False]),
        ],
    )
    def test_evaluate_filter(self, op, value, expected):
        column = np.array([0, 1, 2, 3, 4])
        predicate = FilterPredicate("t", "c", op, value)
        assert evaluate_filter(predicate, column).tolist() == expected

    def test_in_value_normalised_to_tuple(self):
        predicate = FilterPredicate("t", "c", ComparisonOp.IN, [1, 2])
        assert predicate.value == (1, 2)

    def test_describe_mentions_alias_and_column(self):
        predicate = FilterPredicate("t", "year", ComparisonOp.GT, 2000)
        assert "t.year" in predicate.describe()
        assert ">" in predicate.describe()


class TestJoinPredicate:
    def test_aliases_and_column_for(self):
        join = JoinPredicate("a", "x", "b", "y")
        assert join.aliases() == frozenset({"a", "b"})
        assert join.column_for("a") == "x"
        assert join.column_for("b") == "y"

    def test_column_for_unknown_alias_raises(self):
        with pytest.raises(KeyError):
            JoinPredicate("a", "x", "b", "y").column_for("c")

    def test_normalized_orders_sides(self):
        join = JoinPredicate("z", "c1", "a", "c2")
        normalized = join.normalized()
        assert normalized.left_alias == "a"
        assert normalized.normalized() == normalized


class TestQuery:
    def test_basic_properties(self, three_table_query):
        assert three_table_query.num_tables == 3
        assert three_table_query.num_joins == 2
        assert set(three_table_query.aliases) == {"t", "mc", "cn"}
        assert three_table_query.alias_to_table["mc"] == "movie_companies"

    def test_duplicate_alias_rejected(self):
        with pytest.raises(ValueError):
            Query("bad", (TableRef("title", "t"), TableRef("name", "t")))

    def test_join_referencing_unknown_alias_rejected(self):
        with pytest.raises(ValueError):
            Query(
                "bad",
                (TableRef("title", "t"),),
                joins=(JoinPredicate("t", "id", "x", "movie_id"),),
            )

    def test_filter_referencing_unknown_alias_rejected(self):
        with pytest.raises(ValueError):
            Query(
                "bad",
                (TableRef("title", "t"),),
                filters=(FilterPredicate("x", "id", ComparisonOp.EQ, 1),),
            )

    def test_join_graph_connected(self, five_table_query):
        graph = five_table_query.join_graph
        assert set(graph) == set(five_table_query.aliases)
        assert five_table_query.is_connected()

    def test_disconnected_query_detected(self):
        query = Query(
            "disc",
            (TableRef("title", "t"), TableRef("name", "n")),
        )
        assert not query.is_connected()

    def test_joins_between_and_within(self, five_table_query):
        between = five_table_query.joins_between({"t"}, {"mc"})
        assert len(between) == 1
        assert between[0].aliases() == frozenset({"t", "mc"})
        within = five_table_query.joins_within({"t", "mc", "cn"})
        assert len(within) == 2
        assert five_table_query.joins_between({"cn"}, {"it"}) == ()

    def test_connected_subset(self, five_table_query):
        assert five_table_query.connected_subset({"t", "mc", "cn"})
        assert not five_table_query.connected_subset({"cn", "it"})

    @pytest.mark.parametrize(
        "aliases, named",
        [({"cn", "no_such_alias"}, "['no_such_alias']"), ({"x", "y"}, "['x', 'y']")],
    )
    def test_connected_subset_rejects_unknown_aliases(self, five_table_query, aliases, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            five_table_query.connected_subset(aliases)

    def test_filters_for(self, five_table_query):
        assert len(five_table_query.filters_for("t")) == 1
        assert five_table_query.filters_for("mi") == ()

    def test_restricted_to(self, five_table_query):
        restricted = five_table_query.restricted_to({"t", "mc", "cn"})
        assert set(restricted.aliases) == {"t", "mc", "cn"}
        assert restricted.num_joins == 2
        assert all(f.alias in {"t", "mc", "cn"} for f in restricted.filters)
        assert restricted.name != five_table_query.name

    def test_restricted_to_is_deterministic_name(self, five_table_query):
        a = five_table_query.restricted_to({"mc", "t"})
        b = five_table_query.restricted_to({"t", "mc"})
        assert a.name == b.name


class TestQuerySet:
    def test_iteration_len_and_lookup(self):
        queries = [make_three_table_query("a"), make_five_table_query("b")]
        query_set = QuerySet("train", queries)
        assert len(query_set) == 2
        assert [q.name for q in query_set] == ["a", "b"]
        assert query_set.by_name("b").name == "b"
        assert query_set.names() == ["a", "b"]
        assert query_set[0].name == "a"

    def test_by_name_missing_raises(self):
        with pytest.raises(KeyError):
            QuerySet("empty", []).by_name("nope")
