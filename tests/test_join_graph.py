"""The join graph, checked against networkx as the reference.

``Query.join_graph`` is a plain alias -> neighbours mapping walked by
``Query.breadth_first``; networkx is a test dependency only.  Every query of
the JOB-like and TPC-H-like workloads must agree with the ``nx.Graph`` the
query used to build on connectivity, on which alias subsets are connected,
and on breadth-first order from every alias.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql.query import Query
from repro.workloads.job import make_job_queries
from repro.workloads.tpch import make_tpch_queries

nx = pytest.importorskip("networkx")

QUERIES: list[Query] = make_job_queries()[0] + [
    query for split in make_tpch_queries() for query in split
]


def reference_graph(query: Query):
    """The join graph as ``Query.join_graph`` built it with networkx."""
    graph = nx.Graph()
    graph.add_nodes_from(query.aliases)
    for join in query.joins:
        graph.add_edge(join.left_alias, join.right_alias)
    return graph


def test_the_workloads_are_the_193_queries():
    assert len(QUERIES) == 193


@pytest.mark.parametrize("query", QUERIES, ids=lambda query: query.name)
def test_whole_query_matches_networkx(query):
    graph = reference_graph(query)
    assert query.join_graph == {alias: tuple(graph.adj[alias]) for alias in graph}
    assert query.is_connected() == nx.is_connected(graph)
    for alias in query.aliases:
        assert query.breadth_first(alias) == list(nx.bfs_tree(graph, alias))


@st.composite
def query_and_subset(draw):
    query = draw(st.sampled_from(QUERIES))
    subset = draw(st.sets(st.sampled_from(query.aliases), min_size=1))
    return query, subset


@settings(max_examples=300, deadline=None)
@given(query_and_subset())
def test_alias_subsets_match_networkx(case):
    query, subset = case
    sub = reference_graph(query).subgraph(subset)
    connected = len(subset) == 1 or nx.is_connected(sub)
    assert query.connected_subset(subset) == connected
    for alias in subset:
        assert query.breadth_first(alias, within=subset) == list(nx.bfs_tree(sub, alias))
    assert query.restricted_to(subset).is_connected() == connected
