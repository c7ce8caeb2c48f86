"""The cold planning path derives each fact once — and derives the same facts.

Plan identity is stored on the node, feature rows are interned per encoder
and an expansion scores only its new joins.  None of that may change an
answer, so every stored value is compared here with a reference rendering
kept in this file (the code as it was before the values were stored), and a
cold beam search is compared with results recorded from that code.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import pickle
import random
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.imdb import make_imdb_schema
from repro.featurization.featurizer import QueryPlanFeaturizer
from repro.featurization.plan_encoder import OPERATOR_ORDER, PlanEncoder
from repro.model.value_network import ValueNetwork, ValueNetworkConfig
from repro.plans.nodes import JoinNode, JoinOperator, PlanNode, ScanNode, ScanOperator
from repro.search.beam import BeamSearchPlanner
from repro.server.wire import plan_from_json_dict, plan_to_json_dict
from repro.workloads.benchmark import make_job_benchmark

SCHEMA = make_imdb_schema(fact_rows=100)
TABLES = SCHEMA.table_names()
GOLDEN = Path(__file__).parent / "data" / "cold_search_golden.json"


# ---------------------------------------------------------------------- #
# Generated plan trees and the reference renderings
# ---------------------------------------------------------------------- #
@st.composite
def plan_trees(draw, max_leaves: int = 8) -> PlanNode:
    """A binary plan tree of any shape over distinct aliases of IMDb tables."""
    count = draw(st.integers(1, max_leaves))
    leaves = [
        ScanNode(
            alias=f"a{index}",
            table=draw(st.sampled_from(TABLES)),
            operator=draw(st.sampled_from(list(ScanOperator))),
        )
        for index in range(count)
    ]

    def build(nodes: list[PlanNode]) -> PlanNode:
        if len(nodes) == 1:
            return nodes[0]
        cut = draw(st.integers(1, len(nodes) - 1))
        return JoinNode(
            build(nodes[:cut]), build(nodes[cut:]), draw(st.sampled_from(list(JoinOperator)))
        )

    return build(list(draw(st.permutations(leaves))))


def alias_to_table(plan: PlanNode) -> dict[str, str]:
    return {leaf.alias: leaf.table for leaf in plan.iter_scans()}


def reference_fingerprint(plan: PlanNode) -> str:
    if isinstance(plan, ScanNode):
        return f"{plan.operator.value}({plan.alias})"
    return (
        f"{plan.operator.value}({reference_fingerprint(plan.left)},"
        f"{reference_fingerprint(plan.right)})"
    )


def reference_logical_fingerprint(plan: PlanNode) -> str:
    if isinstance(plan, ScanNode):
        return f"Scan({plan.alias})"
    return (
        f"Join({reference_logical_fingerprint(plan.left)},"
        f"{reference_logical_fingerprint(plan.right)})"
    )


def reference_node_features(
    encoder: PlanEncoder, plan: PlanNode, alias_to_table: dict[str, str]
) -> np.ndarray:
    features = np.zeros(len(OPERATOR_ORDER) + len(encoder.table_order), dtype=np.float64)
    features[OPERATOR_ORDER.index(plan.operator.value)] = 1.0
    for alias in plan.leaf_aliases:
        slot = encoder.table_order.index(alias_to_table[alias])
        features[len(OPERATOR_ORDER) + slot] = 1.0
    return features


def reference_flatten(encoder: PlanEncoder, plan: PlanNode, alias_to_table: dict[str, str]):
    """The tree walk ``PlanEncoder.flatten`` replaced: one row built per node."""
    nodes = list(plan.iter_nodes())
    num_nodes = len(nodes)
    slot_of = {id(node): i + 1 for i, node in enumerate(nodes)}
    dimension = len(OPERATOR_ORDER) + len(encoder.table_order)
    features = np.zeros((num_nodes + 1, dimension), dtype=np.float64)
    left = np.zeros(num_nodes + 1, dtype=np.int64)
    right = np.zeros(num_nodes + 1, dtype=np.int64)
    for node in nodes:
        slot = slot_of[id(node)]
        features[slot] = reference_node_features(encoder, node, alias_to_table)
        if isinstance(node, JoinNode):
            left[slot] = slot_of[id(node.left)]
            right[slot] = slot_of[id(node.right)]
    return features, left, right, num_nodes


def assert_flattened_like_reference(encoder: PlanEncoder, plan: PlanNode) -> None:
    mapping = alias_to_table(plan)
    flat = encoder.flatten(plan, mapping)
    features, left, right, num_nodes = reference_flatten(encoder, plan, mapping)
    assert flat.num_nodes == num_nodes
    for got, want in ((flat.features, features), (flat.left, left), (flat.right, right)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous and got.flags.writeable
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------- #
# (i) Plan identity is stored, and is the identity it always was
# ---------------------------------------------------------------------- #
class TestStoredPlanIdentity:
    @given(plan=plan_trees())
    @settings(max_examples=150, deadline=None)
    def test_every_subplan_matches_the_reference_rendering(self, plan):
        for node in plan.iter_subplans():
            assert node.fingerprint() == reference_fingerprint(node)
            assert node.logical_fingerprint() == reference_logical_fingerprint(node)
            assert str(node) == reference_fingerprint(node)

    @given(plan=plan_trees())
    @settings(max_examples=100, deadline=None)
    def test_identity_is_stored_not_rendered_per_call(self, plan):
        assert plan.fingerprint() is plan.fingerprint()
        assert plan.logical_fingerprint() is plan.logical_fingerprint()

    @given(plan=plan_trees())
    @settings(max_examples=100, deadline=None)
    def test_identity_survives_copy_pickle_and_the_wire(self, plan):
        wanted = reference_fingerprint(plan), reference_logical_fingerprint(plan)
        for twin in (
            copy.deepcopy(plan),
            copy.copy(plan),
            pickle.loads(pickle.dumps(plan)),
            plan_from_json_dict(json.loads(json.dumps(plan_to_json_dict(plan)))),
        ):
            assert (twin.fingerprint(), twin.logical_fingerprint()) == wanted
            assert twin == plan and hash(twin) == hash(plan)
            assert twin.leaf_aliases == plan.leaf_aliases

    @given(plan=plan_trees(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_with_operator_renders_the_new_operator(self, plan, data):
        operators = ScanOperator if isinstance(plan, ScanNode) else JoinOperator
        changed = plan.with_operator(data.draw(st.sampled_from(list(operators))))
        assert changed.fingerprint() == reference_fingerprint(changed)
        assert changed.logical_fingerprint() == plan.logical_fingerprint()
        assert (changed == plan) == (changed.operator is plan.operator)

    def test_stored_identity_is_not_a_dataclass_field(self):
        leaf = ScanNode("t", "title", ScanOperator.INDEX_SCAN)
        join = JoinNode(leaf, ScanNode("mc", "movie_companies"))
        join.logical_fingerprint()
        assert repr(leaf) == (
            "ScanNode(alias='t', table='title', operator=<ScanOperator.INDEX_SCAN: 'IndexScan'>)"
        )
        assert "fingerprint" not in repr(join)

    def test_query_fingerprint_is_stored_and_unchanged(self, five_table_query):
        query = five_table_query
        tables = sorted(f"{t.table} AS {t.alias}" for t in query.tables)
        joins = sorted(j.normalized().describe() for j in query.joins)
        filters = sorted(f.describe() for f in query.filters)
        canonical = "|".join(
            ["T:" + ";".join(tables), "J:" + ";".join(joins), "F:" + ";".join(filters)]
        )
        assert query.fingerprint() == hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        assert query.fingerprint() is query.fingerprint()
        assert dataclasses.replace(query, name="other").fingerprint() == query.fingerprint()


# ---------------------------------------------------------------------- #
# (ii) Interned node features are the rows the tree walk built
# ---------------------------------------------------------------------- #
def chain_plans() -> list[PlanNode]:
    """Left-deep chains over every run of 2..9 neighbouring tables: more
    distinct (operator, tables) rows than the intern table starts with."""
    plans = []
    for start in range(len(TABLES)):
        for operator in JoinOperator:
            tables = [TABLES[(start + step) % len(TABLES)] for step in range(9)]
            plan: PlanNode = ScanNode(f"a{start}_0", tables[0])
            for step, table in enumerate(tables[1:], start=1):
                leaf = ScanNode(f"a{start}_{step}", table, ScanOperator.INDEX_SCAN)
                plan = JoinNode(plan, leaf, operator)
            plans.append(plan)
    return plans


class TestInternedNodeFeatures:
    @given(plans=st.lists(plan_trees(), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_flatten_matches_the_tree_walk_array_for_array(self, plans):
        encoder = PlanEncoder(SCHEMA)
        # Twice: against an empty intern table, then against a filled one.
        for plan in plans + plans:
            assert_flattened_like_reference(encoder, plan)
            for node in plan.iter_nodes():
                mapping = alias_to_table(plan)
                assert np.array_equal(
                    encoder.node_features(node, mapping),
                    reference_node_features(encoder, node, mapping),
                )

    def test_rows_survive_the_table_growing(self):
        encoder = PlanEncoder(SCHEMA)
        plans = chain_plans()
        capacity = len(encoder._rows)
        for plan in plans:
            assert_flattened_like_reference(encoder, plan)
        assert len(encoder._row_ids) > capacity, "the chains no longer outgrow the table"
        for plan in plans:
            assert_flattened_like_reference(encoder, plan)

    def test_results_are_the_callers_to_write_to(self):
        encoder = PlanEncoder(SCHEMA)
        plan = chain_plans()[0]
        mapping = alias_to_table(plan)
        encoder.flatten(plan, mapping).features[:] = 7.0
        encoder.node_features(plan, mapping)[:] = 7.0
        assert_flattened_like_reference(encoder, plan)

    def test_node_dimension_is_a_plain_attribute(self):
        encoder = PlanEncoder(SCHEMA)
        assert encoder.node_dimension == len(OPERATOR_ORDER) + len(TABLES)
        assert "node_dimension" in vars(encoder)

    def test_workers_sharing_an_encoder_intern_consistently(self):
        """More threads than cores miss on the same rows at once: a lost or
        doubled row id would hand some plan another plan's features."""
        encoder = PlanEncoder(SCHEMA)
        plans = chain_plans()
        failures: list[BaseException] = []
        start = threading.Barrier(8)

        def work(seed: int) -> None:
            order = list(plans)
            random.Random(seed).shuffle(order)
            try:
                start.wait(timeout=30)
                for plan in order:
                    assert_flattened_like_reference(encoder, plan)
            except BaseException as error:  # noqa: BLE001 - reported below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[0]
        assert sorted(encoder._row_ids.values()) == list(range(1, len(encoder._row_ids) + 1))


# ---------------------------------------------------------------------- #
# (iii) The cold search is the search it was
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def job_benchmark():
    return make_job_benchmark(seed=0)


def test_cold_beam_search_matches_the_recorded_search(job_benchmark):
    """Fig. 14's setting over the benchmark's eight cycle queries: the same
    batches go to the network in the same order, so counts and plans equal
    those recorded before plan identity was stored — exactly.

    Predictions are held to ``rtol=1e-12, atol=0`` of the recorded ones, no
    longer to float equality: ``predict`` now convolves a new join on top of
    the rows kept for its inputs, one stacked product per layer, so the same
    float64 terms are summed in another order than in the recorded forward
    pass (worst case seen here: 1.2e-14 relative)."""
    golden = json.loads(GOLDEN.read_text())
    first: dict[int, object] = {}
    for query in job_benchmark.all_queries():
        first.setdefault(len(query.aliases), query)
    queries = list(first.values())
    assert [query.name for query in queries] == [entry["query"] for entry in golden]
    assert sorted(entry["relations"] for entry in golden) == list(range(4, 12))

    featurizer = QueryPlanFeaturizer(job_benchmark.database.schema, job_benchmark.estimator)
    network = ValueNetwork(featurizer, ValueNetworkConfig(seed=0))
    planner = BeamSearchPlanner(20, 10)
    for query, entry in zip(queries, golden):
        batches: list[list[str]] = []

        def score(query, plans):
            batches.append([plan.fingerprint() for plan in plans])
            return network.predict(query, plans)

        result = planner.search(query, network, score_fn=score)
        assert result.states_expanded == entry["states_expanded"]
        assert result.plans_scored == entry["plans_scored"]
        assert len(batches) == entry["score_calls"]
        assert sum(map(len, batches)) == entry["plans_scored"]
        digest = hashlib.sha256(json.dumps(batches).encode()).hexdigest()
        assert digest == entry["batches_sha256"]
        assert [plan.fingerprint() for plan in result.plans] == entry["plans"]
        np.testing.assert_allclose(
            result.predicted_latencies, entry["predicted_latencies"], rtol=1e-12, atol=0
        )


@pytest.fixture()
def join_nodes_built(monkeypatch) -> list[int]:
    """A one-element count of ``JoinNode`` constructions (each one runs the
    overlap check in ``__post_init__``)."""
    built = [0]
    post_init = JoinNode.__post_init__

    def counting_post_init(self):
        built[0] += 1
        post_init(self)

    monkeypatch.setattr(JoinNode, "__post_init__", counting_post_init)
    return built


def golden_searches(job_benchmark):
    first: dict[int, object] = {}
    for query in job_benchmark.all_queries():
        first.setdefault(len(query.aliases), query)
    featurizer = QueryPlanFeaturizer(job_benchmark.database.schema, job_benchmark.estimator)
    network = ValueNetwork(featurizer, ValueNetworkConfig(seed=0))
    return network, list(zip(first.values(), json.loads(GOLDEN.read_text())))


def test_cold_search_builds_join_nodes_only_for_what_it_expands_or_returns(
    job_benchmark, join_nodes_built
):
    """The search hands the network its joins as
    ``(left, right, operator)`` triples, so a ``JoinNode`` is built only for
    the join a state taken from the beam adds, and for a returned plan: at
    most one per expansion plus one per plan returned — 357 over the eight
    recorded searches, where one per distinct join was 6,912 and one per
    candidate 18,516."""
    network, searches = golden_searches(job_benchmark)
    planner = BeamSearchPlanner(20, 10)
    total = 0
    for query, entry in searches:
        join_nodes_built[0] = 0
        result = planner.search(query, network)
        assert result.plans_scored == entry["plans_scored"]
        assert result.states_expanded == entry["states_expanded"]
        assert join_nodes_built[0] <= result.states_expanded + len(result.plans)
        assert all(type(plan) is JoinNode for plan in result.plans)
        total += join_nodes_built[0]
    assert 0 < total <= 357


def test_a_scorer_that_reads_its_plans_gets_built_and_checked_join_nodes(
    job_benchmark, join_nodes_built
):
    """Any ``score_fn`` but the network's may iterate what it is handed: it
    sees real nodes — every join constructed, so overlap-checked, once — and
    the batches are the recorded search's."""
    network, searches = golden_searches(job_benchmark)
    planner = BeamSearchPlanner(20, 10)
    for query, entry in searches[:4]:
        batches: list[list[str]] = []

        def stub(query, plans):
            size = len(plans)
            nodes = list(plans)
            assert len(nodes) == size
            assert all(type(node) in (ScanNode, JoinNode) for node in nodes)
            assert [node.fingerprint() for node in nodes] == [
                plans[index].fingerprint() for index in range(size)
            ]
            batches.append([node.fingerprint() for node in nodes])
            return network.predict(query, nodes)

        join_nodes_built[0] = 0
        result = planner.search(query, network, score_fn=stub)
        digest = hashlib.sha256(json.dumps(batches).encode()).hexdigest()
        assert digest == entry["batches_sha256"]
        assert [plan.fingerprint() for plan in result.plans] == entry["plans"]
        assert join_nodes_built[0] == entry["plans_scored"] - entry["relations"]
