"""Tests for plan trees: nodes, builders, shape analysis and validation."""

import pytest

from repro.plans.analysis import PlanShape, operator_composition, plan_shape
from repro.plans.builders import scan
from repro.plans.nodes import JoinNode, JoinOperator, ScanNode, ScanOperator
from repro.plans.validation import InvalidPlanError, is_valid_plan, validate_plan
from tests.conftest import left_deep_of


@pytest.fixture
def plans(five_table_query):
    q = five_table_query
    left_deep = left_deep_of(q, ["t", "mc", "cn", "mi", "it"])
    # A bushy plan covering all five aliases: ((mc ⋈ cn) ⋈ t) ⋈ (mi ⋈ it).
    bushy = JoinNode(
        JoinNode(JoinNode(scan(q, "mc"), scan(q, "cn")), scan(q, "t")),
        JoinNode(scan(q, "mi"), scan(q, "it")),
        JoinOperator.MERGE_JOIN,
    )
    return q, left_deep, bushy


class TestNodes:
    def test_scan_properties(self, three_table_query):
        node = scan(three_table_query, "t", ScanOperator.INDEX_SCAN)
        assert node.leaf_aliases == frozenset({"t"})
        assert node.num_tables == 1 and node.num_joins == 0
        assert node.height == 1
        assert "IndexScan" in node.fingerprint()
        assert node.logical_fingerprint() == "Scan(t)"

    def test_join_properties(self, three_table_query):
        q = three_table_query
        node = JoinNode(scan(q, "t"), scan(q, "mc"), JoinOperator.NESTED_LOOP)
        assert node.leaf_aliases == frozenset({"t", "mc"})
        assert node.num_joins == 1
        assert node.height == 2
        assert "NestedLoop" in node.fingerprint()

    def test_join_overlapping_inputs_rejected(self, three_table_query):
        q = three_table_query
        with pytest.raises(ValueError):
            JoinNode(scan(q, "t"), JoinNode(scan(q, "t"), scan(q, "mc")))

    def test_fingerprint_distinguishes_operators(self, three_table_query):
        q = three_table_query
        a = JoinNode(scan(q, "t"), scan(q, "mc"), JoinOperator.HASH_JOIN)
        b = JoinNode(scan(q, "t"), scan(q, "mc"), JoinOperator.MERGE_JOIN)
        assert a.fingerprint() != b.fingerprint()
        assert a.logical_fingerprint() == b.logical_fingerprint()

    def test_fingerprint_distinguishes_order(self, three_table_query):
        q = three_table_query
        a = JoinNode(scan(q, "t"), scan(q, "mc"))
        b = JoinNode(scan(q, "mc"), scan(q, "t"))
        assert a.fingerprint() != b.fingerprint()

    def test_iter_nodes_counts(self, plans):
        _, left_deep, bushy = plans
        assert len(list(left_deep.iter_nodes())) == 9  # 5 scans + 4 joins
        assert len(list(bushy.iter_nodes())) == 9  # 5 scans + 4 joins
        assert len(list(left_deep.iter_joins())) == 4
        assert len(list(left_deep.iter_scans())) == 5

    def test_with_operator(self, three_table_query):
        node = scan(three_table_query, "t")
        changed = node.with_operator(ScanOperator.INDEX_SCAN)
        assert changed.operator is ScanOperator.INDEX_SCAN
        assert node.operator is ScanOperator.SEQ_SCAN

    def test_describe_is_multiline_for_joins(self, plans):
        _, left_deep, _ = plans
        assert len(left_deep.describe().splitlines()) == 9

    def test_nodes_hashable_and_equal(self, three_table_query):
        q = three_table_query
        a = JoinNode(scan(q, "t"), scan(q, "mc"))
        b = JoinNode(scan(q, "t"), scan(q, "mc"))
        assert a == b and hash(a) == hash(b)


class TestAnalysis:
    def test_shapes(self, plans):
        q, left_deep, bushy = plans
        assert plan_shape(bushy) is PlanShape.BUSHY
        assert plan_shape(scan(q, "t")) is PlanShape.SINGLE_TABLE
        right_deep = JoinNode(scan(q, "t"), JoinNode(scan(q, "mc"), scan(q, "cn")))
        assert plan_shape(right_deep) is PlanShape.RIGHT_DEEP

    def test_operator_composition_fractions(self, plans):
        _, left_deep, bushy = plans
        composition = operator_composition([left_deep, bushy])
        assert composition.num_plans == 2
        assert abs(sum(composition.join_fractions.values()) - 1.0) < 1e-9
        assert abs(sum(composition.shape_fractions.values()) - 1.0) < 1e-9
        assert composition.shape_fractions[PlanShape.BUSHY] == 0.5

    def test_empty_composition(self):
        composition = operator_composition([])
        assert composition.num_plans == 0


class TestValidation:
    def test_valid_plans_pass(self, plans):
        q, left_deep, bushy = plans
        validate_plan(q, left_deep)
        validate_plan(q, bushy)
        assert is_valid_plan(q, left_deep)

    def test_partial_plan_requires_flag(self, five_table_query):
        q = five_table_query
        partial = JoinNode(scan(q, "t"), scan(q, "mc"))
        with pytest.raises(InvalidPlanError):
            validate_plan(q, partial)
        validate_plan(q, partial, require_complete=False)

    def test_cross_product_rejected(self, five_table_query):
        q = five_table_query
        cross = JoinNode(scan(q, "cn"), scan(q, "it"))
        with pytest.raises(InvalidPlanError):
            validate_plan(q, cross, require_complete=False)

    def test_unknown_alias_rejected(self, three_table_query, five_table_query):
        plan = scan(five_table_query, "mi")
        with pytest.raises(InvalidPlanError):
            validate_plan(three_table_query, plan, require_complete=False)

    def test_wrong_table_for_alias_rejected(self, three_table_query):
        from repro.plans.nodes import ScanNode

        bad = ScanNode(alias="t", table="name")
        with pytest.raises(InvalidPlanError):
            validate_plan(three_table_query, bad, require_complete=False)
