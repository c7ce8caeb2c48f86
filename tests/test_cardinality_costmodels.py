"""Tests for cardinality estimators and cost models."""

import numpy as np
import pytest

from repro.cardinality.noise import NoisyEstimator
from repro.costmodel.cout import CoutCostModel
from repro.costmodel.expert import ExpertCostModel
from repro.plans.builders import scan
from repro.plans.nodes import JoinNode, JoinOperator, ScanOperator
from tests.conftest import left_deep_of


class TestHistogramEstimator:
    def test_base_rows(self, estimator, three_table_query):
        assert estimator.base_rows(three_table_query, "t") == pytest.approx(
            estimator.database.table("title").num_rows
        )

    def test_single_table_estimate_below_base(self, estimator, three_table_query):
        filtered = estimator.estimate(three_table_query, frozenset({"t"}))
        assert 0 < filtered <= estimator.base_rows(three_table_query, "t")

    def test_selectivity_in_unit_interval(self, estimator, five_table_query):
        for alias in five_table_query.aliases:
            assert 0.0 <= estimator.selectivity(five_table_query, alias) <= 1.0

    def test_unfiltered_alias_has_selectivity_one(self, estimator, five_table_query):
        assert estimator.selectivity(five_table_query, "mc") == pytest.approx(1.0)

    def test_join_estimate_positive(self, estimator, five_table_query):
        estimate = estimator.estimate(five_table_query, frozenset(five_table_query.aliases))
        assert estimate > 0

    def test_more_joins_change_estimate(self, estimator, five_table_query):
        two = estimator.estimate(five_table_query, frozenset({"t", "mc"}))
        three = estimator.estimate(five_table_query, frozenset({"t", "mc", "cn"}))
        assert two != three

    def test_empty_alias_set_rejected(self, estimator, three_table_query):
        with pytest.raises(ValueError):
            estimator.estimate(three_table_query, frozenset())

    def test_estimates_are_cached_and_stable(self, estimator, three_table_query):
        a = estimator.estimate(three_table_query, frozenset({"t", "mc"}))
        b = estimator.estimate(three_table_query, frozenset({"t", "mc"}))
        assert a == b

    def test_estimation_error_exists_but_bounded_range(self, engine, estimator, five_table_query):
        """The histogram estimator is allowed to be wrong (that is the point),
        but it should stay within a few orders of magnitude on this data."""
        q = five_table_query
        pair = q.restricted_to({"t", "mc"})
        executed = engine.execute(pair, left_deep_of(pair, ["t", "mc"])).output_rows
        true = max(1.0, float(executed))
        est = max(1.0, estimator.estimate(q, frozenset({"t", "mc"})))
        q_error = max(true / est, est / true)
        assert q_error < 1e4


class TestNoisyEstimator:
    def test_noise_changes_estimates_deterministically(self, estimator, three_table_query):
        noisy = NoisyEstimator(estimator, median_factor=5.0, seed=1)
        clean = estimator.estimate(three_table_query, frozenset({"t", "mc"}))
        corrupted_a = noisy.estimate(three_table_query, frozenset({"t", "mc"}))
        corrupted_b = noisy.estimate(three_table_query, frozenset({"t", "mc"}))
        assert corrupted_a == corrupted_b
        assert corrupted_a != clean

    def test_base_rows_passthrough(self, estimator, three_table_query):
        noisy = NoisyEstimator(estimator, 5.0, 0)
        assert noisy.base_rows(three_table_query, "t") == estimator.base_rows(
            three_table_query, "t"
        )

    def test_invalid_factor(self, estimator):
        with pytest.raises(ValueError):
            NoisyEstimator(estimator, median_factor=0.0)

    def test_median_factor_roughly_respected(self, estimator, five_table_query):
        noisy = NoisyEstimator(estimator, median_factor=5.0, seed=3)
        ratios = []
        for aliases in [{"t"}, {"mc"}, {"cn"}, {"t", "mc"}, {"t", "mi"}, {"mi", "it"}]:
            clean = estimator.estimate(five_table_query, frozenset(aliases))
            corrupted = noisy.estimate(five_table_query, frozenset(aliases))
            ratios.append(clean / corrupted)
        median_ratio = float(np.median(ratios))
        assert 1.0 < median_ratio < 50.0


class TestCoutCostModel:
    def test_cost_is_sum_of_estimates(self, estimator, three_table_query):
        q = three_table_query
        model = CoutCostModel(estimator)
        plan = left_deep_of(q, ["t", "mc", "cn"])
        expected = (
            estimator.estimate(q, frozenset({"t"}))
            + estimator.estimate(q, frozenset({"mc"}))
            + estimator.estimate(q, frozenset({"cn"}))
            + estimator.estimate(q, frozenset({"t", "mc"}))
            + estimator.estimate(q, frozenset({"t", "mc", "cn"}))
        )
        assert model.cost(q, plan) == pytest.approx(expected)

    def test_ignores_physical_operators(self, estimator, three_table_query):
        q = three_table_query
        model = CoutCostModel(estimator)
        hash_plan = left_deep_of(q, ["t", "mc", "cn"], JoinOperator.HASH_JOIN)
        loop_plan = left_deep_of(q, ["t", "mc", "cn"], JoinOperator.NESTED_LOOP)
        assert model.cost(q, hash_plan) == pytest.approx(model.cost(q, loop_plan))

    def test_combine_matches_full_cost(self, estimator, three_table_query):
        q = three_table_query
        model = CoutCostModel(estimator)
        left = JoinNode(scan(q, "t"), scan(q, "mc"))
        full = JoinNode(left, scan(q, "cn"))
        via_combine = model.combine(
            q, full, model.cost(q, left), model.cost(q, scan(q, "cn"))
        )
        assert via_combine == pytest.approx(model.cost(q, full))


class TestPhysicalCostModels:
    @pytest.mark.parametrize("model_cls", [ExpertCostModel])
    def test_cost_positive(self, model_cls, imdb_database, estimator, five_table_query):
        model = model_cls(estimator, imdb_database)
        plan = left_deep_of(five_table_query, ["cn", "mc", "t", "mi", "it"])
        assert model.cost(five_table_query, plan) > 0

    def test_expert_model_distinguishes_operators(
        self, imdb_database, estimator, five_table_query
    ):
        q = five_table_query
        model = ExpertCostModel(estimator, imdb_database)
        hash_plan = left_deep_of(q, ["t", "mc", "cn", "mi", "it"], JoinOperator.HASH_JOIN)
        loop_plan = left_deep_of(q, ["t", "mc", "cn", "mi", "it"], JoinOperator.NESTED_LOOP)
        assert model.cost(q, hash_plan) != model.cost(q, loop_plan)

    def test_expert_model_penalises_unindexed_nested_loop(
        self, imdb_database, estimator, five_table_query
    ):
        """A nested loop over two joined (non-indexable) inputs must cost more
        than a hash join over the same inputs: its cost scales with the
        product of the input sizes instead of their sum."""
        q = five_table_query
        model = ExpertCostModel(estimator, imdb_database)
        left = JoinNode(scan(q, "t"), scan(q, "mc"))
        right = JoinNode(scan(q, "mi"), scan(q, "it"))
        nested = JoinNode(left, right, JoinOperator.NESTED_LOOP)
        hashed = JoinNode(left, right, JoinOperator.HASH_JOIN)
        assert model.node_cost(q, nested) > model.node_cost(q, hashed)

    def test_expert_scan_cost_prefers_seq_scan_without_index(self, imdb_database, estimator, three_table_query):
        q = three_table_query
        model = ExpertCostModel(estimator, imdb_database)
        seq = scan(q, "cn", ScanOperator.SEQ_SCAN)
        idx = scan(q, "cn", ScanOperator.INDEX_SCAN)
        assert model.node_cost(q, idx) >= model.node_cost(q, seq)
