"""Tests for featurisation and the value network (forward, backward, training)."""

import numpy as np
import pytest

from repro.featurization.plan_encoder import OPERATOR_ORDER, PlanEncoder
from repro.featurization.query_encoder import QueryEncoder
from repro.model.trainer import ValueNetworkTrainer
from repro.model.value_network import ValueNetwork, ValueNetworkConfig
from repro.plans.builders import scan
from repro.plans.nodes import JoinNode, JoinOperator
from tests.conftest import left_deep_of


SMALL_CONFIG = ValueNetworkConfig(
    query_hidden=16, query_embedding=8, tree_channels=(16, 8), head_hidden=8, seed=0
)


class TestQueryEncoder:
    def test_dimension_matches_schema(self, imdb_database, estimator):
        encoder = QueryEncoder(imdb_database.schema, estimator)
        assert encoder.dimension == len(imdb_database.schema.table_names())

    def test_absent_tables_zero(self, imdb_database, estimator, three_table_query):
        encoder = QueryEncoder(imdb_database.schema, estimator)
        encoding = encoder.encode(three_table_query)
        slots = {t: i for i, t in enumerate(encoder.table_order)}
        assert encoding[slots["cast_info"]] == 0.0
        assert encoding[slots["title"]] > 0.0

    def test_unfiltered_present_table_is_one(self, imdb_database, estimator, three_table_query):
        encoder = QueryEncoder(imdb_database.schema, estimator)
        encoding = encoder.encode(three_table_query)
        slots = {t: i for i, t in enumerate(encoder.table_order)}
        assert encoding[slots["movie_companies"]] == pytest.approx(1.0)

    def test_values_in_unit_interval(self, imdb_database, estimator, five_table_query):
        encoder = QueryEncoder(imdb_database.schema, estimator)
        encoding = encoder.encode(five_table_query)
        assert np.all(encoding >= 0.0) and np.all(encoding <= 1.0)

    def test_caching_returns_same_array(self, imdb_database, estimator, five_table_query):
        encoder = QueryEncoder(imdb_database.schema, estimator)
        assert encoder.encode(five_table_query) is encoder.encode(five_table_query)


class TestPlanEncoder:
    def test_node_dimension(self, imdb_database):
        encoder = PlanEncoder(imdb_database.schema)
        assert encoder.node_dimension == len(OPERATOR_ORDER) + len(
            imdb_database.schema.table_names()
        )

    def test_flatten_structure(self, imdb_database, three_table_query):
        encoder = PlanEncoder(imdb_database.schema)
        plan = left_deep_of(three_table_query, ["t", "mc", "cn"])
        flattened = encoder.flatten(plan, dict(three_table_query.alias_to_table))
        assert flattened.num_nodes == 5
        assert flattened.features.shape == (6, encoder.node_dimension)
        assert np.all(flattened.features[0] == 0.0)
        # The root (slot 1 in preorder) is a join with two children.
        assert flattened.left[1] != 0 and flattened.right[1] != 0
        # Scans have no children.
        scans = [i for i in range(1, 6) if flattened.left[i] == 0 and flattened.right[i] == 0]
        assert len(scans) == 3

    def test_operator_one_hot(self, imdb_database, three_table_query):
        encoder = PlanEncoder(imdb_database.schema)
        q = three_table_query
        node = JoinNode(scan(q, "t"), scan(q, "mc"), JoinOperator.MERGE_JOIN)
        features = encoder.node_features(node, dict(q.alias_to_table))
        operator_slice = features[: len(OPERATOR_ORDER)]
        assert operator_slice.sum() == 1.0
        assert operator_slice[OPERATOR_ORDER.index("MergeJoin")] == 1.0

    def test_table_multi_hot_counts_subtree(self, imdb_database, three_table_query):
        encoder = PlanEncoder(imdb_database.schema)
        q = three_table_query
        node = JoinNode(scan(q, "t"), scan(q, "mc"))
        features = encoder.node_features(node, dict(q.alias_to_table))
        assert features[len(OPERATOR_ORDER):].sum() == 2.0


class TestFeaturizerBatching:
    def test_batch_packs_without_padding(self, featurizer, three_table_query, five_table_query):
        small = featurizer.featurize(
            three_table_query, left_deep_of(three_table_query, ["t", "mc", "cn"])
        )
        large = featurizer.featurize(
            five_table_query, left_deep_of(five_table_query, ["t", "mc", "cn", "mi", "it"])
        )
        queries, tree_batch = featurizer.batch([small, large])
        assert queries.shape[0] == 2
        assert tree_batch.features.shape[0] == 15  # 5 + 9 nodes + 1 sentinel
        assert np.all(tree_batch.features[0] == 0.0)
        assert tree_batch.counts.tolist() == [5, 9]
        assert tree_batch.starts.tolist() == [1, 6]
        # The second plan's rows and (shifted) child pointers follow the first's.
        assert np.array_equal(tree_batch.features[6:], large.plan.features[1:])
        assert tree_batch.left[6:].tolist() == [
            child + 5 if child else 0 for child in large.plan.left[1:]
        ]

    def test_empty_batch_rejected(self, featurizer):
        with pytest.raises(ValueError):
            featurizer.batch([])

    def test_featurize_is_cached(self, featurizer, three_table_query):
        plan = left_deep_of(three_table_query, ["t", "mc", "cn"])
        assert featurizer.featurize(three_table_query, plan) is featurizer.featurize(
            three_table_query, plan
        )


class TestValueNetwork:
    def test_forward_shapes_and_determinism(self, featurizer, three_table_query):
        network = ValueNetwork(featurizer, SMALL_CONFIG)
        plans = [
            left_deep_of(three_table_query, ["t", "mc", "cn"]),
            left_deep_of(three_table_query, ["cn", "mc", "t"]),
        ]
        a = network.predict(three_table_query, plans)
        b = network.predict(three_table_query, plans)
        assert a.shape == (2,)
        assert np.allclose(a, b)

    def test_label_transform_round_trip(self, featurizer):
        network = ValueNetwork(featurizer, SMALL_CONFIG)
        labels = np.array([0.01, 1.0, 100.0, 4096.0])
        network.fit_label_transform(labels)
        recovered = network.inverse_transform(network.transform_labels(labels))
        assert np.allclose(recovered, labels, rtol=1e-6)

    def test_clone_preserves_predictions(self, featurizer, three_table_query):
        network = ValueNetwork(featurizer, SMALL_CONFIG)
        clone = network.clone()
        plan = left_deep_of(three_table_query, ["t", "mc", "cn"])
        assert float(network.predict(three_table_query, [plan])[0]) == pytest.approx(
            float(clone.predict(three_table_query, [plan])[0])
        )

    def test_set_state_shape_mismatch_rejected(self, featurizer):
        network = ValueNetwork(featurizer, SMALL_CONFIG)
        state = network.get_state()
        state["query_fc1.weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            network.set_state(state)

    def test_num_parameters_positive(self, featurizer):
        network = ValueNetwork(featurizer, SMALL_CONFIG)
        assert network.num_parameters() > 1000

    def test_end_to_end_gradient_check(self, featurizer, three_table_query):
        """Full-network gradient check on a couple of weights."""
        network = ValueNetwork(featurizer, SMALL_CONFIG)
        plan = left_deep_of(three_table_query, ["t", "mc", "cn"])
        example = featurizer.featurize(three_table_query, plan)
        queries, tree_batch = featurizer.batch([example, example])
        target = np.array([0.3, 0.3])

        def loss_value():
            out = network.forward(queries, tree_batch)
            return 0.5 * float(np.sum((out - target) ** 2))

        out = network.forward(queries, tree_batch, training=True)
        for parameter in network.parameters():
            parameter.zero_grad()
        network.backward(out - target)

        for parameter in (network.head_fc2.weight, network.query_fc1.weight):
            numeric_full = np.zeros_like(parameter.value)
            # Check a handful of coordinates to keep the test fast.
            flat = parameter.value.reshape(-1)
            numeric = np.zeros(min(5, flat.size))
            analytic = parameter.grad.reshape(-1)[: numeric.size]
            for i in range(numeric.size):
                original = flat[i]
                flat[i] = original + 1e-6
                plus = loss_value()
                flat[i] = original - 1e-6
                minus = loss_value()
                flat[i] = original
                numeric[i] = (plus - minus) / 2e-6
            assert np.allclose(analytic, numeric, atol=1e-4)


class TestTrainer:
    def _dataset(self, featurizer, query):
        """A tiny synthetic regression problem: label = number of joins."""
        plans = [
            left_deep_of(query, ["t", "mc", "cn"]),
            left_deep_of(query, ["cn", "mc", "t"]),
            left_deep_of(query, ["mc", "t", "cn"]),
            JoinNode(
                JoinNode(scan(query, "t"), scan(query, "mc")), scan(query, "cn"),
                JoinOperator.MERGE_JOIN,
            ),
        ]
        examples = [featurizer.featurize(query, p) for p in plans] * 8
        labels = [1.0, 4.0, 2.0, 8.0] * 8
        return examples, labels

    def test_training_reduces_loss(self, featurizer, three_table_query):
        network = ValueNetwork(featurizer, SMALL_CONFIG)
        trainer = ValueNetworkTrainer(
            network, learning_rate=3e-3, batch_size=8, max_epochs=15, validation_fraction=0.0
        )
        examples, labels = self._dataset(featurizer, three_table_query)
        history = trainer.fit(examples, labels)
        assert history.epochs_run >= 1
        assert history.train_losses[-1] < history.train_losses[0]

    def test_validation_split_and_early_stopping_fields(self, featurizer, three_table_query):
        network = ValueNetwork(featurizer, SMALL_CONFIG)
        trainer = ValueNetworkTrainer(
            network, batch_size=8, max_epochs=6, validation_fraction=0.2, patience=2
        )
        examples, labels = self._dataset(featurizer, three_table_query)
        history = trainer.fit(examples, labels)
        assert len(history.validation_losses) == history.epochs_run

    def test_best_weights_are_those_of_the_lowest_validation_loss(
        self, featurizer, three_table_query
    ):
        """An improvement smaller than the stopper's ``MIN_DELTA`` is still the
        best epoch: 0.99999 after 0.99995 must not overwrite it."""
        network = ValueNetwork(featurizer, SMALL_CONFIG)
        trainer = ValueNetworkTrainer(
            network, batch_size=8, max_epochs=3, validation_fraction=0.2, patience=3
        )
        scripted = iter([1.0, 0.99995, 0.99999])
        states = []

        def evaluate(*_):
            states.append(network.get_state())
            return next(scripted)

        trainer._evaluate = evaluate
        examples, labels = self._dataset(featurizer, three_table_query)
        history = trainer.fit(examples, labels)
        assert history.validation_losses == [1.0, 0.99995, 0.99999]
        assert not history.stopped_early
        restored = network.get_state()
        assert all(np.array_equal(restored[name], states[1][name]) for name in restored)
        assert not np.array_equal(
            states[1]["head_fc2.weight"], states[2]["head_fc2.weight"]
        )

    def test_empty_dataset_is_noop(self, featurizer):
        network = ValueNetwork(featurizer, SMALL_CONFIG)
        trainer = ValueNetworkTrainer(network)
        history = trainer.fit([], [])
        assert history.epochs_run == 0

    def test_mismatched_lengths_rejected(self, featurizer):
        network = ValueNetwork(featurizer, SMALL_CONFIG)
        trainer = ValueNetworkTrainer(network)
        with pytest.raises(ValueError):
            trainer.fit([], [1.0])
