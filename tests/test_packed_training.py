"""Training runs on packed tree batches — and trains the network it trained.

``batch_examples`` packs every plan of a batch into one node table, the tree
convolution is one product per layer over gathered rows, the pool a
``reduceat`` over segments, and ``fit`` batches its examples once.  None of
that may change what is computed, so the padded ``(batch, max_slots, dim)``
implementation it replaced is kept in this file as the reference, and the
packed path is compared with it.

Tolerance: float64 throughout, but the packed products sum the same terms in
another order, so outputs and gradients are held to ``1e-12`` of the
reference array's scale (``rtol=1e-12`` plus as much of its largest entry: a
gradient entry is a sum of signed terms and may cancel to nothing), not to
bit equality; losses of a whole seeded ``fit`` to ``rtol=1e-9``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.imdb import make_imdb_schema
from repro.featurization.featurizer import (
    FeaturizedExample,
    SignatureFeaturizer,
    batch_examples,
)
from repro.featurization.plan_encoder import FlattenedPlan, PlanEncoder
from repro.model.trainer import ValueNetworkTrainer
from repro.model.value_network import ValueNetwork, ValueNetworkConfig
from repro.nn.early_stopping import EarlyStopping
from repro.nn.losses import mse_loss
from repro.nn.optim import Adam
from repro.nn.tree_conv import DynamicMaxPool, TreeBatch
from repro.plans.builders import scan
from repro.plans.nodes import JoinNode, JoinOperator, PlanNode, ScanNode, ScanOperator
from repro.utils.rng import new_rng
from tests.conftest import left_deep_of

SCHEMA = make_imdb_schema(fact_rows=100)
TABLES = SCHEMA.table_names()
ENCODER = PlanEncoder(SCHEMA)
QUERY_DIM = len(TABLES)
NODE_DIM = ENCODER.node_dimension
FEATURIZER = SignatureFeaturizer(("packed-test", QUERY_DIM, NODE_DIM))
SMALL = ValueNetworkConfig(
    query_hidden=12, query_embedding=6, tree_channels=(10, 7), head_hidden=5, seed=3
)


def assert_close(actual: np.ndarray, reference: np.ndarray, what: str = "") -> None:
    scale = float(np.abs(reference).max()) if np.size(reference) else 0.0
    np.testing.assert_allclose(actual, reference, rtol=1e-12, atol=1e-12 * scale, err_msg=what)


# ---------------------------------------------------------------------- #
# The padded reference: batching, layers and the training loop as they were
# ---------------------------------------------------------------------- #
class PaddedTreeBatch:
    """``(batch, max_slots, dim)`` node tables, slot 0 of each the sentinel."""

    def __init__(self, features, left, right, valid):
        self.features, self.left, self.right, self.valid = features, left, right, valid


def padded_batch_examples(examples, query_dimension, plan_node_dimension):
    batch_size = len(examples)
    max_slots = max(example.plan.features.shape[0] for example in examples)
    features = np.zeros((batch_size, max_slots, plan_node_dimension), dtype=np.float64)
    left = np.zeros((batch_size, max_slots), dtype=np.int64)
    right = np.zeros((batch_size, max_slots), dtype=np.int64)
    valid = np.zeros((batch_size, max_slots), dtype=bool)
    queries = np.zeros((batch_size, query_dimension), dtype=np.float64)
    for i, example in enumerate(examples):
        slots = example.plan.features.shape[0]
        features[i, :slots] = example.plan.features
        left[i, :slots] = example.plan.left
        right[i, :slots] = example.plan.right
        valid[i, 1 : example.plan.num_nodes + 1] = True
        queries[i] = example.query_encoding
    return queries, PaddedTreeBatch(features, left, right, valid)


class PaddedTreeConvLayer:
    """The padded layer, over the parameters of a packed one."""

    def __init__(self, layer):
        self.w_root, self.w_left, self.w_right, self.bias = layer.parameters()

    def forward(self, batch):
        features = batch.features
        batch_idx = np.arange(features.shape[0])[:, None]
        left_features = features[batch_idx, batch.left]
        right_features = features[batch_idx, batch.right]
        out = (
            features @ self.w_root.value.T
            + left_features @ self.w_left.value.T
            + right_features @ self.w_right.value.T
            + self.bias.value
        )
        out *= batch.valid[..., None]
        self._cache = (batch, left_features, right_features)
        return PaddedTreeBatch(out, batch.left, batch.right, batch.valid)

    def backward(self, grad_output):
        batch, left_features, right_features = self._cache
        grad_output = grad_output * batch.valid[..., None]
        features = batch.features

        flat = lambda array: array.reshape(-1, array.shape[-1])  # noqa: E731
        grad_flat = flat(grad_output)
        self.w_root.grad += grad_flat.T @ flat(features)
        self.w_left.grad += grad_flat.T @ flat(left_features)
        self.w_right.grad += grad_flat.T @ flat(right_features)
        self.bias.grad += grad_flat.sum(axis=0)

        grad_input = grad_output @ self.w_root.value
        grad_left = grad_output @ self.w_left.value
        grad_right = grad_output @ self.w_right.value
        batch_idx = np.arange(features.shape[0])[:, None]
        batch_idx_full = np.broadcast_to(batch_idx, batch.left.shape)
        np.add.at(grad_input, (batch_idx_full, batch.left), grad_left)
        np.add.at(grad_input, (batch_idx_full, batch.right), grad_right)
        grad_input *= batch.valid[..., None]
        return grad_input


class PaddedMaxPool:
    def forward(self, batch):
        features = batch.features
        masked = np.where(batch.valid[..., None], features, -np.inf)
        pooled = masked.max(axis=1)
        pooled = np.where(np.isfinite(pooled), pooled, 0.0)
        self._cache = (features.shape, masked.argmax(axis=1), batch.valid.any(axis=1))
        return pooled

    def backward(self, grad_output):
        shape, argmax, has_valid = self._cache
        grad_input = np.zeros(shape, dtype=np.float64)
        batch_size, _, channels = shape
        batch_idx = np.repeat(np.arange(batch_size), channels)
        channel_idx = np.tile(np.arange(channels), batch_size)
        grads = (grad_output * has_valid[:, None]).reshape(-1)
        np.add.at(grad_input, (batch_idx, argmax.reshape(-1), channel_idx), grads)
        return grad_input


class PaddedNetwork:
    """The padded forward and backward over a copy of a network's weights."""

    def __init__(self, network: ValueNetwork):
        self.net = network.clone()
        self.featurizer = network.featurizer
        self.tree_layers = [PaddedTreeConvLayer(layer) for layer in self.net.tree_layers]
        self.pool = PaddedMaxPool()

    def parameters(self):
        return self.net.parameters()

    def batch(self, examples):
        return padded_batch_examples(
            examples, self.featurizer.query_dimension, self.featurizer.plan_node_dimension
        )

    def forward(self, queries, tree_batch, training=True):
        net = self.net
        query_hidden = net.query_act1.forward(net.query_fc1.forward(queries))
        query_embed = net.query_act2.forward(net.query_fc2.forward(query_hidden))
        valid = tree_batch.valid
        batch_size, slots, node_dim = tree_batch.features.shape
        node_inputs = np.zeros((batch_size, slots, node_dim + query_embed.shape[1]))
        node_inputs[:, :, :node_dim] = tree_batch.features
        node_inputs[:, :, node_dim:] = query_embed[:, None, :] * valid[..., None]
        current = PaddedTreeBatch(node_inputs, tree_batch.left, tree_batch.right, valid)
        for layer, activation in zip(self.tree_layers, net.tree_activations):
            convolved = layer.forward(current)
            activated = activation.forward(convolved.features)
            current = PaddedTreeBatch(
                activated * valid[..., None], convolved.left, convolved.right, valid
            )
        self.last_nodes = current
        pooled = self.pool.forward(current)
        head_hidden = net.head_act1.forward(net.head_fc1.forward(pooled))
        self._valid, self._node_dim = valid, node_dim
        return net.head_fc2.forward(head_hidden)[:, 0]

    def backward(self, grad_outputs):
        net = self.net
        grad = net.head_fc2.backward(grad_outputs[:, None])
        grad = net.head_fc1.backward(net.head_act1.backward(grad))
        grad_nodes = self.pool.backward(grad)
        valid = self._valid
        for layer, activation in zip(
            reversed(self.tree_layers), reversed(net.tree_activations)
        ):
            grad_nodes = grad_nodes * valid[..., None]
            grad_nodes = layer.backward(activation.backward(grad_nodes))
        grad_query_embed = (grad_nodes[:, :, self._node_dim :] * valid[..., None]).sum(axis=1)
        grad_query_hidden = net.query_fc2.backward(net.query_act2.backward(grad_query_embed))
        net.query_fc1.backward(net.query_act1.backward(grad_query_hidden))


def padded_fit(reference: PaddedNetwork, examples, labels, *, learning_rate, batch_size,
               max_epochs, validation_fraction, patience, gradient_clip, seed):
    """The loop ``ValueNetworkTrainer.fit`` ran: every step batches its examples."""
    net = reference.net
    labels_array = np.asarray(labels, dtype=np.float64)
    net.fit_label_transform(labels_array)
    targets = net.transform_labels(labels_array)
    rng = new_rng(seed)
    order = rng.permutation(len(examples))
    num_validation = (
        int(len(examples) * validation_fraction)
        if len(examples) >= 20 and validation_fraction > 0
        else 0
    )
    validation_idx = order[:num_validation]
    train_idx = order[num_validation:]
    optimizer = Adam(reference.parameters(), learning_rate=learning_rate)
    stopper = EarlyStopping(patience=patience)
    train_losses, validation_losses = [], []
    for epoch in range(max_epochs):
        rng.shuffle(train_idx)
        epoch_losses = []
        for start in range(0, len(train_idx), batch_size):
            batch_idx = train_idx[start : start + batch_size]
            queries, tree_batch = reference.batch([examples[i] for i in batch_idx])
            optimizer.zero_grad()
            loss, grad = mse_loss(reference.forward(queries, tree_batch), targets[batch_idx])
            reference.backward(grad)
            optimizer.clip_gradients(gradient_clip)
            optimizer.step()
            epoch_losses.append(loss)
        train_losses.append(float(np.mean(epoch_losses)))
        if num_validation:
            held_out = [examples[i] for i in validation_idx]
            total = 0.0
            for start in range(0, len(held_out), batch_size):
                chunk = held_out[start : start + batch_size]
                queries, tree_batch = reference.batch(chunk)
                loss, _ = mse_loss(
                    reference.forward(queries, tree_batch),
                    targets[validation_idx][start : start + batch_size],
                )
                total += loss * len(chunk)
            validation_losses.append(total / len(held_out))
            if stopper.update(validation_losses[-1], epoch):
                break
    return train_losses, validation_losses


# ---------------------------------------------------------------------- #
# Generated plan trees of mixed sizes over several queries
# ---------------------------------------------------------------------- #
@st.composite
def plan_trees(draw, max_leaves: int = 6) -> PlanNode:
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

    return build(leaves)


def featurized(plan: PlanNode, query_encoding: np.ndarray) -> FeaturizedExample:
    mapping = {leaf.alias: leaf.table for leaf in plan.iter_scans()}
    return FeaturizedExample(query_encoding=query_encoding, plan=ENCODER.flatten(plan, mapping))


@st.composite
def example_batches(draw, min_size: int = 2, max_size: int = 7) -> list[FeaturizedExample]:
    """Examples of at least two queries (distinct encodings), any plan sizes."""
    seed = draw(st.integers(0, 2**16))
    encodings = np.random.default_rng(seed).uniform(size=(draw(st.integers(2, 3)), QUERY_DIM))
    plans = draw(st.lists(plan_trees(), min_size=min_size, max_size=max_size))
    # Every query gets a plan; the rest fall where they may.
    owners = [index % len(encodings) for index in range(len(encodings))]
    owners += [draw(st.integers(0, len(encodings) - 1)) for _ in plans[len(owners):]]
    return [featurized(plan, encodings[owner]) for plan, owner in zip(plans, owners)]


def both_gradients(network: ValueNetwork, examples, targets):
    """Outputs and per-parameter gradients, packed and padded, of one MSE step."""
    reference = PaddedNetwork(network)
    results = []
    for model, (queries, trees) in (
        (network, network.featurizer.batch(examples)),
        (reference, reference.batch(examples)),
    ):
        for parameter in model.parameters():
            parameter.zero_grad()
        outputs = model.forward(queries, trees, training=True)
        _, grad = mse_loss(outputs, targets)
        model.backward(grad)
        results.append((outputs, {p.name: p.grad.copy() for p in model.parameters()}))
    return results


@settings(max_examples=60, deadline=None)
@given(examples=example_batches(), seed=st.integers(0, 1000))
def test_packed_step_equals_the_padded_step(examples, seed):
    network = ValueNetwork(FEATURIZER, dataclasses.replace(SMALL, seed=seed))
    rng = np.random.default_rng(seed)
    for parameter in network.parameters():
        if parameter.value.ndim == 1:  # biases start at zero, which would hide a leak
            parameter.value += rng.normal(scale=0.3, size=parameter.value.shape)
    targets = rng.normal(size=len(examples))
    (outputs, grads), (ref_outputs, ref_grads) = both_gradients(network, examples, targets)
    assert_close(outputs, ref_outputs, "outputs")
    assert grads.keys() == ref_grads.keys() and len(grads) == 16
    for name, reference in ref_grads.items():
        assert_close(grads[name], reference, name)


# ---------------------------------------------------------------------- #
# Ties in the max pool
# ---------------------------------------------------------------------- #
def packed_rows(trees: TreeBatch, padded: np.ndarray) -> np.ndarray:
    """A padded ``(batch, slots, channels)`` tensor laid out as the packed table."""
    table = np.zeros((trees.num_rows, padded.shape[2]))
    for example, (start, count) in enumerate(zip(trees.starts, trees.counts)):
        table[start : start + count] = padded[example, 1 : count + 1]
    return table


def test_tied_maxima_route_to_the_first_node_in_preorder():
    """ReLU zeros tie across a whole tree and twin subtrees tie pairwise: the
    packed pool must pick the node ``argmax`` picked."""
    title = TABLES[0]
    twin = lambda a, b: JoinNode(  # noqa: E731 - two scans of one table: equal rows
        ScanNode(alias=a, table=title, operator=ScanOperator.SEQ_SCAN),
        ScanNode(alias=b, table=title, operator=ScanOperator.SEQ_SCAN),
        JoinOperator.HASH_JOIN,
    )
    plans = [
        JoinNode(twin("a0", "a1"), twin("a2", "a3"), JoinOperator.MERGE_JOIN),
        ScanNode(alias="a0", table=TABLES[1], operator=ScanOperator.INDEX_SCAN),
        twin("a0", "a1"),
    ]
    encodings = np.random.default_rng(0).uniform(size=(2, QUERY_DIM))
    examples = [featurized(plan, encodings[i % 2]) for i, plan in enumerate(plans)]
    network = ValueNetwork(FEATURIZER, SMALL)
    # Channel 0 of the last layer is dead: zero after the ReLU at every node.
    last = network.tree_layers[-1]
    for weights in (last.w_root, last.w_left, last.w_right):
        weights.value[0] = 0.0
    last.bias.value[0] = -1.0
    reference = PaddedNetwork(network)

    queries, trees = network.featurizer.batch(examples)
    network.forward(queries, trees, training=True)
    reference.forward(*reference.batch(examples))
    pooled_from = reference.last_nodes.features
    assert np.all(pooled_from[:, :, 0] == 0.0)
    assert np.array_equal(pooled_from[0, 3], pooled_from[0, 4])  # twin scans, first tree
    assert np.array_equal(pooled_from[0, 2], pooled_from[0, 5])  # twin joins

    grad_pooled = np.random.default_rng(1).normal(size=(len(examples), pooled_from.shape[2]))
    packed = network.pool.backward(grad_pooled)
    padded = reference.pool.backward(grad_pooled)
    assert np.array_equal(packed, packed_rows(trees, padded))
    # One node per (example, channel), the dead channel's the root.
    assert np.count_nonzero(packed) == grad_pooled.size
    assert np.array_equal(packed[trees.starts, 0], grad_pooled[:, 0])

    targets = np.zeros(len(examples))
    (outputs, grads), (ref_outputs, ref_grads) = both_gradients(network, examples, targets)
    assert_close(outputs, ref_outputs)
    for name, expected in ref_grads.items():
        assert_close(grads[name], expected, name)


def test_pool_ties_within_one_segment_only():
    """A maximum equal to a neighbour segment's value does not leak across."""
    features = np.array([[0.0], [2.0], [1.0], [2.0], [2.0], [0.5]])
    trees = TreeBatch(
        features=features,
        left=np.array([0, 2, 0, 4, 0, 0]),
        right=np.zeros(6, dtype=np.intp),
        starts=np.array([1, 3, 5]),
        counts=np.array([2, 2, 1]),
    )
    pool = DynamicMaxPool()
    assert pool.forward(features, trees).tolist() == [[2.0], [2.0], [0.5]]
    routed = pool.backward(np.array([[1.0], [10.0], [100.0]]))
    assert routed[:, 0].tolist() == [0.0, 1.0, 0.0, 10.0, 0.0, 100.0]


# ---------------------------------------------------------------------- #
# take(): a sub-batch by index arithmetic
# ---------------------------------------------------------------------- #
def assert_same_batch(actual: TreeBatch, expected: TreeBatch) -> None:
    for name in ("features", "left", "right", "starts", "counts"):
        assert np.array_equal(getattr(actual, name), getattr(expected, name)), name


@settings(max_examples=40, deadline=None)
@given(examples=example_batches(min_size=3, max_size=8), data=st.data())
def test_take_equals_batching_the_sublist(examples, data):
    queries, trees = batch_examples(examples, QUERY_DIM, NODE_DIM)
    everything = list(range(len(examples)))
    picks = [
        everything,
        data.draw(st.permutations(everything)),
        [data.draw(st.sampled_from(everything))],
        data.draw(st.lists(st.sampled_from(everything), min_size=1, max_size=12)),  # repeats
    ]
    for indices in picks:
        expected_queries, expected = batch_examples(
            [examples[i] for i in indices], QUERY_DIM, NODE_DIM
        )
        assert_same_batch(trees.take(indices), expected)
        assert_same_batch(trees.take(np.array(indices)).take(np.arange(len(indices))), expected)
        assert np.array_equal(queries[indices], expected_queries)


# ---------------------------------------------------------------------- #
# The two preconditions
# ---------------------------------------------------------------------- #
def test_an_example_without_nodes_is_rejected():
    plan = ScanNode(alias="a0", table=TABLES[0], operator=ScanOperator.SEQ_SCAN)
    good = featurized(plan, np.zeros(QUERY_DIM))
    empty = FeaturizedExample(
        query_encoding=np.zeros(QUERY_DIM),
        plan=FlattenedPlan(
            features=np.zeros((1, NODE_DIM)),
            left=np.zeros(1, dtype=np.int64),
            right=np.zeros(1, dtype=np.int64),
            num_nodes=0,
        ),
    )
    with pytest.raises(ValueError, match="no plan nodes"):
        batch_examples([good, empty, good], QUERY_DIM, NODE_DIM)
    with pytest.raises(ValueError, match="zero examples"):
        batch_examples([], QUERY_DIM, NODE_DIM)


def test_a_node_with_two_parents_is_rejected():
    dag = TreeBatch(
        features=np.zeros((4, 2)),
        left=np.array([0, 2, 3, 0]),
        right=np.array([0, 3, 0, 0]),  # row 3 hangs under rows 1 and 2
        starts=np.array([1]),
        counts=np.array([3]),
    )
    with pytest.raises(ValueError, match="two parents"):
        dag.parents
    tree = TreeBatch(
        features=np.zeros((4, 2)),
        left=np.array([0, 2, 0, 0]),
        right=np.array([0, 3, 0, 0]),
        starts=np.array([1]),
        counts=np.array([3]),
    )
    parent, side = tree.parents
    assert parent.tolist() == [0, 0, 1, 1] and side.tolist() == [0, 0, 1, 2]


# ---------------------------------------------------------------------- #
# Real plans: numeric gradients and a whole seeded fit
# ---------------------------------------------------------------------- #
def real_examples(featurizer, three_table_query, five_table_query):
    q3, q5 = three_table_query, five_table_query
    plans = [
        (q3, left_deep_of(q3, ["t", "mc", "cn"])),
        (q3, left_deep_of(q3, ["cn", "mc", "t"])),
        (q3, JoinNode(scan(q3, "t"), scan(q3, "mc"), JoinOperator.MERGE_JOIN)),
        (q3, scan(q3, "cn")),
        (q5, left_deep_of(q5, ["t", "mc", "cn", "mi", "it"])),
        (q5, left_deep_of(q5, ["it", "mi", "t", "mc", "cn"])),
        (q5, JoinNode(
            JoinNode(scan(q5, "t"), scan(q5, "mc")),
            JoinNode(scan(q5, "mi"), scan(q5, "it"), JoinOperator.NESTED_LOOP),
            JoinOperator.MERGE_JOIN,
        )),
        (q5, scan(q5, "mi", ScanOperator.INDEX_SCAN)),
    ]
    return [featurizer.featurize(query, plan) for query, plan in plans]


def test_numeric_gradients_on_packed_real_trees(featurizer, three_table_query, five_table_query):
    """Central differences over a few coordinates of each of the 16 parameters."""
    network = ValueNetwork(featurizer, SMALL)
    examples = real_examples(featurizer, three_table_query, five_table_query)
    queries, trees = featurizer.batch(examples)
    assert trees.counts.tolist() == [5, 5, 3, 1, 9, 9, 7, 1]
    target = np.linspace(-1.0, 1.0, len(examples))

    def loss_value():
        return 0.5 * float(np.sum((network.forward(queries, trees) - target) ** 2))

    for parameter in network.parameters():
        parameter.zero_grad()
    network.backward(network.forward(queries, trees, training=True) - target)

    rng = np.random.default_rng(0)
    nonzero = 0
    for parameter in network.parameters():
        flat = parameter.value.reshape(-1)
        analytic = parameter.grad.reshape(-1)
        for i in rng.choice(flat.size, size=min(6, flat.size), replace=False):
            original = flat[i]
            flat[i] = original + 1e-6
            plus = loss_value()
            flat[i] = original - 1e-6
            minus = loss_value()
            flat[i] = original
            assert analytic[i] == pytest.approx((plus - minus) / 2e-6, abs=1e-5), parameter.name
            nonzero += analytic[i] != 0.0
    assert nonzero > 40  # the check is not of zeros against zeros


def test_seeded_fit_follows_the_padded_loop(featurizer, three_table_query, five_table_query):
    base = real_examples(featurizer, three_table_query, five_table_query)
    examples = base * 6
    labels = [float(1 + (7 * index) % 11) for index in range(len(examples))]
    fit_settings = dict(learning_rate=3e-3, batch_size=8, max_epochs=5,
                     validation_fraction=0.2, patience=3, gradient_clip=10.0, seed=5)
    network = ValueNetwork(featurizer, SMALL)
    reference = PaddedNetwork(network)

    history = ValueNetworkTrainer(network, **fit_settings).fit(examples, labels)
    train_losses, validation_losses = padded_fit(reference, examples, labels, **fit_settings)

    assert history.epochs_run == len(train_losses) == 5
    assert len(validation_losses) == 5
    np.testing.assert_allclose(history.train_losses, train_losses, rtol=1e-9, atol=0)
    np.testing.assert_allclose(history.validation_losses, validation_losses, rtol=1e-9, atol=0)
    assert history.train_losses[-1] < history.train_losses[0]
