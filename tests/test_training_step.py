"""The training step asks only for what it reads — and learns the same, bit for bit.

A step computes no gradient nothing reads (layer 0's input gradient for the
query-embedding columns only, none for the query MLP's input), keeps every
parameter in one flat buffer owned by the optimizer, and takes each
minibatch's parents along from the batch it came from.  None of that may
change an update, so the step as it ran before is kept in this file as the
reference: per-parameter Adam over a fresh concatenation of the gradients,
full input gradients, ``x * (x > 0)`` activations and ``parents`` rebuilt for
every minibatch.  Weights must be ``np.array_equal`` after every step while
the gradient clip is inactive; when it is active, the global norm is summed
in another order, so ``rtol=1e-12``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.featurization.featurizer import FeaturizedExample, SignatureFeaturizer, batch_examples
from repro.featurization.plan_encoder import FlattenedPlan
from repro.model.value_network import ValueNetwork, ValueNetworkConfig
from repro.nn.losses import mse_loss
from repro.nn.optim import Adam
from repro.nn.tree_conv import TreeBatch

QUERY_DIM = 5
NODE_DIM = 7
FEATURIZER = SignatureFeaturizer(("training-step-test", QUERY_DIM, NODE_DIM))
LEARNING_RATE = 0.01
SMALL = ValueNetworkConfig(
    query_hidden=6, query_embedding=4, tree_channels=(5, 3), head_hidden=4, seed=2
)


# ---------------------------------------------------------------------- #
# The reference: the step as it ran before
# ---------------------------------------------------------------------- #
class ConcatenatingAdam:
    """Adam over a fresh concatenation of the gradients, scattered back per
    parameter; the norm summed one parameter at a time."""

    def __init__(self, parameters, learning_rate):
        self.parameters = list(parameters)
        self.learning_rate = learning_rate
        self.beta1, self.beta2, self.epsilon = 0.9, 0.999, 1e-8
        self._bounds = np.cumsum([0] + [p.size for p in self.parameters])
        self._m = np.zeros(self._bounds[-1])
        self._v = np.zeros(self._bounds[-1])
        self._step = 0

    def zero_grad(self):
        for parameter in self.parameters:
            parameter.grad.fill(0.0)

    def clip_gradients(self, max_norm):
        total = 0.0
        for parameter in self.parameters:
            total += float(np.sum(parameter.grad**2))
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for parameter in self.parameters:
                parameter.grad *= scale
        return norm

    def step(self):
        self._step += 1
        bias1 = 1.0 - self.beta1**self._step
        bias2 = 1.0 - self.beta2**self._step
        grad = np.concatenate([p.grad.reshape(-1) for p in self.parameters])
        m, v = self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad**2
        m_hat = m / bias1
        v_hat = v / bias2
        update = self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
        for parameter, start, stop in zip(self.parameters, self._bounds, self._bounds[1:]):
            parameter.value -= update[start:stop].reshape(parameter.value.shape)


class MaskingReLU:
    def forward(self, inputs):
        self._mask = inputs > 0
        return inputs * self._mask

    def backward(self, grad_output):
        return grad_output * self._mask


def rebuilt_take(trees: TreeBatch, indices) -> TreeBatch:
    """``take`` by index arithmetic, without parents: they are rebuilt."""
    indices = np.asarray(indices, dtype=np.intp)
    counts = trees.counts[indices]
    starts = np.cumsum(counts) - counts + 1
    shift = np.zeros(int(counts.sum()) + 1, dtype=np.intp)
    shift[1:] = np.repeat(trees.starts[indices] - starts, counts)
    rows = np.arange(len(shift)) + shift
    left, right = trees.left[rows], trees.right[rows]
    for children in (left, right):
        np.subtract(children, shift, out=children, where=children > 0)
    return TreeBatch(trees.features[rows], left, right, starts, counts)


class ReferenceStep:
    """The whole step as it ran before, over a clone of a network's weights."""

    def __init__(self, network: ValueNetwork):
        self.net = network.clone()
        self.relus = {name: MaskingReLU() for name in ("query1", "query2", "head")}
        self.tree_relus = [MaskingReLU() for _ in self.net.tree_layers]
        self.optimizer = ConcatenatingAdam(self.net.parameters(), LEARNING_RATE)

    def forward(self, queries, trees):
        net, relus = self.net, self.relus
        hidden = relus["query1"].forward(net.query_fc1.forward(queries))
        embed = relus["query2"].forward(net.query_fc2.forward(hidden))
        nodes = np.empty((trees.num_rows, trees.feature_dim + embed.shape[1]))
        nodes[:, : trees.feature_dim] = trees.features
        nodes[0, trees.feature_dim :] = 0.0
        nodes[1:, trees.feature_dim :] = embed[trees.segment_ids]
        for layer, relu in zip(net.tree_layers, self.tree_relus):
            nodes = relu.forward(layer.forward(nodes, trees))
        pooled = net.pool.forward(nodes, trees)
        head = relus["head"].forward(net.head_fc1.forward(pooled))
        self._trees = trees
        return net.head_fc2.forward(head)[:, 0]

    def backward(self, grad_outputs):
        net, relus, trees = self.net, self.relus, self._trees
        grad = net.head_fc2.backward(grad_outputs[:, None])
        grad = net.head_fc1.backward(relus["head"].backward(grad))
        grad_nodes = net.pool.backward(grad)
        for layer, relu in zip(reversed(net.tree_layers), reversed(self.tree_relus)):
            grad_nodes = layer.backward(relu.backward(grad_nodes))
        grad_embed = np.add.reduceat(grad_nodes[:, trees.feature_dim :], trees.starts, axis=0)
        grad_hidden = net.query_fc2.backward(relus["query2"].backward(grad_embed))
        net.query_fc1.backward(relus["query1"].backward(grad_hidden))

    def step(self, queries, trees, indices, targets, max_norm) -> float:
        self.optimizer.zero_grad()
        outputs = self.forward(queries[indices], rebuilt_take(trees, indices))
        _, grad = mse_loss(outputs, targets[indices])
        self.backward(grad)
        norm = self.optimizer.clip_gradients(max_norm)
        self.optimizer.step()
        return norm


def step(network, optimizer, queries, trees, indices, targets, max_norm) -> float:
    """One step as ``ValueNetworkTrainer.fit`` takes it."""
    optimizer.zero_grad()
    outputs = network.forward(queries[indices], trees.take(indices), training=True)
    _, grad = mse_loss(outputs, targets[indices])
    network.backward(grad)
    norm = optimizer.clip_gradients(max_norm)
    optimizer.step()
    return norm


# ---------------------------------------------------------------------- #
# Generated trees: any shape, one-child nodes included
# ---------------------------------------------------------------------- #
@st.composite
def flattened_plans(draw, max_nodes: int = 7) -> FlattenedPlan:
    count = draw(st.integers(1, max_nodes))
    left, right = [0], [0]

    def grow(nodes: int) -> int:
        """Append a subtree of ``nodes`` nodes in preorder; returns its root's row."""
        row = len(left)
        left.append(0)
        right.append(0)
        below = draw(st.integers(0, nodes - 1))
        if below:
            left[row] = grow(below)
        if nodes - 1 - below:
            right[row] = grow(nodes - 1 - below)
        return row

    grow(count)
    features = np.random.default_rng(draw(st.integers(0, 2**16))).normal(
        size=(count + 1, NODE_DIM)
    )
    features[0] = 0.0
    return FlattenedPlan(features, np.array(left), np.array(right), count)


@st.composite
def example_lists(draw, min_size: int = 2, max_size: int = 8) -> list[FeaturizedExample]:
    encodings = np.random.default_rng(draw(st.integers(0, 2**16))).uniform(size=(3, QUERY_DIM))
    plans = draw(st.lists(flattened_plans(), min_size=min_size, max_size=max_size))
    return [
        FeaturizedExample(encodings[draw(st.integers(0, 2))], plan) for plan in plans
    ]


configs = st.builds(
    ValueNetworkConfig,
    query_hidden=st.integers(1, 9),
    query_embedding=st.integers(1, 6),
    tree_channels=st.lists(st.integers(1, 8), min_size=1, max_size=3).map(tuple),
    head_hidden=st.integers(1, 6),
    seed=st.integers(0, 1000),
)


def assert_same_weights(network, reference, exact: bool, what: str) -> None:
    expected = {p.name: p.value for p in reference.parameters()}
    for parameter in network.parameters():
        want = expected[parameter.name]
        if exact:
            assert np.array_equal(parameter.value, want), (what, parameter.name)
        else:
            scale = float(np.abs(want).max())
            np.testing.assert_allclose(
                parameter.value, want, rtol=1e-12, atol=1e-12 * scale,
                err_msg=f"{what} {parameter.name}",
            )


@settings(max_examples=60, deadline=None)
@given(
    examples=example_lists(),
    config=configs,
    max_norm=st.sampled_from([10.0, 0.05]),
    data=st.data(),
)
def test_steps_move_the_weights_the_reference_moves(examples, config, max_norm, data):
    network = ValueNetwork(FEATURIZER, config)
    rng = np.random.default_rng(config.seed)
    for parameter in network.parameters():
        if parameter.value.ndim == 1:  # biases start at zero, which would hide a leak
            parameter.value += rng.normal(scale=0.3, size=parameter.value.shape)
    targets = rng.normal(size=len(examples))
    queries, trees = FEATURIZER.batch(examples)
    reference = ReferenceStep(network)
    optimizer = Adam(network.parameters(), learning_rate=LEARNING_RATE)
    loaded = network.get_state()

    everything = list(range(len(examples)))
    minibatches = data.draw(
        st.lists(st.lists(st.sampled_from(everything), min_size=1, max_size=10),
                 min_size=1, max_size=5)
    )
    clipped = False
    for index, indices in enumerate(minibatches):
        norm = step(network, optimizer, queries, trees, indices, targets, max_norm)
        reference_norm = reference.step(queries, trees, indices, targets, max_norm)
        clipped = clipped or max(norm, reference_norm) > max_norm
        assert norm == pytest.approx(reference_norm, rel=1e-12)
        assert_same_weights(network, reference.net, not clipped, f"step {index}")

    # Loaded weights are written into the optimizer's buffer: the next step
    # moves them, as it moves the reference's.
    network.set_state(loaded)
    reference.net.set_state(loaded)
    indices = minibatches[0]
    step(network, optimizer, queries, trees, indices, targets, max_norm)
    reference.step(queries, trees, indices, targets, max_norm)
    assert not np.array_equal(network.head_fc2.bias.value, loaded["head_fc2.bias"])
    assert_same_weights(network, reference.net, not clipped, "after set_state")


def test_load_state_dict_writes_into_the_optimizers_buffer():
    network = ValueNetwork(FEATURIZER, SMALL)
    plan = FlattenedPlan(np.vstack([np.zeros(NODE_DIM), np.eye(NODE_DIM)[:3]]),
                         np.array([0, 2, 0, 0]), np.array([0, 3, 0, 0]), 3)
    queries, trees = FEATURIZER.batch([FeaturizedExample(np.ones(QUERY_DIM), plan)])
    optimizer = Adam(network.parameters(), learning_rate=LEARNING_RATE)
    arrays = [parameter.value for parameter in network.parameters()]
    state = ValueNetwork(FEATURIZER, network.config).state_dict()
    state["weights"] = {name: values + 1.0 for name, values in state["weights"].items()}
    network.load_state_dict(state)
    assert all(p.value is array for p, array in zip(network.parameters(), arrays))
    step(network, optimizer, queries, trees, [0], np.array([3.0]), 10.0)
    moved = network.state_dict()["weights"]
    assert any(not np.array_equal(moved[name], state["weights"][name]) for name in moved)


# ---------------------------------------------------------------------- #
# take() carries parents
# ---------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(examples=example_lists(min_size=1), data=st.data())
def test_take_carries_the_parents_of_batching_the_sublist(examples, data):
    _, trees = batch_examples(examples, QUERY_DIM, NODE_DIM)
    everything = list(range(len(examples)))
    indices = data.draw(st.lists(st.sampled_from(everything), min_size=1, max_size=12))
    again = data.draw(st.lists(st.sampled_from(range(len(indices))), min_size=1, max_size=12))
    for taken, chosen in (
        (trees.take(indices), indices),
        (trees.take(indices).take(again), [indices[i] for i in again]),
    ):
        _, fresh = batch_examples([examples[i] for i in chosen], QUERY_DIM, NODE_DIM)
        assert "parents" in vars(taken)  # carried, not computed on demand
        for carried, rebuilt in zip(taken.parents, fresh.parents):
            assert np.array_equal(carried, rebuilt)


def test_a_batch_with_a_two_parent_node_cannot_be_taken_from():
    dag = TreeBatch(
        features=np.zeros((5, 2)),
        left=np.array([0, 2, 3, 0, 0]),
        right=np.array([0, 3, 0, 0, 0]),  # row 3 hangs under rows 1 and 2
        starts=np.array([1, 4]),
        counts=np.array([3, 1]),
    )
    with pytest.raises(ValueError, match="two parents"):
        dag.take([1])
    with pytest.raises(ValueError, match="two parents"):
        dag.take([0]).parents


# ---------------------------------------------------------------------- #
# An inference forward leaves nothing to backpropagate
# ---------------------------------------------------------------------- #
def cached(network: ValueNetwork) -> list[str]:
    """The layer caches of ``network`` that still hold something."""
    return [
        f"{type(layer).__name__}.{name}"
        for layer in network._layers()
        for name in ("_input", "_mask", "_cache")
        if getattr(layer, name, None) is not None
    ]


@given(examples=example_lists(min_size=3, max_size=3), other=example_lists(min_size=3, max_size=3))
@settings(max_examples=10, deadline=None)
def test_an_inference_forward_cannot_be_backpropagated(examples, other):
    network = ValueNetwork(FEATURIZER, SMALL)
    queries, trees = FEATURIZER.batch(examples)
    targets = np.linspace(-1.0, 1.0, len(examples))
    # A training forward on A, a validation-style forward on B of the same
    # size, then A's gradient: that backward would read B's caches.
    _, grad = mse_loss(network.forward(queries, trees, training=True), targets)
    network.forward(*FEATURIZER.batch(other), training=False)
    assert cached(network) == []
    with pytest.raises(RuntimeError, match="backward called before forward"):
        network.backward(grad)

    network.forward(queries, trees, training=True)
    assert cached(network)
    network.predict_examples(other)
    assert cached(network) == []
    with pytest.raises(RuntimeError, match="backward called before forward"):
        network.backward(grad)

    # A training forward again backpropagates what a fresh network does.
    fresh = ValueNetwork(FEATURIZER, SMALL)
    for model in (network, fresh):
        for parameter in model.parameters():
            parameter.zero_grad()
        model.backward(mse_loss(model.forward(queries, trees, training=True), targets)[1])
    for mine, theirs in zip(network.parameters(), fresh.parameters()):
        assert np.array_equal(mine.grad, theirs.grad), mine.name


def test_weight_shapes_are_checked_before_any_weight_is_written():
    network = ValueNetwork(FEATURIZER, SMALL)
    before = network.get_state()
    bad = ValueNetwork(FEATURIZER, dataclasses.replace(SMALL, seed=9)).get_state()
    bad["head_fc2.bias"] = np.zeros(2)
    with pytest.raises(ValueError, match="shape mismatch"):
        network.set_state(bad)
    after = network.get_state()
    assert all(np.array_equal(before[name], after[name]) for name in before)


@pytest.mark.parametrize("change", ["missing", "unexpected"])
def test_a_state_whose_names_do_not_line_up_writes_nothing(change):
    """A state without one parameter, or with one the network lacks, is
    refused by name before any weight is written or the version moves."""
    network = ValueNetwork(FEATURIZER, SMALL)
    before, version = network.get_state(), network.version
    state = ValueNetwork(FEATURIZER, dataclasses.replace(SMALL, seed=9)).get_state()
    if change == "missing":
        del state["tree_conv1.w_left"]
        match = r"missing \['tree_conv1.w_left'\], unexpected none"
    else:
        state["tree_conv9.bias"] = np.zeros(3)
        match = r"missing none, unexpected \['tree_conv9.bias'\]"
    with pytest.raises(ValueError, match=match):
        network.set_state(state)
    after = network.get_state()
    assert all(np.array_equal(before[name], after[name]) for name in before)
    assert network.version == version
