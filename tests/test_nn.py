"""Tests for the numpy NN substrate, including numerical gradient checks."""

import numpy as np
import pytest

from repro.nn.early_stopping import EarlyStopping
from repro.nn.layers import Linear, Parameter, ReLU
from repro.nn.losses import mse_loss
from repro.nn import optim
from repro.nn.optim import Adam
from repro.nn.tree_conv import DynamicMaxPool, TreeBatch, TreeConvLayer


def numerical_gradient(function, array, epsilon=1e-6):
    """Central-difference gradient of a scalar-valued function of ``array``."""
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + epsilon
        plus = function()
        flat[i] = original - epsilon
        minus = function()
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * epsilon)
    return grad


def make_tree_batch(rng, batch=3, nodes=4, dim=5):
    """A small random packed TreeBatch: ``batch`` real trees of ``nodes`` nodes."""
    left = [0]
    right = [0]

    def grow(count):
        """Append a subtree of ``count`` nodes in preorder; returns its root's row."""
        row = len(left)
        left.append(0)
        right.append(0)
        if count > 1:
            left[row] = grow(count // 2)
        if count > 2:
            right[row] = grow(count - 1 - count // 2)
        return row

    starts = np.array([grow(nodes) for _ in range(batch)])
    features = rng.normal(size=(len(left), dim))
    features[0] = 0.0
    return TreeBatch(
        features=features,
        left=np.array(left),
        right=np.array(right),
        starts=starts,
        counts=np.full(batch, nodes),
    )


class TestParameter:
    def test_zero_grad(self):
        parameter = Parameter("p", np.ones((2, 2)))
        parameter.grad += 3.0
        parameter.zero_grad()
        assert np.all(parameter.grad == 0)
        assert parameter.size == 4


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(4, 3, rng=0)
        out = layer.forward(np.random.default_rng(0).normal(size=(7, 4)))
        assert out.shape == (7, 3)

    def test_gradient_check_weights(self):
        rng = np.random.default_rng(1)
        layer = Linear(4, 3, rng=1)
        x = rng.normal(size=(5, 4))
        target = rng.normal(size=(5, 3))

        def loss_value():
            out = layer.forward(x)
            return 0.5 * float(np.sum((out - target) ** 2))

        out = layer.forward(x)
        layer.weight.zero_grad()
        layer.bias.zero_grad()
        layer.backward(out - target)
        numeric = numerical_gradient(loss_value, layer.weight.value)
        assert np.allclose(layer.weight.grad, numeric, atol=1e-4)

    def test_gradient_check_inputs(self):
        rng = np.random.default_rng(2)
        layer = Linear(3, 2, rng=2)
        x = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 2))
        out = layer.forward(x)
        grad_input = layer.backward(out - target)

        def loss_value():
            return 0.5 * float(np.sum((layer.forward(x) - target) ** 2))

        numeric = numerical_gradient(loss_value, x)
        assert np.allclose(grad_input, numeric, atol=1e-4)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            Linear(2, 2).backward(np.zeros((1, 2)))


class TestActivations:
    def test_relu_forward_and_backward(self):
        relu = ReLU()
        x = np.array([[-1.0, 2.0], [3.0, -4.0]])
        out = relu.forward(x)
        assert np.array_equal(out, [[0.0, 2.0], [3.0, 0.0]])
        grad = relu.backward(np.ones_like(x))
        assert np.array_equal(grad, [[0.0, 1.0], [1.0, 0.0]])


class TestLoss:
    def test_mse_zero_for_equal(self):
        loss, grad = mse_loss(np.ones(4), np.ones(4))
        assert loss == 0.0 and np.all(grad == 0)

    def test_mse_gradient_direction(self):
        loss, grad = mse_loss(np.array([2.0]), np.array([0.0]))
        assert loss == pytest.approx(4.0)
        assert grad[0] > 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse_loss(np.ones(3), np.ones(4))


class TestOptimizers:
    def _quadratic_parameters(self):
        return [Parameter("w", np.array([5.0, -3.0]))]

    def test_minimises_quadratic(self):
        parameters = self._quadratic_parameters()
        optimizer = Adam(parameters, learning_rate=0.2)
        for _ in range(200):
            optimizer.zero_grad()
            parameters[0].grad += 2 * parameters[0].value
            optimizer.step()
        assert np.all(np.abs(parameters[0].value) < 0.05)

    def test_adam_over_one_flat_vector_is_the_per_parameter_loop(self):
        """Adam steps all parameters as one concatenated vector; every element
        sees the operations of the loop below, so values agree bit for bit."""
        rng = np.random.default_rng(7)
        shapes = [(4, 3), (3,), (2, 5), (1,)]
        parameters = [Parameter(f"p{i}", rng.normal(size=shape)) for i, shape in enumerate(shapes)]
        values = [parameter.value.copy() for parameter in parameters]
        optimizer = Adam(parameters, learning_rate=0.05)
        beta1, beta2, epsilon = optim.BETA1, optim.BETA2, optim.EPSILON
        first = [np.zeros(shape) for shape in shapes]
        second = [np.zeros(shape) for shape in shapes]
        for step in range(1, 26):
            grads = [rng.normal(size=shape) * 10.0 ** rng.integers(-6, 2) for shape in shapes]
            for parameter, grad in zip(parameters, grads):
                parameter.grad[...] = grad
            optimizer.step()
            for value, grad, m, v in zip(values, grads, first, second):
                m *= beta1
                m += (1.0 - beta1) * grad
                v *= beta2
                v += (1.0 - beta2) * grad**2
                m_hat = m / (1.0 - beta1**step)
                v_hat = v / (1.0 - beta2**step)
                value -= 0.05 * m_hat / (np.sqrt(v_hat) + epsilon)
            for parameter, value in zip(parameters, values):
                assert np.array_equal(parameter.value, value), (parameter.name, step)

    def test_gradient_clipping(self):
        parameters = [Parameter("w", np.zeros(3))]
        optimizer = Adam(parameters, learning_rate=1.0)
        parameters[0].grad += np.array([3.0, 4.0, 0.0])
        norm = optimizer.clip_gradients(1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(parameters[0].grad) == pytest.approx(1.0)


class TestEarlyStopping:
    def test_stops_after_patience(self):
        stopper = EarlyStopping(patience=2)
        assert not stopper.update(1.0, 0)
        assert not stopper.update(1.1, 1)
        assert stopper.update(1.2, 2)
        assert stopper.should_stop

    def test_improvement_resets_counter(self):
        stopper = EarlyStopping(patience=2)
        stopper.update(1.0, 0)
        stopper.update(1.1, 1)
        assert not stopper.update(0.5, 2)
        assert stopper.best_epoch == 2


class TestTreeConv:
    def test_forward_shape_and_sentinel_zero(self):
        rng = np.random.default_rng(0)
        batch = make_tree_batch(rng, batch=2, nodes=3, dim=4)
        layer = TreeConvLayer(4, 6, rng=0)
        layer.bias.value += 1.0  # a bias the sentinel must not pick up
        out = layer.forward(batch.features, batch)
        assert out.shape == (2 * 3 + 1, 6)
        assert np.all(out[0] == 0.0)
        assert np.all(out[1:] != 0.0)

    def test_gradient_check_weights(self):
        rng = np.random.default_rng(3)
        batch = make_tree_batch(rng, batch=2, nodes=4, dim=4)
        layer = TreeConvLayer(4, 3, rng=3)
        target = rng.normal(size=(2 * 4 + 1, 3))

        def loss_value():
            return 0.5 * float(np.sum((layer.forward(batch.features, batch) - target) ** 2))

        out = layer.forward(batch.features, batch)
        for parameter in layer.parameters():
            parameter.zero_grad()
        layer.backward(out - target)
        for parameter in [layer.w_root, layer.w_left, layer.w_right, layer.bias]:
            numeric = numerical_gradient(loss_value, parameter.value)
            assert np.allclose(parameter.grad, numeric, atol=1e-4), parameter.name

    def test_gradient_check_inputs(self):
        rng = np.random.default_rng(4)
        batch = make_tree_batch(rng, batch=2, nodes=4, dim=3)
        layer = TreeConvLayer(3, 2, rng=4)
        target = rng.normal(size=(2 * 4 + 1, 2))
        out = layer.forward(batch.features, batch)
        grad_input = layer.backward(out - target)

        def loss_value():
            return 0.5 * float(np.sum((layer.forward(batch.features, batch) - target) ** 2))

        numeric = numerical_gradient(loss_value, batch.features)
        # The sentinel is excluded from the comparison: its features are a
        # constant of the encoding, not a trainable input.
        assert np.allclose(grad_input[1:], numeric[1:], atol=1e-4)
        assert np.all(grad_input[0] == 0.0)

    def test_gradient_check_query_weights_through_the_embedding_columns(self):
        """The value network's shape: a query layer's output is appended to
        every node of its tree, and layer 0 hands back only those columns'
        gradient — enough to train the query layer, which needs no input
        gradient of its own."""
        rng = np.random.default_rng(6)
        batch = make_tree_batch(rng, batch=2, nodes=4, dim=3)
        queries = rng.normal(size=(2, 4))
        query_layer = Linear(4, 2, rng=6)
        layer = TreeConvLayer(3 + 2, 3, rng=6)
        segments = np.repeat(np.arange(2), batch.counts)
        target = rng.normal(size=(2 * 4 + 1, 3))

        def node_inputs():
            nodes = np.zeros((batch.num_rows, 3 + 2))
            nodes[:, :3] = batch.features
            nodes[1:, 3:] = query_layer.forward(queries)[segments]
            return nodes

        def loss_value():
            return 0.5 * float(np.sum((layer.forward(node_inputs(), batch) - target) ** 2))

        out = layer.forward(node_inputs(), batch)
        for parameter in query_layer.parameters():
            parameter.zero_grad()
        grad_columns = layer.backward(out - target, columns=slice(3, None))
        assert grad_columns.shape == (batch.num_rows, 2)
        assert np.allclose(grad_columns, layer.backward(out - target)[:, 3:], rtol=1e-12)
        grad_embedding = np.add.reduceat(grad_columns, batch.starts, axis=0)
        assert query_layer.backward(grad_embedding, input_grad=False) is None
        for parameter in query_layer.parameters():
            numeric = numerical_gradient(loss_value, parameter.value)
            assert np.allclose(parameter.grad, numeric, atol=1e-4), parameter.name
            assert np.any(parameter.grad != 0.0)

    def test_pooling_max_and_backward(self):
        rng = np.random.default_rng(5)
        batch = make_tree_batch(rng, batch=2, nodes=3, dim=4)
        pool = DynamicMaxPool()
        pooled = pool.forward(batch.features, batch)
        assert pooled.shape == (2, 4)
        expected = np.stack([batch.features[1:4].max(axis=0), batch.features[4:7].max(axis=0)])
        assert np.array_equal(pooled, expected)
        grad = pool.backward(np.ones_like(pooled))
        assert grad.shape == batch.features.shape
        # Each (example, channel) routes exactly one unit of gradient.
        assert grad.sum() == pytest.approx(2 * 4)
        assert np.array_equal(grad[1:4].sum(axis=0), np.ones(4))
        assert np.array_equal(grad[4:7].sum(axis=0), np.ones(4))
        assert np.all(grad[0] == 0.0)
