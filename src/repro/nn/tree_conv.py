"""Neo-style tree convolution over batched plan trees.

A plan tree is flattened into a fixed-size node table per example:

- position 0 is a *sentinel* zero node;
- positions ``1..num_nodes`` hold the real nodes (any order);
- each node stores the indices of its left/right children (0 for "no child",
  i.e. the sentinel).

A :class:`TreeConvLayer` computes, for every node ``i``::

    out[i] = W_root @ x[i] + W_left @ x[left[i]] + W_right @ x[right[i]] + b

which is exactly the triangular filter of Mou et al. used by Neo and Balsa.
Stacking layers grows each node's receptive field; a final
:class:`DynamicMaxPool` reduces the variable-size node table to a fixed-size
vector by element-wise max over the real nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.layers import Parameter
from repro.utils.rng import new_rng


@dataclass
class TreeBatch:
    """A batch of flattened plan trees.

    Attributes:
        features: ``(batch, max_nodes + 1, feature_dim)`` node features; row 0
            of every example is the sentinel zero node.
        left: ``(batch, max_nodes + 1)`` indices of left children (0 = none).
        right: ``(batch, max_nodes + 1)`` indices of right children (0 = none).
        valid: ``(batch, max_nodes + 1)`` boolean mask of real nodes (sentinel
            and padding are ``False``).
    """

    features: np.ndarray
    left: np.ndarray
    right: np.ndarray
    valid: np.ndarray

    @property
    def batch_size(self) -> int:
        return self.features.shape[0]

    @property
    def num_slots(self) -> int:
        return self.features.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[2]

    def with_features(self, features: np.ndarray) -> "TreeBatch":
        """Return a copy pointing at a different feature tensor."""
        return TreeBatch(features=features, left=self.left, right=self.right, valid=self.valid)


class TreeConvLayer:
    """One tree convolution layer.

    Args:
        in_channels: Input feature dimensionality per node.
        out_channels: Output dimensionality per node.
        rng: Seed or generator for initialisation.
        name: Parameter name prefix.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        rng: int | np.random.Generator | None = 0,
        name: str = "tree_conv",
    ):
        generator = new_rng(rng)
        bound = np.sqrt(6.0 / (3 * in_channels))

        def init(suffix: str) -> Parameter:
            values = generator.uniform(-bound, bound, size=(out_channels, in_channels))
            return Parameter(f"{name}.{suffix}", values.astype(np.float64))

        self.w_root = init("w_root")
        self.w_left = init("w_left")
        self.w_right = init("w_right")
        self.bias = Parameter(f"{name}.bias", np.zeros(out_channels, dtype=np.float64))
        self._cache: tuple | None = None

    def parameters(self) -> list[Parameter]:
        return [self.w_root, self.w_left, self.w_right, self.bias]

    def stacked_weights(self) -> np.ndarray:
        """A copy of ``[W_root | W_left | W_right]ᵀ``, ``(3 * in, out)``.

        With it one node's output is a single product,
        ``[x | x_left | x_right] @ stacked + bias`` — the form incremental
        scoring uses, where a node's inputs are gathered rows, not a batch.
        """
        stacked = np.concatenate(
            [self.w_root.value, self.w_left.value, self.w_right.value], axis=1
        )
        return np.ascontiguousarray(stacked.T)

    # ------------------------------------------------------------------ #
    # Forward / backward
    # ------------------------------------------------------------------ #
    def forward(self, batch: TreeBatch, training: bool = False) -> TreeBatch:
        """Apply the convolution; the output keeps the batch's tree structure."""
        features = batch.features
        batch_idx = np.arange(batch.batch_size)[:, None]
        left_features = features[batch_idx, batch.left]
        right_features = features[batch_idx, batch.right]
        out = (
            features @ self.w_root.value.T
            + left_features @ self.w_left.value.T
            + right_features @ self.w_right.value.T
            + self.bias.value
        )
        # Sentinel and padded nodes must stay exactly zero so they neither win
        # the max pool nor leak bias terms into deeper layers.
        out *= batch.valid[..., None]
        self._cache = (batch, left_features, right_features)
        return batch.with_features(out)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backward pass.

        Args:
            grad_output: Gradient w.r.t. the layer's output features,
                ``(batch, slots, out_channels)``.

        Returns:
            Gradient w.r.t. the input features, ``(batch, slots, in_channels)``.
        """
        if self._cache is None:
            raise RuntimeError("backward called before forward")
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

        batch_idx = np.arange(batch.batch_size)[:, None]
        batch_idx_full = np.broadcast_to(batch_idx, batch.left.shape)
        np.add.at(grad_input, (batch_idx_full, batch.left), grad_left)
        np.add.at(grad_input, (batch_idx_full, batch.right), grad_right)
        # Contributions scattered onto the sentinel slot are discarded by
        # zeroing invalid slots (their features are constants, not inputs).
        grad_input *= batch.valid[..., None]
        return grad_input


class DynamicMaxPool:
    """Element-wise max over each tree's real nodes."""

    def __init__(self):
        self._cache: tuple | None = None

    def forward(self, batch: TreeBatch, training: bool = False) -> np.ndarray:
        """Pool ``(batch, slots, channels)`` features to ``(batch, channels)``."""
        features = batch.features
        masked = np.where(batch.valid[..., None], features, -np.inf)
        pooled = masked.max(axis=1)
        # Degenerate case: an example with no valid nodes pools to zero.
        pooled = np.where(np.isfinite(pooled), pooled, 0.0)
        argmax = masked.argmax(axis=1)
        self._cache = (features.shape, argmax, batch.valid.any(axis=1))
        return pooled

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Scatter pooled gradients back to the argmax nodes."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        shape, argmax, has_valid = self._cache
        grad_input = np.zeros(shape, dtype=np.float64)
        batch_size, _, channels = shape
        batch_idx = np.repeat(np.arange(batch_size), channels)
        channel_idx = np.tile(np.arange(channels), batch_size)
        node_idx = argmax.reshape(-1)
        grads = (grad_output * has_valid[:, None]).reshape(-1)
        np.add.at(grad_input, (batch_idx, node_idx, channel_idx), grads)
        return grad_input
