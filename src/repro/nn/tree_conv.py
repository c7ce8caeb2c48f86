"""Neo-style tree convolution over packed batches of plan trees.

A batch of plan trees is *one* node table with no padding
(:class:`TreeBatch`):

- row 0 is the single *sentinel* zero node, the "no child" of every leaf;
- each example is a contiguous segment of rows, its nodes in preorder,
  example ``e`` at rows ``starts[e] .. starts[e] + counts[e] - 1``;
- ``left`` / ``right`` hold, per row, the *global* row of the node's children
  (0 for none).

A :class:`TreeConvLayer` computes, for every node ``i``::

    out[i] = W_root @ x[i] + W_left @ x[left[i]] + W_right @ x[right[i]] + b

which is exactly the triangular filter of Mou et al. used by Neo and Balsa —
as one product per layer over the gathered rows ``[x[i] | x[left[i]] |
x[right[i]]]`` (:func:`convolve_rows`, the kernel incremental scoring runs
too).  Stacking layers grows each node's receptive field; a final
:class:`DynamicMaxPool` reduces every segment to a fixed-size vector by
element-wise max over its nodes.  Layers and pool take the node rows they
work on and the :class:`TreeBatch` whose structure those rows follow: the
structure, and what is derived from it, is built once per batch however many
layers read it.

Training cuts one packed batch into minibatches.  :meth:`TreeBatch.take`
cuts one, by index arithmetic; :meth:`TreeBatch.minibatches` cuts every
minibatch of one shuffled order (the *epoch layout*): one vectorised pass
lays out, per minibatch, a zero sentinel row and its examples' rows with
minibatch-local ``left``, ``right``, ``parents``, ``nodes`` and
``segment_ids``, and each minibatch is views into that layout plus one gather
of its own node features — array-equal to the ``take``.

Two preconditions, both true of what ``PlanEncoder.flatten`` produces:

- **every node has at most one parent** (trees, not DAGs): the backward pass
  *gathers* a node's gradient from its parent instead of scattering from the
  parent into its children (:attr:`TreeBatch.parents` raises on a shared
  child);
- **every example has at least one node**: ``ufunc.reduceat`` over an empty
  segment silently returns a neighbour's row, so ``batch_examples`` rejects a
  zero-node example.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from repro.nn.layers import Parameter
from repro.utils.rng import new_rng


@dataclass
class TreeBatch:
    """A batch of plan trees packed into one node table (``N`` nodes in all).

    Attributes:
        features: ``(N + 1, feature_dim)`` node features; row 0 is the
            sentinel zero node.
        left: ``(N + 1,)`` global row of every node's left child (0 = none).
        right: ``(N + 1,)`` global row of every node's right child (0 = none).
        starts: ``(batch,)`` first row of every example (its root).
        counts: ``(batch,)`` nodes of every example, each at least 1.
    """

    features: np.ndarray
    left: np.ndarray
    right: np.ndarray
    starts: np.ndarray
    counts: np.ndarray

    @property
    def batch_size(self) -> int:
        return len(self.counts)

    @property
    def num_rows(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @cached_property
    def nodes(self) -> np.ndarray:
        """``(N + 1, 3)`` rows ``[self, left, right]``: what a layer gathers."""
        return np.stack([np.arange(self.num_rows), self.left, self.right], axis=1)

    @cached_property
    def segment_ids(self) -> np.ndarray:
        """``(N,)`` example of every real node: row ``i + 1`` is in segment ``segment_ids[i]``."""
        return np.repeat(np.arange(self.batch_size), self.counts)

    @cached_property
    def parents(self) -> tuple[np.ndarray, np.ndarray]:
        """Per row, its parent's row and which input of the parent it is.

        The input is 1 for a left child and 2 for a right one — the block of
        the parent's gathered row it fills.  Roots and the sentinel read
        ``(0, 0)``.

        Raises:
            ValueError: A node is the child of two nodes.
        """
        rows = np.arange(self.num_rows)
        parent = np.zeros(self.num_rows, dtype=np.intp)
        side = np.zeros(self.num_rows, dtype=np.intp)
        for block, children in ((1, self.left), (2, self.right)):
            linked = children > 0
            parent[children[linked]] = rows[linked]
            side[children[linked]] = block
        edges = np.count_nonzero(self.left) + np.count_nonzero(self.right)
        if np.count_nonzero(parent) != edges:
            raise ValueError("a plan node has two parents: tree batches hold trees, not DAGs")
        return parent, side

    def take(self, indices) -> "TreeBatch":
        """The batch of the examples ``indices``, in that order (repeats allowed).

        Array-equal to batching that sub-list of examples afresh; index
        arithmetic only, no per-example loop.  The sub-batch *carries*
        :attr:`parents`: they are computed, and checked for a node with two
        parents, once on this batch and moved like ``left`` and ``right``,
        so the minibatches of one ``fit`` never rebuild them.

        Raises:
            ValueError: A node of this batch is the child of two nodes.
        """
        indices = np.asarray(indices, dtype=np.intp)
        parent, side = self.parents
        counts = self.counts[indices]
        starts = np.cumsum(counts) - counts + 1
        # Per new row, how far it moved up from its row here (sentinel: 0);
        # a node's children and parent are in its segment and move with it.
        shift = np.zeros(int(counts.sum()) + 1, dtype=np.intp)
        shift[1:] = np.repeat(self.starts[indices] - starts, counts)
        rows = np.arange(len(shift)) + shift
        left, right, parent = self.left[rows], self.right[rows], parent[rows]
        for linked in (left, right, parent):
            np.subtract(linked, shift, out=linked, where=linked > 0)
        taken = TreeBatch(self.features[rows], left, right, starts, counts)
        taken.parents = (parent, side[rows])
        return taken

    def minibatches(self, order, batch_size: int) -> Iterator["TreeBatch"]:
        """``take(order[i : i + batch_size])`` for ``i = 0, batch_size, ...``.

        Each yielded batch is array-equal to that ``take``, the last, partial
        one included.  An ``order`` that fits in one minibatch is that one
        ``take``.  Otherwise the first ``next`` lays out every minibatch in
        one vectorised pass (the epoch layout): per minibatch a zero sentinel
        row, then its examples' rows, with minibatch-local ``left``,
        ``right``, ``parents``, ``nodes`` and ``segment_ids``.  A yielded
        batch is views into that layout plus one ``features.take`` of its
        own rows, so the node features of one minibatch at a time exist.

        Raises:
            ValueError: A node of this batch is the child of two nodes.
        """
        order = np.asarray(order, dtype=np.intp)
        if len(order) <= batch_size:
            if len(order):
                yield self.take(order)
            return
        parent, side = self.parents
        counts = self.counts[order]
        # Each example's place within its minibatch; each minibatch's first example.
        within = np.arange(len(order)) % batch_size
        firsts = np.arange(0, len(order), batch_size)
        sizes = np.add.reduceat(counts, firsts)
        # An example's first row within its minibatch, and how far its rows
        # moved up from their rows here; a sentinel is a one-row segment
        # that stays at row 0.
        before = np.cumsum(counts) - counts
        starts = before - before[np.arange(len(order)) - within] + 1
        shift = np.repeat(
            np.insert(self.starts[order] - starts, firsts, 0), np.insert(counts, firsts, 1)
        )
        bases = np.cumsum(sizes + 1) - (sizes + 1)
        local = np.arange(len(shift)) - np.repeat(bases, sizes + 1)
        rows = local + shift
        left, right, parent = self.left[rows], self.right[rows], parent[rows]
        for linked in (left, right, parent):
            np.subtract(linked, shift, out=linked, where=linked > 0)
        side = side[rows]
        nodes = np.stack([local, left, right], axis=1)
        segment_ids = np.repeat(within, counts)
        node_base = 0
        for first, base, size in zip(firsts.tolist(), bases.tolist(), sizes.tolist()):
            stop = base + size + 1
            batch = TreeBatch(
                self.features.take(rows[base:stop], axis=0),
                left[base:stop],
                right[base:stop],
                starts[first : first + batch_size],
                counts[first : first + batch_size],
            )
            batch.nodes = nodes[base:stop]
            batch.segment_ids = segment_ids[node_base : node_base + size]
            batch.parents = (parent[base:stop], side[base:stop])
            node_base += size
            yield batch


def convolve_rows(
    table: np.ndarray, nodes: np.ndarray, stacked: np.ndarray, bias: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Tree-convolve the nodes ``nodes[:, 0]`` of ``table`` in one product.

    Args:
        table: ``(rows, in)`` node rows of one layer's input.
        nodes: ``(n, 3)`` rows ``[self, left, right]`` into ``table``.
        stacked: ``(3 * in, out)``, :meth:`TreeConvLayer.stacked_weights`.
        bias: ``(out,)``.

    Returns:
        The gathered inputs ``[x | x_left | x_right]``, ``(n, 3 * in)`` — what
        a backward pass multiplies by — and the outputs, ``(n, out)``.
    """
    gathered = table.take(nodes, axis=0).reshape(len(nodes), -1)
    out = gathered @ stacked
    out += bias
    return gathered, out


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
        ``[x | x_left | x_right] @ stacked + bias`` (:func:`convolve_rows`).
        """
        stacked = np.concatenate(
            [self.w_root.value, self.w_left.value, self.w_right.value], axis=1
        )
        return np.ascontiguousarray(stacked.T)

    # ------------------------------------------------------------------ #
    # Forward / backward
    # ------------------------------------------------------------------ #
    def forward(
        self, features: np.ndarray, trees: TreeBatch, training: bool = False
    ) -> np.ndarray:
        """Convolve ``(N + 1, in_channels)`` node rows over the trees' structure.

        ``features`` is ``trees.features`` for a first layer and the previous
        layer's output after that; its row 0 must be zero.
        """
        stacked = self.stacked_weights()
        gathered, out = convolve_rows(features, trees.nodes, stacked, self.bias.value)
        # The sentinel must stay exactly zero so it neither wins the max pool
        # nor leaks the bias into deeper layers.
        out[0] = 0.0
        self._cache = (trees, gathered, stacked)
        return out

    def backward(self, grad_output: np.ndarray, columns: slice | None = None) -> np.ndarray:
        """Backward pass.

        Args:
            grad_output: Gradient w.r.t. the layer's output features,
                ``(N + 1, out_channels)``; row 0, the sentinel's, is ignored.
            columns: The input columns whose gradient is wanted (all when
                ``None``): a first layer's plan-feature columns are constants,
                so the value network asks for its query-embedding columns
                only.  The weight gradients are whole either way.

        Returns:
            Gradient w.r.t. the input features' ``columns``,
            ``(N + 1, width)``, zero at the sentinel (its features are
            constants, not inputs).
        """
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        trees, gathered, stacked = self._cache
        in_channels = self.w_root.value.shape[1]

        # The sentinel's gathered row is all zeros: it adds nothing here.
        grad_stacked = grad_output.T @ gathered
        self.w_root.grad += grad_stacked[:, :in_channels]
        self.w_left.grad += grad_stacked[:, in_channels : 2 * in_channels]
        self.w_right.grad += grad_stacked[:, 2 * in_channels :]
        self.bias.grad += grad_output[1:].sum(axis=0)

        width = in_channels
        if columns is not None:
            # The rows of ``stacked`` that multiply those columns, per block.
            stacked = stacked.reshape(3, in_channels, -1)[:, columns]
            width = stacked.shape[1]
            stacked = stacked.reshape(3 * width, -1)
        # grad_gathered[i] = what node i hands to [itself, its left, its right].
        grad_gathered = (grad_output @ stacked.T).reshape(-1, 3, width)
        grad_gathered[0] = 0.0
        # A node has one parent, so it collects instead of the parent scattering;
        # roots collect the sentinel's zeros.
        return grad_gathered[:, 0] + grad_gathered[trees.parents]

    def release(self) -> None:
        """Drop what ``forward`` kept for ``backward``."""
        self._cache = None


class DynamicMaxPool:
    """Element-wise max over each tree's nodes."""

    def __init__(self):
        self._cache: tuple | None = None

    def forward(
        self, features: np.ndarray, trees: TreeBatch, training: bool = False
    ) -> np.ndarray:
        """Pool ``(N + 1, channels)`` node rows to ``(batch, channels)``."""
        pooled = np.maximum.reduceat(features, trees.starts, axis=0)
        self._cache = (features, trees, pooled)
        return pooled

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Route pooled gradients back to the maximal nodes.

        Ties — ReLU zeros tie constantly — go to the first maximum in
        preorder, one node per (example, channel).
        """
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        features, trees, pooled = self._cache
        rows, channels = features.shape
        is_max = features[1:] == pooled[trees.segment_ids]
        candidates = np.where(is_max, np.arange(1, rows)[:, None], rows)
        first = np.minimum.reduceat(candidates, trees.starts - 1, axis=0)
        grad_input = np.zeros_like(features)
        grad_input[first, np.arange(channels)] = grad_output
        return grad_input

    def release(self) -> None:
        """Drop what ``forward`` kept for ``backward``."""
        self._cache = None
