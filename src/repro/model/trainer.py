"""Supervised training of the value network.

Used in two places:

- simulation bootstrapping (§3): many epochs over the large ``D_sim`` dataset,
  with a 10% validation split and early stopping;
- real-execution updates (§4.1): a handful of epochs per iteration, either on
  the latest iteration's data only (on-policy) or on the full experience
  (Neo-style retraining).

A fit batches its examples once into a packed
:class:`~repro.nn.tree_conv.TreeBatch`.  Each epoch then lays out the tree
structure of all its minibatches in one pass after the shuffle
(:meth:`TreeBatch.minibatches`), so a step pays for its gradient and one
gather of its own node features; an epoch that fits in one minibatch (every
on-policy update) is a single ``take``.  The validation minibatches are the
same every epoch and are taken once per fit.  The weights are those of the
per-step ``take`` loop, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.featurization.featurizer import FeaturizedExample
from repro.model.value_network import ValueNetwork
from repro.nn.early_stopping import EarlyStopping
from repro.nn.losses import mse_loss
from repro.nn.optim import Adam
from repro.nn.tree_conv import TreeBatch
from repro.utils.rng import new_rng


@dataclass
class TrainingHistory:
    """Loss history of one training run.

    Attributes:
        train_losses: Per-epoch mean training loss (normalised label space).
        validation_losses: Per-epoch validation loss (empty if no split).
        epochs_run: Number of epochs actually executed.
        stopped_early: Whether early stopping triggered.
    """

    train_losses: list[float] = field(default_factory=list)
    validation_losses: list[float] = field(default_factory=list)
    epochs_run: int = 0
    stopped_early: bool = False


class ValueNetworkTrainer:
    """Minibatch Adam trainer with optional validation split and early stopping.

    Args:
        network: The value network to train.
        learning_rate: Adam step size.
        batch_size: Minibatch size.
        max_epochs: Upper bound on epochs.
        validation_fraction: Fraction of examples held out for early stopping
            (0 disables the split; the paper uses 10%).
        patience: Early-stopping patience in epochs.
        gradient_clip: Global gradient-norm clip.
        seed: Seed for shuffling and splitting.
    """

    def __init__(
        self,
        network: ValueNetwork,
        learning_rate: float = 1e-3,
        batch_size: int = 128,
        max_epochs: int = 30,
        validation_fraction: float = 0.1,
        patience: int = 3,
        gradient_clip: float = 10.0,
        seed: int = 0,
    ):
        self.network = network
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.max_epochs = max_epochs
        self.validation_fraction = validation_fraction
        self.patience = patience
        self.gradient_clip = gradient_clip
        self.seed = seed

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def fit(
        self,
        examples: Sequence[FeaturizedExample],
        labels: Sequence[float],
        refit_label_transform: bool = True,
        max_epochs: int | None = None,
    ) -> TrainingHistory:
        """Train the network on (example, label) pairs.

        Args:
            examples: Featurised (query, plan) pairs.
            labels: Raw-unit targets (costs or latencies).
            refit_label_transform: Refit the log/standardise transform on these
                labels before training (disable for incremental on-policy
                updates so the target space stays stable across iterations).
            max_epochs: Optional override of the configured epoch budget.

        Returns:
            The :class:`TrainingHistory`.
        """
        if len(examples) != len(labels):
            raise ValueError("examples and labels must have equal length")
        if not examples:
            return TrainingHistory()
        labels_array = np.asarray(labels, dtype=np.float64)
        if refit_label_transform:
            self.network.fit_label_transform(labels_array)
        targets = self.network.transform_labels(labels_array)

        rng = new_rng(self.seed)
        order = rng.permutation(len(examples))
        num_validation = (
            int(len(examples) * self.validation_fraction)
            if len(examples) >= 20 and self.validation_fraction > 0
            else 0
        )
        validation_idx = order[:num_validation]
        train_idx = order[num_validation:]

        # Batched once; the validation minibatches never change, so they are
        # taken once too.
        queries, trees = self.network.featurizer.batch(examples)
        validation = [
            (queries[batch_idx], batch, targets[batch_idx])
            for batch_idx, batch in self._minibatches(trees, validation_idx)
        ]

        optimizer = Adam(self.network.parameters(), learning_rate=self.learning_rate)
        stopper = EarlyStopping(patience=self.patience)
        history = TrainingHistory()
        best_state = None
        # Not ``stopper.best_loss``, which only moves on an improvement larger
        # than its ``min_delta``: the weights to keep are the lowest loss's.
        best_loss = float("inf")
        epoch_budget = max_epochs if max_epochs is not None else self.max_epochs

        for epoch in range(epoch_budget):
            rng.shuffle(train_idx)
            epoch_losses = []
            for batch_idx, batch in self._minibatches(trees, train_idx):
                optimizer.zero_grad()
                outputs = self.network.forward(queries[batch_idx], batch, training=True)
                loss, grad = mse_loss(outputs, targets[batch_idx])
                self.network.backward(grad)
                optimizer.clip_gradients(self.gradient_clip)
                optimizer.step()
                epoch_losses.append(loss)
            history.train_losses.append(float(np.mean(epoch_losses)) if epoch_losses else 0.0)
            history.epochs_run = epoch + 1

            if num_validation:
                validation_loss = self._evaluate(validation)
                history.validation_losses.append(validation_loss)
                if validation_loss <= best_loss:
                    best_loss = validation_loss
                    best_state = self.network.get_state()
                if stopper.update(validation_loss, epoch):
                    history.stopped_early = True
                    break

        if best_state is not None:
            self.network.set_state(best_state)
        else:
            # set_state already bumps; bump here so plan caches keyed on the
            # network's version_key() never serve pre-training predictions.
            self.network.bump_version()
        return history

    # ------------------------------------------------------------------ #
    # Minibatches and evaluation
    # ------------------------------------------------------------------ #
    def _evaluate(self, minibatches: list[tuple[np.ndarray, TreeBatch, np.ndarray]]) -> float:
        """Mean loss over ``(queries, trees, targets)`` minibatches."""
        total = 0.0
        count = 0
        for queries, trees, targets in minibatches:
            outputs = self.network.forward(queries, trees, training=False)
            loss, _ = mse_loss(outputs, targets)
            total += loss * len(targets)
            count += len(targets)
        return total / max(count, 1)

    def _minibatches(
        self, trees: TreeBatch, order: np.ndarray
    ) -> Iterator[tuple[np.ndarray, TreeBatch]]:
        """``(order[i : i + batch_size], trees.take(...))`` per minibatch of ``order``.

        One layout for all of them (:meth:`TreeBatch.minibatches`), freed
        when the iteration ends, before the next epoch lays out its own.
        """
        starts = range(0, len(order), self.batch_size)
        batches = trees.minibatches(order, self.batch_size)
        for start, batch in zip(starts, batches):
            yield order[start : start + self.batch_size], batch
