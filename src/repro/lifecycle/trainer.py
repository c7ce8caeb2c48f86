"""Fine-tuning a candidate: train version N+1 while version N keeps serving.

:meth:`BackgroundTrainer.train` clones the base network, fine-tunes the clone
on the supplied experience with the ordinary
:class:`~repro.model.trainer.ValueNetworkTrainer` on the calling thread, and
registers the result as a candidate snapshot in the
:class:`~repro.lifecycle.registry.ModelRegistry`.  "Background" is relative
to serving: the gateway keeps answering on its own threads meanwhile.

Training on a *clone* is what makes the overlap safe: the serving network's
weights are never touched, so beam searches in flight keep scoring against a
consistent version while the candidate converges off to the side.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from repro.featurization.featurizer import FeaturizedExample
from repro.lifecycle.registry import ModelRegistry
from repro.lifecycle.snapshot import ModelSnapshot
from repro.model.trainer import TrainingHistory, ValueNetworkTrainer
from repro.model.value_network import ValueNetwork


@dataclass
class FineTuneReport:
    """What one fine-tune produced.

    Attributes:
        snapshot: The candidate snapshot registered in the model registry.
        history: The training-loss history of the fine-tune.
        train_seconds: Wall-clock time spent training (off the serving path).
        examples: Number of training examples consumed.
    """

    snapshot: ModelSnapshot
    history: TrainingHistory
    train_seconds: float
    examples: int


class BackgroundTrainer:
    """Fine-tunes clones of the serving network into candidate snapshots.

    Args:
        registry: Registry that receives the candidate snapshots.
        learning_rate: Adam step size for fine-tunes.
        max_epochs: Default epoch budget per fine-tune.
        validation_fraction: Held-out fraction for early stopping.
        patience: Early-stopping patience in epochs.

    Fine-tunes use the trainer's default minibatch size and shuffle seed.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        learning_rate: float = 1e-3,
        max_epochs: int = 5,
        validation_fraction: float = 0.1,
        patience: int = 2,
    ):
        self.registry = registry
        self.learning_rate = learning_rate
        self.max_epochs = max_epochs
        self.validation_fraction = validation_fraction
        self.patience = patience

    def train(
        self,
        base: ValueNetwork,
        examples: Sequence[FeaturizedExample],
        labels: Sequence[float],
        *,
        parent_version: int | None = None,
        refit_label_transform: bool = False,
        max_epochs: int | None = None,
        source: str = "fine-tune",
        tag: str = "",
    ) -> FineTuneReport:
        """Fine-tune a clone of ``base`` and register it as a candidate.

        ``base`` is cloned first, so it may keep serving (and even be
        retrained afterwards) without racing this fine-tune.

        Args:
            base: Network whose weights seed the candidate.
            examples: Featurised training examples.
            labels: Raw-unit targets, one per example.
            parent_version: Registry version of ``base`` (recorded as the
                candidate's lineage when given).
            refit_label_transform: Refit the label normalisation on these
                labels (keep False for incremental fine-tunes).
            max_epochs: Optional override of the configured epoch budget.
            source: Provenance string recorded on the snapshot.
            tag: Optional label recorded on the snapshot.

        Returns:
            The :class:`FineTuneReport`; its snapshot is already registered.
        """
        candidate = base.clone()
        started = time.perf_counter()
        trainer = ValueNetworkTrainer(
            candidate,
            learning_rate=self.learning_rate,
            max_epochs=max_epochs if max_epochs is not None else self.max_epochs,
            validation_fraction=self.validation_fraction,
            patience=self.patience,
        )
        history = trainer.fit(
            list(examples),
            list(labels),
            refit_label_transform=refit_label_transform,
            max_epochs=max_epochs,
        )
        snapshot = self.registry.register(
            candidate, source=source, parent_version=parent_version, tag=tag
        )
        return FineTuneReport(
            snapshot=snapshot,
            history=history,
            train_seconds=time.perf_counter() - started,
            examples=len(examples),
        )
