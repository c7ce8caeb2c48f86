"""Early stopping on a validation metric (paper §7)."""

from __future__ import annotations

#: The smallest decrease in loss that counts as an improvement.
MIN_DELTA = 1e-4


class EarlyStopping:
    """Stop training when the validation loss stops improving.

    Args:
        patience: Number of epochs without improvement tolerated before
            stopping.
    """

    def __init__(self, patience: int = 5):
        self.patience = patience
        self.best_loss = float("inf")
        self.best_epoch = -1
        self.epochs_without_improvement = 0

    def update(self, loss: float, epoch: int) -> bool:
        """Record a validation loss; return ``True`` when training should stop."""
        if loss < self.best_loss - MIN_DELTA:
            self.best_loss = loss
            self.best_epoch = epoch
            self.epochs_without_improvement = 0
            return False
        self.epochs_without_improvement += 1
        return self.epochs_without_improvement >= self.patience

    @property
    def should_stop(self) -> bool:
        """Whether the patience budget is exhausted."""
        return self.epochs_without_improvement >= self.patience
