"""Dense layers with explicit forward/backward passes.

Each layer caches whatever its backward pass needs during ``forward``
(``release`` drops it) and returns input gradients from ``backward``.
Parameters are :class:`Parameter` objects (value + accumulated gradient)
consumed by the optimizers in :mod:`repro.nn.optim`, which take over their
storage: write a parameter's value in place, never rebind it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.rng import new_rng


@dataclass
class Parameter:
    """A trainable tensor and its gradient accumulator.

    Attributes:
        name: Human-readable identifier (used in checkpoints).
        value: The parameter values.
        grad: Accumulated gradient of the current backward pass.
    """

    name: str
    value: np.ndarray
    grad: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        """Reset the gradient accumulator."""
        self.grad.fill(0.0)

    @property
    def size(self) -> int:
        """Number of scalar parameters."""
        return int(self.value.size)


class Layer:
    """Base class for layers."""

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output, caching what backward needs."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Propagate gradients; accumulates parameter grads, returns input grads."""
        raise NotImplementedError

    def release(self) -> None:
        """Drop what ``forward`` kept for ``backward``."""


class Linear(Layer):
    """A fully connected layer ``y = x @ W^T + b``.

    Args:
        in_features: Input dimensionality.
        out_features: Output dimensionality.
        rng: Seed or generator for He-uniform initialisation.
        name: Prefix for parameter names.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: int | np.random.Generator | None = 0,
        name: str = "linear",
    ):
        generator = new_rng(rng)
        bound = np.sqrt(6.0 / in_features)
        weight = generator.uniform(-bound, bound, size=(out_features, in_features))
        self.weight = Parameter(f"{name}.weight", weight.astype(np.float64))
        self.bias = Parameter(f"{name}.bias", np.zeros(out_features, dtype=np.float64))
        self._input: np.ndarray | None = None

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        self._input = inputs
        return inputs @ self.weight.value.T + self.bias.value

    def backward(self, grad_output: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Accumulate the weight and bias gradients.

        Returns the gradient w.r.t. the inputs, or ``None`` when
        ``input_grad`` is false (the inputs are constants nothing reads a
        gradient of).
        """
        if self._input is None:
            raise RuntimeError("backward called before forward")
        flat_in = self._input.reshape(-1, self._input.shape[-1])
        flat_grad = grad_output.reshape(-1, grad_output.shape[-1])
        self.weight.grad += flat_grad.T @ flat_in
        self.bias.grad += flat_grad.sum(axis=0)
        return grad_output @ self.weight.value if input_grad else None

    def release(self) -> None:
        self._input = None


class ReLU(Layer):
    """Rectified linear unit."""

    def __init__(self):
        self._mask: np.ndarray | None = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        self._mask = inputs > 0
        return np.maximum(inputs, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._mask

    def release(self) -> None:
        self._mask = None
