"""Gradient-descent optimizers over :class:`~repro.nn.layers.Parameter` lists."""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Parameter


class Optimizer:
    """Base optimizer holding a list of parameters."""

    def __init__(self, parameters: list[Parameter], learning_rate: float):
        self.parameters = list(parameters)
        self.learning_rate = learning_rate

    def zero_grad(self) -> None:
        """Clear all parameter gradients."""
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        """Apply one update using the accumulated gradients."""
        raise NotImplementedError

    def clip_gradients(self, max_norm: float) -> float:
        """Clip the global gradient norm to ``max_norm``; returns the norm."""
        total = 0.0
        for parameter in self.parameters:
            total += float(np.sum(parameter.grad**2))
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for parameter in self.parameters:
                parameter.grad *= scale
        return norm


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum.

    Args:
        parameters: Parameters to update.
        learning_rate: Step size.
        momentum: Classical momentum coefficient (0 disables it).
        weight_decay: L2 regularisation coefficient.
    """

    def __init__(
        self,
        parameters: list[Parameter],
        learning_rate: float = 1e-3,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, learning_rate)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.value) for p in self.parameters]

    def step(self) -> None:
        for parameter, velocity in zip(self.parameters, self._velocity):
            grad = parameter.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.value
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                update = velocity
            else:
                update = grad
            parameter.value -= self.learning_rate * update


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015).

    Args:
        parameters: Parameters to update.
        learning_rate: Step size.
        beta1: First-moment decay.
        beta2: Second-moment decay.
        epsilon: Numerical stabiliser.
        weight_decay: L2 regularisation coefficient.
    """

    def __init__(
        self,
        parameters: list[Parameter],
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, learning_rate)
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.weight_decay = weight_decay
        # One flat vector for all parameters: a step is a dozen array
        # operations, not a dozen per parameter.
        self._bounds = np.cumsum([0] + [p.size for p in self.parameters])
        self._m = np.zeros(self._bounds[-1])
        self._v = np.zeros(self._bounds[-1])
        self._step = 0

    def step(self) -> None:
        self._step += 1
        bias1 = 1.0 - self.beta1**self._step
        bias2 = 1.0 - self.beta2**self._step
        grad = np.concatenate([p.grad.reshape(-1) for p in self.parameters])
        if self.weight_decay:
            grad += self.weight_decay * np.concatenate(
                [p.value.reshape(-1) for p in self.parameters]
            )
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
