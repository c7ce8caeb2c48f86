"""The Adam optimizer over :class:`~repro.nn.layers.Parameter` lists.

The optimizer **owns the storage of the parameters it is given**: its
constructor copies every parameter's value into one flat value buffer and
its gradient into one flat gradient buffer, and re-points each
``Parameter.value`` and ``.grad`` at a reshaped view of its slice.  A step is
then a handful of array operations over the two buffers however many
parameters there are: ``zero_grad`` is one fill, the global norm one dot
product, the update one in-place subtraction.

The rule that comes with it: **write weights in place**
(``parameter.value[...] = new``), never rebind them.  A rebound
``parameter.value`` is a new array the optimizer does not know: the network
would compute with it while every step updated the buffer nobody reads.
Constructing a new optimizer re-homes the parameters again, so a fresh
optimizer per training run (what ``ValueNetworkTrainer.fit`` does) is always
safe.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Parameter


class Adam:
    """Adam optimizer (Kingma & Ba, 2015).

    Owns one flat value buffer and one flat gradient buffer (see the
    module docstring).

    Args:
        parameters: Parameters to update; each is re-homed into the buffers
            (its current value and gradient copied there).
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
        self.parameters = list(parameters)
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.weight_decay = weight_decay
        size = sum(parameter.size for parameter in self.parameters)
        self._values = np.empty(size, dtype=np.float64)
        self._grads = np.empty(size, dtype=np.float64)
        start = 0
        for parameter in self.parameters:
            stop = start + parameter.size
            shape = parameter.value.shape
            self._values[start:stop] = parameter.value.reshape(-1)
            self._grads[start:stop] = parameter.grad.reshape(-1)
            parameter.value = self._values[start:stop].reshape(shape)
            parameter.grad = self._grads[start:stop].reshape(shape)
            start = stop
        self._m = np.zeros_like(self._values)
        self._v = np.zeros_like(self._values)
        self._step = 0

    def zero_grad(self) -> None:
        """Clear all parameter gradients."""
        self._grads.fill(0.0)

    def clip_gradients(self, max_norm: float) -> float:
        """Clip the global gradient norm to ``max_norm``; returns the norm."""
        norm = float(np.sqrt(np.dot(self._grads, self._grads)))
        if norm > max_norm and norm > 0:
            self._grads *= max_norm / norm
        return norm

    def step(self) -> None:
        """Apply one update using the accumulated gradients."""
        self._step += 1
        bias1 = 1.0 - self.beta1**self._step
        bias2 = 1.0 - self.beta2**self._step
        grad = self._grads
        if self.weight_decay:
            grad = grad + self.weight_decay * self._values
        m, v = self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad**2
        m_hat = m / bias1
        v_hat = v / bias2
        self._values -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
