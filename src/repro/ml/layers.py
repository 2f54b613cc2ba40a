"""Feed-forward layers with explicit forward/backward passes.

Every layer implements:

* ``forward(x, training)`` — returns the layer output and caches whatever is
  needed for the backward pass;
* ``backward(grad_output)`` — returns the gradient with respect to the layer
  input and stores parameter gradients in ``grads`` (aligned with
  ``params``);
* ``params`` / ``grads`` — lists of parameter arrays and their gradients,
  consumed by the optimizers and by the distributed trainer's all-reduce.

Shapes follow the Keras convention: ``(batch, features)`` for dense layers
and ``(batch, time, features)`` for recurrent inputs.
"""

from __future__ import annotations

import numpy as np

from repro.utils.random import default_rng


class Layer:
    """Base class for all layers."""

    def __init__(self) -> None:
        self.params: list[np.ndarray] = []
        self.grads: list[np.ndarray] = []

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def n_parameters(self) -> int:
        return int(sum(p.size for p in self.params))

    def get_weights(self) -> list[np.ndarray]:
        return [p.copy() for p in self.params]

    def set_weights(self, weights: list[np.ndarray]) -> None:
        if len(weights) != len(self.params):
            raise ValueError(
                f"{type(self).__name__} expects {len(self.params)} weight arrays, got {len(weights)}"
            )
        for p, w in zip(self.params, weights):
            w = np.asarray(w, dtype=float)
            if p.shape != w.shape:
                raise ValueError(f"weight shape mismatch: expected {p.shape}, got {w.shape}")
            p[...] = w


class Dense(Layer):
    """Fully connected layer ``y = x W + b``.

    Weights use Glorot-uniform initialisation, the Keras default, so layer
    scales match the paper's setup.
    """

    def __init__(
        self,
        n_inputs: int,
        n_units: int,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        if n_inputs <= 0 or n_units <= 0:
            raise ValueError("n_inputs and n_units must be positive")
        rng = default_rng(rng)
        limit = np.sqrt(6.0 / (n_inputs + n_units))
        self.W = rng.uniform(-limit, limit, size=(n_inputs, n_units))
        self.b = np.zeros(n_units)
        self.params = [self.W, self.b]
        self.grads = [np.zeros_like(self.W), np.zeros_like(self.b)]
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.W.shape[0]:
            raise ValueError(
                f"Dense expected input of shape (batch, {self.W.shape[0]}), got {x.shape}"
            )
        self._x = x
        return x @ self.W + self.b

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=float)
        self.grads[0][...] = self._x.T @ grad_output
        self.grads[1][...] = grad_output.sum(axis=0)
        return grad_output @ self.W.T


class ELU(Layer):
    """Exponential Linear Unit activation (the paper's hidden activation)."""

    def __init__(self, alpha: float = 1.0) -> None:
        super().__init__()
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = alpha
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        self._x = x
        return np.where(x > 0, x, self.alpha * (np.exp(np.minimum(x, 0.0)) - 1.0))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        x = self._x
        deriv = np.where(x > 0, 1.0, self.alpha * np.exp(np.minimum(x, 0.0)))
        return grad_output * deriv


class ReLU(Layer):
    """Rectified Linear Unit activation (used by the MLP baseline)."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._mask


class Softmax(Layer):
    """Softmax over the last axis.

    Usually combined with a loss whose gradient already folds in the softmax
    Jacobian (both losses in :mod:`repro.ml.losses` do), in which case the
    backward pass just forwards the incoming gradient; the full Jacobian
    product is available for stand-alone use.
    """

    def __init__(self, fused_with_loss: bool = True) -> None:
        super().__init__()
        self.fused_with_loss = fused_with_loss
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        shifted = x - x.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        self._out = exp / exp.sum(axis=-1, keepdims=True)
        return self._out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        if self.fused_with_loss:
            return grad_output
        s = self._out
        dot = np.sum(grad_output * s, axis=-1, keepdims=True)
        return s * (grad_output - dot)


class Dropout(Layer):
    """Inverted dropout: active during training, identity at inference."""

    def __init__(self, rate: float, rng: np.random.Generator | int | None = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self._rng = default_rng(rng)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask


class Flatten(Layer):
    """Flatten all non-batch dimensions (e.g. (batch, T, F) -> (batch, T*F))."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        return np.asarray(grad_output, dtype=float).reshape(self._shape)
