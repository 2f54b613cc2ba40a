"""LSTM layer with full backpropagation through time.

The forward pass follows the standard Hochreiter & Schmidhuber formulation
with forget, input and output gates and a tanh cell candidate:

.. math::

    f_t &= \\sigma(x_t W_f + h_{t-1} U_f + b_f) \\\\
    i_t &= \\sigma(x_t W_i + h_{t-1} U_i + b_i) \\\\
    g_t &= \\tanh(x_t W_g + h_{t-1} U_g + b_g) \\\\
    o_t &= \\sigma(x_t W_o + h_{t-1} U_o + b_o) \\\\
    c_t &= f_t \\odot c_{t-1} + i_t \\odot g_t \\\\
    h_t &= o_t \\odot \\phi(c_t)

where :math:`\\phi` is the output activation — the paper configures the LSTM
with an ELU activation, so :math:`\\phi` defaults to ELU here (tanh is also
supported).  The layer returns the final hidden state
(``return_sequences=False``), which is what feeds the dense head in the
paper's architecture.

The weights are stored fused across gates (one ``(n_in, 4*n_units)`` input
kernel and one ``(n_units, 4*n_units)`` recurrent kernel, gate order
f, i, g, o) so the heavy matrix products are single GEMMs per time step.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import lstm as _kernels
from repro.ml.layers import Layer
from repro.utils.random import default_rng


class LSTM(Layer):
    """Single LSTM layer over inputs of shape ``(batch, time, features)``."""

    def __init__(
        self,
        n_inputs: int,
        n_units: int,
        activation: str = "elu",
        return_sequences: bool = False,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        if n_inputs <= 0 or n_units <= 0:
            raise ValueError("n_inputs and n_units must be positive")
        if activation not in ("elu", "tanh"):
            raise ValueError("activation must be 'elu' or 'tanh'")
        self.n_inputs = n_inputs
        self.n_units = n_units
        self.activation = activation
        self.return_sequences = return_sequences

        rng = default_rng(rng)
        limit_in = np.sqrt(6.0 / (n_inputs + 4 * n_units))
        limit_rec = np.sqrt(6.0 / (n_units + 4 * n_units))
        self.W = rng.uniform(-limit_in, limit_in, size=(n_inputs, 4 * n_units))
        self.U = rng.uniform(-limit_rec, limit_rec, size=(n_units, 4 * n_units))
        self.b = np.zeros(4 * n_units)
        # Forget-gate bias initialised to 1 (standard practice; helps gradient flow).
        self.b[:n_units] = 1.0

        self.params = [self.W, self.U, self.b]
        self.grads = [np.zeros_like(self.W), np.zeros_like(self.U), np.zeros_like(self.b)]
        self._cache: dict[str, np.ndarray] | None = None

    # -- forward / backward ----------------------------------------------------

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 3 or x.shape[2] != self.n_inputs:
            raise ValueError(
                f"LSTM expected input of shape (batch, time, {self.n_inputs}), got {x.shape}"
            )
        # The time recurrence runs in the kernel layer, which batches the
        # input projection (and, in backward, the weight gradients) into
        # whole-sequence GEMMs (see repro.kernels.lstm).
        hs, cs, gates = _kernels.lstm_forward(x, self.W, self.U, self.b, self.activation)

        self._cache = {"x": x, "hs": hs, "cs": cs, "gates": gates}
        if self.return_sequences:
            return hs[:, 1:, :]
        return hs[:, -1, :]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x = self._cache["x"]
        hs = self._cache["hs"]
        cs = self._cache["cs"]
        gates = self._cache["gates"]
        batch, T, _ = x.shape
        H = self.n_units

        grad_output = np.asarray(grad_output, dtype=float)
        if self.return_sequences:
            if grad_output.shape != (batch, T, H):
                raise ValueError("gradient shape mismatch for return_sequences=True")
            dh_seq = grad_output
        else:
            if grad_output.shape != (batch, H):
                raise ValueError("gradient shape mismatch")
            dh_seq = np.zeros((batch, T, H))
            dh_seq[:, -1, :] = grad_output

        dx, dW, dU, db = _kernels.lstm_backward(
            dh_seq, x, hs, cs, gates, self.W, self.U, self.activation
        )

        self.grads[0][...] = dW
        self.grads[1][...] = dU
        self.grads[2][...] = db
        return dx
