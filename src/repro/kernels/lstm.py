"""LSTM forward/backward kernels (batched GEMMs around the recurrence).

The kernels and their per-step oracles implement the standard fused-gate
LSTM (gate order f, i, g, o; see :mod:`repro.ml.lstm` for the equations)
over inputs of shape ``(batch, time, features)`` and return identical
caches:

``forward``  -> ``(hs, cs, gates)`` with ``hs``/``cs`` of shape
``(batch, T + 1, units)`` (step 0 is the zero initial state) and ``gates`` of
shape ``(batch, T, 4 * units)``.

``backward`` -> ``(dx, dW, dU, db)`` for an upstream gradient ``dh_seq`` of
shape ``(batch, T, units)``.

The recurrence itself is inherently sequential, but only the *recurrent*
product ``h @ U`` has to live inside the time loop:

* the forward pass computes the input projection ``x @ W`` for all
  timesteps in one ``(batch * T, features)`` GEMM;
* the backward pass stores the per-step gate gradients and computes
  ``dW``, ``dU``, ``db`` and ``dx`` as single whole-sequence GEMMs /
  reductions after the loop, leaving just ``dz @ U.T`` per step.

That turns the oracles' five small GEMMs per timestep
(:mod:`repro.kernels.reference`) into two, which is where most of the
Python-loop and BLAS-dispatch overhead of minibatch inference goes.
"""

from __future__ import annotations

import numpy as np

#: Supported cell output activations.
LSTM_ACTIVATIONS = ("elu", "tanh")


def sigmoid_fast(x: np.ndarray) -> np.ndarray:
    """Branch-free sigmoid, bit-identical to :func:`repro.kernels.reference.sigmoid`.

    ``exp(-|x|)`` equals ``exp(-x)`` on the positive branch and ``exp(x)`` on
    the negative branch, so both branches share one exponential; selecting
    the numerator (1 or ``exp``) before a single division yields exactly
    ``1 / (1 + e)`` or ``e / (1 + e)`` without boolean fancy indexing and
    with one division instead of two.
    """
    ez = np.exp(-np.abs(x))
    num = np.where(x >= 0, 1.0, ez)
    num /= 1.0 + ez
    return num


def elu(x: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    return np.where(x > 0, x, alpha * (np.exp(np.minimum(x, 0.0)) - 1.0))


def cell_activation(c: np.ndarray, activation: str) -> np.ndarray:
    if activation == "elu":
        return elu(c)
    return np.tanh(c)


def _check_activation(activation: str) -> None:
    if activation not in LSTM_ACTIVATIONS:
        raise ValueError(f"activation must be one of {LSTM_ACTIVATIONS}")


def lstm_forward(
    x: np.ndarray, W: np.ndarray, U: np.ndarray, b: np.ndarray, activation: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward pass with the input projection batched over every timestep."""
    _check_activation(activation)
    batch, T, n_in = x.shape
    H = U.shape[0]
    hs = np.zeros((batch, T + 1, H))
    cs = np.zeros((batch, T + 1, H))
    gates = np.empty((batch, T, 4 * H))
    # One GEMM for x_t @ W across all timesteps, into a preallocated buffer
    # (the allocation, not the GEMM, dominates the per-step variant).
    zx = np.empty((batch * T, 4 * H))
    np.dot(x.reshape(batch * T, n_in), W, out=zx)
    zx = zx.reshape(batch, T, 4 * H)
    h = np.zeros((batch, H))
    c = np.zeros((batch, H))
    z = np.empty((batch, 4 * H))
    for t in range(T):
        # z = x_t @ W + h @ U + b, accumulated in place (addition order is
        # commutative bit-for-bit, so this matches the oracle exactly).
        np.dot(h, U, out=z)
        z += zx[:, t, :]
        z += b
        gate_t = gates[:, t, :]
        # f and i are adjacent in the fused layout: one sigmoid for both.
        gate_t[:, : 2 * H] = sigmoid_fast(z[:, : 2 * H])
        np.tanh(z[:, 2 * H:3 * H], out=gate_t[:, 2 * H:3 * H])
        gate_t[:, 3 * H:] = sigmoid_fast(z[:, 3 * H:])
        c = c * gate_t[:, :H]
        c += gate_t[:, H:2 * H] * gate_t[:, 2 * H:3 * H]
        h = gate_t[:, 3 * H:] * cell_activation(c, activation)
        hs[:, t + 1, :] = h
        cs[:, t + 1, :] = c
    return hs, cs, gates


def lstm_backward(
    dh_seq: np.ndarray,
    x: np.ndarray,
    hs: np.ndarray,
    cs: np.ndarray,
    gates: np.ndarray,
    W: np.ndarray,
    U: np.ndarray,
    activation: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Backward pass with per-step gate gradients stored and reduced in bulk."""
    _check_activation(activation)
    batch, T, n_in = x.shape
    H = U.shape[0]
    # Time-major gate-gradient storage: every per-step slice is contiguous,
    # and the whole buffer still feeds the fused GEMMs below as one view.
    dz_all = np.empty((T, batch, 4 * H))
    dh_next = np.zeros((batch, H))
    dc_next = np.zeros((batch, H))
    for t in range(T - 1, -1, -1):
        f = gates[:, t, :H]
        i = gates[:, t, H:2 * H]
        g = gates[:, t, 2 * H:3 * H]
        o = gates[:, t, 3 * H:]
        c = cs[:, t + 1, :]

        dh = dh_seq[:, t, :] + dh_next
        if activation == "elu":
            # Share exp(min(c, 0)) between the ELU value and its derivative.
            em = np.exp(np.minimum(c, 0.0))
            phi_c = np.where(c > 0, c, em - 1.0)
            grad_c = np.where(c > 0, 1.0, em)
        else:
            phi_c = np.tanh(c)
            grad_c = 1.0 - phi_c**2
        dc = dh * o
        dc *= grad_c
        dc += dc_next

        # Gate pre-activation gradients, written in place into the fused
        # buffer with the oracle's association order preserved.
        dz = dz_all[t]
        dzf = dz[:, :H]
        np.multiply(dc, cs[:, t, :], out=dzf)
        dzf *= f
        dzf *= 1.0 - f
        dzi = dz[:, H:2 * H]
        np.multiply(dc, g, out=dzi)
        dzi *= i
        dzi *= 1.0 - i
        dzg = dz[:, 2 * H:3 * H]
        np.multiply(dc, i, out=dzg)
        dzg *= 1.0 - g**2
        dzo = dz[:, 3 * H:]
        np.multiply(dh, phi_c, out=dzo)
        dzo *= o
        dzo *= 1.0 - o

        np.dot(dz, U.T, out=dh_next)
        dc_next = dc * f
    # Whole-sequence reductions: one GEMM each for dW, dU and dx, over the
    # time-major views, into preallocated outputs.
    dz_flat = dz_all.reshape(T * batch, 4 * H)
    x_tm = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(T * batch, n_in)
    h_tm = np.ascontiguousarray(hs[:, :T, :].transpose(1, 0, 2)).reshape(T * batch, H)
    dW = np.empty_like(W)
    np.dot(x_tm.T, dz_flat, out=dW)
    dU = np.empty_like(U)
    np.dot(h_tm.T, dz_flat, out=dU)
    db = dz_flat.sum(axis=0)
    dx_flat = np.empty((T * batch, n_in))
    np.dot(dz_flat, W.T, out=dx_flat)
    dx = np.ascontiguousarray(dx_flat.reshape(T, batch, n_in).transpose(1, 0, 2))
    return dx, dW, dU, db
