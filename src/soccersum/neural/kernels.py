"""LSTM recurrence kernels.

Gate order in the stacked weight matrices is (input, forget, candidate,
output).  W has shape (4H, D), U has shape (4H, H), b has shape (4H,).
Initial hidden and cell states are zero.

``lstm_forward_batch``/``lstm_backward_batch`` run B sequences at once over
a left-aligned (B, T, D) batch: a row shorter than T is padded at the end.
Step t only depends on steps before it, so padding never changes the states
of a row's real steps, and when the upstream gradient is zero on the padded
steps they contribute exactly zero to every gradient.  Callers therefore
only mask padding where they reduce over time.

``lstm_forward``/``lstm_backward`` run one (T, D) sequence as a batch of
one.
"""
from __future__ import annotations

import numpy as np

from .layers import sigmoid


def lstm_forward_batch(x, W, U, b):
    """Run an LSTM over a left-aligned batch x (B, T, D).

    Returns (h, c, gates) shaped (B, T, H), (B, T, H), (B, T, 4H): hidden
    and cell states, and post-activation gate values in (i, f, g, o) order,
    cached for the backward pass.  The input projection of all steps is one
    matrix product.
    """
    B, T, _ = x.shape
    H = U.shape[1]
    z_in = x @ W.T + b
    h = np.empty((B, T, H))
    c = np.empty((B, T, H))
    gates = np.empty((B, T, 4 * H))
    h_prev = np.zeros((B, H))
    c_prev = np.zeros((B, H))
    for t in range(T):
        z = z_in[:, t] + h_prev @ U.T
        g = gates[:, t]
        g[:] = sigmoid(z)
        g[:, 2 * H : 3 * H] = np.tanh(z[:, 2 * H : 3 * H])
        c_prev = g[:, H : 2 * H] * c_prev + g[:, :H] * g[:, 2 * H : 3 * H]
        h_prev = g[:, 3 * H :] * np.tanh(c_prev)
        c[:, t] = c_prev
        h[:, t] = h_prev
    return h, c, gates


def lstm_backward_batch(x, h, c, gates, W, U, dh_ext):
    """Backward pass matching ``lstm_forward_batch``.

    dh_ext: (B, T, H) gradient flowing into each hidden state from outside
    the recurrence; zero on padded steps.  Returns (dx, dW, dU, db) with the
    weight gradients summed over the batch.
    """
    B, T, D = x.shape
    H = U.shape[1]
    i_g = gates[..., :H]
    f_g = gates[..., H : 2 * H]
    g_g = gates[..., 2 * H : 3 * H]
    o_g = gates[..., 3 * H :]
    tc = np.tanh(c)
    # derivative of each activation at its output value
    dact = gates * (1.0 - gates)
    dact[..., 2 * H : 3 * H] = 1.0 - g_g * g_g
    dz = np.empty((B, T, 4 * H))
    dh_next = np.zeros((B, H))
    dc_next = np.zeros((B, H))
    zeros = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        c_prev = c[:, t - 1] if t > 0 else zeros
        dh = dh_ext[:, t] + dh_next
        dc = dc_next + dh * o_g[:, t] * (1.0 - tc[:, t] * tc[:, t])
        d = dz[:, t]
        d[:, :H] = dc * g_g[:, t]
        d[:, H : 2 * H] = dc * c_prev
        d[:, 2 * H : 3 * H] = dc * i_g[:, t]
        d[:, 3 * H :] = dh * tc[:, t]
        d *= dact[:, t]
        dh_next = d @ U
        dc_next = dc * f_g[:, t]
    dz2 = dz.reshape(B * T, 4 * H)
    dW = dz2.T @ x.reshape(B * T, D)
    dU = dz[:, 1:].reshape(B * (T - 1), 4 * H).T @ h[:, :-1].reshape(B * (T - 1), H)
    db = dz2.sum(axis=0)
    dx = dz @ W
    return dx, dW, dU, db


def lstm_forward(x, W, U, b):
    """``lstm_forward_batch`` for one (T, D) sequence; returns (h, c, gates)
    shaped (T, H), (T, H), (T, 4H)."""
    h, c, gates = lstm_forward_batch(x[None], W, U, b)
    return h[0], c[0], gates[0]


def lstm_backward(x, h, c, gates, W, U, dh_ext):
    """``lstm_backward_batch`` for one (T, D) sequence; dh_ext is (T, H).
    Returns (dx, dW, dU, db)."""
    dx, dW, dU, db = lstm_backward_batch(x[None], h[None], c[None], gates[None], W, U,
                                         dh_ext[None])
    return dx[0], dW, dU, db


# lstm_forward_numpy names the same function: the benchmark's environment
# record reports whether lstm_forward is the numpy kernel.
lstm_forward_numpy = lstm_forward
