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

Both kernels work time-major: their buffers are (T, B, .), so each step
reads and writes contiguous (B, .) rows, and the (B, T, .) arrays they
return are transposed views of those buffers.  The forward pass evaluates
all four gates with one ``np.tanh`` per step through
sigmoid(z) = 0.5 * tanh(0.5 * z) + 0.5: the i, f and o rows of W, U and b
are halved once per call (exact in floating point), so a step is the
recurrent product, one tanh over 4H columns, and one multiply and one add
that turn the i, f and o columns into sigmoids and leave g as it is.

Both kernels compute in the dtype of ``x``: every buffer they allocate,
and so every array they return, has ``x.dtype``.  Stage 1 calls them in
float32 and stage 2 in float64; a float64 call is the float64 arithmetic
it has always been.

``lstm_forward``/``lstm_backward`` run one (T, D) sequence as a batch of
one.
"""
from __future__ import annotations

import numpy as np


def _time_major(a):
    """The (T, B, .) C-ordered array behind a (B, T, .) array; no copy when
    ``a`` is a view returned by ``lstm_forward_batch``."""
    return np.ascontiguousarray(a.transpose(1, 0, 2))


def lstm_forward_batch(x, W, U, b):
    """Run an LSTM over a left-aligned batch x (B, T, D).

    Returns (h, c, gates) shaped (B, T, H), (B, T, H), (B, T, 4H): hidden
    and cell states, and post-activation gate values in (i, f, g, o) order,
    cached for the backward pass; all three are views of time-major
    buffers.  The input projection of all steps is one matrix product.
    """
    B, T, D = x.shape
    H = U.shape[1]
    dt = x.dtype
    # per gate column: 0.5 * tanh(0.5 * z) + 0.5 on i, f and o, tanh(z) on g
    scale = np.full(4 * H, 0.5, dtype=dt)
    scale[2 * H : 3 * H] = 1.0
    shift = 1.0 - scale
    Us_T = (U * scale[:, None]).T
    gates = np.empty((T, B, 4 * H), dtype=dt)
    np.matmul(_time_major(x).reshape(T * B, D), (W * scale[:, None]).T,
              out=gates.reshape(T * B, 4 * H))
    gates += b * scale
    # step t reads state t and writes state t + 1; state 0 is zero
    h = np.zeros((T + 1, B, H), dtype=dt)
    c = np.zeros((T + 1, B, H), dtype=dt)
    rec = np.empty((B, 4 * H), dtype=dt)
    tmp = np.empty((B, H), dtype=dt)
    for t in range(T):
        g = gates[t]
        np.matmul(h[t], Us_T, out=rec)
        g += rec
        np.tanh(g, out=g)
        g *= scale
        g += shift
        np.multiply(g[:, H : 2 * H], c[t], out=c[t + 1])
        np.multiply(g[:, :H], g[:, 2 * H : 3 * H], out=tmp)
        c[t + 1] += tmp
        np.tanh(c[t + 1], out=tmp)
        np.multiply(g[:, 3 * H :], tmp, out=h[t + 1])
    return (h[1:].transpose(1, 0, 2), c[1:].transpose(1, 0, 2),
            gates.transpose(1, 0, 2))


def lstm_backward_batch(x, h, c, gates, W, U, dh_ext):
    """Backward pass matching ``lstm_forward_batch``.

    dh_ext: (B, T, H) gradient flowing into each hidden state from outside
    the recurrence; zero on padded steps.  Returns (dx, dW, dU, db) with the
    weight gradients summed over the batch.

    The products of gate values that do not depend on the upstream
    gradient are formed for all steps before the loop, so a step is the
    recurrent product and six elementwise calls.
    """
    B, T, D = x.shape
    H = U.shape[1]
    h, c, gates, dh_ext = (_time_major(arr) for arr in (h, c, gates, dh_ext))
    i_g = gates[..., :H]
    f_g = gates[..., H : 2 * H]
    g_g = gates[..., 2 * H : 3 * H]
    o_g = gates[..., 3 * H :]
    tc = np.tanh(c)
    a = 1.0 - tc * tc
    a *= o_g
    # derivative of each activation at its output value, times the factor
    # the upstream gradient meets on the way to that gate:
    #   dc_t = dc_next + dh_t * a_t;  dz_(i, f, g) = dc_t * p_t;  dz_o = dh_t * p_t
    p = 1.0 - gates
    p *= gates
    p_g = p[..., 2 * H : 3 * H]
    np.multiply(g_g, g_g, out=p_g)
    np.subtract(1.0, p_g, out=p_g)
    p = p.reshape(T, B, 4, H)
    p[:, :, 0] *= g_g
    p[0, :, 1] = 0.0
    p[1:, :, 1] *= c[:-1]
    p[:, :, 2] *= i_g
    p[:, :, 3] *= tc
    dz = np.zeros((T + 1, B, 4, H), dtype=x.dtype)  # dz[T] stays zero
    dh = np.empty((B, H), dtype=x.dtype)
    dc = np.zeros((B, H), dtype=x.dtype)
    for t in range(T - 1, -1, -1):
        np.matmul(dz[t + 1].reshape(B, 4 * H), U, out=dh)
        dh += dh_ext[t]
        dc += dh * a[t]
        np.multiply(p[t, :, :3], dc[:, None, :], out=dz[t, :, :3])
        np.multiply(p[t, :, 3], dh, out=dz[t, :, 3])
        dc *= f_g[t]
    dz = dz[:T].reshape(T * B, 4 * H)
    dx = (dz @ W).reshape(T, B, D)
    dW = dz.T @ _time_major(x).reshape(T * B, D)
    dU = dz[B:].T @ h[:-1].reshape((T - 1) * B, H)
    db = dz.sum(axis=0)
    return dx.transpose(1, 0, 2), dW, dU, db


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
