"""Small differentiable pieces shared by both network architectures."""
from __future__ import annotations

import numpy as np

BCE_CLAMP = 1e-7


def sigmoid(x):
    """Logistic function; exp only ever sees -|x|, so no input overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def bce_loss(p, y):
    """Binary cross-entropy with predictions clamped away from 0 and 1;
    elementwise over arrays."""
    p = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    return -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))


def bce_sigmoid_grad(p: float, y: float) -> float:
    """d(bce(sigmoid(z)))/dz evaluated at p = sigmoid(z).

    The clamp in bce_loss only binds for |z| > ~16, far outside normal
    operating range, so the unclamped derivative is used.
    """
    return p - y


def maxpool_time(h: np.ndarray):
    """Coordinate-wise max over the time axis; returns (pooled, argmax).

    Ties break toward the earliest step (np.argmax convention), which is
    also where the backward pass routes the gradient.
    """
    idx = np.argmax(h, axis=0)
    return h[idx, np.arange(h.shape[1])], idx


def maxpool_time_backward(dpooled: np.ndarray, idx: np.ndarray, T: int) -> np.ndarray:
    dh = np.zeros((T, dpooled.shape[0]))
    dh[idx, np.arange(dpooled.shape[0])] = dpooled
    return dh


def softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - np.max(x))
    return e / e.sum()


def softmax_backward(s: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """Gradient through y = softmax(x): dx_i = s_i (ds_i - sum_j s_j ds_j)."""
    dot = float(np.dot(s, ds))
    return s * (ds - dot)
