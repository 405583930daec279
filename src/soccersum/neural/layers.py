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
