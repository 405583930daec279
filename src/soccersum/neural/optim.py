"""Adam over named parameter dicts, and the training loop both stages share."""
from __future__ import annotations

import numpy as np

from ..core import TrainingError


class Adam:
    """Bias-corrected Adam.

    Update: m <- b1*m + (1-b1)*g ; v <- b2*v + (1-b2)*g^2 ;
    p <- p - lr * (m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps).
    """

    def __init__(self, params: dict, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict, grads: dict) -> None:
        """Apply one update in place.  Parameters without a gradient entry
        are left untouched; non-finite gradients abort training."""
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for name, g in grads.items():
            if name not in params:
                raise TrainingError("gradient for unknown parameter %r" % name)
            if not np.all(np.isfinite(g)):
                raise TrainingError("non-finite gradient in parameter %r" % name)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            params[name] -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


def fit(params: dict, items: list, loss_grads, validate, config, shuffle_rng):
    """Minibatch Adam over ``items`` with validation-picked early stopping.

    Each epoch visits the items in a fresh ``shuffle_rng`` order, in chunks
    of ``config.batch``.  ``loss_grads(params, chunk)`` returns (summed
    loss, outputs, summed gradients); the gradients are divided by the
    chunk size before the Adam step.  After each epoch the history gains
    the row {"epoch", "loss" (mean per item), **validate(params)}.  The
    parameters of the first epoch with a strictly better ``val_f`` are
    kept; training stops after ``config.patience`` epochs without one, or
    as soon as the best ``val_f`` reaches 1.0: ``val_f`` is an F-score,
    which cannot exceed 1, so no later epoch could be strictly better.

    ``params`` is updated in place.  Returns (a copy of the best epoch's
    parameters, or of the initial ones without a scored epoch; the
    history; the best epoch, -1 without one).
    """
    opt = Adam(params, lr=config.lr)
    best_params = {k: v.copy() for k, v in params.items()}
    best_f, best_epoch, stale = -1.0, -1, 0
    history = []
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(items))
        total_loss = 0.0
        for start in range(0, len(order), config.batch):
            chunk = [items[i] for i in order[start : start + config.batch]]
            loss, _, grads = loss_grads(params, chunk)
            total_loss += loss
            for g in grads.values():
                g /= len(chunk)
            opt.step(params, grads)
        row = {"epoch": epoch, "loss": total_loss / len(items), **validate(params)}
        history.append(row)
        if row["val_f"] > best_f:
            best_params = {k: v.copy() for k, v in params.items()}
            best_f, best_epoch, stale = row["val_f"], epoch, 0
            if best_f >= 1.0:
                break
        else:
            stale += 1
            if stale >= config.patience:
                break
    return best_params, history, best_epoch
