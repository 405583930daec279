"""Stage 2: scoring proposals with hierarchical multimodal attention.

Each proposal's events carry a metadata vector and an audio vector.  Two
LSTMs encode the modalities; a shared projection scores each modality per
event and a two-way softmax mixes the hidden states.  A fusion LSTM reads
the mixed sequence, an event-attention layer pools it to one vector, and a
sigmoid neuron emits the probability the proposal belongs in the summary.

Everything runs on left-aligned (B, T, D) batches of proposals
(``hma_forward_batch``/``hma_backward_batch``); ``hma_loss_grads`` and
``attention_weights`` are batches of one.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DataFormatError, ShapeError, TrainingError, stream_key
from .evaluation import Counts, overlap_match
from .neural import (
    FitConfig,
    bce_loss,
    bce_sigmoid_grad,
    dense_init,
    fit,
    lstm_backward_batch,
    lstm_forward_batch,
    lstm_init,
    read_layout,
    sigmoid,
    vector_init,
)
# Unused here: perfbench's tracer (perfbench/tracing.py) wraps these
# bindings of stage1 and stage2 by name.
from .neural import lstm_backward, lstm_forward  # noqa: F401


@dataclass
class HmaConfig:
    """The architecture a checkpoint records: keys ``stage2.<field>``."""

    hidden_modality: int
    hidden_fusion: int


def init_hma_params(meta_dim: int, audio_dim: int, config: HmaConfig,
                    rng: np.random.Generator) -> dict:
    hm = config.hidden_modality
    hf = config.hidden_fusion
    params = lstm_init(meta_dim, hm, rng, "meta")
    params.update(lstm_init(audio_dim, hm, rng, "audio"))
    params.update(vector_init(hm, rng, "att.w"))
    params.update(lstm_init(hm, hf, rng, "fuse"))
    params.update(vector_init(hf, rng, "evatt.u"))
    params.update(dense_init(hf, rng, "out"))
    return params


def _check_proposal(xm: np.ndarray, xa: np.ndarray) -> None:
    if xm.shape[0] != xa.shape[0]:
        raise ShapeError(
            "modalities disagree on length: %d metadata vs %d audio events"
            % (xm.shape[0], xa.shape[0])
        )
    if xm.shape[0] == 0:
        raise ShapeError("proposal has no events")


def pad_proposals(items):
    """Left-aligned (B, T, meta_dim) and (B, T, audio_dim) batches of the
    (xm, xa, ...) items, zero past each row's event count, and the counts."""
    for xm, xa, *_ in items:
        _check_proposal(xm, xa)
    lengths = np.array([item[0].shape[0] for item in items])
    T = int(lengths.max())
    xm_b = np.zeros((len(items), T, items[0][0].shape[1]))
    xa_b = np.zeros((len(items), T, items[0][1].shape[1]))
    for b, (xm, xa, *_) in enumerate(items):
        xm_b[b, : xm.shape[0]] = xm
        xa_b[b, : xa.shape[0]] = xa
    return xm_b, xa_b, lengths


def hma_forward_batch(params: dict, xm: np.ndarray, xa: np.ndarray, lengths: np.ndarray):
    """Probabilities (B,) for a left-aligned batch from ``pad_proposals``;
    row b holds ``lengths[b]`` real events.  Returns (p, cache).

    Padding is masked in one place: the event-attention logits of padded
    steps are -inf, so beta is exactly 0 there.  Padded steps only feed
    later (padded) steps of the LSTMs, so nothing else needs a mask.
    """
    hm, cm, gm = lstm_forward_batch(xm, params["meta.W"], params["meta.U"], params["meta.b"])
    ha, ca, ga = lstm_forward_batch(xa, params["audio.W"], params["audio.U"], params["audio.b"])
    em = np.tanh(hm @ params["att.w"])
    ea = np.tanh(ha @ params["att.w"])
    lam_m = sigmoid(em - ea)
    lam_a = 1.0 - lam_m
    c_seq = lam_m[..., None] * hm + lam_a[..., None] * ha
    hc, cc, gc = lstm_forward_batch(c_seq, params["fuse.W"], params["fuse.U"], params["fuse.b"])
    th = np.tanh(hc)
    s = th @ params["evatt.u"]
    s[np.arange(s.shape[1]) >= lengths[:, None]] = -np.inf
    e = np.exp(s - s.max(axis=1, keepdims=True))
    beta = e / e.sum(axis=1, keepdims=True)
    d = (beta[:, None, :] @ hc)[:, 0]
    p = sigmoid(d @ params["out.w"] + params["out.b"][0])
    cache = {
        "xm": xm, "xa": xa,
        "hm": hm, "cm": cm, "gm": gm,
        "ha": ha, "ca": ca, "ga": ga,
        "em": em, "ea": ea, "lam_m": lam_m, "lam_a": lam_a,
        "c_seq": c_seq, "hc": hc, "cc": cc, "gc": gc,
        "th": th, "beta": beta, "d": d, "p": p,
    }
    return p, cache


def hma_backward_batch(params: dict, cache: dict, dlogit: np.ndarray):
    """Backward pass matching ``hma_forward_batch`` for per-row logit
    gradients ``dlogit`` (B,).  Returns (grads, dxm, dxa): parameter
    gradients summed over the batch, and the gradients of the inputs.

    beta is 0 on padded steps, so the gradients reaching the fusion LSTM
    there (dhc, through ds) are exactly 0; as in ``lstm_backward_batch``
    that makes dc_seq, dem and every later gradient on padding exactly 0.
    """
    hm, ha = cache["hm"], cache["ha"]
    hc, th, beta = cache["hc"], cache["th"], cache["beta"]
    lam_m, lam_a = cache["lam_m"], cache["lam_a"]
    em, ea = cache["em"], cache["ea"]
    u, w = params["evatt.u"], params["att.w"]

    grads = {
        "out.w": dlogit @ cache["d"],
        "out.b": np.array([dlogit.sum()]),
    }
    dd = dlogit[:, None] * params["out.w"]
    dbeta = (hc @ dd[:, :, None])[..., 0]
    ds = beta * (dbeta - np.sum(beta * dbeta, axis=1, keepdims=True))
    grads["evatt.u"] = np.einsum("bth,bt->h", th, ds)
    dhc = beta[..., None] * dd[:, None, :] + ds[..., None] * (1.0 - th * th) * u

    dc_seq, grads["fuse.W"], grads["fuse.U"], grads["fuse.b"] = lstm_backward_batch(
        cache["c_seq"], hc, cache["cc"], cache["gc"], params["fuse.W"], params["fuse.U"], dhc,
    )
    dem = lam_m * lam_a * (np.sum(dc_seq * hm, axis=2) - np.sum(dc_seq * ha, axis=2))
    gm_pre = dem * (1.0 - em * em)
    ga_pre = -dem * (1.0 - ea * ea)
    grads["att.w"] = np.einsum("bth,bt->h", hm, gm_pre) + np.einsum("bth,bt->h", ha, ga_pre)
    dhm = lam_m[..., None] * dc_seq + gm_pre[..., None] * w
    dha = lam_a[..., None] * dc_seq + ga_pre[..., None] * w

    dxm, grads["meta.W"], grads["meta.U"], grads["meta.b"] = lstm_backward_batch(
        cache["xm"], hm, cache["cm"], cache["gm"], params["meta.W"], params["meta.U"], dhm,
    )
    dxa, grads["audio.W"], grads["audio.U"], grads["audio.b"] = lstm_backward_batch(
        cache["xa"], ha, cache["ca"], cache["ga"], params["audio.W"], params["audio.U"], dha,
    )
    return grads, dxm, dxa


def hma_batch_loss_grads(params: dict, items):
    """Summed loss, probabilities (B,) and summed parameter gradients of a
    minibatch of (xm, xa, label) items, in one forward and one backward
    call."""
    y = np.array([float(item[2]) for item in items])
    p, cache = hma_forward_batch(params, *pad_proposals(items))
    grads, _, _ = hma_backward_batch(params, cache, bce_sigmoid_grad(p, y))
    return float(np.sum(bce_loss(p, y))), p, grads


def hma_loss_grads(params: dict, xm: np.ndarray, xa: np.ndarray, y: float):
    """(loss, probability, parameter gradients) of one proposal with label
    ``y``: ``hma_batch_loss_grads`` on a minibatch of one."""
    loss, p, grads = hma_batch_loss_grads(params, [(xm, xa, y)])
    return loss, float(p[0]), grads


def attention_weights(params: dict, xm: np.ndarray, xa: np.ndarray):
    """(lambda_meta, lambda_audio, beta) diagnostics for one proposal, each
    of shape (L,)."""
    _, cache = hma_forward_batch(params, *pad_proposals([(xm, xa)]))
    return cache["lam_m"][0], cache["lam_a"][0], cache["beta"][0]


def _probabilities(params: dict, items) -> np.ndarray:
    """Probabilities of the (xm, xa, ...) items, in one forward call."""
    if not items:
        return np.empty(0)
    return hma_forward_batch(params, *pad_proposals(items))[0]


# a training audio column whose standard deviation is below this floor is
# constant: it gets 1, so it collapses to zero instead of amplifying noise
SD_FLOOR = 1e-8
# a proposal of theta >= this is selected (stage 2's epoch F, selection table)
SELECT_THRESHOLD = 0.5


def label_proposal(span: tuple[int, int], gt_intervals, ratio: float) -> int:
    """1 when at least ``ratio`` of the span lies inside one of the ground-truth
    spans ``gt_intervals`` (in start order), as ``overlap_match`` matches it."""
    return overlap_match([span], gt_intervals, ratio)[0]


@dataclass
class HmaModel:
    params: dict
    config: HmaConfig
    audio_mu: np.ndarray  # z-score statistics of the training audio features
    audio_sd: np.ndarray
    history: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_f: float = 0.0
    stop: str = ""  # why training stopped (neural.optim.STOP_REASONS); "" if loaded

    def normalize_audio(self, xa: np.ndarray) -> np.ndarray:
        return (xa - self.audio_mu) / self.audio_sd

    def to_checkpoint(self) -> dict:
        out = dict(self.params)
        out["_norm.audio_mu"] = np.asarray(self.audio_mu, dtype=float)
        out["_norm.audio_sd"] = np.asarray(self.audio_sd, dtype=float)
        return out

    @classmethod
    def from_checkpoint(cls, ckpt: dict) -> "HmaModel":
        """The model a checkpoint holds.  The sizes are read from the
        arrays (``read_layout``); the normalizer has one entry per audio
        column, and no standard deviation below the floor training
        applies."""
        _meta_dim, _audio_dim, hm, hf = read_layout(
            ckpt, ("meta.W", "audio.W", "meta.U", "fuse.U"), _checkpoint_layout, "stage-2")
        audio_sd = ckpt["_norm.audio_sd"]
        if not np.all(audio_sd >= SD_FLOOR):
            raise DataFormatError("record '_norm.audio_sd' holds %r, below the floor %g"
                                  % (float(audio_sd.min()), SD_FLOOR))
        return cls(params={k: v for k, v in ckpt.items() if not k.startswith("_")},
                   config=HmaConfig(hidden_modality=hm, hidden_fusion=hf),
                   audio_mu=ckpt["_norm.audio_mu"], audio_sd=audio_sd)


def _checkpoint_layout(meta_dim: int, audio_dim: int, hidden_modality: int,
                       hidden_fusion: int) -> dict:
    """The shape of each array and record of a stage-2 checkpoint."""
    config = HmaConfig(hidden_modality=hidden_modality, hidden_fusion=hidden_fusion)
    params = init_hma_params(meta_dim, audio_dim, config, np.random.default_rng(0))
    return dict({name: value.shape for name, value in params.items()},
                **dict.fromkeys(["_norm.audio_mu", "_norm.audio_sd"], (audio_dim,)))


def _classification_f(params: dict, items) -> float:
    pred = _probabilities(params, items) >= SELECT_THRESHOLD
    y = np.array([bool(item[2]) for item in items], dtype=bool)
    counts = Counts(int(np.sum(pred & y)), int(np.sum(pred & ~y)), int(np.sum(~pred & y)))
    return counts.metrics(beta=1.0)["f"]


def train_hma(train_items, val_items, config: HmaConfig, fit_config: FitConfig,
              seed: int) -> HmaModel:
    """Train the proposal scorer with ``neural.fit``.  Items are (xm, xa,
    label) triples with raw audio features; a z-score normalization is
    fitted on the training items here and travels with the model.

    Epoch selection: F1 of the classification at ``SELECT_THRESHOLD`` on
    the validation items.
    """
    labels = {int(y) for _, _, y in train_items}
    if labels != {0, 1}:
        raise TrainingError("stage-2 training needs both classes, got %s" % sorted(labels))
    meta_dim = train_items[0][0].shape[1]
    audio_dim = train_items[0][1].shape[1]

    stacked = np.concatenate([xa for _, xa, _ in train_items], axis=0)
    audio_sd = stacked.std(axis=0)
    rng = np.random.default_rng(stream_key(seed, "stage2.init"))
    model = HmaModel(params=init_hma_params(meta_dim, audio_dim, config, rng), config=config,
                     audio_mu=stacked.mean(axis=0),
                     audio_sd=np.where(audio_sd < SD_FLOOR, 1.0, audio_sd))
    train_items = [(xm, model.normalize_audio(xa), y) for xm, xa, y in train_items]
    val_items = [(xm, model.normalize_audio(xa), y) for xm, xa, y in val_items]
    shuffle_rng = np.random.default_rng(stream_key(seed, "stage2.shuffle"))

    def validate(params):
        return {"val_f": _classification_f(params, val_items)}

    model.params, model.history, model.best_epoch, model.stop = fit(
        model.params, train_items, hma_batch_loss_grads, validate, fit_config, shuffle_rng)
    model.best_val_f = model.history[model.best_epoch]["val_f"] if model.best_epoch >= 0 else -1.0
    return model


def score_proposals(model: HmaModel, items) -> np.ndarray:
    """Summary-membership probability per raw (xm, xa) pair, all pairs in
    one forward call."""
    return _probabilities(model.params, [(xm, model.normalize_audio(xa)) for xm, xa in items])
