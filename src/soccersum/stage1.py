"""Stage 1: action-proposal generation.

A vocabulary of event-type sequences is harvested from training summaries;
every exact occurrence of a vocabulary sequence labels its events positive.
A sequential model (LSTM, coordinate-wise max over time, single sigmoid
neuron) is trained on positive/negative bags of consecutive events, slid
over each match in fixed windows, and per-event scores are fused across
covering windows with a log-sum-exp.  Runs of events above a tuned
threshold become action proposals.

The model computes in the dtype of its parameters: features are cast to
``params["lstm.W"].dtype`` on the way in.  ``train_mil`` trains float32
parameters and ``MilModel.from_checkpoint`` loads them as float32, so
validation, test-time scoring and a reloaded checkpoint run the same
float32 arithmetic; float64 parameters run the float64 path.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DataFormatError, Match, ShapeError, TrainingError
from .evaluation import fbeta, overlap_match, precision_recall
from .neural import (
    bce_loss,
    bce_sigmoid_grad,
    dense_init,
    fit,
    lstm_backward_batch,
    lstm_forward_batch,
    lstm_init,
    sigmoid,
)
# Unused here: perfbench's tracer (perfbench/tracing.py) wraps these
# bindings of stage1 and stage2 by name.
from .neural import lstm_backward, lstm_forward  # noqa: F401


@dataclass
class MilConfig:
    hidden: int = 16
    window: int = 10
    stride: int = 5
    lse_r: float = 8.0
    epochs: int = 100
    patience: int = 20
    batch: int = 32
    lr: float = 1e-3
    beta: float = 2.0  # F-beta used for threshold/epoch selection


@dataclass(frozen=True)
class Bag:
    match_id: str
    start: int
    length: int
    label: int


# ---------------------------------------------------------------------------
# vocabulary and weak labels

def build_action_vocabulary(matches: dict[str, Match], summaries: dict) -> set[tuple[str, ...]]:
    """Type sequences of every ground-truth summary action in the training
    set.  Harvested from summaries only; requires at least one action."""
    vocab: set[tuple[str, ...]] = set()
    for match_id, summary in summaries.items():
        match = matches[match_id]
        for act in summary.actions:
            seq = tuple(e.type for e in match.events[act.start_index : act.end_index + 1])
            vocab.add(seq)
    if not vocab:
        raise TrainingError("action vocabulary is empty: no training summary actions")
    return vocab


def find_vocabulary_spans(types: tuple[str, ...], vocab: set[tuple[str, ...]]) -> list[tuple[int, int]]:
    """All exact occurrences of (non-empty) vocabulary sequences, as sorted
    inclusive spans.  Walks a prefix trie of the vocabulary from each
    position, so each position costs the length of its longest partial hit."""
    trie: dict = {}
    for seq in vocab:
        node = trie
        for t in seq:
            node = node.setdefault(t, {})
        node[None] = True  # a sequence ends here; event types are strings
    spans = []
    n = len(types)
    for i in range(n):
        node = trie.get(types[i])
        j = i
        while node is not None:
            if None in node:
                spans.append((i, j))
            j += 1
            if j == n:
                break
            node = node.get(types[j])
    return spans


def label_events_by_vocabulary(match: Match, vocab: set[tuple[str, ...]]):
    """Per-event positive labels (union of all matched spans) plus the spans."""
    spans = find_vocabulary_spans(match.type_sequence(), vocab)
    return intervals_to_labels(len(match.events), spans), spans


def sample_training_bags(matches: dict[str, Match], vocab: set[tuple[str, ...]],
                         seed: int, neg_min_len: int = 4) -> list[Bag]:
    """Positive bags = every vocabulary occurrence; negative bags are random
    runs drawn from outside all labeled events, lengths uniform between
    ``neg_min_len`` and the longest positive span, one negative per
    positive.  Deterministic for a given seed."""
    positives: list[Bag] = []
    free_runs: list[tuple[str, int, int]] = []  # (match_id, start, length)
    max_pos_len = 0
    for match_id, match in matches.items():
        labels, spans = label_events_by_vocabulary(match, vocab)
        for s, e in spans:
            positives.append(Bag(match_id, s, e - s + 1, 1))
            max_pos_len = max(max_pos_len, e - s + 1)
        free_runs += [(match_id, s, e - s + 1) for s, e in _runs(~labels)]
    if not positives:
        raise TrainingError("no positive bags: vocabulary matched nothing")
    if max_pos_len < neg_min_len:
        max_pos_len = neg_min_len
    # per negative length: the runs that fit it, and their cumulative counts
    # of placements, so a pick uniform over all placements is one search
    placements: dict[int, tuple[list, np.ndarray]] = {}
    for length in range(neg_min_len, max_pos_len + 1):
        eligible = [fr for fr in free_runs if fr[2] >= length]
        placements[length] = (eligible, np.cumsum([fr[2] - length + 1 for fr in eligible]))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
    negatives: list[Bag] = []
    n_needed = len(positives)
    for _ in range(n_needed):
        for _attempt in range(200):
            length = int(rng.integers(neg_min_len, max_pos_len + 1))
            eligible, cum = placements[length]
            if eligible:
                break
        else:
            raise TrainingError(
                "not enough negative material: placed %d of %d negative bags"
                % (len(negatives), n_needed)
            )
        pick = int(rng.integers(int(cum[-1])))
        r = int(np.searchsorted(cum, pick, side="right"))
        match_id, run_start, _run_len = eligible[r]
        offset = pick - (int(cum[r - 1]) if r else 0)
        negatives.append(Bag(match_id, run_start + offset, length, 0))
    return positives + negatives


# ---------------------------------------------------------------------------
# model

def init_mil_params(input_dim: int, hidden: int, rng: np.random.Generator) -> dict:
    params = lstm_init(input_dim, hidden, rng, "lstm")
    params.update(dense_init(hidden, rng, "out"))
    return params


def mil_loss_grads(params: dict, x: np.ndarray, y: float):
    """(loss, probability, parameter gradients) of one (K, D) bag with
    label ``y``: ``mil_batch_loss_grads`` on a minibatch of one."""
    loss, p, grads = mil_batch_loss_grads(params, [x], [y])
    return loss, float(p[0]), grads


def _mil_batch_forward(params: dict, x: np.ndarray, lengths: np.ndarray):
    """Bag scores (B,) for a left-aligned (B, T, D) batch of bags whose
    rows hold ``lengths`` real steps; the max over time skips padding."""
    h, c, gates = lstm_forward_batch(x, params["lstm.W"], params["lstm.U"], params["lstm.b"])
    pad = np.arange(x.shape[1]) >= lengths[:, None]
    kstar = np.argmax(np.where(pad[:, :, None], -np.inf, h), axis=1)
    z = np.take_along_axis(h, kstar[:, None, :], axis=1)[:, 0]
    p = sigmoid(z @ params["out.w"] + params["out.b"][0])
    return p, (h, c, gates, z, kstar)


def mil_batch_loss_grads(params: dict, xs: list[np.ndarray], ys):
    """Summed loss, bag probabilities (B,) and summed parameter gradients of
    a minibatch of (K_i, D) bags ``xs`` with labels ``ys``, in one forward
    and one backward kernel call."""
    dtype = params["lstm.W"].dtype
    lengths = np.array([x.shape[0] for x in xs])
    batch = np.zeros((len(xs), int(lengths.max()), xs[0].shape[1]), dtype=dtype)
    for row, x in zip(batch, xs):
        row[: x.shape[0]] = x
    y = np.asarray(ys, dtype=dtype)
    p, (h, c, gates, z, kstar) = _mil_batch_forward(params, batch, lengths)
    dlogit = bce_sigmoid_grad(p, y)
    dh_ext = np.zeros_like(h)
    np.put_along_axis(dh_ext, kstar[:, None, :], (dlogit[:, None] * params["out.w"])[:, None, :],
                      axis=1)
    _dx, dW, dU, db = lstm_backward_batch(batch, h, c, gates, params["lstm.W"],
                                          params["lstm.U"], dh_ext)
    grads = {
        "out.w": dlogit @ z,
        "out.b": np.array([dlogit.sum()]),
        "lstm.W": dW,
        "lstm.U": dU,
        "lstm.b": db,
    }
    return float(np.sum(bce_loss(p, y))), p, grads


# ---------------------------------------------------------------------------
# window scoring and fusion

def window_starts(n_events: int, window: int, stride: int) -> list[int]:
    """Window start positions covering every event; the last window is
    pulled back to end exactly at the final event when needed."""
    if n_events <= window:
        return [0]
    starts = list(range(0, n_events - window + 1, stride))
    if starts[-1] != n_events - window:
        starts.append(n_events - window)
    return starts


def score_windows(params: dict, feats: np.ndarray, window: int, stride: int):
    """Bag score for each sliding window; returns (starts, lengths, scores).
    All windows have the same length, so they are scored as one batch."""
    n = feats.shape[0]
    starts = window_starts(n, window, stride)
    length = min(window, n)
    feats = feats.astype(params["lstm.W"].dtype, copy=False)  # no copy if it matches
    batch = feats[np.asarray(starts)[:, None] + np.arange(length)]
    scores, _ = _mil_batch_forward(params, batch, np.full(len(starts), length))
    return starts, length, scores


def fuse_event_scores(starts: list[int], window_len: int, window_scores: np.ndarray,
                      n_events: int, r: float) -> np.ndarray:
    """Per-event score: log-sum-exp fusion of all windows covering the event,
    S = (1/r) * log(mean(exp(r * O))).

    Each window adds its term to every event it covers; the sums are
    divided by the events' cover counts.
    """
    covered = (np.asarray(starts)[:, None] + np.arange(window_len)).ravel()
    ro = np.repeat(r * np.asarray(window_scores, dtype=float), window_len)
    inside = covered < n_events
    covered, ro = covered[inside], ro[inside]
    count = np.bincount(covered, minlength=n_events)
    m = np.full(n_events, -np.inf)
    np.maximum.at(m, covered, ro)
    total = np.bincount(covered, weights=np.exp(ro - m[covered]), minlength=n_events)
    return (m + np.log(total / count)) / r


def score_events(params: dict, feats: np.ndarray, config: MilConfig) -> np.ndarray:
    starts, wlen, wscores = score_windows(params, feats, config.window, config.stride)
    return fuse_event_scores(starts, wlen, wscores, feats.shape[0], config.lse_r)


# ---------------------------------------------------------------------------
# proposals and threshold selection

def _runs(mask: np.ndarray, cut_after: np.ndarray | None = None) -> list[tuple[int, int]]:
    """Maximal runs of True in ``mask`` as inclusive spans; a run is also
    cut after every position where ``cut_after`` is True."""
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    starts, ends = edges[0::2], edges[1::2] - 1
    if cut_after is not None:
        cut = np.flatnonzero(mask[:-1] & cut_after[:-1] & mask[1:])
        starts = np.sort(np.concatenate((starts, cut + 1)))
        ends = np.sort(np.concatenate((ends, cut)))
    return list(zip(starts.tolist(), ends.tolist()))


def _goal_mask(types: tuple[str, ...]) -> np.ndarray:
    return np.array([t == "goal-shot" for t in types], dtype=bool)


def extract_proposals(scores: np.ndarray, threshold: float,
                      types: tuple[str, ...]) -> list[tuple[int, int]]:
    """Maximal runs of events scoring >= threshold, with the extra rule that
    a goal-shot event closes its run immediately (celebration/restart events
    that still score high start a fresh proposal)."""
    if len(scores) != len(types):
        raise ShapeError("%d event scores for a match of %d events" % (len(scores), len(types)))
    return _runs(np.asarray(scores) >= threshold, _goal_mask(types))


def labels_to_intervals(labels: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of positive labels as inclusive index spans."""
    return _runs(np.asarray(labels, dtype=bool))


def intervals_to_labels(n_events: int, intervals) -> np.ndarray:
    """Per-event labels, True inside any of the inclusive index spans."""
    labels = np.zeros(n_events, dtype=bool)
    for s, e in intervals:
        labels[s : e + 1] = True
    return labels


# the thresholds select_threshold tries, ascending: 0.01, 0.02, ..., 0.99
_THRESHOLDS = np.arange(1, 100) / 100.0


def _spread(lo: np.ndarray, hi: np.ndarray):
    """(k, i) for every position i and every k in [lo[i], hi[i]), sorted by
    k and then by i."""
    count = hi - lo
    i = np.repeat(np.arange(len(hi)), count)
    k = np.arange(len(i)) - np.repeat(np.cumsum(count) - count - lo, count)
    order = np.argsort(k, kind="stable")
    return k[order], i[order]


def _grid_runs(scores: np.ndarray, goal: np.ndarray):
    """``_runs(scores >= t, goal)`` at every grid threshold t, in one pass
    over finite ``scores``.

    Returns (rows, starts, ends): run j lies at ``_THRESHOLDS[rows[j]]``,
    sorted by ``rows`` and then by start.
    """
    # event i reaches the grid thresholds below index level[i]; events i
    # and i + 1 share a run at those below link[i]
    level = np.searchsorted(_THRESHOLDS, scores, side="right")
    link = np.where(goal[:-1], 0, np.minimum(level[:-1], level[1:]))
    rows, starts = _spread(np.concatenate(([0], link)), level)
    _, ends = _spread(np.concatenate((link, [0])), level)
    return rows, starts, ends


def select_threshold(scored, beta: float = 2.0, ratio: float = 0.5) -> tuple[float, float]:
    """Grid-search the score threshold (0.01..0.99, step 0.01) maximizing
    proposal F-beta, micro-averaged over the (event scores, event labels,
    event types) rows of ``scored``; ties go to the lowest threshold.
    Returns (threshold, fbeta)."""
    n_grid = len(_THRESHOLDS)
    tp = [0] * n_grid
    n_runs = np.zeros(n_grid, dtype=np.int64)
    n_gts = 0
    for scores, labels, types in scored:
        labels = np.asarray(labels, dtype=bool)
        gts = labels_to_intervals(labels)
        n_gts += len(gts)
        rows, starts, ends = _grid_runs(np.asarray(scores), _goal_mask(types))
        n_runs += np.bincount(rows, minlength=n_grid)
        # a run that has less than ``ratio`` of its events labeled matches
        # no ground truth, so only the others go through overlap_match
        labeled = np.concatenate(([0], np.cumsum(labels)))
        keep = labeled[ends + 1] - labeled[starts] >= ratio * (ends - starts + 1)
        bounds = np.searchsorted(rows[keep], np.arange(n_grid + 1)).tolist()
        starts, ends = starts[keep].tolist(), ends[keep].tolist()
        for k in range(n_grid):
            a, b = bounds[k], bounds[k + 1]
            if a < b:
                tp[k] += overlap_match(list(zip(starts[a:b], ends[a:b])), gts, ratio)[0]
    best_t, best_f = 0.01, -1.0
    for t, tp_k, runs_k in zip(_THRESHOLDS.tolist(), tp, n_runs.tolist()):
        f = fbeta(*precision_recall(tp_k, runs_k - tp_k, n_gts - tp_k), beta)
        if f > best_f:
            best_t, best_f = t, f
    return best_t, best_f


# ---------------------------------------------------------------------------
# training

@dataclass
class MilModel:
    params: dict
    config: MilConfig
    threshold: float = 0.5
    history: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_f: float = 0.0
    stop: str = ""  # why training stopped (neural.optim.STOP_REASONS); "" if loaded

    def to_checkpoint(self) -> dict:
        out = dict(self.params)
        out["_meta.hidden"] = np.array([float(self.config.hidden)])
        out["_meta.window"] = np.array([float(self.config.window)])
        out["_meta.stride"] = np.array([float(self.config.stride)])
        out["_meta.lse_r"] = np.array([self.config.lse_r])
        out["_meta.threshold"] = np.array([self.threshold])
        return out

    @classmethod
    def from_checkpoint(cls, ckpt: dict) -> "MilModel":
        """The model a checkpoint holds, with its parameters as float32.

        Checkpoints store float64, which holds every float32 value
        exactly; a parameter value that is not a float32 value was not
        written by ``train_mil`` (an earlier version's float64 model, or
        a damaged file) and is refused."""
        try:
            cfg = MilConfig(
                hidden=int(ckpt["_meta.hidden"][0]),
                window=int(ckpt["_meta.window"][0]),
                stride=int(ckpt["_meta.stride"][0]),
                lse_r=float(ckpt["_meta.lse_r"][0]),
            )
            threshold = float(ckpt["_meta.threshold"][0])
        except KeyError as exc:
            raise DataFormatError("checkpoint has no record %s: not a stage-1 checkpoint"
                                  % exc) from None
        if cfg.stride > cfg.window:
            raise DataFormatError("checkpoint stride %d is above its window %d: events "
                                  "between windows would go unscored" % (cfg.stride, cfg.window))
        params = {}
        for name, value in ckpt.items():
            if name.startswith("_meta."):
                continue
            with np.errstate(over="ignore"):  # an overflow is refused just below
                params[name] = value.astype(np.float32)
            if not np.array_equal(params[name], value):
                raise DataFormatError(
                    "checkpoint array %r holds values that are not float32: written by "
                    "an earlier version or damaged; retrain the stage-1 model" % name)
        return cls(params=params, config=cfg, threshold=threshold)


def train_mil(bags: list[Bag], features: dict[str, np.ndarray],
              val_scored_inputs: list[tuple[str, np.ndarray, tuple[str, ...]]],
              config: MilConfig, seed: int) -> MilModel:
    """Train the bag scorer with ``neural.fit``, in float32.

    ``val_scored_inputs`` rows are (match_id, event labels, event types) for
    validation matches; after each epoch the validation matches are scored
    and a threshold is grid-picked, and the epoch with the best validation
    F-beta (threshold included) is kept.
    """
    labels = {b.label for b in bags}
    if labels != {0, 1}:
        raise TrainingError("training bags must contain both classes, got %s" % sorted(labels))
    input_dim = next(iter(features.values())).shape[1]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    # the model trains and scores in float32
    params = {k: v.astype(np.float32)
              for k, v in init_mil_params(input_dim, config.hidden, rng).items()}
    features = {k: v.astype(np.float32) for k, v in features.items()}
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))

    def loss_grads(params, chunk):
        xs = [features[b.match_id][b.start : b.start + b.length] for b in chunk]
        return mil_batch_loss_grads(params, xs, [b.label for b in chunk])

    def validate(params):
        scored = [(score_events(params, features[match_id], config), ev_labels, types)
                  for match_id, ev_labels, types in val_scored_inputs]
        threshold, f = select_threshold(scored, config.beta)
        return {"val_f": f, "threshold": threshold}

    params, history, best_epoch, stop = fit(params, bags, loss_grads, validate, config,
                                            shuffle_rng)
    best = history[best_epoch] if best_epoch >= 0 else {"val_f": -1.0, "threshold": 0.5}
    return MilModel(params=params, config=config, threshold=best["threshold"],
                    history=history, best_epoch=best_epoch, best_val_f=best["val_f"],
                    stop=stop)
