"""Metrics and experiment protocol: interval matching, summary-action
matching, F-scores, cross-validation folds, and naive soccer baselines."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Action, Match, SoccersumError


def fbeta(precision: float, recall: float, beta: float = 1.0) -> float:
    """Weighted harmonic mean of precision and recall; 0 when degenerate."""
    b2 = beta * beta
    denom = b2 * precision + recall
    if denom == 0:
        return 0.0
    return (1.0 + b2) * precision * recall / denom


def precision_recall(tp: int, fp: int, fn: int) -> tuple[float, float]:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return p, r


def interval_overlap(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Number of shared event indices between two inclusive index ranges."""
    return max(0, min(a[1], b[1]) - max(a[0], b[0]) + 1)


def covered_by_any(pred: tuple[int, int], gt_intervals, ratio: float = 0.5) -> bool:
    """True when >= ratio of the predicted range lies inside one GT range."""
    need = ratio * (pred[1] - pred[0] + 1)
    return any(interval_overlap(pred, g) >= need for g in gt_intervals)


def overlap_match(pred_intervals, gt_intervals, ratio: float = 0.5) -> tuple[int, int, int]:
    """One-to-one interval matching under the coverage rule.

    A prediction matches a ground-truth range when at least ``ratio`` of the
    prediction's events fall inside it.  Predictions are walked left to
    right, each consuming the first still-free qualifying ground truth.
    Returns (tp, fp, fn).

    Both lists must be in ascending start order.  Then a ground truth that
    ends before a prediction starts can match no later prediction either,
    so one pointer skips those for good, and the scan for each prediction
    stops at the first ground truth starting after it ends.
    """
    n_pred, n_gt = len(pred_intervals), len(gt_intervals)
    if ratio <= 0:  # every ground truth qualifies, overlapping or not
        tp = min(n_pred, n_gt)
        return tp, n_pred - tp, n_gt - tp
    consumed = [False] * n_gt
    tp = lo = 0
    for s, e in pred_intervals:
        need = ratio * (e - s + 1)
        while lo < n_gt and gt_intervals[lo][1] < s:
            lo += 1
        for j in range(lo, n_gt):
            gs, ge = gt_intervals[j]
            if gs > e:
                break
            if not consumed[j] and min(e, ge) - max(s, gs) + 1 >= need:
                consumed[j] = True
                tp += 1
                break
    return tp, n_pred - tp, n_gt - tp


def match_summary_actions(predicted: list[Action], ground_truth: list[Action],
                          match: Match) -> tuple[int, int, int]:
    """Summary-level matching: (tp, fp, fn).

    A ground-truth action is hit when some still-unconsumed predicted action
    has the same category and starts within the window stretching from the
    end of the previous ground-truth action to the start of the next one
    (match start/end at the edges, boundaries inclusive).  Ground truths are
    processed chronologically; each takes the earliest qualifying prediction.
    """
    gts = sorted(ground_truth, key=lambda a: a.start_index)
    preds = sorted(predicted, key=lambda a: a.start_index)
    match_start = match.events[0].t
    match_end = match.events[-1].t
    consumed = [False] * len(preds)
    tp = 0
    for j, gt in enumerate(gts):
        lo = match.events[gts[j - 1].end_index].t if j > 0 else match_start
        hi = match.events[gts[j + 1].start_index].t if j + 1 < len(gts) else match_end
        for i, pred in enumerate(preds):
            if consumed[i] or pred.type != gt.type:
                continue
            start_t = match.events[pred.start_index].t
            if lo <= start_t <= hi:
                consumed[i] = True
                tp += 1
                break
    fp = len(preds) - tp
    fn = len(gts) - tp
    return tp, fp, fn


def kfold_split(ids: list[str], k: int, seed: int = 0):
    """Shuffled k-fold partition with train/validation/test per fold.

    Fold i tests shard i and validates shard (i+1) mod k; the remaining
    shards train.  Needs at least k items.
    """
    if len(ids) < k:
        raise SoccersumError("k-fold split needs >= %d items, got %d" % (k, len(ids)))
    rng = np.random.default_rng(seed)
    order = [ids[i] for i in rng.permutation(len(ids))]
    shards = [list(s) for s in np.array_split(np.array(order, dtype=object), k)]
    folds = []
    for i in range(k):
        test = shards[i]
        val = shards[(i + 1) % k]
        train = [m for j, s in enumerate(shards) if j not in (i, (i + 1) % k) for m in s]
        folds.append((train, val, test))
    return folds


SHOTS_ON_TARGET_TYPES = ("goal", "save", "shot")


def soccer_baseline(mode: str, proposal_types: list[str], seed: int = 0) -> list[int]:
    """Indices of proposals a naive selector would put in the summary.

    Modes: ``random`` keeps proposals whose uniform draw is >= 0.5,
    ``goals`` keeps goal actions, ``shots_on_target`` keeps goal/save/shot
    actions.
    """
    if mode == "random":
        rng = np.random.default_rng(seed)
        draws = rng.uniform(0.0, 1.0, size=len(proposal_types))
        return [i for i in range(len(proposal_types)) if draws[i] >= 0.5]
    if mode == "goals":
        return [i for i, t in enumerate(proposal_types) if t == "goal"]
    if mode == "shots_on_target":
        return [i for i, t in enumerate(proposal_types) if t in SHOTS_ON_TARGET_TYPES]
    raise ValueError("unknown baseline mode %r" % mode)


@dataclass
class Counts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def add(self, tp: int, fp: int, fn: int) -> None:
        self.tp += tp
        self.fp += fp
        self.fn += fn

    def metrics(self, beta: float = 1.0) -> dict:
        p, r = precision_recall(self.tp, self.fp, self.fn)
        return {
            "precision": p,
            "recall": r,
            "f": fbeta(p, r, beta),
            "missing": 100.0 * (1.0 - r),
        }


def format_table(title: str, columns: list[str], rows: list[list]) -> str:
    """Aligned plain-text table; numbers rendered with two decimals."""
    rendered = [[c for c in columns]]
    for row in rows:
        rendered.append([
            ("%.2f" % v) if isinstance(v, float) else str(v) for v in row
        ])
    widths = [max(len(r[i]) for r in rendered) for i in range(len(columns))]
    lines = [title]
    lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(rendered[0])))
    lines.append("  ".join("-" * w for w in widths))
    for r in rendered[1:]:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(r))))
    return "\n".join(lines) + "\n"


def format_csv(columns: list[str], rows: list[list]) -> str:
    out = [",".join(columns)]
    for row in rows:
        out.append(",".join(("%.4f" % v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(out) + "\n"
