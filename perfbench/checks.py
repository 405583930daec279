"""Output checks applied to every benchmark operation.

Each check returns a list of problem strings; an operation with any
problem counts as failed.  The checks re-derive what they need from the
dataset (event times, padding, budget tolerance) instead of trusting the
program's own helpers.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import os

import numpy as np


def check_proposals(spans, n_events: int, tag: str) -> list[str]:
    """Proposals lie inside the match, are ordered and do not overlap."""
    problems = []
    prev_end = -1
    for s, e in spans:
        if not (0 <= s <= e < n_events):
            problems.append("%s: proposal (%d, %d) outside [0, %d)" % (tag, s, e, n_events))
        if s <= prev_end:
            problems.append("%s: proposal (%d, %d) overlaps or precedes its predecessor"
                            % (tag, s, e))
        prev_end = max(prev_end, e)
    return problems


def check_theta(theta, n_proposals: int, tag: str) -> list[str]:
    """One finite score in [0, 1] per proposal."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (n_proposals,):
        return ["%s: %d scores for %d proposals" % (tag, theta.size, n_proposals)]
    bad = ~np.isfinite(theta) | (theta < 0.0) | (theta > 1.0)
    if bad.any():
        return ["%s: %d scores not finite or outside [0, 1]" % (tag, int(bad.sum()))]
    return []


def replay_candidate(cand: dict, durations, starts, budget: float, tol: float,
                     tag: str) -> list[str]:
    """Replay the stop-first budget rule (acceptance criterion 8) over the
    candidate's recorded ranking and compare with what it chose."""
    problems = []
    ranking = [int(i) for i in cand["ranking"]]
    if sorted(ranking) != list(range(len(durations))):
        return ["%s: ranking is not a permutation of the proposals" % tag]
    picked, total, over = [], 0.0, False
    for idx in ranking:
        d = durations[idx]
        if not picked:
            picked.append(idx)
            total += d
            if d > budget * (1.0 + tol):
                over = True
                break
            continue
        if total + d <= budget:
            picked.append(idx)
            total += d
        else:
            break
    chosen = [int(i) for i in cand["chosen"]]
    if sorted(chosen) != sorted(picked):
        problems.append("%s: not the stop-first set" % tag)
    if abs(float(cand["total_duration"]) - total) > 1e-5:
        problems.append("%s: total duration %.6f, replay %.6f"
                        % (tag, float(cand["total_duration"]), total))
    if bool(cand["over_budget"]) != over:
        problems.append("%s: over_budget flag disagrees with the replay" % tag)
    if not over and float(cand["total_duration"]) > budget * (1.0 + tol) + 1e-9:
        problems.append("%s: exceeds the budget tolerance" % tag)
    chosen_starts = [starts[i] for i in chosen]
    if chosen_starts != sorted(chosen_starts):
        problems.append("%s: chosen proposals not chronological" % tag)
    return problems


def proposal_durations(match, spans, pad_pre: float, pad_post: float):
    ev = match.events
    durations = [pad_pre + ev[e].t - ev[s].t + pad_post for s, e in spans]
    starts = [ev[s].t for s, _e in spans]
    return durations, starts


def _read_csv(path: str) -> list[list[str]]:
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(lines))))


def read_table(path: str) -> dict:
    """results/<table>.csv as {row name: {column: float}}."""
    rows = _read_csv(path)
    header = rows[0]
    return {r[0]: dict(zip(header[1:], (float(v) for v in r[1:]))) for r in rows[1:]}


def check_run_dir(out_dir: str, dataset, config) -> list[str]:
    """Check every fold directory a protocol run wrote."""
    problems = []
    matches = {m.match_id: m for m in dataset.matches}
    pad_pre, pad_post = config["pad.pre"], config["pad.post"]
    tol = config["stage3.budget_tol"]
    folds = sorted(d for d in os.listdir(out_dir) if d.startswith("fold_"))
    if not folds:
        return ["%s: no fold directories" % out_dir]
    for fold in folds:
        fdir = os.path.join(out_dir, fold)
        with open(os.path.join(fdir, "proposals.json")) as fh:
            proposals = {mid: [(p["start_index"], p["end_index"]) for p in items]
                         for mid, items in json.load(fh)["matches"].items()}
        if set(proposals) != set(matches):
            problems.append("%s: proposals for %d of %d matches"
                            % (fold, len(proposals), len(matches)))
            continue
        for mid, spans in proposals.items():
            problems += check_proposals(spans, len(matches[mid].events), "%s/%s" % (fold, mid))
        theta: dict[str, list[float]] = {}
        for row in _read_csv(os.path.join(fdir, "theta.csv"))[1:]:
            theta.setdefault(row[0], []).append(float(row[2]))
        for mid, values in theta.items():
            problems += check_theta(values, len(proposals.get(mid, [])),
                                    "%s/%s theta" % (fold, mid))
        cdir = os.path.join(fdir, "candidates")
        names = sorted(os.listdir(cdir))
        if not names:
            problems.append("%s: no candidate files" % fold)
        for name in names:
            with open(os.path.join(cdir, name)) as fh:
                payload = json.load(fh)
            mid = payload["match_id"]
            spans = proposals[mid]
            durations, starts = proposal_durations(matches[mid], spans, pad_pre, pad_post)
            for cand in payload["candidates"]:
                tag = "%s/%s sample %d" % (fold, mid, cand["sample_index"])
                cand = dict(cand, chosen=[c["proposal_index"] for c in cand["chosen"]])
                problems += replay_candidate(cand, durations, starts, payload["budget"],
                                             tol, tag)
    return problems


def digest_files(root: str) -> str:
    """sha256 over every file a run wrote except per-run logs and timings:
    result tables, datasets, checkpoints, scores, proposals, candidates."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name in ("fold_result.json", "train_log.jsonl"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def f_score(tp: int, fp: int, fn: int, beta: float) -> float:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    b2 = beta * beta
    return (1 + b2) * p * r / (b2 * p + r) if p + r > 0 else 0.0
