"""Acceptance gate for the whole pipeline.

Ten independent criteria, one test and one printed PASS/FAIL line each
(run with -s or -rA to see the lines).  Numeric tolerances are fixed here
on purpose; loosening them is a behavior change, not a test fix.
"""
import itertools
import json
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from soccersum.config import load_config
from soccersum.core import Action, Event, Match
from soccersum.evaluation import match_summary_actions
from soccersum.features.audio import (
    energy_entropy,
    magnitude_spectrum,
    mfcc,
    short_term_energy,
    spectral_centroid_spread,
    spectral_entropy,
    spectral_flux,
    spectral_rolloff,
    zero_crossing_rate,
)
from soccersum.io import save_dataset
from soccersum.pipeline import run_protocol
from soccersum.stage1 import fuse_event_scores, init_mil_params, mil_loss_grads
from soccersum.stage2 import HmaConfig, attention_weights, hma_loss_grads, init_hma_params
from soccersum.stage3 import pl_probability, sample_ranking
from soccersum.synth import generate_dataset

from test_features_audio import naive_frame_features, naive_mfcc

FD_STEP = 1e-4


def _verdict(ok: bool, line: str) -> None:
    print(("PASS: " if ok else "FAIL: ") + line)
    assert ok, line


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-3)


# ---------------------------------------------------------------------------
# criterion 1: reverse-mode gradients vs central finite differences

def test_criterion_01_gradient_fidelity():
    rng = np.random.default_rng(2024)
    # trigger any kernel compilation outside the timed region
    warm = init_mil_params(3, 3, rng)
    mil_loss_grads(warm, rng.normal(size=(4, 3)), 1.0)

    t0 = time.time()
    worst = 0.0
    for case in range(20):
        if case % 2 == 0:
            d, h = int(rng.integers(3, 6)), int(rng.integers(3, 7))
            params = init_mil_params(d, h, rng)
            x = rng.normal(size=(int(rng.integers(4, 9)), d))
            y = float(rng.integers(0, 2))
            loss = lambda: mil_loss_grads(params, x, y)[0]
            grads = mil_loss_grads(params, x, y)[2]
        else:
            md, ad = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            cfg = HmaConfig(hidden_modality=int(rng.integers(3, 6)),
                            hidden_fusion=int(rng.integers(2, 5)))
            params = init_hma_params(md, ad, cfg, rng)
            length = int(rng.integers(2, 7))
            xm = rng.normal(size=(length, md))
            xa = rng.normal(size=(length, ad))
            y = float(rng.integers(0, 2))
            loss = lambda: hma_loss_grads(params, xm, xa, y)[0]
            grads = hma_loss_grads(params, xm, xa, y)[2]
        for name, g in grads.items():
            flat_p = params[name].reshape(-1)
            flat_g = np.asarray(g, dtype=float).reshape(-1)
            for i in range(flat_p.size):
                keep = flat_p[i]
                flat_p[i] = keep + FD_STEP
                lp = loss()
                flat_p[i] = keep - FD_STEP
                lm = loss()
                flat_p[i] = keep
                worst = max(worst, _rel_err(flat_g[i], (lp - lm) / (2 * FD_STEP)))
    elapsed = time.time() - t0
    _verdict(worst < 1e-4 and elapsed < 30.0,
             "criterion 1 gradient fidelity: max rel err %.3e (< 1e-4), %.1fs (< 30s)"
             % (worst, elapsed))


# ---------------------------------------------------------------------------
# criterion 2: smooth-max fusion envelope and monotonicity

def test_criterion_02_fusion_properties():
    rng = np.random.default_rng(41)

    def smooth_max(scores, r):
        n = len(scores)
        return fuse_event_scores([0] * n, 1, np.asarray(scores, dtype=float), 1, r)[0]

    bad = 0
    for _ in range(1000):
        n = int(rng.integers(1, 61))
        o = rng.uniform(0.0, 1.0, size=n)
        j = int(rng.integers(n))
        raised = o.copy()
        raised[j] += float(rng.uniform(0.05, 0.5))
        for r in (1.0, 8.0, 100.0):
            s = smooth_max(o, r)
            if not (o.mean() - 1e-12 <= s <= o.max() + 1e-12):
                bad += 1
            if smooth_max(raised, r) < s - 1e-12:
                bad += 1
        if abs(smooth_max(o, 100.0) - o.max()) > np.log(n) / 100.0 + 1e-12:
            bad += 1
    _verdict(bad == 0,
             "criterion 2 fusion envelope/monotonicity: %d violations in 1000 sets" % bad)


# ---------------------------------------------------------------------------
# criterion 3: attention weights are normalized

def test_criterion_03_attention_normalization():
    rng = np.random.default_rng(83)
    worst = 0.0
    params = None
    for trial in range(1000):
        if trial % 100 == 0:
            md, ad = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            cfg = HmaConfig(hidden_modality=int(rng.integers(3, 8)),
                            hidden_fusion=int(rng.integers(2, 6)))
            params = init_hma_params(md, ad, cfg, rng)
        length = int(rng.integers(1, 13))
        lam_m, lam_a, beta = attention_weights(
            params, rng.normal(size=(length, md)), rng.normal(size=(length, ad)))
        worst = max(worst,
                    float(np.max(np.abs(lam_m + lam_a - 1.0))),
                    abs(float(beta.sum()) - 1.0))
    _verdict(worst < 1e-9,
             "criterion 3 attention normalization: max deviation %.3e (< 1e-9)" % worst)


# ---------------------------------------------------------------------------
# criterion 4: ranking model exactness and sampler distribution

def test_criterion_04_ranking_model():
    rng = np.random.default_rng(7)
    enum_err = 0.0
    for n in (2, 3, 4, 5):
        theta = rng.uniform(0.1, 3.0, size=n)
        total = sum(pl_probability(theta, p)
                    for p in itertools.permutations(range(n)))
        enum_err = max(enum_err, abs(total - 1.0))

    theta = np.array([1.0, 2.0, 3.0, 4.0])
    t0 = time.time()
    draw_rng = np.random.default_rng(1234)
    counts: dict = {}
    n_samples = 200_000
    for _ in range(n_samples):
        key = tuple(sample_ranking(theta, 1.0, draw_rng))
        counts[key] = counts.get(key, 0) + 1
    sample_time = time.time() - t0
    tv = 0.5 * sum(
        abs(counts.get(p, 0) / n_samples - pl_probability(theta, p))
        for p in itertools.permutations(range(4)))

    det_rng = np.random.default_rng(99)
    det_ok = sum(
        1 for _ in range(10_000)
        if list(sample_ranking(theta, 1e-6, det_rng)) == [3, 2, 1, 0])

    ok = enum_err <= 1e-12 and tv < 0.02 and sample_time < 60.0 and det_ok == 10_000
    _verdict(ok,
             "criterion 4 ranking model: enum err %.2e (<= 1e-12), TV %.4f (< 0.02) "
             "in %.1fs (< 60s), tiny-noise descending %d/10000"
             % (enum_err, tv, sample_time, det_ok))


# ---------------------------------------------------------------------------
# criterion 5: summary matching vs exhaustive assignment

ACTION_TYPES = ("goal", "save", "shot", "foul", "corner")


def _random_matching_instance(rng):
    n = 40
    times = np.cumsum(rng.uniform(0.5, 8.0, size=n))
    events = [Event(index=i, t=float(times[i]), type="pass", team=0, player=1,
                    sx=50, sy=50, ex=50, ey=50, outcome=1, qualifier=0)
              for i in range(n)]
    match = Match(match_id="x", events=events)
    n_gt = int(rng.integers(0, 7))
    starts = sorted(rng.choice(n, size=min(2 * n_gt, n), replace=False)) if n_gt else []
    gts = []
    for j in range(n_gt):
        s = int(starts[2 * j])
        e = int(starts[2 * j + 1]) if 2 * j + 1 < len(starts) else s
        e = min(e, s + int(rng.integers(1, 5)))
        if gts and s <= gts[-1].end_index:
            s = gts[-1].end_index + 1
            if s >= n:
                break
            e = min(n - 1, s + int(rng.integers(0, 4)))
        gts.append(Action(s, max(s, e), str(rng.choice(ACTION_TYPES))))
    preds = []
    for _ in range(int(rng.integers(0, 7))):
        s = int(rng.integers(n))
        e = min(n - 1, s + int(rng.integers(0, 5)))
        preds.append(Action(s, e, str(rng.choice(ACTION_TYPES))))
    return match, gts, preds


def _exhaustive_tp(match, gts, preds):
    """Maximum-cardinality assignment over the same qualification windows,
    by branch-and-bound over all prediction subsets."""
    gts = sorted(gts, key=lambda a: a.start_index)
    t0, t1 = match.events[0].t, match.events[-1].t
    compat = []
    for j, gt in enumerate(gts):
        lo = match.events[gts[j - 1].end_index].t if j > 0 else t0
        hi = match.events[gts[j + 1].start_index].t if j + 1 < len(gts) else t1
        compat.append([i for i, p in enumerate(preds)
                       if p.type == gt.type
                       and lo <= match.events[p.start_index].t <= hi])
    best = 0

    def rec(j, used):
        nonlocal best
        if j == len(compat):
            best = max(best, len(used))
            return
        if len(used) + (len(compat) - j) <= best:
            return
        rec(j + 1, used)
        for i in compat[j]:
            if i not in used:
                rec(j + 1, used | {i})

    rec(0, frozenset())
    return best


def test_criterion_05_matching_oracle_equivalence():
    rng = np.random.default_rng(99)
    mismatches = 0
    for _ in range(1000):
        match, gts, preds = _random_matching_instance(rng)
        tp, _, _ = match_summary_actions(preds, gts, match)
        if tp != _exhaustive_tp(match, gts, preds):
            mismatches += 1
    _verdict(mismatches == 0,
             "criterion 5 matching equivalence: %d mismatches in 1000 instances"
             % mismatches)


# ---------------------------------------------------------------------------
# criteria 6-8 share one full-scale protocol run

@pytest.fixture(scope="module")
def protocol_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_run")
    cfg = load_config(None, {"seed": 7, "jobs": 1, "eval.folds": 1})
    dataset = generate_dataset(cfg.gen_config(), 7)
    data_dir = out / "data"
    save_dataset(dataset, str(data_dir))
    t0 = time.time()
    result = run_protocol(dataset, cfg, out_dir=str(out))
    elapsed = time.time() - t0
    return SimpleNamespace(result=result, out=out, elapsed=elapsed,
                           dataset=dataset, config=cfg)


def _rows(run, table):
    cols, rows = run.result.tables[table]
    return {r[0]: dict(zip(cols[1:], r[1:])) for r in rows}


def test_criterion_06_end_to_end_quality(protocol_run):
    stage1 = _rows(protocol_run, "stage1")
    sel = _rows(protocol_run, "selection")
    learned = stage1["learned-model"]
    template = stage1["template-matching"]
    problems = []
    if not learned["missing_pct"] <= 10.0:
        problems.append("stage-1 missing %.2f%% > 10%%" % learned["missing_pct"])
    if not learned["f2"] >= 0.70:
        problems.append("stage-1 F2 %.3f < 0.70" % learned["f2"])
    if not learned["f2"] - template["f2"] >= 0.10:
        problems.append("learned F2 %.3f vs template %.3f: gap < 0.10"
                        % (learned["f2"], template["f2"]))
    gap = sel["attention-classifier"]["f1"] - sel["random-selector"]["f1"]
    if not gap >= 0.20:
        problems.append("pipeline F1 beats random by %.3f < 0.20" % gap)
    goals = sel["only-goals"]
    if not goals["precision"] > goals["recall"]:
        problems.append("only-goals precision %.3f <= recall %.3f"
                        % (goals["precision"], goals["recall"]))
    shots = sel["shots-on-target"]
    if not shots["recall"] > shots["precision"]:
        problems.append("shots-on-target recall %.3f <= precision %.3f"
                        % (shots["recall"], shots["precision"]))
    if not protocol_run.elapsed <= 900.0:
        problems.append("runtime %.0fs > 900s" % protocol_run.elapsed)
    _verdict(not problems,
             "criterion 6 end-to-end: missing %.2f%%, F2 %.3f (template %.3f), "
             "pipeline F1 +%.3f over random, goals P>R %s, shots R>P %s, %.0fs%s"
             % (learned["missing_pct"], learned["f2"], template["f2"], gap,
                goals["precision"] > goals["recall"],
                shots["recall"] > shots["precision"],
                protocol_run.elapsed,
                "" if not problems else " | " + "; ".join(problems)))


def test_criterion_07_multi_summary_ordering(protocol_run):
    rank = _rows(protocol_run, "ranking")
    best = rank["sampled-best-of-k"]["f1"]
    desc = rank["score-descending"]["f1"]
    rnd = rank["random-ranking"]["f1"]
    _verdict(best >= desc >= rnd,
             "criterion 7 ranking order: best-of-k %.3f >= descending %.3f >= random %.3f"
             % (best, desc, rnd))


def test_criterion_08_budget_contract(protocol_run):
    cfg = protocol_run.config
    pad_pre, pad_post = cfg["pad.pre"], cfg["pad.post"]
    fold_dir = protocol_run.out / "fold_000"
    proposals = json.loads((fold_dir / "proposals.json").read_text())["matches"]
    checked = 0
    problems = []
    for name in sorted(os.listdir(fold_dir / "candidates")):
        payload = json.loads((fold_dir / "candidates" / name).read_text())
        mid = payload["match_id"]
        budget = payload["budget"]
        match = protocol_run.dataset.by_id(mid)
        spans = proposals[mid]
        durations = [pad_pre + match.events[p["end_index"]].t
                     - match.events[p["start_index"]].t + pad_post
                     for p in spans]
        start_times = [match.events[p["start_index"]].t for p in spans]
        for cand in payload["candidates"]:
            checked += 1
            tag = "%s sample %d" % (mid, cand["sample_index"])
            # replay the greedy stop-first walk over the recorded ranking
            picked, total = [], 0.0
            for idx in cand["ranking"]:
                d = durations[idx]
                if not picked:
                    picked.append(idx)
                    total += d
                    if d > budget * 1.1:
                        break
                    continue
                if total + d <= budget:
                    picked.append(idx)
                    total += d
                else:
                    break
            got = [p["proposal_index"] for p in cand["chosen"]]
            if sorted(got) != sorted(picked):
                problems.append("%s: not the greedy-maximal stop-rule set" % tag)
            if abs(cand["total_duration"] - total) > 1e-5:
                problems.append("%s: total duration drifts" % tag)
            if not cand["over_budget"] and cand["total_duration"] > budget * 1.1 + 1e-9:
                problems.append("%s: exceeds 1.1x budget" % tag)
            if cand["over_budget"]:
                problems.append("%s: over-budget candidate at full scale" % tag)
            starts = [start_times[i] for i in got]
            if starts != sorted(starts):
                problems.append("%s: not chronological" % tag)
    _verdict(checked > 0 and not problems,
             "criterion 8 budget contract: %d candidates checked, %d violations%s"
             % (checked, len(problems),
                "" if not problems else " | " + "; ".join(problems[:4])))


# ---------------------------------------------------------------------------
# criterion 9: audio descriptors vs brute-force oracles

def test_criterion_09_dsp_fidelity():
    fs, frame_len = 8000, 400
    rng = np.random.default_rng(2718)
    frames = rng.normal(scale=0.3, size=(100, frame_len))
    mag = magnitude_spectrum(frames)
    freqs = np.arange(frame_len // 2 + 1) * fs / frame_len
    centroid, spread = spectral_centroid_spread(mag, freqs)
    fast = np.column_stack([
        zero_crossing_rate(frames),
        short_term_energy(frames),
        energy_entropy(frames),
        centroid,
        spread,
        spectral_entropy(mag),
        spectral_flux(mag),
        spectral_rolloff(mag, freqs),
    ])
    naive, naive_mag, _ = naive_frame_features(frames, fs)
    frame_err = float(np.max(np.abs(fast - naive)))
    mfcc_err = float(np.max(np.abs(mfcc(mag, fs) - naive_mfcc(naive_mag, fs))))

    t = np.arange(frame_len) / fs
    tone = np.sin(2 * np.pi * 1000.0 * t)[None, :]
    tone_mag = magnitude_spectrum(tone)
    tone_centroid, _ = spectral_centroid_spread(tone_mag, freqs)
    bin_width = fs / frame_len
    tone_err = abs(float(tone_centroid[0]) - 1000.0)

    ok = frame_err < 1e-6 and mfcc_err < 1e-6 and tone_err <= bin_width
    _verdict(ok,
             "criterion 9 dsp fidelity: frame err %.2e, mfcc err %.2e (< 1e-6), "
             "1kHz centroid off by %.2f Hz (<= %.0f Hz bin)"
             % (frame_err, mfcc_err, tone_err, bin_width))


# ---------------------------------------------------------------------------
# criterion 10: byte-identical results across reruns and worker counts

def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "gen.matches = 10\ngen.events_mean = 300\n"
        "eval.kfold = 5\neval.folds = 1\n"
        "stage1.epochs = 4\nstage1.patience = 4\n"
        "stage2.epochs = 4\nstage2.patience = 4\n"
    )
    outs = []
    for name, jobs in (("r1", "1"), ("r2", "1"), ("r3", "2")):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "soccersum", "e2e", "--config", str(cfg),
             "--seed", "7", "--jobs", jobs, "--out-dir", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    files = ("results/stage1.csv", "results/selection.csv",
             "results/ranking.csv", "results/results.txt")
    diffs = []
    for rel in files:
        base = (outs[0] / rel).read_bytes()
        if (outs[1] / rel).read_bytes() != base:
            diffs.append(rel + " (rerun)")
        if (outs[2] / rel).read_bytes() != base:
            diffs.append(rel + " (jobs=2)")
    _verdict(not diffs,
             "criterion 10 determinism: %d/%d result files byte-identical "
             "across rerun and jobs=2%s"
             % (2 * len(files) - len(diffs), 2 * len(files),
                "" if not diffs else " | differs: " + ", ".join(diffs)))
