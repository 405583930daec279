"""Proposal stage: vocabulary harvesting, weak labels, bag sampling,
window fusion, proposal extraction, threshold pick, and bag training."""
import numpy as np
import pytest

from soccersum import pipeline, stage1
from soccersum.config import load_config
from soccersum.core import (Action, DataFormatError, Event, Match, ShapeError, Summary,
                            TrainingError)
from soccersum.evaluation import fbeta, overlap_match, precision_recall
from soccersum.neural import load_checkpoint, save_checkpoint
from soccersum.synth import GenConfig, generate_dataset
from soccersum.stage1 import (
    Bag,
    MilConfig,
    MilModel,
    build_action_vocabulary,
    extract_proposals,
    find_vocabulary_spans,
    fuse_event_scores,
    init_mil_params,
    label_events_by_vocabulary,
    labels_to_intervals,
    mil_batch_loss_grads,
    mil_loss_grads,
    sample_training_bags,
    score_events,
    select_threshold,
    train_mil,
    window_starts,
)

import reference


# ---------------------------------------------------------------------------
# loop references for the vectorised functions

def loop_fuse_event_scores(starts, window_len, window_scores, n_events, r):
    out = np.empty(n_events)
    covering = [[] for _ in range(n_events)]
    for w, s in enumerate(starts):
        for e in range(s, min(s + window_len, n_events)):
            covering[e].append(w)
    for e in range(n_events):
        o = window_scores[covering[e]]
        m = np.max(r * o)
        out[e] = (m + np.log(np.mean(np.exp(r * o - m)))) / r
    return out


def loop_sample_training_bags(matches, vocab, seed, neg_min_len=4):
    """Bag sampling with a scan over every free run per negative bag."""
    positives, free_runs, max_pos_len = [], [], 0
    for match_id, match in matches.items():
        labels, spans = label_events_by_vocabulary(match, vocab)
        for s, e in dict.fromkeys(spans):
            positives.append(Bag(match_id, s, e - s + 1, 1))
            max_pos_len = max(max_pos_len, e - s + 1)
        i = 0
        while i < len(labels):
            j = i
            while j < len(labels) and not labels[j]:
                j += 1
            if j > i:
                free_runs.append((match_id, i, j - i))
            i = j + 1
    max_pos_len = max(max_pos_len, neg_min_len)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
    negatives = []
    for _ in range(len(positives)):
        for _attempt in range(200):
            length = int(rng.integers(neg_min_len, max_pos_len + 1))
            eligible = [fr for fr in free_runs if fr[2] >= length]
            if not eligible:
                continue
            pick = int(rng.integers(sum(fr[2] - length + 1 for fr in eligible)))
            for match_id, run_start, run_len in eligible:
                if pick < run_len - length + 1:
                    negatives.append(Bag(match_id, run_start + pick, length, 0))
                    break
                pick -= run_len - length + 1
            break
        else:
            raise TrainingError("not enough negative material")
    return positives + negatives


def proposal_fbeta(scored, threshold, beta=2.0, ratio=0.5):
    """F-beta of proposal extraction at a threshold, micro-averaged over
    (event scores, event labels, event types) rows."""
    tp = fp = fn = 0
    for scores, labels, types in scored:
        a, b, c = overlap_match(extract_proposals(scores, threshold, types),
                                labels_to_intervals(labels), ratio)
        tp += a
        fp += b
        fn += c
    return fbeta(*precision_recall(tp, fp, fn), beta)


def random_scored_match(rng, n):
    """Smooth random scores in (0, 1), labels, and types with goal-shots."""
    scores = np.clip(np.convolve(rng.uniform(size=n + 4), np.ones(5) / 5, "valid"), 0, 1)
    labels = np.convolve(rng.uniform(size=n + 2) < 0.25, np.ones(3), "valid") > 0
    types = tuple(rng.choice(["pass", "shot", "goal-shot"], size=n, p=[0.7, 0.2, 0.1]))
    return scores, labels, types


def typed_match(types, match_id="m"):
    events = [Event(index=i, t=2.0 * i, type=t, team=0, player=1,
                    sx=50, sy=50, ex=50, ey=50, outcome=1, qualifier=0)
              for i, t in enumerate(types)]
    return Match(match_id=match_id, events=events)


# ---------------------------------------------------------------------------
# vocabulary and labels

def test_build_action_vocabulary_collects_training_sequences():
    m = typed_match(["pass", "shot", "save", "pass", "foul", "card"])
    summaries = {"m": Summary("m", [Action(0, 2), Action(4, 5)])}
    vocab = build_action_vocabulary({"m": m}, summaries)
    assert vocab == {("pass", "shot", "save"), ("foul", "card")}


def test_build_action_vocabulary_requires_actions():
    m = typed_match(["pass"])
    with pytest.raises(TrainingError, match="empty"):
        build_action_vocabulary({"m": m}, {"m": Summary("m", [])})


def test_find_vocabulary_spans_all_lengths_and_overlaps():
    types = ("a", "b", "a", "b", "c", "a", "b")
    vocab = {("a", "b"), ("b", "a", "b"), ("c",)}
    spans = find_vocabulary_spans(types, vocab)
    assert spans == [(0, 1), (1, 3), (2, 3), (4, 4), (5, 6)]
    assert spans == reference.find_vocabulary_spans(types, vocab)


def test_find_vocabulary_spans_matches_the_loop_reference():
    rng = np.random.default_rng(11)
    alphabet = ("a", "b", "c", "d")
    # a sequence that is a prefix of another, hits that overlap themselves,
    # and a vocabulary with no hit at all
    fixed = [
        ("aab", {("a",), ("a", "a"), ("a", "a", "b")}),
        ("aaaa", {("a", "a"), ("a", "a", "a")}),
        ("abcabc", {("d", "d"), ("c", "a", "d")}),
        ("", {("a",)}),
    ]
    for text, vocab in fixed:
        types = tuple(text)
        assert find_vocabulary_spans(types, vocab) == reference.find_vocabulary_spans(types,
                                                                                      vocab)
    assert find_vocabulary_spans(tuple("abcabc"), {("d", "d")}) == []
    hits = 0
    for _ in range(300):
        k = int(rng.integers(1, 3))  # small alphabets so hits are common
        types = tuple(alphabet[j] for j in rng.integers(k + 1, size=int(rng.integers(0, 60))))
        vocab = set()
        for _ in range(int(rng.integers(1, 8))):
            seq = tuple(alphabet[j] for j in rng.integers(k + 1, size=int(rng.integers(1, 6))))
            vocab.add(seq)
            if rng.random() < 0.3:  # and one of its prefixes
                vocab.add(seq[: int(rng.integers(1, len(seq) + 1))])
        want = reference.find_vocabulary_spans(types, vocab)
        assert find_vocabulary_spans(types, vocab) == want
        hits += len(want)
    assert hits > 1000


def test_label_events_union_of_spans():
    m = typed_match(["a", "b", "x", "b", "a", "b"])
    labels, spans = label_events_by_vocabulary(m, {("a", "b")})
    assert spans == [(0, 1), (4, 5)]
    assert list(labels) == [True, True, False, False, True, True]


def test_sample_training_bags_structure_and_determinism():
    types = ["x"] * 30 + ["a", "b", "c"] + ["x"] * 30 + ["a", "b", "c"] + ["x"] * 30
    m = typed_match(types)
    vocab = {("a", "b", "c")}
    bags = sample_training_bags({"m": m}, vocab, seed=5, neg_min_len=2)
    pos = [b for b in bags if b.label == 1]
    neg = [b for b in bags if b.label == 0]
    assert len(pos) == 2 and len(neg) == 2
    assert {(b.start, b.length) for b in pos} == {(30, 3), (63, 3)}
    labels, _ = label_events_by_vocabulary(m, vocab)
    for b in neg:
        assert 2 <= b.length <= 3
        assert not labels[b.start : b.start + b.length].any()
    again = sample_training_bags({"m": m}, vocab, seed=5, neg_min_len=2)
    assert again == bags
    other = sample_training_bags({"m": m}, vocab, seed=6, neg_min_len=2)
    assert {b.start for b in other if not b.label} != {b.start for b in neg} or other != bags


def test_sample_training_bags_matches_the_scan_over_runs():
    ds = generate_dataset(GenConfig(matches=4, events_mean=300), 3)
    matches = {m.match_id: m for m in ds.matches}
    vocab = build_action_vocabulary(matches, ds.summaries)
    for seed in (0, 1, 7):
        for neg_min_len in (2, 4):
            assert (sample_training_bags(matches, vocab, seed, neg_min_len)
                    == loop_sample_training_bags(matches, vocab, seed, neg_min_len))
    # free runs of 2 and 5 events and positives of 9: most drawn lengths fit
    # no run, so draws are retried
    types = ["x"] * 2 + list("abcdefghi") + ["x"] * 5 + list("abcdefghi") + ["x"] * 2
    m = typed_match(types)
    vocab = {tuple("abcdefghi")}
    for seed in range(5):
        bags = sample_training_bags({"m": m}, vocab, seed, neg_min_len=2)
        assert bags == loop_sample_training_bags({"m": m}, vocab, seed, neg_min_len=2)
        assert all(b.length <= 5 for b in bags if not b.label)


def test_sample_training_bags_error_paths():
    m = typed_match(["a", "b"] * 10)
    with pytest.raises(TrainingError, match="no positive bags"):
        sample_training_bags({"m": m}, {("z", "z")}, seed=0)
    # everything labeled positive leaves no room for negatives
    with pytest.raises(TrainingError, match="negative"):
        sample_training_bags({"m": m}, {("a", "b")}, seed=0)


# ---------------------------------------------------------------------------
# windows and fusion

def test_window_starts_cover_every_event():
    assert window_starts(23, 10, 5) == [0, 5, 10, 13]
    assert window_starts(20, 10, 5) == [0, 5, 10]
    assert window_starts(10, 10, 5) == [0]
    assert window_starts(4, 10, 5) == [0]
    for n, w, s in [(23, 10, 5), (57, 10, 5), (31, 8, 3)]:
        starts = window_starts(n, w, s)
        covered = set()
        for st in starts:
            covered.update(range(st, st + w))
        assert set(range(n)) <= covered
        assert starts[-1] == n - w


def test_fuse_event_scores_hand_case():
    r = 8.0
    a, b = 0.2, 0.7
    out = fuse_event_scores([0, 2], 3, np.array([a, b]), 5, r)

    def lse(vals):
        return float(np.log(np.mean(np.exp(r * np.asarray(vals)))) / r)

    assert out[0] == pytest.approx(a)
    assert out[1] == pytest.approx(a)
    assert out[2] == pytest.approx(lse([a, b]))
    assert out[3] == pytest.approx(b)
    assert out[4] == pytest.approx(b)


def test_fusion_envelope_and_monotonicity():
    rng = np.random.default_rng(77)
    for _ in range(200):
        n = int(rng.integers(1, 10))
        o = rng.uniform(0.0, 1.0, size=n)
        for r in (1.0, 8.0, 100.0):
            s = fuse_event_scores([0] * n, 1, o, 1, r)[0]
            assert o.mean() - 1e-12 <= s <= o.max() + 1e-12
            j = int(rng.integers(n))
            raised = o.copy()
            raised[j] += 0.3
            s2 = fuse_event_scores([0] * n, 1, raised, 1, r)[0]
            assert s2 >= s - 1e-12
        s100 = fuse_event_scores([0] * n, 1, o, 1, 100.0)[0]
        assert abs(s100 - o.max()) <= np.log(n) / 100.0 + 1e-12


# ---------------------------------------------------------------------------
# proposals and threshold

def test_extract_proposals_runs_and_goal_rule():
    scores = np.array([0.9, 0.95, 0.2, 0.8, 0.85])
    types = ("pass", "pass", "pass", "pass", "pass")
    assert extract_proposals(scores, 0.5, types) == [(0, 1), (3, 4)]
    # a goal event terminates its run even when the next event still scores high
    types = ("pass", "goal-shot", "pass", "pass", "pass")
    assert extract_proposals(np.array([0.9] * 5), 0.5, types) == [(0, 1), (2, 4)]
    assert extract_proposals(np.array([0.1, 0.2]), 0.5, ("pass", "pass")) == []
    with pytest.raises(ShapeError, match="3 event scores for a match of 2 events"):
        extract_proposals(np.array([0.9] * 3), 0.5, ("pass", "pass"))


def test_labels_to_intervals():
    labels = np.array([True, True, False, True, False, False, True])
    assert labels_to_intervals(labels) == [(0, 1), (3, 3), (6, 6)]
    assert labels_to_intervals(np.zeros(3, dtype=bool)) == []
    assert labels_to_intervals(np.ones(2, dtype=bool)) == [(0, 1)]


def test_select_threshold_prefers_lowest_tie():
    scores = np.array([0.9, 0.9, 0.1, 0.9, 0.9])
    labels = np.array([1, 1, 0, 1, 1], dtype=bool)
    types = ("pass",) * 5
    scored = [(scores, labels, types)]
    assert proposal_fbeta(scored, 0.5) == pytest.approx(1.0)
    assert proposal_fbeta(scored, 0.05) == pytest.approx(0.0)
    t, f = select_threshold(scored)
    assert f == pytest.approx(1.0)
    assert t == pytest.approx(0.11)  # first grid point where the split works


def test_vectorised_fusion_matches_loop():
    rng = np.random.default_rng(91)
    for n, window, stride in [(1, 10, 5), (7, 10, 5), (23, 10, 5), (57, 10, 5), (31, 8, 3),
                              (40, 6, 1)]:
        starts = window_starts(n, window, stride)
        wlen = min(window, n)
        o = rng.uniform(size=len(starts))
        for r in (1.0, 8.0, 100.0, 2000.0):  # 2000: a shared shift would underflow
            want = loop_fuse_event_scores(starts, wlen, o, n, r)
            got = fuse_event_scores(starts, wlen, o, n, r)
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_vectorised_proposals_and_threshold_match_loops():
    rng = np.random.default_rng(17)
    for _ in range(30):
        scores, labels, types = random_scored_match(rng, int(rng.integers(1, 120)))
        for t in (0.0, 0.3, 0.5, 0.62, 1.0):
            want = reference.extract_proposals(scores, t, types)
            assert extract_proposals(scores, t, types) == want
        assert labels_to_intervals(labels) == reference.labels_to_intervals(labels)
    scored = [random_scored_match(rng, int(rng.integers(40, 200))) for _ in range(6)]
    assert select_threshold(scored) == reference.select_threshold(scored)
    assert (select_threshold(scored, beta=1.0, ratio=0.3)
            == reference.select_threshold(scored, 1.0, 0.3))


def test_one_pass_threshold_search_equals_the_loop():
    rng = np.random.default_rng(23)
    for _ in range(20):
        scored = [random_scored_match(rng, int(rng.integers(1, 150)))
                  for _ in range(int(rng.integers(1, 5)))]
        for beta, ratio in ((2.0, 0.5), (1.0, 0.3), (2.0, 0.7)):
            assert (select_threshold(scored, beta, ratio)
                    == reference.select_threshold(scored, beta, ratio))
    n = 60
    _, labels, types = random_scored_match(rng, n)
    for scores in (np.full(n, 0.005),                  # below every threshold
                   np.full(n, 0.995),                  # above every threshold
                   rng.integers(0, 101, size=n) / 100.0,  # on the grid points
                   np.where(rng.uniform(size=n) < 0.5, 0.001, 0.999)):
        scored = [(scores, labels, types)]
        assert select_threshold(scored) == reference.select_threshold(scored)


def test_fold_ground_truths_are_in_start_order():
    """overlap_match walks ground truths in start order; a summary file may
    list its actions in any order."""
    cfg = load_config(None, {"gen.matches": 10, "gen.events_mean": 100, "eval.kfold": 5},
                      use_env=False)
    ds = generate_dataset(cfg.gen_config(), 3)
    match_id = ds.matches[0].match_id
    ds.summaries[match_id].actions.reverse()
    gt = pipeline.prepare_fold(ds, cfg, 0, 3).gt_intervals[match_id]
    assert len(gt) > 1 and gt == sorted(gt)


# ---------------------------------------------------------------------------
# model and training

def test_mil_forward_outputs_probability():
    rng = np.random.default_rng(1)
    params = init_mil_params(6, 4, rng)
    x = rng.normal(size=(9, 6))
    _, p, _ = mil_loss_grads(params, x, 1.0)
    assert isinstance(p, float) and 0.0 < p < 1.0
    _, p2, _ = mil_loss_grads(params, x, 0.0)
    assert p == p2


def test_mil_loss_grads_is_a_one_bag_batch():
    """Criterion 1 differentiates mil_loss_grads: it must run the kernels
    training runs, and return exactly what they return."""
    rng = np.random.default_rng(2)
    params = init_mil_params(5, 4, rng)
    for n in (1, 6):
        x = rng.normal(size=(n, 5))
        loss, p, grads = mil_loss_grads(params, x, 1.0)
        bloss, bp, bgrads = mil_batch_loss_grads(params, [x], [1.0])
        assert loss == bloss and p == bp[0]
        assert set(grads) == set(bgrads)
        for k, g in grads.items():
            np.testing.assert_array_equal(g, bgrads[k])


def test_mil_loss_grads_matches_per_example_oracle():
    rng = np.random.default_rng(3)
    for n in (1, 2, 9):
        params = init_mil_params(6, 5, rng)
        x = rng.normal(size=(n, 6))
        y = float(n % 2)
        loss, p, grads = mil_loss_grads(params, x, y)
        want_loss, want_p, want = reference.mil_loss_grads(params, x, y)
        assert abs(loss - want_loss) <= 1e-12 and abs(p - want_p) <= 1e-12
        assert set(grads) == set(want)
        for k, g in grads.items():
            assert np.max(np.abs(g - want[k])) <= 1e-12 * max(1.0, np.max(np.abs(want[k])))


def test_batched_bag_gradients_match_summed_per_bag_gradients():
    rng = np.random.default_rng(4)
    params = init_mil_params(6, 5, rng)
    for lengths in ([1], [4, 1, 13, 7, 7], [9] * 6):
        xs = [rng.normal(size=(n, 6)) for n in lengths]
        ys = [float(rng.integers(0, 2)) for _ in lengths]
        loss, p, grads = mil_batch_loss_grads(params, xs, ys)
        want_loss = 0.0
        want_p = []
        want = {k: np.zeros_like(v) for k, v in params.items()}
        for x, y in zip(xs, ys):
            l1, p1, g1 = reference.mil_loss_grads(params, x, y)
            want_loss += l1
            want_p.append(p1)
            for k, g in g1.items():
                want[k] += g
        assert loss == pytest.approx(want_loss, rel=1e-12)
        assert np.max(np.abs(p - want_p)) <= 1e-12
        assert set(grads) == set(want)
        for k, g in grads.items():
            assert np.max(np.abs(g - want[k])) <= 1e-10 * np.max(np.abs(want[k]))


def test_batched_event_scores_match_per_window_loop():
    rng = np.random.default_rng(6)
    params = init_mil_params(5, 4, rng)
    for n in (3, 10, 57):
        cfg = MilConfig(hidden=4, window=10, stride=5)
        feats = rng.normal(size=(n, 5))
        starts = window_starts(n, cfg.window, cfg.stride)
        wlen = min(cfg.window, n)
        wscores = np.array([reference.mil_forward(params, feats[s : s + wlen])[0]
                            for s in starts])
        want = loop_fuse_event_scores(starts, wlen, wscores, n, cfg.lse_r)
        assert np.allclose(score_events(params, feats, cfg), want, rtol=1e-12, atol=0.0)


def _toy_problem(seed=31):
    """Sequences where a 16-event stretch carries a marker in column 0."""
    rng = np.random.default_rng(seed)
    feats = {}
    spans = {"a": [(12, 27), (48, 63)], "b": [(20, 35), (55, 70)]}
    for mid in ("a", "b"):
        f = rng.normal(size=(80, 5))
        for s, e in spans[mid]:
            f[s : e + 1, 0] += 2.5
        feats[mid] = f
    bags = [Bag("a", s, e - s + 1, 1) for s, e in spans["a"]]
    bags += [Bag("a", st, 8, 0) for st in (0, 30, 66)]
    labels_b = np.zeros(80, dtype=bool)
    for s, e in spans["b"]:
        labels_b[s : e + 1] = True
    val = [("b", labels_b, ("pass",) * 80)]
    return bags, feats, val


def test_train_mil_learns_marked_stretches():
    bags, feats, val = _toy_problem()
    cfg = MilConfig(hidden=8, window=8, stride=4, epochs=40, patience=40,
                    batch=8, lr=0.02)
    model = train_mil(bags, feats, val, cfg, seed=3)
    assert model.best_val_f >= 0.8
    assert 0.0 < model.threshold < 1.0
    assert len(model.history) >= 1
    assert model.history[-1]["loss"] < model.history[0]["loss"]
    # the returned parameters reproduce the recorded validation score
    scored = [(score_events(model.params, feats["b"], cfg), val[0][1], val[0][2])]
    assert proposal_fbeta(scored, model.threshold) == pytest.approx(model.best_val_f)


def test_train_mil_trains_float32_parameters():
    bags, feats, val = _toy_problem()
    model = train_mil(bags, feats, val, MilConfig(hidden=4, window=8, stride=4, epochs=2,
                                                  batch=8), seed=3)
    assert {v.dtype for v in model.params.values()} == {np.dtype(np.float32)}
    assert feats["a"].dtype == np.float64  # the caller's features are not touched


def test_validation_scores_are_the_scores_of_the_returned_model(monkeypatch):
    """The threshold picked on validation scores is applied to test scores
    computed the same way: the validation scores of the kept epoch equal
    ``score_matches`` of the returned model, byte for byte."""
    bags, feats, val = _toy_problem()
    seen = []
    real = stage1.select_threshold

    def recording(scored, beta):
        seen.append([s for s, _, _ in scored])
        return real(scored, beta)

    monkeypatch.setattr(stage1, "select_threshold", recording)
    cfg = MilConfig(hidden=8, window=8, stride=4, epochs=6, batch=8, lr=0.02)
    model = train_mil(bags, feats, val, cfg, seed=3)
    got = pipeline.score_matches(model, {"b": feats["b"]})["b"]
    assert got.tobytes() == seen[model.best_epoch][0].tobytes()


def test_reloaded_model_scores_a_match_byte_identically(tmp_path):
    bags, feats, val = _toy_problem()
    cfg = MilConfig(hidden=8, window=8, stride=4, epochs=3, batch=8, lr=0.02)
    model = train_mil(bags, feats, val, cfg, seed=3)
    path = str(tmp_path / "mil.ckpt")
    save_checkpoint(model.to_checkpoint(), path)
    back = MilModel.from_checkpoint(load_checkpoint(path))
    assert back.threshold == model.threshold
    for name, value in model.params.items():
        assert back.params[name].dtype == np.float32
        assert back.params[name].tobytes() == value.tobytes()
    want = score_events(model.params, feats["b"], cfg)
    assert score_events(back.params, feats["b"], back.config).tobytes() == want.tobytes()


@pytest.mark.parametrize("value", [0.1, 1e300], ids=["float64", "overflow"])
def test_checkpoint_values_that_are_not_float32_are_refused(value):
    """Stage 1 writes only float32 values; anything else (a model of an
    earlier version, a damaged file) is a data error, not a cast."""
    params = {k: v.astype(np.float32)
              for k, v in init_mil_params(5, 4, np.random.default_rng(8)).items()}
    ckpt = MilModel(params=params, config=MilConfig(hidden=4)).to_checkpoint()
    ckpt["lstm.U"] = ckpt["lstm.U"].astype(np.float64)
    ckpt["lstm.U"][1, 2] = value
    with pytest.raises(DataFormatError, match="'lstm.U'.*retrain"):
        MilModel.from_checkpoint(ckpt)


def test_checkpoint_stride_above_window_is_refused():
    """A stride above the window leaves events that no window scores."""
    params = {k: v.astype(np.float32)
              for k, v in init_mil_params(5, 4, np.random.default_rng(8)).items()}
    cfg = MilConfig(hidden=4, window=10, stride=10)
    ckpt = MilModel(params=params, config=cfg).to_checkpoint()
    MilModel.from_checkpoint(ckpt)
    ckpt["_meta.stride"][0] = 11
    with pytest.raises(DataFormatError, match="stride 11 is above its window 10"):
        MilModel.from_checkpoint(ckpt)


def test_train_mil_requires_both_classes():
    bags, feats, val = _toy_problem()
    only_pos = [b for b in bags if b.label == 1]
    with pytest.raises(TrainingError, match="both classes"):
        train_mil(only_pos, feats, val, MilConfig(epochs=1), seed=0)


def test_mil_model_checkpoint_round_trip():
    rng = np.random.default_rng(8)
    cfg = MilConfig(hidden=4, window=12, stride=3, lse_r=5.0)
    # train_mil's parameters are float32
    params = {k: v.astype(np.float32) for k, v in init_mil_params(5, 4, rng).items()}
    model = MilModel(params=params, config=cfg, threshold=0.37)
    back = MilModel.from_checkpoint(model.to_checkpoint())
    assert back.threshold == pytest.approx(0.37)
    assert back.config.window == 12
    assert back.config.stride == 3
    assert back.config.lse_r == 5.0
    for k, v in model.params.items():
        assert np.array_equal(back.params[k], v)
    # checkpoints written with the removed literal_lse option still load
    old = dict(model.to_checkpoint(), **{"_meta.literal_lse": np.array([0.0])})
    assert set(MilModel.from_checkpoint(old).params) == set(model.params)
