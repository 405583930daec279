"""Scoring utilities: interval overlap, summary-action matching, k-fold
protocol splits, naive selection baselines, and table rendering."""
import numpy as np
import pytest

from soccersum.core import Action, Event, Match, SoccersumError
from soccersum.evaluation import (
    SHOTS_ON_TARGET_TYPES,
    Counts,
    fbeta,
    format_csv,
    format_table,
    kfold_split,
    match_summary_actions,
    overlap_match,
    precision_recall,
    soccer_baseline,
)

import reference
from reference import interval_overlap


def spaced_match(n=20, dt=10.0):
    events = [Event(index=i, t=dt * i, type="pass", team=0, player=1,
                    sx=50, sy=50, ex=50, ey=50, outcome=1, qualifier=0)
              for i in range(n)]
    return Match(match_id="m", events=events)


# ---------------------------------------------------------------------------
# scalar metrics

def test_fbeta_hand_values():
    assert fbeta(0.5, 1.0, 2.0) == pytest.approx(2.5 / 3.0)
    assert fbeta(0.5, 1.0, 1.0) == pytest.approx(2.0 / 3.0)
    assert fbeta(1.0, 1.0, 2.0) == 1.0
    assert fbeta(0.0, 0.0, 2.0) == 0.0
    assert fbeta(1.0, 0.0, 1.0) == 0.0


def test_precision_recall_guards():
    assert precision_recall(3, 1, 2) == (0.75, 0.6)
    assert precision_recall(0, 0, 0) == (0.0, 0.0)
    assert precision_recall(0, 5, 0) == (0.0, 0.0)
    assert precision_recall(0, 0, 5) == (0.0, 0.0)


def test_counts_accumulate_and_report():
    c = Counts()
    c.add(3, 1, 2)
    c.add(1, 0, 0)
    assert (c.tp, c.fp, c.fn) == (4, 1, 2)
    m = c.metrics(beta=2.0)
    assert m["precision"] == pytest.approx(0.8)
    assert m["recall"] == pytest.approx(4 / 6)
    assert m["f"] == pytest.approx(fbeta(0.8, 4 / 6, 2.0))
    assert m["missing"] == pytest.approx(100.0 * (1 - 4 / 6))


# ---------------------------------------------------------------------------
# interval machinery

def test_interval_overlap_inclusive_counts():
    assert interval_overlap((0, 4), (4, 8)) == 1
    assert interval_overlap((0, 4), (5, 8)) == 0
    assert interval_overlap((2, 10), (4, 6)) == 3
    assert interval_overlap((3, 7), (3, 7)) == 5
    assert interval_overlap((5, 6), (0, 2)) == 0


def test_covered_by_any_exact_boundary():
    # one span is covered when one ground truth holds at least ``ratio`` of it
    def covered(span, gts, ratio):
        return overlap_match([span], gts, ratio)[0] == 1

    assert covered((0, 9), [(5, 14)], 0.5) is True  # exactly half
    assert covered((0, 9), [(6, 14)], 0.5) is False
    assert covered((0, 9), [(0, 1), (8, 9)], 0.5) is False  # no union
    assert covered((0, 9), [], 0.5) is False
    assert covered((4, 4), [(0, 20)], 1.0) is True


def test_overlap_match_first_free_consumption():
    assert overlap_match([(0, 9), (20, 29)], [(5, 14), (18, 30)]) == (2, 0, 0)
    # two predictions over one ground truth: the second becomes a false positive
    assert overlap_match([(0, 9), (3, 12)], [(5, 14)]) == (1, 1, 0)
    assert overlap_match([], [(0, 5)]) == (0, 0, 1)
    assert overlap_match([(0, 5)], []) == (0, 1, 0)
    # coverage below the ratio is a miss on both sides
    assert overlap_match([(0, 9)], [(8, 20)]) == (0, 1, 1)
    cases = [
        # two predictions inside one ground truth
        ([(1, 2), (4, 5)], [(0, 6)], 0.5, (1, 1, 0)),
        # the second prediction straddles a consumed and a free ground truth
        ([(0, 1), (2, 5)], [(0, 3), (4, 9)], 0.5, (2, 0, 0)),
        # straddling predictions in a chain, each taking its first free one
        ([(3, 6), (7, 10)], [(0, 4), (5, 8), (9, 12)], 0.5, (2, 0, 1)),
        # below 1/3 a prediction can qualify for ground truths on both sides
        # of one it does not
        ([(0, 9)], [(0, 2), (4, 4), (7, 9)], 0.3, (1, 0, 2)),
        # with no coverage required, any free ground truth qualifies
        ([(0, 9), (10, 10)], [(5, 6)], 0.0, (1, 1, 0)),
    ]
    for preds, gts, ratio, want in cases:
        assert overlap_match(preds, gts, ratio) == want
        assert reference.overlap_match(preds, gts, ratio) == want


def random_intervals(rng, n, mean_len, keep):
    """Sorted, disjoint intervals over n events: consecutive pieces of
    random length, each kept with probability ``keep``."""
    out, start = [], 0
    while start < n:
        end = min(n, start + int(rng.integers(1, 2 * mean_len)))
        if rng.uniform() < keep:
            out.append((start, end - 1))
        start = end
    return out


@pytest.mark.parametrize("ratio", [0.3, 0.5, 0.7])
def test_overlap_match_equals_the_loop_on_random_intervals(ratio):
    rng = np.random.default_rng(int(ratio * 10))
    for _ in range(400):
        n = int(rng.integers(1, 80))
        gts = random_intervals(rng, n, int(rng.integers(1, 12)), rng.uniform(0.2, 0.9))
        preds = random_intervals(rng, n, int(rng.integers(1, 12)), rng.uniform(0.2, 0.9))
        assert overlap_match(preds, gts, ratio) == reference.overlap_match(preds, gts, ratio)
        # predictions in start order may overlap, as template-matching spans do
        starts = np.sort(rng.integers(0, n, size=int(rng.integers(0, 12))))
        spans = sorted((int(s), int(min(n - 1, s + rng.integers(0, 6)))) for s in starts)
        assert overlap_match(spans, gts, ratio) == reference.overlap_match(spans, gts, ratio)


# ---------------------------------------------------------------------------
# summary-action matching

def test_match_summary_actions_windows():
    m = spaced_match()
    gts = [Action(2, 4, "goal"), Action(10, 12, "save")]
    preds = [Action(9, 9, "goal"), Action(5, 6, "save")]
    assert match_summary_actions(preds, gts, m) == (2, 0, 0)
    # window upper edge for the first ground truth is the next one's start
    assert match_summary_actions([Action(10, 10, "goal")], gts, m) == (1, 0, 1)
    assert match_summary_actions([Action(11, 11, "goal")], gts, m) == (0, 1, 2)


def test_match_summary_actions_type_must_agree():
    m = spaced_match()
    gts = [Action(2, 4, "goal")]
    assert match_summary_actions([Action(3, 4, "shot")], gts, m) == (0, 1, 1)
    assert match_summary_actions([Action(3, 4, "goal")], gts, m) == (1, 0, 0)


def test_match_summary_actions_consumes_earliest():
    m = spaced_match()
    gts = [Action(2, 3, "goal"), Action(8, 9, "goal")]
    both = [Action(4, 4, "goal"), Action(6, 6, "goal")]
    assert match_summary_actions(both, gts, m) == (2, 0, 0)
    lone = [Action(5, 5, "goal")]
    assert match_summary_actions(lone, gts, m) == (1, 0, 1)


def test_match_summary_actions_empty_sides():
    m = spaced_match()
    assert match_summary_actions([], [Action(2, 3, "goal")], m) == (0, 0, 1)
    assert match_summary_actions([Action(2, 3, "goal")], [], m) == (0, 1, 0)


# ---------------------------------------------------------------------------
# protocol splits

def test_kfold_split_partitions():
    ids = ["m%02d" % i for i in range(25)]
    folds = kfold_split(ids, k=5, seed=3)
    assert len(folds) == 5
    shards = [tuple(f[2]) for f in folds]  # test shard of each fold
    for train, val, test in folds:
        assert set(train) | set(val) | set(test) == set(ids)
        assert not set(train) & set(val)
        assert not set(train) & set(test)
        assert not set(val) & set(test)
        assert len(test) == 5 and len(val) == 5 and len(train) == 15
    # validation shard of fold i is the test shard of fold i+1
    for i in range(5):
        assert tuple(folds[i][1]) == shards[(i + 1) % 5]


def test_kfold_split_deterministic_and_shuffled():
    ids = ["m%02d" % i for i in range(12)]
    a = kfold_split(ids, k=3, seed=9)
    b = kfold_split(ids, k=3, seed=9)
    assert a == b
    c = kfold_split(ids, k=3, seed=10)
    assert a != c
    assert a[0][2] != ids[:4]  # actually shuffled


def test_kfold_split_needs_enough_items():
    with pytest.raises(SoccersumError, match="k-fold"):
        kfold_split(["a", "b", "c"], k=5)


# ---------------------------------------------------------------------------
# naive baselines

def test_soccer_baseline_type_filters():
    types = ["goal", "pass", "save", "shot", "corner-shot", "goal"]
    assert soccer_baseline("goals", types) == [0, 5]
    assert soccer_baseline("shots_on_target", types) == [0, 2, 3, 5]
    assert set(SHOTS_ON_TARGET_TYPES) == {"goal", "save", "shot"}


def test_soccer_baseline_random_mode():
    types = ["pass"] * 200
    picked = soccer_baseline("random", types, seed=4)
    assert picked == soccer_baseline("random", types, seed=4)
    assert picked != soccer_baseline("random", types, seed=5)
    assert all(0 <= i < 200 for i in picked)
    assert 60 < len(picked) < 140  # roughly half


def test_soccer_baseline_unknown_mode():
    with pytest.raises(ValueError, match="unknown"):
        soccer_baseline("keeper-cam", ["goal"])


# ---------------------------------------------------------------------------
# rendering

def test_format_table_layout():
    text = format_table("Selection", ["method", "precision"],
                        [["random", 0.3333], ["goals", 1.0]])
    lines = text.splitlines()
    assert lines[0] == "Selection"
    assert lines[1].split() == ["method", "precision"]
    assert set(lines[2]) <= {"-", " "}
    assert "0.33" in lines[3] and "0.3333" not in lines[3]
    assert "1.00" in lines[4]


def test_format_csv_four_decimals():
    text = format_csv(["name", "f"], [["a", 0.123456], ["b", 2]])
    assert text == "name,f\na,0.1235\nb,2\n"
