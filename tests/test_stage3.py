"""Ranking stage: Plackett-Luce probabilities, Gumbel sampling, budget
assembly, candidate generation, and baselines."""
import itertools

import numpy as np
import pytest

from soccersum.stage3 import (
    THETA_FLOOR,
    Candidate,
    assemble_summary,
    baseline_ranking,
    clamp_theta,
    generate_candidates,
    pl_probability,
    sample_ranking,
    select_best_index,
)


def replay_assembly(ranking, durations, budget, tol=0.1, mode="stop_first"):
    """Plain re-statement of the budget walk, kept independent on purpose."""
    picked = []
    total = 0.0
    for idx in ranking:
        d = durations[idx]
        if not picked:
            picked.append(idx)
            total += d
            if d > budget * (1 + tol):
                return picked, total, True
            continue
        if total + d <= budget:
            picked.append(idx)
            total += d
        elif mode == "stop_first":
            break
    return picked, total, False


# ---------------------------------------------------------------------------
# probabilities

def test_clamp_floor():
    out = clamp_theta(np.array([-1.0, 0.0, 1e-12, 0.5]))
    assert out[0] == out[1] == THETA_FLOOR
    assert out[2] == THETA_FLOOR
    assert out[3] == 0.5


def test_pl_probability_hand_case():
    theta = np.array([2.0, 1.0, 1.0])
    assert pl_probability(theta, (0, 1, 2)) == pytest.approx(0.25)
    assert pl_probability(theta, (1, 0, 2)) == pytest.approx((1 / 4) * (2 / 3))
    assert pl_probability(theta, (2, 1, 0)) == pytest.approx((1 / 4) * (1 / 3))


def test_pl_probability_zero_weight_is_floored():
    theta = np.array([0.0, 1.0])
    p_good = pl_probability(theta, (1, 0))
    p_bad = pl_probability(theta, (0, 1))
    assert p_bad > 0.0
    assert p_good + p_bad == pytest.approx(1.0)
    assert p_good > 0.999


def test_pl_enumeration_sums_to_one():
    rng = np.random.default_rng(12)
    for n in (2, 3, 4, 5):
        theta = rng.uniform(0.1, 3.0, size=n)
        total = sum(pl_probability(theta, perm)
                    for perm in itertools.permutations(range(n)))
        assert total == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# sampling

def test_sample_ranking_zero_noise_is_descending_stable():
    rng = np.random.default_rng(0)
    theta = np.array([0.2, 0.9, 0.9, 0.5])
    out = sample_ranking(theta, 0.0, rng)
    assert list(out) == [1, 2, 3, 0]
    assert list(sample_ranking(np.ones(5), 0.0, rng)) == [0, 1, 2, 3, 4]


def test_sample_ranking_tiny_noise_matches_score_order():
    theta = np.array([1.0, 2.0, 3.0, 4.0])
    for trial in range(100):
        rng = np.random.default_rng(trial)
        assert list(sample_ranking(theta, 1e-6, rng)) == [3, 2, 1, 0]


def test_sample_ranking_reproducible_and_noisy():
    theta = np.array([1.0, 1.2, 0.8, 1.1, 0.9])
    a = sample_ranking(theta, 1.0, np.random.default_rng(42))
    b = sample_ranking(theta, 1.0, np.random.default_rng(42))
    assert list(a) == list(b)
    seen = {tuple(sample_ranking(theta, 1.0, np.random.default_rng(i)))
            for i in range(50)}
    assert len(seen) > 5  # real dispersion at unit noise


def test_sample_ranking_is_permutation():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        theta = rng.uniform(0.01, 2.0, size=n)
        out = sample_ranking(theta, 0.7, rng)
        assert sorted(out) == list(range(n))


# ---------------------------------------------------------------------------
# budget assembly

def test_assembly_stop_first_and_chronology():
    cand = assemble_summary([0, 1, 2], [50.0, 30.0, 40.0],
                            [100.0, 0.0, 200.0], 100.0, 0.1, "stop_first")
    assert cand.chosen == [1, 0]  # reordered by start time
    assert cand.total_duration == pytest.approx(80.0)
    assert cand.over_budget is False


def test_assembly_skip_continue_takes_later_fits():
    ranking = [0, 1, 2]
    durations = [60.0, 50.0, 35.0]
    starts = [0.0, 10.0, 20.0]
    stop = assemble_summary(ranking, durations, starts, 100.0, 0.1, "stop_first")
    skip = assemble_summary(ranking, durations, starts, 100.0, 0.1, "skip_continue")
    assert stop.chosen == [0]
    assert skip.chosen == [0, 2]
    assert skip.total_duration == pytest.approx(95.0)


def test_assembly_first_pick_gets_tolerance():
    cand = assemble_summary([0, 1], [105.0, 10.0], [0.0, 1.0], 100.0, 0.1, "stop_first")
    assert cand.chosen == [0]
    assert cand.over_budget is False
    assert cand.total_duration == pytest.approx(105.0)


def test_assembly_lone_oversized_pick_is_flagged():
    cand = assemble_summary([0, 1], [120.0, 5.0], [0.0, 1.0], 100.0, 0.1, "stop_first")
    assert cand.chosen == [0]
    assert cand.over_budget is True
    assert cand.total_duration == pytest.approx(120.0)


def test_assembly_rejects_an_unknown_mode():
    # "stop-first" once ran as skip_continue and chose [0, 2]
    with pytest.raises(ValueError, match="unknown budget mode 'stop-first'"):
        assemble_summary([0, 1, 2], [50.0, 60.0, 40.0], [0.0, 1.0, 2.0], 100.0, 0.1,
                         "stop-first")


def test_assembly_empty_ranking():
    cand = assemble_summary([], [], [], 100.0, 0.1, "stop_first")
    assert cand.chosen == []
    assert cand.total_duration == 0.0
    assert cand.over_budget is False


def test_assembly_fuzz_against_replay():
    rng = np.random.default_rng(1234)
    for _ in range(300):
        n = int(rng.integers(1, 13))
        durations = rng.uniform(10.0, 120.0, size=n).tolist()
        starts = rng.permutation(n).astype(float).tolist()
        budget = float(rng.uniform(80.0, 300.0))
        ranking = rng.permutation(n).tolist()
        for mode in ("stop_first", "skip_continue"):
            cand = assemble_summary(ranking, durations, starts, budget, 0.1, mode)
            picked, total, over = replay_assembly(ranking, durations, budget, mode=mode)
            assert sorted(cand.chosen) == sorted(picked)
            assert cand.total_duration == pytest.approx(total)
            assert cand.over_budget == over
            # chronological output
            assert cand.chosen == sorted(cand.chosen, key=lambda i: starts[i])
            # budget discipline: within tolerance unless explicitly flagged
            if not over:
                assert total <= budget * 1.1 + 1e-9
            else:
                assert len(cand.chosen) == 1
            if mode == "skip_continue" and not over:
                # greedy-maximal: nothing left out would still fit
                for idx in set(ranking) - set(cand.chosen):
                    assert total + durations[idx] > budget


def test_generate_candidates_deterministic_and_prefix_stable():
    theta = [0.9, 0.3, 0.7, 0.5, 0.2]
    durations = [40.0, 30.0, 50.0, 20.0, 60.0]
    starts = [10.0, 20.0, 30.0, 40.0, 50.0]
    a = generate_candidates(theta, durations, starts, 100.0, k=10,
                            sigma=0.5, seed_key=(7, 9, 0), tol=0.1,
                            mode="stop_first")
    b = generate_candidates(theta, durations, starts, 100.0, k=10,
                            sigma=0.5, seed_key=(7, 9, 0), tol=0.1,
                            mode="stop_first")
    assert a == b
    assert [c.sample_index for c in a] == list(range(10))
    # candidate j does not depend on how many candidates were requested
    short = generate_candidates(theta, durations, starts, 100.0, k=3,
                                sigma=0.5, seed_key=(7, 9, 0), tol=0.1,
                                mode="stop_first")
    assert short == a[:3]
    other = generate_candidates(theta, durations, starts, 100.0, k=10,
                                sigma=0.5, seed_key=(7, 9, 1), tol=0.1,
                                mode="stop_first")
    assert other != a
    for c in a:
        assert isinstance(c, Candidate)
        assert sorted(c.ranking) == list(range(5))


# ---------------------------------------------------------------------------
# baselines and selection

def test_baseline_ranking_modes():
    theta = np.array([0.5, 0.7, 0.5])
    assert list(baseline_ranking(theta, "descending")) == [1, 0, 2]
    r1 = baseline_ranking(theta, "random", np.random.default_rng(5))
    r2 = baseline_ranking(theta, "random", np.random.default_rng(5))
    assert list(r1) == list(r2)
    assert sorted(r1) == [0, 1, 2]
    with pytest.raises(ValueError, match="rng"):
        baseline_ranking(theta, "random")
    with pytest.raises(ValueError, match="unknown"):
        baseline_ranking(theta, "alphabetical")


def test_select_best_index_mean_and_ties():
    scores = np.array([[0.4, 0.6, 0.6],
                       [0.6, 0.6, 0.6]])
    assert select_best_index(scores) == 1  # ties to the lowest index
    assert select_best_index(np.array([[0.1, 0.9]])) == 1
