"""Stage 3: multiple summaries from proposal scores.

Proposal scores become Plackett-Luce preference weights; perturbing their
logs with Gumbel noise and sorting gives ranking samples whose distribution
at noise scale 1 is exactly the Plackett-Luce model (smaller scales sharpen
toward the deterministic score ordering).  Each sampled ranking is greedily
cut to a duration budget and reordered chronologically.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

THETA_FLOOR = 1e-9
BUDGET_MODES = ("stop_first", "skip_continue")


def clamp_theta(theta: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(theta, dtype=float), THETA_FLOOR)


def pl_probability(theta: np.ndarray, ranking) -> float:
    """Probability of a complete ranking under the Plackett-Luce model:
    product over positions of the ranked item's weight over the weight of
    everything not yet placed."""
    th = clamp_theta(theta)
    remaining = float(th.sum())
    prob = 1.0
    for idx in ranking:
        prob *= th[idx] / remaining
        remaining -= th[idx]
    return prob


def sample_ranking(theta: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Gumbel perturbation sampling: argsort of log(theta) + Gumbel(0, sigma),
    descending.  sigma = 0 degenerates to the deterministic score ordering
    with ties broken toward the lower index."""
    th = clamp_theta(theta)
    keys = np.log(th)
    if sigma > 0:
        u = rng.uniform(0.0, 1.0, size=len(th))
        keys = keys - sigma * np.log(-np.log(u))
    return np.argsort(-keys, kind="stable")


@dataclass
class Candidate:
    """One budgeted summary drawn from one ranking sample."""

    sample_index: int
    ranking: list[int]
    chosen: list[int]  # chronological order
    total_duration: float
    over_budget: bool = False


def assemble_summary(ranking, durations, starts, budget: float, tol: float, mode: str,
                     sample_index: int = 0) -> Candidate:
    """Greedy budget cut of a ranking.

    ``stop_first`` walks the ranking and stops at the first proposal that
    does not fit; only the top-ranked pick may exceed the budget, by at most
    ``tol`` (a lone top pick larger than that is still emitted, flagged
    over-budget).  ``skip_continue`` keeps walking and adds any proposal
    that still fits.  Chosen proposals are reordered chronologically.
    """
    if mode not in BUDGET_MODES:
        raise ValueError("unknown budget mode %r" % mode)
    chosen: list[int] = []
    total = 0.0
    over = False
    for pos, idx in enumerate(ranking):
        d = durations[idx]
        if not chosen:
            chosen.append(idx)
            total += d
            if d > budget * (1.0 + tol):
                over = True
                break
            continue
        if total + d <= budget:
            chosen.append(idx)
            total += d
        elif mode == "stop_first":
            break
    chosen.sort(key=lambda i: starts[i])
    return Candidate(
        sample_index=sample_index,
        ranking=list(int(i) for i in ranking),
        chosen=[int(i) for i in chosen],
        total_duration=float(total),
        over_budget=over,
    )


def generate_candidates(theta, durations, starts, budget: float, k: int, sigma: float,
                        seed_key: tuple, tol: float, mode: str) -> list[Candidate]:
    """k budgeted candidates; sample j uses its own seeded Gumbel stream so
    the j-th candidate is reproducible independently of the others."""
    out = []
    for j in range(k):
        rng = np.random.default_rng(np.random.SeedSequence(list(seed_key) + [j]))
        ranking = sample_ranking(np.asarray(theta, dtype=float), sigma, rng)
        out.append(assemble_summary(ranking, durations, starts, budget, tol, mode, j))
    return out


def baseline_ranking(theta, mode: str, rng: np.random.Generator | None = None) -> np.ndarray:
    """Reference rankings: ``descending`` by score (ties to lower index) or
    a uniform ``random`` permutation."""
    theta = np.asarray(theta, dtype=float)
    if mode == "descending":
        return np.argsort(-theta, kind="stable")
    if mode == "random":
        if rng is None:
            raise ValueError("random baseline needs an rng")
        return rng.permutation(len(theta))
    raise ValueError("unknown ranking mode %r" % mode)


def select_best_index(f_scores: np.ndarray) -> int:
    """Pick the sample index with the best mean score across matches.

    f_scores: (n_matches, k).  Ties resolve to the lowest index.
    """
    means = np.asarray(f_scores, dtype=float).mean(axis=0)
    return int(np.argmax(means))
