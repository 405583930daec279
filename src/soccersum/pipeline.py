"""End-to-end orchestration: fold preparation, the three processing stages,
and evaluation tables.  The artifacts a run writes, and their provenance,
are defined in ``artifacts``.

Determinism: all randomness flows from the run seed through numbered
substreams (1 match generation, 2 audio, 3/4 stage-1 init and shuffling,
5 bag sampling, 6/7 stage-2 init and shuffling, 8 the random selector
baseline, 9 candidate sampling, 10 the random ranking baseline), each
further keyed by match ordinal where applicable.

Parallelism: ``run_protocol`` and ``run_fold`` run a fold's stage 1 as one
task, each match's audio descriptors as one task, and a fold's stages 2 and
3, evaluation and writes as one task.  At ``jobs > 1`` the tasks run in one
pool of forked worker processes per run (``WorkerPool``); at ``jobs = 1``
the same task functions run inline.  A task computes exactly what it would
inline, so ``--jobs`` never changes any output byte.
"""
from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .artifacts import (
    Provenance,
    save_model_checkpoint,
    write_candidates_json,
    write_features_json,
    write_fold_result,
    write_proposals_json,
    write_results,
    write_scores_csv,
    write_theta_csv,
    write_train_log,
)
# perfbench/workloads.py reads checkpoints and features as ``pipeline.X``
from .artifacts import load_model_checkpoint, read_features_json  # noqa: F401
from .config import PipelineConfig
from .core import (
    Action,
    ConfigError,
    DataFormatError,
    action_duration,
    action_type,
    naming,
)
from .evaluation import (
    Counts,
    format_table,
    kfold_split,
    match_summary_actions,
    overlap_match,
    soccer_baseline,
)
from .features import MetadataEncoder, QualifierCodebook, extract_event_audio_features
from .io import Dataset
from .io import load_dataset  # noqa: F401 (perfbench/tracing.py wraps pipeline.load_dataset)
from .stage1 import (
    MilModel,
    build_action_vocabulary,
    extract_proposals,
    find_vocabulary_spans,
    sample_training_bags,
    score_events,
    train_mil,
)
from .stage2 import SELECT_THRESHOLD, HmaModel, label_proposal, score_proposals, train_hma
from .stage3 import (
    assemble_summary,
    baseline_ranking,
    generate_candidates,
    select_best_index,
)
from .synth import resolve_audio

# The report tables, each also a ``FoldResult`` field of per-row counts:
# title, label column, the config key of the F beta (None: F1), row names,
# and the ``Counts.metrics`` shown ("missing" as missing_pct, "f" as f<beta>).
REPORT = {
    "stage1": ("Action proposals (test shards)", "method", "eval.beta",
               ("template-matching", "learned-model"), ("missing", "f")),
    "selection": ("Proposal selection (test shards)", "selector", None,
                  ("random-selector", "only-goals", "shots-on-target", "attention-classifier"),
                  ("precision", "recall", "f")),
    "ranking": ("Budgeted summaries (test shards)", "method", None,
                ("random-ranking", "score-descending", "sampled-best-of-k"), ("missing", "f")),
}


# ---------------------------------------------------------------------------
# worker tasks (top level so they pickle for the process pool)

_DATASET: Dataset | None = None  # set by an open WorkerPool, before any worker forks


def _audio_task(args):
    match_id, event_indices = args
    events = _DATASET.by_id(match_id).events
    samples, rate = resolve_audio(_DATASET, match_id)
    with naming("match %r", match_id):
        return match_id, {idx: extract_event_audio_features(samples, rate, events[idx].t)
                          for idx in event_indices}


def _propose_task(args):
    """Stage 1 of one fold: train the proposal model, then score and cut
    proposals in every match."""
    config, fold_index = args
    ctx = prepare_fold(_DATASET, config, fold_index)
    mil = train_proposal_model(_DATASET, config, ctx)
    scores = score_matches(mil, ctx.feats)
    return ProposedFold(fold_index, mil, scores,
                        typed_proposals(_DATASET, scores, mil.threshold))


def _finish_task(args):
    config, fold, audio, out_dir = args
    ctx = prepare_fold(_DATASET, config, fold.index)
    return finish_fold(_DATASET, config, ctx, fold, audio, out_dir)


class WorkerPool:
    """``min(jobs, max_tasks)`` worker processes forked from this one, shared
    by every task map of a run; with one worker, maps run inline.  While
    the pool is open, tasks read ``dataset`` as ``_DATASET``; workers fork
    after it is set.  ``int(pool)`` is the worker count (perfbench's pool
    span records it)."""

    def __init__(self, dataset: Dataset, jobs: int, max_tasks: int):
        self.dataset = dataset
        self.workers = max(1, min(jobs, max_tasks))
        self.executor = None

    def __enter__(self):
        global _DATASET
        _DATASET = self.dataset
        if self.workers > 1:
            self.executor = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=multiprocessing.get_context("fork"))
        return self

    def __exit__(self, *exc):
        global _DATASET
        if self.executor is not None:
            self.executor.shutdown(cancel_futures=True)
            self.executor = None
        _DATASET = None

    def __int__(self):
        return self.workers


def _parallel_map(fn, tasks: list, pool: WorkerPool) -> list:
    if pool.executor is None or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    return list(pool.executor.map(fn, tasks))


# ---------------------------------------------------------------------------
# fold preparation

@dataclass
class FoldContext:
    """Shared per-fold state: the split, harvested vocabulary, the encoder
    with its fitted qualifier codebook, and metadata features and sorted
    ground-truth spans for every match."""

    train_ids: list
    val_ids: list
    test_ids: list
    vocab: set
    encoder: MetadataEncoder
    feats: dict
    gt_intervals: dict
    ordinals: dict


def check_fold_count(config: PipelineConfig, n_matches: int) -> None:
    """Refuse an ``eval.kfold`` above the number of matches to split."""
    if n_matches < config["eval.kfold"]:
        raise ConfigError("key 'eval.kfold': %d is above the dataset's %d matches"
                          % (config["eval.kfold"], n_matches))


def prepare_fold(dataset: Dataset, config: PipelineConfig, fold_index: int) -> FoldContext:
    ids = dataset.match_ids()
    missing = [i for i in ids if i not in dataset.summaries]
    if missing:
        raise DataFormatError("no reference summary (summaries/<id>.json) for match %s"
                              % ", ".join(missing))
    check_fold_count(config, len(ids))
    folds = kfold_split(ids, k=config["eval.kfold"], seed=config["seed"])
    if not 0 <= fold_index < len(folds):
        raise ConfigError("fold %d is outside 0..%d" % (fold_index, len(folds) - 1))
    train_ids, val_ids, test_ids = folds[fold_index]
    vocab = build_action_vocabulary(
        {i: dataset.by_id(i) for i in train_ids},
        {i: dataset.summaries[i] for i in train_ids},
    )
    codebook = QualifierCodebook.from_events(
        [e for i in train_ids for e in dataset.by_id(i).events],
        dims=config["features.qualifier_dims"],
    )
    encoder = MetadataEncoder(dataset.vocabulary, codebook)
    return FoldContext(
        train_ids=train_ids,
        val_ids=val_ids,
        test_ids=test_ids,
        vocab=vocab,
        encoder=encoder,
        feats={i: encoder.encode_match(dataset.by_id(i)) for i in ids},
        # in start order, as overlap_match requires; a summary file may
        # list its actions in any order
        gt_intervals={
            i: sorted((a.start_index, a.end_index) for a in dataset.summaries[i].actions)
            for i in ids
        },
        ordinals={match_id: i for i, match_id in enumerate(ids)},
    )


# ---------------------------------------------------------------------------
# stages, shared by the CLI subcommands and run_fold

def train_proposal_model(dataset: Dataset, config: PipelineConfig, ctx: FoldContext) -> MilModel:
    """Stage 1: sample bags from the training matches and train the MIL
    scorer; the validation matches pick the epoch and the threshold."""
    bags = sample_training_bags({i: dataset.by_id(i) for i in ctx.train_ids}, ctx.vocab,
                                config["seed"], config["stage1.neg_min_len"])
    val_inputs = [(i, ctx.gt_intervals[i], dataset.by_id(i).type_sequence())
                  for i in ctx.val_ids]
    return train_mil(bags, ctx.feats, val_inputs, config.mil_config(),
                     config.fit_config("stage1"), config["stage1.beta"], config["seed"])


def score_matches(model: MilModel, feats: dict) -> dict[str, np.ndarray]:
    """Per-event stage-1 scores for every match of ``feats``."""
    return {i: score_events(model.params, f, model.config) for i, f in feats.items()}


def typed_proposals(dataset: Dataset, scores: dict,
                    threshold: float) -> dict[str, list[Action]]:
    """Threshold per-event scores into spans; each span gets its action type."""
    out = {}
    for match_id, s in scores.items():
        match = dataset.by_id(match_id)
        with naming("match %r", match_id):
            spans = extract_proposals(s, threshold, match.type_sequence())
        out[match_id] = [Action(a, b, action_type(Action(a, b), match)) for a, b in spans]
    return out


def proposal_events(proposals: dict, ids) -> dict[str, list[int]]:
    """Sorted indices of the events inside any proposal, per match of ``ids``."""
    return {i: sorted({k for a in proposals[i]
                       for k in range(a.start_index, a.end_index + 1)})
            for i in ids}


def event_audio(dataset: Dataset, events: dict, jobs: int) -> dict[str, dict[int, np.ndarray]]:
    """Audio descriptor rows of the listed events, one task per match with
    any, in a pool of at most ``jobs`` workers."""
    tasks = [(i, idx) for i, idx in events.items() if idx]
    with WorkerPool(dataset, jobs, len(tasks)) as pool:
        return dict(_parallel_map(_audio_task, tasks, pool))


def stage2_items(proposals: dict, feats: dict, audio: dict, ids,
                 gt_intervals: dict | None = None, overlap_ratio: float = 0.0) -> list:
    """Scorer inputs for the proposals of ``ids`` in order: (metadata,
    audio) pairs, or (metadata, audio, label) with ``gt_intervals``."""
    items = []
    for i in ids:
        for a in proposals[i]:
            s, e = a.start_index, a.end_index
            xm = feats[i][s : e + 1]
            xa = np.stack([audio[i][k] for k in range(s, e + 1)])
            if gt_intervals is None:
                items.append((xm, xa))
            else:
                items.append((xm, xa, label_proposal((s, e), gt_intervals[i], overlap_ratio)))
    return items


def budget_inputs(dataset: Dataset, config: PipelineConfig, match_id: str,
                  proposals: list[Action]) -> tuple[list, list, float]:
    """Stage-3 inputs of one match: padded proposal durations, proposal
    start times, and the budget (padded length of its reference summary)."""
    match = dataset.by_id(match_id)
    padding = config.padding()
    durations = [action_duration(a, match, padding) for a in proposals]
    starts = [match.events[a.start_index].t for a in proposals]
    budget = dataset.summaries[match_id].total_duration(match, padding)
    return durations, starts, budget


def train_proposal_scorer(config: PipelineConfig, ctx: FoldContext, proposals: dict,
                          audio: dict) -> HmaModel:
    """Stage 2: train the attention scorer on the labeled proposals of the
    training matches; those of the validation matches pick the epoch."""
    ratio = config["stage2.overlap_ratio"]
    return train_hma(
        stage2_items(proposals, ctx.feats, audio, ctx.train_ids, ctx.gt_intervals, ratio),
        stage2_items(proposals, ctx.feats, audio, ctx.val_ids, ctx.gt_intervals, ratio),
        config.hma_config(), config.fit_config("stage2"), config["seed"],
    )


def rank_and_sample(dataset: Dataset, config: PipelineConfig, ctx: FoldContext,
                    hma: HmaModel, proposals: dict, audio: dict, ids) -> tuple[dict, dict, dict]:
    """Stage 2 scoring and stage 3 for each match of ``ids``: the proposal
    scores theta, the budget inputs (padded durations, start times,
    budget), and the k budgeted candidates, each keyed by match id.  The
    match's ordinal keys its sampling stream."""
    theta = {i: score_proposals(hma, stage2_items(proposals, ctx.feats, audio, [i]))
             for i in ids}
    inputs = {i: budget_inputs(dataset, config, i, proposals[i]) for i in ids}
    candidates = {
        i: generate_candidates(
            theta[i], *inputs[i], k=config["stage3.samples"], sigma=config["stage3.sigma"],
            seed_key=(config["seed"], 9, ctx.ordinals[i]), tol=config["stage3.budget_tol"],
            mode=config["stage3.mode"],
        )
        for i in ids
    }
    return theta, inputs, candidates


# ---------------------------------------------------------------------------
# fold execution

@dataclass
class FoldResult:
    fold: int
    stage1: dict
    selection: dict
    ranking: dict
    best_sample_index: int
    threshold: float
    mil_val_f: float
    hma_val_f: float
    n_proposals: int
    n_over_budget: int
    max_budget_ratio: float


def _derived_seed(seed: int, domain: int, ordinal: int) -> int:
    return int(np.random.SeedSequence([seed, domain, ordinal]).generate_state(1)[0])


@dataclass
class ProposedFold:
    """One fold after stage 1: the proposal model, and the per-event scores
    and typed proposals of every match.  It leaves out the fold's context,
    which ``prepare_fold`` rebuilds, so it is small to send between
    processes."""

    index: int
    mil: MilModel
    scores: dict
    proposals: dict


def finish_fold(dataset: Dataset, config: PipelineConfig, ctx: FoldContext,
                fold: ProposedFold, audio: dict, out_dir: str | None = None) -> FoldResult:
    """Stages 2 and 3 of a proposed fold, evaluation on its test shard, and
    its artifacts under ``out_dir``.  ``audio`` holds the descriptor rows
    of at least every event inside the fold's proposals."""
    mil, scores, proposals = fold.mil, fold.scores, fold.proposals
    val_ids, test_ids = ctx.val_ids, ctx.test_ids
    eval_ids = val_ids + test_ids

    hma = train_proposal_scorer(config, ctx, proposals, audio)
    theta, inputs, candidates = rank_and_sample(dataset, config, ctx, hma, proposals, audio,
                                                eval_ids)

    # evaluation: validation matches pick the sample index, test matches score
    def summary_counts(i, chosen):
        preds = [proposals[i][j] for j in chosen]
        return match_summary_actions(preds, dataset.summaries[i].actions, dataset.by_id(i))

    f_matrix = np.zeros((len(val_ids), config["stage3.samples"]))
    for vi, i in enumerate(val_ids):
        for j, c in enumerate(candidates[i]):
            f_matrix[vi, j] = Counts(*summary_counts(i, c.chosen)).metrics(beta=1.0)["f"]
    best_j = select_best_index(f_matrix)

    tol, mode = config["stage3.budget_tol"], config["stage3.mode"]
    counts = {table: {name: Counts() for name in spec[3]} for table, spec in REPORT.items()}
    stage1, selection, ranking = counts["stage1"], counts["selection"], counts["ranking"]
    assembled = [(c, inputs[i][2]) for i in eval_ids for c in candidates[i]]
    for i in test_ids:
        gt = ctx.gt_intervals[i]
        template = find_vocabulary_spans(dataset.by_id(i).type_sequence(), ctx.vocab)
        stage1["template-matching"].add(*overlap_match(template, gt))
        stage1["learned-model"].add(*overlap_match(
            [(a.start_index, a.end_index) for a in proposals[i]], gt))

        ptypes = [a.type for a in proposals[i]]
        picks = {
            "random-selector": soccer_baseline("random", ptypes,
                                               _derived_seed(config["seed"], 8, ctx.ordinals[i])),
            "only-goals": soccer_baseline("goals", ptypes),
            "shots-on-target": soccer_baseline("shots_on_target", ptypes),
            "attention-classifier": [j for j, v in enumerate(theta[i]) if v >= SELECT_THRESHOLD],
        }
        for name, chosen in picks.items():
            selection[name].add(*summary_counts(i, chosen))

        rng = np.random.default_rng(np.random.SeedSequence([config["seed"], 10, ctx.ordinals[i]]))
        desc = assemble_summary(baseline_ranking(theta[i], "descending"), *inputs[i], tol, mode)
        rand = assemble_summary(baseline_ranking(theta[i], "random", rng), *inputs[i], tol, mode)
        assembled += [(desc, inputs[i][2]), (rand, inputs[i][2])]
        for name, c in (("sampled-best-of-k", candidates[i][best_j]),
                        ("score-descending", desc), ("random-ranking", rand)):
            ranking[name].add(*summary_counts(i, c.chosen))

    result = FoldResult(
        fold=fold.index,
        **counts,
        best_sample_index=best_j,
        threshold=mil.threshold,
        mil_val_f=mil.best_val_f,
        hma_val_f=hma.best_val_f,
        n_proposals=sum(len(v) for v in proposals.values()),
        n_over_budget=sum(1 for c, _b in assembled if c.over_budget),
        max_budget_ratio=max([0.0] + [c.total_duration / b for c, b in assembled
                                      if not c.over_budget and b > 0]),
    )

    if out_dir is not None:
        prov = Provenance.of(config)
        fold_dir = os.path.join(out_dir, "fold_%03d" % fold.index)
        save_model_checkpoint(os.path.join(fold_dir, "mil.ckpt"), mil.to_checkpoint(), prov)
        save_model_checkpoint(os.path.join(fold_dir, "hma.ckpt"), hma.to_checkpoint(), prov)
        write_features_json(os.path.join(fold_dir, "stage1_features.json"), prov,
                            ctx.encoder.codebook, ctx.vocab)
        write_scores_csv(os.path.join(fold_dir, "scores.csv"), prov, scores)
        write_proposals_json(os.path.join(fold_dir, "proposals.json"), prov, proposals)
        write_theta_csv(os.path.join(fold_dir, "theta.csv"), prov, theta)
        for i in test_ids:
            write_candidates_json(
                os.path.join(fold_dir, "candidates", "%s.json" % i), prov,
                i, inputs[i][2], candidates[i], proposals[i],
            )
        write_fold_result(os.path.join(fold_dir, "fold_result.json"), prov, result)
        write_train_log(os.path.join(fold_dir, "train_log.jsonl"), prov,
                        {"stage1": mil, "stage2": hma})
    return result


# ---------------------------------------------------------------------------
# protocol over folds, tables

@dataclass
class ProtocolResult:
    folds: list
    tables: dict
    text: str


def aggregate_results(fold_results: list, config: PipelineConfig) -> ProtocolResult:
    """The ``REPORT`` tables over the counts of every fold, and their text."""
    tables, text = {}, []
    for table, (title, label, beta_key, names, metrics) in REPORT.items():
        beta = config[beta_key] if beta_key else 1.0
        header = {"missing": "missing_pct", "f": "f%g" % beta}
        rows = []
        for name in names:
            total = Counts()
            for fr in fold_results:
                c = getattr(fr, table)[name]
                total.add(c.tp, c.fp, c.fn)
            m = total.metrics(beta=beta)
            rows.append([name] + [m[k] for k in metrics])
        tables[table] = ([label] + [header.get(k, k) for k in metrics], rows)
        text.append(format_table(title, *tables[table]))
    return ProtocolResult(fold_results, tables, "\n".join(text))


def _run_folds(dataset: Dataset, config: PipelineConfig, fold_indices,
               out_dir: str | None) -> list[FoldResult]:
    """Three phases, each a map over tasks in one ``WorkerPool`` of at most
    ``config["jobs"]`` workers: stage 1 of each fold; the audio of each
    match, over the events that any fold's proposals need; then stages 2
    and 3, evaluation and the writes of each fold.  A fold task builds its
    context with ``prepare_fold`` and returns no feature arrays, so no
    fold's context crosses a pipe or stays in this process.  A fold's
    outputs do not depend on the other folds run with it."""
    ids = dataset.match_ids()
    with WorkerPool(dataset, config["jobs"], max(len(fold_indices), len(ids))) as pool:
        folds = _parallel_map(_propose_task, [(config, k) for k in fold_indices], pool)
        # a descriptor row depends only on (match, event): compute the union
        # of every fold's events once, rendering each match's audio once
        needed = [proposal_events(f.proposals, ids) for f in folds]
        events = {i: sorted(set().union(*(e[i] for e in needed))) for i in ids}
        audio = dict(_parallel_map(_audio_task, [(i, idx) for i, idx in events.items() if idx],
                                   pool))
        return _parallel_map(_finish_task, [
            (config, f, {i: {k: audio[i][k] for k in e[i]} for i in ids}, out_dir)
            for f, e in zip(folds, needed)], pool)


def run_fold(dataset: Dataset, config: PipelineConfig, fold_index: int, seed: int,
             out_dir: str | None = None, data_dir: str | None = None,
             jobs: int = 1) -> FoldResult:
    """Train all three stages on one fold and evaluate on its test shard:
    the three phases of ``run_protocol`` over this fold alone, under a copy
    of ``config`` with ``seed`` and ``jobs`` set, so its artifacts carry
    the provenance of the seed they were drawn from.  ``data_dir`` is
    unused; it stays for callers that pass it."""
    config = PipelineConfig(dict(config.values, seed=seed, jobs=jobs))
    return _run_folds(dataset, config, [fold_index], out_dir)[0]


def run_protocol(dataset: Dataset, config: PipelineConfig,
                 out_dir: str | None = None) -> ProtocolResult:
    """Train and evaluate over the first ``eval.folds`` cross-validation
    folds, at most ``eval.kfold`` of them, in a pool of ``jobs`` workers,
    then aggregate counts into the report tables.  Each fold's outputs
    equal those of ``run_fold``."""
    n_folds = min(config["eval.folds"], config["eval.kfold"])
    result = aggregate_results(_run_folds(dataset, config, range(n_folds), out_dir), config)
    if out_dir is not None:
        write_results(out_dir, Provenance.of(config), result)
    return result
