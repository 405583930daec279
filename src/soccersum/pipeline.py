"""End-to-end orchestration: fold preparation, the three processing stages,
evaluation tables, and run artifacts.

Every artifact written here (CSV, JSON, checkpoint) embeds the short config
hash plus the run seed; readers that combine several artifacts refuse
mismatched provenance, so results can never silently mix runs.

Determinism: all randomness flows from the run seed through numbered
substreams (1 match generation, 2 audio, 3/4 stage-1 init and shuffling,
5 bag sampling, 6/7 stage-2 init and shuffling, 8 the random selector
baseline, 9 candidate sampling, 10 the random ranking baseline), each
further keyed by match ordinal where applicable.  Worker processes redo
per-match work in match order, so ``--jobs`` never changes any output byte.
"""
from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .config import PipelineConfig
from .core import (
    Action,
    ConfigError,
    DataFormatError,
    PaddingConfig,
    SUMMARY_ACTION_TYPES,
    SoccersumError,
    action_duration,
    action_type,
)
from .evaluation import (
    Counts,
    format_csv,
    format_table,
    kfold_split,
    match_summary_actions,
    overlap_match,
    soccer_baseline,
)
from .features import MetadataEncoder, QualifierCodebook, extract_event_audio_features
from .io import Dataset, load_dataset
from .neural import load_checkpoint, save_checkpoint
from .stage1 import (
    MilModel,
    build_action_vocabulary,
    extract_proposals,
    find_vocabulary_spans,
    sample_training_bags,
    score_events,
    train_mil,
)
from .stage2 import label_proposal, score_proposals, train_hma
from .stage3 import (
    assemble_summary,
    baseline_ranking,
    generate_candidates,
    select_best_index,
)
from .synth import resolve_audio

SELECTOR_ROWS = ("random-selector", "only-goals", "shots-on-target", "attention-classifier")
RANKING_ROWS = ("random-ranking", "score-descending", "sampled-best-of-k")
STAGE1_ROWS = ("template-matching", "learned-model")


# ---------------------------------------------------------------------------
# provenance

@dataclass(frozen=True)
class Provenance:
    config_hash: str
    seed: int

    def line(self) -> str:
        return "# config_hash=%s seed=%d" % (self.config_hash, self.seed)


def parse_provenance_line(line: str, path: str) -> Provenance:
    parts = line.strip().lstrip("#").split()
    fields = dict(p.split("=", 1) for p in parts if "=" in p)
    if "config_hash" not in fields or "seed" not in fields:
        raise DataFormatError("%s: missing provenance header" % path)
    return Provenance(fields["config_hash"], int(fields["seed"]))


def ensure_same_provenance(tagged: list[tuple[str, Provenance]]) -> Provenance:
    """Accept a list of (path, provenance); all entries must agree."""
    if not tagged:
        raise SoccersumError("no artifacts given")
    first_path, first = tagged[0]
    for path, prov in tagged[1:]:
        if prov != first:
            raise SoccersumError(
                "artifact provenance mismatch: %s has %s seed %d but %s has %s seed %d"
                % (first_path, first.config_hash, first.seed, path,
                   prov.config_hash, prov.seed)
            )
    return first


def _hash_to_array(h: str) -> np.ndarray:
    return np.array([float(ord(c)) for c in h])


def _array_to_hash(a: np.ndarray) -> str:
    return "".join(chr(int(round(v))) for v in a)


def save_model_checkpoint(path: str, ckpt: dict, prov: Provenance) -> None:
    out = dict(ckpt)
    out["_prov.seed"] = np.array([float(prov.seed)])
    out["_prov.hash"] = _hash_to_array(prov.config_hash)
    save_checkpoint(out, path)


def load_model_checkpoint(path: str) -> tuple[dict, Provenance]:
    ckpt = load_checkpoint(path)
    try:
        seed = int(ckpt.pop("_prov.seed")[0])
        h = _array_to_hash(ckpt.pop("_prov.hash"))
    except KeyError:
        raise DataFormatError("%s: checkpoint missing provenance records" % path)
    return ckpt, Provenance(h, seed)


# ---------------------------------------------------------------------------
# artifact files

def write_scores_csv(path: str, prov: Provenance, scores: dict[str, np.ndarray]) -> None:
    with open(path, "w") as fh:
        fh.write(prov.line() + "\n")
        fh.write("match_id,event_index,score\n")
        for match_id in sorted(scores):
            for i, s in enumerate(scores[match_id]):
                fh.write("%s,%d,%.10f\n" % (match_id, i, s))


def read_scores_csv(path: str) -> tuple[Provenance, dict[str, np.ndarray]]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataFormatError("%s: empty scores file" % path)
    prov = parse_provenance_line(lines[0], path)
    rows: dict[str, list[tuple[int, float]]] = {}
    for lineno, line in enumerate(lines[2:], start=3):
        if not line:
            continue
        try:
            match_id, idx, score = line.split(",")
            pair = (int(idx), float(score))
        except ValueError:
            raise DataFormatError("%s:%d: bad scores row %r" % (path, lineno, line))
        if pair[0] < 0 or not np.isfinite(pair[1]):
            raise DataFormatError("%s:%d: negative index or non-finite score in %r"
                                  % (path, lineno, line))
        rows.setdefault(match_id, []).append(pair)
    out = {}
    for match_id, pairs in rows.items():
        pairs.sort()
        # the indices of a match must be 0..n-1, each once
        for j, (k, _s) in enumerate(pairs):
            if k != j:
                raise DataFormatError("%s: match %s: %s event index %d" % (
                    path, match_id, "duplicate" if k < j else "missing", min(j, k)))
        out[match_id] = np.array([s for _, s in pairs])
    return prov, out


def write_proposals_json(path: str, prov: Provenance,
                         proposals: dict[str, list[tuple[int, int, str]]]) -> None:
    payload = {
        "config_hash": prov.config_hash,
        "seed": prov.seed,
        "matches": {
            match_id: [
                {"start_index": s, "end_index": e, "type": t}
                for s, e, t in items
            ]
            for match_id, items in sorted(proposals.items())
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_proposals_json(path: str, dataset: Dataset
                        ) -> tuple[Provenance, dict[str, list[tuple[int, int, str]]]]:
    """Provenance and per-match proposals of a proposals file.  Every
    proposal must be an event span of its match in ``dataset`` with integer
    indices and a summary action type."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataFormatError("%s: not a JSON file (%s)" % (path, exc)) from None
    if not isinstance(payload, dict) or "config_hash" not in payload or "seed" not in payload:
        raise DataFormatError("%s: missing provenance fields" % path)
    prov = Provenance(payload["config_hash"], int(payload["seed"]))
    matches = payload.get("matches", {})
    if not isinstance(matches, dict) or not all(isinstance(v, list) for v in matches.values()):
        raise DataFormatError("%s: \"matches\" must map match ids to lists" % path)
    known = set(dataset.match_ids())
    out = {}
    for match_id, items in matches.items():
        if match_id not in known:
            raise DataFormatError("%s: unknown match id %r" % (path, match_id))
        n = len(dataset.by_id(match_id).events)
        out[match_id] = []
        for d in items:
            s, e, t = (d.get(k) for k in ("start_index", "end_index", "type")) \
                if isinstance(d, dict) else (None, None, None)
            if not (type(s) is int and type(e) is int and 0 <= s <= e < n
                    and t in SUMMARY_ACTION_TYPES):
                raise DataFormatError(
                    "%s: match %s: proposal %r is not an event span within 0..%d "
                    "with a summary action type" % (path, match_id, d, n - 1))
            out[match_id].append((s, e, t))
    return prov, out


def write_theta_csv(path: str, prov: Provenance, theta: dict[str, np.ndarray]) -> None:
    with open(path, "w") as fh:
        fh.write(prov.line() + "\n")
        fh.write("match_id,proposal_index,theta\n")
        for match_id in sorted(theta):
            for i, v in enumerate(theta[match_id]):
                fh.write("%s,%d,%.10f\n" % (match_id, i, v))


def write_candidates_json(path: str, prov: Provenance, match_id: str, budget: float,
                          candidates, proposals: list[tuple[int, int, str]]) -> None:
    payload = {
        "config_hash": prov.config_hash,
        "seed": prov.seed,
        "match_id": match_id,
        "budget": round(budget, 6),
        "candidates": [
            {
                "sample_index": c.sample_index,
                "ranking": [int(i) for i in c.ranking],
                "chosen": [
                    {
                        "proposal_index": int(i),
                        "start_index": proposals[i][0],
                        "end_index": proposals[i][1],
                        "type": proposals[i][2],
                    }
                    for i in c.chosen
                ],
                "total_duration": round(c.total_duration, 6),
                "over_budget": c.over_budget,
            }
            for c in candidates
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_features_json(path: str, prov: Provenance, codebook: QualifierCodebook,
                        vocab: set[tuple[str, ...]]) -> None:
    payload = {
        "config_hash": prov.config_hash,
        "seed": prov.seed,
        "qualifier_codebook": codebook.to_dict(),
        "action_vocabulary": sorted([list(seq) for seq in vocab]),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_features_json(path: str):
    with open(path) as fh:
        payload = json.load(fh)
    if "config_hash" not in payload or "seed" not in payload:
        raise DataFormatError("%s: missing provenance fields" % path)
    prov = Provenance(payload["config_hash"], int(payload["seed"]))
    codebook = QualifierCodebook.from_dict(payload["qualifier_codebook"])
    vocab = {tuple(seq) for seq in payload["action_vocabulary"]}
    return prov, codebook, vocab


# ---------------------------------------------------------------------------
# worker tasks (top level so they pickle for the process pool)

_WORKER_DATASETS: dict[str | None, Dataset] = {}


def _cached_dataset(data_dir: str | None) -> Dataset:
    ds = _WORKER_DATASETS.get(data_dir)
    if ds is None:
        ds = load_dataset(data_dir)
        _WORKER_DATASETS[data_dir] = ds
    return ds


def _score_task(args):
    match_id, params, mil_cfg, feats = args
    return match_id, score_events(params, feats, mil_cfg)


def _audio_task(args):
    data_dir, match_id, event_indices = args
    ds = _cached_dataset(data_dir)
    match = ds.by_id(match_id)
    samples, rate = resolve_audio(ds, match_id)
    rows = {}
    for idx in event_indices:
        rows[idx] = extract_event_audio_features(samples, rate, match.events[idx].t)
    return match_id, rows


def _parallel_map(fn, tasks: list, jobs: int) -> list:
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks))


# ---------------------------------------------------------------------------
# fold preparation

@dataclass
class FoldContext:
    """Shared per-fold state: the split, harvested vocabulary, fitted
    qualifier codebook, and metadata features for every match."""

    train_ids: list
    val_ids: list
    test_ids: list
    vocab: set
    codebook: QualifierCodebook
    encoder: MetadataEncoder
    feats: dict
    types: dict
    gt_intervals: dict
    ordinals: dict


def prepare_fold(dataset: Dataset, config: PipelineConfig, fold_index: int,
                 seed: int) -> FoldContext:
    ids = dataset.match_ids()
    missing = [i for i in ids if i not in dataset.summaries]
    if missing:
        raise DataFormatError("no reference summary (summaries/<id>.json) for match %s"
                              % ", ".join(missing))
    folds = kfold_split(ids, k=config["eval.kfold"], seed=seed)
    if not 0 <= fold_index < len(folds):
        raise ConfigError("fold %d is outside 0..%d" % (fold_index, len(folds) - 1))
    train_ids, val_ids, test_ids = folds[fold_index]
    matches = {m.match_id: m for m in dataset.matches}
    vocab = build_action_vocabulary(
        {i: matches[i] for i in train_ids},
        {i: dataset.summaries[i] for i in train_ids},
    )
    codebook = QualifierCodebook.from_events(
        [e for i in train_ids for e in matches[i].events],
        dims=config["features.qualifier_dims"],
    )
    encoder = MetadataEncoder(dataset.vocabulary, codebook)
    return FoldContext(
        train_ids=train_ids,
        val_ids=val_ids,
        test_ids=test_ids,
        vocab=vocab,
        codebook=codebook,
        encoder=encoder,
        feats={i: encoder.encode_match(matches[i]) for i in ids},
        types={i: matches[i].type_sequence() for i in ids},
        gt_intervals={
            i: [(a.start_index, a.end_index) for a in dataset.summaries[i].actions]
            for i in ids
        },
        ordinals={match_id: i for i, match_id in enumerate(ids)},
    )


# ---------------------------------------------------------------------------
# stages, shared by the CLI subcommands and run_fold

def _interval_labels(n: int, intervals) -> np.ndarray:
    labels = np.zeros(n, dtype=bool)
    for s, e in intervals:
        labels[s : e + 1] = True
    return labels


def train_proposal_model(dataset: Dataset, config: PipelineConfig, ctx: FoldContext,
                         seed: int) -> MilModel:
    """Stage 1: sample bags from the training matches and train the MIL
    scorer; the validation matches pick the epoch and the threshold."""
    matches = {m.match_id: m for m in dataset.matches}
    bags = sample_training_bags({i: matches[i] for i in ctx.train_ids}, ctx.vocab,
                                seed, config["stage1.neg_min_len"])
    val_inputs = [
        (i, _interval_labels(len(ctx.types[i]), ctx.gt_intervals[i]), ctx.types[i])
        for i in ctx.val_ids
    ]
    return train_mil(bags, ctx.feats, val_inputs, config.mil_config(), seed)


def score_matches(model: MilModel, feats: dict, jobs: int) -> dict[str, np.ndarray]:
    """Per-event stage-1 scores for every match of ``feats``, one task each."""
    tasks = [(i, model.params, model.config, f) for i, f in feats.items()]
    return dict(_parallel_map(_score_task, tasks, jobs))


def typed_proposals(dataset: Dataset, scores: dict,
                    threshold: float) -> dict[str, list[tuple[int, int, str]]]:
    """Threshold per-event scores into spans; each span gets its action type."""
    out = {}
    for match_id, s in scores.items():
        match = dataset.by_id(match_id)
        spans = extract_proposals(s, threshold, match.type_sequence())
        out[match_id] = [(a, b, action_type(Action(a, b), match)) for a, b in spans]
    return out


def proposal_events(proposals: dict, ids) -> dict[str, list[int]]:
    """Sorted indices of the events inside any proposal, per match of ``ids``."""
    return {i: sorted({k for s, e, _t in proposals.get(i, ()) for k in range(s, e + 1)})
            for i in ids}


def event_audio(dataset: Dataset, data_dir: str | None, events: dict,
                jobs: int) -> dict[str, dict[int, np.ndarray]]:
    """Audio descriptor rows of the listed events, one task per match with
    any.  The dataset enters the per-process cache, so inline tasks and
    forked workers use it as is; other workers load ``data_dir``."""
    _WORKER_DATASETS[data_dir] = dataset
    tasks = [(data_dir, i, idx) for i, idx in events.items() if idx]
    return dict(_parallel_map(_audio_task, tasks, jobs))


def stage2_items(proposals: dict, feats: dict, audio: dict, ids,
                 gt_intervals: dict | None = None, overlap_ratio: float = 0.0) -> list:
    """Scorer inputs for the proposals of ``ids`` in order: (metadata,
    audio) pairs, or (metadata, audio, label) with ``gt_intervals``."""
    items = []
    for i in ids:
        for s, e, _t in proposals.get(i, ()):
            xm = feats[i][s : e + 1]
            xa = np.stack([audio[i][k] for k in range(s, e + 1)])
            if gt_intervals is None:
                items.append((xm, xa))
            else:
                items.append((xm, xa, label_proposal((s, e), gt_intervals[i], overlap_ratio)))
    return items


def budget_inputs(dataset: Dataset, config: PipelineConfig, match_id: str,
                  proposals: list) -> tuple[list, list, float]:
    """Stage-3 inputs of one match: padded proposal durations, proposal
    start times, and the budget (padded length of its reference summary)."""
    match = dataset.by_id(match_id)
    padding = PaddingConfig(config["pad.pre"], config["pad.post"])
    durations = [action_duration(Action(s, e), match, padding) for s, e, _t in proposals]
    starts = [match.events[s].t for s, _e, _t in proposals]
    budget = sum(action_duration(a, match, padding)
                 for a in dataset.summaries[match_id].actions)
    return durations, starts, budget


def sample_candidates(config: PipelineConfig, seed: int, ordinal: int, theta,
                      inputs: tuple) -> list:
    """Stage 3: the k budgeted candidates of one match; ``inputs`` comes
    from budget_inputs and ``ordinal`` keys the sampling stream."""
    return generate_candidates(
        theta, *inputs, k=config["stage3.samples"], sigma=config["stage3.sigma"],
        seed_key=(seed, 9, ordinal), tol=config["stage3.budget_tol"],
        mode=config["stage3.mode"],
    )


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

    def to_dict(self) -> dict:
        def counts(d):
            return {k: {"tp": c.tp, "fp": c.fp, "fn": c.fn} for k, c in d.items()}
        return {
            "fold": self.fold,
            "stage1": counts(self.stage1),
            "selection": counts(self.selection),
            "ranking": counts(self.ranking),
            "best_sample_index": self.best_sample_index,
            "threshold": self.threshold,
            "mil_val_f": self.mil_val_f,
            "hma_val_f": self.hma_val_f,
            "n_proposals": self.n_proposals,
            "n_over_budget": self.n_over_budget,
            "max_budget_ratio": self.max_budget_ratio,
        }


def _derived_seed(seed: int, domain: int, ordinal: int) -> int:
    return int(np.random.SeedSequence([seed, domain, ordinal]).generate_state(1)[0])


@dataclass
class ProposedFold:
    """One fold after stage 1: its context, the proposal model, and the
    per-event scores and typed proposals of every match."""

    index: int
    ctx: FoldContext
    mil: MilModel
    scores: dict
    proposals: dict


def propose_fold(dataset: Dataset, config: PipelineConfig, fold_index: int, seed: int,
                 jobs: int = 1) -> ProposedFold:
    """Stage 1 of one fold: prepare it, train the proposal model, then score
    and cut proposals in every match."""
    ctx = prepare_fold(dataset, config, fold_index, seed)
    mil = train_proposal_model(dataset, config, ctx, seed)
    scores = score_matches(mil, ctx.feats, jobs)
    return ProposedFold(fold_index, ctx, mil, scores,
                        typed_proposals(dataset, scores, mil.threshold))


def run_fold(dataset: Dataset, config: PipelineConfig, fold_index: int, seed: int,
             out_dir: str | None = None, data_dir: str | None = None,
             jobs: int = 1) -> FoldResult:
    """Train all three stages on one fold and evaluate on its test shard."""
    fold = propose_fold(dataset, config, fold_index, seed, jobs)
    events = proposal_events(fold.proposals, dataset.match_ids())
    audio = event_audio(dataset, data_dir, events, jobs)
    return finish_fold(dataset, config, seed, fold, audio, out_dir)


def finish_fold(dataset: Dataset, config: PipelineConfig, seed: int, fold: ProposedFold,
                audio: dict, out_dir: str | None = None) -> FoldResult:
    """Stages 2 and 3 of a proposed fold, evaluation on its test shard, and
    its artifacts under ``out_dir``.  ``audio`` holds the descriptor rows
    of at least every event inside the fold's proposals."""
    ctx, mil, scores, proposals = fold.ctx, fold.mil, fold.scores, fold.proposals
    val_ids, test_ids = ctx.val_ids, ctx.test_ids
    eval_ids = val_ids + test_ids

    ratio = config["stage2.overlap_ratio"]
    hma = train_hma(
        stage2_items(proposals, ctx.feats, audio, ctx.train_ids, ctx.gt_intervals, ratio),
        stage2_items(proposals, ctx.feats, audio, val_ids, ctx.gt_intervals, ratio),
        config.hma_config(), seed,
    )
    theta = {i: score_proposals(hma, stage2_items(proposals, ctx.feats, audio, [i]))
             for i in eval_ids}

    inputs = {i: budget_inputs(dataset, config, i, proposals[i]) for i in eval_ids}
    candidates = {i: sample_candidates(config, seed, ctx.ordinals[i], theta[i], inputs[i])
                  for i in eval_ids}

    # evaluation: validation matches pick the sample index, test matches score
    matches = {m.match_id: m for m in dataset.matches}

    def summary_counts(i, chosen):
        preds = [Action(*proposals[i][j]) for j in chosen]
        return match_summary_actions(preds, dataset.summaries[i].actions, matches[i])

    f_matrix = np.zeros((len(val_ids), config["stage3.samples"]))
    for vi, i in enumerate(val_ids):
        for j, c in enumerate(candidates[i]):
            f_matrix[vi, j] = Counts(*summary_counts(i, c.chosen)).metrics(beta=1.0)["f"]
    best_j = select_best_index(f_matrix) if val_ids else 0

    tol, mode = config["stage3.budget_tol"], config["stage3.mode"]
    stage1 = {name: Counts() for name in STAGE1_ROWS}
    selection = {name: Counts() for name in SELECTOR_ROWS}
    ranking = {name: Counts() for name in RANKING_ROWS}
    assembled = [(c, inputs[i][2]) for i in eval_ids for c in candidates[i]]
    for i in test_ids:
        gt = ctx.gt_intervals[i]
        stage1["template-matching"].add(
            *overlap_match(find_vocabulary_spans(ctx.types[i], ctx.vocab), gt))
        stage1["learned-model"].add(*overlap_match([(s, e) for s, e, _t in proposals[i]], gt))

        ptypes = [t for _s, _e, t in proposals[i]]
        picks = {
            "random-selector": soccer_baseline("random", ptypes,
                                               _derived_seed(seed, 8, ctx.ordinals[i])),
            "only-goals": soccer_baseline("goals", ptypes),
            "shots-on-target": soccer_baseline("shots_on_target", ptypes),
            "attention-classifier": [j for j, v in enumerate(theta[i]) if v >= 0.5],
        }
        for name, chosen in picks.items():
            selection[name].add(*summary_counts(i, chosen))

        rng = np.random.default_rng(np.random.SeedSequence([seed, 10, ctx.ordinals[i]]))
        desc = assemble_summary(baseline_ranking(theta[i], "descending"), *inputs[i], tol, mode)
        rand = assemble_summary(baseline_ranking(theta[i], "random", rng), *inputs[i], tol, mode)
        assembled += [(desc, inputs[i][2]), (rand, inputs[i][2])]
        for name, c in (("sampled-best-of-k", candidates[i][best_j]),
                        ("score-descending", desc), ("random-ranking", rand)):
            ranking[name].add(*summary_counts(i, c.chosen))

    result = FoldResult(
        fold=fold.index,
        stage1=stage1,
        selection=selection,
        ranking=ranking,
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
        prov = Provenance(config.config_hash(), seed)
        fold_dir = os.path.join(out_dir, "fold_%03d" % fold.index)
        os.makedirs(os.path.join(fold_dir, "candidates"), exist_ok=True)
        save_model_checkpoint(os.path.join(fold_dir, "mil.ckpt"), mil.to_checkpoint(), prov)
        save_model_checkpoint(os.path.join(fold_dir, "hma.ckpt"), hma.to_checkpoint(), prov)
        write_features_json(os.path.join(fold_dir, "stage1_features.json"), prov,
                            ctx.codebook, ctx.vocab)
        write_scores_csv(os.path.join(fold_dir, "scores.csv"), prov, scores)
        write_proposals_json(os.path.join(fold_dir, "proposals.json"), prov, proposals)
        write_theta_csv(os.path.join(fold_dir, "theta.csv"), prov, theta)
        for i in test_ids:
            write_candidates_json(
                os.path.join(fold_dir, "candidates", "%s.json" % i), prov,
                i, inputs[i][2], candidates[i], proposals[i],
            )
        with open(os.path.join(fold_dir, "fold_result.json"), "w") as fh:
            payload = result.to_dict()
            payload["config_hash"] = prov.config_hash
            payload["seed"] = prov.seed
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return result


# ---------------------------------------------------------------------------
# protocol over folds, tables

@dataclass
class ProtocolResult:
    folds: list
    tables: dict = field(default_factory=dict)
    text: str = ""


def _sum_counts(fold_results, section: str, name: str) -> Counts:
    total = Counts()
    for fr in fold_results:
        c = getattr(fr, section)[name]
        total.add(c.tp, c.fp, c.fn)
    return total


def aggregate_results(fold_results: list, config: PipelineConfig) -> ProtocolResult:
    beta = config["eval.beta"]
    stage1_rows = []
    for name in STAGE1_ROWS:
        m = _sum_counts(fold_results, "stage1", name).metrics(beta=beta)
        stage1_rows.append([name, m["missing"], m["f"]])
    selection_rows = []
    for name in SELECTOR_ROWS:
        m = _sum_counts(fold_results, "selection", name).metrics(beta=1.0)
        selection_rows.append([name, m["precision"], m["recall"], m["f"]])
    ranking_rows = []
    for name in RANKING_ROWS:
        m = _sum_counts(fold_results, "ranking", name).metrics(beta=1.0)
        ranking_rows.append([name, m["missing"], m["f"]])

    tables = {
        "stage1": (["method", "missing_pct", "f%g" % beta], stage1_rows),
        "selection": (["selector", "precision", "recall", "f1"], selection_rows),
        "ranking": (["method", "missing_pct", "f1"], ranking_rows),
    }
    text = "\n".join([
        format_table("Action proposals (test shards)", *tables["stage1"]),
        format_table("Proposal selection (test shards)", *tables["selection"]),
        format_table("Budgeted summaries (test shards)", *tables["ranking"]),
    ])
    return ProtocolResult(folds=fold_results, tables=tables, text=text)


def write_results(out_dir: str, prov: Provenance, result: ProtocolResult) -> None:
    res_dir = os.path.join(out_dir, "results")
    os.makedirs(res_dir, exist_ok=True)
    for name in ("stage1", "selection", "ranking"):
        columns, rows = result.tables[name]
        with open(os.path.join(res_dir, "%s.csv" % name), "w") as fh:
            fh.write(prov.line() + "\n")
            fh.write(format_csv(columns, rows))
    with open(os.path.join(res_dir, "results.txt"), "w") as fh:
        fh.write(prov.line() + "\n\n")
        fh.write(result.text)


def run_protocol(dataset: Dataset, config: PipelineConfig, seed: int,
                 out_dir: str | None = None, data_dir: str | None = None,
                 jobs: int = 1, n_folds: int | None = None) -> ProtocolResult:
    """Train and evaluate over the first ``n_folds`` cross-validation folds
    (default from config), then aggregate counts into the report tables.

    Runs stage 1 of every fold, then one audio pass over the events that
    any fold's proposals need, then stages 2 and 3 and the writes of each
    fold; each fold's outputs equal those of ``run_fold``."""
    if n_folds is None:
        n_folds = config["eval.folds"]
    n_folds = max(1, min(n_folds, config["eval.kfold"]))
    folds = [propose_fold(dataset, config, k, seed, jobs) for k in range(n_folds)]
    # a descriptor row depends only on (match, event): compute the union of
    # every fold's events once, rendering each match's audio once
    ids = dataset.match_ids()
    needed = [proposal_events(f.proposals, ids) for f in folds]
    events = {i: sorted(set().union(*(e[i] for e in needed))) for i in ids}
    audio = event_audio(dataset, data_dir, events, jobs)
    fold_results = [finish_fold(dataset, config, seed, f, audio, out_dir) for f in folds]
    result = aggregate_results(fold_results, config)
    if out_dir is not None:
        write_results(out_dir, Provenance(config.config_hash(), seed), result)
    return result
