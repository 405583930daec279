"""Command-line interface.

Subcommands cover the full flow: ``gen-data`` builds a synthetic dataset,
``extract-features`` dumps per-event feature vectors, the ``train-*`` /
``score-events`` / ``extract-proposals`` / ``summarize`` commands run the
stages piecewise against saved artifacts, ``evaluate`` runs the
cross-validation protocol, and ``e2e`` chains generation plus evaluation.
The piecewise commands call the same stage functions of ``pipeline`` as the
protocol, so they write the same artifacts as its folds.

Exit codes: 0 success, 1 usage or configuration problems, 2 data problems
(malformed files, provenance mismatches, training failures).
"""
from __future__ import annotations

import argparse
import os
import sys

# One BLAS thread per process unless the caller chose a count: the matrix
# products here are too small to gain wall time from more threads, and
# ``--jobs`` workers each take a core.  This must run before numpy loads
# (the package ``__init__`` imports no numpy).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .artifacts import (
    Provenance,
    ensure_same_provenance,
    load_model_checkpoint,
    read_features_json,
    read_proposals_json,
    read_scores_csv,
    save_model_checkpoint,
    write_candidates_json,
    write_features_csv,
    write_features_json,
    write_proposals_json,
    write_scores_csv,
    write_theta_csv,
)
from .config import load_config
from .core import ConfigError, DataFormatError, SoccersumError
from .features import AUDIO_FEATURE_NAMES, MetadataEncoder
from .io import load_dataset, save_dataset
from .pipeline import (
    event_audio,
    prepare_fold,
    proposal_events,
    rank_and_sample,
    run_protocol,
    score_matches,
    train_proposal_model,
    train_proposal_scorer,
    typed_proposals,
)
from .stage1 import MilModel
from .stage1 import sample_training_bags, train_mil  # noqa: F401 (perfbench/tracing.py wraps them)
from .stage2 import HmaModel
from .synth import generate_dataset


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this project reserves 2 for data
    problems, so remap usage errors to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("%s: error: %s\n" % (self.prog, message))
        raise SystemExit(1)


def _add_common(sub):
    sub.add_argument("--config", default=None, help="configuration file")
    sub.add_argument("--seed", type=int, default=None, help="override the run seed")
    sub.add_argument("--jobs", type=int, default=None, help="worker processes")


def _config_from(args):
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "jobs", None) is not None:
        overrides["jobs"] = args.jobs
    return load_config(args.config, overrides)


def _prov(cfg) -> Provenance:
    return Provenance(cfg.config_hash(), cfg["seed"])


def _require_current(cfg, tagged):
    """All consumed artifacts must match the active config hash and seed."""
    ensure_same_provenance([("active configuration", _prov(cfg))] + list(tagged))


def _match_ids(args, dataset, default) -> list:
    """The ids of ``--matches``, else ``default``; an unknown id is a data error."""
    if not args.matches:
        return default
    ids = args.matches.split(",")
    known = set(dataset.match_ids())
    unknown = [i for i in ids if i not in known]
    if unknown:
        raise SoccersumError("--matches names unknown match id(s): %s" % ", ".join(unknown))
    return ids


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_data(args) -> int:
    cfg = _config_from(args)
    dataset = generate_dataset(cfg.gen_config(), cfg["seed"])
    save_dataset(dataset, args.out_dir)
    n_events = sum(len(m.events) for m in dataset.matches)
    print("wrote %d matches (%d events) to %s" % (len(dataset.matches), n_events, args.out_dir))
    return 0


def cmd_extract_features(args) -> int:
    cfg = _config_from(args)
    dataset = load_dataset(args.data)
    ctx = prepare_fold(dataset, cfg, args.fold, cfg["seed"])
    prov = _prov(cfg)
    feat_dir = os.path.join(args.out_dir, "features")
    os.makedirs(feat_dir, exist_ok=True)
    ids = _match_ids(args, dataset, dataset.match_ids())
    if args.audio:
        every_event = {i: list(range(len(ctx.feats[i]))) for i in ids}
        audio = event_audio(dataset, every_event, cfg["jobs"])
    for match_id in ids:
        write_features_csv(os.path.join(feat_dir, "%s_metadata.csv" % match_id), prov,
                           ctx.encoder.feature_names(), ctx.feats[match_id])
        if args.audio:
            write_features_csv(os.path.join(feat_dir, "%s_audio.csv" % match_id), prov,
                               AUDIO_FEATURE_NAMES, audio.get(match_id, {}).values())
    print("wrote features for %d matches to %s" % (len(ids), feat_dir))
    return 0


def cmd_train_proposals(args) -> int:
    cfg = _config_from(args)
    dataset = load_dataset(args.data)
    ctx = prepare_fold(dataset, cfg, args.fold, cfg["seed"])
    model = train_proposal_model(dataset, cfg, ctx, cfg["seed"])
    os.makedirs(args.out_dir, exist_ok=True)
    prov = _prov(cfg)
    save_model_checkpoint(os.path.join(args.out_dir, "mil.ckpt"), model.to_checkpoint(), prov)
    write_features_json(os.path.join(args.out_dir, "stage1_features.json"), prov,
                        ctx.codebook, ctx.vocab)
    print("trained proposal model: threshold %.2f, validation F%.1f %.4f"
          % (model.threshold, cfg["stage1.beta"], model.best_val_f))
    return 0


def cmd_score_events(args) -> int:
    cfg = _config_from(args)
    dataset = load_dataset(args.data)
    ckpt, prov_m = load_model_checkpoint(args.model)
    prov_f, codebook, _vocab = read_features_json(args.features)
    _require_current(cfg, [(args.model, prov_m), (args.features, prov_f)])
    model = MilModel.from_checkpoint(ckpt)
    encoder = MetadataEncoder(dataset.vocabulary, codebook)
    W = model.params.get("lstm.W")
    model_width = W.shape[1] if W is not None and W.ndim == 2 else None
    if model_width != encoder.width:
        raise DataFormatError("%s encodes %d features per event, but the model in %s takes %s"
                              % (args.features, encoder.width, args.model, model_width))
    ids = _match_ids(args, dataset, dataset.match_ids())
    feats = {i: encoder.encode_match(dataset.by_id(i)) for i in ids}
    scores = score_matches(model, feats)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    write_scores_csv(args.out, _prov(cfg), scores)
    print("scored %d matches -> %s" % (len(ids), args.out))
    return 0


def cmd_extract_proposals(args) -> int:
    cfg = _config_from(args)
    dataset = load_dataset(args.data)
    prov_s, scores = read_scores_csv(args.scores)
    ckpt, prov_m = load_model_checkpoint(args.model)
    _require_current(cfg, [(args.scores, prov_s), (args.model, prov_m)])
    model = MilModel.from_checkpoint(ckpt)
    threshold = args.threshold if args.threshold is not None else model.threshold
    proposals = typed_proposals(dataset, scores, threshold)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    write_proposals_json(args.out, _prov(cfg), proposals)
    n = sum(len(v) for v in proposals.values())
    print("extracted %d proposals (threshold %.2f) -> %s" % (n, threshold, args.out))
    return 0


def cmd_train_hma(args) -> int:
    cfg = _config_from(args)
    dataset = load_dataset(args.data)
    prov_p, proposals = read_proposals_json(args.proposals, dataset)
    _require_current(cfg, [(args.proposals, prov_p)])
    ctx = prepare_fold(dataset, cfg, args.fold, cfg["seed"])
    events = proposal_events(proposals, ctx.train_ids + ctx.val_ids)
    audio = event_audio(dataset, events, cfg["jobs"])
    model = train_proposal_scorer(cfg, ctx, proposals, audio, cfg["seed"])
    os.makedirs(args.out_dir, exist_ok=True)
    save_model_checkpoint(os.path.join(args.out_dir, "hma.ckpt"),
                          model.to_checkpoint(), _prov(cfg))
    print("trained proposal scorer: validation F1 %.4f" % model.best_val_f)
    return 0


def cmd_summarize(args) -> int:
    cfg = _config_from(args)
    dataset = load_dataset(args.data)
    prov_p, proposals = read_proposals_json(args.proposals, dataset)
    ckpt, prov_m = load_model_checkpoint(args.model)
    _require_current(cfg, [(args.proposals, prov_p), (args.model, prov_m)])
    model = HmaModel.from_checkpoint(ckpt)
    ctx = prepare_fold(dataset, cfg, args.fold, cfg["seed"])
    ids = _match_ids(args, dataset, ctx.test_ids)
    prov = _prov(cfg)
    os.makedirs(os.path.join(args.out_dir, "candidates"), exist_ok=True)

    audio = event_audio(dataset, proposal_events(proposals, ids), cfg["jobs"])
    theta, inputs, candidates = rank_and_sample(dataset, cfg, cfg["seed"], ctx, model,
                                                proposals, audio, ids)
    write_theta_csv(os.path.join(args.out_dir, "theta.csv"), prov, theta)
    for i in ids:
        write_candidates_json(os.path.join(args.out_dir, "candidates", "%s.json" % i), prov,
                              i, inputs[i][2], candidates[i], proposals.get(i, []))
    print("wrote rankings and %d candidate files to %s" % (len(ids), args.out_dir))
    return 0


def cmd_evaluate(args) -> int:
    cfg = _config_from(args)
    dataset = load_dataset(args.data)
    result = run_protocol(dataset, cfg, cfg["seed"], out_dir=args.out_dir, jobs=cfg["jobs"])
    print(result.text, end="")
    return 0


def cmd_e2e(args) -> int:
    cfg = _config_from(args)
    dataset = generate_dataset(cfg.gen_config(), cfg["seed"])
    save_dataset(dataset, os.path.join(args.out_dir, "data"))
    result = run_protocol(dataset, cfg, cfg["seed"], out_dir=args.out_dir, jobs=cfg["jobs"])
    print(result.text, end="")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="soccersum", description="soccer match summarization pipeline")
    subs = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = subs.add_parser("gen-data", help="generate a synthetic dataset")
    _add_common(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = subs.add_parser("extract-features", help="dump per-event feature vectors")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--fold", type=int, default=0)
    p.add_argument("--matches", default=None, help="comma-separated match ids")
    p.add_argument("--audio", action="store_true", help="also extract audio features")
    p.set_defaults(func=cmd_extract_features)

    p = subs.add_parser("train-proposals", help="train the stage-1 proposal model")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--fold", type=int, default=0)
    p.set_defaults(func=cmd_train_proposals)

    p = subs.add_parser("score-events", help="per-event scores from a trained model")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, help="mil.ckpt path")
    p.add_argument("--features", required=True, help="stage1_features.json path")
    p.add_argument("--out", required=True, help="scores CSV to write")
    p.add_argument("--matches", default=None)
    p.set_defaults(func=cmd_score_events)

    p = subs.add_parser("extract-proposals", help="threshold scores into proposals")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--out", required=True, help="proposals JSON to write")
    p.set_defaults(func=cmd_extract_proposals)

    p = subs.add_parser("train-hma", help="train the attention proposal scorer")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--proposals", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--fold", type=int, default=0)
    p.set_defaults(func=cmd_train_hma)

    p = subs.add_parser("summarize", help="rank proposals and emit budgeted candidates")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--proposals", required=True)
    p.add_argument("--model", required=True, help="hma.ckpt path")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--fold", type=int, default=0)
    p.add_argument("--matches", default=None)
    p.set_defaults(func=cmd_summarize)

    p = subs.add_parser("evaluate", help="run the cross-validation protocol")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("e2e", help="generate data, then run the full protocol")
    _add_common(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_e2e)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write("configuration error: %s\n" % exc)
        return 1
    except SoccersumError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
