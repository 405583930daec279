"""Command-line interface.

Subcommands cover the full flow: ``gen-data`` builds a synthetic dataset,
``extract-features`` dumps per-event feature vectors, the ``train-*`` /
``score-events`` / ``extract-proposals`` / ``summarize`` commands run the
stages piecewise against saved artifacts, ``evaluate`` runs the
cross-validation protocol, and ``e2e`` chains generation plus evaluation.
The piecewise commands call the same stage functions of ``pipeline`` as the
protocol, so they write the same artifacts as its folds.

Exit codes: 0 success, 1 usage or configuration problems, 2 data problems
(malformed files, files that cannot be read or written, provenance
mismatches, training failures).
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
from .config import UNIT, load_config
from .core import ConfigError, DataFormatError, SoccersumError, named, naming
from .features import AUDIO_FEATURE_NAMES, MetadataEncoder
from .io import load_dataset, save_dataset
from .pipeline import (
    check_fold_count,
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
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _threshold(text: str) -> float:
    """A ``--threshold``, under the rule of a stage-1 threshold
    (``config.UNIT``); ``_Parser.error`` turns the refusal into exit code 1."""
    value = float(text)
    if not UNIT[1](value):
        raise argparse.ArgumentTypeError("%r is not %s" % (text, UNIT[0]))
    return value


def _require_current(cfg, tagged):
    """All consumed artifacts must match the active config hash and seed."""
    ensure_same_provenance([("active configuration", Provenance.of(cfg))] + list(tagged))


def _load_model(cls, path: str, cfg, inputs: list):
    """The ``cls`` model (``MilModel`` or ``HmaModel``) of checkpoint
    ``path``, once its provenance and those of the (path, provenance)
    ``inputs`` match ``cfg``; a refusal is a data error naming the file."""
    ckpt, prov = load_model_checkpoint(path)
    _require_current(cfg, inputs + [(path, prov)])
    with naming(path):
        return cls.from_checkpoint(ckpt)


def _check_width(model, name: str, path: str, width: int, source: str) -> None:
    """A data error unless array ``name`` of the model in checkpoint
    ``path`` takes the ``width`` features per event that ``source`` gives."""
    takes = model.params[name].shape[1]
    if takes != width:
        raise DataFormatError("%d features per event from %s, but array %r of %s takes %d"
                              % (width, source, name, path, takes))


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


def _proposal_events(path: str, proposals: dict, ids) -> dict:
    """``proposal_events`` of ``ids``, once the proposals file ``path`` lists each."""
    missing = [i for i in ids if i not in proposals]
    if missing:
        raise named(path, DataFormatError("match %r is not listed" % missing[0]))
    return proposal_events(proposals, ids)


# ---------------------------------------------------------------------------
# subcommands, each called as (args, configuration, ``--data`` dataset or None)

def cmd_gen_data(args, cfg, _dataset) -> int:
    dataset = generate_dataset(cfg.gen_config(), cfg["seed"])
    save_dataset(dataset, args.out_dir)
    n_events = sum(len(m.events) for m in dataset.matches)
    print("wrote %d matches (%d events) to %s" % (len(dataset.matches), n_events, args.out_dir))
    return 0


def cmd_extract_features(args, cfg, dataset) -> int:
    ctx = prepare_fold(dataset, cfg, args.fold)
    prov = Provenance.of(cfg)
    feat_dir = os.path.join(args.out_dir, "features")
    ids = _match_ids(args, dataset, dataset.match_ids())
    if args.audio:
        audio = event_audio(dataset, {i: list(range(len(ctx.feats[i]))) for i in ids}, cfg["jobs"])
    for match_id in ids:
        write_features_csv(os.path.join(feat_dir, "%s_metadata.csv" % match_id), prov,
                           ctx.encoder.feature_names(), ctx.feats[match_id])
        if args.audio:
            write_features_csv(os.path.join(feat_dir, "%s_audio.csv" % match_id), prov,
                               AUDIO_FEATURE_NAMES, audio.get(match_id, {}).values())
    print("wrote features for %d matches to %s" % (len(ids), feat_dir))
    return 0


def cmd_train_proposals(args, cfg, dataset) -> int:
    ctx = prepare_fold(dataset, cfg, args.fold)
    model = train_proposal_model(dataset, cfg, ctx)
    prov = Provenance.of(cfg)
    save_model_checkpoint(os.path.join(args.out_dir, "mil.ckpt"), model.to_checkpoint(), prov)
    write_features_json(os.path.join(args.out_dir, "stage1_features.json"), prov,
                        ctx.encoder.codebook, ctx.vocab)
    print("trained proposal model: threshold %.2f, validation F%.1f %.4f"
          % (model.threshold, cfg["stage1.beta"], model.best_val_f))
    return 0


def cmd_score_events(args, cfg, dataset) -> int:
    prov_f, codebook, _vocab = read_features_json(args.features)
    model = _load_model(MilModel, args.model, cfg, [(args.features, prov_f)])
    encoder = MetadataEncoder(dataset.vocabulary, codebook)
    _check_width(model, "lstm.W", args.model, encoder.width, args.features)
    ids = _match_ids(args, dataset, dataset.match_ids())
    scores = score_matches(model, {i: encoder.encode_match(dataset.by_id(i)) for i in ids})
    write_scores_csv(args.out, Provenance.of(cfg), scores)
    print("scored %d matches -> %s" % (len(ids), args.out))
    return 0


def cmd_extract_proposals(args, cfg, dataset) -> int:
    prov_s, scores = read_scores_csv(args.scores)
    model = _load_model(MilModel, args.model, cfg, [(args.scores, prov_s)])
    threshold = args.threshold if args.threshold is not None else model.threshold
    with naming(args.scores):
        proposals = typed_proposals(dataset, scores, threshold)
    write_proposals_json(args.out, Provenance.of(cfg), proposals)
    n = sum(len(v) for v in proposals.values())
    print("extracted %d proposals (threshold %.2f) -> %s" % (n, threshold, args.out))
    return 0


def cmd_train_hma(args, cfg, dataset) -> int:
    prov_p, proposals = read_proposals_json(args.proposals, dataset)
    _require_current(cfg, [(args.proposals, prov_p)])
    ctx = prepare_fold(dataset, cfg, args.fold)
    events = _proposal_events(args.proposals, proposals, ctx.train_ids + ctx.val_ids)
    audio = event_audio(dataset, events, cfg["jobs"])
    model = train_proposal_scorer(cfg, ctx, proposals, audio)
    save_model_checkpoint(os.path.join(args.out_dir, "hma.ckpt"),
                          model.to_checkpoint(), Provenance.of(cfg))
    print("trained proposal scorer: validation F1 %.4f" % model.best_val_f)
    return 0


def cmd_summarize(args, cfg, dataset) -> int:
    prov_p, proposals = read_proposals_json(args.proposals, dataset)
    model = _load_model(HmaModel, args.model, cfg, [(args.proposals, prov_p)])
    ctx = prepare_fold(dataset, cfg, args.fold)
    _check_width(model, "meta.W", args.model, ctx.encoder.width, "the metadata encoder")
    _check_width(model, "audio.W", args.model, len(AUDIO_FEATURE_NAMES), "the audio descriptors")
    ids = _match_ids(args, dataset, ctx.test_ids)
    prov = Provenance.of(cfg)
    audio = event_audio(dataset, _proposal_events(args.proposals, proposals, ids), cfg["jobs"])
    theta, inputs, candidates = rank_and_sample(dataset, cfg, ctx, model, proposals, audio, ids)
    write_theta_csv(os.path.join(args.out_dir, "theta.csv"), prov, theta)
    for i in ids:
        write_candidates_json(os.path.join(args.out_dir, "candidates", "%s.json" % i), prov,
                              i, inputs[i][2], candidates[i], proposals[i])
    print("wrote rankings and %d candidate files to %s" % (len(ids), args.out_dir))
    return 0


def cmd_evaluate(args, cfg, dataset) -> int:
    result = run_protocol(dataset, cfg, out_dir=args.out_dir)
    print(result.text, end="")
    return 0


def cmd_e2e(args, cfg, _dataset) -> int:
    check_fold_count(cfg, cfg["gen.matches"])  # before anything is generated or written
    dataset = generate_dataset(cfg.gen_config(), cfg["seed"])
    result = run_protocol(dataset, cfg, out_dir=args.out_dir)
    # after the run, so a configuration error leaves no directory behind
    save_dataset(dataset, os.path.join(args.out_dir, "data"))
    print(result.text, end="")
    return 0


# ---------------------------------------------------------------------------
# every option of every subcommand: flag -> ``add_argument`` keywords
OPTIONS = {
    "--config": {"help": "configuration file"},
    "--seed": {"type": int, "help": "override the run seed"},
    "--jobs": {"type": int, "help": "worker processes"},
    "--data": {"required": True},
    "--out-dir": {"required": True},
    "--fold": {"type": int, "default": 0},
    "--matches": {"help": "comma-separated match ids"},
    "--audio": {"action": "store_true", "help": "also extract audio features"},
    "--model": {"required": True, "help": "mil.ckpt path, or hma.ckpt for summarize"},
    "--features": {"required": True, "help": "stage1_features.json path"},
    "--scores": {"required": True},
    "--proposals": {"required": True},
    "--threshold": {"type": _threshold},
    "--out": {"required": True, "help": "scores CSV, or proposals JSON for extract-proposals"},
}

# subcommand -> (function, help, its options after --config, --seed and --jobs)
COMMANDS = {
    "gen-data": (cmd_gen_data, "generate a synthetic dataset", ["--out-dir"]),
    "extract-features": (cmd_extract_features, "dump per-event feature vectors",
                         ["--data", "--out-dir", "--fold", "--matches", "--audio"]),
    "train-proposals": (cmd_train_proposals, "train the stage-1 proposal model",
                        ["--data", "--out-dir", "--fold"]),
    "score-events": (cmd_score_events, "per-event scores from a trained model",
                     ["--data", "--model", "--features", "--out", "--matches"]),
    "extract-proposals": (cmd_extract_proposals, "threshold scores into proposals",
                          ["--data", "--scores", "--model", "--threshold", "--out"]),
    "train-hma": (cmd_train_hma, "train the attention proposal scorer",
                  ["--data", "--proposals", "--out-dir", "--fold"]),
    "summarize": (cmd_summarize, "rank proposals and emit budgeted candidates",
                  ["--data", "--proposals", "--model", "--out-dir", "--fold", "--matches"]),
    "evaluate": (cmd_evaluate, "run the cross-validation protocol", ["--data", "--out-dir"]),
    "e2e": (cmd_e2e, "generate data, then run the full protocol", ["--out-dir"]),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="soccersum", description="soccer match summarization pipeline")
    subs = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name, (_func, text, options) in COMMANDS.items():
        sub = subs.add_parser(name, help=text)
        for flag in ("--config", "--seed", "--jobs", *options):
            sub.add_argument(flag, **OPTIONS[flag])
    return parser


def main(argv=None) -> int:
    """Resolve the configuration, then load any ``--data``, then run the command."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        cfg = load_config(args.config, {key: getattr(args, key) for key in ("seed", "jobs")
                                        if getattr(args, key) is not None})
        dataset = load_dataset(args.data) if "data" in vars(args) else None
        return COMMANDS[args.command][0](args, cfg, dataset)
    except ConfigError as exc:
        sys.stderr.write("configuration error: %s\n" % exc)
        return 1
    except SoccersumError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
