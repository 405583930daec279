"""The benchmark's workloads.

Each workload has a set-up, repeated ``setup_repeats`` times, and an
operation the runner repeats for the measured time.  An operation returns
an ``Outcome``: its wall and CPU seconds, the events it processed, the
problems its output checks found, and a digest of its outputs keyed by its
input, so that repeats of one input must agree byte for byte.

Sizes are scaled so that one run, set-up included, fits in well under a
minute on a 2-core machine; see README.md for how they relate to the
default configuration.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import checks
from tracing import TRACER

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 70  # with no new operation after 100 s, a run ends within 180 s


@dataclass
class Outcome:
    wall: float
    cpu: float
    events: int
    problems: list
    key: str
    digest: str
    spans: list = field(default_factory=list)
    warnings: dict = field(default_factory=dict)
    speed: float = 1.0  # factor that scales its times to an uncontended core


def _cpu_now() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _config(overrides: dict):
    from soccersum.config import load_config
    return load_config(None, overrides, use_env=False)


def _write_config(path: str, overrides: dict) -> None:
    with open(path, "w") as fh:
        for key, value in overrides.items():
            fh.write("%s = %s\n" % (key, value))


def _child(args: list, log_path: str, spans_path: str | None, op: int, cpus: list):
    """Run one CLI command in a child process on ``cpus``; returns (wall, cpu, code)."""
    cmd = [sys.executable, CHILD, "--cpus", ",".join(map(str, cpus))]
    if spans_path:
        cmd += ["--spans", spans_path, "--op", str(op)]
    cmd += ["--"] + args
    cpu0 = _cpu_now()
    t0 = time.perf_counter()
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    wall = time.perf_counter() - t0
    return wall, _cpu_now() - cpu0, code


def _log_tail(path: str) -> str:
    with open(path) as fh:
        return " | ".join(fh.read().strip().splitlines()[-3:])


class Workload:
    name = ""
    why = ""
    setup_repeats = 3
    min_ops = 2
    cores = 1  # cores the operation's processes may use
    cpus: list = []  # which ones; set by the runner

    def __init__(self, work: str, seed: int, toy: bool):
        self.work, self.seed, self.toy = work, seed, toy

    def setup(self, rep: int) -> None:
        raise NotImplementedError

    def plan(self, i: int, trace: bool) -> tuple:
        """(input index, traced) of operation ``i``."""
        raise NotImplementedError

    def run_op(self, i: int, key: int, traced: bool) -> Outcome:
        raise NotImplementedError

    def quality(self) -> dict:
        raise NotImplementedError

    def finish(self) -> list:
        return []


class ProtocolWorkload(Workload):
    """Operations are soccersum CLI commands in child processes."""

    overrides: dict = {}
    toy_overrides: dict = {}

    def _overrides(self) -> dict:
        return dict(self.overrides, **(self.toy_overrides if self.toy else {}))

    def setup(self, rep: int) -> None:
        from soccersum import io, synth
        self.cfg = _config(self._overrides())
        self.cfg_path = os.path.join(self.work, "run.cfg")
        _write_config(self.cfg_path, self._overrides())
        ds = synth.generate_dataset(self.cfg.gen_config(), self.seed)
        self.data_dir = os.path.join(self.work, "setup%d" % rep)
        io.save_dataset(ds, self.data_dir)
        self.dataset = io.load_dataset(self.data_dir)
        self.data_digest = checks.digest_files(self.data_dir)
        self.events = sum(len(m.events) for m in self.dataset.matches)
        self.quality_dir = None

    def plan(self, i, trace):
        # one input; in a traced run, untraced and traced operations alternate
        return 0, trace and i % 2 == 1

    def command(self, out_dir: str) -> list:
        raise NotImplementedError

    def run_op(self, i, key, traced):
        out_dir = os.path.join(self.work, "op%d" % i)
        spans_path = os.path.join(self.work, "op%d.spans.json" % i) if traced else None
        log_path = os.path.join(self.work, "op%d.log" % i)
        wall, cpu, code = _child(self.command(out_dir), log_path, spans_path, i, self.cpus)
        problems, digest, spans, warns = [], "", [], {}
        if code != 0:
            problems.append("op %d exited with %d: %s" % (i, code, _log_tail(log_path)))
        else:
            problems += self.check_output(out_dir)
            digest = checks.digest_files(out_dir)
        if spans_path and os.path.exists(spans_path):
            with open(spans_path) as fh:
                payload = json.load(fh)
            spans, warns = payload["spans"], payload["warnings"]
            os.remove(spans_path)
        if self.quality_dir is None and not problems:
            self.quality_dir = out_dir
        else:
            shutil.rmtree(out_dir, ignore_errors=True)
        return Outcome(wall, cpu, self.events, problems, str(key), digest, spans, warns)

    def check_output(self, out_dir: str) -> list:
        raise NotImplementedError


class TrainWorkload(ProtocolWorkload):
    """Stage-1 training as ``soccersum train-proposals`` runs it."""

    name = "train"
    why = ("stage-1 training of one fold (soccersum train-proposals) on 40 matches, "
           "kfold 10: bags, per-epoch validation scoring, threshold search; no audio")
    # 40 matches keep the bag count within a few percent from seed to seed
    # (20 matches: 17% interquartile range)
    overrides = {
        "gen.matches": 40, "gen.events_mean": 400, "eval.kfold": 10,
        "stage1.epochs": 3, "stage1.patience": 3,
    }
    toy_overrides = {"gen.matches": 10, "eval.kfold": 5,
                     "stage1.epochs": 2, "stage1.patience": 2}

    def setup(self, rep):
        super().setup(rep)
        self.counts = [0, 0, 0]

    def command(self, out_dir):
        return ["train-proposals", "--config", self.cfg_path, "--seed", str(self.seed),
                "--jobs", "1", "--data", self.data_dir, "--out-dir", out_dir, "--fold", "0"]

    def check_output(self, out_dir):
        """Load what training wrote, then score and cut the test shard."""
        from soccersum import pipeline, stage1
        from soccersum.evaluation import kfold_split, overlap_match
        from soccersum.features.metadata import MetadataEncoder
        ckpt, prov_m = pipeline.load_model_checkpoint(os.path.join(out_dir, "mil.ckpt"))
        prov_f, codebook, _vocab = pipeline.read_features_json(
            os.path.join(out_dir, "stage1_features.json"))
        problems = []
        if prov_m != prov_f:
            problems.append("checkpoint and features disagree on provenance")
        if not all(np.all(np.isfinite(v)) for v in ckpt.values()):
            problems.append("checkpoint holds non-finite parameters")
        model = stage1.MilModel.from_checkpoint(ckpt)
        if not 0.01 <= model.threshold <= 0.99:
            problems.append("threshold %r outside the search grid" % model.threshold)
        encoder = MetadataEncoder(self.dataset.vocabulary, codebook)
        test_ids = kfold_split(self.dataset.match_ids(), self.cfg["eval.kfold"], self.seed)[0][2]
        self.counts = [0, 0, 0]
        for match_id in test_ids:
            match = self.dataset.by_id(match_id)
            scores = stage1.score_events(model.params, encoder.encode_match(match),
                                         model.config)
            problems += checks.check_theta(scores, len(match.events), "%s scores" % match_id)
            spans = stage1.extract_proposals(scores, model.threshold, match.type_sequence())
            problems += checks.check_proposals(spans, len(match.events), match_id)
            gt = [(a.start_index, a.end_index) for a in self.dataset.summaries[match_id].actions]
            for j, v in enumerate(overlap_match(spans, gt)):
                self.counts[j] += v
        return problems

    def quality(self):
        return {"stage1.f2": checks.f_score(*self.counts, self.cfg["eval.beta"]),
                "stage3.summary_f1": 0.0, "stage3.best_of_k_f1": 0.0}


class E2eWorkload(ProtocolWorkload):
    name = "e2e-small"
    why = ("soccersum e2e over all 5 folds with jobs=2: generation, dataset writes, "
           "fold-invariant audio redone per fold, the process pool, results writes")
    overrides = {
        "gen.matches": 6, "gen.events_mean": 400,
        "eval.kfold": 5, "eval.folds": 5,
        "stage1.epochs": 2, "stage1.patience": 2, "stage1.lr": 0.01,
        "stage2.epochs": 2, "stage2.patience": 2, "stage2.lr": 0.003,
    }
    toy_overrides = {"eval.folds": 2}
    cores = 2

    def setup(self, rep):
        super().setup(rep)
        self.events *= self.cfg["eval.folds"]  # counted once per fold

    def command(self, out_dir):
        return ["e2e", "--config", self.cfg_path, "--seed", str(self.seed),
                "--jobs", "2", "--out-dir", out_dir]

    def check_output(self, out_dir):
        problems = []
        if checks.digest_files(os.path.join(out_dir, "data")) != self.data_digest:
            problems.append("e2e wrote a dataset that differs from the generator's")
        return problems + checks.check_run_dir(out_dir, self.dataset, self.cfg)

    def quality(self):
        if self.quality_dir is None:
            return {}
        res = os.path.join(self.quality_dir, "results")
        stage1 = checks.read_table(os.path.join(res, "stage1.csv"))
        ranking = checks.read_table(os.path.join(res, "ranking.csv"))
        f2_col = [c for c in stage1["learned-model"] if c.startswith("f")][0]
        return {
            "stage1.f2": stage1["learned-model"][f2_col],
            "stage3.summary_f1": ranking["score-descending"]["f1"],
            "stage3.best_of_k_f1": ranking["sampled-best-of-k"]["f1"],
        }


class SummarizeWorkload(Workload):
    """Set-up trains both stages on one fold of generated matches and saves
    the checkpoints; each operation summarizes one unseen full-length
    match in-process through the public functions.

    The models stand for a deployed pair: they are trained from the fixed
    ``TRAIN_SEED``, and ``--seed`` picks the matches to summarize.  Models
    trained from different seeds pick stage-1 thresholds between 0.2 and
    0.9, which changes the audio windows per match up to tenfold; with one
    model per seed the per-match latency would measure training luck.
    """

    name = "summarize"
    why = ("each operation summarizes one unseen 1500-event match from saved "
           "checkpoints: audio, forward-only scoring and artifact reads, no training")
    # one protocol fold trains the models; the higher learning rates let a
    # few epochs reach usable proposals on 10 matches
    train_overrides = {
        "gen.matches": 10, "gen.events_mean": 400,
        "eval.kfold": 5, "eval.folds": 1,
        "stage1.epochs": 12, "stage1.patience": 12, "stage1.lr": 0.01,
        "stage2.epochs": 4, "stage2.patience": 4, "stage2.lr": 0.003,
    }
    toy_overrides = {"stage1.epochs": 2, "stage1.patience": 2,
                     "stage2.epochs": 2, "stage2.patience": 2}
    min_ops = 6
    quality_matches = 6
    setup_repeats = 1
    TRAIN_SEED = 7

    def setup(self, rep):
        from soccersum import io, pipeline, synth
        overrides = dict(self.train_overrides)
        if self.toy:
            overrides.update(self.toy_overrides)
        self.cfg = _config(overrides)
        ds = synth.generate_dataset(self.cfg.gen_config(), self.TRAIN_SEED)
        self.ckpt_dir = os.path.join(self.work, "setup%d" % rep)
        data_dir = os.path.join(self.ckpt_dir, "data")
        io.save_dataset(ds, data_dir)
        ds = io.load_dataset(data_dir)
        pipeline.run_fold(ds, self.cfg, 0, self.TRAIN_SEED, out_dir=self.ckpt_dir,
                          data_dir=data_dir, jobs=1)
        self.fold_dir = os.path.join(self.ckpt_dir, "fold_000")
        with open(os.path.join(self.fold_dir, "fold_result.json")) as fh:
            self.best_j = json.load(fh)["best_sample_index"]
        gen = _config({"gen.events_mean": 600} if self.toy else {}).gen_config()
        self.gen_cfg = gen
        self.counts = {"stage1": [0, 0, 0], "desc": [0, 0, 0], "best": [0, 0, 0]}
        self.first_digest = None

    def plan(self, i, trace):
        if trace:  # each match untraced and traced, alternating which goes first
            pair, second = divmod(i, 2)
            return pair, second != pair % 2
        return i, False

    def _match(self, key):
        from soccersum import synth
        from soccersum.io import Dataset
        from soccersum.core import DEFAULT_EVENT_TYPES
        match, summary, _ = synth.generate_match(self.gen_cfg, self.seed, 10000 + key)
        return Dataset(vocabulary=DEFAULT_EVENT_TYPES, matches=[match],
                       summaries={match.match_id: summary})

    def summarize(self, ds, key):
        """The measured path: checkpoints to candidate summaries."""
        from soccersum import features, pipeline, stage1, stage2, stage3, synth
        from soccersum.core import Action, PaddingConfig, action_duration
        from soccersum.features.metadata import MetadataEncoder
        cfg = self.cfg
        match = ds.matches[0]
        mil_ckpt, prov_m = pipeline.load_model_checkpoint(
            os.path.join(self.fold_dir, "mil.ckpt"))
        hma_ckpt, prov_h = pipeline.load_model_checkpoint(
            os.path.join(self.fold_dir, "hma.ckpt"))
        prov_f, codebook, _vocab = pipeline.read_features_json(
            os.path.join(self.fold_dir, "stage1_features.json"))
        mil = stage1.MilModel.from_checkpoint(mil_ckpt)
        hma = stage2.HmaModel.from_checkpoint(hma_ckpt)
        feats = MetadataEncoder(ds.vocabulary, codebook).encode_match(match)
        scores = stage1.score_events(mil.params, feats, mil.config)
        spans = stage1.extract_proposals(scores, mil.threshold, match.type_sequence())
        samples, rate = synth.resolve_audio(ds, match.match_id)
        needed = sorted({k for s, e in spans for k in range(s, e + 1)})
        rows = {k: features.extract_event_audio_features(samples, rate, match.events[k].t)
                for k in needed}
        items = [(feats[s:e + 1], np.stack([rows[k] for k in range(s, e + 1)]))
                 for s, e in spans]
        theta = stage2.score_proposals(hma, items) if items else np.empty(0)
        padding = PaddingConfig(cfg["pad.pre"], cfg["pad.post"])
        budget = sum(action_duration(a, match, padding)
                     for a in ds.summaries[match.match_id].actions)
        durations = [action_duration(Action(s, e), match, padding) for s, e in spans]
        starts = [match.events[s].t for s, _e in spans]
        cands = stage3.generate_candidates(
            theta, durations, starts, budget, k=cfg["stage3.samples"],
            sigma=cfg["stage3.sigma"], seed_key=(self.seed, 9, key),
            tol=cfg["stage3.budget_tol"], mode=cfg["stage3.mode"])
        provs = {prov_m, prov_h, prov_f}
        return spans, theta, budget, cands, provs

    def run_op(self, i, key, traced):
        ds = self._match(key)
        TRACER.op = i
        TRACER.active = traced
        cpu0 = _cpu_now()
        t0 = time.perf_counter()
        try:
            spans, theta, budget, cands, provs = self.summarize(ds, key)
        finally:
            wall = time.perf_counter() - t0
            cpu = _cpu_now() - cpu0
            TRACER.active = False
        problems = self.check(ds, spans, theta, budget, cands, provs, "op %d" % i)
        digest = self.digest(spans, theta, cands)
        if key < self.quality_matches and not traced:
            self.score(ds, spans, theta, budget, cands)
        if key == 0 and self.first_digest is None:
            self.first_digest = digest
        op_spans = [s for s in TRACER.spans if s[5] == i]
        if op_spans:
            TRACER.spans = [s for s in TRACER.spans if s[5] != i]
        warns = dict(TRACER.warnings)
        TRACER.warnings.clear()
        return Outcome(wall, cpu, len(ds.matches[0].events), problems, str(key), digest,
                       op_spans, warns)

    def check(self, ds, spans, theta, budget, cands, provs, tag):
        cfg = self.cfg
        match = ds.matches[0]
        problems = []
        if len(provs) != 1:
            problems.append("%s: checkpoints and features disagree on provenance" % tag)
        problems += checks.check_proposals(spans, len(match.events), tag)
        problems += checks.check_theta(theta, len(spans), tag)
        durations, starts = checks.proposal_durations(match, spans, cfg["pad.pre"],
                                                      cfg["pad.post"])
        for c in cands:
            cand = {"ranking": c.ranking, "chosen": c.chosen,
                    "total_duration": c.total_duration, "over_budget": c.over_budget}
            problems += checks.replay_candidate(cand, durations, starts, budget,
                                                cfg["stage3.budget_tol"],
                                                "%s sample %d" % (tag, c.sample_index))
        return problems

    @staticmethod
    def digest(spans, theta, cands) -> str:
        payload = {"spans": [list(s) for s in spans],
                   "theta": ["%.10f" % v for v in theta],
                   "candidates": [[c.ranking, c.chosen, "%.6f" % c.total_duration]
                                  for c in cands]}
        return hashlib.sha256(json.dumps(payload).encode()).hexdigest()

    def score(self, ds, spans, theta, budget, cands):
        from soccersum import stage3
        from soccersum.core import Action, PaddingConfig, action_duration, action_type
        from soccersum.evaluation import match_summary_actions, overlap_match
        match = ds.matches[0]
        gt = ds.summaries[match.match_id].actions
        self._add("stage1", overlap_match(spans, [(a.start_index, a.end_index) for a in gt]))
        padding = PaddingConfig(self.cfg["pad.pre"], self.cfg["pad.post"])
        durations = [action_duration(Action(s, e), match, padding) for s, e in spans]
        starts = [match.events[s].t for s, _e in spans]
        desc = stage3.assemble_summary(stage3.baseline_ranking(theta, "descending"),
                                       durations, starts, budget,
                                       self.cfg["stage3.budget_tol"], self.cfg["stage3.mode"])
        for name, chosen in (("desc", desc.chosen), ("best", cands[self.best_j].chosen)):
            preds = [Action(spans[j][0], spans[j][1],
                            action_type(Action(spans[j][0], spans[j][1]), match))
                     for j in chosen]
            self._add(name, match_summary_actions(preds, gt, match))

    def _add(self, name, tpfpfn):
        for j, v in enumerate(tpfpfn):
            self.counts[name][j] += v

    def quality(self):
        beta = self.cfg["eval.beta"]
        return {
            "stage1.f2": checks.f_score(*self.counts["stage1"], beta),
            "stage3.summary_f1": checks.f_score(*self.counts["desc"], 1.0),
            "stage3.best_of_k_f1": checks.f_score(*self.counts["best"], 1.0),
        }

    def finish(self):
        """Summarize the first match again, untimed: outputs must repeat."""
        ds = self._match(0)
        spans, theta, budget, cands, provs = self.summarize(ds, 0)
        if self.digest(spans, theta, cands) != self.first_digest:
            return ["summarizing match 0 twice gave different outputs"]
        return []


WORKLOADS = {w.name: w for w in (TrainWorkload, E2eWorkload, SummarizeWorkload)}
