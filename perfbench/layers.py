"""Per-layer metrics computed from the spans of one traced operation.

Every metric is named ``<module>.<metric>`` after the soccersum module whose
public functions the spans wrap.  Durations are inclusive unless the name
says ``self``: a span's self time is its duration minus the part of it that
its child spans cover.  LSTM floating-point work is computed from the
traced (T, D, H) shapes, not measured.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

# Fixed kernel shapes reported by name.  D=35 is the metadata width
# (10 + 17 event types + 8 qualifier slots), D=21 the audio width, D=32 the
# fusion LSTM input; H=16 and H=32 are the default hidden sizes.
SHAPE_CLASSES = ("D35_H16", "D35_H32", "D21_H32", "D32_H16")
WINDOW_SHAPE = "T10_D35_H16"

# name -> unit; the order is the order of BENCHMARK.json's per_layer list
PER_LAYER = {
    "neural.lstm_forward_calls": "count",
    "neural.lstm_backward_calls": "count",
    "neural.lstm_steps": "count",
    "neural.lstm_s": "s",
    "neural.lstm_gflop": "GFLOP_computed",
    "neural.adam_steps": "count",
    "neural.adam_s": "s",
    "neural.lstm_fwd_us." + WINDOW_SHAPE: "us",
    **{"neural.lstm_fwd_us_per_step." + c: "us" for c in SHAPE_CLASSES},
    **{"neural.lstm_bwd_us_per_step." + c: "us" for c in SHAPE_CLASSES},
    "stage1.bags": "count",
    "stage1.bag_fwd_bwd_s": "s",
    "stage1.epochs_run": "count",
    "stage1.epoch_s": "s",
    "stage1.val_score_s": "s",
    "stage1.threshold_search_s": "s",
    "stage1.score_events_s": "s",
    "stage1.windows_scored": "count",
    "stage1.extract_s": "s",
    "stage1.proposals": "count",
    "stage1.f2": "score",
    "stage2.items": "count",
    "stage2.fwd_bwd_s": "s",
    "stage2.epochs_run": "count",
    "stage2.epoch_s": "s",
    "stage2.train_self_s": "s",
    "stage2.score_s": "s",
    "synth.generate_s": "s",
    "synth.audio_render_s": "s",
    "synth.audio_tracks": "count",
    "synth.audio_unique_ratio": "ratio",
    "features.audio.descriptor_s": "s",
    "features.audio.windows": "count",
    "features.audio.unique_ratio": "ratio",
    "features.audio.numpy_warnings": "count",
    "features.metadata.encode_s": "s",
    "features.metadata.events": "count",
    "features.metadata.unique_ratio": "ratio",
    "stage3.candidates": "count",
    "stage3.generate_s": "s",
    "stage3.over_budget": "count",
    "stage3.distinct_ratio": "ratio",
    "stage3.mean_jaccard": "ratio",
    "stage3.summary_f1": "score",
    "stage3.best_of_k_f1": "score",
    "evaluation.s": "s",
    "evaluation.matches": "count",
    "io.save_dataset_s": "s",
    "io.load_dataset_s": "s",
    "pipeline.prepare_fold_s": "s",
    "pipeline.artifact_write_s": "s",
    "pipeline.artifact_read_s": "s",
    "pipeline.pool_s": "s",
    "pipeline.self_s": "s",
    "trace.overhead_s": "s",
}

def _union(intervals, lo, hi) -> float:
    covered, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        covered += cur_e - cur_s
    return covered


class SpanSet:
    """Spans of one operation with parent/child lookups."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        self.children = defaultdict(list)
        for s in spans:
            if s[4] is not None:
                self.children[s[4]].append(s)
        self.by_name = defaultdict(list)
        for s in spans:
            self.by_name[s[1]].append(s)

    def named(self, name):
        return self.by_name.get(name, [])

    def under(self, span, ancestor_name) -> bool:
        parent = self.by_id.get(span[4])
        while parent is not None:
            if parent[1] == ancestor_name:
                return True
            parent = self.by_id.get(parent[4])
        return False

    def self_time(self, span) -> float:
        kids = [(c[2], c[3]) for c in self.children.get(span[0], [])]
        return (span[3] - span[2]) - _union(kids, span[2], span[3])


def _dur(spans) -> float:
    return sum(s[3] - s[2] for s in spans)


def _ratio(keys) -> float:
    return len(set(keys)) / len(keys) if keys else 0.0


def op_metrics(spans, warnings: dict) -> dict:
    """Per-layer metrics of one traced operation (no quality, no per-call)."""
    ss = SpanSet(spans)
    m = {}
    fwd = ss.named("neural.lstm_forward")
    bwd = ss.named("neural.lstm_backward")
    m["neural.lstm_forward_calls"] = len(fwd)
    m["neural.lstm_backward_calls"] = len(bwd)
    m["neural.lstm_steps"] = sum(s[6]["T"] for s in fwd + bwd)
    m["neural.lstm_s"] = sum(ss.self_time(s) for s in fwd + bwd)
    flop = sum(s[6]["T"] * 8 * s[6]["H"] * (s[6]["D"] + s[6]["H"]) for s in fwd)
    flop += sum(s[6]["T"] * 16 * s[6]["H"] * (s[6]["D"] + s[6]["H"]) for s in bwd)
    m["neural.lstm_gflop"] = flop / 1e9
    adam = ss.named("neural.adam_step")
    m["neural.adam_steps"] = len(adam)
    m["neural.adam_s"] = _dur(adam)
    win = [s[3] - s[2] for s in fwd if _shape(s) == WINDOW_SHAPE]
    m["neural.lstm_fwd_us." + WINDOW_SHAPE] = 1e6 * statistics.median(win) if win else 0.0
    for kind, group in (("fwd", fwd), ("bwd", bwd)):
        for c in SHAPE_CLASSES:
            sel = [s for s in group if _shape(s).endswith(c)]
            steps = sum(s[6]["T"] for s in sel)
            m["neural.lstm_%s_us_per_step.%s" % (kind, c)] = (
                1e6 * _dur(sel) / steps if steps else 0.0)

    mil = ss.named("stage1.mil_loss_grads")
    m["stage1.bags"] = len(mil)
    m["stage1.bag_fwd_bwd_s"] = _dur(mil)
    train1 = ss.named("stage1.train_mil")
    epochs1 = sum(s[6]["epochs"] for s in train1)
    m["stage1.epochs_run"] = epochs1
    m["stage1.epoch_s"] = _dur(train1) / epochs1 if epochs1 else 0.0
    scoring = ss.named("stage1.score_events")
    val = [s for s in scoring if ss.under(s, "stage1.train_mil")]
    test = [s for s in scoring if not ss.under(s, "stage1.train_mil")]
    m["stage1.val_score_s"] = _dur(val)
    m["stage1.threshold_search_s"] = _dur(ss.named("stage1.select_threshold"))
    m["stage1.score_events_s"] = _dur(test)
    m["stage1.windows_scored"] = sum(s[6]["windows"] for s in test)
    extract = [s for s in ss.named("stage1.extract_proposals")
               if not ss.under(s, "stage1.select_threshold")]
    m["stage1.extract_s"] = _dur(extract)
    m["stage1.proposals"] = sum(s[6]["proposals"] for s in extract)

    hma = ss.named("stage2.hma_loss_grads")
    m["stage2.items"] = len(hma)
    m["stage2.fwd_bwd_s"] = _dur(hma)
    train2 = ss.named("stage2.train_hma")
    epochs2 = sum(s[6]["epochs"] for s in train2)
    m["stage2.epochs_run"] = epochs2
    m["stage2.epoch_s"] = _dur(train2) / epochs2 if epochs2 else 0.0
    m["stage2.train_self_s"] = sum(ss.self_time(s) for s in train2)
    m["stage2.score_s"] = _dur(ss.named("stage2.score_proposals"))

    render = ss.named("synth.synth_audio_track")
    m["synth.audio_render_s"] = _dur(render)
    m["synth.audio_tracks"] = len(render)
    m["synth.audio_unique_ratio"] = _ratio([s[6]["key"] for s in render])

    desc = ss.named("features.audio.extract_event_audio_features")
    m["features.audio.descriptor_s"] = _dur(desc)
    m["features.audio.windows"] = len(desc)
    m["features.audio.unique_ratio"] = _ratio([s[6]["key"] for s in desc])
    m["features.audio.numpy_warnings"] = sum(
        n for where, n in warnings.items() if "features/audio.py" in where)

    enc = ss.named("features.metadata.encode_match")
    m["features.metadata.encode_s"] = _dur(enc)
    m["features.metadata.events"] = sum(s[6]["events"] for s in enc)
    keys = [(s[6]["key"], i) for s in enc for i in range(s[6]["events"])]
    m["features.metadata.unique_ratio"] = _ratio(keys)

    cands = ss.named("stage3.generate_candidates")
    m["stage3.candidates"] = sum(s[6]["k"] for s in cands)
    m["stage3.generate_s"] = _dur(cands)
    m["stage3.over_budget"] = sum(s[6]["over"] for s in cands)
    m["stage3.distinct_ratio"] = (
        statistics.mean(s[6]["distinct"] / s[6]["k"] for s in cands) if cands else 0.0)
    m["stage3.mean_jaccard"] = (
        statistics.mean(s[6]["jaccard"] for s in cands) if cands else 0.0)

    evals = [s for s in ss.spans if s[1].startswith("evaluation.")]
    m["evaluation.s"] = _dur(evals)
    m["evaluation.matches"] = (len(ss.named("evaluation.overlap_match"))
                               + len(ss.named("evaluation.match_summary_actions")))

    m["pipeline.prepare_fold_s"] = _dur(ss.named("pipeline.prepare_fold"))
    m["pipeline.artifact_write_s"] = _dur(ss.named("pipeline.artifact_write"))
    m["pipeline.artifact_read_s"] = _dur(ss.named("pipeline.artifact_read"))
    m["pipeline.pool_s"] = _dur(ss.named("pipeline.pool"))
    m["pipeline.self_s"] = sum(
        ss.self_time(s)
        for s in ss.named("pipeline.run_protocol") + ss.named("pipeline.run_fold"))
    return m


def per_call_metrics(spans) -> dict:
    """Median duration of one call, over every traced call including set-up."""
    out = {}
    ss = SpanSet(spans)
    for metric, names in (
            ("synth.generate_s", ("synth.generate_dataset", "synth.generate_match")),
            ("io.save_dataset_s", ("io.save_dataset",)),
            ("io.load_dataset_s", ("io.load_dataset",))):
        # outermost calls only: generate_match inside generate_dataset is part of it
        durs = [s[3] - s[2] for n in names for s in ss.named(n)
                if not any(ss.under(s, other) for other in names)]
        out[metric] = statistics.median(durs) if durs else 0.0
    return out


def _shape(span) -> str:
    a = span[6]
    return "T%d_D%d_H%d" % (a["T"], a["D"], a["H"])


def shape_table(spans) -> dict:
    """Per (kernel, T, D, H): calls and median microseconds per call."""
    groups = defaultdict(list)
    for s in spans:
        if s[1] in ("neural.lstm_forward", "neural.lstm_backward"):
            kind = "fwd" if s[1].endswith("forward") else "bwd"
            groups["%s.%s" % (kind, _shape(s))].append(s[3] - s[2])
    return {k: {"calls": len(v), "median_us": 1e6 * statistics.median(v)}
            for k, v in sorted(groups.items())}
