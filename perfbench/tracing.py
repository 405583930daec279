"""In-memory span tracing around the public functions of each soccersum layer.

``Tracer.install()`` replaces module attributes with wrappers that record a
span per call: (id, name, start, end, parent id, operation id, attributes).
Each binding is wrapped where callers look it up, e.g. both
``soccersum.stage1.lstm_forward`` and ``soccersum.stage2.lstm_forward``;
several bindings of one function share one span name.  Nothing inside
``src/`` changes.  Spans stay in memory until the caller writes them out.

Process pools: ``pipeline._parallel_map`` is wrapped so that each task runs
under ``_traced_task``, which records the task's spans in the worker and
returns them with the task result; the parent merges them under the pool
span.  Worker spans therefore reach the trace for every start method.
"""
from __future__ import annotations

import functools
import importlib
import os
import time
import warnings
from collections import Counter

import numpy as np

# (module path, attribute, span name).  A module path may end in a class.
WRAPS = [
    # neural
    ("soccersum.stage1", "lstm_forward", "neural.lstm_forward"),
    ("soccersum.stage1", "lstm_backward", "neural.lstm_backward"),
    ("soccersum.stage2", "lstm_forward", "neural.lstm_forward"),
    ("soccersum.stage2", "lstm_backward", "neural.lstm_backward"),
    ("soccersum.neural.optim:Adam", "step", "neural.adam_step"),
    # stage 1
    ("soccersum.pipeline", "sample_training_bags", "stage1.sample_training_bags"),
    ("soccersum.cli", "sample_training_bags", "stage1.sample_training_bags"),
    ("soccersum.pipeline", "train_mil", "stage1.train_mil"),
    ("soccersum.cli", "train_mil", "stage1.train_mil"),
    ("soccersum.stage1", "mil_loss_grads", "stage1.mil_loss_grads"),
    ("soccersum.stage1", "score_events", "stage1.score_events"),
    ("soccersum.pipeline", "score_events", "stage1.score_events"),
    ("soccersum.stage1", "select_threshold", "stage1.select_threshold"),
    ("soccersum.stage1", "extract_proposals", "stage1.extract_proposals"),
    ("soccersum.pipeline", "extract_proposals", "stage1.extract_proposals"),
    ("soccersum.pipeline", "find_vocabulary_spans", "stage1.find_vocabulary_spans"),
    # stage 2
    ("soccersum.pipeline", "train_hma", "stage2.train_hma"),
    ("soccersum.stage2", "hma_loss_grads", "stage2.hma_loss_grads"),
    ("soccersum.stage2", "score_proposals", "stage2.score_proposals"),
    ("soccersum.pipeline", "score_proposals", "stage2.score_proposals"),
    # stage 3
    ("soccersum.stage3", "generate_candidates", "stage3.generate_candidates"),
    ("soccersum.pipeline", "generate_candidates", "stage3.generate_candidates"),
    ("soccersum.stage3", "assemble_summary", "stage3.assemble_summary"),
    ("soccersum.pipeline", "assemble_summary", "stage3.assemble_summary"),
    # synthetic data and audio rendering
    ("soccersum.synth", "generate_dataset", "synth.generate_dataset"),
    ("soccersum.cli", "generate_dataset", "synth.generate_dataset"),
    ("soccersum.synth", "generate_match", "synth.generate_match"),
    ("soccersum.synth", "resolve_audio", "synth.resolve_audio"),
    ("soccersum.pipeline", "resolve_audio", "synth.resolve_audio"),
    ("soccersum.synth", "synth_audio_track", "synth.synth_audio_track"),
    # features
    ("soccersum.features", "extract_event_audio_features",
     "features.audio.extract_event_audio_features"),
    ("soccersum.pipeline", "extract_event_audio_features",
     "features.audio.extract_event_audio_features"),
    ("soccersum.features.metadata:MetadataEncoder", "encode_match",
     "features.metadata.encode_match"),
    # evaluation
    ("soccersum.pipeline", "overlap_match", "evaluation.overlap_match"),
    ("soccersum.pipeline", "match_summary_actions", "evaluation.match_summary_actions"),
    ("soccersum.pipeline", "soccer_baseline", "evaluation.soccer_baseline"),
    ("soccersum.pipeline", "kfold_split", "evaluation.kfold_split"),
    ("soccersum.pipeline", "aggregate_results", "evaluation.aggregate_results"),
    # dataset io
    ("soccersum.io", "save_dataset", "io.save_dataset"),
    ("soccersum.cli", "save_dataset", "io.save_dataset"),
    ("soccersum.io", "load_dataset", "io.load_dataset"),
    ("soccersum.cli", "load_dataset", "io.load_dataset"),
    ("soccersum.pipeline", "load_dataset", "io.load_dataset"),
    # pipeline orchestration and artifacts
    ("soccersum.cli", "run_protocol", "pipeline.run_protocol"),
    ("soccersum.pipeline", "run_fold", "pipeline.run_fold"),
    ("soccersum.pipeline", "prepare_fold", "pipeline.prepare_fold"),
    ("soccersum.cli", "prepare_fold", "pipeline.prepare_fold"),
    ("soccersum.pipeline", "save_model_checkpoint", "pipeline.artifact_write"),
    ("soccersum.pipeline", "write_features_json", "pipeline.artifact_write"),
    ("soccersum.cli", "save_model_checkpoint", "pipeline.artifact_write"),
    ("soccersum.cli", "write_features_json", "pipeline.artifact_write"),
    ("soccersum.pipeline", "write_scores_csv", "pipeline.artifact_write"),
    ("soccersum.pipeline", "write_proposals_json", "pipeline.artifact_write"),
    ("soccersum.pipeline", "write_theta_csv", "pipeline.artifact_write"),
    ("soccersum.pipeline", "write_candidates_json", "pipeline.artifact_write"),
    ("soccersum.pipeline", "write_results", "pipeline.artifact_write"),
    ("soccersum.pipeline", "load_model_checkpoint", "pipeline.artifact_read"),
    ("soccersum.pipeline", "read_features_json", "pipeline.artifact_read"),
]

POOL_BINDING = ("soccersum.pipeline", "_parallel_map")


def _resolve(path: str):
    mod_name, _, cls_name = path.partition(":")
    obj = importlib.import_module(mod_name)
    return getattr(obj, cls_name) if cls_name else obj


def _track_key(track) -> tuple:
    """Cheap identity of an audio track: length plus its first samples."""
    return (len(track), np.asarray(track[:32]).tobytes())


# attribute extractors: (args, kwargs, result) -> dict of span attributes
def _lstm_fwd_attrs(args, kwargs, result):
    x, W, U = args[0], args[1], args[2]
    return {"T": int(x.shape[0]), "D": int(x.shape[1]), "H": int(U.shape[1])}


def _lstm_bwd_attrs(args, kwargs, result):
    x, W, U = args[0], args[4], args[5]
    return {"T": int(x.shape[0]), "D": int(x.shape[1]), "H": int(U.shape[1])}


def _score_events_attrs(args, kwargs, result):
    from soccersum.stage1 import window_starts
    feats, config = args[1], args[2]
    return {"windows": len(window_starts(feats.shape[0], config.window, config.stride)),
            "events": int(feats.shape[0])}


def _extract_attrs(args, kwargs, result):
    return {"proposals": len(result)}


def _train_attrs(args, kwargs, result):
    return {"epochs": len(result.history)}


def _items_attrs(args, kwargs, result):
    return {"items": len(args[1])}


def _candidates_attrs(args, kwargs, result):
    sets = [frozenset(c.chosen) for c in result]
    pairs = [(a, b) for i, a in enumerate(sets) for b in sets[i + 1:]]
    jac = [len(a & b) / len(a | b) if (a | b) else 1.0 for a, b in pairs]
    return {"k": len(result),
            "over": sum(1 for c in result if c.over_budget),
            "distinct": len(set(sets)),
            "jaccard": float(np.mean(jac)) if jac else 1.0}


def _render_attrs(args, kwargs, result):
    spec, bursts = args[0], args[1]
    return {"key": repr((sorted(spec.items()), tuple(bursts)))}


def _descriptor_attrs(args, kwargs, result):
    track, fs, t = args[0], args[1], args[2]
    return {"key": repr((_track_key(track), fs, round(float(t), 6)))}


def _encode_attrs(args, kwargs, result):
    match = args[1]
    ev = match.events
    return {"events": len(ev),
            "key": repr((match.match_id, len(ev), ev[0].t, ev[-1].t))}


def _bags_attrs(args, kwargs, result):
    return {"bags": len(result)}


ATTRS = {
    "neural.lstm_forward": _lstm_fwd_attrs,
    "neural.lstm_backward": _lstm_bwd_attrs,
    "stage1.score_events": _score_events_attrs,
    "stage1.extract_proposals": _extract_attrs,
    "stage1.train_mil": _train_attrs,
    "stage1.sample_training_bags": _bags_attrs,
    "stage2.train_hma": _train_attrs,
    "stage2.score_proposals": _items_attrs,
    "stage3.generate_candidates": _candidates_attrs,
    "synth.synth_audio_track": _render_attrs,
    "features.audio.extract_event_audio_features": _descriptor_attrs,
    "features.metadata.encode_match": _encode_attrs,
}


class Tracer:
    """Span recorder.  One instance per process; ``TRACER`` below."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list = []
        self.active = False
        self.op = None
        self.warnings: Counter = Counter()
        self._next = 0
        self._installed = False

    # -- spans --------------------------------------------------------------
    def _new_id(self):
        self._next += 1
        return "%d:%d" % (os.getpid(), self._next)

    def call(self, name, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        with self.span(name) as sp:
            result = fn(*args, **kwargs)
        extract = ATTRS.get(name)
        if extract:  # outside the span, so attribute work is not timed
            sp.record[6] = extract(args, kwargs, result)
        return result

    def span(self, name, **attrs):
        return _Span(self, name, attrs)

    # -- installation ---------------------------------------------------------
    def install(self):
        """Wrap every binding in WRAPS once per process."""
        if self._installed:
            return
        for path, attr, name in WRAPS:
            owner = _resolve(path)
            original = getattr(owner, attr)
            setattr(owner, attr, _wrapper(self, name, original))
        owner = _resolve(POOL_BINDING[0])
        original = getattr(owner, POOL_BINDING[1])
        setattr(owner, POOL_BINDING[1], _pool_wrapper(self, original))
        self._installed = True

    def start(self):
        """Begin recording spans and counting every warning."""
        self.install()
        self.active = True
        self._catcher = warnings.catch_warnings()
        self._catcher.__enter__()
        warnings.simplefilter("always")
        warnings.showwarning = self._count_warning

    def stop(self):
        self.active = False
        self._catcher.__exit__(None, None, None)

    def _count_warning(self, message, category, filename, lineno, file=None, line=None):
        self.warnings["%s:%d %s" % (os.path.relpath(filename), lineno, category.__name__)] += 1


class _Span:
    def __init__(self, tracer, name, attrs):
        self.tracer, self.name, self.attrs = tracer, name, attrs or None

    def __enter__(self):
        t = self.tracer
        if not t.active:
            self.sid = None
            return self
        self.sid = t._new_id()
        self.parent = t.stack[-1] if t.stack else None
        t.stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        if self.sid is None:
            return False
        end = time.perf_counter()
        t.stack.pop()
        self.record = [self.sid, self.name, self.start, end, self.parent, t.op, self.attrs]
        t.spans.append(self.record)
        return False


def _wrapper(tracer, name, original):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        return tracer.call(name, original, args, kwargs)
    return traced


TRACER = Tracer()


def _traced_task(fn, arg):
    """Run one pool task under a span; return (result, spans, warnings).

    A forked worker inherits the parent's active tracer; a spawned one
    starts its own."""
    if not TRACER.active:
        TRACER.start()
    since = len(TRACER.spans)
    before = Counter(TRACER.warnings)
    with TRACER.span("pipeline.%s" % fn.__name__):
        result = fn(arg)
    spans = TRACER.spans[since:]
    del TRACER.spans[since:]
    counts = TRACER.warnings - before
    TRACER.warnings = before
    return result, spans, dict(counts)


def _pool_wrapper(tracer, original):
    @functools.wraps(original)
    def traced(fn, tasks, jobs):
        if not tracer.active:
            return original(fn, tasks, jobs)
        with tracer.span("pipeline.pool", jobs=int(jobs), tasks=len(tasks)) as sp:
            out = original(functools.partial(_traced_task, fn), tasks, jobs)
            results = []
            for result, spans, counts in out:
                for s in spans:
                    if s[4] is None:
                        s[4] = sp.sid
                    s[5] = tracer.op
                tracer.spans.extend(spans)
                tracer.warnings.update(counts)
                results.append(result)
        return results
    return traced
