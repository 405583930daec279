"""The names the benchmark harness looks up in the package.

``perfbench/tracing.py`` wraps module attributes by name, and
``perfbench/run.py`` reads the kernel bindings for its environment record.
Deleting or renaming one of them breaks ``perfbench --trace 1``; this test
notices it within the ordinary suite.  The tracer module is loaded from its
file and only read.

``perfbench/workloads.py`` also calls package functions directly; each of
those calls must still bind to the signature it calls.
"""
import functools
import importlib
import importlib.util
import inspect
import os

import pytest

from soccersum.neural import kernels

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


def test_traced_bindings_resolve():
    bindings = [(path, attr) for path, attr, _ in tracing.WRAPS] + [tracing.POOL_BINDING]
    missing = ["%s.%s" % (path, attr) for path, attr in bindings
               if not callable(getattr(tracing._resolve(path), attr, None))]
    assert not missing, missing


def test_environment_record_kernel_bindings():
    assert callable(kernels.lstm_forward)
    assert kernels.lstm_forward_numpy is kernels.lstm_forward


# every package call perfbench/workloads.py makes, as (module, attribute
# path, positional argument count, keyword names)
WORKLOAD_CALLS = [
    ("soccersum.config", "load_config", 2, ("use_env",)),
    ("soccersum.config", "PipelineConfig.gen_config", 1, ()),
    ("soccersum.synth", "generate_dataset", 2, ()),
    ("soccersum.synth", "generate_match", 3, ()),
    ("soccersum.synth", "resolve_audio", 2, ()),
    ("soccersum.io", "save_dataset", 2, ()),
    ("soccersum.io", "load_dataset", 1, ()),
    ("soccersum.io", "Dataset", 0, ("vocabulary", "matches", "summaries")),
    ("soccersum.io", "Dataset.match_ids", 1, ()),
    ("soccersum.io", "Dataset.by_id", 2, ()),
    ("soccersum.core", "Match.type_sequence", 1, ()),
    ("soccersum.core", "Action", 3, ()),
    ("soccersum.core", "PaddingConfig", 2, ()),
    ("soccersum.core", "action_duration", 3, ()),
    ("soccersum.core", "action_type", 2, ()),
    ("soccersum.pipeline", "run_fold", 4, ("out_dir", "data_dir", "jobs")),
    ("soccersum.pipeline", "load_model_checkpoint", 1, ()),
    ("soccersum.pipeline", "read_features_json", 1, ()),
    ("soccersum.features.metadata", "MetadataEncoder", 2, ()),
    ("soccersum.features.metadata", "MetadataEncoder.encode_match", 2, ()),
    ("soccersum.features", "extract_event_audio_features", 3, ()),
    ("soccersum.stage1", "MilModel.from_checkpoint", 1, ()),
    ("soccersum.stage1", "score_events", 3, ()),
    ("soccersum.stage1", "extract_proposals", 3, ()),
    ("soccersum.stage2", "HmaModel.from_checkpoint", 1, ()),
    ("soccersum.stage2", "score_proposals", 2, ()),
    ("soccersum.stage3", "generate_candidates", 4, ("k", "sigma", "seed_key", "tol", "mode")),
    ("soccersum.stage3", "assemble_summary", 6, ()),
    ("soccersum.stage3", "baseline_ranking", 2, ()),
    ("soccersum.evaluation", "kfold_split", 3, ()),
    ("soccersum.evaluation", "overlap_match", 2, ()),
    ("soccersum.evaluation", "match_summary_actions", 3, ()),
]


@pytest.mark.parametrize("module, path, n_args, keywords", WORKLOAD_CALLS,
                         ids=["%s.%s" % call[:2] for call in WORKLOAD_CALLS])
def test_workload_calls_bind(module, path, n_args, keywords):
    target = functools.reduce(getattr, path.split("."), importlib.import_module(module))
    inspect.signature(target).bind(*[None] * n_args, **dict.fromkeys(keywords))
