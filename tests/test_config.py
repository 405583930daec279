"""Configuration parsing, precedence, and hashing."""
import dataclasses
import inspect

import pytest

from soccersum import evaluation, stage1, stage2, stage3
from soccersum.config import KNOWN_KEYS, PipelineConfig, load_config
from soccersum.core import ConfigError, PaddingConfig
from soccersum.features import QualifierCodebook
from soccersum.neural import Adam, FitConfig
from soccersum.stage1 import MilConfig
from soccersum.stage2 import HmaConfig
from soccersum.synth import GenConfig


def test_defaults_present():
    cfg = PipelineConfig()
    assert cfg["seed"] == 7
    assert cfg["gen.matches"] == 60
    assert cfg["stage3.sigma"] == 0.05
    assert cfg["eval.kfold"] == 10


def test_set_parses_strings_by_declared_type():
    cfg = PipelineConfig()
    cfg.set("stage1.hidden", "24")
    assert cfg["stage1.hidden"] == 24
    cfg.set("stage3.sigma", "0.5")
    assert cfg["stage3.sigma"] == 0.5


def test_set_takes_a_number_for_an_integer_key_only_if_integral():
    """A number for an integer key (a checkpoint's ``_meta.window`` record
    is read as a float) is stored as an int, or refused naming the key."""
    cfg = PipelineConfig()
    cfg.set("stage1.window", 10.0)
    assert type(cfg["stage1.window"]) is int
    assert cfg.config_hash() == PipelineConfig().config_hash()
    for value in (2.5, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="key 'stage1.window': .* is not an integer"):
            cfg.set("stage1.window", value)


def test_bad_values_and_unknown_keys_rejected():
    cfg = PipelineConfig()
    with pytest.raises(ConfigError):
        cfg.set("stage1.hidden", "many")
    with pytest.raises(ConfigError):
        cfg.set("stage3.sigma", "maybe")
    with pytest.raises(ConfigError):
        cfg.set("stage1.hiden", 16)
    with pytest.raises(ConfigError):
        cfg["no.such.key"]


def test_stage3_mode_must_be_a_budget_mode(tmp_path, monkeypatch):
    p = tmp_path / "typo.cfg"
    p.write_text("stage3.mode = stop-first\n")
    with pytest.raises(ConfigError, match="typo.cfg:1: key 'stage3.mode': 'stop-first'"):
        load_config(str(p), use_env=False)
    monkeypatch.setenv("SOCCERSUM_STAGE3_MODE", "greedy")
    with pytest.raises(ConfigError, match="'greedy' is not one of stop_first, skip_continue"):
        load_config()
    assert load_config(overrides={"stage3.mode": "skip_continue"},
                       use_env=False)["stage3.mode"] == "skip_continue"


def test_file_parsing_with_comments_and_include(tmp_path):
    base = tmp_path / "base.cfg"
    base.write_text("# shared settings\n\ngen.matches = 12\nstage1.epochs = 3\n")
    main = tmp_path / "main.cfg"
    main.write_text("include base.cfg\nstage1.epochs = 5\nseed = 11\n")
    cfg = load_config(str(main), use_env=False)
    assert cfg["gen.matches"] == 12
    assert cfg["stage1.epochs"] == 5  # later assignment wins over the include
    assert cfg["seed"] == 11


def test_include_cycle_detected(tmp_path):
    a = tmp_path / "a.cfg"
    b = tmp_path / "b.cfg"
    a.write_text("include b.cfg\n")
    b.write_text("include a.cfg\n")
    with pytest.raises(ConfigError, match="cycle"):
        load_config(str(a), use_env=False)


def test_file_errors_name_the_location(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("seed = 7\nthis line has no equals\n")
    with pytest.raises(ConfigError, match="bad.cfg:2"):
        load_config(str(p), use_env=False)
    p.write_text("gen.matches = lots\n")
    with pytest.raises(ConfigError, match="bad.cfg:1"):
        load_config(str(p), use_env=False)
    with pytest.raises(ConfigError, match="does not exist"):
        load_config(str(tmp_path / "missing.cfg"), use_env=False)


def test_env_and_overrides_precedence(tmp_path, monkeypatch):
    p = tmp_path / "c.cfg"
    p.write_text("gen.matches = 20\nstage1.epochs = 9\n")
    monkeypatch.setenv("SOCCERSUM_GEN_MATCHES", "30")
    monkeypatch.setenv("SOCCERSUM_STAGE3_SIGMA", "0.25")
    cfg = load_config(str(p), overrides={"gen.matches": 40})
    assert cfg["gen.matches"] == 40      # explicit override beats env beats file
    assert cfg["stage3.sigma"] == 0.25   # env beats default
    assert cfg["stage1.epochs"] == 9     # file beats default


def test_apply_env_uses_given_mapping():
    cfg = PipelineConfig()
    cfg.apply_env({"SOCCERSUM_SEED": "99", "UNRELATED": "x"})
    assert cfg["seed"] == 99


@pytest.mark.parametrize("value", [0, -3, "0", "-3"], ids=["0", "-3", "'0'", "'-3'"])
def test_jobs_below_one_is_rejected(value):
    with pytest.raises(ConfigError, match="jobs"):
        PipelineConfig().set("jobs", value)
    with pytest.raises(ConfigError, match="jobs"):
        PipelineConfig().apply_env({"SOCCERSUM_JOBS": str(value)})


def test_config_hash_identifies_the_experiment():
    a = PipelineConfig()
    b = PipelineConfig()
    assert a.config_hash() == b.config_hash()
    b.set("jobs", 8)
    # worker count is excluded from the identity on purpose
    assert a.config_hash() == b.config_hash()
    b.set("stage3.sigma", 0.2)
    assert a.config_hash() != b.config_hash()
    assert len(a.config_hash()) == 12


def test_canonical_lists_every_key_except_jobs():
    cfg = PipelineConfig()
    canon = cfg.canonical()
    for key in KNOWN_KEYS:
        if key == "jobs":
            assert "\njobs" not in canon and not canon.startswith("jobs")
        else:
            assert key + " = " in canon


def test_default_config_hash_is_pinned():
    # every artifact carries this hash; a change to a default or to the
    # canonical listing changes it
    assert load_config(use_env=False).config_hash() == "90093f27b1e6"


# (key prefix, builder, its arguments, dataclass) of each section
SECTIONS = [
    ("gen.", "gen_config", (), GenConfig),
    ("pad.", "padding", (), PaddingConfig),
    ("stage1.", "mil_config", (), MilConfig),
    ("stage2.", "hma_config", (), HmaConfig),
    ("stage1.", "fit_config", ("stage1",), FitConfig),
    ("stage2.", "fit_config", ("stage2",), FitConfig),
]
# section keys that the pipeline reads itself, not through a dataclass field
UNFIELDED_KEYS = {"stage1.neg_min_len", "stage1.beta", "stage2.overlap_ratio"}


def test_typed_subconfig_builders():
    cfg = PipelineConfig({"stage1.window": 12, "stage2.lr": 0.01,
                          "gen.audio_gain": 5.0, "pad.pre": 2.0})
    assert cfg.mil_config().window == 12
    assert cfg.fit_config("stage2").lr == 0.01
    assert cfg.fit_config("stage1").lr == KNOWN_KEYS["stage1.lr"][1]
    gen = cfg.gen_config()
    assert gen.audio_gain == 5.0
    assert gen.padding == cfg.padding() == PaddingConfig(2.0, 10.0)

    # every section key, set away from its default, reaches its field
    changed = {key: default + 1 if typ is int else default + 0.25
               for key, (typ, default, _domain) in KNOWN_KEYS.items()
               if key.startswith(tuple(prefix for prefix, *_ in SECTIONS))}
    cfg = PipelineConfig(changed)
    reached = set()
    for prefix, builder, args, cls in SECTIONS:
        built = getattr(cfg, builder)(*args)
        for field in dataclasses.fields(cls):
            key = prefix + field.name
            if key in KNOWN_KEYS:
                assert getattr(built, field.name) == changed[key], key
                reached.add(key)
    assert set(changed) - reached == UNFIELDED_KEYS
    assert cfg.gen_config().padding == cfg.padding()


# the parameters whose value is a configuration key's: each call site
# passes the key's value
KEYED_PARAMETERS = {
    stage3.generate_candidates: ("k", "sigma", "tol", "mode"),
    stage3.assemble_summary: ("tol", "mode"),
    stage1.sample_training_bags: ("neg_min_len",),
    stage1.select_threshold: ("beta",),
    stage2.label_proposal: ("ratio",),
    QualifierCodebook.from_events: ("dims",),
    evaluation.kfold_split: ("k",),
    Adam: ("lr",),
}


def test_only_the_key_table_states_a_default():
    """A section field or a keyed parameter with a default of its own
    would state a key's default a second time."""
    stated = ["%s.%s" % (cls.__name__, f.name)
              for cls in {cls for *_, cls in SECTIONS}
              for f in dataclasses.fields(cls)
              if f.default is not dataclasses.MISSING
              or f.default_factory is not dataclasses.MISSING]
    for func, names in KEYED_PARAMETERS.items():
        params = inspect.signature(func).parameters
        stated += ["%s(%s)" % (func.__qualname__, name) for name in names
                   if params[name].default is not inspect.Parameter.empty]
    assert stated == []


def test_pipeline_takes_no_setting_beside_its_config():
    """A public pipeline callable that takes ``config`` reads the run's seed,
    worker count and fold count from it.  ``run_fold`` keeps its ``seed``
    and ``jobs`` for the callers that pass them, and sets them in a copy
    of the config it runs."""
    from soccersum import pipeline

    shadows = []
    for name, obj in vars(pipeline).items():
        if (name.startswith("_") or name == "run_fold" or not callable(obj)
                or getattr(obj, "__module__", None) != pipeline.__name__):
            continue
        params = set(inspect.signature(obj).parameters)
        if "config" in params:
            shadows += ["%s(%s)" % (name, p) for p in ("seed", "jobs", "n_folds") if p in params]
    assert shadows == []
