"""Run configuration.

Plain-text files with ``key = value`` lines, ``#`` comments, and
``include <path>`` directives (relative to the including file).  Keys are
registered with a type, a default and, for some, a domain of valid values;
unknown keys, values that are not of a key's type and values outside its
domain are rejected.  ``KNOWN_KEYS`` is the one statement of each default:
the typed sections the pipeline reads (``mil_config``, ``hma_config``,
``fit_config``, ``gen_config``, ``padding``) declare none.  A model
checkpoint's ``_meta.*`` records go through the same checks
(``stage1.MilModel.from_checkpoint``).  Environment
variables named ``SOCCERSUM_<KEY>`` (dots become underscores, uppercase)
override file values; explicit CLI flags override both.

Every run artifact embeds ``config_hash`` (short sha256 of the resolved
key=value listing) plus the seed, so downstream steps can refuse to mix
artifacts produced under different configurations.
"""
from __future__ import annotations

import dataclasses
import hashlib
import math
import os

from .core import ConfigError, PaddingConfig, naming, open_input
from .features.audio import MIN_RATE
from .neural import FitConfig
from .stage1 import MilConfig
from .stage2 import HmaConfig
from .stage3 import BUDGET_MODES
from .synth import GenConfig

ENV_PREFIX = "SOCCERSUM_"

# A domain is (description, predicate): a value the predicate rejects is a
# configuration error, "key 'k': <value> is not <description>".
_COUNT = ("an integer of at least 1", lambda v: v >= 1)
_SEED = ("an integer of at least 0", lambda v: v >= 0)  # numpy's ``SeedSequence`` rule
# test, validation and training shards must be distinct
_KFOLD = ("an integer of at least 3", lambda v: v >= 3)
_AUDIO_RATE = ("an integer of at least %d" % MIN_RATE, lambda v: v >= MIN_RATE)
_POSITIVE = ("a finite number above 0", lambda v: math.isfinite(v) and v > 0)
_NON_NEGATIVE = ("a finite number of at least 0", lambda v: math.isfinite(v) and v >= 0)
# also the rule of a stage-1 score (a ``scores.csv`` row) and threshold
# (``--threshold`` and a checkpoint's ``_meta.threshold``)
UNIT = ("a number in [0, 1]", lambda v: 0 <= v <= 1)
# at 0 every proposal that touches a summary action is a positive, so
# stage-2 training never sees both classes
_OVERLAP = ("a number in (0, 1]", lambda v: 0 < v <= 1)
_BUDGET_MODE = ("one of " + ", ".join(BUDGET_MODES), lambda v: v in BUDGET_MODES)

# key -> (type, default, domain or None)
KNOWN_KEYS: dict[str, tuple[type, object, tuple | None]] = {
    "seed": (int, 7, _SEED),
    "jobs": (int, 1, _COUNT),
    "gen.matches": (int, 60, _COUNT),
    "gen.events_mean": (int, 1500, _COUNT),
    "gen.budget_min": (float, 110.0, _NON_NEGATIVE),
    "gen.budget_max": (float, 270.0, _NON_NEGATIVE),
    "gen.audio_rate": (int, 8000, _AUDIO_RATE),
    "gen.audio_gain": (float, 3.0, _NON_NEGATIVE),
    "gen.audio_base_amp": (float, 0.05, _NON_NEGATIVE),
    "gen.noise_insert": (float, 0.08, UNIT),
    "gen.noise_swap": (float, 0.02, UNIT),
    "gen.goals_min": (int, 1, _COUNT),
    "gen.goals_max": (int, 3, _COUNT),
    "features.qualifier_dims": (int, 8, _COUNT),
    "pad.pre": (float, 5.0, _NON_NEGATIVE),
    "pad.post": (float, 10.0, _NON_NEGATIVE),
    "stage1.hidden": (int, 16, _COUNT),
    "stage1.window": (int, 10, _COUNT),
    "stage1.stride": (int, 5, _COUNT),
    "stage1.lse_r": (float, 8.0, _POSITIVE),
    "stage1.epochs": (int, 100, _COUNT),
    "stage1.patience": (int, 20, _COUNT),
    "stage1.batch": (int, 32, _COUNT),
    "stage1.lr": (float, 1e-3, _POSITIVE),
    "stage1.neg_min_len": (int, 4, _COUNT),
    "stage1.beta": (float, 2.0, _POSITIVE),
    "stage2.hidden_modality": (int, 32, _COUNT),
    "stage2.hidden_fusion": (int, 16, _COUNT),
    "stage2.epochs": (int, 100, _COUNT),
    "stage2.patience": (int, 20, _COUNT),
    "stage2.batch": (int, 32, _COUNT),
    "stage2.lr": (float, 1e-3, _POSITIVE),
    "stage2.overlap_ratio": (float, 0.5, _OVERLAP),
    "stage3.samples": (int, 10, _COUNT),
    "stage3.sigma": (float, 0.05, _NON_NEGATIVE),
    "stage3.budget_tol": (float, 0.1, _NON_NEGATIVE),
    "stage3.mode": (str, "stop_first", _BUDGET_MODE),
    "eval.kfold": (int, 10, _KFOLD),
    "eval.folds": (int, 10, _COUNT),
    "eval.beta": (float, 2.0, _POSITIVE),
}

# (low, high) key pairs whose low value must not be above the high one; a
# stride above the window leaves events that no window scores
ORDERED_KEYS = (("gen.budget_min", "gen.budget_max"), ("gen.goals_min", "gen.goals_max"),
                ("stage1.stride", "stage1.window"))


def _parse_value(key: str, raw: str):
    typ = KNOWN_KEYS[key][0]
    raw = raw.strip()
    try:
        return typ(raw)
    except ValueError:
        raise ConfigError("key %r: cannot parse %r as %s" % (key, raw, typ.__name__))


class PipelineConfig:
    def __init__(self, values: dict | None = None):
        self.values = {k: d for k, (_t, d, _domain) in KNOWN_KEYS.items()}
        if values:
            for k, v in values.items():
                self.set(k, v)

    def set(self, key: str, value) -> None:
        if key not in KNOWN_KEYS:
            raise ConfigError("unknown configuration key %r" % key)
        if isinstance(value, str):
            value = _parse_value(key, value)
        elif KNOWN_KEYS[key][0] is int and not isinstance(value, int):
            if not float(value).is_integer():  # false for NaN and infinities
                raise ConfigError("key %r: %r is not an integer" % (key, value))
            value = int(value)
        domain = KNOWN_KEYS[key][2]
        if domain is not None and not domain[1](value):
            raise ConfigError("key %r: %r is not %s" % (key, value, domain[0]))
        self.values[key] = value

    def __getitem__(self, key: str):
        if key not in KNOWN_KEYS:
            raise ConfigError("unknown configuration key %r" % key)
        return self.values[key]

    def apply_env(self, environ=None) -> None:
        env = os.environ if environ is None else environ
        for key in KNOWN_KEYS:
            name = ENV_PREFIX + key.upper().replace(".", "_")
            if name in env:
                self.set(key, env[name])

    def canonical(self) -> str:
        lines = []
        for key in sorted(self.values):
            if key == "jobs":
                # worker count cannot change any result, so it is not part
                # of the experiment identity
                continue
            lines.append("%s = %s" % (key, self.values[key]))
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:12]

    # typed sub-config builders -------------------------------------------
    def _section(self, cls, prefix: str, **fields):
        """``cls`` with each field ``name`` read from key ``<prefix><name>``
        where that key exists, and with ``fields``.  Every section refuses
        a configuration with a pair of ``ORDERED_KEYS`` out of order,
        naming both keys, so a command fails before it writes anything."""
        for low, high in ORDERED_KEYS:
            if self[low] > self[high]:
                raise ConfigError("key %r: %r is above key %r: %r"
                                  % (low, self[low], high, self[high]))
        keyed = {f.name: self[prefix + f.name] for f in dataclasses.fields(cls)
                 if prefix + f.name in KNOWN_KEYS}
        return cls(**keyed, **fields)

    def padding(self) -> PaddingConfig:
        return self._section(PaddingConfig, "pad.")

    def gen_config(self) -> GenConfig:
        return self._section(GenConfig, "gen.", padding=self.padding())

    def mil_config(self) -> MilConfig:
        return self._section(MilConfig, "stage1.")

    def hma_config(self) -> HmaConfig:
        return self._section(HmaConfig, "stage2.")

    def fit_config(self, stage: str) -> FitConfig:
        """The training loop of ``stage``: "stage1" or "stage2"."""
        return self._section(FitConfig, stage + ".")


def _read_config_file(path: str, seen: set[str], cfg: PipelineConfig) -> None:
    real = os.path.realpath(path)
    if real in seen:
        raise ConfigError("include cycle at %r" % path)
    seen.add(real)
    if not os.path.exists(path):
        raise ConfigError("config file %r does not exist" % path)
    with naming(path):
        fh = open_input(path, "r", ConfigError)
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            with naming("%s:%d", path, lineno):
                if line.startswith("include "):
                    # relative to this file; an absolute target stays as it is
                    target = os.path.join(os.path.dirname(path), line[len("include ") :].strip())
                    _read_config_file(target, seen, cfg)
                elif "=" not in line:
                    raise ConfigError("expected 'key = value', got %r" % line)
                else:
                    key, _, raw = line.partition("=")
                    cfg.set(key.strip(), raw.strip())


def load_config(path: str | None = None, overrides: dict | None = None,
                use_env: bool = True) -> PipelineConfig:
    """File -> environment -> explicit overrides, later wins."""
    cfg = PipelineConfig()
    if path:
        _read_config_file(path, set(), cfg)
    if use_env:
        cfg.apply_env()
    if overrides:
        for k, v in overrides.items():
            cfg.set(k, v)
    return cfg
