"""Synthetic match generator.

Produces event streams with the statistics the pipeline is built for: a long
background of routine play, planted action instances drawn from a library of
type-sequence templates, a ground-truth summary filling a sampled duration
budget, and an audio track whose crowd noise surges after summary-action
events.

Templates are (context, core) pairs; families share cores and nest their
contexts, so one planted instance usually contains shorter library sequences
as sub-runs (the same intra-category overlap seen in real annotated data).
Perturbation noise (an inserted background event or a swapped pair) is
confined to the context zone, leaving the decisive core intact.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_EVENT_TYPES,
    PITCH,
    Action,
    ConfigError,
    DataFormatError,
    Event,
    Match,
    PaddingConfig,
    SoccersumError,
    Summary,
    action_duration,
    action_type,
    naming,
)
from .features.audio import check_rate, load_audio
from .io import Dataset


class GenerationError(ConfigError):
    """The generator cannot satisfy its configuration."""


@dataclass
class GenConfig:
    """Keys ``gen.<field>``; ``padding`` holds keys ``pad.*``."""

    matches: int
    events_mean: int
    budget_min: float
    budget_max: float
    audio_rate: int
    audio_gain: float
    audio_base_amp: float
    noise_insert: float
    noise_swap: float
    goals_min: int
    goals_max: int
    padding: PaddingConfig


# a match's event-count target is drawn with sd EVENTS_SD_FRAC x gen.events_mean
EVENTS_SD_FRAC = 0.06
# the least background gap between planted actions, and the half-time gap
MIN_GAP_EVENTS = 20


def _suffix_contexts(prefix: tuple[str, ...], lengths: tuple[int, ...]) -> list[tuple[str, ...]]:
    return [prefix[len(prefix) - n :] if n else () for n in lengths]


# Template library: family -> (list of contexts, core).  A planted instance
# is build-up context + decisive core.  Context variants are suffixes of one
# fixed build-up string per family, so a long-context instance also contains
# every shorter variant as a trailing sub-sequence ending at the same core.
# Contexts use only ordinary play types: by type alone the build-up looks
# like background, and only its style (possession, rhythm, drift toward the
# goal) marks it as part of an action.
FAMILY_LIBRARY: dict[str, tuple[list[tuple[str, ...]], tuple[str, ...]]] = {
    "goal": (
        _suffix_contexts(
            ("pass", "tackle", "pass", "interception", "pass", "pass", "tackle",
             "pass", "pass"),
            (6, 7, 8, 9)),
        ("pass", "shot", "goal-shot"),
    ),
    "save": (
        _suffix_contexts(
            ("interception", "pass", "pass", "tackle", "pass", "interception",
             "pass", "pass"),
            (6, 7, 8)),
        ("shot", "save"),
    ),
    "shot": (
        _suffix_contexts(
            ("tackle", "pass", "pass", "interception", "pass", "tackle", "pass"),
            (6, 7)),
        ("shot", "out"),
    ),
    "corner": (
        _suffix_contexts(
            ("pass", "interception", "pass", "pass", "tackle", "pass", "out"),
            (6, 7)),
        ("corner-shot", "clearance"),
    ),
    "free-kick": (
        _suffix_contexts(
            ("pass", "pass", "interception", "pass", "pass", "tackle", "foul"),
            (6, 7)),
        ("free-kick", "pass"),
    ),
    "foul": (
        _suffix_contexts(
            ("pass", "interception", "pass", "pass", "tackle", "pass", "pass"),
            (6, 7)),
        ("foul", "card"),
    ),
}

OPEN_TEMPLATE = ("start-period", "kick-off", "pass", "pass", "tackle", "pass",
                 "interception", "pass", "tackle", "pass")
CLOSE_TEMPLATE = ("pass", "interception", "pass", "pass", "tackle", "pass",
                  "interception", "pass", "pass", "end-period")

# event types the background process emits (never the decisive ones above)
_BG_TYPES = ("pass", "tackle", "interception", "out", "clearance", "substitution", "other")
_BG_WEIGHTS = (0.55, 0.12, 0.10, 0.08, 0.08, 0.02, 0.05)
_NOISE_TYPES = ("pass", "tackle", "interception", "clearance")

_BG_SHOT_P = 0.004  # routine long-range attempts outside planted actions


# Scalar spellings of the Generator calls the per-event loop makes, cheaper
# than numpy's per-call overhead and exact: each takes the same draws in the
# same order and returns the same value.  ``_weighted`` mirrors
# ``Generator.choice(a, p=p)`` (CDF = cumsum(p) / its last entry, then a
# right-side search of one ``random()``) and ``_uniform`` mirrors
# ``Generator.uniform(low, high)`` (low + (high - low) * random()).
# tests/test_synth.py checks both against numpy, so a numpy upgrade that
# changes either breaks a test instead of the data.
def _cdf(p) -> list[float]:
    cdf = np.cumsum(np.asarray(p, dtype=np.float64))
    cdf /= cdf[-1]
    return cdf.tolist()


def _weighted(rng: np.random.Generator, a: tuple, cdf: list[float]):
    return a[bisect_right(cdf, rng.random())]


def _uniform(rng: np.random.Generator, low: float, high: float) -> float:
    return low + (high - low) * rng.random()


def _clip100(v: float) -> float:
    """``float(np.clip(v, 0.0, PITCH))`` for a Python float."""
    return min(max(v, 0.0), PITCH)


_AFTER_SHOT_TYPES = ("save", "out", "clearance")
_AFTER_SHOT_CDF = _cdf((0.3, 0.35, 0.35))
_BG_CDF = _cdf(_BG_WEIGHTS)
_QUAL_CODES = tuple(range(12))
_QUAL_P = 1.0 / (np.arange(12) + 1.0)
_QUAL_P /= _QUAL_P.sum()
_QUAL_CDF = _cdf(_QUAL_P)


@dataclass
class Planted:
    family: str
    start: int
    end: int
    core_start: int
    in_summary: bool


def _background_type(rng: np.random.Generator, prev: str) -> str:
    if prev == "shot":
        return _weighted(rng, _AFTER_SHOT_TYPES, _AFTER_SHOT_CDF)
    if rng.random() < _BG_SHOT_P:
        return "shot"
    return _weighted(rng, _BG_TYPES, _BG_CDF)


_MIN_CONTEXT = 6


def _instance_sequence(family: str, rng: np.random.Generator,
                       cfg: GenConfig) -> tuple[list[str], int]:
    """One planted instance: (type sequence, context length).

    Noise only ever touches the front of the build-up context, never the
    core or the last few context events, so the shortest library variant
    of every planted action stays intact."""
    contexts, core = FAMILY_LIBRARY[family]
    ctx = list(contexts[int(rng.integers(len(contexts)))])
    safe = len(ctx) - _MIN_CONTEXT
    if safe >= 2 and rng.random() < cfg.noise_swap:
        pos = int(rng.integers(safe - 1))
        ctx[pos], ctx[pos + 1] = ctx[pos + 1], ctx[pos]
    if safe >= 0 and rng.random() < cfg.noise_insert:
        pos = int(rng.integers(safe + 1))
        ctx.insert(pos, str(rng.choice(_NOISE_TYPES)))
    return ctx + list(core), len(ctx)


def _gap_sizes(total: int, n_gaps: int, min_gap: int, rng: np.random.Generator) -> list[int]:
    base = min(min_gap, max(1, total // max(n_gaps, 1)))
    extra = max(0, total - base * n_gaps)
    if n_gaps == 0:
        return []
    shares = rng.multinomial(extra, np.full(n_gaps, 1.0 / n_gaps))
    return [base + int(s) for s in shares]


def generate_match(cfg: GenConfig, seed: int, ordinal: int):
    """Build one match; returns (Match, Summary, [Planted])."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1, ordinal]))
    match_id = "m%03d" % ordinal

    n_target = int(round(rng.normal(cfg.events_mean, cfg.events_mean * EVENTS_SD_FRAC)))

    # planted instance plan: family name per instance, halves assigned at random
    plan: list[str] = []
    plan += ["goal"] * int(rng.integers(cfg.goals_min, cfg.goals_max + 1))
    plan += ["save"] * int(rng.integers(2, 4))
    plan += ["shot"] * int(rng.integers(2, 4))
    plan += ["corner"] * int(rng.integers(1, 3))
    plan += ["free-kick"] * int(rng.integers(1, 3))
    plan += ["foul"] * int(rng.integers(1, 3))
    halves = [int(rng.integers(2)) for _ in plan]
    order = rng.permutation(len(plan))
    per_half: list[list[str]] = [[], []]
    for i in order:
        per_half[halves[i]].append(plan[i])

    segments: list[list[tuple[list[str], str, int]]] = [[], []]
    for h in (0, 1):
        for fam in per_half[h]:
            seq, ctx_len = _instance_sequence(fam, rng, cfg)
            segments[h].append((seq, fam, ctx_len))

    planted_event_total = (
        sum(len(seq) for seg in segments for seq, *_ in seg)
        + len(OPEN_TEMPLATE) * 2
        + len(CLOSE_TEMPLATE) * 2
    )
    n_bg = max(n_target - planted_event_total,
               (len(plan) + 4) * MIN_GAP_EVENTS)
    bg_half = [n_bg // 2, n_bg - n_bg // 2]

    # stitch: open, (gap, instance)*, gap, half-close | half-open, ..., close
    stream: list[tuple[str, int]] = []  # (type, planted_instance_id or -1)
    planted: list[Planted] = []
    prev_bg = "pass"

    def emit_background(count: int):
        nonlocal prev_bg
        for _ in range(count):
            t = _background_type(rng, prev_bg)
            stream.append((t, -1))
            prev_bg = t

    def emit_instance(seq: list[str], fam: str, ctx_len: int):
        start = len(stream)
        for t in seq:
            stream.append((t, len(planted)))
        planted.append(Planted(fam, start, len(stream) - 1, start + ctx_len, False))

    emit_instance(list(OPEN_TEMPLATE), "start-period", len(OPEN_TEMPLATE))
    for h in (0, 1):
        gaps = _gap_sizes(bg_half[h], len(segments[h]) + 1, MIN_GAP_EVENTS, rng)
        for gi, item in enumerate(segments[h]):
            emit_background(gaps[gi])
            emit_instance(*item)
        emit_background(gaps[len(segments[h])] if gaps else MIN_GAP_EVENTS)
        emit_instance(list(CLOSE_TEMPLATE), "end-period", len(CLOSE_TEMPLATE))
        if h == 0:
            emit_background(MIN_GAP_EVENTS)
            emit_instance(list(OPEN_TEMPLATE), "start-period", len(OPEN_TEMPLATE))

    # timestamps: quick touches through decisive cores, brisk sustained
    # rhythm through build-up contexts and the period open/close patterns,
    # slower irregular background play elsewhere, one long jump at half time
    half_open_start = None
    for p in planted:
        if p.family == "start-period" and p.start > 0:
            half_open_start = p.start
    times = np.zeros(len(stream))
    t = 0.0
    quick = set()
    ctx_pos = set()
    for p in planted:
        ctx_pos.update(range(p.start + 1, p.core_start))
        quick.update(range(max(p.core_start, p.start + 1), p.end + 1))
    for i in range(len(stream)):
        if i == 0:
            t = 0.0
        elif half_open_start is not None and i == half_open_start:
            t += _uniform(rng, 600.0, 1000.0)
        elif i in quick:
            t += _uniform(rng, 0.8, 2.5)
        elif i in ctx_pos:
            t += _uniform(rng, 1.1, 2.3)
        else:
            t += min(max(rng.exponential(3.5), 0.4), 15.0)
        times[i] = round(t, 6)

    # teams, locations, outcomes, qualifiers
    inst_team = {pid: int(rng.integers(2)) for pid in range(len(planted))}

    events: list[Event] = []
    walk_x, walk_y = 50.0, 50.0
    drift = (0.0, 0.0, 0.0, 0.0, 1)  # anchor x/y, target x/y, context length
    n_period_ends = 0

    for i, (etype, pid) in enumerate(stream):
        p = planted[pid] if pid >= 0 else None
        if p is not None:
            team = inst_team[pid]
        else:
            team = int(rng.integers(2))
        attacking_right = (team == 0) == (n_period_ends % 2 == 0)
        gx = PITCH if attacking_right else 0.0
        toward = -1.0 if attacking_right else 1.0
        if p is not None and i == p.start and p.core_start > p.start:
            # build-up begins: carry the ball from wherever play was toward
            # the edge of the attacking box
            tx = _clip100(gx + toward * _uniform(rng, 12.0, 24.0))
            drift = (walk_x, walk_y, tx, _uniform(rng, 32.0, 68.0),
                     p.core_start - p.start)
        if p is not None and i < p.core_start:
            ax, ay, tx, ty, clen = drift
            f0 = (i - p.start + 1.0) / (clen + 1.0)
            f1 = (i - p.start + 2.0) / (clen + 1.0)
            sx = _clip100(ax + f0 * (tx - ax) + rng.normal(0.0, 2.0))
            sy = _clip100(ay + f0 * (ty - ay) + rng.normal(0.0, 2.0))
            ex = _clip100(ax + f1 * (tx - ax) + rng.normal(0.0, 2.0))
            ey = _clip100(ay + f1 * (ty - ay) + rng.normal(0.0, 2.0))
        elif p is not None and p.family in ("goal", "save", "shot", "corner"):
            sx = _clip100(gx + toward * _uniform(rng, 2.0, 30.0))
            sy = _uniform(rng, 25.0, 75.0)
            ex = _clip100(gx + toward * _uniform(rng, 0.5, 25.0))
            ey = _uniform(rng, 30.0, 70.0)
        elif p is not None and p.family in ("foul", "free-kick"):
            sx = _clip100(gx + toward * _uniform(rng, 8.0, 40.0))
            sy = _uniform(rng, 20.0, 80.0)
            ex = _clip100(gx + toward * _uniform(rng, 5.0, 35.0))
            ey = _uniform(rng, 20.0, 80.0)
        else:
            walk_x = _clip100(walk_x + rng.normal(0.0, 8.0))
            walk_y = _clip100(walk_y + rng.normal(0.0, 8.0))
            sx, sy = walk_x, walk_y
            ex = _clip100(walk_x + rng.normal(0.0, 6.0))
            ey = _clip100(walk_y + rng.normal(0.0, 6.0))
        if etype == "goal-shot":
            outcome = 1
        elif etype in ("out", "foul", "card"):
            outcome = 0
        else:
            outcome = int(rng.random() < 0.8)
        events.append(Event(
            index=i, t=float(times[i]), type=etype, team=team,
            player=int(rng.integers(1, 23)),
            sx=round(sx, 6), sy=round(sy, 6), ex=round(ex, 6), ey=round(ey, 6),
            outcome=outcome, qualifier=_weighted(rng, _QUAL_CODES, _QUAL_CDF),
        ))
        if etype == "end-period":
            n_period_ends += 1

    match = Match(match_id=match_id, events=events,
                  attack_right_first=(True, False), audio=None)

    # ground-truth summary: match open/close and every goal are mandatory,
    # then shuffled others fill the sampled duration budget
    budget = float(_uniform(rng, cfg.budget_min, cfg.budget_max))
    open_close = [0, len(planted) - 1]
    mandatory = set(open_close)
    for pid, p in enumerate(planted):
        if p.family == "goal":
            mandatory.add(pid)
    chosen = set(mandatory)
    durations = [action_duration(Action(p.start, p.end), match, cfg.padding) for p in planted]
    total = sum(durations[pid] for pid in chosen)
    optional = [pid for pid in range(len(planted)) if pid not in chosen]
    for pid in rng.permutation(len(optional)):
        d = durations[optional[pid]]
        if total + d <= budget:
            chosen.add(optional[pid])
            total += d
    if total < budget - 40.0 and len(chosen) == len(planted):
        raise GenerationError(
            "match %s: summary budget %.1fs, drawn between gen.budget_min = %g and "
            "gen.budget_max = %g, is unfillable: all %d planted actions total %.1fs "
            "with pad.pre = %g and pad.post = %g at gen.events_mean = %d"
            % (match_id, budget, cfg.budget_min, cfg.budget_max, len(planted), total,
               cfg.padding.pre, cfg.padding.post, cfg.events_mean)
        )

    gt_actions = []
    for pid in sorted(chosen, key=lambda q: planted[q].start):
        p = planted[pid]
        p.in_summary = True
        gt_actions.append(Action(p.start, p.end, action_type(Action(p.start, p.end), match)))
    summary = Summary(match_id=match_id, actions=gt_actions)

    match.audio = {
        "synth": {
            "stream": STREAM,
            "rate": cfg.audio_rate,
            "gain": cfg.audio_gain,
            "base_amp": cfg.audio_base_amp,
            "seed": [seed, 2, ordinal],
            "duration": round(float(times[-1]) + 2.0, 6),
        }
    }
    return match, summary, planted


STREAM = 2  # version of the sample stream a synth spec renders
RENDER_CHUNK = 1 << 16  # samples of base noise per keyed draw


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_spec(spec) -> None:
    """Raise DataFormatError unless ``spec`` is a stream-2 synth audio spec."""
    if not isinstance(spec, dict):
        raise DataFormatError("synth audio spec is not an object")
    if not (_is_int(spec.get("stream")) and spec["stream"] == STREAM):
        raise DataFormatError(
            "synth audio spec has stream %r, not %d: regenerate the dataset"
            % (spec.get("stream"), STREAM))
    seed = spec.get("seed")
    if not (isinstance(seed, list) and len(seed) == 3
            and all(_is_int(s) and s >= 0 for s in seed)):
        raise DataFormatError("synth audio seed %r is not 3 non-negative integers" % (seed,))
    check_rate(spec.get("rate"), "synth audio")
    for key in ("duration", "base_amp", "gain"):
        v = spec.get(key)
        if not ((_is_int(v) or isinstance(v, float)) and math.isfinite(v) and v >= 0):
            raise DataFormatError("synth audio %s %r is not a finite number >= 0" % (key, v))


class _NoiseChunk:
    """A base-noise chunk's generator and samples, the first ``filled`` drawn."""

    __slots__ = ("rng", "samples", "filled")

    def __init__(self, key: list, n: int):
        self.rng = np.random.default_rng(np.random.SeedSequence(key))
        self.samples = np.empty(n, dtype=np.float32)
        self.filled = 0


class SynthTrack:
    """A synthetic crowd-noise track that renders only what is sliced.

    Base noise is cut into chunks of ``RENDER_CHUNK`` samples and burst k
    (in time order) covers the 2 s after its start; each chunk and each
    burst draws from its own ``SeedSequence`` keyed by the spec seed and its
    index, so any slice can be drawn without the samples before it.  A
    chunk is drawn only up to the furthest sample read from it so far, a
    burst at most once while it is kept.  A slice starting at sample ``a``
    drops the chunks before the one holding ``a`` and the bursts that end
    at or before ``a``, so a track read forward, as windows in event order
    are, holds only its current window's chunks and bursts; a later slice
    that reaches back draws them again from their keys.  Bursts are added
    in time order, so a slice is bit-identical to the same slice of the
    full track ``track[:]``.
    """

    dtype = np.dtype(np.float32)

    def __init__(self, spec: dict, burst_times: list[float]):
        fs = spec["rate"]
        self._seed = list(spec["seed"])
        self._n = int(round(float(spec["duration"]) * fs))
        self._base_amp = float(spec["base_amp"])
        self._burst_amp = self._base_amp * float(spec["gain"])
        starts = [int(round(t * fs)) for t in sorted(burst_times)] if spec["gain"] > 0 else []
        self._starts = np.array([a for a in starts if a < self._n], dtype=np.int64)
        self._ends = np.minimum(self._starts + 2 * fs, self._n)
        self.chunks: dict[int, _NoiseChunk] = {}
        self.bursts: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return self._n

    def _chunk(self, j: int, end: int) -> np.ndarray:
        """Chunk ``j``'s samples, drawn at least up to ``end``."""
        chunk = self.chunks.get(j)
        if chunk is None:
            chunk = self.chunks[j] = _NoiseChunk(
                self._seed + [0, j], min(RENDER_CHUNK, self._n - j * RENDER_CHUNK))
        if end > chunk.filled:
            # the stream continues where the last draw stopped, so drawing a
            # chunk in parts gives the samples of one draw
            part = chunk.rng.standard_normal(end - chunk.filled)
            part *= self._base_amp
            part += 0.0  # as loc + scale * z in Generator.normal: -0.0 becomes 0.0
            chunk.samples[chunk.filled : end] = part
            chunk.filled = end
        return chunk.samples

    def _burst(self, k: int) -> np.ndarray:
        if k not in self.bursts:
            rng = np.random.default_rng(np.random.SeedSequence(self._seed + [1, k]))
            size = int(self._ends[k] - self._starts[k])
            self.bursts[k] = rng.normal(0.0, self._burst_amp, size).astype(np.float32)
        return self.bursts[k]

    def __getitem__(self, key) -> np.ndarray:
        if not isinstance(key, slice) or key.step not in (None, 1):
            raise TypeError("a synthetic track takes basic slices with step 1, not %r" % (key,))
        a, b, _ = key.indices(self._n)
        out = np.empty(max(b - a, 0), dtype=np.float32)
        if b <= a:
            return out
        first_chunk = a // RENDER_CHUNK
        first = int(np.searchsorted(self._ends, a, side="right"))
        self.chunks = {j: c for j, c in self.chunks.items() if j >= first_chunk}
        self.bursts = {k: v for k, v in self.bursts.items() if k >= first}
        for j in range(first_chunk, -(-b // RENDER_CHUNK)):
            base = j * RENDER_CHUNK
            lo, hi = max(a, base), min(b, base + RENDER_CHUNK)
            out[lo - a : hi - a] = self._chunk(j, hi - base)[lo - base : hi - base]
        last = int(np.searchsorted(self._starts, b, side="left"))
        for k in range(first, last):
            s = int(self._starts[k])
            lo, hi = max(a, s), min(b, int(self._ends[k]))
            out[lo - a : hi - a] += self._burst(k)[lo - s : hi - s]
        return out


def synth_audio_track(spec: dict, burst_times: list[float]) -> tuple[SynthTrack, int]:
    """The crowd-noise track of a manifest spec, rendered on demand.

    Baseline Gaussian noise at ``base_amp``; every burst time adds noise of
    ``base_amp * gain`` std over the following 2 seconds.  Raises
    ``DataFormatError`` for a spec that is not stream 2 or is malformed.
    """
    _check_spec(spec)
    bad = [t for t in burst_times if not t >= 0.0]
    if bad:
        raise DataFormatError("audio burst time %r is negative or not a number" % bad[0])
    return SynthTrack(spec, burst_times), spec["rate"]


def summary_event_times(match: Match, summary: Summary) -> list[float]:
    times = []
    for act in summary.actions:
        for i in range(act.start_index, act.end_index + 1):
            times.append(match.events[i].t)
    return times


def resolve_audio(dataset: Dataset, match_id: str) -> tuple[np.ndarray | SynthTrack, int]:
    """Samples and rate for a match: a file's samples, or the on-demand
    track of a synth spec.  Either is read through ``len`` and slices."""
    match = dataset.by_id(match_id)
    audio = match.audio
    with naming("match %r", match_id):
        if audio is None:
            raise SoccersumError("no audio reference")
        if isinstance(audio, str):
            return load_audio(audio)
        if isinstance(audio, dict) and "file" in audio:
            return load_audio(audio["file"], audio.get("rate"))
        if isinstance(audio, dict) and "synth" in audio:
            summary = dataset.summaries.get(match_id)
            bursts = summary_event_times(match, summary) if summary else []
            return synth_audio_track(audio["synth"], bursts)
        raise SoccersumError("unrecognized audio reference %r" % (audio,))


def generate_dataset(cfg: GenConfig, seed: int) -> Dataset:
    """Generate a full dataset (no audio rendered; tracks re-render on
    demand from the manifest spec)."""
    matches: list[Match] = []
    summaries = {}
    for ordinal in range(cfg.matches):
        match, summary, _ = generate_match(cfg, seed, ordinal)
        matches.append(match)
        summaries[match.match_id] = summary
    return Dataset(
        vocabulary=DEFAULT_EVENT_TYPES,
        matches=matches,
        summaries=summaries,
        meta={"generator": {"seed": seed, "matches": cfg.matches,
                            "events_mean": cfg.events_mean,
                            "audio_rate": cfg.audio_rate,
                            "audio_gain": cfg.audio_gain}},
    )
