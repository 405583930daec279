"""Synthetic match generator: determinism, structural guarantees the
pipeline relies on, the scalar spellings of numpy draws it uses, crowd-noise
audio, and dataset assembly."""
import copy
import hashlib
import inspect
import math
import os
import re

import numpy as np
import pytest

from soccersum import synth
from soccersum.cli import main

from soccersum.core import (
    DEFAULT_EVENT_TYPES,
    DataFormatError,
    PaddingConfig,
    SoccersumError,
    validate_match,
)
from soccersum.features import extract_event_audio_features
from soccersum.pipeline import event_audio
from soccersum.stage1 import build_action_vocabulary, label_events_by_vocabulary
from soccersum.synth import (
    RENDER_CHUNK,
    GenConfig,
    GenerationError,
    generate_dataset,
    generate_match,
    resolve_audio,
    summary_event_times,
    synth_audio_track,
)

import reference

SMALL = GenConfig(matches=3, events_mean=400)


@pytest.fixture(scope="module")
def default_match():
    return generate_match(GenConfig(), 7, 0)


def test_generate_match_deterministic():
    m1, s1, p1 = generate_match(SMALL, 13, 2)
    m2, s2, p2 = generate_match(SMALL, 13, 2)
    assert m1.events == m2.events
    assert m1.attack_right_first == m2.attack_right_first
    assert m1.audio == m2.audio
    assert s1.actions == s2.actions
    assert p1 == p2
    m3, _, _ = generate_match(SMALL, 13, 3)
    assert m3.events != m1.events


def test_generated_match_is_valid(default_match):
    m, _, _ = default_match
    assert validate_match(m, set(DEFAULT_EVENT_TYPES)) == []


def test_summary_structure(default_match):
    m, s, planted = default_match
    assert s.actions[0].type == "start-period"
    assert s.actions[-1].type == "end-period"
    assert any(a.type == "goal" for a in s.actions)
    # chronological, non-overlapping
    for a, b in zip(s.actions, s.actions[1:]):
        assert a.end_index < b.start_index
    # every summary action is a planted instance with the matching span/type
    chosen = {(p.start, p.end): p for p in planted if p.in_summary}
    assert len(chosen) == len(s.actions)
    for a in s.actions:
        p = chosen[(a.start_index, a.end_index)]
        assert p.family == a.type


def test_goal_count_in_configured_range(default_match):
    cfg = GenConfig()
    _, s, _ = default_match
    goals = sum(1 for a in s.actions if a.type == "goal")
    assert cfg.goals_min <= goals <= cfg.goals_max


def test_planted_instances_keep_clear_spacing(default_match):
    cfg = GenConfig()
    _, _, planted = default_match
    pl = sorted(planted, key=lambda p: p.start)
    for a, b in zip(pl, pl[1:]):
        assert b.start - a.end > cfg.min_gap_events


def test_half_time_break_appears_once(default_match):
    m, _, _ = default_match
    gaps = np.diff([e.t for e in m.events])
    big = gaps[gaps > 120.0]
    assert len(big) == 1
    assert 600.0 <= big[0] <= 1000.0
    # ordinary event spacing stays small
    assert np.median(gaps) < 10.0


def test_summary_duration_near_budget_window(default_match):
    cfg = GenConfig()
    m, s, _ = default_match
    total = s.total_duration(m, PaddingConfig(cfg.pad_pre, cfg.pad_post))
    assert cfg.budget_min - 40.0 <= total <= cfg.budget_max + 40.0


def test_vocabulary_learned_elsewhere_covers_new_matches():
    """Sequences harvested from some matches label the summary actions of
    unseen matches: the weak-label route the proposal stage depends on."""
    cfg = GenConfig()
    data = [generate_match(cfg, 7, i) for i in range(15)]
    vocab = build_action_vocabulary(
        {m.match_id: m for m, _, _ in data[:10]},
        {s.match_id: s for _, s, _ in data[:10]},
    )
    total = covered = 0
    for m, s, _ in data[10:]:
        labels, _ = label_events_by_vocabulary(m, vocab)
        for a in s.actions:
            n = a.end_index - a.start_index + 1
            total += 1
            if labels[a.start_index : a.end_index + 1].sum() >= 0.5 * n:
                covered += 1
    assert covered / total >= 0.9


def test_unfillable_budget_raises():
    with pytest.raises(GenerationError, match="unfillable"):
        generate_match(GenConfig(budget_min=100000.0, budget_max=100000.0), 7, 0)


# ---------------------------------------------------------------------------
# audio

C = RENDER_CHUNK


def small_spec(n, seed=(7, 2, 0)):
    """A stream-2 spec of exactly n samples at 8 kHz."""
    return {"stream": 2, "rate": 8000, "gain": 3.0, "base_amp": 0.05, "seed": list(seed),
            "duration": n / 8000}


def test_audio_bursts_are_louder(default_match):
    m, s, _ = default_match
    bursts = summary_event_times(m, s)
    track, fs = synth_audio_track(m.audio["synth"], bursts)
    samples = track[:]
    mask = np.zeros(len(track), dtype=bool)
    for t in bursts:
        i0 = int(round(t * fs))
        mask[i0 : i0 + 2 * fs] = True
    loud = float(np.sqrt(np.mean(samples[mask] ** 2)))
    quiet = float(np.sqrt(np.mean(samples[~mask] ** 2)))
    assert loud / quiet > 2.0


def test_audio_render_deterministic(default_match):
    m, s, _ = default_match
    bursts = summary_event_times(m, s)
    t1, f1 = synth_audio_track(m.audio["synth"], bursts)
    t2, f2 = synth_audio_track(m.audio["synth"], bursts)
    assert f1 == f2
    assert t1[:].tobytes() == t2[:].tobytes()
    assert t1.dtype == np.float32 and t1[:].dtype == np.float32


@pytest.mark.parametrize("n", [0, 1000, C, C + 1, 3 * C + 7])
def test_full_track_equals_reference_render(n):
    spec = small_spec(n, seed=(7, 2, n))
    bursts = [0.0, 0.1, max(n / 8000 - 0.5, 0.0), n / 8000 + 1.0]
    track, fs = synth_audio_track(spec, bursts)
    want, _ = reference.synth_track(spec, bursts, C)
    assert fs == 8000 and len(track) == n
    full = track[:]
    assert full.dtype == np.float32 and full.tobytes() == want.tobytes()


def test_full_track_equals_reference_render_on_a_full_match(default_match):
    m, s, _ = default_match
    bursts = summary_event_times(m, s)
    track, _ = synth_audio_track(m.audio["synth"], bursts)
    assert track[:].tobytes() == reference.synth_track(m.audio["synth"], bursts, C)[0].tobytes()


N_WIN = 3 * C + 7
# bursts at 1.0 s and 1.5 s overlap; the last one is cut by the track end
WIN_BURSTS = [1.0, 1.5, 20.0, N_WIN / 8000 - 0.5]
WINDOWS = (
    [(j * C + d, j * C + d + 16000) for j in (1, 2, 3) for d in (-1, 0, 1)]
    + [(8000, 28000),  # across the overlapping bursts
       (N_WIN - 8000, N_WIN), (N_WIN - 100, N_WIN + 15900),  # the track end
       (N_WIN + 5, N_WIN + 16005), (-10, None), (None, 5), (0, None), (500, 400)]
)


@pytest.mark.parametrize("a,b", WINDOWS)
def test_window_equals_the_reference_slice(a, b):
    spec = small_spec(N_WIN)
    want, _ = reference.synth_track(spec, WIN_BURSTS, C)
    track, _ = synth_audio_track(spec, WIN_BURSTS)
    window = track[a:b]
    assert window.dtype == np.float32
    assert window.tobytes() == want[a:b].tobytes()
    # once more, now from the cached chunks and bursts
    assert track[a:b].tobytes() == want[a:b].tobytes()


def test_random_slice_sequences_equal_the_reference_track():
    """A chunk is drawn in parts, each up to the furthest sample read so
    far; any order of slices reads the samples of one draw."""
    spec = small_spec(N_WIN)
    want, _ = reference.synth_track(spec, WIN_BURSTS, C)
    rng = np.random.default_rng(20261019)
    partial = 0
    for _ in range(25):
        track, _ = synth_audio_track(spec, WIN_BURSTS)
        for _ in range(int(rng.integers(1, 8))):
            a = int(rng.integers(-100, N_WIN + 100))
            b = a + int(rng.integers(0, C // 2)) if rng.integers(4) else a + 1
            assert track[a:b].tobytes() == want[a:b].tobytes()
        partial += any(0 < c.filled < len(c.samples) for c in track.chunks.values())
        assert track[:].tobytes() == want.tobytes()
    assert partial >= 10


@pytest.mark.parametrize("key", [5, slice(0, 10, 2), slice(None, None, -1), [1, 2],
                                 np.arange(3), Ellipsis])
def test_track_takes_only_unit_step_slices(key):
    track, _ = synth_audio_track(small_spec(1000), [])
    with pytest.raises(TypeError):
        track[key]


def test_chunk_and_burst_levels():
    """Base noise at base_amp; where one burst sounds, base and burst noise
    add to base_amp * sqrt(1 + gain^2)."""
    spec = small_spec(4 * C)
    bursts = [0.5, 10.0, 12.0, 20.5, 29.0]
    track, fs = synth_audio_track(spec, [])
    for j in range(4):
        assert np.std(track[j * C : (j + 1) * C]) == pytest.approx(0.05, rel=0.05)
    track, fs = synth_audio_track(spec, bursts)
    cover = np.zeros(len(track), dtype=int)
    for t in bursts:
        cover[int(round(t * fs)) : int(round(t * fs)) + 2 * fs] += 1
    samples = track[:]
    want = 0.05 * np.sqrt(1.0 + 3.0 ** 2)
    for t in bursts:
        a = int(round(t * fs))
        region = samples[a : a + 2 * fs][cover[a : a + 2 * fs] == 1]
        assert len(region) >= fs
        assert np.std(region) == pytest.approx(want, rel=0.05)


def test_a_window_renders_only_its_chunks(default_match):
    m, s, _ = default_match
    track, fs = synth_audio_track(m.audio["synth"], summary_event_times(m, s))
    assert len(track) > 100 * C
    mid = len(track) // 2
    track[mid : mid + 2 * fs]
    assert len(track.chunks) <= 2
    assert len(track.bursts) <= 2


def test_event_windows_in_order_hold_only_their_window(default_match):
    """Windows read in event order, as every audio reader reads them, equal
    the reference track, and the track then holds only the chunks that
    overlap the current window and the bursts that end after its start."""
    m, s, _ = default_match
    spec, bursts = m.audio["synth"], summary_event_times(m, s)
    want, fs = reference.synth_track(spec, bursts, C)
    track, _ = synth_audio_track(spec, bursts)
    n = len(track)
    starts = sorted(int(round(t * fs)) for t in bursts)
    ends = [min(a + 2 * fs, n) for a in starts if a < n]
    for e in m.events:
        a = int(round(e.t * fs))
        b = min(a + 2 * fs, n)
        assert track[a : a + 2 * fs].tobytes() == want[a : a + 2 * fs].tobytes()
        assert set(track.chunks) <= set(range(a // C, -(-b // C)))
        assert len(track.chunks) <= 2
        assert sum(c.samples.nbytes for c in track.chunks.values()) <= 2 * C * 4
        assert all(ends[k] > a for k in track.bursts)
    assert len(track.bursts) < len(ends)


def test_a_read_that_reaches_back_draws_again():
    """Chunks and bursts a forward read dropped are drawn again, to the
    same samples, by a later read that reaches back."""
    spec = small_spec(N_WIN)
    want, _ = reference.synth_track(spec, WIN_BURSTS, C)
    track, _ = synth_audio_track(spec, WIN_BURSTS)
    assert track[8000:28000].tobytes() == want[8000:28000].tobytes()
    assert set(track.chunks) == {0} and set(track.bursts) == {0, 1}
    far = (159000, 175000)  # chunk 2 and the burst at 20.0 s
    assert track[far[0] : far[1]].tobytes() == want[far[0] : far[1]].tobytes()
    assert set(track.chunks) == {2} and set(track.bursts) == {2}
    # back across the dropped chunks 0 and 1 and bursts 0 and 1
    assert track[8000 : C + 10].tobytes() == want[8000 : C + 10].tobytes()
    assert set(track.chunks) == {0, 1, 2} and set(track.bursts) == {0, 1, 2}
    assert track[:].tobytes() == want.tobytes()


def test_event_audio_equals_descriptors_of_the_full_track():
    ds = generate_dataset(GenConfig(matches=1, events_mean=150), 5)
    match = ds.matches[0]
    events = list(range(0, len(match.events), 3))
    rows = event_audio(ds, {match.match_id: events}, jobs=1)[match.match_id]
    full, fs = resolve_audio(ds, match.match_id)
    full = full[:]
    for k in events:
        want = extract_event_audio_features(full, fs, match.events[k].t)
        assert rows[k].tobytes() == want.tobytes()


@pytest.mark.parametrize("t", [-0.5, -3.0, float("nan")])
def test_render_rejects_a_negative_burst_time(t):
    with pytest.raises(DataFormatError, match="burst time"):
        synth_audio_track(small_spec(80000), [1.0, t])


SPEC_DEFECTS = {
    "no-stream": ("stream", None),
    "stream-1": ("stream", 1),
    "stream-text": ("stream", "2"),
    "seed-short": ("seed", [2, 0]),
    "seed-long": ("seed", [7, 2, 0, 1]),
    "seed-negative": ("seed", [7, -2, 0]),
    "seed-float": ("seed", [7, 2.0, 0]),
    "seed-not-list": ("seed", 7),
    "rate-zero": ("rate", 0),
    "rate-float": ("rate", 8000.0),
    "rate-bool": ("rate", True),
    "duration-nan": ("duration", float("nan")),
    "duration-text": ("duration", "10"),
    "base-amp-negative": ("base_amp", -0.05),
    "gain-inf": ("gain", float("inf")),
    "gain-missing": ("gain", None),
}


@pytest.mark.parametrize("defect", sorted(SPEC_DEFECTS))
def test_render_rejects_a_malformed_spec(defect):
    key, value = SPEC_DEFECTS[defect]
    spec = small_spec(80000)
    if value is None:
        del spec[key]
    else:
        spec[key] = value
    with pytest.raises(DataFormatError, match=key):
        synth_audio_track(spec, [1.0])


def test_resolve_audio_paths():
    ds = generate_dataset(SMALL, 5)
    mid = ds.matches[0].match_id
    track, rate = resolve_audio(ds, mid)
    assert rate == SMALL.audio_rate
    spec = ds.matches[0].audio["synth"]
    assert len(track) == int(round(spec["duration"] * rate))
    del spec["stream"]
    with pytest.raises(DataFormatError, match="'m000'.*stream"):
        resolve_audio(ds, mid)
    ds.matches[0].audio = None
    with pytest.raises(SoccersumError, match="no audio"):
        resolve_audio(ds, mid)
    ds.matches[0].audio = {"mystery": 1}
    with pytest.raises(SoccersumError, match="unrecognized"):
        resolve_audio(ds, mid)


# ---------------------------------------------------------------------------
# dataset assembly

def test_generate_dataset_contents():
    ds = generate_dataset(SMALL, 5)
    assert [m.match_id for m in ds.matches] == ["m000", "m001", "m002"]
    assert set(ds.summaries) == {"m000", "m001", "m002"}
    assert ds.meta["generator"]["seed"] == 5
    assert ds.meta["generator"]["matches"] == 3
    for m in ds.matches:
        # ambient stream near the configured mean, plus planted material
        n = len(m.events)
        assert 0.75 * SMALL.events_mean < n < SMALL.events_mean + 300
    again = generate_dataset(SMALL, 5)
    assert [m.events for m in again.matches] == [m.events for m in ds.matches]
    assert again.summaries == ds.summaries


# ---------------------------------------------------------------------------
# scalar spellings of Generator calls: same draws, same values as numpy

def _twins(seed):
    rng = np.random.default_rng(seed)
    return rng, copy.deepcopy(rng)


_QUAL_P = 1.0 / (np.arange(12) + 1.0)
_QUAL_P /= _QUAL_P.sum()

# the weighted draws generate_match made with Generator.choice(a, p=p)
WEIGHTED = {
    "after-shot": (("save", "out", "clearance"), (0.3, 0.35, 0.35),
                   synth._AFTER_SHOT_TYPES, synth._AFTER_SHOT_CDF),
    "background": (synth._BG_TYPES, synth._BG_WEIGHTS, synth._BG_TYPES, synth._BG_CDF),
    "qualifier": (np.arange(12), _QUAL_P, synth._QUAL_CODES, synth._QUAL_CDF),
}


@pytest.mark.parametrize("name", sorted(WEIGHTED))
def test_weighted_equals_generator_choice(name):
    np_a, p, a, cdf = WEIGHTED[name]
    rng, twin = _twins(101)
    n = 100_000
    got = [synth._weighted(rng, a, cdf) for _ in range(n)]
    want = [twin.choice(np_a, p=p).item() for _ in range(n)]
    assert got == want
    assert rng.bit_generator.state == twin.bit_generator.state
    assert set(got) == set(a)  # every outcome drawn


def _literal_uniform_pairs():
    src = inspect.getsource(synth)
    return sorted({(float(lo), float(hi)) for lo, hi in
                   re.findall(r"_uniform\(rng, ([0-9.]+), ([0-9.]+)\)", src)})


def test_uniform_equals_generator_uniform():
    pairs = _literal_uniform_pairs()
    assert len(pairs) == 12
    cfg = GenConfig()
    pairs.append((cfg.budget_min, cfg.budget_max))
    rng, twin = _twins(202)
    lows = rng.uniform(-1e3, 1e3, 20)
    twin.uniform(-1e3, 1e3, 20)
    pairs += [(float(lo), float(lo) + w) for lo, w in zip(lows, 10.0 ** np.arange(-6, 14))]
    for low, high in pairs:
        got = [synth._uniform(rng, low, high) for _ in range(20_000)]
        want = [twin.uniform(low, high) for _ in range(20_000)]
        assert got == want, (low, high)
    assert rng.bit_generator.state == twin.bit_generator.state


def test_unit_uniform_equals_random():
    rng, twin = _twins(303)
    got = [rng.random() for _ in range(100_000)]
    want = [twin.uniform() for _ in range(100_000)]
    assert got == want


def _same_float(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def test_clip_equals_numpy_clip():
    edges = [-0.0, 0.0, 100.0, math.nextafter(0.0, -1.0), math.nextafter(-0.0, -1.0),
             math.nextafter(100.0, 200.0), math.nextafter(100.0, 0.0), -5.0, 105.0,
             math.inf, -math.inf, math.nan]
    rng = np.random.default_rng(404)
    values = edges + rng.uniform(-50.0, 150.0, 10_000).tolist()
    for v in values:
        got = synth._clip100(v)
        assert type(got) is float
        assert _same_float(got, float(np.clip(v, 0.0, 100.0))), v
    # the edges as numpy 2.4 gives them: a zero keeps its sign, NaN passes
    assert math.copysign(1.0, synth._clip100(-0.0)) == -1.0
    assert math.isnan(synth._clip100(math.nan))


def _tree_sha256(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            h.update(rel.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


# gen-data trees at 6 matches x 400 events, as the generator wrote them
# with Generator.choice, uniform and np.clip called per event
GEN_DATA_SHA256 = {
    7: "a474f05624884c26daea317bfbc78a6a047830a39011c24db4628b7adab143b8",
    20261017: "18bdf32e3180312dbaf34a78ac2bb4729a97d573d2e336b25ec043074e2fb59d",
}


@pytest.mark.parametrize("seed", sorted(GEN_DATA_SHA256))
def test_gen_data_tree_is_pinned(tmp_path, capsys, seed):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("gen.matches = 6\ngen.events_mean = 400\n")
    out = tmp_path / "data"
    assert main(["gen-data", "--config", str(cfg), "--seed", str(seed),
                 "--out-dir", str(out)]) == 0
    assert _tree_sha256(str(out)) == GEN_DATA_SHA256[seed]
