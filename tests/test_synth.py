"""Synthetic match generator: determinism, structural guarantees the
pipeline relies on, crowd-noise audio, and dataset assembly."""
import numpy as np
import pytest

from soccersum.core import (
    DEFAULT_EVENT_TYPES,
    DataFormatError,
    PaddingConfig,
    SoccersumError,
    validate_match,
)
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

def test_audio_bursts_are_louder(default_match):
    m, s, _ = default_match
    bursts = summary_event_times(m, s)
    track, fs = synth_audio_track(m.audio["synth"], bursts)
    mask = np.zeros(len(track), dtype=bool)
    for t in bursts:
        i0 = int(round(t * fs))
        mask[i0 : i0 + 2 * fs] = True
    loud = float(np.sqrt(np.mean(track[mask] ** 2)))
    quiet = float(np.sqrt(np.mean(track[~mask] ** 2)))
    assert loud / quiet > 2.0


def test_audio_render_deterministic(default_match):
    m, s, _ = default_match
    bursts = summary_event_times(m, s)
    t1, f1 = synth_audio_track(m.audio["synth"], bursts)
    t2, f2 = synth_audio_track(m.audio["synth"], bursts)
    assert f1 == f2
    assert np.array_equal(t1, t2)
    assert t1.dtype == np.float32


def one_shot_audio_track(spec, burst_times):
    """The render as one full-length draw, before it was chunked."""
    fs = int(spec["rate"])
    n = int(round(float(spec["duration"]) * fs))
    rng = np.random.default_rng(np.random.SeedSequence(list(spec["seed"])))
    track = rng.normal(0.0, spec["base_amp"], size=n).astype(np.float32)
    amp = spec["base_amp"] * spec["gain"]
    for t in sorted(burst_times):
        a = int(round(t * fs))
        b = min(a + 2 * fs, n)
        if a < n:
            track[a:b] += rng.normal(0.0, amp, size=b - a).astype(np.float32)
    return track, fs


@pytest.mark.parametrize("n", [0, 1000, RENDER_CHUNK, RENDER_CHUNK + 1, 3 * RENDER_CHUNK + 7])
def test_chunked_render_equals_one_shot_draw(n):
    spec = {"rate": 8000, "gain": 3.0, "base_amp": 0.05, "seed": [7, 2, n],
            "duration": n / 8000}
    bursts = [0.0, 0.1, max(n / 8000 - 0.5, 0.0), n / 8000 + 1.0]
    track, fs = synth_audio_track(spec, bursts)
    want, _ = one_shot_audio_track(spec, bursts)
    assert fs == 8000 and track.dtype == np.float32 and len(track) == n
    assert track.tobytes() == want.tobytes()


@pytest.mark.parametrize("t", [-0.5, -3.0, float("nan")])
def test_render_rejects_a_negative_burst_time(t):
    spec = {"rate": 8000, "gain": 3.0, "base_amp": 0.05, "seed": [7, 2, 0], "duration": 10.0}
    with pytest.raises(DataFormatError, match="burst time"):
        synth_audio_track(spec, [1.0, t])


def test_chunked_render_equals_one_shot_draw_on_a_full_match(default_match):
    m, s, _ = default_match
    bursts = summary_event_times(m, s)
    track, _ = synth_audio_track(m.audio["synth"], bursts)
    assert track.tobytes() == one_shot_audio_track(m.audio["synth"], bursts)[0].tobytes()


def test_resolve_audio_paths():
    ds = generate_dataset(SMALL, 5)
    mid = ds.matches[0].match_id
    track, rate = resolve_audio(ds, mid)
    assert rate == SMALL.audio_rate
    spec = ds.matches[0].audio["synth"]
    assert len(track) == int(round(spec["duration"] * rate))
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
