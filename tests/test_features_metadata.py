"""Per-event metadata features: geometry oracle values, codebook, encoder.
``encode_match`` is compared with the per-event oracle
``reference.encode_event``."""
import numpy as np
import pytest

from soccersum.core import Event, Match, VocabularyError
from soccersum.features.metadata import (
    MetadataEncoder,
    QualifierCodebook,
    geometry_to_goal,
)

import reference


def ev(i, t, etype, team=0, sx=50.0, sy=50.0, ex=50.0, ey=50.0, outcome=1, qual=0):
    return Event(index=i, t=t, type=etype, team=team, player=1,
                 sx=sx, sy=sy, ex=ex, ey=ey, outcome=outcome, qualifier=qual)


def test_geometry_hand_values():
    # straight in front of the right goal
    d, a = geometry_to_goal(84.0, 50.0, 100.0, 50.0)
    assert d == pytest.approx(0.16)
    assert a == pytest.approx(0.0)
    # level with the goal line, above the goal
    d, a = geometry_to_goal(100.0, 62.0, 100.0, 50.0)
    assert d == pytest.approx(0.12)
    assert a == pytest.approx(-np.pi / 2)
    # oblique position toward the left goal
    d, a = geometry_to_goal(60.0, 80.0, 0.0, 50.0)
    assert d == pytest.approx(np.sqrt(60.0**2 + 30.0**2) / 100.0)
    assert a == pytest.approx(np.arctan2(-30.0, 60.0))
    # standing on the goal center
    assert geometry_to_goal(100.0, 50.0, 100.0, 50.0) == (0.0, 0.0)


def test_codebook_keeps_most_frequent_codes():
    events = [ev(i, i, "pass", qual=q) for i, q in
              enumerate([5, 5, 5, 2, 2, 9, 9, 1])]
    cb = QualifierCodebook.from_events(events, dims=3)
    # two slots for codes, ranked by count then by smaller code (2 beats 9)
    assert cb.codes == [5, 2]
    assert cb.encode(5) == 0
    assert cb.encode(2) == 1
    assert cb.encode(9) == 2   # catch-all bucket
    assert cb.encode(123) == 2
    back = QualifierCodebook.from_dict(cb.to_dict())
    assert back.codes == cb.codes and back.dims == cb.dims


def test_encoder_layout_and_one_hots():
    vocab = ("pass", "shot", "end-period")
    events = [ev(0, 0.0, "pass", sx=25.0, sy=75.0, ex=30.0, ey=60.0, qual=4),
              ev(1, 6.389056, "shot", outcome=0, qual=9)]
    match = Match(match_id="m", events=events)
    cb = QualifierCodebook([4], 2)
    enc = MetadataEncoder(vocab, cb)
    assert enc.width == 10 + 3 + 2

    v0, v1 = enc.encode_match(match)
    assert v0[0] == pytest.approx(0.25)
    assert v0[1] == pytest.approx(0.75)
    assert v0[2] == pytest.approx(0.30)
    assert v0[3] == pytest.approx(0.60)
    assert v0[4] == 0.0          # first event has no predecessor
    assert v0[9] == 1.0
    type_hot = v0[10:13]
    assert list(type_hot) == [1.0, 0.0, 0.0]
    assert list(v0[13:]) == [1.0, 0.0]

    # elapsed time is log-squashed: log1p(6.389056) = log(7.389056) ~ 2
    assert v1[4] == pytest.approx(np.log1p(6.389056))
    assert v1[9] == 0.0
    assert list(v1[10:13]) == [0.0, 1.0, 0.0]
    assert list(v1[13:]) == [0.0, 1.0]   # unseen qualifier falls in the last bucket

    names = enc.feature_names()
    assert len(names) == enc.width
    assert names[4] == "time_elapsed"
    assert names[10] == "type=pass"
    assert names[-1] == "qualifier=other"


def test_encoder_goal_geometry_follows_attack_direction():
    vocab = ("pass", "end-period")
    events = [ev(0, 0.0, "pass", sx=90.0, sy=50.0),
              ev(1, 2.0, "end-period"),
              ev(2, 4.0, "pass", sx=90.0, sy=50.0)]
    match = Match(match_id="m", events=events, attack_right_first=(True, False))
    rows = MetadataEncoder(vocab, QualifierCodebook([], 1)).encode_match(match)
    # first period: team 0 attacks the right goal, 10 units away
    assert rows[0, 5] == pytest.approx(0.10)
    # second period the direction flips, so the same spot is 90 units out
    assert rows[2, 5] == pytest.approx(0.90)


def test_encoder_rejects_unknown_type():
    match = Match(match_id="m", events=[ev(0, 0.0, "header")])
    enc = MetadataEncoder(("pass",), QualifierCodebook([], 1))
    with pytest.raises(VocabularyError, match="header"):
        enc.encode_match(match)
    with pytest.raises(VocabularyError, match="header"):
        reference.encode_event(enc, match, 0)


def test_encode_match_stacks_rows():
    match = Match(match_id="m", events=[ev(0, 0.0, "pass"), ev(1, 1.0, "pass")])
    enc = MetadataEncoder(("pass",), QualifierCodebook([], 1))
    rows = enc.encode_match(match)
    assert rows.shape == (2, enc.width)
    assert np.array_equal(rows[0], reference.encode_event(enc, match, 0))
    assert np.array_equal(rows[1], reference.encode_event(enc, match, 1))


def test_encode_match_equals_linear_scan_definition():
    """A generated match with several periods: the oracle counts the
    end-period events before each event."""
    from soccersum.config import PipelineConfig
    from soccersum.core import DEFAULT_EVENT_TYPES
    from soccersum.synth import generate_match

    gen = PipelineConfig({"gen.events_mean": 400}).gen_config()
    match, _, _ = generate_match(gen, seed=3, ordinal=0)
    assert sum(e.type == "end-period" for e in match.events) >= 2
    for first in ((True, False), (False, True)):
        match.attack_right_first = first
        enc = MetadataEncoder(DEFAULT_EVENT_TYPES, QualifierCodebook.from_events(match.events, 8))
        want = np.stack([reference.encode_event(enc, match, i)
                         for i in range(len(match.events))])
        assert enc.encode_match(match).tobytes() == want.tobytes()


def _random_match(rng, n):
    """Random events over a vocabulary with end-period markers, a half-time
    gap after the first one, both teams and qualifier codes 0..9."""
    vocab = ("pass", "shot", "foul", "end-period")
    t = np.cumsum(rng.exponential(3.0, size=n))
    types = rng.choice(vocab, size=n, p=[0.6, 0.2, 0.15, 0.05])
    ends = np.flatnonzero(types == "end-period")
    if ends.size:
        t[ends[0] + 1 :] += 900.0
    xy = rng.uniform(0.0, 100.0, size=(n, 4))
    events = [ev(i, float(t[i]), str(types[i]), team=int(rng.integers(0, 2)),
                 sx=xy[i, 0], sy=xy[i, 1], ex=xy[i, 2], ey=xy[i, 3],
                 outcome=int(rng.integers(0, 2)), qual=int(rng.integers(0, 10)))
              for i in range(n)]
    return vocab, Match(match_id="r", events=events)


@pytest.mark.parametrize("seed", range(6))
def test_encode_match_equals_stacked_encode_rows(seed):
    rng = np.random.default_rng(seed)
    vocab, match = _random_match(rng, int(rng.integers(1, 300)))
    # three kept codes: the other seven land in the catch-all bucket
    codebook = QualifierCodebook.from_events(match.events, dims=4)
    enc = MetadataEncoder(vocab, codebook)
    for first in ((True, False), (False, True), (True, True)):
        match.attack_right_first = first
        want = np.stack([reference.encode_event(enc, match, i)
                         for i in range(len(match.events))])
        assert enc.encode_match(match).tobytes() == want.tobytes()


def test_encode_match_rejects_unknown_type():
    match = Match(match_id="m", events=[ev(0, 0.0, "pass"), ev(1, 1.0, "dive")])
    enc = MetadataEncoder(("pass",), QualifierCodebook([], 1))
    with pytest.raises(VocabularyError, match="dive"):
        enc.encode_match(match)
