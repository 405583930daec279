"""Domain model checks: events, actions, categories, durations."""
import pickle

import numpy as np
import pytest

from soccersum.core import (
    Action,
    ConfigError,
    DataFormatError,
    Event,
    Match,
    PaddingConfig,
    ShapeError,
    Summary,
    action_duration,
    action_type,
    event_columns,
    named,
    naming,
)


def ev(i, t, etype, team=0, sx=50.0, sy=50.0, ex=50.0, ey=50.0, outcome=1, qual=0):
    return Event(index=i, t=t, type=etype, team=team, player=7,
                 sx=sx, sy=sy, ex=ex, ey=ey, outcome=outcome, qualifier=qual)


def make_match(types, dt=2.0, **kw):
    events = [ev(i, i * dt, t, **kw) for i, t in enumerate(types)]
    return Match(match_id="t0", events=events)


def test_event_is_an_immutable_value():
    e = ev(3, 1.5, "shot", team=1, sx=-0.0)
    with pytest.raises(AttributeError):
        e.t = 2.0
    same = Event(index=3, t=1.5, type="shot", team=1, player=7, sx=-0.0, sy=50.0, ex=50.0,
                 ey=50.0, outcome=1, qualifier=0)
    assert e == same and hash(e) == hash(same) and len({e, same}) == 1
    assert e != ev(3, 1.5, "shot", team=0, sx=-0.0)
    back = pickle.loads(pickle.dumps(e))
    assert type(back) is Event and back == e and back.type == "shot"
    # a named tuple: equal to the plain tuple of its fields, ordered and
    # unpacked field by field in declaration order
    assert e == (3, 1.5, "shot", 1, 7, -0.0, 50.0, 50.0, 50.0, 1, 0) and len(e) == 11
    assert ev(2, 9.0, "shot") < e and tuple(e._asdict()) == Event._fields
    index, t, *_ = e
    assert (index, t) == (3, 1.5)


def test_event_columns_follow_the_named_fields():
    events = [ev(0, 0.5, "pass", team=1), ev(1, 2.0, "shot")]
    assert event_columns(events, "type", "t", "team") == [("pass", "shot"), (0.5, 2.0), (1, 0)]
    assert event_columns([], "t", "qualifier") == [(), ()]
    # one field is read by its own pass
    assert event_columns(events, "team") == [(1, 0)]
    assert event_columns([], "type") == [()]


def test_action_rejects_reversed_span():
    with pytest.raises(ValueError):
        Action(5, 3)


def test_action_type_uses_category_priority():
    m = make_match(["pass", "shot", "goal-shot", "pass"])
    # goal outranks shot when both appear inside the same action
    assert action_type(Action(0, 3), m) == "goal"
    assert action_type(Action(1, 1), m) == "shot"
    assert action_type(Action(0, 0), m) == "other"

    m2 = make_match(["card", "save"])
    # save sits above foul (the card's category) in the priority order
    assert action_type(Action(0, 1), m2) == "save"
    assert action_type(Action(0, 0), m2) == "foul"


def test_action_type_maps_period_markers():
    m = make_match(["start-period", "pass", "end-period"])
    assert action_type(Action(0, 1), m) == "start-period"
    assert action_type(Action(2, 2), m) == "end-period"


def test_action_duration_adds_padding():
    m = make_match(["pass"] * 6, dt=3.0)
    pad = PaddingConfig(pre=5.0, post=10.0)
    # events at t=3 and t=12 span 9 seconds
    assert action_duration(Action(1, 4), m, pad) == pytest.approx(9.0 + 15.0)
    assert action_duration(Action(2, 2), m, pad) == pytest.approx(15.0)


def test_summary_total_duration():
    m = make_match(["pass"] * 10, dt=1.0)
    pad = PaddingConfig(1.0, 1.0)
    s = Summary("t0", [Action(0, 1), Action(5, 8)])
    assert s.total_duration(m, pad) == pytest.approx((1 + 2) + (3 + 2))


def test_type_sequence():
    m = make_match(["pass", "shot", "save"])
    assert m.type_sequence() == ("pass", "shot", "save")


def test_naming_leads_a_package_error_with_where_outer_to_inner():
    with pytest.raises(ShapeError, match="^run/scores.csv: match 'm0': 3 scores$") as info:
        with naming("run/scores.csv"):
            with naming("match %r", "m0"):
                raise ShapeError("3 scores")
    assert type(info.value) is ShapeError and info.value.__suppress_context__
    # ``where`` is formatted only with arguments, so a path may hold "%"
    with pytest.raises(ConfigError, match="^50%/a.cfg:2: bad$"):
        with naming("%s:%d", "50%/a.cfg", 2):
            raise ConfigError("bad")
    with pytest.raises(DataFormatError, match="^100%: bad$"):
        with naming("100%"):
            raise DataFormatError("bad")
    # errors that are not the package's pass through untouched
    with pytest.raises(ValueError, match="^plain$"):
        with naming("anywhere"):
            raise ValueError("plain")
    with naming("anywhere"):
        pass
    err = named("events.jsonl line 4", DataFormatError("event time -1.0 is negative"))
    assert type(err) is DataFormatError
    assert str(err) == "events.jsonl line 4: event time -1.0 is negative"
