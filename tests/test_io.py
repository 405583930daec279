"""Dataset serialization: round trips, byte stability, schema errors."""
import json
import math
import os

import numpy as np
import pytest

import reference
from soccersum import io
from soccersum.config import PipelineConfig
from soccersum.core import Action, DataFormatError, Event, Match, Summary, VocabularyError
from soccersum.io import Dataset, load_dataset, save_dataset
from soccersum.synth import generate_dataset

VOCAB = ("pass", "shot", "goal-shot")


def _event(i, t, etype, **kw):
    base = dict(index=i, t=t, type=etype, team=0, player=3, sx=10.0, sy=20.0,
                ex=30.0, ey=40.0, outcome=1, qualifier=2)
    base.update(kw)
    return Event(**base)


def _dataset():
    m0 = Match(
        match_id="m000",
        events=[_event(0, 0.0, "pass"), _event(1, 1.5, "shot"),
                _event(2, 3.123456, "goal-shot", sx=99.5)],
        attack_right_first=(True, False),
        audio={"synth": {"rate": 8000, "gain": 3.0, "base_amp": 0.05,
                         "seed": [7, 2, 0], "duration": 10.0}},
    )
    m1 = Match(
        match_id="m001",
        events=[_event(0, 0.0, "pass", team=1), _event(1, 2.0, "pass")],
        attack_right_first=(False, True),
    )
    return Dataset(
        vocabulary=VOCAB,
        matches=[m0, m1],
        summaries={"m000": Summary("m000", [Action(1, 2, "goal")])},
        meta={"note": "fixture"},
    )


def test_round_trip_preserves_everything(tmp_path):
    ds = _dataset()
    save_dataset(ds, str(tmp_path / "d"))
    back = load_dataset(str(tmp_path / "d"))
    assert back.vocabulary == VOCAB
    assert back.match_ids() == ["m000", "m001"]
    assert back.meta == {"note": "fixture"}
    assert back.by_id("m000").events == ds.by_id("m000").events
    assert back.by_id("m001").attack_right_first == (False, True)
    assert back.by_id("m000").audio["synth"]["rate"] == 8000
    assert back.summaries["m000"].actions == [Action(1, 2, "goal")]


def test_save_is_byte_stable(tmp_path):
    ds = _dataset()
    save_dataset(ds, str(tmp_path / "a"))
    reloaded = load_dataset(str(tmp_path / "a"))
    save_dataset(reloaded, str(tmp_path / "b"))
    for name in ("dataset.json", "events.jsonl", os.path.join("summaries", "m000.json")):
        with open(tmp_path / "a" / name, "rb") as fh:
            first = fh.read()
        with open(tmp_path / "b" / name, "rb") as fh:
            second = fh.read()
        assert first == second, name


def test_numbers_round_to_six_decimals(tmp_path):
    m = Match(match_id="m0", events=[_event(0, 0.123456789, "pass", sx=1.00000049)])
    save_dataset(Dataset(vocabulary=VOCAB, matches=[m]), str(tmp_path / "d"))
    back = load_dataset(str(tmp_path / "d"))
    assert back.by_id("m0").events[0].t == 0.123457
    assert back.by_id("m0").events[0].sx == 1.0


def test_missing_manifest(tmp_path):
    with pytest.raises(DataFormatError, match="dataset.json"):
        load_dataset(str(tmp_path))


def _write_minimal(tmp_path, event_lines, manifest=None, summary=None):
    d = tmp_path / "d"
    d.mkdir(exist_ok=True)
    if manifest is None:
        manifest = {"vocabulary": list(VOCAB),
                    "matches": [{"match_id": "m0", "attack_right_first": [True, False],
                                 "audio": None}],
                    "meta": {}}
    (d / "dataset.json").write_text(json.dumps(manifest))
    (d / "events.jsonl").write_text("\n".join(event_lines) + "\n")
    if summary is not None:
        (d / "summaries").mkdir(exist_ok=True)
        name, payload = summary
        (d / "summaries" / name).write_text(json.dumps(payload))
    return str(d)


def _line(i, etype="pass", match_id="m0", drop=None, t=None, **fields):
    """One events.jsonl line; ``fields`` override the record's values."""
    rec = {"match_id": match_id, "index": i, "t": float(i) if t is None else t, "type": etype,
           "team": 0, "player": 1, "sx": 1.0, "sy": 2.0, "ex": 3.0, "ey": 4.0,
           "outcome": 1, "qualifier": 0}
    rec.update(fields)
    if drop:
        del rec[drop]
    return json.dumps(rec)


def test_corrupt_event_line(tmp_path):
    path = _write_minimal(tmp_path, [_line(0), "{not json"])
    with pytest.raises(DataFormatError, match="line 2"):
        load_dataset(path)


def test_missing_event_field(tmp_path):
    path = _write_minimal(tmp_path, [_line(0, drop="outcome")])
    with pytest.raises(DataFormatError, match="outcome"):
        load_dataset(path)


def test_unknown_event_type(tmp_path):
    path = _write_minimal(tmp_path, [_line(0, etype="header")])
    with pytest.raises(VocabularyError):
        load_dataset(path)


def test_match_without_events(tmp_path):
    path = _write_minimal(tmp_path, [_line(0, match_id="elsewhere")])
    with pytest.raises(DataFormatError):
        load_dataset(path)


def test_non_dense_indices(tmp_path):
    path = _write_minimal(tmp_path, [_line(0), _line(2)])
    with pytest.raises(DataFormatError, match="not dense"):
        load_dataset(path)


def test_events_for_unlisted_match(tmp_path):
    path = _write_minimal(tmp_path, [_line(0), _line(0, match_id="ghost")])
    with pytest.raises(DataFormatError, match="ghost"):
        load_dataset(path)


def test_summary_for_unknown_match(tmp_path):
    path = _write_minimal(tmp_path, [_line(0)],
                          summary=("ghost.json", [{"start_index": 0, "end_index": 0,
                                                   "type": "goal"}]))
    with pytest.raises(DataFormatError, match="ghost"):
        load_dataset(path)


def test_summary_must_be_an_array(tmp_path):
    path = _write_minimal(tmp_path, [_line(0)],
                          summary=("m0.json", {"start_index": 0}))
    with pytest.raises(DataFormatError, match="array"):
        load_dataset(path)


# one case per rule of the event data: fields of the third event line, the
# error the loader raises, and the text that names where the rule broke
EVENT_RULES = {
    **{"%s=%s" % (f, v): ({f: v}, DataFormatError, "events.jsonl line 3: sx, sy, ex, ey")
       for f in ("sx", "sy", "ex", "ey") for v in (-0.5, 100.5)},
    "team=2": ({"team": 2}, DataFormatError, "events.jsonl line 3: team and outcome"),
    "outcome=2": ({"outcome": 2}, DataFormatError, "events.jsonl line 3: team and outcome"),
    "t=-0.5": ({"t": -0.5}, DataFormatError, "events.jsonl line 3: event time"),
    "t=nan": ({"t": math.nan}, DataFormatError, "events.jsonl line 3: event time"),
    "t=inf": ({"t": math.inf}, DataFormatError, "events.jsonl line 3: event time"),
    "type=header": ({"etype": "header"}, VocabularyError, "events.jsonl line 3: event type"),
    "t-before-previous": ({"t": 0.5}, DataFormatError,
                          "match 'm0', event 2: event time 0.5 is before"),
    "index-gap": ({"index": 3}, DataFormatError, "match 'm0', event 2: event indices not dense"),
}


@pytest.mark.parametrize("rule", list(EVENT_RULES))
def test_event_rule_names_its_line_or_match(tmp_path, rule):
    fields, error, named = EVENT_RULES[rule]
    path = _write_minimal(tmp_path, [_line(0), _line(1), _line(2, **fields)])
    with pytest.raises(error) as info:
        load_dataset(path)
    assert type(info.value) is error and str(info.value).startswith(named)


def test_event_rule_edges_load(tmp_path):
    """Each bound of a rule is inside it: a corner of the pitch, both flag
    values, time 0 and a time equal to the one before."""
    path = _write_minimal(tmp_path, [
        _line(0, t=0.0, sx=0.0, sy=100.0, ex=100, ey=-0.0, team=1, outcome=0),
        _line(1, t=0.0, team=0, outcome=1)])
    assert len(load_dataset(path).by_id("m0").events) == 2


@pytest.mark.parametrize("t", [-0.5, float("nan"), float("inf")])
def test_bad_event_time_names_its_line(tmp_path, t):
    path = _write_minimal(tmp_path, [_line(0), _line(1, t=t)])
    with pytest.raises(DataFormatError, match="line 2: event time"):
        load_dataset(path)


@pytest.mark.parametrize("field", ["index", "team", "player", "outcome", "qualifier"])
@pytest.mark.parametrize("value", [0.9, 1.0, True, False, "7", None, [1]])
def test_integer_field_must_be_a_json_integer(tmp_path, field, value):
    path = _write_minimal(tmp_path, [_line(0), _line(1, **{field: value})])
    with pytest.raises(DataFormatError,
                       match="line 2: %s .* is not a JSON integer" % field):
        load_dataset(path)


@pytest.mark.parametrize("field", ["t", "sx", "sy", "ex", "ey"])
@pytest.mark.parametrize("value", [True, "7", "1.5", None, {"x": 1}])
def test_number_field_must_be_a_json_number(tmp_path, field, value):
    rec = json.loads(_line(1))
    rec[field] = value
    path = _write_minimal(tmp_path, [_line(0), json.dumps(rec)])
    with pytest.raises(DataFormatError, match="line 2: %s .* is not a JSON number" % field):
        load_dataset(path)


def test_number_fields_take_json_integers(tmp_path):
    path = _write_minimal(tmp_path, [_line(0, t=0, sx=1, sy=2, ex=3, ey=4)])
    ev = load_dataset(path).by_id("m0").events[0]
    assert (ev.t, ev.sx, ev.sy, ev.ex, ev.ey) == (0.0, 1.0, 2.0, 3.0, 4.0)
    assert all(type(v) is float for v in (ev.t, ev.sx, ev.sy, ev.ex, ev.ey))


def test_number_field_too_large_for_a_float(tmp_path):
    path = _write_minimal(tmp_path, [_line(0), _line(1, sx=10 ** 400)])
    with pytest.raises(DataFormatError, match="line 2: malformed field"):
        load_dataset(path)


@pytest.mark.parametrize("field", ["start_index", "end_index"])
@pytest.mark.parametrize("value", [0.0, 1.4, True, "1"])
def test_summary_index_must_be_a_json_integer(tmp_path, field, value):
    action = {"start_index": 0, "end_index": 1, "type": "goal"}
    action[field] = value
    path = _write_minimal(tmp_path, [_line(0), _line(1)], summary=("m0.json", [action]))
    with pytest.raises(DataFormatError, match="m0.json.*%s .* is not a JSON integer" % field):
        load_dataset(path)


@pytest.mark.parametrize("action", [
    {"start_index": 1, "end_index": 2, "type": "goal"},     # past the last event
    {"start_index": -1, "end_index": 0, "type": "goal"},
    {"start_index": 1, "end_index": 0, "type": "goal"},
    {"start_index": 0, "type": "goal"},
])
def test_summary_action_outside_the_match(tmp_path, action):
    path = _write_minimal(tmp_path, [_line(0), _line(1)], summary=("m0.json", [action]))
    with pytest.raises(DataFormatError, match="m0.json"):
        load_dataset(path)


def test_a_repeated_match_id_is_refused_naming_it(tmp_path):
    entry = {"match_id": "m0", "attack_right_first": [True, False], "audio": None}
    path = _write_minimal(tmp_path, [_line(0)],
                          manifest={"vocabulary": list(VOCAB), "matches": [entry, entry]})
    with pytest.raises(DataFormatError,
                       match="^dataset.json: match id 'm0' is listed more than once$"):
        load_dataset(path)
    m = Match(match_id="m0", events=[_event(0, 0.0, "pass")])
    with pytest.raises(DataFormatError, match="^match id 'm0' is listed more than once$"):
        Dataset(vocabulary=VOCAB, matches=[m, Match(match_id="m0", events=[])])


def test_by_id_names_an_unknown_match():
    ds = _dataset()
    assert ds.by_id("m001").match_id == "m001"
    with pytest.raises(DataFormatError, match="'m404'"):
        ds.by_id("m404")


def test_save_load_save_is_byte_identical_on_awkward_values(tmp_path):
    vocab = ("pass", "tir-\u00e0-gauche", "\u5c04\u95e8")
    m = Match(match_id="m\u00e9", events=[
        _event(0, -0.0, "pass", sx=-0.0, ey=1e-7),
        _event(1, 2, "tir-\u00e0-gauche", sx=50, sy=0, ex=100, ey=1e-6),
        _event(2, 3.5, "\u5c04\u95e8", sy=5e-7, ex=99.9999995),
    ])
    save_dataset(Dataset(vocabulary=vocab, matches=[m]), str(tmp_path / "a"))
    back = load_dataset(str(tmp_path / "a"))
    assert back.vocabulary == vocab and back.by_id("m\u00e9").events[2].type == "\u5c04\u95e8"
    save_dataset(back, str(tmp_path / "b"))
    for name in ("dataset.json", "events.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# one table of span-record defects, each fed to both span readers: a
# summary file and a proposals file (in a match of 2 events); the text
# that names the field at fault
_SPAN = {"start_index": 0, "end_index": 1, "type": "goal"}
SPAN_DEFECTS = {
    "not-an-object": ([0, 1, "goal"], "is not a JSON object"),
    **{"%s-missing" % f: ({k: v for k, v in _SPAN.items() if k != f}, "%s is missing" % f)
       for f in _SPAN},
    **{"%s=%r" % (f, v): (dict(_SPAN, **{f: v}), "%s %r is not a JSON integer" % (f, v))
       for f in ("start_index", "end_index") for v in (1.4, True, "1")},
    "negative": (dict(_SPAN, start_index=-1), "start_index -1 is negative"),
    "reversed": (dict(_SPAN, start_index=1, end_index=0), "end_index 0 is before start_index 1"),
    "past-the-end": (dict(_SPAN, end_index=2), "end_index 2 is past the last event 1"),
    "unknown-type": (dict(_SPAN, type="penalty"), "type 'penalty' is not a summary action type"),
    "type-not-a-string": (dict(_SPAN, type=5), "type 5 is not a summary action type"),
}


@pytest.mark.parametrize("defect", sorted(SPAN_DEFECTS))
def test_both_span_readers_refuse_a_defect_naming_the_file_and_field(tmp_path, defect):
    from soccersum.artifacts import read_proposals_json
    rec, fault = SPAN_DEFECTS[defect]
    path = _write_minimal(tmp_path, [_line(0), _line(1)], summary=("m0.json", [rec]))
    with pytest.raises(DataFormatError) as summary_exc:
        load_dataset(path)
    os.remove(os.path.join(path, "summaries", "m0.json"))
    proposals = tmp_path / "proposals.json"
    proposals.write_text(json.dumps({"config_hash": "abc", "seed": 7, "matches": {"m0": [rec]}}))
    with pytest.raises(DataFormatError) as proposals_exc:
        read_proposals_json(str(proposals), load_dataset(path))
    assert "m0.json" in str(summary_exc.value) and fault in str(summary_exc.value)
    assert str(proposals) in str(proposals_exc.value) and fault in str(proposals_exc.value)


def test_every_written_span_record_reads_back_to_its_action(tmp_path):
    """Summaries, proposals and candidate files all write ``Action.record``,
    and ``Action.from_record`` reads each record back to its action."""
    from types import SimpleNamespace

    from soccersum.artifacts import Provenance, write_candidates_json, write_proposals_json
    from soccersum.core import SUMMARY_ACTION_TYPES
    events = [_event(i, float(i), "pass") for i in range(12)]
    actions = [Action(i, i + (i % 3), t) for i, t in enumerate(SUMMARY_ACTION_TYPES)]
    save_dataset(Dataset(vocabulary=VOCAB, matches=[Match("m0", events)],
                         summaries={"m0": Summary("m0", actions)}), str(tmp_path / "d"))
    prov = Provenance("abc", 7)
    write_proposals_json(str(tmp_path / "proposals.json"), prov, {"m0": actions})
    chosen = [[0, 4, 9], [2, 3]]
    write_candidates_json(str(tmp_path / "m0.json"), prov, "m0", 30.0, [
        SimpleNamespace(sample_index=j, ranking=list(range(10)), chosen=c,
                        total_duration=1.0, over_budget=False) for j, c in enumerate(chosen)
    ], actions)

    def read(name):
        return json.loads((tmp_path / name).read_text())

    def back(recs):
        return [Action.from_record(r, len(events)) for r in recs]

    assert back(read("d/summaries/m0.json")) == actions
    assert back(read("proposals.json")["matches"]["m0"]) == actions
    for c, indices in zip(read("m0.json")["candidates"], chosen):
        assert [r.pop("proposal_index") for r in c["chosen"]] == indices
        assert back(c["chosen"]) == [actions[i] for i in indices]


def test_save_removes_summaries_of_an_earlier_dataset(tmp_path):
    out = str(tmp_path / "d")
    save_dataset(_dataset(), out)
    (tmp_path / "d" / "summaries" / "notes.txt").write_text("kept")
    m = Match(match_id="m001", events=[_event(0, 0.0, "pass")])
    save_dataset(Dataset(vocabulary=VOCAB, matches=[m],
                         summaries={"m001": Summary("m001", [Action(0, 0, "other")])}), out)
    back = load_dataset(out)
    assert back.match_ids() == ["m001"] and list(back.summaries) == ["m001"]
    assert sorted(os.listdir(out + "/summaries")) == ["m001.json", "notes.txt"]
    # a match with no summary of its own does not inherit the file on disk
    save_dataset(Dataset(vocabulary=VOCAB, matches=[m]), out)
    assert load_dataset(out).summaries == {}


def _outcome(fn):
    """``fn()``'s value, or its exception's class and message."""
    try:
        return "value", repr(fn())
    except Exception as exc:  # the loader and the reference must fail alike
        return type(exc).__name__, str(exc)


_HUGE = 10 ** 400


def _mutant(line: bytes, rng) -> bytes:
    """``line`` with one defect, or one unusual value that still loads."""
    rec = json.loads(line)
    field = io._EVENT_FIELDS[int(rng.integers(len(io._EVENT_FIELDS)))]
    kind = int(rng.integers(18))
    if kind == 0:
        del rec[field]
    elif kind == 1:
        rec[field] = bool(rng.integers(2))
    elif kind == 2:
        rec[field] = str(rec[field])
    elif kind == 3:
        rec[field] = float(rng.integers(3)) + (0.5 if rng.integers(2) else 0.0)
    elif kind == 4:
        rec[field] = _HUGE if rng.integers(2) else -_HUGE
    elif kind == 5:
        rec[field] = int(rng.integers(-2, 120))
    elif kind == 6:
        rec[field] = [None, {}, [1], "\u00e9"][int(rng.integers(4))]
    elif kind == 7:
        rec["t"] = [math.nan, math.inf, -1.0, -0.0][int(rng.integers(4))]
    elif kind == 8:
        rec["type"] = "no-such-type"
    elif kind == 9:
        rec["extra"] = 1
    elif kind == 10:  # not an object
        return [b"[1, 2]", b"3", b'"pass"', b"null", json.dumps(list(rec.values())).encode()][
            int(rng.integers(5))]
    elif kind == 11:  # extra data
        return line + [b" {}", b" " + line, b"1", b" ,"][int(rng.integers(4))]
    elif kind == 12:  # invalid JSON
        cut = int(rng.integers(1, len(line)))
        return [line[:cut], line.replace(b":", b"=", 1), line[:-1] + b",}",
                b"\xef\xbb\xbf" + line, b"[" * 3000][int(rng.integers(5))]
    elif kind == 13:  # blank or whitespace around the object
        return [b"", b"  \t ", b" " + line + b"\t", b"\x0c" + line][int(rng.integers(4))]
    elif kind == 14:  # bytes that are not UTF-8, in a value or a key
        return line.replace(b'"type": "', b'"type": "\xff', 1) if rng.integers(2) \
            else line.replace(b'"team"', b'"te\xc3am"', 1)
    elif kind == 15:  # a coordinate off the pitch, or on its edge
        values = [-0.5, 100.5, math.nextafter(100.0, math.inf), math.nan, -0.0, 100]
        rec[["sx", "sy", "ex", "ey"][int(rng.integers(4))]] = values[int(rng.integers(6))]
    elif kind == 16:  # a flag that is not 0 or 1
        rec[["team", "outcome"][int(rng.integers(2))]] = [2, -1, 1][int(rng.integers(3))]
    else:
        rec["match_id"] = [7, "m\u00e9", "m001"][int(rng.integers(3))]
    return json.dumps(rec, sort_keys=True, allow_nan=True).encode()


def test_fast_loader_fails_and_reads_as_the_reference(tmp_path):
    """Mutated events.jsonl lines: the loader raises the reference's
    exception class and message, or reads the same events."""
    cfg = PipelineConfig({"gen.matches": 2, "gen.events_mean": 25})
    ds = generate_dataset(cfg.gen_config(), 3)
    save_dataset(ds, str(tmp_path / "d"))
    lines = (tmp_path / "d" / "events.jsonl").read_bytes().split(b"\n")[:-1]
    vocab_set = set(ds.vocabulary)
    path = str(tmp_path / "events.jsonl")
    rng = np.random.default_rng(20261019)
    kinds = set()
    for _ in range(400):
        mutated = list(lines)
        for i in rng.choice(len(lines), size=int(rng.integers(1, 4)), replace=False):
            mutated[i] = _mutant(lines[i], rng)
        with open(path, "wb") as fh:
            fh.write(b"\n".join(mutated) + b"\n")
        want = _outcome(lambda: reference.load_events(path, vocab_set))
        assert _outcome(lambda: io._read_events(path, vocab_set)) == want
        kinds.add(want[0])
    assert {"value", "DataFormatError", "VocabularyError"} <= kinds
