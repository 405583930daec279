"""Dataset serialization.

Layout of a dataset directory::

    dataset.json          manifest: vocabulary + per-match side info
    events.jsonl          one JSON object per event, all matches
    summaries/<id>.json   ground-truth summary, JSON array of ``Action`` records

Event lines carry {match_id, index, t, type, team, player, sx, sy, ex, ey,
outcome, qualifier}.  Numeric fields are written rounded to 6 decimals so a
read/write cycle is byte-stable for data already at that precision.  A line
whose fields have the types written here becomes an ``Event`` with no
per-field type check or conversion; any other line goes through
``record_to_event``, whose errors name the field.

The loader checks every rule of the event data once, and names the input
it reads (``core.naming``).  Rules of one event name its events.jsonl line:
a finite time of at least 0, a type in the vocabulary, ``sx``, ``sy``,
``ex`` and ``ey`` on the ``PITCH`` square, and ``team`` and ``outcome``
each 0 or 1.  Rules of a whole match name the match and the event index:
indices 0..n-1 and times that never decrease in index order.
"""
from __future__ import annotations

import json
import json.scanner
import math
import operator
import os
import typing
from dataclasses import dataclass, field

from .core import (
    PITCH,
    Action,
    DataFormatError,
    Event,
    Match,
    SoccersumError,
    Summary,
    VocabularyError,
    named,
    naming,
    open_input,
    open_output,
)

_EVENT_FIELDS = ("match_id", *Event._fields)
# the type ``Event`` declares for each of its fields
_EVENT_TYPES = typing.get_type_hints(Event)
# fields a JSON integer must carry, and fields any JSON number may carry;
# ``type`` tests leave out ``bool`` (``true`` is not the integer 1 here)
_INT_FIELDS = tuple(f for f in Event._fields if _EVENT_TYPES[f] is int)
_NUMBER_FIELDS = tuple(f for f in Event._fields if _EVENT_TYPES[f] is float)
# a record whose ``_EVENT_FIELDS`` have exactly these types (as
# ``save_dataset`` writes them) passes every check of ``record_to_event``
# with nothing to convert
_PLAIN_TYPES = [str, *(_EVENT_TYPES[f] for f in Event._fields)]
_get_fields = operator.itemgetter(*_EVENT_FIELDS)
_get_index_t = operator.itemgetter(0, 1)
# ``JSONDecoder.raw_decode`` without its wrapper: (value, end) of the JSON
# value at an index, ``StopIteration`` when none starts there
_scan_once = json.scanner.make_scanner(json.JSONDecoder())
_ENCODER = json.JSONEncoder(sort_keys=True)  # as json.dumps(..., sort_keys=True)


def _r6(x: float) -> float:
    return round(float(x), 6)


@dataclass
class Dataset:
    """A dataset in memory; its match ids are distinct (``by_id``'s index)."""

    vocabulary: tuple[str, ...]
    matches: list[Match] = field(default_factory=list)
    summaries: dict[str, Summary] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self._index: dict[str, Match] = {}
        for m in self.matches:
            if m.match_id in self._index:
                raise DataFormatError("match id %r is listed more than once" % m.match_id)
            self._index[m.match_id] = m

    def match_ids(self) -> list[str]:
        return [m.match_id for m in self.matches]

    def by_id(self, match_id: str) -> Match:
        m = self._index.get(match_id)
        if m is None:
            raise DataFormatError("unknown match id %r" % match_id)
        return m


def event_to_record(ev: Event, match_id: str) -> dict:
    return {"match_id": match_id, "index": ev.index, "t": _r6(ev.t), "type": ev.type,
            "team": ev.team, "player": ev.player, "sx": _r6(ev.sx), "sy": _r6(ev.sy),
            "ex": _r6(ev.ex), "ey": _r6(ev.ey), "outcome": ev.outcome, "qualifier": ev.qualifier}


def record_to_event(rec: dict) -> tuple[str, Event]:
    """The match id and event of a parsed events.jsonl line; raises
    ``DataFormatError`` naming the field at fault."""
    if not isinstance(rec, dict):
        raise DataFormatError("not a JSON object")
    missing = [f for f in _EVENT_FIELDS if f not in rec]
    if missing:
        raise DataFormatError("missing fields %s" % ", ".join(missing))
    for f in _INT_FIELDS:
        if type(rec[f]) is not int:
            raise DataFormatError("%s %r is not a JSON integer" % (f, rec[f]))
    for f in _NUMBER_FIELDS:
        if type(rec[f]) not in (int, float):
            raise DataFormatError("%s %r is not a JSON number" % (f, rec[f]))
    try:  # each field as the type ``Event`` declares
        ev = Event._make(_EVENT_TYPES[f](rec[f]) for f in Event._fields)
    except OverflowError as exc:  # an integer too large for a float field
        raise DataFormatError("malformed field (%s)" % exc) from None
    return str(rec["match_id"]), ev


def _read_json(path: str):
    """The parsed JSON file at ``path``; the caller names it in errors."""
    try:
        with open_input(path) as fh:
            return json.load(fh)
    # JSONDecodeError, bytes that are not UTF-8, an integer too long to
    # convert, or nesting deeper than the recursion limit
    except (ValueError, RecursionError) as exc:
        raise DataFormatError("not valid JSON (%s)" % exc) from None


def save_dataset(dataset: Dataset, out_dir: str) -> None:
    manifest = {
        "vocabulary": list(dataset.vocabulary),
        "matches": [
            {
                "match_id": m.match_id,
                "attack_right_first": list(m.attack_right_first),
                "audio": m.audio,
            }
            for m in dataset.matches
        ],
        "meta": dataset.meta,
    }
    with open_output(os.path.join(out_dir, "dataset.json")) as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    with open_output(os.path.join(out_dir, "events.jsonl")) as fh:
        for m in dataset.matches:
            fh.write("".join([_ENCODER.encode(event_to_record(ev, m.match_id)) + "\n"
                              for ev in m.events]))

    sdir = os.path.join(out_dir, "summaries")
    written = set()
    for match_id, summary in dataset.summaries.items():
        name = "%s.json" % match_id
        with open_output(os.path.join(sdir, name)) as fh:
            fh.write(json.dumps([a.record() for a in summary.actions], indent=2, sort_keys=True)
                     + "\n")
        written.add(name)
    # a summary left by an earlier save into this directory would be read
    # as this dataset's
    for name in os.listdir(sdir) if os.path.isdir(sdir) else ():
        if name.endswith(".json") and name not in written:
            os.remove(os.path.join(sdir, name))


def _read_events(path: str, vocab_set: set) -> dict[str, list[Event]]:
    """The events of an events.jsonl file by match id, in file order.
    Raises ``DataFormatError`` (``VocabularyError`` for a type outside
    ``vocab_set``) naming the first line at fault, for a line that is not
    an event or breaks a rule of one event."""
    events_by_match: dict[str, list[Event]] = {}
    match_id, events = None, []
    # bytes that are not UTF-8 read as U+FFFD, which no field accepts
    with naming("events.jsonl"):
        fh = open_input(path, "r", encoding="utf-8", errors="replace")
    with fh:
        # one ``try`` names the line: a block per line would cost every line
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec, end = _scan_once(line, 0)
                except (StopIteration, ValueError, RecursionError):
                    end = -1
                if end != len(line):  # not one JSON value: json.loads names the fault
                    try:
                        rec = json.loads(line)
                    except (ValueError, RecursionError) as exc:  # as in _read_json
                        raise DataFormatError(str(exc)) from None
                try:
                    fields = _get_fields(rec)
                except (KeyError, TypeError):  # not an object, or a field missing
                    fields = ()
                if [*map(type, fields)] == _PLAIN_TYPES:
                    # nothing to check or convert: ``Event``'s fields follow
                    # ``match_id``, so build it as ``Event._make`` does
                    mid, ev = fields[0], tuple.__new__(Event, fields[1:])
                else:
                    mid, ev = record_to_event(rec)
                _, t, etype, team, _, sx, sy, ex, ey, outcome, _ = ev
                if not 0.0 <= t < math.inf:
                    raise DataFormatError("event time %r is negative or not finite" % t)
                if etype not in vocab_set:
                    raise VocabularyError("event type %r not in vocabulary" % etype)
                if not (0.0 <= sx <= PITCH and 0.0 <= sy <= PITCH
                        and 0.0 <= ex <= PITCH and 0.0 <= ey <= PITCH):
                    raise DataFormatError("sx, sy, ex, ey must each be in [0, %g], got %r, %r, "
                                          "%r, %r" % (PITCH, sx, sy, ex, ey))
                if team not in (0, 1) or outcome not in (0, 1):
                    raise DataFormatError("team and outcome must each be 0 or 1, got %r, %r"
                                          % (team, outcome))
                if mid != match_id:
                    match_id, events = mid, events_by_match.setdefault(mid, [])
                events.append(ev)
        except SoccersumError as exc:
            raise named("events.jsonl line %d" % lineno, exc) from None
    return events_by_match


def load_dataset(path: str) -> Dataset:
    """Read and check a dataset directory.  Any input that breaks the
    layout or a rule above raises ``DataFormatError`` (``VocabularyError``
    for an event type outside the vocabulary) naming the file, line or
    match at fault."""
    manifest_path = os.path.join(path, "dataset.json")
    if not os.path.exists(manifest_path):
        raise DataFormatError("no dataset.json under %r" % path)
    with naming("dataset.json"):
        manifest = _read_json(manifest_path)
        try:
            # each match's events are filled in from events.jsonl below
            dataset = Dataset(tuple(manifest["vocabulary"]), [
                Match(str(e["match_id"]), [], tuple(e.get("attack_right_first", (True, False))),
                      e.get("audio")) for e in manifest["matches"]], meta=manifest.get("meta", {}))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError("malformed manifest (%s: %s)"
                                  % (type(exc).__name__, exc)) from None
        for m in dataset.matches:
            if len(m.attack_right_first) != 2:
                raise DataFormatError("match %r: attack_right_first has %d entries, not one "
                                      "per team" % (m.match_id, len(m.attack_right_first)))

    events_path = os.path.join(path, "events.jsonl")
    if not os.path.exists(events_path):
        raise DataFormatError("no events.jsonl under %r" % path)
    events_by_match = _read_events(events_path, set(dataset.vocabulary))
    for m in dataset.matches:
        m.events = events = events_by_match.get(m.match_id, [])
        if not events:
            raise DataFormatError("match %r has no events (every match needs at least one)"
                                  % m.match_id)
        events.sort(key=lambda e: e.index)
        prev_t = 0.0
        for pos, (index, t) in enumerate(map(_get_index_t, events)):
            if index != pos:
                raise DataFormatError("match %r, event %d: event indices not dense (index %d "
                                      "found there)" % (m.match_id, pos, index))
            if t < prev_t:
                raise DataFormatError("match %r, event %d: event time %r is before the "
                                      "previous event's %r" % (m.match_id, pos, t, prev_t))
            prev_t = t
    extra = sorted(set(events_by_match).difference(dataset.match_ids()))
    if extra:
        raise DataFormatError("events.jsonl has matches absent from manifest: %s" % extra)

    sdir = os.path.join(path, "summaries")
    if os.path.isdir(sdir):
        for name in sorted(os.listdir(sdir)):
            if not name.endswith(".json"):
                continue
            match_id = name[: -len(".json")]
            with naming("summary %r", name):
                n = len(dataset.by_id(match_id).events)
                recs = _read_json(os.path.join(sdir, name))
                if not isinstance(recs, list):
                    raise DataFormatError("top level must be a JSON array")
                dataset.summaries[match_id] = Summary(
                    match_id, [Action.from_record(r, n) for r in recs])
    return dataset
