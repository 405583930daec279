"""Domain model: events, matches, actions, summaries.

An event is one annotated touch/decision in a match (pass, shot, foul, ...).
A match is a dense, chronologically ordered list of events plus an optional
audio track reference.  An action is a contiguous run of events; a summary is
a set of actions chosen to be shown to a viewer.
"""
from __future__ import annotations

import operator
import os
from dataclasses import dataclass, field
from typing import NamedTuple

# Default event-type vocabulary.  Datasets may carry their own vocabulary;
# everything downstream treats the vocabulary as opaque ordered names.
DEFAULT_EVENT_TYPES: tuple[str, ...] = (
    "pass",
    "tackle",
    "out",
    "interception",
    "shot",
    "goal-shot",
    "corner-shot",
    "save",
    "foul",
    "card",
    "free-kick",
    "kick-off",
    "substitution",
    "clearance",
    "start-period",
    "end-period",
    "other",
)

# The ten action categories a summary clip can be labeled with, ordered by
# priority: when an action contains events mapping to several categories the
# highest-priority one wins.
SUMMARY_ACTION_TYPES: tuple[str, ...] = (
    "goal",
    "var",
    "save",
    "shot",
    "free-kick",
    "corner",
    "foul",
    "start-period",
    "end-period",
    "other",
)

# event type -> summary action category (anything absent maps to "other")
_EVENT_TO_ACTION_TYPE: dict[str, str] = {
    "goal-shot": "goal",
    "var": "var",
    "save": "save",
    "shot": "shot",
    "free-kick": "free-kick",
    "corner-shot": "corner",
    "foul": "foul",
    "card": "foul",
    "start-period": "start-period",
    "end-period": "end-period",
}


class SoccersumError(Exception):
    """Base class for errors raised by this package."""


class VocabularyError(SoccersumError):
    """An event type is not part of the active vocabulary."""


class DataFormatError(SoccersumError):
    """A dataset file violates the documented schema."""


class ShapeError(SoccersumError):
    """Arrays passed to a model have inconsistent shapes."""


class TrainingError(SoccersumError):
    """Training cannot proceed (bad labels, non-finite gradients, ...)."""


class ConfigError(SoccersumError):
    """A configuration file or key is invalid."""


def named(where: str, exc: SoccersumError) -> SoccersumError:
    """``exc`` as its own type, led by ``where: ``; ``naming`` for a hot loop."""
    return type(exc)("%s: %s" % (where, exc))


class naming:
    """``with naming(where, *args):`` re-raises a ``SoccersumError`` from the
    block as ``named(where % args, exc)``: the code that reads an input (a
    file, line, match or event) names it once, and each rule states only
    its fault.  Blocks nest ("file: match: fault"); ``where % args`` is
    formatted only when an error passes."""

    def __init__(self, where: str, *args):
        self.where, self.args = where, args

    def __enter__(self) -> None:
        return None

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, SoccersumError):
            raise named(self.where % self.args if self.args else self.where, exc) from None


def open_input(path: str, mode: str = "rb", error: type = DataFormatError, **kwargs):
    """``open(path, mode, **kwargs)``; an ``OSError`` is an ``error``
    "cannot read (<strerror>)", which the caller names."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise error("cannot read (%s)" % exc.strerror) from None


def open_output(path: str, mode: str = "w"):
    """``path`` opened to write once its directory is made; an ``OSError``
    is a ``SoccersumError`` "<path>: cannot write (<strerror>)"."""
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        return open(path, mode)
    except OSError as exc:
        raise named(path, SoccersumError("cannot write (%s)" % exc.strerror)) from None


# side of the square pitch every event coordinate lies on; the goals sit at
# mid-height on its left and right edges
PITCH = 100.0


class Event(NamedTuple):
    """One annotated match event.

    Coordinates live on a ``PITCH`` x ``PITCH`` square with (0, 0) the
    bottom-left corner.
    ``team`` is 0 or 1, ``outcome`` is 1 for a successful event, ``qualifier``
    is a small opaque annotation code.

    A named tuple (building one costs a quarter of a frozen dataclass):
    immutable and hashable, and also a plain tuple of its fields in this
    order, so it equals that tuple, sorts field by field and unpacks.  An
    attribute read costs about three times an item read; loops over many
    events read columns (``event_columns``).
    """

    index: int
    t: float
    type: str
    team: int
    player: int
    sx: float
    sy: float
    ex: float
    ey: float
    outcome: int
    qualifier: int


def event_columns(events: list[Event], *names: str) -> list[tuple]:
    """The ``Event`` fields ``names`` of every event, one tuple per name.

    One field is one pass over the events; several transpose all fields at
    once, which costs about three one-field passes.
    """
    if len(names) == 1:
        return [tuple(map(operator.itemgetter(Event._fields.index(names[0])), events))]
    columns = list(zip(*events)) or [()] * len(Event._fields)
    return [columns[Event._fields.index(name)] for name in names]


@dataclass
class Match:
    """A match: dense ordered events plus audio/side information.

    ``attack_right_first`` says, per team, whether that team attacks the
    right-hand goal (x = 100) during the first period.  Directions swap each
    period.  ``audio`` (see ``synth.resolve_audio``) is None, a ``.wav``
    path, ``{"file": path, "rate": r}`` (the one form that gives a raw
    ``.f32``/``.raw`` file its rate) or ``{"synth": spec}``, a synth track.
    """

    match_id: str
    events: list[Event]
    attack_right_first: tuple[bool, bool] = (True, False)
    audio: object = None

    def type_sequence(self) -> tuple[str, ...]:
        return event_columns(self.events, "type")[0]


@dataclass(frozen=True)
class Action:
    """A contiguous run of events, [start_index, end_index] inclusive, with
    its summary category; ``record`` and ``from_record`` are its JSON form."""

    start_index: int
    end_index: int
    type: str = "other"

    def __post_init__(self):
        if self.end_index < self.start_index:
            raise ValueError("action end_index %d < start_index %d"
                             % (self.end_index, self.start_index))

    def record(self) -> dict:
        return {"start_index": self.start_index, "end_index": self.end_index, "type": self.type}

    @classmethod
    def from_record(cls, rec, n_events: int) -> Action:
        """The action of a parsed JSON record in a match of ``n_events``
        events: JSON-integer indices with 0 <= start_index <= end_index <
        ``n_events``, and a type in ``SUMMARY_ACTION_TYPES``.  Raises
        ``DataFormatError`` naming the record and the field at fault."""
        if not isinstance(rec, dict):
            raise DataFormatError("action %r is not a JSON object" % (rec,))
        for f in ("start_index", "end_index", "type"):
            if f not in rec:
                raise DataFormatError("action %r: %s is missing" % (rec, f))
        start, end, kind = rec["start_index"], rec["end_index"], rec["type"]
        for f, v in (("start_index", start), ("end_index", end)):
            if type(v) is not int:
                raise DataFormatError("action %r: %s %r is not a JSON integer" % (rec, f, v))
        for f, broken, fault in (
                ("start_index", start < 0, "is negative"),
                ("end_index", end < start, "is before start_index %d" % start),
                ("end_index", end >= n_events, "is past the last event %d" % (n_events - 1)),
                ("type", kind not in SUMMARY_ACTION_TYPES, "is not a summary action type")):
            if broken:
                raise DataFormatError("action %r: %s %r %s" % (rec, f, rec[f], fault))
        return cls(start, end, kind)


@dataclass
class Summary:
    """A set of actions selected from one match, chronological order."""

    match_id: str
    actions: list[Action] = field(default_factory=list)

    def total_duration(self, match: Match, padding: "PaddingConfig") -> float:
        return sum(action_duration(a, match, padding) for a in self.actions)


@dataclass(frozen=True)
class PaddingConfig:
    """Seconds of context added around an action when cut into a clip."""

    pre: float
    post: float


def action_type(action: Action, match: Match) -> str:
    """Summary category of an action: highest-priority category among the
    categories its events map to; ``other`` when none maps."""
    present = set()
    for idx in range(action.start_index, action.end_index + 1):
        ev_type = match.events[idx].type
        mapped = _EVENT_TO_ACTION_TYPE.get(ev_type)
        if mapped is not None:
            present.add(mapped)
    for cat in SUMMARY_ACTION_TYPES:
        if cat in present:
            return cat
    return "other"


def action_duration(action: Action, match: Match, padding: PaddingConfig) -> float:
    """Clip length in seconds: event span plus pre/post context padding."""
    t0 = match.events[action.start_index].t
    t1 = match.events[action.end_index].t
    return (t1 - t0) + padding.pre + padding.post
