"""Per-event metadata feature vectors.

Layout (width = 10 + |vocabulary| + Q):

    0..3   sx, sy, ex, ey scaled to [0, 1]
    4      log(1 + seconds since the previous event), 0 for the first
    5..6   start/end distance to the attacking goal, divided by the pitch
           side (100)
    7..8   start/end angle to the attacking goal, radians
    9      outcome flag
    10..   event-type one-hot over the vocabulary
    then   qualifier one-hot over the Q-1 most frequent codes + other bucket
"""
from __future__ import annotations

from collections import Counter

import numpy as np

from ..core import PITCH, Event, Match, VocabularyError, event_columns


def geometry_to_goal(x: float, y: float, goal_x: float, goal_y: float,
                     scale: float = PITCH) -> tuple[float, float]:
    """Distance and angle from a pitch location to a goal center.

    Distance is Euclidean, divided by ``scale``.  Angle is
    atan2(lateral offset, longitudinal distance) in (-pi, pi]; a location
    straight in front of goal gives 0, level with the goal line gives
    +/- pi/2, and the goal center itself gives (0, 0).  Works elementwise
    on arrays of locations and goals.
    """
    dx = np.subtract(x, goal_x)
    dist = np.hypot(dx, np.subtract(y, goal_y)) / scale
    angle = np.arctan2(np.subtract(goal_y, y), np.abs(dx))
    return dist, angle


class QualifierCodebook:
    """One-hot codebook over the most frequent qualifier codes.

    ``dims`` slots total: the dims-1 most frequent codes seen in training
    (ties broken toward the smaller code) plus a final catch-all bucket.
    """

    def __init__(self, codes: list[int], dims: int):
        self.dims = dims
        self.codes = list(codes)
        self._index = {c: i for i, c in enumerate(self.codes)}

    @classmethod
    def from_events(cls, events: list[Event], dims: int) -> "QualifierCodebook":
        counts = Counter(event_columns(events, "qualifier")[0])
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        keep = [code for code, _ in ranked[: dims - 1]]
        return cls(keep, dims)

    def encode(self, qualifier: int) -> int:
        return self._index.get(qualifier, self.dims - 1)

    def to_dict(self) -> dict:
        return {"dims": self.dims, "codes": self.codes}

    @classmethod
    def from_dict(cls, d: dict) -> "QualifierCodebook":
        return cls(d["codes"], d["dims"])


class MetadataEncoder:
    def __init__(self, vocabulary, codebook: QualifierCodebook):
        self.vocabulary = tuple(vocabulary)
        self._type_index = {t: i for i, t in enumerate(self.vocabulary)}
        self.codebook = codebook
        self.width = 10 + len(self.vocabulary) + codebook.dims

    def feature_names(self) -> list[str]:
        names = [
            "sx", "sy", "ex", "ey", "time_elapsed",
            "start_dist", "end_dist", "start_angle", "end_angle", "outcome",
        ]
        names += ["type=%s" % t for t in self.vocabulary]
        names += ["qualifier=%d" % c for c in self.codebook.codes]
        names += ["qualifier=other"]
        return names

    def encode_match(self, match: Match) -> np.ndarray:
        """The (events, width) feature rows of a match, column by column."""
        events = match.events
        n = len(events)
        t, types, teams, sx, sy, ex, ey, outcomes, qualifiers = event_columns(
            events, "t", "type", "team", "sx", "sy", "ex", "ey", "outcome", "qualifier")
        for etype in types:
            if etype not in self._type_index:
                raise VocabularyError("event type %r not in vocabulary" % etype)
        rows = np.arange(n)
        out = np.zeros((n, self.width))
        sx, sy, ex, ey = np.array((sx, sy, ex, ey), dtype=float).reshape(4, n)
        out[:, 0] = sx / PITCH
        out[:, 1] = sy / PITCH
        out[:, 2] = ex / PITCH
        out[:, 3] = ey / PITCH
        # log-squashed so the half-time gap stays a visible marker without
        # swamping the unit-scale features around it
        out[1:, 4] = np.log1p(np.diff(np.array(t, dtype=float)))
        # a team attacks right in the first period when ``attack_right_first``
        # says so; the direction flips after every completed period
        is_end = np.array([etype == "end-period" for etype in types], dtype=bool)
        periods = np.cumsum(is_end) - is_end
        right_first = np.array([match.attack_right_first[team] for team in teams], dtype=bool)
        right = right_first == (periods % 2 == 0)
        gx = np.where(right, PITCH, 0.0)
        gy = PITCH / 2.0
        out[:, 5], out[:, 7] = geometry_to_goal(sx, sy, gx, gy)
        out[:, 6], out[:, 8] = geometry_to_goal(ex, ey, gx, gy)
        out[:, 9] = [float(outcome) for outcome in outcomes]
        out[rows, [10 + self._type_index[etype] for etype in types]] = 1.0
        out[rows, [10 + len(self.vocabulary) + self.codebook.encode(q) for q in qualifiers]] = 1.0
        return out
