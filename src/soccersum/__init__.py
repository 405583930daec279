"""Soccer match summarization from event metadata and stadium audio.

Three-stage pipeline: a sequential multiple-instance model proposes candidate
actions from the event stream, a hierarchical multimodal attention network
scores each proposal for summary worthiness, and a Plackett-Luce sampler turns
the scores into several alternative summaries under a duration budget.
"""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    DEFAULT_EVENT_TYPES,
    SUMMARY_ACTION_TYPES,
    Action,
    Event,
    Match,
    PaddingConfig,
    Summary,
    action_duration,
    action_type,
)
