from .audio import (  # noqa: F401
    AUDIO_DIM,
    AUDIO_FEATURE_NAMES,
    extract_event_audio_features,
    frame_signal,
    load_audio,
    magnitude_spectrum,
    mel_filterbank,
    mfcc,
    window_features,
)
from .metadata import (  # noqa: F401
    MetadataEncoder,
    QualifierCodebook,
    geometry_to_goal,
)
