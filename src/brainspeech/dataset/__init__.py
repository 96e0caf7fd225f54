from .types import (Recording, RecordingInfo, Sample, SpeechSegment, SplitAssignment,
                    WordEvent, SPLITS)
from .splits import build_splits, normalize_token, vocabulary
from .windows import WORKING_RATE, window_start
from .synthetic import SynthSpec, generate_synthetic, segment_onset
from . import io

__all__ = [
    "Recording",
    "RecordingInfo",
    "Sample",
    "SpeechSegment",
    "SplitAssignment",
    "SPLITS",
    "SynthSpec",
    "WordEvent",
    "WORKING_RATE",
    "build_splits",
    "generate_synthetic",
    "io",
    "normalize_token",
    "segment_onset",
    "vocabulary",
    "window_start",
]
