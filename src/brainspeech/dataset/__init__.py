from .types import Recording, Sample, SpeechSegment, SplitAssignment, WordEvent, SPLITS
from .splits import build_splits, normalize_token, vocabulary
from .windows import WindowOutOfBounds, extract_sample, try_extract_sample, WORKING_RATE
from .synthetic import SynthSpec, generate_synthetic, segment_onset
from . import io

__all__ = [
    "Recording",
    "Sample",
    "SpeechSegment",
    "SplitAssignment",
    "SPLITS",
    "SynthSpec",
    "WindowOutOfBounds",
    "WordEvent",
    "WORKING_RATE",
    "build_splits",
    "extract_sample",
    "generate_synthetic",
    "io",
    "normalize_token",
    "segment_onset",
    "try_extract_sample",
    "vocabulary",
]
