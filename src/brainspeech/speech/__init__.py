from pathlib import Path
from typing import Tuple

import numpy as np

from ..dataset import io as dataset_io
from .align import FeatureStats, align_feature_rate
from .mel import (
    AUDIO_RATE,
    SUPPORTED_N_MELS,
    hz_to_mel,
    log_compress,
    mel_filterbank,
    mel_spectrogram,
    mel_to_hz,
)

REPRESENTATIONS = ("mel", "deep-mel", "external")


def load_external_features(root, segment_id: int) -> Tuple[np.ndarray, float]:
    """Stored (F, T_feat) array and its native rate, validated against the sidecar."""
    return dataset_io.read_feature_file(Path(root), segment_id)


__all__ = [
    "AUDIO_RATE",
    "FeatureStats",
    "REPRESENTATIONS",
    "SUPPORTED_N_MELS",
    "align_feature_rate",
    "hz_to_mel",
    "load_external_features",
    "log_compress",
    "mel_filterbank",
    "mel_spectrogram",
    "mel_to_hz",
]
