from .align import FeatureStats, align_feature_rate
from .mel import (
    AUDIO_RATE,
    MEL_HOP,
    SUPPORTED_N_MELS,
    hz_to_mel,
    log_compress,
    mel_filterbank,
    mel_spectrogram,
    mel_to_hz,
)

REPRESENTATIONS = ("mel", "deep-mel", "external")


__all__ = [
    "AUDIO_RATE",
    "FeatureStats",
    "MEL_HOP",
    "REPRESENTATIONS",
    "SUPPORTED_N_MELS",
    "align_feature_rate",
    "hz_to_mel",
    "log_compress",
    "mel_filterbank",
    "mel_spectrogram",
    "mel_to_hz",
]
