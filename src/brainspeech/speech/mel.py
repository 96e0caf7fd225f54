"""Log-Mel spectrogram front end (HTK mel scale, Hann window)."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

AUDIO_RATE = 16000
MEL_HOP = 128  # STFT hop in audio samples: Mel frames come at rate / MEL_HOP
FMIN = 0.0
FMAX = 8000.0
SUPPORTED_N_MELS = (20, 40, 80, 120)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=16)
def mel_filterbank(n_mels: int, frame: int = 512, sr: int = AUDIO_RATE,
                   fmin: float = FMIN, fmax: float = FMAX) -> np.ndarray:
    """Unit-peak triangular filters, bin-averaged so narrow triangles never
    vanish between FFT bin centers. Min/max frequencies are fixed across
    ``n_mels`` choices.

    Built once per argument set: every caller shares one read-only array.
    """
    n_bins = frame // 2 + 1
    bin_width = sr / frame
    edges = mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2))
    # average each triangle over every bin's frequency interval
    oversample = 16
    grid = (np.arange(n_bins * oversample) + 0.5) / oversample * bin_width - bin_width / 2
    fb = np.zeros((n_mels, n_bins))
    for i in range(n_mels):
        lo, mid, hi = edges[i], edges[i + 1], edges[i + 2]
        rise = (grid - lo) / max(mid - lo, 1e-12)
        fall = (hi - grid) / max(hi - mid, 1e-12)
        tri = np.clip(np.minimum(rise, fall), 0.0, 1.0)
        fb[i] = tri.reshape(n_bins, oversample).mean(axis=1)
    fb.flags.writeable = False
    return fb


def frame_signal(audio: np.ndarray, frame: int, hop: int) -> np.ndarray:
    """Read-only (frames, frame) view of ``audio``, one row every ``hop`` samples."""
    return np.lib.stride_tricks.sliding_window_view(audio, frame)[::hop]


def mel_spectrogram(audio: np.ndarray, n_mels: int = 120, frame: int = 512,
                    hop: int = MEL_HOP, sr: int = AUDIO_RATE) -> np.ndarray:
    """Magnitude STFT (periodic Hann, normalized by 1/frame) through the
    mel filterbank; output is (n_mels, 1 + floor((len - frame) / hop))."""
    audio = np.asarray(audio, dtype=np.float64)
    if audio.ndim != 1:
        raise ValueError("mel_spectrogram expects mono audio")
    if len(audio) < frame:
        raise ValueError(f"audio of {len(audio)} samples shorter than one {frame}-sample frame")
    if sr != AUDIO_RATE:
        raise ValueError(f"audio must be resampled to {AUDIO_RATE} Hz first (got {sr})")
    if n_mels not in SUPPORTED_N_MELS:
        raise ValueError(f"n_mels must be one of {SUPPORTED_N_MELS}")
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(frame) / frame)
    frames = frame_signal(audio, frame, hop) * window
    mag = np.abs(np.fft.rfft(frames, axis=1)) / frame
    fb = mel_filterbank(n_mels, frame, sr)
    return fb @ mag.T


def log_compress(mel: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    mel = np.asarray(mel)
    if np.any(mel < 0):
        raise ValueError("log_compress requires non-negative input")
    return np.log(eps + mel)
