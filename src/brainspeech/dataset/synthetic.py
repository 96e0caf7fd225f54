"""Synthetic dataset generation from a known linear forward model.

Each recording is ``X = A_s . P(Y) + noise`` where ``A_s`` is a fixed
per-subject mixing matrix, ``Y`` the segment's latent feature trajectory
and ``P`` a band-limited temporal smoothing followed by a 150 ms delay.
With zero noise the latents are exactly linearly decodable, which makes
the generated data an oracle for the whole training pipeline. Audio is
synthesized from the same latents (band carriers with latent-driven
envelopes) so Mel-spectrogram targets carry the same information in a
lossier form.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from . import io
from .splits import build_splits
from .types import SPLITS, SpeechSegment, WordEvent
from .windows import WORKING_RATE

RESPONSE_DELAY_S = 0.150


@dataclass
class SynthSpec:
    subjects: int = 2
    segments: int = 200
    channels: int = 32
    features: int = 16
    noise_std: float = 0.0
    seed: int = 0
    vocab_size: int = 50
    heldout_vocab_frac: float = 0.0
    words_per_segment: int = 3
    duration: float = 3.0
    anchor_offset: float = 0.5
    gap: float = 0.5
    sample_rate: float = WORKING_RATE
    audio_rate: int = 16000
    outlier_frac: float = 0.0
    outlier_scale: float = 1000.0
    ratios: Tuple[float, float, float] = (0.7, 0.2, 0.1)
    name: str = "synthetic"

    def validate(self) -> None:
        for key in ("subjects", "segments", "channels", "features", "vocab_size",
                    "words_per_segment"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        if not (0.0 <= self.heldout_vocab_frac < 1.0):
            raise ValueError("heldout_vocab_frac must be in [0, 1)")
        if self.anchor_offset >= self.duration:
            raise ValueError("anchor_offset must fall inside the segment")


def _lowpass_kernel(cutoff_hz: float, rate: float, half: int) -> np.ndarray:
    n = np.arange(-half, half + 1)
    c = 2.0 * cutoff_hz / rate
    h = c * np.sinc(c * n) * np.hanning(2 * half + 1)
    return h / h.sum()


def _band_limited_latents(rng, n_rows: int, n_samples: int, rate: float,
                          cutoff_hz: float = 8.0) -> np.ndarray:
    kernel = _lowpass_kernel(cutoff_hz, rate, half=30)
    pad = len(kernel) // 2
    white = rng.normal(size=(n_rows, n_samples + 2 * pad))
    rows = np.stack([np.convolve(w, kernel, mode="valid") for w in white])
    rows -= rows.mean(axis=1, keepdims=True)
    rows /= rows.std(axis=1, keepdims=True)
    return rows


def _smooth_and_delay(latent: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """The P operator without the delay; the delay is applied at placement."""
    pad = len(kernel) // 2
    padded = np.pad(latent, ((0, 0), (pad, pad)), mode="edge")
    return np.stack([np.convolve(row, kernel, mode="valid") for row in padded])


def _synth_audio(latent: np.ndarray, spec: SynthSpec, phases: np.ndarray) -> np.ndarray:
    n_audio = int(round(spec.duration * spec.audio_rate))
    t = np.arange(n_audio) / spec.audio_rate
    carriers = np.exp(np.linspace(np.log(300.0), np.log(7000.0), spec.features))
    src_t = np.arange(latent.shape[1]) / spec.sample_rate
    audio = np.zeros(n_audio)
    for f in range(spec.features):
        env = 0.55 + 0.4 * np.tanh(0.8 * np.interp(t, src_t, latent[f]))
        audio += env * np.sin(2.0 * np.pi * carriers[f] * t + phases[f])
    peak = np.abs(audio).max()
    if peak > 0:
        audio *= 0.7 / peak
    return audio


def segment_onset(spec: SynthSpec, index: int, lead: float = 1.0) -> float:
    """Absolute onset of a segment in every recording's timeline."""
    return lead + index * (spec.duration + spec.gap)


def generate_synthetic(spec: SynthSpec, out_dir: Path) -> Dict:
    """Write a complete dataset (plus ground truth) under ``out_dir``."""
    spec.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if not out_dir.is_dir():
        raise IOError(f"output directory not writable: {out_dir}")

    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 1]))
    n_win = int(round(spec.duration * spec.sample_rate))
    delay = int(round(RESPONSE_DELAY_S * spec.sample_rate))
    smooth_kernel = np.hanning(9)
    smooth_kernel /= smooth_kernel.sum()

    mixings = rng.normal(size=(spec.subjects, spec.channels, spec.features)) / np.sqrt(
        spec.features
    )
    latents = np.stack(
        [
            _band_limited_latents(rng, spec.features, n_win, spec.sample_rate)
            for _ in range(spec.segments)
        ]
    )
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(spec.segments, spec.features))

    # segment scaffolding and splits; words are assigned after the split draw
    segments = [
        SpeechSegment(
            segment_id=i,
            duration=spec.duration,
            source_start=segment_onset(spec, i),
            words=[WordEvent(onset=spec.anchor_offset, duration=0.25, word="tmp")],
        )
        for i in range(spec.segments)
    ]
    splits = build_splits(segments, ratios=spec.ratios, seed=spec.seed,
                          anchor_offset=spec.anchor_offset)

    vocab = [f"w{i:03d}" for i in range(spec.vocab_size)]
    n_held = int(round(spec.heldout_vocab_frac * spec.vocab_size))
    main_vocab = vocab[: spec.vocab_size - n_held] or vocab
    held_vocab = vocab[spec.vocab_size - n_held :]

    word_step = (spec.duration - spec.anchor_offset - 0.2) / max(spec.words_per_segment, 1)
    segment_words: List[List[WordEvent]] = []
    for seg in segments:
        in_test = splits.split_of(seg.segment_id) == "test"
        if in_test and held_vocab and rng.uniform() < 0.5:
            anchor = held_vocab[rng.integers(len(held_vocab))]
        else:
            anchor = main_vocab[rng.integers(len(main_vocab))]
        words = [WordEvent(onset=spec.anchor_offset, duration=0.25, word=anchor)]
        for j in range(1, spec.words_per_segment):
            words.append(
                WordEvent(
                    onset=spec.anchor_offset + j * word_step,
                    duration=0.25,
                    word=main_vocab[rng.integers(len(main_vocab))],
                )
            )
        segment_words.append(words)

    subjects = [f"s{m:02d}" for m in range(spec.subjects)]
    manifest = {
        "name": spec.name,
        "recording_rate": spec.sample_rate,
        "audio_rate": spec.audio_rate,
        "channels": spec.channels,
        "subjects": subjects,
        "feature_kind": "linear-latent",
        "feature_rate": spec.sample_rate,
        "window_s": spec.duration,
        "anchor_s": spec.anchor_offset,
        "synth": asdict(spec),
    }
    io.write_manifest(out_dir, manifest)
    io.write_splits(out_dir, splits)

    for i in range(spec.segments):
        io.write_feature_file(out_dir, i, latents[i], spec.sample_rate)
        io.write_audio(out_dir, i, _synth_audio(latents[i], spec, phases[i]), spec.audio_rate)

    lead_end = segment_onset(spec, spec.segments - 1) + spec.duration + 1.0
    t_rec = int(round(lead_end * spec.sample_rate))
    positions = rng.uniform(0.05, 0.95, size=(spec.channels, 2))
    channel_names = [f"ch{c:03d}" for c in range(spec.channels)]
    responses = np.stack([_smooth_and_delay(latents[i], smooth_kernel)
                          for i in range(spec.segments)])

    for m, subject in enumerate(subjects):
        signal = np.zeros((spec.channels, t_rec), dtype=np.float64)
        for i in range(spec.segments):
            start = int(round(segment_onset(spec, i) * spec.sample_rate)) + delay
            signal[:, start : start + n_win] += mixings[m] @ responses[i]
        if spec.noise_std > 0:
            signal += spec.noise_std * rng.normal(size=signal.shape)
        if spec.outlier_frac > 0:
            n_out = int(round(spec.outlier_frac * signal.size))
            if n_out:
                idx = rng.choice(signal.size, size=n_out, replace=False)
                burst = spec.outlier_scale * rng.choice([-1.0, 1.0], size=n_out)
                burst *= rng.uniform(0.5, 1.5, size=n_out)
                signal.reshape(-1)[idx] += burst
        rec_id = f"{subject}_r00"
        io.write_recording(out_dir, rec_id, signal.astype(np.float32),
                           spec.sample_rate, channel_names, positions)
        rows = []
        for i in range(spec.segments):
            onset = segment_onset(spec, i)
            for w in segment_words[i]:
                rows.append((onset + w.onset, w.duration, w.word, i))
        io.write_events(out_dir, rec_id, rows)

    truth_dir = out_dir / "truth"
    truth_dir.mkdir(exist_ok=True)
    for m, subject in enumerate(subjects):
        (truth_dir / f"mixing_{subject}.bin").write_bytes(
            np.ascontiguousarray(mixings[m], dtype="<f4").tobytes()
        )
    io.dump_json(
        truth_dir / "meta.json",
        {
            "delay_s": RESPONSE_DELAY_S,
            "smoothing_kernel": [float(v) for v in smooth_kernel],
            "note": "features/<id>.bin hold the ground-truth latents",
        },
    )

    return {
        "root": str(out_dir),
        "segments": spec.segments,
        "subjects": subjects,
        "splits": {s: len(splits.ids_in(s)) for s in SPLITS},
    }
