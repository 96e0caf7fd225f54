"""Dataset preparation: recordings to preprocessed windows and feature targets.

Materialization is lazy per split: :meth:`DataPipeline.materialize` serves a
split's windows together with its targets, each segment's raw target computed
on first use. The access guard records a split before any of its windows or
targets are read, which is how training proves it never touched the test
split.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set

import numpy as np

from . import preprocessing
from .dataset import io as dataset_io
from .dataset.types import SPLITS, Recording, Sample
from .dataset.windows import WORKING_RATE, window_start
from .speech import (
    MEL_HOP,
    REPRESENTATIONS,
    FeatureStats,
    align_feature_rate,
    log_compress,
    mel_spectrogram,
)

logger = logging.getLogger(__name__)


class SplitLeakError(RuntimeError):
    pass


class SplitAccessGuard:
    """Records which splits had windows or targets read."""

    def __init__(self):
        self.reads: Set[str] = set()

    def record(self, split: str) -> None:
        self.reads.add(split)

    def assert_no_test_reads(self) -> None:
        if "test" in self.reads:
            raise SplitLeakError("test-split samples were read during training")


@dataclass
class PreparedSplit:
    x: np.ndarray  # (n, C, W) preprocessed brain windows
    subject_idx: np.ndarray  # (n,)
    candidate_ids: List[int]  # (N,) the split's segment ids, in id order
    candidates: np.ndarray  # (N, F, T) float32 normalized targets
    target_index: np.ndarray  # (n,) each sample's row in ``candidates``


@dataclass
class DataConfig:
    representation: str = "external"  # mel | deep-mel | external
    n_mels: int = 40
    shift_s: float = 0.150
    baseline_s: float = 0.5
    clamp: Optional[float] = 20.0


class DataPipeline:
    """Loads one dataset root and serves preprocessed windows and targets.

    Every window is the manifest's ``window_s`` long and starts
    ``anchor_s`` before its segment's first word onset.
    """

    def __init__(self, root, config: DataConfig,
                 scalers: Optional[Dict[str, preprocessing.ScalerParams]] = None,
                 feature_stats: Optional[FeatureStats] = None):
        self.root = Path(root)
        self.config = config
        if config.representation not in REPRESENTATIONS:
            raise ValueError(f"unknown speech representation {config.representation!r}")
        self.guard = SplitAccessGuard()
        self.manifest = dataset_io.read_manifest(self.root)
        self.splits = dataset_io.read_splits(self.root)
        self.segments, first_onsets = dataset_io.load_segments(self.root, self.manifest)
        self.subjects: List[str] = list(self.manifest["subjects"])
        self.window_s = float(self.manifest["window_s"])
        self.anchor_s = float(self.manifest["anchor_s"])
        self.window_samples = int(round(self.window_s * WORKING_RATE))

        self.recordings: Dict[str, Recording] = {}
        self.positions: Optional[np.ndarray] = None
        for rec_id in first_onsets:  # every recording, in id order
            rec = dataset_io.read_recording(self.root, rec_id, self.manifest)
            if rec.sample_rate != WORKING_RATE:
                rec = Recording(
                    rec.recording_id, rec.subject_id, rec.channel_names, rec.positions,
                    preprocessing.resample(rec.signal, rec.sample_rate, WORKING_RATE),
                    WORKING_RATE,
                )
            if self.positions is None:
                self.positions = rec.positions
            elif not np.array_equal(self.positions, rec.positions):
                raise ValueError(
                    "recordings disagree on sensor positions; mixed layouts are unsupported"
                )
            self.recordings[rec_id] = rec

        self._samples: Dict[str, List[Sample]] = {split: [] for split in SPLITS}
        self._collect_samples(first_onsets)
        self.scalers = scalers if scalers is not None else self._fit_scalers()
        self._raw_targets: Dict[int, np.ndarray] = {}
        if feature_stats is None:
            feature_stats = FeatureStats.fit(
                [self._raw_target(sid) for sid in self.splits.ids_in("train")]
            )
        self.feature_stats = feature_stats

    # -- sample collection ------------------------------------------------

    def _collect_samples(self, first_onsets: Dict[str, Dict[int, float]]) -> None:
        """Each recording's window of each segment it presents, anchored at
        the segment's earliest word onset in that recording."""
        for rec_id in sorted(self.recordings):
            rec = self.recordings[rec_id]
            per_segment = first_onsets[rec_id]
            for sid in sorted(per_segment):
                split = self.splits.split_of(sid)
                if split is None:
                    continue
                start = window_start(rec, sid, per_segment[sid], self.anchor_s,
                                     self.config.shift_s, self.window_samples)
                if start is not None:
                    self._samples[split].append(
                        Sample(rec_id, rec.subject_id, sid, start))

    def _fit_scalers(self) -> Dict[str, preprocessing.ScalerParams]:
        scalers = {}
        for rec_id, rec in self.recordings.items():
            slices = [
                rec.signal[:, s.brain_start : s.brain_start + self.window_samples]
                for s in self._samples["train"]
                if s.recording_id == rec_id
            ]
            if not slices:
                raise ValueError(f"{rec_id}: no training-split samples to fit the scaler")
            try:
                scalers[rec_id] = preprocessing.ScalerParams.fit(np.concatenate(slices, axis=1))
            except preprocessing.DegenerateChannel as exc:
                raise preprocessing.DegenerateChannel(f"{rec_id}: {exc}") from None
        return scalers

    # -- speech targets ----------------------------------------------------

    def segment_mel(self, sid: int) -> np.ndarray:
        """Log-Mel of a segment's audio on the working-rate window grid."""
        audio, rate = dataset_io.read_audio(self.root, sid, self.manifest["audio_rate"])
        mel = log_compress(mel_spectrogram(audio, n_mels=self.config.n_mels, sr=rate))
        return align_feature_rate(mel, rate / MEL_HOP, self.window_s, WORKING_RATE)

    def _raw_target(self, sid: int) -> np.ndarray:
        """A segment's unnormalized target, computed on first use and
        recorded by the guard under the segment's split before it is read."""
        if sid not in self._raw_targets:
            self.guard.record(self.splits.split_of(sid))
            if self.config.representation in ("mel", "deep-mel"):
                raw = self.segment_mel(sid)
            else:
                arr, rate = dataset_io.read_feature_file(self.root, sid)
                raw = align_feature_rate(arr, rate, self.window_s, WORKING_RATE)
            self._raw_targets[sid] = raw
        return self._raw_targets[sid]

    # -- public accessors ---------------------------------------------------

    @property
    def n_subjects(self) -> int:
        return len(self.subjects)

    @property
    def n_channels(self) -> int:
        return int(next(iter(self.recordings.values())).n_channels)

    @property
    def feature_dim(self) -> int:
        return int(self.feature_stats.mean.shape[0])

    def materialize(self, split: str) -> PreparedSplit:
        """Preprocessed brain windows for every sample of a split, with the
        normalized targets of the split's segments they are scored against."""
        self.guard.record(split)
        samples = self._samples[split]
        if not samples:
            raise ValueError(f"no samples in split {split!r}")
        x = np.empty((len(samples), self.n_channels, self.window_samples), dtype=np.float32)
        for i, s in enumerate(samples):
            raw = self.recordings[s.recording_id].signal[
                :, s.brain_start : s.brain_start + self.window_samples
            ]
            x[i] = preprocessing.preprocess_window(
                raw,
                self.scalers[s.recording_id],
                baseline_dur=self.config.baseline_s,
                sample_rate=WORKING_RATE,
                clamp_limit=self.config.clamp,
            )
        ids = self.splits.ids_in(split)
        row_of = {sid: j for j, sid in enumerate(ids)}
        return PreparedSplit(
            x=x,
            subject_idx=np.array([s.subject_id for s in samples], dtype=int),
            candidate_ids=ids,
            candidates=np.stack(
                [self.feature_stats.apply(self._raw_target(sid)).astype(np.float32)
                 for sid in ids]
            ),
            target_index=np.array([row_of[s.segment_id] for s in samples], dtype=int),
        )

    def log_mel(self, sid: int) -> np.ndarray:
        """:meth:`segment_mel` of a segment, for Mel reconstruction.

        The Mel representations reuse the segment's cached raw target; the
        external representation computes it from the audio.
        """
        self.guard.record(self.splits.split_of(sid))
        if self.config.representation in ("mel", "deep-mel"):
            return self._raw_target(sid)
        return self.segment_mel(sid)

    def anchor_word(self, sid: int) -> str:
        w = self.segments[sid].anchor_word(self.anchor_s)
        if w is None:
            raise ValueError(f"segment {sid} lacks a word at +{self.anchor_s}s")
        return w.word

    def train_vocabulary(self) -> Set[str]:
        from .dataset.splits import vocabulary

        words = []
        for sid in self.splits.ids_in("train"):
            words.extend(w.word for w in self.segments[sid].words)
        return vocabulary(words)
