"""Dataset preparation: recordings to preprocessed windows and feature targets.

Materialization is lazy per split: :meth:`DataPipeline.materialize` serves a
split's windows together with its targets, each segment's raw target computed
on first use. Only the windows a split reads are resampled and held. The
access guard records a split before any of its windows or targets are read,
which is how training proves it never touched the test split.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set

import numpy as np

from . import preprocessing
from .dataset import io as dataset_io
from .dataset.types import SPLITS, RecordingInfo, Sample
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

    Construction reads every recording's sidecar. A build that fits its
    scalers also reads each recording once, resamples only its train and
    valid windows and holds those raw windows until :meth:`materialize`
    serves them. A build given its scalers reads no signal; any split whose
    windows are not held is read and resampled on :meth:`materialize`.
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

        self.recording_info: Dict[str, RecordingInfo] = {}
        self.positions: Optional[np.ndarray] = None
        for rec_id in first_onsets:  # every recording, in id order
            info = dataset_io.read_recording_info(self.root, rec_id, self.manifest)
            if self.positions is None:
                self.positions = info.positions
            elif not np.array_equal(self.positions, info.positions):
                raise ValueError(
                    "recordings disagree on sensor positions; mixed layouts are unsupported"
                )
            self.recording_info[rec_id] = info

        self._samples: Dict[str, List[Sample]] = {split: [] for split in SPLITS}
        self._collect_samples(first_onsets)
        # each split's raw working-rate windows, held until materialize serves them
        self._windows: Dict[str, List[np.ndarray]] = {}
        if scalers is None:
            self._windows = self._read_windows(("train", "valid"))
            scalers = self._fit_scalers(self._windows["train"])
        self.scalers = scalers
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
        for rec_id, info in self.recording_info.items():
            per_segment = first_onsets[rec_id]
            for sid in sorted(per_segment):
                split = self.splits.split_of(sid)
                if split is None:
                    continue
                start = window_start(info, sid, per_segment[sid], self.anchor_s,
                                     self.config.shift_s, self.window_samples)
                if start is not None:
                    self._samples[split].append(
                        Sample(rec_id, info.subject_id, sid, start))

    def _read_windows(self, splits) -> Dict[str, List[np.ndarray]]:
        """The raw working-rate window of every sample of ``splits``, in
        sample order: each recording that has such a sample is read once and
        only those windows are resampled."""
        windows: Dict[str, List[np.ndarray]] = {}
        wanted: Dict[str, list] = {}
        for split in splits:
            self.guard.record(split)
            windows[split] = [None] * len(self._samples[split])
            for i, s in enumerate(self._samples[split]):
                wanted.setdefault(s.recording_id, []).append((split, i, s.brain_start))
        for rec_id in sorted(wanted):
            rec = dataset_io.read_recording(self.root, rec_id, self.manifest)
            spans = [(start, start + self.window_samples) for _, _, start in wanted[rec_id]]
            if rec.sample_rate == WORKING_RATE:  # no resampling; copies free the recording
                raw = [rec.signal[:, a:b].copy() for a, b in spans]
            else:
                raw = preprocessing.resample(rec.signal, rec.sample_rate, WORKING_RATE, spans)
            del rec  # one whole recording at a time
            for (split, i, _), window in zip(wanted[rec_id], raw):
                windows[split][i] = window
        return windows

    def _fit_scalers(self, train_windows: List[np.ndarray]
                     ) -> Dict[str, preprocessing.ScalerParams]:
        scalers = {}
        for rec_id in self.recording_info:
            slices = [window for window, s in zip(train_windows, self._samples["train"])
                      if s.recording_id == rec_id]
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
        return int(next(iter(self.recording_info.values())).n_channels)

    @property
    def feature_dim(self) -> int:
        return int(self.feature_stats.mean.shape[0])

    def materialize(self, split: str) -> PreparedSplit:
        """Preprocessed brain windows for every sample of a split, with the
        normalized targets of the split's segments they are scored against.
        Held raw windows are served once and freed as they are preprocessed;
        a split without them is read and resampled here."""
        self.guard.record(split)
        samples = self._samples[split]
        if not samples:
            raise ValueError(f"no samples in split {split!r}")
        raw = self._windows.pop(split, None)
        if raw is None:
            raw = self._read_windows((split,))[split]
        x = np.empty((len(samples), self.n_channels, self.window_samples), dtype=np.float32)
        for i, s in enumerate(samples):
            x[i] = preprocessing.preprocess_window(
                raw[i],
                self.scalers[s.recording_id],
                baseline_dur=self.config.baseline_s,
                sample_rate=WORKING_RATE,
                clamp_limit=self.config.clamp,
            )
            raw[i] = None
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
