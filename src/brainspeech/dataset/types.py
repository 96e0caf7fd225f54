"""Core data model: recordings, speech segments, samples, split assignments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

SPLITS = ("train", "valid", "test")


@dataclass
class WordEvent:
    onset: float  # seconds, relative to segment start
    duration: float
    word: str


@dataclass
class RecordingInfo:
    """One participant's recording as its sidecar describes it: sensor
    layout, rate and length, without the signal."""

    recording_id: str
    subject_id: int
    channel_names: List[str]
    positions: np.ndarray  # (C, 2), each coordinate in [0, 1]
    sample_rate: float
    n_channels: int
    n_samples: int  # at ``sample_rate``

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        c, t = self.n_channels, self.n_samples
        if c < 1 or t < 1:
            raise ValueError(f"{self.recording_id}: empty signal {(c, t)}")
        if self.positions.shape != (c, 2):
            raise ValueError(f"{self.recording_id}: positions shape {self.positions.shape} != ({c}, 2)")
        if len(self.channel_names) != c:
            raise ValueError(f"{self.recording_id}: {len(self.channel_names)} names for {c} channels")
        if self.positions.min() < 0.0 or self.positions.max() > 1.0:
            raise ValueError(f"{self.recording_id}: sensor positions must lie in [0, 1]^2")
        if self.sample_rate <= 0:
            raise ValueError(f"{self.recording_id}: sample_rate must be positive")


@dataclass
class Recording(RecordingInfo):
    """One participant's continuous multichannel signal plus sensor layout."""

    signal: np.ndarray  # (n_channels, n_samples)

    def __post_init__(self):
        super().__post_init__()
        self.signal = np.asarray(self.signal)
        if self.signal.shape != (self.n_channels, self.n_samples):
            raise ValueError(f"{self.recording_id}: signal shape {self.signal.shape} != "
                             f"({self.n_channels}, {self.n_samples})")


@dataclass
class SpeechSegment:
    """A unique speech window and its word annotations."""

    segment_id: int
    duration: float = 3.0
    source_start: float = 0.0  # absolute time in the stimulus source
    words: List[WordEvent] = field(default_factory=list)

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError(f"segment {self.segment_id}: duration must be positive")
        for w in self.words:
            if not (0.0 <= w.onset < self.duration):
                raise ValueError(
                    f"segment {self.segment_id}: word onset {w.onset} outside [0, {self.duration})"
                )

    @property
    def source_end(self) -> float:
        return self.source_start + self.duration

    def anchor_word(self, anchor_offset: float, tol: float = 1e-3) -> Optional[WordEvent]:
        """The word starting at ``anchor_offset`` into the segment, if any."""
        for w in self.words:
            if abs(w.onset - anchor_offset) <= tol:
                return w
        return None


@dataclass(frozen=True)
class Sample:
    """An aligned (brain window, speech segment, subject) training triple."""

    recording_id: str
    subject_id: int
    segment_id: int
    brain_start: int  # sample index into the recording at the working rate


@dataclass
class SplitAssignment:
    assignment: Dict[int, str]
    ratios: Tuple[float, float, float]
    seed: int
    excluded: List[int] = field(default_factory=list)

    def split_of(self, segment_id: int) -> Optional[str]:
        return self.assignment.get(segment_id)

    def ids_in(self, split: str) -> List[int]:
        return sorted(k for k, v in self.assignment.items() if v == split)
