"""Feature-rate alignment and train-split standardization."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..dataset.windows import WORKING_RATE


def align_feature_rate(features: np.ndarray, source_rate: float, duration: float,
                       target_rate: float = WORKING_RATE) -> np.ndarray:
    """Linearly interpolate (F, T_src) features onto the window's target grid.

    Source and target frames are treated as uniformly tiling the window, so
    matched grids are an exact identity and linear content stays linear.
    """
    features = np.asarray(features)
    if features.ndim != 2:
        raise ValueError("align_feature_rate expects (F, T)")
    if source_rate <= 0:
        raise ValueError("source rate must be positive")
    t_src = features.shape[1]
    if t_src / source_rate < 0.95 * duration:
        raise ValueError(
            f"feature span {t_src / source_rate:.3f}s shorter than the {duration}s window"
        )
    t_out = int(round(duration * target_rate))
    if t_src == t_out:
        return features.copy()
    src_pos = (np.arange(t_src) + 0.5) * duration / t_src
    out_pos = (np.arange(t_out) + 0.5) * duration / t_out
    out = np.empty((features.shape[0], t_out), dtype=features.dtype)
    for f in range(features.shape[0]):
        out[f] = np.interp(out_pos, src_pos, features[f])
    return out


@dataclass
class FeatureStats:
    """Per-feature mean/std fitted on training segments and frozen."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        bad = np.flatnonzero(self.std <= 0)
        if bad.size:
            raise ValueError(f"zero-variance feature dimension(s): {bad.tolist()}")

    @classmethod
    def fit(cls, features: Sequence[np.ndarray]) -> "FeatureStats":
        stacked = np.concatenate([np.asarray(f) for f in features], axis=1)
        return cls(mean=stacked.mean(axis=1), std=stacked.std(axis=1))

    def apply(self, features: np.ndarray) -> np.ndarray:
        dims = np.shape(features)[0]
        if dims != self.mean.shape[0]:
            raise ValueError(f"features have {dims} dimensions but the feature "
                             f"statistics were fitted on {self.mean.shape[0]}")
        return ((features - self.mean[:, None]) / self.std[:, None]).astype(
            np.asarray(features).dtype
        )

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, obj: dict) -> "FeatureStats":
        return cls(mean=obj["mean"], std=obj["std"])
