"""Contrastive (CLIP-style) objective and the MSE regression baseline.

Scores are plain inner products over both feature and time axes — no
temperature, no per-candidate renormalization — and the loss is the
one-directional cross-entropy of the positive candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .numerics import (
    Tensor,
    diagonal,
    inner_product_full,
    logsumexp,
    mean_all,
    mse,
    pairwise_inner,
    reshape,
    sub,
)


@dataclass
class CandidateSet:
    """Candidate feature tensors for one trial plus the positive's index."""

    features: np.ndarray  # (N, F, T)
    positive: int
    origin: str = "eval"  # "batch" at train time, "eval" for the full test set

    def __post_init__(self):
        self.features = np.asarray(self.features)
        if self.features.ndim != 3 or self.features.shape[0] < 2:
            raise ValueError("candidate set needs at least two (F, T) tensors")
        if not (0 <= self.positive < self.features.shape[0]):
            raise ValueError(f"positive index {self.positive} out of range")

    @property
    def n(self) -> int:
        return self.features.shape[0]


def clip_logits(z: Tensor, candidates: CandidateSet) -> Tensor:
    """Score of each candidate: full inner product with one prediction."""
    if z.shape != candidates.features.shape[1:]:
        raise ValueError(
            f"prediction {z.shape} does not match candidates {candidates.features.shape[1:]}"
        )
    scores = pairwise_inner(reshape(z, (1,) + z.shape), Tensor(candidates.features))
    return reshape(scores, (candidates.n,))


def clip_loss_from_logits(logits: Tensor, positive: int) -> Tensor:
    """-score[pos] + logsumexp(scores), max-subtracted for stability."""
    n = logits.shape[0]
    if not (0 <= positive < n):
        raise ValueError(f"positive index {positive} out of range")
    if not np.all(np.isfinite(logits.data)):
        raise ValueError("non-finite logits")
    one_hot = np.zeros(n, dtype=logits.dtype)
    one_hot[positive] = 1.0
    pos = inner_product_full(logits, Tensor(one_hot))
    lse = reshape(logsumexp(reshape(logits, (1, n)), axis=1), ())
    return sub(lse, pos)


def clip_loss(z: Tensor, candidates: CandidateSet) -> Tensor:
    return clip_loss_from_logits(clip_logits(z, candidates), candidates.positive)


def clip_loss_batch(z: Tensor, y: Tensor) -> Tensor:
    """Batch-negatives CLIP loss: row i's positive is candidate i, averaged
    over the batch."""
    if z.shape != y.shape:
        raise ValueError(f"clip_loss_batch: shape mismatch {z.shape} vs {y.shape}")
    if z.shape[0] < 2:
        raise ValueError("batch of one has no negatives")
    logits = pairwise_inner(z, y)
    if not np.all(np.isfinite(logits.data)):
        raise ValueError("non-finite logits")
    return mean_all(sub(logsumexp(logits, axis=1), diagonal(logits)))


def regression_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements."""
    return mse(pred, target)


def batch_negatives(features: np.ndarray) -> List[CandidateSet]:
    """Each sample's candidates are the whole batch; duplicates are kept."""
    features = np.asarray(features)
    if features.shape[0] < 2:
        raise ValueError("batch of one has no negatives")
    return [CandidateSet(features=features, positive=i, origin="batch")
            for i in range(features.shape[0])]


def true_ranks(scores: np.ndarray, true_index: np.ndarray) -> Tuple[np.ndarray, int]:
    """0-based rank of the true candidate per row of ``scores``; ties break
    toward the lowest candidate index. Returns (ranks, number of tied rows)."""
    t = np.arange(scores.shape[0])
    true_s = scores[t, true_index]
    higher = (scores > true_s[:, None]).sum(axis=1)
    eq = scores == true_s[:, None]
    tie_counts = eq.sum(axis=1) - 1  # beyond the true candidate itself
    before = (eq & (np.arange(scores.shape[1])[None, :] < true_index[:, None])).sum(axis=1)
    return higher + before, int((tie_counts > 0).sum())


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - m)
    return e / e.sum(axis=-1, keepdims=True)


def clip_scores_eval(z: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Inner-product logits for evaluation, (trials, N); no graph needed."""
    zf = z.reshape(z.shape[0], -1)
    cf = candidates.reshape(candidates.shape[0], -1)
    return zf @ cf.T


def regression_scores_eval(z: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Regression checkpoints rank candidates by negative mean squared distance."""
    zf = z.reshape(z.shape[0], -1).astype(np.float64)
    cf = candidates.reshape(candidates.shape[0], -1).astype(np.float64)
    sq = (zf**2).sum(1)[:, None] - 2.0 * zf @ cf.T + (cf**2).sum(1)[None, :]
    return -sq / zf.shape[1]
