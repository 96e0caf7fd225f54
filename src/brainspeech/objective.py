"""Contrastive (CLIP-style) objective and the MSE regression baseline.

Scores are plain inner products over both feature and time axes — no
temperature, no per-candidate renormalization — and the loss is the
one-directional cross-entropy of the positive candidate.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .numerics import Tensor, cross_entropy_diagonal, pairwise_inner


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
    return cross_entropy_diagonal(logits)


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
