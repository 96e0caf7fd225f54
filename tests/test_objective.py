"""CLIP objective tests.

The per-trial CLIP path below (one prediction against a candidate set, in
plain numpy, with its analytic gradient) is an independent oracle for
``clip_loss_batch``: the batch loss must equal the mean of per-trial losses,
and its gradient the mean of per-trial gradients.
"""

import math
from dataclasses import dataclass
from typing import List

import numpy as np
import pytest

from brainspeech.numerics import Tensor, mse
from brainspeech.objective import (
    clip_loss_batch,
    clip_scores_eval,
    regression_scores_eval,
    softmax_rows,
    true_ranks,
)

from gradcheck import grad_check


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


def clip_logits(z: np.ndarray, candidates: CandidateSet) -> np.ndarray:
    """Score of each candidate: full inner product with one prediction."""
    if z.shape != candidates.features.shape[1:]:
        raise ValueError(
            f"prediction {z.shape} does not match candidates {candidates.features.shape[1:]}"
        )
    return np.einsum("ft,nft->n", z, candidates.features)


def clip_loss_from_logits(logits: np.ndarray, positive: int) -> float:
    """-score[pos] + logsumexp(scores), max-subtracted for stability."""
    n = logits.shape[0]
    if not (0 <= positive < n):
        raise ValueError(f"positive index {positive} out of range")
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite logits")
    m = logits.max()
    return float(m + np.log(np.exp(logits - m).sum()) - logits[positive])


def clip_loss(z: np.ndarray, candidates: CandidateSet) -> float:
    return clip_loss_from_logits(clip_logits(z, candidates), candidates.positive)


def clip_loss_grad(z: np.ndarray, candidates: CandidateSet) -> np.ndarray:
    """d loss / d z = sum_j p_j Y_j - Y_pos, with p the softmax of the scores."""
    probs = softmax_rows(clip_logits(z, candidates))
    return (np.einsum("j,jft->ft", probs, candidates.features)
            - candidates.features[candidates.positive])


def batch_negatives(features: np.ndarray) -> List[CandidateSet]:
    """Each sample's candidates are the whole batch; duplicates are kept."""
    features = np.asarray(features)
    if features.shape[0] < 2:
        raise ValueError("batch of one has no negatives")
    return [CandidateSet(features=features, positive=i, origin="batch")
            for i in range(features.shape[0])]


def cross_entropy_oracle(logits, positive):
    """Direct softmax + negative log (no max subtraction)."""
    p = np.exp(logits) / np.exp(logits).sum()
    return -math.log(p[positive])


class TestClipLogits:
    def test_self_candidate_scores_squared_norm(self):
        z = np.zeros((2, 4))
        z[0, 0] = 2.0
        others = np.zeros((2, 2, 4))
        others[0, 1, 1] = 1.0  # orthogonal to z
        cands = CandidateSet(features=np.concatenate([z[None], others]), positive=0)
        scores = clip_logits(z, cands)
        assert scores[0] == pytest.approx((z**2).sum())
        assert scores[1] == pytest.approx(0.0)

    def test_identical_candidates_uniform(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(2, 5))
        cands = CandidateSet(features=np.stack([z] * 4), positive=2)
        probs = softmax_rows(clip_logits(z, cands))
        np.testing.assert_allclose(probs, 0.25, atol=1e-7)

    def test_two_candidate_closed_form(self):
        # engineered scores (0, ln 3) -> probabilities (0.25, 0.75)
        probs = softmax_rows(np.array([0.0, math.log(3.0)]))
        np.testing.assert_allclose(probs, [0.25, 0.75], atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            clip_logits(np.zeros((2, 3)), CandidateSet(np.zeros((2, 2, 4)), 0))


class TestClipLoss:
    def test_uniform_logits_log_n(self):
        for n in (2, 7, 31):
            loss = clip_loss_from_logits(np.zeros(n), 0)
            assert loss == pytest.approx(math.log(n), abs=1e-12)

    def test_saturated_positive_goes_to_zero(self):
        logits = np.zeros(5)
        logits[3] = 200.0
        assert clip_loss_from_logits(logits, 3) < 1e-12

    def test_matches_cross_entropy_oracle(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=9)
        got = clip_loss_from_logits(logits, 4)
        assert got == pytest.approx(cross_entropy_oracle(logits, 4), abs=1e-10)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            logits = rng.normal(scale=5.0, size=rng.integers(2, 12))
            pos = int(rng.integers(logits.size))
            assert clip_loss_from_logits(logits, pos) >= 0.0

    def test_non_finite_logits_rejected(self):
        with pytest.raises(ValueError):
            clip_loss_from_logits(np.array([1.0, np.inf]), 0)

    def test_gradient_wrt_z_analytic_form(self):
        # the batch loss's gradient for row i is the mean of the per-trial
        # analytic gradients, sum_j p_ij Y_j - Y_i, over the batch
        rng = np.random.default_rng(3)
        z_np = rng.normal(size=(5, 3, 6))
        y = rng.normal(size=(5, 3, 6))
        z = Tensor(z_np, requires_grad=True)
        clip_loss_batch(z, Tensor(y)).backward()
        want = np.stack([clip_loss_grad(z_np[i], CandidateSet(features=y, positive=i))
                         for i in range(5)]) / 5
        np.testing.assert_allclose(z.grad, want, atol=1e-12)

    def test_grad_check_wrt_z(self):
        # the oracle's analytic gradient against central differences of its loss
        rng = np.random.default_rng(4)
        z = rng.normal(size=(2, 5))
        cands = CandidateSet(features=rng.normal(size=(4, 2, 5)), positive=1)
        h = 1e-6
        fd = np.zeros_like(z)
        for idx in np.ndindex(z.shape):
            step = np.zeros_like(z)
            step[idx] = h
            fd[idx] = (clip_loss(z + step, cands) - clip_loss(z - step, cands)) / (2 * h)
        np.testing.assert_allclose(clip_loss_grad(z, cands), fd, atol=1e-8)

    def test_batch_loss_grad_check_both_sides(self):
        rng = np.random.default_rng(5)
        z = Tensor(rng.normal(size=(3, 2, 4)))
        y = Tensor(rng.normal(size=(3, 2, 4)))
        assert grad_check(clip_loss_batch, [z, y]) < 1e-4

    def test_batch_matches_per_sample(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(4, 2, 5))
        y = rng.normal(size=(4, 2, 5))
        batch = clip_loss_batch(Tensor(z), Tensor(y)).item()
        singles = [
            clip_loss(z[i], CandidateSet(features=y, positive=i))
            for i in range(4)
        ]
        assert batch == pytest.approx(np.mean(singles), abs=1e-9)

    def test_batch_of_two_symmetric_binary(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(2, 2, 3))
        y = rng.normal(size=(2, 2, 3))
        got = clip_loss_batch(Tensor(z), Tensor(y)).item()
        logits = clip_scores_eval(z, y)
        want = np.mean([cross_entropy_oracle(logits[i], i) for i in range(2)])
        assert got == pytest.approx(want, abs=1e-10)


class TestRegressionLoss:
    def test_perfect(self):
        x = np.random.default_rng(8).normal(size=(3, 4))
        assert mse(Tensor(x), Tensor(x.copy())).item() == 0.0

    def test_offset_one(self):
        x = np.random.default_rng(9).normal(size=(3, 4))
        assert mse(Tensor(x + 1), Tensor(x)).item() == pytest.approx(1.0)

    def test_regression_eval_ranks_by_distance(self):
        rng = np.random.default_rng(10)
        cands = rng.normal(size=(6, 2, 5))
        z = cands[3] + 0.01 * rng.normal(size=(2, 5))
        scores = regression_scores_eval(z[None], cands)[0]
        assert scores.argmax() == 3


class TestBatchNegatives:
    def test_candidate_sets_cover_batch(self):
        feats = np.random.default_rng(11).normal(size=(8, 2, 4))
        sets = batch_negatives(feats)
        assert len(sets) == 8
        for i, cs in enumerate(sets):
            assert cs.positive == i
            assert cs.n == 8
            assert cs.origin == "batch"

    def test_duplicates_kept(self):
        feats = np.zeros((4, 1, 2))
        sets = batch_negatives(feats)
        assert all(cs.n == 4 for cs in sets)

    def test_batch_of_one_rejected(self):
        with pytest.raises(ValueError):
            batch_negatives(np.zeros((1, 2, 3)))


def test_probability_rows_normalized():
    rng = np.random.default_rng(12)
    probs = softmax_rows(rng.normal(size=(20, 11)))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_shift_invariance_of_probabilities():
    rng = np.random.default_rng(13)
    logits = rng.normal(size=(5, 9))
    np.testing.assert_allclose(
        softmax_rows(logits), softmax_rows(logits + 123.4), atol=1e-7
    )
    assert np.array_equal(logits.argmax(1), (logits + 123.4).argmax(1))


def test_true_ranks_tied_row_breaks_toward_lower_index():
    scores = np.array([[0.5, 2.0, 2.0, 2.0, 1.0],
                       [3.0, 1.0, 2.0, 0.0, 4.0]])
    ranks, ties = true_ranks(scores, np.array([2, 2]))
    # row 0: candidate 1 ties with the true candidate 2 and comes first
    assert ranks.tolist() == [1, 2]
    assert ties == 1
    assert true_ranks(scores[:1], np.array([1]))[0].tolist() == [0]
    assert true_ranks(scores[:1], np.array([3]))[0].tolist() == [2]
