"""Segment- and word-level retrieval evaluation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..brain_net import BrainNet
from ..dataset.splits import normalize_token
from ..objective import (
    clip_scores_eval,
    regression_scores_eval,
    softmax_rows,
    true_ranks,
)
from ..pipeline import DataPipeline


@dataclass
class EvalReport:
    """Per-trial probability rows over the candidate segments."""

    probs: np.ndarray  # (trials, N), rows sum to 1
    true_index: np.ndarray  # (trials,)
    candidate_ids: List[int]  # N segment ids in candidate order
    anchor_words: List[str]  # per candidate, normalized
    trial_subjects: np.ndarray  # (trials,)
    duplicate_candidates: List[Tuple[int, int]] = field(default_factory=list)
    ranks: np.ndarray = field(init=False)  # (trials,) 0-based rank of the true candidate
    tie_trials: int = field(init=False)  # trials whose true candidate ties another

    def __post_init__(self):
        sums = self.probs.sum(axis=1)
        if not np.allclose(sums, 1.0, atol=1e-6):
            raise ValueError("probability rows must sum to 1")
        n = self.probs.shape[1]
        if np.any(self.true_index < 0) or np.any(self.true_index >= n):
            raise ValueError("true index out of range")
        self.ranks, self.tie_trials = true_ranks(self.probs, self.true_index)

    @property
    def n_trials(self) -> int:
        return self.probs.shape[0]

    @property
    def n_candidates(self) -> int:
        return self.probs.shape[1]


def _find_duplicates(probs_columns: np.ndarray) -> List[Tuple[int, int]]:
    """Pairs of candidate columns that are bitwise identical (duplicate content)."""
    seen: Dict[bytes, int] = {}
    dups = []
    for j in range(probs_columns.shape[1]):
        key = probs_columns[:, j].tobytes()
        if key in seen:
            dups.append((seen[key], j))
        else:
            seen[key] = j
    return dups


def score_test_set(
    brain: BrainNet,
    pipeline: DataPipeline,
    objective: str = "clip",
    deep_mel: Optional[BrainNet] = None,
    subject_fallback: bool = False,
) -> EvalReport:
    """Probability of every candidate segment for every test trial."""
    data = pipeline.materialize("test")
    cand_feats = data.candidates
    if deep_mel is not None:
        cand_feats = deep_mel.encode(cand_feats, np.zeros(cand_feats.shape[0], dtype=int), None)
    z = brain.encode(data.x, data.subject_idx, pipeline.positions,
                     subject_fallback=subject_fallback)
    if objective == "clip":
        logits = clip_scores_eval(z, cand_feats)
    elif objective == "regression":
        logits = regression_scores_eval(z, cand_feats)
    else:
        raise ValueError(f"unknown objective {objective!r}")
    probs = softmax_rows(logits.astype(np.float64))
    return EvalReport(
        probs=probs,
        true_index=data.target_index,
        candidate_ids=data.candidate_ids,
        anchor_words=[normalize_token(pipeline.anchor_word(sid))
                      for sid in data.candidate_ids],
        trial_subjects=data.subject_idx,
        duplicate_candidates=_find_duplicates(probs),
    )


def topk_accuracy(report: EvalReport, k: int) -> float:
    """Percentage of trials whose true candidate ranks within the top k."""
    if k > report.n_candidates:
        raise ValueError(f"k={k} exceeds {report.n_candidates} candidates")
    return float((report.ranks < k).mean() * 100.0)


def per_subject_topk(report: EvalReport, k: int) -> Dict[int, float]:
    out = {}
    for s in np.unique(report.trial_subjects):
        out[int(s)] = float((report.ranks[report.trial_subjects == s] < k).mean() * 100.0)
    return out


@dataclass
class WordLevelResult:
    word_order: List[str]
    word_probs: np.ndarray  # (trials, W), rows sum to 1
    true_word_index: np.ndarray
    ranks: np.ndarray  # (trials,) 0-based rank of the true word
    top1: float
    top10: float

    def true_word_prob(self) -> np.ndarray:
        return self.word_probs[np.arange(self.word_probs.shape[0]), self.true_word_index]


def word_level_eval(report: EvalReport) -> WordLevelResult:
    """Group candidate probabilities by anchor word and score over words."""
    if any(not w for w in report.anchor_words):
        raise ValueError("every candidate segment needs an anchor word")
    word_order: List[str] = []
    word_of: Dict[str, int] = {}
    for w in report.anchor_words:
        if w not in word_of:
            word_of[w] = len(word_order)
            word_order.append(w)
    group = np.zeros((report.n_candidates, len(word_order)))
    for j, w in enumerate(report.anchor_words):
        group[j, word_of[w]] = 1.0
    word_probs = report.probs @ group
    true_words = np.array([word_of[report.anchor_words[j]] for j in report.true_index])
    ranks, _ = true_ranks(word_probs, true_words)
    k10 = min(10, len(word_order))
    return WordLevelResult(
        word_order=word_order,
        word_probs=word_probs,
        true_word_index=true_words,
        ranks=ranks,
        top1=float((ranks < 1).mean() * 100.0),
        top10=float((ranks < k10).mean() * 100.0),
    )


def restricted_candidates(report: EvalReport, n: int = 50, seed: int = 0) -> dict:
    """Top-k over the true segment plus n-1 seeded distractors per trial."""
    if n < 2:
        raise ValueError("restricted candidate count must be >= 2")
    if n > report.n_candidates:
        raise ValueError(f"n={n} exceeds {report.n_candidates} candidates")
    rng = np.random.default_rng(np.random.SeedSequence([seed, report.n_candidates]))
    hits1 = 0
    hits10 = 0
    for t in range(report.n_trials):
        true = report.true_index[t]
        others = np.delete(np.arange(report.n_candidates), true)
        chosen = rng.choice(others, size=n - 1, replace=False)
        subset = np.concatenate([[true], chosen])
        subset.sort()
        sub_probs = report.probs[t, subset]
        sub_probs = sub_probs / sub_probs.sum()
        true_pos = np.flatnonzero(subset == true)
        rank = true_ranks(sub_probs[None, :], true_pos)[0][0]
        hits1 += rank < 1
        hits10 += rank < min(10, n)
    return {
        "n": n,
        "seed": seed,
        "top1": 100.0 * hits1 / report.n_trials,
        "top10": 100.0 * hits10 / report.n_trials,
    }


def zero_shot_split(wl: WordLevelResult, train_vocab: set) -> dict:
    """Word-level accuracy split by anchor-word presence in the train vocabulary."""
    vocab = {normalize_token(w) for w in train_vocab}
    in_train = np.array(
        [wl.word_order[wi] in vocab for wi in wl.true_word_index]
    )
    out = {}
    k10 = min(10, len(wl.word_order))
    for name, mask in (("in_train", in_train), ("absent", ~in_train)):
        if mask.sum() == 0:
            out[name] = {"n": 0, "top10": None}  # not applicable, not zero
        else:
            out[name] = {
                "n": int(mask.sum()),
                "top10": float((wl.ranks[mask] < k10).mean() * 100.0),
                "top1": float((wl.ranks[mask] < 1).mean() * 100.0),
            }
    out["overall_top10"] = wl.top10
    return out


def mel_reconstruction(report: EvalReport, candidate_mels: np.ndarray) -> np.ndarray:
    """Probability-weighted average of candidate Mel spectrograms per trial."""
    candidate_mels = np.asarray(candidate_mels)
    if candidate_mels.shape[0] != report.n_candidates:
        raise ValueError(
            f"{candidate_mels.shape[0]} candidate Mels for {report.n_candidates} candidates"
        )
    return np.tensordot(report.probs, candidate_mels, axes=(1, 0))

