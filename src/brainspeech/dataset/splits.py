"""Split construction and vocabulary bookkeeping."""

from __future__ import annotations

import string
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

from .types import SPLITS, SpeechSegment, SplitAssignment

_PUNCT = string.punctuation + "‘’“”"


def normalize_token(word: str) -> str:
    """Lowercase and strip leading/trailing punctuation."""
    return word.strip().strip(_PUNCT).lower()


def build_splits(
    segments: Sequence[SpeechSegment],
    ratios: Tuple[float, float, float] = (0.7, 0.2, 0.1),
    seed: int = 0,
    anchor_offset: float = 0.5,
) -> SplitAssignment:
    """Assign every unique segment to train/valid/test.

    Repeated presentations of one segment id share one split. Segments whose
    source-time spans overlap a retained segment of a higher-priority split
    (train > valid > test) are excluded entirely, so retained segments of
    different splits never overlap in source time.
    """
    if not segments:
        raise ValueError("build_splits: empty segment list")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"build_splits: ratios {ratios} do not sum to 1")

    unique: Dict[int, SpeechSegment] = {}
    for seg in segments:
        prev = unique.get(seg.segment_id)
        if prev is not None:
            if (prev.source_start, prev.duration) != (seg.source_start, seg.duration):
                raise ValueError(
                    f"segment {seg.segment_id}: repeated presentations disagree on source span"
                )
            continue
        unique[seg.segment_id] = seg

    ids = sorted(unique)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    order = [ids[i] for i in rng.permutation(len(ids))]
    n = len(order)
    n_train = int(round(ratios[0] * n))
    n_valid = int(round((ratios[0] + ratios[1]) * n)) - n_train
    assignment: Dict[int, str] = {}
    for i, sid in enumerate(order):
        if i < n_train:
            assignment[sid] = "train"
        elif i < n_train + n_valid:
            assignment[sid] = "valid"
        else:
            assignment[sid] = "test"

    # drop lower-priority segments that overlap a retained higher-priority one
    excluded: List[int] = []
    kept_spans: List[Tuple[float, float]] = []
    for split in SPLITS:
        tier = [sid for sid in ids if assignment.get(sid) == split]
        new_spans = []
        for sid in tier:
            seg = unique[sid]
            span = (seg.source_start, seg.source_end)
            if any(span[0] < e and s < span[1] for s, e in kept_spans):
                del assignment[sid]
                excluded.append(sid)
            else:
                new_spans.append(span)
        kept_spans.extend(new_spans)

    for sid, split in assignment.items():
        seg = unique[sid]
        if split == "test" and seg.words and seg.anchor_word(anchor_offset) is None:
            raise ValueError(
                f"segment {sid}: assigned to test but has no word at +{anchor_offset}s"
            )

    return SplitAssignment(assignment=assignment, ratios=tuple(ratios), seed=seed,
                           excluded=sorted(excluded))


def vocabulary(words: Iterable[str]) -> Set[str]:
    return {normalize_token(w) for w in words if normalize_token(w)}

