from .scoring import (
    EvalReport,
    WordLevelResult,
    mel_reconstruction,
    per_subject_topk,
    restricted_candidates,
    score_test_set,
    topk_accuracy,
    word_level_eval,
    zero_shot_split,
)
from .stats import StatResult, mann_whitney_u, wilcoxon_signed_rank
from .analysis import (
    PredictionAnalysis,
    cross_validated_r,
    pearson_r,
    prediction_analysis,
    ridge_solve,
)

__all__ = [
    "EvalReport",
    "PredictionAnalysis",
    "StatResult",
    "WordLevelResult",
    "cross_validated_r",
    "mann_whitney_u",
    "mel_reconstruction",
    "pearson_r",
    "per_subject_topk",
    "prediction_analysis",
    "restricted_candidates",
    "ridge_solve",
    "score_test_set",
    "topk_accuracy",
    "wilcoxon_signed_rank",
    "word_level_eval",
    "zero_shot_split",
]
