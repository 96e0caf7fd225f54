"""Workload definitions: generated inputs, run configuration and expected sizes.

Every workload is built by ``brainspeech synth`` from the benchmark seed and
runs through the public API only. Sizes are set by the time budget of one
run (about 30-45 s on a 2-core box) and, for ``paper-width``, by memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: Dict[str, object]  # [synth] keys; ``seed`` is added from --seed
    train: Dict[str, Dict[str, object]]  # train.cfg sections (dataset.root is added)
    epochs: int
    updates_per_epoch: int
    trials: int  # test trials the eval must score
    candidates: int  # test candidates per trial
    recon: bool  # run eval with Mel reconstruction
    analyze: bool  # run ``analyze --paired`` after eval
    setup_reps: int  # minimum DataPipeline constructions per run
    eval_reps: int  # minimum eval commands per run
    sizing: str
    min_top1_pct: float = 0.0  # correctness floor on eval top-1 (0 = no floor)

    @property
    def batch_size(self) -> int:
        return int(self.train["training"]["batch_size"])


DESK_MODEL = {"d1": 32, "d2": 32, "harmonics": 8}

WORKLOADS: List[Workload] = [
    Workload(
        name="desk-quickstart",
        why=("README quick-start data and desk model, 3 epochs x 8 updates at B=32: small "
             "tensors, so validation, checkpoints and im2col layout weigh in; zero noise "
             "gates top-1"),
        synth={"subjects": 2, "segments": 200, "channels": 32, "features": 16,
               "noise_std": 0.0, "vocab_size": 50},
        train={"speech": {"representation": "external"},
               "model": dict(DESK_MODEL),
               "training": {"batch_size": 32, "lr": 0.002, "max_epochs": 3,
                            "patience": 100, "updates_per_epoch": 8}},
        epochs=3,
        updates_per_epoch=8,  # 140 train segments x 2 subjects // 32
        trials=40,
        candidates=20,
        recon=False,
        analyze=True,
        min_top1_pct=50.0,  # chance is 1/20 = 5 %
        setup_reps=5,
        eval_reps=7,  # the first 1-3 evals after training run up to 2x slower
        sizing=("README tiny.cfg data unchanged. 3 epochs at lr 2e-3 instead of 40 at "
                "3e-4: 97.5-100 % top-1 on every seed tried, in 20-27 s of training on "
                "a 2-core VM; patience 100 so early stopping never cuts the 24 updates "
                "short. Eval runs with --no-recon so no Mel is computed on this 120 Hz "
                "workload."),
    ),
    Workload(
        name="paper-width",
        why=("paper model on 208 channels, 3 updates at B=8: conv1d GEMMs and the float64 "
             "leak set time and RSS; 16 test trials keep eval's ~100 MB/trial graph "
             "within 7 GB"),
        synth={"subjects": 2, "segments": 32, "channels": 208, "features": 16,
               "noise_std": 0.0, "vocab_size": 50, "ratios": "0.5,0.25,0.25"},
        train={"speech": {"representation": "external"},
               "model": {"d1": 270, "d2": 320, "harmonics": 32, "blocks": 5},
               "training": {"batch_size": 8, "max_epochs": 1, "patience": 100,
                            "updates_per_epoch": 3}},
        epochs=1,
        updates_per_epoch=3,  # of the 4 that 16 train segments x 2 subjects // 8 allow
        trials=16,
        candidates=8,
        recon=False,
        analyze=False,
        setup_reps=5,
        eval_reps=2,
        sizing=("B=8 fits a 7 GB box: the worker peaks at 3.8 GB. 3 updates of about "
                "6 s each with one BLAS thread. The test split is 8 segments x 2 "
                "subjects = 16 trials: eval forwards one chunk holding about 100 MB of "
                "graph per trial, so 16 trials stay near 1.6 GB instead of being "
                "OOM-killed; that cost shows in peak_rss_mb and forward_eval_s."),
    ),
    Workload(
        name="ingest-mel-eval",
        why=("600 Hz, 64 channels, Mel targets, 100 segments (40 candidates, 160 trials), "
             "8 desk updates: resampling, Mel, reads and eval loops and writes dominate"),
        synth={"subjects": 4, "segments": 100, "channels": 64, "features": 16,
               "noise_std": 0.5, "vocab_size": 50, "sample_rate": 600.0,
               "ratios": "0.4,0.2,0.4"},
        train={"speech": {"representation": "mel"},
               "model": dict(DESK_MODEL),
               "training": {"batch_size": 32, "max_epochs": 2, "patience": 100,
                            "updates_per_epoch": 4}},
        epochs=2,
        updates_per_epoch=4,  # 40 train segments x 4 subjects // 32 = 5 >= 4
        trials=160,
        candidates=40,
        recon=True,
        analyze=False,
        setup_reps=2,
        eval_reps=3,
        sizing=("4 subjects x 64 channels at 600 Hz with 100 segments (40 candidates, "
                "160 trials) rather than 400 (160 and 640): at 400 one pipeline build "
                "takes about 14 s and a run builds it at least five times. A desk "
                "model trained for 2 epochs of 4 updates (with 4 updates the 6 s "
                "training spread 14 % between seeds); eval with recon recomputes "
                "every candidate's Mel."),
    ),
]

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}

# Keys every eval report.json must carry.
REPORT_KEYS = (
    "checkpoint", "dataset", "duplicate_candidates", "n_candidates", "n_trials",
    "objective", "per_subject_top10", "restricted", "subject_mean_top10",
    "subject_sem_top10", "tie_trials", "topk", "trial_subjects", "trial_true_index",
    "true_word_prob", "word_level", "zero_shot",
)
