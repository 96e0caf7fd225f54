"""Training loop: epochs of capped update counts, early stopping on the
validation loss with patience, best-checkpoint selection."""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from .brain_net import BrainNet, BrainNetConfig, build_ablation, deep_mel_config
from .checkpoint import save_checkpoint
from .config import Config
from .numerics import AdamState, NonFiniteGradient, Tensor, adam_step, mse
from .objective import (
    clip_loss_batch,
    clip_scores_eval,
    regression_scores_eval,
    true_ranks,
)
from .pipeline import DataConfig, DataPipeline, PreparedSplit

logger = logging.getLogger(__name__)

HISTORY_HEADER = ["epoch", "train_loss", "valid_loss", "valid_top10"]


class TrainingAborted(RuntimeError):
    """Raised on non-finite loss/gradients; the last good checkpoint stays on disk."""


class EarlyStopper:
    """Stop when the validation loss has not strictly improved for
    ``patience`` consecutive epochs; remembers the best epoch."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = np.inf
        self.best_epoch = -1
        self.since_improvement = 0

    def update(self, epoch: int, loss: float) -> bool:
        """Record one epoch; returns True when the loss improved."""
        if loss < self.best:
            self.best = loss
            self.best_epoch = epoch
            self.since_improvement = 0
            return True
        self.since_improvement += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.since_improvement >= self.patience


@dataclass
class TrainResult:
    best_epoch: int
    best_valid_loss: float
    epochs_run: int
    history: List[dict]
    checkpoint_dir: Path


def make_batches(n_samples: int, batch_size: int, seed: int, epoch: int,
                 updates: int) -> List[np.ndarray]:
    """Per-epoch shuffled batches; short tails are dropped and the pool is
    re-shuffled and cycled when ``updates`` exceeds one pass."""
    if batch_size < 2:
        raise ValueError("batch_size must be >= 2")
    if n_samples < batch_size:
        raise ValueError(f"{n_samples} samples cannot fill one batch of {batch_size}")
    batches: List[np.ndarray] = []
    cycle = 0
    while len(batches) < updates:
        rng = np.random.default_rng(np.random.SeedSequence([seed, epoch, cycle]))
        perm = rng.permutation(n_samples)
        for i in range(n_samples // batch_size):
            batches.append(perm[i * batch_size : (i + 1) * batch_size])
            if len(batches) == updates:
                break
        cycle += 1
    return batches


def data_config_from(config: Config) -> DataConfig:
    return DataConfig(
        representation=config.speech.representation,
        n_mels=config.speech.n_mels,
        shift_s=config.dataset.shift_s,
        baseline_s=config.preprocessing.baseline_s,
        clamp=config.preprocessing.clamp,
    )


def brain_config_from(config: Config, n_channels: int, n_subjects: int,
                      out_features: int) -> BrainNetConfig:
    bc = BrainNetConfig(
        in_channels=n_channels,
        out_features=out_features,
        n_subjects=n_subjects,
        d1=config.model.d1,
        d2=config.model.d2,
        blocks=config.model.blocks,
        kernel=config.model.kernel,
        harmonics=config.model.harmonics,
        drop_radius=config.model.drop_radius,
        pos_margin=config.model.pos_margin,
    )
    if config.model.ablation != "none":
        bc = build_ablation(bc, config.model.ablation)
    return bc


def build_models(config: Config, pipeline: DataPipeline):
    rep = config.speech.representation
    out_features = (
        config.speech.deep_mel_dim if rep == "deep-mel" else pipeline.feature_dim
    )
    bc = brain_config_from(config, pipeline.n_channels, pipeline.n_subjects, out_features)
    seed = config.training.seed
    brain = BrainNet(bc, np.random.default_rng(np.random.SeedSequence([seed, 10])))
    deep_mel = None
    if rep == "deep-mel":
        dm_cfg = deep_mel_config(config.speech.n_mels, out_features, bc)
        deep_mel = BrainNet(dm_cfg, np.random.default_rng(np.random.SeedSequence([seed, 11])),
                            prefix="deepmel.")
    return brain, deep_mel


def validate(brain: BrainNet, deep_mel: Optional[BrainNet], data: PreparedSplit,
             positions: np.ndarray, objective: str, batch_size: int) -> Tuple[float, float]:
    """Validation loss and top-10 of one split. The loss is the per-chunk
    training loss over chunks of ``batch_size`` windows, weighted by chunk
    size; top-10 is the share of windows whose target ranks below 10 among
    all the split's candidates, under eval's tie rule."""
    z = brain.encode(data.x, data.subject_idx, positions)
    y = data.candidates
    if deep_mel is not None:
        y = deep_mel.encode(y, np.zeros(y.shape[0], dtype=int), None)
    n = z.shape[0]
    losses, weights = [], []
    for start in range(0, n, batch_size):
        rows = np.arange(start, min(start + batch_size, n))
        if start and rows.size < 2:
            break  # a one-window tail has no negatives
        zc, yc = Tensor(z[rows]), Tensor(y[data.target_index[rows]])
        loss = clip_loss_batch(zc, yc) if objective == "clip" else mse(zc, yc)
        losses.append(loss.item())
        weights.append(rows.size)
    scores = (clip_scores_eval if objective == "clip" else regression_scores_eval)(z, y)
    rank, _ = true_ranks(scores, data.target_index)
    return float(np.average(losses, weights=weights)), float((rank < 10).mean())


def train(config: Config, out_dir, pipeline: Optional[DataPipeline] = None) -> TrainResult:
    config.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if pipeline is None:
        pipeline = DataPipeline(config.dataset.root, data_config_from(config))

    tc = config.training
    brain, deep_mel = build_models(config, pipeline)
    params = brain.parameters() + (deep_mel.parameters() if deep_mel else [])
    adam = AdamState(params, lr=tc.lr)

    train_data = pipeline.materialize("train")
    valid_data = pipeline.materialize("valid")
    positions = pipeline.positions
    n_train = train_data.x.shape[0]
    updates_per_epoch = min(tc.updates_per_epoch, max(n_train // tc.batch_size, 1))

    ckpt_dir = out_dir / "best"
    history: List[dict] = []
    stopper = EarlyStopper(tc.patience)

    def write_history() -> None:
        with open(out_dir / "history.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(HISTORY_HEADER)
            for row in history:
                writer.writerow(
                    [row["epoch"], f"{row['train_loss']:.8f}",
                     f"{row['valid_loss']:.8f}", f"{row['valid_top10']:.6f}"]
                )

    epoch = 0
    try:
        for epoch in range(1, tc.max_epochs + 1):
            drop_rng = np.random.default_rng(np.random.SeedSequence([tc.seed, epoch, 1]))
            batch_losses = []
            for batch in make_batches(n_train, tc.batch_size, tc.seed, epoch,
                                      updates_per_epoch):
                for p in params:
                    p.zero_grad()
                z = brain.forward(Tensor(train_data.x[batch]),
                                  train_data.subject_idx[batch], positions,
                                  training=True, rng=drop_rng)
                targets = train_data.candidates[train_data.target_index[batch]]
                y = Tensor(targets)
                if deep_mel is not None:
                    y = deep_mel.forward(y, np.zeros(len(batch), dtype=int), None,
                                         training=True)
                loss = clip_loss_batch(z, y) if tc.objective == "clip" else mse(z, y)
                value = loss.item()
                if not np.isfinite(value):
                    raise TrainingAborted(f"non-finite training loss at epoch {epoch}")
                loss.backward()
                adam_step(params, adam)
                batch_losses.append(value)

            valid_loss, valid_top10 = validate(brain, deep_mel, valid_data, positions,
                                               tc.objective, tc.batch_size)
            history.append(
                {"epoch": epoch, "train_loss": float(np.mean(batch_losses)),
                 "valid_loss": valid_loss, "valid_top10": valid_top10}
            )
            logger.info("epoch %d train %.4f valid %.4f top10 %.3f", epoch,
                        history[-1]["train_loss"], valid_loss, valid_top10)
            if not np.isfinite(valid_loss):
                raise TrainingAborted(f"non-finite validation loss at epoch {epoch}")

            if stopper.update(epoch, valid_loss):
                save_checkpoint(
                    ckpt_dir, brain, config, pipeline.scalers,
                    pipeline.feature_stats, deep_mel=deep_mel,
                    extra={"best_epoch": stopper.best_epoch,
                           "best_valid_loss": stopper.best, "seed": tc.seed},
                )
            elif stopper.should_stop:
                break
    except (NonFiniteGradient, TrainingAborted) as exc:
        write_history()
        pipeline.guard.assert_no_test_reads()
        raise TrainingAborted(str(exc)) from exc

    write_history()
    pipeline.guard.assert_no_test_reads()
    if stopper.best_epoch < 0:
        raise TrainingAborted("no epoch produced a finite validation loss")
    return TrainResult(
        best_epoch=stopper.best_epoch,
        best_valid_loss=float(stopper.best),
        epochs_run=epoch,
        history=history,
        checkpoint_dir=ckpt_dir,
    )
