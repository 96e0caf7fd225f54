"""Training loop: epochs of capped update counts, early stopping on the
validation loss with patience, best-checkpoint selection."""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

from .brain_net import BrainNet, BrainNetConfig, build_ablation, deep_mel_config
from .checkpoint import save_checkpoint
from .config import Config
from .numerics import AdamState, NonFiniteGradient, Tensor, adam_step, mse, no_grad
from .objective import (
    clip_loss_batch,
    clip_scores_eval,
    regression_scores_eval,
    true_ranks,
)
from .pipeline import DataConfig, DataPipeline

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
        window_s=config.dataset.window_s,
        anchor_s=config.dataset.anchor_s,
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


def _forward_targets(deep_mel: Optional[BrainNet], targets: np.ndarray,
                     training: bool) -> Tensor:
    if deep_mel is None:
        return Tensor(targets)
    sidx = np.zeros(targets.shape[0], dtype=int)
    return deep_mel.forward(Tensor(targets), sidx, None, training=training)


def _chunks(n: int, size: int) -> List[np.ndarray]:
    idx = np.arange(n)
    out = [idx[i : i + size] for i in range(0, n, size)]
    if len(out) > 1 and out[-1].size < 2:
        out = out[:-1]  # a single-sample tail has no negatives
    return out


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

    @no_grad()
    def validate() -> tuple:
        losses = []
        weights = []
        hits = 0
        total = 0
        for chunk in _chunks(valid_data.x.shape[0], tc.batch_size):
            z = brain.forward(Tensor(valid_data.x[chunk]), valid_data.subject_idx[chunk],
                              positions, training=False)
            targets = valid_data.candidates[valid_data.target_index[chunk]]
            if tc.objective == "clip":
                y = _forward_targets(deep_mel, targets, training=False)
                loss = clip_loss_batch(z, y).item()
                scores = clip_scores_eval(z.data, y.data)
            else:
                y = Tensor(targets)
                loss = mse(z, y).item()
                scores = regression_scores_eval(z.data, y.data)
            losses.append(loss)
            weights.append(chunk.size)
            rank, _ = true_ranks(scores, np.arange(chunk.size))
            hits += int((rank < 10).sum())
            total += chunk.size
        loss = float(np.average(losses, weights=weights))
        return loss, hits / max(total, 1)

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
                if tc.objective == "clip":
                    y = _forward_targets(deep_mel, targets, training=True)
                    loss = clip_loss_batch(z, y)
                else:
                    loss = mse(z, Tensor(targets))
                value = loss.item()
                if not np.isfinite(value):
                    raise TrainingAborted(f"non-finite training loss at epoch {epoch}")
                loss.backward()
                adam_step(params, adam)
                batch_losses.append(value)

            valid_loss, valid_top10 = validate()
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
