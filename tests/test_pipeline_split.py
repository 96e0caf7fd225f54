"""A DataPipeline build changes no byte when its preprocessing splits over two threads.

Resampling and scaler fitting split each recording's channels over the
calling thread and one pool thread; per-segment targets stay serial. The
build is compared byte for byte with the split forced on (two CPUs, no size
floor) and off (one CPU).
"""

import threading

import numpy as np
import pytest

from brainspeech.brain_net import BrainNet, BrainNetConfig
from brainspeech.dataset import SynthSpec, generate_synthetic
from brainspeech.dataset.types import SPLITS
from brainspeech.numerics import AdamState, Tensor, adam_step
from brainspeech.objective import clip_loss_batch
from brainspeech.pipeline import DataConfig, DataPipeline


@pytest.fixture(scope="module")
def dataset_600hz(tmp_path_factory):
    # 32 channels of about 50 s at 600 Hz: resampling runs in two channel groups
    root = tmp_path_factory.mktemp("data") / "hz600"
    generate_synthetic(SynthSpec(subjects=2, segments=14, channels=32, features=6,
                                 noise_std=0.5, seed=5, vocab_size=12,
                                 sample_rate=600.0), root)
    return root


def split_passes(split, monkeypatch):
    """The names of the functions ``split`` ran on both threads, as they run
    (of a pass in halves, or of the calling thread's task of a pair)."""
    names = []
    run = split.run

    def recording_run(tasks):
        if len(tasks) == 2:
            names.append(getattr(tasks[0], "func", tasks[0]).__name__)
        run(tasks)

    monkeypatch.setattr(split, "run", recording_run)
    return names


def build_bytes(root, representation):
    """Every array a build and its three splits serve, as bytes."""
    pipe = DataPipeline(root, DataConfig(representation=representation, n_mels=20))
    out = {"feature_stats": (pipe.feature_stats.mean.tobytes(),
                             pipe.feature_stats.std.tobytes())}
    for rec_id, rec in pipe.recordings.items():
        scaler = pipe.scalers[rec_id]
        out[rec_id] = (rec.signal.tobytes(), scaler.q25.tobytes(),
                       scaler.median.tobytes(), scaler.q75.tobytes())
    for split in SPLITS:
        prepared = pipe.materialize(split)
        out[split] = (prepared.x.tobytes(), prepared.candidates.tobytes(),
                      prepared.target_index.tobytes(), prepared.subject_idx.tobytes())
    return out


@pytest.mark.parametrize("representation", ["mel", "external"])
def test_build_is_bitwise_equal_split_or_inline(dataset_600hz, force_split, monkeypatch,
                                               representation):
    built, passes = {}, {}
    for cpus in (1, 2):
        passes[cpus] = split_passes(force_split(cpus), monkeypatch)
        built[cpus] = build_bytes(dataset_600hz, representation)
    assert passes[1] == []
    assert set(passes[2]) == {"resample_groups", "quartile_rows"}
    assert built[1] == built[2]


def test_build_then_desk_step_leaves_at_most_one_extra_thread(dataset_600hz, force_split,
                                                               monkeypatch):
    before = threading.active_count()
    passes = split_passes(force_split(2), monkeypatch)
    pipe = DataPipeline(dataset_600hz, DataConfig(representation="external"))
    prepared = pipe.materialize("train")
    cfg = BrainNetConfig(in_channels=pipe.n_channels, out_features=pipe.feature_dim,
                         n_subjects=pipe.n_subjects, d1=32, d2=32, harmonics=8)
    net = BrainNet(cfg, np.random.default_rng(1))
    params = list(net.parameters())
    rows = np.arange(8)
    z = net.forward(Tensor(prepared.x[rows]), prepared.subject_idx[rows], pipe.positions,
                    training=True, rng=np.random.default_rng(2))
    clip_loss_batch(z, Tensor(prepared.candidates[prepared.target_index[rows]])).backward()
    adam_step(params, AdamState(params))
    assert {"resample_groups", "quartile_rows", "forward"} <= set(passes)
    assert threading.active_count() <= before + 1
