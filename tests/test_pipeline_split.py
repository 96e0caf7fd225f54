"""A DataPipeline build changes no byte when its preprocessing splits over two threads.

Resampling splits each recording's GEMMs, and scaler fitting its channels,
over the calling thread and one pool thread; per-segment targets stay serial. The
build is compared byte for byte with the split forced on (two CPUs, no size
floor) and off (one CPU), and with an oracle that resamples each whole
recording and slices its windows.
"""

import threading

import numpy as np
import pytest

from brainspeech.brain_net import BrainNet, BrainNetConfig
from brainspeech.dataset.types import SPLITS
from brainspeech.numerics import AdamState, Tensor, adam_step
from brainspeech.objective import clip_loss_batch
from brainspeech.pipeline import DataConfig, DataPipeline
from pipeline_oracle import whole_recording_build


def build_bytes(root, representation):
    """The scalers, the feature statistics and every split's served arrays
    of a build, as bytes."""
    pipe = DataPipeline(root, DataConfig(representation=representation, n_mels=20))
    out = {"feature_stats": (pipe.feature_stats.mean.tobytes(),
                             pipe.feature_stats.std.tobytes())}
    out.update(scaler_bytes(pipe.scalers))
    for split in SPLITS:
        prepared = pipe.materialize(split)
        out[split] = (prepared.x.tobytes(), prepared.candidates.tobytes(),
                      prepared.target_index.tobytes(), prepared.subject_idx.tobytes())
    return out


def scaler_bytes(scalers):
    return {rec_id: (s.q25.tobytes(), s.median.tobytes(), s.q75.tobytes())
            for rec_id, s in scalers.items()}


@pytest.mark.parametrize("representation", ["mel", "external"])
def test_build_is_bitwise_equal_split_or_inline(dataset_600hz, force_split, pool_tasks,
                                               representation):
    built, passes = {}, {}
    for cpus in (1, 2):
        force_split(cpus)
        pool_tasks.clear()
        built[cpus] = build_bytes(dataset_600hz, representation)
        passes[cpus] = set(pool_tasks)
    assert passes[1] == set()
    assert passes[2] == {"resample_groups", "quartile_rows"}
    assert built[1] == built[2]


def test_build_serves_the_windows_of_whole_recordings(dataset_600hz, split_mode):
    """Resampling only the windows each split reads gives the scalers and
    window bytes of resampling each whole recording and slicing it."""
    pipe = DataPipeline(dataset_600hz, DataConfig(representation="external"))
    scalers, x = whole_recording_build(pipe)
    assert scaler_bytes(pipe.scalers) == scaler_bytes(scalers)
    for split in SPLITS:
        assert pipe.materialize(split).x.tobytes() == x[split].tobytes(), split


def test_build_then_desk_step_leaves_at_most_one_extra_thread(dataset_600hz, force_split,
                                                               pool_tasks):
    before = threading.active_count()
    force_split(2)
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
    assert {"resample_groups", "quartile_rows", "forward"} <= set(pool_tasks)
    assert threading.active_count() <= before + 1
