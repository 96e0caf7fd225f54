"""What a DataPipeline build reads from disk, and what it keeps.

Each split's windows are the unit the pipeline reads, resamples and holds. A
build that fits its scalers reads each recording once, for its train and
valid windows; a build given its scalers, as eval's is, reads no recording
until it serves the test split; served windows are not kept; and serving
the test split frees the train and valid windows a build still holds.
"""

import gc
import tracemalloc
from collections import Counter

import pytest

from brainspeech.checkpoint import load_checkpoint
from brainspeech.cli import _pipeline_for_checkpoint
from brainspeech.config import Config
from brainspeech.dataset import io as dataset_io
from brainspeech.dataset.windows import resampled_length
from brainspeech.pipeline import DataConfig, DataPipeline
from brainspeech.training import train


def count_recording_reads(monkeypatch) -> Counter:
    """``dataset_io.read_recording`` calls, by recording id, from now on."""
    calls = Counter()
    real = dataset_io.read_recording

    def counted(root, recording_id, manifest):
        calls[recording_id] += 1
        return real(root, recording_id, manifest)

    monkeypatch.setattr(dataset_io, "read_recording", counted)
    return calls


@pytest.fixture(scope="module")
def trained(dataset_600hz, tmp_path_factory):
    """A one-epoch desk run on the 600 Hz data, and the recordings it read."""
    cfg = Config()
    cfg.dataset.root = str(dataset_600hz)
    cfg.speech.representation = "external"
    cfg.model.d1 = cfg.model.d2 = 16
    cfg.model.harmonics = 4
    cfg.training.batch_size = 8
    cfg.training.max_epochs = 1
    cfg.training.updates_per_epoch = 2
    with pytest.MonkeyPatch.context() as monkeypatch:
        reads = count_recording_reads(monkeypatch)
        result = train(cfg, tmp_path_factory.mktemp("run"))
    return result.checkpoint_dir, reads


def test_training_reads_each_recording_once(dataset_600hz, trained):
    _, reads = trained
    assert reads == Counter(dataset_io.recording_ids(dataset_600hz))


def test_eval_build_reads_each_recording_once_for_the_test_split(dataset_600hz, trained,
                                                                  monkeypatch):
    ckpt = load_checkpoint(trained[0])
    reads = count_recording_reads(monkeypatch)
    pipeline = _pipeline_for_checkpoint(ckpt, str(dataset_600hz))
    assert pipeline.scalers is ckpt["scalers"]
    assert not reads
    pipeline.materialize("test")
    assert reads == Counter(dataset_io.recording_ids(dataset_600hz))


def test_refitting_eval_build_holds_no_train_or_valid_window(dataset_600hz, trained):
    """When the dataset's recordings differ from the checkpoint's, eval's build
    refits the scalers from the train windows; once it has served the test
    split it holds no more than a build given its scalers."""
    ckpt = load_checkpoint(trained[0])
    unknown = dict(list(ckpt["scalers"].items())[1:])  # one recording is not stored

    def held_after_test(scalers):
        ckpt["scalers"] = scalers
        _pipeline_for_checkpoint(ckpt, str(dataset_600hz)).materialize("test")  # caches
        tracemalloc.start()
        try:
            pipeline = _pipeline_for_checkpoint(ckpt, str(dataset_600hz))
            pipeline.materialize("test")
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return held, pipeline

    stored, _ = held_after_test(ckpt["scalers"])
    refitted, pipeline = held_after_test(unknown)
    assert pipeline.scalers is not unknown
    info = next(iter(pipeline.recording_info.values()))
    assert refitted - stored < info.n_channels * pipeline.window_samples * 4  # one window


def test_served_windows_are_not_kept(dataset_600hz):
    """After train and valid are served, the pipeline holds less than one
    resampled recording."""
    DataPipeline(dataset_600hz, DataConfig(representation="external"))  # imports, caches
    tracemalloc.start()
    try:
        pipeline = DataPipeline(dataset_600hz, DataConfig(representation="external"))
        for split in ("train", "valid"):
            pipeline.materialize(split)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    info = next(iter(pipeline.recording_info.values()))
    one_recording = info.n_channels * resampled_length(info.n_samples, info.sample_rate) * 4
    assert held < one_recording
