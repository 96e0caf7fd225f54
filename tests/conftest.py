"""Fixtures shared by the test modules."""

import threading

import pytest

from brainspeech import twoway
from brainspeech.dataset import SynthSpec, generate_synthetic


@pytest.fixture
def force_split(monkeypatch):
    """``force_split(cpus)`` installs a fresh, unstarted two-way split with no
    size floor: on 2 CPUs every pass with two or more rows splits, on 1 each
    runs inline. Pools it started are shut down after the test."""
    started = []

    def install(cpus):
        monkeypatch.setattr(twoway, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(twoway, "_SPLIT_MIN_SIZE", 0)
        split = twoway._TwoWaySplit()
        monkeypatch.setattr(twoway, "split", split)
        started.append(split)
        return split

    yield install
    for split in started:
        if split._pool is not None:
            split._pool.shutdown()


@pytest.fixture
def pool_tasks(monkeypatch):
    """The names of the functions handed to the pool thread of every two-way
    split started after this fixture, in the order they ran there. Each
    task checks that it runs on that pool thread."""
    ran = []

    class RecordingPool(twoway.ThreadPoolExecutor):
        def submit(self, fn, *args):
            def task():
                assert threading.current_thread().name == "brainspeech-op_0"
                ran.append(fn.__name__)
                return fn(*args)
            return super().submit(task)

    monkeypatch.setattr(twoway, "ThreadPoolExecutor", RecordingPool)
    return ran


@pytest.fixture(params=["inline", "split"])
def split_mode(request, force_split):
    """Force the two-way split on (two CPUs, no size floor) or off (one CPU)."""
    force_split(2 if request.param == "split" else 1)
    return request.param


@pytest.fixture(scope="module")
def dataset_600hz(tmp_path_factory):
    """32 channels of about 50 s at 600 Hz: resampling runs several GEMMs per recording."""
    root = tmp_path_factory.mktemp("data") / "hz600"
    generate_synthetic(SynthSpec(subjects=2, segments=14, channels=32, features=6,
                                 noise_std=0.5, seed=5, vocab_size=12,
                                 sample_rate=600.0), root)
    return root
