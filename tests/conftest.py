"""Fixtures shared by the test modules."""

import pytest

from brainspeech import twoway


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


@pytest.fixture(params=["inline", "split"])
def split_mode(request, force_split):
    """Force the two-way split on (two CPUs, no size floor) or off (one CPU)."""
    force_split(2 if request.param == "split" else 1)
    return request.param
