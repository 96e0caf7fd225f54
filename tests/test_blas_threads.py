"""Importing brainspeech defaults OpenBLAS to one thread, unless the user
chose a count: the ops' two-way split already uses the second core."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
PROBE = """
import os
import brainspeech, numpy, scipy.linalg
a = numpy.ones((512, 512))
a @ a
scipy.linalg.lu_factor(a + numpy.eye(512))
print(os.environ.get("OPENBLAS_NUM_THREADS"), len(os.listdir("/proc/self/task")))
"""


def probe(**env_vars):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = SRC
    env.update(env_vars)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout.split()
    return out[0], int(out[1])


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_default_is_one_blas_thread():
    assert probe() == ("1", 1)


def test_user_thread_count_is_kept():
    assert probe(OPENBLAS_NUM_THREADS="2")[0] == "2"
    assert probe(OMP_NUM_THREADS="2")[0] == "None"
