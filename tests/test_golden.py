"""Golden run: ``synth`` -> ``train`` -> ``eval`` through ``cli.main`` for three
model arms, pinned by the sha256 of ``history.csv``, ``probs.bin``,
``report.json`` and ``words.csv``.

The data is the README quick-start spec at 120 segments; each arm trains the
README desk model for 2 epochs at 20 Mel bands. Paths are relative to the
run directory, so ``report.json`` names ``data`` and ``<arm>/best`` wherever
the test runs. The bytes were the same with one BLAS thread and with the
default count.

Bytes are compared only on the numerical stack the pins were taken on:
numpy 2.4.6, scipy 1.17.1 and OpenBLAS 0.3.31 from scipy-openblas. On any
other stack float32 sums may round differently, so there the test compares
only the losses and ``valid_top10`` in ``history.csv`` and eval's top-k, to
the tolerances below (fixed before the pins were taken). A change that
alters these bytes on purpose updates the pins and says so in
``CHANGES.md``.
"""

import hashlib
import json

import numpy as np
import pytest
import scipy

from brainspeech.cli import main

SYNTH_SPEC = """[synth]
subjects = 2
segments = 120
channels = 32
features = 16
noise_std = 0.0
seed = 0
vocab_size = 50
"""

TRAIN_CFG = """[dataset]
root = data
[speech]
representation = external
[model]
d1 = 32
d2 = 32
harmonics = 8
[training]
batch_size = 32
max_epochs = 40
"""

# arm -> (speech.representation, training.objective)
ARMS = {
    "external": ("external", "clip"),
    "mel": ("mel", "regression"),
    "deep-mel": ("deep-mel", "clip"),
}

PINS = {
    "external": {
        "history.csv": "728028b570df504819c0766ebf9672e917737fe96461cd546e9dfda6262f0bd4",
        "probs.bin": "49c1b2d42fc1c56fa6682060515d49b2453ac1d5be9b584024cb8175b68e08f3",
        "report.json": "40aaca0e2311d27a2e84919b4cde041c6e682db1fabbd80fe43aa978a7b7d833",
        "words.csv": "46bffc41004ac18587416914d2c54d7a9e85ff9ee35a77ac07b68a17f360ad31",
    },
    "mel": {
        "history.csv": "e6ba959b9f5ebeafb50f21b02cce544ce7e3670eeebd77c65055f0c6b4f2b175",
        "probs.bin": "3b35eafb8a1527d6ef39bcba8af305d286fa3f7e150fac617fd56675400bc730",
        "report.json": "5bd0da3a8dedc3b0b040df3a8320dc2c859b32bb538b90eabe0f5d5ab74a65f0",
        "words.csv": "323a0ce969dd70ee421f5e7d42cc21963f2a89cc08fd3883ebe76c06d088109e",
    },
    "deep-mel": {
        "history.csv": "c924ba58197c44f4fe3962ad0c411be4be1b9fd07f54d12b87b227cc77510581",
        "probs.bin": "86af7985042986363fff3daf5cd8382ea50de72e26135f122df17c99ed9e6763",
        "report.json": "2ce78c17df90bc50c306ebbf6465caf6fc35234ff181fa8abc50235b60974031",
        "words.csv": "20d84d71c0f409550bc62bf3f5c1f70356ea916678feb63d69709b429496363b",
    },
}

# Off the pinned stack: per-epoch (train_loss, valid_loss), per-epoch
# valid_top10 (hits out of VALID_WINDOWS) and eval top-k.
REFERENCE = {
    "external": {"losses": [(8.98633852, 3.23432334), (3.31525459, 3.23254546)],
                 "valid_top10": [20 / 48, 20 / 48],
                 "topk": {"1": 8.333333333333332, "5": 41.66666666666667,
                          "10": 83.33333333333334}},
    "mel": {"losses": [(1.00698860, 1.02840153), (1.00314918, 1.02801887)],
            "valid_top10": [20 / 48, 20 / 48],
            "topk": {"1": 8.333333333333332, "5": 41.66666666666667,
                     "10": 83.33333333333334}},
    "deep-mel": {"losses": [(3.80682321, 3.23468669), (3.37773776, 3.23468685)],
                 "valid_top10": [21 / 48, 18 / 48],
                 "topk": {"1": 8.333333333333332, "5": 41.66666666666667,
                          "10": 83.33333333333334}},
}
LOSS_RTOL = 1e-3
VALID_WINDOWS = 48  # validation windows of the golden data (24 candidates)
VALID_TOP10_WINDOWS = 1  # valid_top10 may move by this many windows
TOPK_TRIALS = 1  # top-k may move by this many test trials


def _blas_version() -> str:
    try:
        return np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        return ""


PINNED_STACK = (np.__version__ == "2.4.6" and scipy.__version__ == "1.17.1"
                and _blas_version().startswith("0.3.31"))


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    ws = tmp_path_factory.mktemp("golden")
    (ws / "tiny.cfg").write_text(SYNTH_SPEC)
    (ws / "train.cfg").write_text(TRAIN_CFG)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(ws)
        assert main(["synth", "--spec", "tiny.cfg", "--out", "data"]) == 0
        for arm, (representation, objective) in ARMS.items():
            assert main(["train", "--config", "train.cfg", "--out", arm,
                         "--set", "training.max_epochs=2", "--set", "speech.n_mels=20",
                         "--set", f"speech.representation={representation}",
                         "--set", f"training.objective={objective}"]) == 0
            assert main(["eval", "--checkpoint", f"{arm}/best", "--dataset", "data",
                         "--out", f"{arm}-eval"]) == 0
    return ws


@pytest.mark.parametrize("arm", sorted(ARMS))
def test_golden_run(golden, arm):
    run, out = golden / arm, golden / f"{arm}-eval"
    history = np.loadtxt(run / "history.csv", delimiter=",", skiprows=1, ndmin=2)
    np.testing.assert_allclose(history[:, 1:3], REFERENCE[arm]["losses"], rtol=LOSS_RTOL)
    np.testing.assert_allclose(history[:, 3], REFERENCE[arm]["valid_top10"], rtol=0,
                               atol=VALID_TOP10_WINDOWS / VALID_WINDOWS)
    report = json.loads((out / "report.json").read_text())
    want = REFERENCE[arm]["topk"]
    assert sorted(report["topk"]) == sorted(want)
    for k, v in want.items():
        assert abs(report["topk"][k] - v) <= 100.0 * TOPK_TRIALS / report["n_trials"], k
    if not PINNED_STACK:
        return
    files = {"history.csv": run / "history.csv", "probs.bin": out / "probs.bin",
             "report.json": out / "report.json", "words.csv": out / "words.csv"}
    got = {name: hashlib.sha256(path.read_bytes()).hexdigest()
           for name, path in files.items()}
    assert got == PINS[arm]
