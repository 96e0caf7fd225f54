"""Peak memory and time of one paper-config train step, in this process.

    python3 tools/train_step_peak.py BATCH [--features F]

Builds the paper's brain module (208 channels, d1=270, d2=320, 5 blocks,
3 s windows at 120 Hz), runs one train step on random data (forward, CLIP
loss, backward, Adam) and prints the batch size, the step's wall time and
the process peak RSS (``ru_maxrss``) as one JSON line. Run each batch size in
a fresh process, from the root of a source checkout, so that the peak
belongs to that batch size alone; importing ``brainspeech`` sets one BLAS
thread unless the environment sets a count.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from brainspeech.brain_net import BrainNet, BrainNetConfig  # noqa: E402
from brainspeech.numerics import AdamState, Tensor, adam_step  # noqa: E402
from brainspeech.objective import clip_loss_batch  # noqa: E402

CHANNELS, SAMPLES = 208, 360


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("batch", type=int)
    ap.add_argument("--features", type=int, default=16, help="output features (target width)")
    args = ap.parse_args()
    net = BrainNet(BrainNetConfig(in_channels=CHANNELS, out_features=args.features,
                                  n_subjects=2), np.random.default_rng(0))
    adam = AdamState(net.parameters())
    rng = np.random.default_rng(1)
    positions = rng.uniform(0.1, 0.9, size=(CHANNELS, 2))
    x = rng.normal(size=(args.batch, CHANNELS, SAMPLES)).astype(np.float32)
    y = rng.normal(size=(args.batch, args.features, SAMPLES)).astype(np.float32)
    start = time.perf_counter()
    z = net.forward(Tensor(x), np.arange(args.batch) % 2, positions, training=True, rng=rng)
    loss = clip_loss_batch(z, Tensor(y))
    loss.backward()
    adam_step(net.parameters(), adam)
    step_s = time.perf_counter() - start
    print(json.dumps({"batch": args.batch, "features": args.features, "step_s": round(step_s, 3),
                      "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                           / 1024, 1),
                      "loss": loss.item()}))


if __name__ == "__main__":
    main()
