"""Oracle for what a DataPipeline build serves, built from whole recordings.

Each recording is read and resampled whole, by the blocked GEMM of
:func:`test_preprocessing.whole_signal_resample`. Each recording's scaler is
fit on its train windows sliced from that whole signal, and every split's
windows are sliced from it and preprocessed.
"""

import numpy as np
from test_preprocessing import whole_signal_resample

from brainspeech import preprocessing
from brainspeech.dataset import io as dataset_io
from brainspeech.dataset.types import SPLITS
from brainspeech.dataset.windows import WORKING_RATE


def whole_recording_build(pipe):
    """``(scalers, {split: x})`` for the samples of the pipeline ``pipe``."""
    signals = {}
    for rec_id in pipe.recording_info:
        rec = dataset_io.read_recording(pipe.root, rec_id, pipe.manifest)
        signals[rec_id] = (rec.signal if rec.sample_rate == WORKING_RATE else
                           whole_signal_resample(rec.signal, rec.sample_rate, WORKING_RATE))

    def window(s):
        return signals[s.recording_id][:, s.brain_start : s.brain_start + pipe.window_samples]

    scalers = {
        rec_id: preprocessing.ScalerParams.fit(np.concatenate(
            [window(s) for s in pipe._samples["train"] if s.recording_id == rec_id], axis=1))
        for rec_id in signals
    }
    x = {
        split: np.stack([
            preprocessing.preprocess_window(window(s), scalers[s.recording_id],
                                            baseline_dur=pipe.config.baseline_s,
                                            clamp_limit=pipe.config.clamp)
            for s in pipe._samples[split]
        ]).astype(np.float32)
        for split in SPLITS if pipe._samples[split]
    }
    return scalers, x
