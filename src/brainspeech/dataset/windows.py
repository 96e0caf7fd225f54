"""Window arithmetic for aligned brain/speech sample extraction."""

from __future__ import annotations

import logging
from typing import Optional

from .types import RecordingInfo

logger = logging.getLogger(__name__)

# Rate (Hz) that every recording is resampled to before windowing and that
# speech features are aligned to; the one definition in the package.
WORKING_RATE = 120.0


def resampled_length(n_samples: int, sr_in: float, sr_out: float = WORKING_RATE) -> int:
    """Samples of a recording of ``n_samples`` at ``sr_in`` once resampled to ``sr_out``."""
    return int(round(n_samples * sr_out / sr_in))


def window_start(recording: RecordingInfo, segment_id: int, word_onset: float,
                 anchor_s: float, shift_s: float, window_samples: int) -> Optional[int]:
    """The first sample of the brain window anchored at one word onset, or
    None (logged) when the window does not fit in the recording once it is
    resampled to :data:`WORKING_RATE`.

    ``word_onset`` is absolute time in a recording at :data:`WORKING_RATE`.
    The speech window starts ``anchor_s`` before the onset; the brain window
    is the speech window shifted ``shift_s`` seconds into the future. Each
    start is rounded to a sample on its own. A window that does not fit is
    skipped, never truncated.
    """
    speech = int(round((word_onset - anchor_s) * WORKING_RATE))
    brain = speech + int(round(shift_s * WORKING_RATE))
    length = resampled_length(recording.n_samples, recording.sample_rate)
    if speech < 0 or brain < 0 or brain + window_samples > length:
        logger.info("skipping sample: %s: window for segment %s at %.3fs falls outside the "
                    "recording", recording.recording_id, segment_id, word_onset)
        return None
    return brain
