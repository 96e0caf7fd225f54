"""Window arithmetic for aligned brain/speech sample extraction."""

from __future__ import annotations

import logging

from .types import Recording, Sample, SpeechSegment

logger = logging.getLogger(__name__)

# Rate (Hz) that every recording is resampled to before windowing and that
# speech features are aligned to; the one definition in the package.
WORKING_RATE = 120.0


class WindowOutOfBounds(ValueError):
    """The requested window does not fit inside the recording."""


def extract_sample(
    recording: Recording,
    segment: SpeechSegment,
    word_onset: float,
    shift: float = 0.150,
    pre_onset: float = 0.5,
    duration: float = 3.0,
) -> Sample:
    """Locate the aligned speech/brain windows around one word onset.

    ``word_onset`` is absolute time in the recording. The speech window
    covers [onset - pre_onset, onset - pre_onset + duration]; the brain
    window is the same interval shifted ``shift`` seconds into the future.
    Windows that do not fit raise :class:`WindowOutOfBounds` (callers skip
    the sample, never truncate it).
    """
    rate = recording.sample_rate
    if abs(rate - WORKING_RATE) > 1e-9:
        raise ValueError(
            f"{recording.recording_id}: expected recording at {WORKING_RATE} Hz, got {rate}"
        )
    window_samples = int(round(duration * rate))
    speech_start = int(round((word_onset - pre_onset) * rate))
    shift_samples = int(round(shift * rate))
    brain_start = speech_start + shift_samples

    if speech_start < 0 or brain_start < 0 or brain_start + window_samples > recording.n_samples:
        raise WindowOutOfBounds(
            f"{recording.recording_id}: window for segment {segment.segment_id} at "
            f"{word_onset:.3f}s falls outside the recording"
        )

    return Sample(
        recording_id=recording.recording_id,
        subject_id=recording.subject_id,
        segment_id=segment.segment_id,
        brain_start=brain_start,
        speech_start=speech_start,
        window_samples=window_samples,
    )


def try_extract_sample(recording, segment, word_onset, **kwargs):
    """As :func:`extract_sample` but logs and returns None on bound failures."""
    try:
        return extract_sample(recording, segment, word_onset, **kwargs)
    except WindowOutOfBounds as exc:
        logger.info("skipping sample: %s", exc)
        return None
