"""Dataset-root validation for the ingest command."""

from __future__ import annotations

from pathlib import Path

from . import io


def validate_dataset(root) -> dict:
    """Read every file of a dataset root through the :mod:`io` reader that
    checks its rules: the manifest, the splits, each recording and its
    events, then each segment's features and audio. Raises the first
    :class:`io.DatasetFormatError` and returns the manifest of a valid root.

    Recordings are read in full, one at a time: that read is the check that
    every value is finite.
    """
    root = Path(root)
    manifest = io.read_manifest(root)
    splits = io.read_splits(root)
    for rec_id in io.recording_ids(root):
        io.read_recording(root, rec_id, manifest)
        io.read_events(root, rec_id)
    for sid in sorted(splits.assignment):
        io.read_feature_file(root, sid)
        io.read_audio(root, sid, manifest["audio_rate"])
    return manifest
