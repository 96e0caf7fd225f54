"""Dataset-root validation for the ingest command."""

from __future__ import annotations

import wave
from pathlib import Path
from typing import List

from . import io
from .types import SPLITS


def validate_dataset(root) -> List[str]:
    """Check the interchange layout; returns problems (empty when valid)."""
    root = Path(root)
    problems: List[str] = []
    try:
        manifest = io.read_manifest(root)
    except io.DatasetFormatError as exc:
        return [str(exc)]
    for key in ("recording_rate", "audio_rate", "channels", "subjects"):
        if key not in manifest:
            problems.append(f"manifest.json: missing key {key!r}")
    if problems:
        return problems

    try:
        splits = io.read_splits(root)
    except io.DatasetFormatError as exc:
        return [str(exc)]
    for sid, split in splits.assignment.items():
        if split not in SPLITS:
            problems.append(f"splits.json: segment {sid} has unknown split {split!r}")

    rec_ids = io.recording_ids(root)
    if not rec_ids:
        problems.append(f"{root / 'recordings'}: no recordings found")
    subjects = set(manifest["subjects"])
    for rec_id in rec_ids:
        subject = rec_id.rsplit("_", 1)[0]
        if subject not in subjects:
            problems.append(f"recordings/{rec_id}.bin: subject {subject!r} not in manifest")
            continue
        try:
            rec = io.read_recording(root, rec_id, 0)
        except (io.DatasetFormatError, ValueError) as exc:
            problems.append(str(exc))
            continue
        if rec.n_channels != manifest["channels"]:
            problems.append(
                f"recordings/{rec_id}.bin: {rec.n_channels} channels, manifest says "
                f"{manifest['channels']}"
            )
        try:
            io.read_events(root, rec_id)
        except io.DatasetFormatError as exc:
            problems.append(str(exc))

    for sid in sorted(splits.assignment):
        try:
            io.read_feature_file(root, sid)
        except io.DatasetFormatError as exc:
            problems.append(str(exc))
        wav = root / "audio" / f"{sid}.wav"
        if not wav.exists():
            problems.append(f"{wav}: missing audio file")
            continue
        try:
            with wave.open(str(wav), "rb") as wf:
                if wf.getframerate() != manifest["audio_rate"]:
                    problems.append(
                        f"{wav}: rate {wf.getframerate()} != manifest {manifest['audio_rate']}"
                    )
                if wf.getnchannels() != 1 or wf.getsampwidth() != 2:
                    problems.append(f"{wav}: expected mono 16-bit PCM")
        except wave.Error as exc:
            problems.append(f"{wav}: {exc}")
    return problems
