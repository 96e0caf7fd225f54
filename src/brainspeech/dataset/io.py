"""On-disk interchange format.

Layout under a dataset root:

- ``manifest.json`` — dataset name, rates, channel count, subjects, feature kind
- ``recordings/<subject>_<run>.bin`` + ``.json`` — little-endian float32 C×T
- ``events/<subject>_<run>.csv`` — ``onset_s,duration_s,word,segment_id``
- ``audio/<segment_id>.wav`` — 16 kHz mono 16-bit PCM
- ``features/<segment_id>.bin`` + ``.json`` — little-endian float32 F×T_feat
- ``splits.json`` — segment_id -> split, plus the ratios and seed used
"""

from __future__ import annotations

import csv
import json
import wave
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .types import Recording, SpeechSegment, SplitAssignment, WordEvent

EVENTS_HEADER = ["onset_s", "duration_s", "word", "segment_id"]


class DatasetFormatError(ValueError):
    """A file in the dataset root violates the interchange format."""


def _dump_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _load_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise DatasetFormatError(f"missing file: {path}")
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"invalid JSON in {path}: {exc}")


def _read_matrix(path: Path, rows: int, cols: int) -> np.ndarray:
    """Read a little-endian float32 rows x cols file into one writable float32
    array; every value must be finite."""
    expect = rows * cols * 4
    found = path.stat().st_size
    if found == expect:
        arr = np.fromfile(path, dtype="<f4", count=rows * cols)
        found = arr.nbytes
    if found != expect:
        raise DatasetFormatError(
            f"{path}: expected {expect} bytes for {rows}x{cols} float32, found {found}"
        )
    arr = arr.reshape(rows, cols).astype(np.float32, copy=False)
    for row, values in enumerate(arr):  # row by row: no file-sized temporary
        if not np.isfinite(values).all():
            col = np.flatnonzero(~np.isfinite(values))[0]
            raise DatasetFormatError(
                f"{path}: non-finite value {values[col]} at row {row}, column {col}"
            )
    return arr


def write_manifest(root: Path, manifest: dict) -> None:
    root.mkdir(parents=True, exist_ok=True)
    _dump_json(root / "manifest.json", manifest)


def read_manifest(root: Path) -> dict:
    return _load_json(Path(root) / "manifest.json")


def write_recording(
    root: Path,
    recording_id: str,
    signal: np.ndarray,
    sample_rate: float,
    channel_names: List[str],
    positions: np.ndarray,
) -> None:
    rec_dir = root / "recordings"
    rec_dir.mkdir(parents=True, exist_ok=True)
    arr = np.ascontiguousarray(signal, dtype="<f4")
    (rec_dir / f"{recording_id}.bin").write_bytes(arr.tobytes())
    _dump_json(
        rec_dir / f"{recording_id}.json",
        {
            "channels": int(arr.shape[0]),
            "samples": int(arr.shape[1]),
            "sample_rate": float(sample_rate),
            "channel_names": list(channel_names),
            "positions": [[float(x), float(y)] for x, y in np.asarray(positions)],
        },
    )


def read_recording(root: Path, recording_id: str, subject_id: int) -> Recording:
    rec_dir = Path(root) / "recordings"
    meta = _load_json(rec_dir / f"{recording_id}.json")
    signal = _read_matrix(rec_dir / f"{recording_id}.bin",
                          int(meta["channels"]), int(meta["samples"]))
    return Recording(
        recording_id=recording_id,
        subject_id=subject_id,
        channel_names=list(meta["channel_names"]),
        positions=np.asarray(meta["positions"], dtype=np.float64),
        signal=signal,
        sample_rate=float(meta["sample_rate"]),
    )


def write_events(root: Path, recording_id: str, rows: List[Tuple[float, float, str, int]]) -> None:
    ev_dir = root / "events"
    ev_dir.mkdir(parents=True, exist_ok=True)
    with open(ev_dir / f"{recording_id}.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVENTS_HEADER)
        for onset, duration, word, segment_id in rows:
            writer.writerow([f"{onset:.6f}", f"{duration:.6f}", word, segment_id])


def read_events(root: Path, recording_id: str) -> List[Tuple[float, float, str, int]]:
    path = Path(root) / "events" / f"{recording_id}.csv"
    if not path.exists():
        raise DatasetFormatError(f"missing file: {path}")
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != EVENTS_HEADER:
            raise DatasetFormatError(f"{path}: bad header {header}")
        for line in reader:
            onset, duration, word, segment_id = line
            rows.append((float(onset), float(duration), word, int(segment_id)))
    return rows


def write_audio(root: Path, segment_id: int, samples: np.ndarray, rate: int = 16000) -> None:
    """Write mono 16-bit PCM; float input is clipped to [-1, 1]."""
    au_dir = root / "audio"
    au_dir.mkdir(parents=True, exist_ok=True)
    pcm = np.clip(samples, -1.0, 1.0)
    pcm = np.round(pcm * 32767.0).astype("<i2")
    with wave.open(str(au_dir / f"{segment_id}.wav"), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(rate)
        wf.writeframes(pcm.tobytes())


def read_audio(root: Path, segment_id: int) -> Tuple[np.ndarray, int]:
    path = Path(root) / "audio" / f"{segment_id}.wav"
    if not path.exists():
        raise DatasetFormatError(f"missing file: {path}")
    with wave.open(str(path), "rb") as wf:
        if wf.getnchannels() != 1 or wf.getsampwidth() != 2:
            raise DatasetFormatError(f"{path}: expected mono 16-bit PCM")
        rate = wf.getframerate()
        raw = wf.readframes(wf.getnframes())
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32767.0
    return samples, rate


def write_feature_file(root: Path, segment_id: int, features: np.ndarray, feature_rate: float) -> None:
    ft_dir = root / "features"
    ft_dir.mkdir(parents=True, exist_ok=True)
    arr = np.ascontiguousarray(features, dtype="<f4")
    (ft_dir / f"{segment_id}.bin").write_bytes(arr.tobytes())
    _dump_json(
        ft_dir / f"{segment_id}.json",
        {"features": int(arr.shape[0]), "samples": int(arr.shape[1]),
         "feature_rate": float(feature_rate)},
    )


def read_feature_file(root: Path, segment_id: int) -> Tuple[np.ndarray, float]:
    ft_dir = Path(root) / "features"
    meta = _load_json(ft_dir / f"{segment_id}.json")
    arr = _read_matrix(ft_dir / f"{segment_id}.bin", int(meta["features"]),
                       int(meta["samples"]))
    return arr, float(meta["feature_rate"])


def write_splits(root: Path, splits: SplitAssignment) -> None:
    _dump_json(
        Path(root) / "splits.json",
        {
            "ratios": list(splits.ratios),
            "seed": splits.seed,
            "excluded": list(splits.excluded),
            "assignment": {str(k): v for k, v in sorted(splits.assignment.items())},
        },
    )


def read_splits(root: Path) -> SplitAssignment:
    obj = _load_json(Path(root) / "splits.json")
    return SplitAssignment(
        assignment={int(k): v for k, v in obj["assignment"].items()},
        ratios=tuple(obj["ratios"]),
        seed=int(obj["seed"]),
        excluded=[int(x) for x in obj.get("excluded", [])],
    )


def recording_ids(root: Path) -> List[str]:
    rec_dir = Path(root) / "recordings"
    if not rec_dir.is_dir():
        return []
    return sorted(p.stem for p in rec_dir.glob("*.bin"))


def load_segments(root: Path, manifest: Optional[dict] = None) -> Dict[int, SpeechSegment]:
    """Reconstruct segment records from events, splits and feature sidecars.

    A segment's words are gathered from any one recording presenting it
    (presentations are identical by construction); its start within the
    recording is the earliest word onset minus the anchor offset.
    """
    root = Path(root)
    manifest = manifest or read_manifest(root)
    anchor = float(manifest.get("anchor_s", 0.5))
    duration = float(manifest.get("window_s", 3.0))
    splits = read_splits(root)
    segments: Dict[int, SpeechSegment] = {}
    for rec_id in recording_ids(root):
        per_segment: Dict[int, List[Tuple[float, float, str]]] = {}
        for onset, dur, word, sid in read_events(root, rec_id):
            per_segment.setdefault(sid, []).append((onset, dur, word))
        for sid, rows in per_segment.items():
            if sid in segments:
                continue
            # first presentation seen defines the source-time span
            start = min(r[0] for r in rows) - anchor
            words = [WordEvent(onset=o - start, duration=d, word=w) for o, d, w in sorted(rows)]
            segments[sid] = SpeechSegment(
                segment_id=sid,
                duration=duration,
                source_start=start,
                audio_path=f"audio/{sid}.wav",
                words=words,
                split=splits.split_of(sid),
            )
    return segments
