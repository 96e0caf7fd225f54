"""On-disk interchange format.

Layout under a dataset root:

- ``manifest.json`` — dataset name, rates, channel count, subjects, feature kind
- ``recordings/<subject>_<run>.bin`` + ``.json`` — little-endian float32 C×T
- ``events/<subject>_<run>.csv`` — ``onset_s,duration_s,word,segment_id``
- ``audio/<segment_id>.wav`` — 16 kHz mono 16-bit PCM
- ``features/<segment_id>.bin`` + ``.json`` — little-endian float32 F×T_feat
- ``splits.json`` — segment_id -> split, plus the ratios and seed used

Each reader checks the rules of the file it reads and raises
:class:`DatasetFormatError` naming the file; ingest, training and evaluation
all read through these readers, so a violation fails each the same way.
"""

from __future__ import annotations

import csv
import json
import math
import re
import wave
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from .types import (SPLITS, Recording, RecordingInfo, SpeechSegment, SplitAssignment,
                    WordEvent)

EVENTS_HEADER = ["onset_s", "duration_s", "word", "segment_id"]
MANIFEST_KEYS = ("name", "recording_rate", "audio_rate", "channels", "subjects")
NUMBER = (int, float)  # the JSON types of a number that need not be an integer
_SEGMENT_ID = re.compile(r"-?[0-9]+")  # as written in the events and splits.json


class DatasetFormatError(ValueError):
    """A file in the dataset root, an eval report or a checkpoint manifest
    violates its format."""


def dump_json(path: Path, obj) -> None:
    """``obj`` as indented, key-sorted UTF-8 JSON plus a newline."""
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_json_object(path: Path, keys: Tuple[str, ...]) -> dict:
    """A UTF-8 JSON object that holds every one of ``keys``."""
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise DatasetFormatError(f"missing file: {path}")
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path} is not UTF-8: {exc}")
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"invalid JSON in {path}: {exc}")
    if not isinstance(obj, dict):
        raise DatasetFormatError(f"{path}: expected a JSON object")
    for key in keys:
        if key not in obj:
            raise DatasetFormatError(f"{path}: missing key {key!r}")
    return obj


def _read_matrix(path: Path, rows: int, cols: int) -> np.ndarray:
    """Read a little-endian float32 rows x cols file into one writable float32
    array; every value must be finite."""
    expect = rows * cols * 4
    try:
        found = path.stat().st_size
    except FileNotFoundError:
        raise DatasetFormatError(f"missing file: {path}")
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
    dump_json(root / "manifest.json", manifest)


def read_manifest(root: Path) -> dict:
    """The manifest: ``subjects`` a non-empty list of distinct non-empty
    strings, ``channels`` and ``audio_rate`` positive integers, and
    ``recording_rate``, ``window_s`` and ``anchor_s`` positive numbers with
    ``anchor_s`` below ``window_s``. ``window_s``, the length of every
    window, and ``anchor_s``, the offset of its anchor word, default to 3.0
    and 0.5 seconds."""
    path = Path(root) / "manifest.json"
    manifest = {"window_s": 3.0, "anchor_s": 0.5, **load_json_object(path, MANIFEST_KEYS)}
    subjects = manifest["subjects"]
    if not (isinstance(subjects, list) and subjects
            and all(isinstance(s, str) and s for s in subjects)
            and len(set(subjects)) == len(subjects)):
        raise DatasetFormatError(
            f"{path}: subjects {subjects!r} is not a list of distinct non-empty strings")
    for key, kinds in (("channels", int), ("audio_rate", int), ("recording_rate", NUMBER),
                       ("window_s", NUMBER), ("anchor_s", NUMBER)):
        _number(path, key, manifest[key], kinds)
    if manifest["anchor_s"] >= manifest["window_s"]:
        raise DatasetFormatError(f"{path}: anchor_s {manifest['anchor_s']!r} is not below "
                                 f"window_s {manifest['window_s']!r}")
    return manifest


def _number(path: Path, key: str, value, kinds=int, zero: bool = False):
    """``value`` if it is a finite ``kinds`` (an int, or with ``NUMBER`` an
    int or float; never a bool) above 0, or with ``zero`` at least 0, else a
    :class:`DatasetFormatError` naming ``path``."""
    if (isinstance(value, bool) or not isinstance(value, kinds)
            or not (0 <= value if zero else 0 < value) or not value < np.inf):
        sign = "non-negative" if zero else "positive"
        noun = "integer" if kinds is int else "number"
        raise DatasetFormatError(f"{path}: {key} {value!r} is not a {sign} {noun}")
    return value


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
    dump_json(
        rec_dir / f"{recording_id}.json",
        {
            "channels": int(arr.shape[0]),
            "samples": int(arr.shape[1]),
            "sample_rate": float(sample_rate),
            "channel_names": list(channel_names),
            "positions": [[float(x), float(y)] for x, y in np.asarray(positions)],
        },
    )


def read_recording_info(root: Path, recording_id: str, manifest: dict) -> RecordingInfo:
    """Read a recording's sidecar as the manifest describes it: its subject,
    the id before the last ``_``, must be a manifest subject (whose index
    becomes ``subject_id``), and its channel count must be the manifest's."""
    rec_dir = Path(root) / "recordings"
    subject = recording_id.rsplit("_", 1)[0]
    if subject not in manifest["subjects"]:
        raise DatasetFormatError(
            f"{rec_dir / recording_id}.bin: subject {subject!r} not in manifest")
    path = rec_dir / f"{recording_id}.json"
    meta = load_json_object(path, ("channels", "samples", "sample_rate", "channel_names",
                                   "positions"))
    channels = _number(path, "channels", meta["channels"])
    if channels != manifest["channels"]:
        raise DatasetFormatError(
            f"{path}: {channels} channels, manifest says {manifest['channels']}")
    samples = _number(path, "samples", meta["samples"])
    sample_rate = float(_number(path, "sample_rate", meta["sample_rate"], NUMBER))
    try:
        return RecordingInfo(
            recording_id=recording_id,
            subject_id=manifest["subjects"].index(subject),
            channel_names=list(meta["channel_names"]),
            positions=np.asarray(meta["positions"], dtype=np.float64),
            sample_rate=sample_rate,
            n_channels=channels,
            n_samples=samples,
        )
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None


def read_recording(root: Path, recording_id: str, manifest: dict) -> Recording:
    """Read a recording: its sidecar through :func:`read_recording_info`,
    then its signal, whose every value must be finite."""
    info = read_recording_info(root, recording_id, manifest)
    signal = _read_matrix(Path(root) / "recordings" / f"{recording_id}.bin",
                          info.n_channels, info.n_samples)
    return Recording(**vars(info), signal=signal)


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
            try:
                onset, duration, word, segment_id = line
                row = (float(onset), float(duration), word, _segment_id(segment_id))
            except ValueError:
                raise DatasetFormatError(
                    f"{path}: line {reader.line_num}: expected "
                    f"{','.join(EVENTS_HEADER)}, got {','.join(line)!r}") from None
            if not (math.isfinite(row[0]) and math.isfinite(row[1])):
                raise DatasetFormatError(
                    f"{path}: line {reader.line_num}: onset {onset!r} and duration "
                    f"{duration!r} must be finite")
            rows.append(row)
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


def read_audio(root: Path, segment_id: int, audio_rate) -> Tuple[np.ndarray, int]:
    """Samples in [-1, 1] and the rate of a mono 16-bit PCM file recorded at
    the manifest's ``audio_rate``."""
    path = Path(root) / "audio" / f"{segment_id}.wav"
    if not path.exists():
        raise DatasetFormatError(f"missing file: {path}")
    try:
        with wave.open(str(path), "rb") as wf:
            if wf.getnchannels() != 1 or wf.getsampwidth() != 2:
                raise DatasetFormatError(f"{path}: expected mono 16-bit PCM")
            rate = wf.getframerate()
            if rate != audio_rate:
                raise DatasetFormatError(f"{path}: rate {rate} != manifest {audio_rate}")
            raw = wf.readframes(wf.getnframes())
    except (wave.Error, EOFError) as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32767.0
    return samples, rate


def write_feature_file(root: Path, segment_id: int, features: np.ndarray, feature_rate: float) -> None:
    ft_dir = root / "features"
    ft_dir.mkdir(parents=True, exist_ok=True)
    arr = np.ascontiguousarray(features, dtype="<f4")
    (ft_dir / f"{segment_id}.bin").write_bytes(arr.tobytes())
    dump_json(
        ft_dir / f"{segment_id}.json",
        {"features": int(arr.shape[0]), "samples": int(arr.shape[1]),
         "feature_rate": float(feature_rate)},
    )


def read_feature_file(root: Path, segment_id: int) -> Tuple[np.ndarray, float]:
    ft_dir = Path(root) / "features"
    path = ft_dir / f"{segment_id}.json"
    meta = load_json_object(path, ("features", "samples", "feature_rate"))
    arr = _read_matrix(ft_dir / f"{segment_id}.bin",
                       _number(path, "features", meta["features"]),
                       _number(path, "samples", meta["samples"]))
    return arr, float(_number(path, "feature_rate", meta["feature_rate"], NUMBER))


def write_splits(root: Path, splits: SplitAssignment) -> None:
    dump_json(
        Path(root) / "splits.json",
        {
            "ratios": list(splits.ratios),
            "seed": splits.seed,
            "excluded": list(splits.excluded),
            "assignment": {str(k): v for k, v in sorted(splits.assignment.items())},
        },
    )


def read_splits(root: Path) -> SplitAssignment:
    """The split of each segment id (a JSON object key: a string of decimal
    digits, optionally after a minus sign, and no two keys the same id);
    ``ratios`` three finite non-negative numbers, and ``seed`` and each
    ``excluded`` segment id non-negative integers."""
    path = Path(root) / "splits.json"
    obj = load_json_object(path, ("assignment", "ratios", "seed"))
    assignment: Dict[int, str] = {}
    for key, split in obj["assignment"].items():
        try:
            sid = _segment_id(key)
        except ValueError as exc:
            raise DatasetFormatError(f"{path}: {exc}") from None
        if sid in assignment:
            raise DatasetFormatError(f"{path}: segment id {key!r} repeats segment {sid}")
        assignment[sid] = split
    for sid, split in assignment.items():
        if split not in SPLITS:
            raise DatasetFormatError(f"{path}: segment {sid} has unknown split {split!r}")
    ratios = obj["ratios"]
    if not (isinstance(ratios, list) and len(ratios) == 3):
        raise DatasetFormatError(f"{path}: ratios {ratios!r} is not a list of three numbers")
    return SplitAssignment(
        assignment=assignment,
        ratios=tuple(_number(path, "ratio", r, NUMBER, zero=True) for r in ratios),
        seed=_number(path, "seed", obj["seed"], zero=True),
        excluded=[_number(path, "excluded segment id", x, zero=True)
                  for x in obj.get("excluded", [])],
    )


def _segment_id(text: str) -> int:
    """``text`` as a segment id: decimal digits, optionally after a minus
    sign (``int`` alone would also read ``"1_0"`` as 10 and ``" 9 "`` as 9)."""
    if not _SEGMENT_ID.fullmatch(text):
        raise ValueError(f"segment id {text!r} is not an integer")
    return int(text)


def recording_ids(root: Path) -> List[str]:
    """The ids of the recordings under ``root``; there must be at least one."""
    rec_dir = Path(root) / "recordings"
    ids = sorted(p.stem for p in rec_dir.glob("*.bin"))
    if not ids:
        raise DatasetFormatError(f"{rec_dir}: no recordings found")
    return ids


def load_segments(root: Path, manifest: dict
                  ) -> Tuple[Dict[int, SpeechSegment], Dict[str, Dict[int, float]]]:
    """Reconstruct segment records from the events, and each recording's
    earliest word onset per segment it presents.

    A segment's words are gathered from any one recording presenting it
    (presentations are identical by construction); its start within the
    recording is the earliest word onset minus the manifest's ``anchor_s``,
    and its duration the manifest's ``window_s``. The onsets are keyed by
    recording id, for every recording.
    """
    root = Path(root)
    anchor = manifest["anchor_s"]
    segments: Dict[int, SpeechSegment] = {}
    first_onsets: Dict[str, Dict[int, float]] = {}
    for rec_id in recording_ids(root):
        per_segment: Dict[int, List[Tuple[float, float, str]]] = {}
        for onset, dur, word, sid in read_events(root, rec_id):
            per_segment.setdefault(sid, []).append((onset, dur, word))
        onsets = first_onsets[rec_id] = {
            sid: min(r[0] for r in rows) for sid, rows in per_segment.items()}
        for sid, rows in per_segment.items():
            if sid in segments:
                continue
            # first presentation seen defines the source-time span
            start = onsets[sid] - anchor
            words = [WordEvent(onset=o - start, duration=d, word=w) for o, d, w in sorted(rows)]
            segments[sid] = SpeechSegment(segment_id=sid, duration=manifest["window_s"],
                                          source_start=start, words=words)
    return segments, first_onsets
