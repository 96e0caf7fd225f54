import hashlib
import json
import logging
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from brainspeech.dataset import (
    RecordingInfo,
    SpeechSegment,
    SynthSpec,
    WordEvent,
    build_splits,
    generate_synthetic,
    io,
    normalize_token,
    segment_onset,
    window_start,
)


def make_segments(n, dur=3.0, gap=1.0, with_words=True):
    segs = []
    for i in range(n):
        words = [WordEvent(onset=0.5, duration=0.25, word=f"w{i}")] if with_words else []
        segs.append(SpeechSegment(segment_id=i, duration=dur,
                                  source_start=i * (dur + gap), words=words))
    return segs


class TestBuildSplits:
    def test_divisible_counts_exact(self):
        splits = build_splits(make_segments(10), ratios=(0.7, 0.2, 0.1), seed=0)
        sizes = {s: len(splits.ids_in(s)) for s in ("train", "valid", "test")}
        assert sizes == {"train": 7, "valid": 2, "test": 1}

    def test_repetitions_share_split(self):
        segs = make_segments(8)
        segs = segs + [segs[5]]  # repeated presentation of one segment
        splits = build_splits(segs, seed=1)
        assert sum(len(splits.ids_in(s)) for s in ("train", "valid", "test")) == 8

    def test_overlap_drops_lower_priority(self):
        # craft a deterministic overlap: A train 0-3s, B valid 2-5s
        a = SpeechSegment(segment_id=0, source_start=0.0,
                          words=[WordEvent(0.5, 0.25, "a")])
        b = SpeechSegment(segment_id=1, source_start=2.0,
                          words=[WordEvent(0.5, 0.25, "b")])
        found = False
        for seed in range(50):
            splits = build_splits([a, b] + make_segments(8, gap=1.0)[2:], seed=seed)
            sa, sb = splits.split_of(0), splits.split_of(1)
            if sa == "train" and sb is None and 1 in splits.excluded:
                found = True
                break
            if sa is not None and sb is not None:
                assert sa == sb or abs(a.source_start - b.source_start) >= 3.0
        assert found

    def test_partition_is_exclusive(self):
        splits = build_splits(make_segments(31), seed=3)
        seen = set()
        for s in ("train", "valid", "test"):
            ids = set(splits.ids_in(s))
            assert not ids & seen
            seen |= ids

    def test_retained_cross_split_spans_disjoint(self):
        rng = np.random.default_rng(4)
        segs = [
            SpeechSegment(segment_id=i, source_start=float(rng.uniform(0, 60)),
                          words=[WordEvent(0.5, 0.25, "x")])
            for i in range(40)
        ]
        splits = build_splits(segs, seed=4)
        by_id = {s.segment_id: s for s in segs}
        kept = [(sid, sp) for sid, sp in splits.assignment.items()]
        for i, (id_a, sp_a) in enumerate(kept):
            for id_b, sp_b in kept[i + 1 :]:
                if sp_a != sp_b:
                    a, b = by_id[id_a], by_id[id_b]
                    assert a.source_end <= b.source_start or b.source_end <= a.source_start

    def test_deterministic_for_seed(self):
        segs = make_segments(23)
        a = build_splits(segs, seed=7).assignment
        b = build_splits(segs, seed=7).assignment
        assert a == b
        c = build_splits(segs, seed=8).assignment
        assert a != c

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_splits([])

    def test_bad_ratios_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            build_splits(make_segments(5), ratios=(0.7, 0.2, 0.2))

    def test_test_segment_without_anchor_word_rejected(self):
        segs = make_segments(10)
        segs[0].words[0] = WordEvent(onset=1.7, duration=0.25, word="off")
        with pytest.raises(ValueError, match="no word at"):
            for seed in range(50):
                build_splits(segs, seed=seed)


class TestWordOverlap:
    def test_normalization(self):
        assert normalize_token("  'Hello!'") == "hello"
        assert normalize_token("Don't") == "don't"


class TestWindowStart:
    """Brain-window starts at 120 Hz: the speech window starts ``anchor_s``
    before the onset and the brain window ``shift_s`` after that, each
    rounded to a sample on its own."""

    def start(self, onset, shift=0.150, samples=4000, rate=120.0):
        rec = RecordingInfo(
            recording_id="s00_r00",
            subject_id=0,
            channel_names=["c0", "c1"],
            positions=np.array([[0.2, 0.3], [0.7, 0.8]]),
            sample_rate=rate,
            n_channels=2,
            n_samples=samples,
        )
        return window_start(rec, 7, onset, anchor_s=0.5, shift_s=shift, window_samples=360)

    def test_window_arithmetic(self):
        assert self.start(10.0) == 1158

    def test_zero_shift_identity(self):
        assert self.start(10.0, shift=0.0) == 1140  # the speech window's start

    def test_300ms_shift(self):
        assert self.start(10.0, shift=0.300) - self.start(10.0, shift=0.0) == 36

    def test_shift_offset_exact_for_any_onset(self):
        rng = np.random.default_rng(0)
        for onset in rng.uniform(1.0, 20.0, size=50):
            assert self.start(float(onset)) - self.start(float(onset), shift=0.0) == 18

    def test_skips_at_each_edge(self, caplog):
        caplog.set_level(logging.INFO)
        # the speech window starts before the recording, the brain window not
        assert self.start(0.5 - 1 / 120) is None
        assert self.start(0.5) == 18
        # the brain window starts before the recording, the speech window not
        assert self.start(0.5, shift=-1 / 120) is None
        assert self.start(0.5 + 1 / 120, shift=-1 / 120) == 0
        # the brain window ends after the recording
        assert self.start(0.5 + 23 / 120, samples=400) is None
        assert self.start(0.5 + 22 / 120, samples=400) == 400 - 360
        assert [r.getMessage() for r in caplog.records] == [
            f"skipping sample: s00_r00: window for segment 7 at {onset:.3f}s falls "
            "outside the recording" for onset in (0.5 - 1 / 120, 0.5, 0.5 + 23 / 120)]

    @pytest.mark.parametrize("rate", [500.0, 600.0, 1000.0])
    def test_end_bound_is_the_working_rate_length(self, rate):
        """A recording at another rate is bounded by its length once
        resampled: 400 samples at 120 Hz, whatever its own rate."""
        samples = round(400 * rate / 120.0)
        assert self.start(0.5 + 23 / 120, samples=samples, rate=rate) is None
        assert self.start(0.5 + 22 / 120, samples=samples, rate=rate) == 400 - 360


def dataset_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class TestSyntheticGeneration:
    def small_spec(self, **kw):
        base = dict(subjects=2, segments=12, channels=6, features=4,
                    noise_std=0.0, seed=5, vocab_size=8)
        base.update(kw)
        return SynthSpec(**base)

    def test_byte_identical_across_runs(self, tmp_path):
        spec = self.small_spec()
        generate_synthetic(spec, tmp_path / "a")
        generate_synthetic(self.small_spec(), tmp_path / "b")
        assert dataset_digest(tmp_path / "a") == dataset_digest(tmp_path / "b")

    def test_different_seed_differs(self, tmp_path):
        generate_synthetic(self.small_spec(), tmp_path / "a")
        generate_synthetic(self.small_spec(seed=6), tmp_path / "b")
        assert dataset_digest(tmp_path / "a") != dataset_digest(tmp_path / "b")

    def test_noiseless_recording_is_linear_in_latents(self, tmp_path):
        spec = self.small_spec()
        generate_synthetic(spec, tmp_path)
        manifest = io.read_manifest(tmp_path)
        rec = io.read_recording(tmp_path, "s00_r00", manifest)
        mixing = np.frombuffer(
            (tmp_path / "truth" / "mixing_s00.bin").read_bytes(), dtype="<f4"
        ).reshape(spec.channels, spec.features)
        meta = json.loads((tmp_path / "truth" / "meta.json").read_text())
        kernel = np.array(meta["smoothing_kernel"])
        latent, rate = io.read_feature_file(tmp_path, 0)
        # rebuild the expected response for segment 0 and compare
        pad = len(kernel) // 2
        padded = np.pad(latent.astype(np.float64), ((0, 0), (pad, pad)), mode="edge")
        smooth = np.stack([np.convolve(r, kernel, mode="valid") for r in padded])
        start = int(round(segment_onset(spec, 0) * 120)) + 18
        want = (mixing.astype(np.float64) @ smooth).astype(np.float32)
        got = rec.signal[:, start : start + 360]
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_format_roundtrip(self, tmp_path):
        spec = self.small_spec()
        info = generate_synthetic(spec, tmp_path)
        assert sum(info["splits"].values()) == spec.segments
        manifest = io.read_manifest(tmp_path)
        assert manifest["channels"] == 6
        assert len(io.recording_ids(tmp_path)) == 2
        segments, _ = io.load_segments(tmp_path, manifest)
        splits = io.read_splits(tmp_path)
        assert len(segments) == spec.segments
        for seg in segments.values():
            assert splits.split_of(seg.segment_id) in ("train", "valid", "test")
            assert seg.anchor_word(0.5) is not None
        audio, rate = io.read_audio(tmp_path, 0, manifest["audio_rate"])
        assert rate == 16000
        assert len(audio) == 48000

    def test_heldout_vocab_only_in_test_anchors(self, tmp_path):
        spec = self.small_spec(segments=40, vocab_size=20, heldout_vocab_frac=0.4)
        generate_synthetic(spec, tmp_path)
        segments, _ = io.load_segments(tmp_path, io.read_manifest(tmp_path))
        test_ids = set(io.read_splits(tmp_path).ids_in("test"))
        held = {f"w{i:03d}" for i in range(12, 20)}
        train_words = {
            w.word for sid, s in segments.items() if sid not in test_ids for w in s.words
        }
        assert not train_words & held
        test_anchors = {segments[sid].anchor_word(0.5).word for sid in test_ids}
        assert test_anchors & held  # some zero-shot anchors exist

    def test_outlier_injection(self, tmp_path):
        spec = self.small_spec(outlier_frac=0.001, outlier_scale=1000.0)
        generate_synthetic(spec, tmp_path)
        rec = io.read_recording(tmp_path, "s00_r00", io.read_manifest(tmp_path))
        frac = np.mean(np.abs(rec.signal) > 100.0)
        assert 0.0003 < frac < 0.003

    def test_invalid_spec_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            generate_synthetic(self.small_spec(noise_std=-1.0), tmp_path)
        with pytest.raises(ValueError):
            generate_synthetic(self.small_spec(segments=0), tmp_path)


class TestInterchangeValidation:
    def test_truncated_recording_detected(self, tmp_path):
        generate_synthetic(SynthSpec(subjects=1, segments=4, channels=3, features=2,
                                     seed=0, vocab_size=4), tmp_path)
        path = tmp_path / "recordings" / "s00_r00.bin"
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(io.DatasetFormatError, match="s00_r00.bin"):
            io.read_recording(tmp_path, "s00_r00", io.read_manifest(tmp_path))

    def test_events_header_checked(self, tmp_path):
        generate_synthetic(SynthSpec(subjects=1, segments=4, channels=3, features=2,
                                     seed=0, vocab_size=4), tmp_path)
        path = tmp_path / "events" / "s00_r00.csv"
        path.write_text("onset,word\n1.0,hi\n")
        with pytest.raises(io.DatasetFormatError, match="header"):
            io.read_events(tmp_path, "s00_r00")

    @staticmethod
    def _events_with(root, column, value):
        """``s00_r00.csv`` with ``value`` in ``column`` of its second row; its fields."""
        generate_synthetic(SynthSpec(subjects=1, segments=4, channels=3, features=2,
                                     seed=0, vocab_size=4), root)
        path = root / "events" / "s00_r00.csv"
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[column] = value
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        return path, fields

    @pytest.mark.parametrize("column, value", [
        (0, "nan"), (0, "inf"), (1, "-inf"), (1, "NaN")])
    def test_events_non_finite_named(self, tmp_path, column, value):
        path, fields = self._events_with(tmp_path, column, value)
        with pytest.raises(io.DatasetFormatError) as err:
            io.read_events(tmp_path, "s00_r00")
        onset, duration = fields[:2]
        assert str(err.value) == (f"{path}: line 3: onset {onset!r} and duration "
                                  f"{duration!r} must be finite")

    @pytest.mark.parametrize("value", ["1_0", " 1", "+1"])
    def test_events_segment_id_read_strictly(self, tmp_path, value):
        path, fields = self._events_with(tmp_path, 3, value)
        with pytest.raises(io.DatasetFormatError) as err:
            io.read_events(tmp_path, "s00_r00")
        assert str(err.value) == (f"{path}: line 3: expected onset_s,duration_s,word,"
                                  f"segment_id, got {','.join(fields)!r}")

    @pytest.mark.parametrize("keys, what", [
        (["1_0"], "segment id '1_0' is not an integer"),
        ([" 9 "], "segment id ' 9 ' is not an integer"),
        (["+3"], "segment id '+3' is not an integer"),
        (["\u0663"], "segment id '\u0663' is not an integer"),
        (["007"], "segment id '007' repeats segment 7"),
        (["-0"], "segment id '-0' repeats segment 0"),
    ])
    def test_splits_keys_read_strictly(self, tmp_path, keys, what):
        path = self._splits_with(tmp_path, "seed", 2)
        obj = json.loads(path.read_text())
        for key in keys:
            obj["assignment"][key] = "train"
        path.write_text(json.dumps(obj))
        with pytest.raises(io.DatasetFormatError) as err:
            io.read_splits(tmp_path)
        assert str(err.value) == f"{path}: {what}"

    def test_splits_roundtrip(self, tmp_path):
        splits = build_splits(make_segments(9), seed=2)
        io.write_splits(tmp_path, splits)
        again = io.read_splits(tmp_path)
        assert again.assignment == splits.assignment
        assert again.seed == splits.seed

    @pytest.mark.parametrize("key, value, what", [
        ("seed", "two", "seed 'two'"),
        ("seed", None, "seed None"),
        ("seed", 1.5, "seed 1.5"),
        ("seed", True, "seed True"),
        ("seed", -1, "seed -1"),
        ("excluded", ["y"], "excluded segment id 'y'"),
        ("excluded", [2.7], "excluded segment id 2.7"),
        ("excluded", [True], "excluded segment id True"),
    ])
    def test_splits_non_integer_named(self, tmp_path, key, value, what):
        path = self._splits_with(tmp_path, key, value)
        with pytest.raises(io.DatasetFormatError) as err:
            io.read_splits(tmp_path)
        assert str(err.value) == f"{path}: {what} is not a non-negative integer"

    @pytest.mark.parametrize("value, what", [
        ("abc", "ratios 'abc' is not a list of three numbers"),
        ([0.7, 0.3], "ratios [0.7, 0.3] is not a list of three numbers"),
        ([0.7, 0.2, "0.1"], "ratio '0.1' is not a non-negative number"),
        ([0.7, 0.2, False], "ratio False is not a non-negative number"),
        ([0.7, 0.4, -0.1], "ratio -0.1 is not a non-negative number"),
        ([0.7, 0.2, float("nan")], "ratio nan is not a non-negative number"),
    ])
    def test_splits_ratios_checked(self, tmp_path, value, what):
        path = self._splits_with(tmp_path, "ratios", value)
        with pytest.raises(io.DatasetFormatError) as err:
            io.read_splits(tmp_path)
        assert str(err.value) == f"{path}: {what}"

    def test_splits_zero_seed_and_ratio_read(self, tmp_path):
        self._splits_with(tmp_path, "ratios", [1, 0, 0.0])
        splits = io.read_splits(tmp_path)
        assert splits.ratios == (1, 0, 0.0)
        assert splits.seed == 2

    @staticmethod
    def _splits_with(root, key, value):
        """A written ``splits.json`` whose ``key`` is set to ``value``."""
        io.write_splits(root, build_splits(make_segments(9), seed=2))
        path = root / "splits.json"
        obj = json.loads(path.read_text())
        obj[key] = value
        path.write_text(json.dumps(obj))
        return path


@pytest.mark.parametrize("key, value, what", [
    ("subjects", [["s00"]], "subjects [['s00']] is not a list of distinct non-empty strings"),
    ("subjects", [""], "subjects [''] is not a list of distinct non-empty strings"),
    ("subjects", [], "subjects [] is not a list of distinct non-empty strings"),
    ("channels", 8.0, "channels 8.0 is not a positive integer"),
    ("channels", 0, "channels 0 is not a positive integer"),
    ("audio_rate", None, "audio_rate None is not a positive integer"),
    ("recording_rate", False, "recording_rate False is not a positive number"),
    ("window_s", float("inf"), "window_s inf is not a positive number"),
    ("anchor_s", float("nan"), "anchor_s nan is not a positive number"),
    ("anchor_s", 3, "anchor_s 3 is not below window_s 3"),
])
def test_manifest_value_types_named(tmp_path, key, value, what):
    manifest = {"name": "x", "recording_rate": 120.0, "audio_rate": 16000, "channels": 8,
                "subjects": ["s00", "s01"], "window_s": 3, "anchor_s": 0.5}
    io.write_manifest(tmp_path, manifest)
    assert io.read_manifest(tmp_path) == manifest  # the valid manifest reads back
    manifest[key] = value
    io.write_manifest(tmp_path, manifest)
    with pytest.raises(io.DatasetFormatError) as err:
        io.read_manifest(tmp_path)
    assert str(err.value) == f"{tmp_path / 'manifest.json'}: {what}"


def test_manifest_window_defaults(tmp_path):
    io.write_manifest(tmp_path, {"name": "x", "recording_rate": 120.0, "audio_rate": 16000,
                                 "channels": 8, "subjects": ["s00"]})
    manifest = io.read_manifest(tmp_path)
    assert (manifest["window_s"], manifest["anchor_s"]) == (3.0, 0.5)


def test_matrix_read_names_the_first_non_finite_value_in_a_later_block(tmp_path):
    """A 9.4 MB feature file is checked in blocks of rows with about 1 MiB of
    booleans at a time; the error names the first bad value in row order."""
    arr = np.random.default_rng(0).normal(size=(1200, 2048)).astype(np.float32)
    arr[1150, 0] = np.inf
    arr[1100, 7] = np.nan
    io.write_feature_file(tmp_path, 0, arr, 50.0)
    path = tmp_path / "features" / "0.bin"
    tracemalloc.start()
    try:
        with pytest.raises(io.DatasetFormatError) as err:
            io.read_feature_file(tmp_path, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == f"{path}: non-finite value nan at row 1100, column 7"
    assert peak <= arr.nbytes + (1 << 20) + (64 << 10)


@pytest.mark.parametrize("folder, key, value, what", [
    ("recordings", "channels", "3", "channels '3' is not a positive integer"),
    ("recordings", "channels", 3.0, "channels 3.0 is not a positive integer"),
    ("recordings", "samples", 480.0, "samples 480.0 is not a positive integer"),
    ("recordings", "sample_rate", "120", "sample_rate '120' is not a positive number"),
    ("recordings", "sample_rate", float("nan"), "sample_rate nan is not a positive number"),
    ("features", "features", True, "features True is not a positive integer"),
    ("features", "samples", 0, "samples 0 is not a positive integer"),
    ("features", "feature_rate", -50.0, "feature_rate -50.0 is not a positive number"),
])
def test_sidecar_value_types_named(tmp_path, folder, key, value, what):
    generate_synthetic(SynthSpec(subjects=1, segments=4, channels=3, features=2,
                                 seed=0, vocab_size=4), tmp_path)
    manifest = io.read_manifest(tmp_path)
    read = {"recordings": lambda: io.read_recording(tmp_path, "s00_r00", manifest),
            "features": lambda: io.read_feature_file(tmp_path, 0)}[folder]
    path = tmp_path / folder / ("s00_r00.json" if folder == "recordings" else "0.json")
    meta = json.loads(path.read_text())
    read()  # the valid sidecar reads
    meta[key] = value
    path.write_text(json.dumps(meta))
    with pytest.raises(io.DatasetFormatError) as err:
        read()
    assert str(err.value) == f"{path}: {what}"
