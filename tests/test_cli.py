import hashlib
import json
import logging
import os
import re
import shutil
import stat
import subprocess
import wave
from pathlib import Path

import numpy as np
import pytest

import brainspeech.cli
from brainspeech import checkpoint
from brainspeech.brain_net import BrainNet, deep_mel_config
from brainspeech.checkpoint import load_checkpoint, save_checkpoint
from brainspeech.cli import _pipeline_for_checkpoint, _version_stamp, main
from brainspeech.dataset import io as dataset_io
from brainspeech.config import Config
from brainspeech.pipeline import DataConfig
from brainspeech.training import data_config_from, train


SYNTH_CFG = """[synth]
subjects = 2
segments = 36
channels = 8
features = 6
noise_std = 0.0
seed = 11
vocab_size = 10
"""

TRAIN_CFG = """[dataset]
root = {root}
[speech]
representation = external
[model]
d1 = 16
d2 = 16
harmonics = 4
[training]
batch_size = 8
max_epochs = 4
seed = 1
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cli")
    (ws / "tiny.cfg").write_text(SYNTH_CFG)
    assert main(["synth", "--spec", str(ws / "tiny.cfg"), "--out", str(ws / "data")]) == 0
    (ws / "train.cfg").write_text(TRAIN_CFG.format(root=ws / "data"))
    assert main(["train", "--config", str(ws / "train.cfg"), "--out", str(ws / "run")]) == 0
    return ws


class TestPipelineSmoke:
    def test_ingest_ok(self, workspace):
        assert main(["ingest", "--dataset", str(workspace / "data")]) == 0

    def test_train_wrote_run_json_and_history(self, workspace):
        run = json.loads((workspace / "run" / "run.json").read_text())
        assert run["command"] == "train"
        assert run["config"]["training"]["seed"] == 1
        header = (workspace / "run" / "history.csv").read_text().splitlines()[0]
        assert header == "epoch,train_loss,valid_loss,valid_top10"

    def test_best_holds_manifest_and_one_blob(self, workspace):
        best = workspace / "run" / "best"
        manifest = json.loads((best / "manifest.json").read_text())
        assert sorted(p.name for p in best.iterdir()) == ["manifest.json", manifest["blob"]]
        assert re.fullmatch(r"state-[0-9a-f]{16}\.bin", manifest["blob"])
        assert manifest["blob"] == f"state-{manifest['sha256'][:16]}.bin"
        assert "adam" not in manifest

    def test_eval_outputs(self, workspace):
        out = workspace / "eval"
        assert main(["eval", "--checkpoint", str(workspace / "run" / "best"),
                     "--dataset", str(workspace / "data"), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["n_candidates"] >= 2
        probs_meta = json.loads((out / "probs.json").read_text())
        raw = np.frombuffer((out / "probs.bin").read_bytes(), dtype="<f4")
        assert raw.size == probs_meta["trials"] * probs_meta["candidates"]
        assert (out / "words.csv").exists()
        assert (out / "recon" / "0.bin").exists()
        run = json.loads((out / "run.json").read_text())
        trained = json.loads((workspace / "run" / "run.json").read_text())
        assert run["config"] == trained["config"]

    def test_eval_rerun_byte_identical(self, workspace):
        a = workspace / "eval_a"
        b = workspace / "eval_b"
        for out in (a, b):
            assert main(["eval", "--checkpoint", str(workspace / "run" / "best"),
                         "--dataset", str(workspace / "data"), "--out", str(out)]) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        assert (a / "probs.bin").read_bytes() == (b / "probs.bin").read_bytes()

    def test_eval_builds_the_word_table_once(self, workspace, tmp_path, monkeypatch):
        from brainspeech.evaluation import scoring

        calls = []
        for module in (brainspeech.cli, scoring):
            real = module.word_level_eval

            def counted(report, real=real):
                calls.append(report)
                return real(report)

            monkeypatch.setattr(module, "word_level_eval", counted)
        assert main(["eval", "--checkpoint", str(workspace / "run" / "best"),
                     "--dataset", str(workspace / "data"), "--out", str(tmp_path),
                     "--no-recon"]) == 0
        assert len(calls) == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["zero_shot"]["overall_top10"] == report["word_level"]["top10"]

    def test_attention_dump_csv(self, workspace, monkeypatch):
        """Positions and channel names come from the first recording's sidecar;
        no signal file is read."""
        monkeypatch.setattr(dataset_io, "read_recording",
                            lambda *a: pytest.fail("attention-dump read a signal file"))
        out = workspace / "attn.csv"
        assert main(["attention-dump", "--checkpoint", str(workspace / "run" / "best"),
                     "--dataset", str(workspace / "data"), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sensor,x,y,mean_weight"
        assert len(lines) == 9  # header + 8 sensors
        weights = [float(line.split(",")[3]) for line in lines[1:]]
        assert sum(weights) == pytest.approx(1.0, abs=1e-6)
        meta = json.loads((workspace / "data" / "recordings" / "s00_r00.json").read_text())
        assert [line.split(",")[0] for line in lines[1:]] == meta["channel_names"]

    def test_analyze_with_features_and_compare(self, workspace):
        report = json.loads((workspace / "eval" / "report.json").read_text())
        n = len(report["true_word_prob"])
        feat_dir = workspace / "tables"
        feat_dir.mkdir(exist_ok=True)
        rng = np.random.default_rng(0)
        np.savetxt(feat_dir / "zipf.csv", rng.normal(size=(n, 1)), delimiter=",")
        np.savetxt(feat_dir / "embedding.csv", rng.normal(size=(n, 5)), delimiter=",")
        out = workspace / "analysis"
        assert main(["analyze", "--report", str(workspace / "eval"),
                     "--features", str(feat_dir),
                     "--compare", str(workspace / "eval"), "--paired",
                     "--out", str(out)]) == 0
        result = json.loads((out / "analysis.json").read_text())
        assert set(result["prediction_analysis"]["pearson_r"]) == {"zipf", "embedding"}
        assert result["comparison"]["p"] == 1.0  # compared with itself


def _edit_json(path, edit):
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))
    return path


def _first_train_segment(root):
    return dataset_io.read_splits(root).ids_in("train")[0]


def _manifest_without(key):
    def corrupt(root):
        return _edit_json(root / "manifest.json", lambda m: m.pop(key))
    return corrupt


def _manifest_value(key, value):
    def corrupt(root):
        return _edit_json(root / "manifest.json", lambda m: m.update({key: value}))
    return corrupt


def _dev_split(root):
    return _edit_json(root / "splits.json", lambda s: s["assignment"].update({"0": "dev"}))


def _unknown_subject(root):
    for folder, suffix in (("recordings", ".bin"), ("recordings", ".json"),
                           ("events", ".csv")):
        shutil.copy(root / folder / f"s00_r00{suffix}", root / folder / f"s09_r00{suffix}")
    return root / "recordings" / "s09_r00.bin"


def _non_integer_segment_id(root):
    return _edit_json(root / "splits.json", lambda s: s["assignment"].update({"x": "train"}))


def _underscored_segment_id(root):
    return _edit_json(root / "splits.json", lambda s: s["assignment"].update({"1_0": "train"}))


def _splits_value(key, value):
    def corrupt(root):
        return _edit_json(root / "splits.json", lambda s: s.update({key: value}))
    return corrupt


def _recording_without_channels(root):
    return _edit_json(root / "recordings" / "s00_r00.json", lambda m: m.pop("channels"))


def _features_without_rate(root):
    return _edit_json(root / "features" / f"{_first_train_segment(root)}.json",
                      lambda m: m.pop("feature_rate"))


def _sidecar_value(folder, key, change):
    """``change(value)`` as ``key`` of a recording's or a training segment's
    feature sidecar."""
    def corrupt(root):
        stem = "s00_r00" if folder == "recordings" else _first_train_segment(root)
        return _edit_json(root / folder / f"{stem}.json",
                          lambda m: m.update({key: change(m[key])}))
    return corrupt


def _null_sidecar_value(folder, key):
    return _sidecar_value(folder, key, lambda value: None)


def _splits_without_assignment(root):
    return _edit_json(root / "splits.json", lambda s: s.pop("assignment"))


def _three_field_event(root):
    path = root / "events" / "s00_r00.csv"
    lines = path.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    return path


def _nan_onset(root):
    path = root / "events" / "s00_r00.csv"
    lines = path.read_text().splitlines()
    lines[1] = "nan," + lines[1].split(",", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    return path


def _manifest_channels(root):
    _edit_json(root / "manifest.json", lambda m: m.update(channels=6))
    return root / "recordings" / "s00_r00.json"


def _wav_8khz(root):
    path = root / "audio" / f"{_first_train_segment(root)}.wav"
    with wave.open(str(path), "rb") as wf:
        pcm = np.frombuffer(wf.readframes(wf.getnframes()), dtype="<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(8000)
        wf.writeframes(pcm[::2].tobytes())
    return path


class TestErrorPaths:
    def test_ingest_truncated_recording(self, workspace, tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(workspace / "data", broken)
        target = broken / "recordings" / "s00_r00.bin"
        target.write_bytes(target.read_bytes()[:-12])
        assert main(["ingest", "--dataset", str(broken)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error category=")
        assert "s00_r00.bin" in err

    def test_unknown_config_key(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[training]\nlearnrate = 3\n")
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "r")]) == 1
        assert "category=config" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        "preprocessing.baseline_s=-1", "training.lr=-1", "training.updates_per_epoch=0",
        "training.max_epochs=0", "training.patience=0",
        "eval.topk=0,10", "training.seed=-1", "eval.restricted_seed=-1", "eval.restricted_n=1",
        "preprocessing.clamp=-5", "preprocessing.clamp=0",
    ])
    def test_out_of_range_value_rejected(self, workspace, tmp_path, capsys, override):
        key = override.split("=")[0]
        assert main(["train", "--config", str(workspace / "train.cfg"),
                     "--out", str(tmp_path / "r"), "--set", override]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error category=config: {key}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("key", ["dataset.window_s", "dataset.anchor_s"])
    @pytest.mark.parametrize("where", ["set", "file"])
    def test_window_keys_rejected(self, workspace, tmp_path, capsys, key, where):
        """The manifest alone sets the window: the run config has no such key."""
        section, name = key.split(".")
        cfg = tmp_path / "train.cfg"
        extra = []
        if where == "set":
            shutil.copy(workspace / "train.cfg", cfg)
            extra = ["--set", f"{key}=2.0"]
        else:
            cfg.write_text((workspace / "train.cfg").read_text()
                           .replace(f"[{section}]\n", f"[{section}]\n{name} = 2.0\n"))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r"),
                     *extra]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error category=config: unknown config key {key}"]
        assert not (tmp_path / "r").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "r")]) == 1
        assert "category=config" in capsys.readouterr().err

    def test_analyze_requires_work(self, workspace, tmp_path, capsys):
        assert main(["analyze", "--report", str(workspace / "eval"),
                     "--out", str(tmp_path / "a")]) == 1
        assert "category=usage" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        '{"topk": {}}', "[1, 2]",
        '{"per_subject_top10": [1], "true_word_prob": {"a": 1}, "trial_subjects": [0]}',
        '{"per_subject_top10": {"0": "x"}, "true_word_prob": [0.5], "trial_subjects": [null]}',
    ], ids=["missing-keys", "array", "wrong-container", "not-a-number"])
    @pytest.mark.parametrize("mode", ["compare-itself", "compare-good", "features"])
    def test_analyze_malformed_report(self, tmp_path, capsys, content, mode):
        """Each mode checks the keys it reads, in every report it reads."""
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "report.json").write_text(content, encoding="utf-8")
        good = tmp_path / "good"
        good.mkdir()
        (good / "report.json").write_text('{"per_subject_top10": {"0": 0.5}}', encoding="utf-8")
        tables = tmp_path / "tables"
        tables.mkdir()
        np.savetxt(tables / "zipf.csv", np.zeros((4, 1)), delimiter=",")
        argv = {
            "compare-itself": ["--report", str(bad), "--compare", str(bad)],
            "compare-good": ["--report", str(good), "--compare", str(bad)],
            "features": ["--report", str(bad), "--features", str(tables)],
        }[mode]
        assert main(["analyze", *argv, "--out", str(tmp_path / "a")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error category=format: ")
        assert err.count("\n") == 1
        assert str(bad / "report.json") in err

    def test_eval_runs_on_the_dataset_window(self, workspace, tmp_path, capsys):
        """A model trained on 3 s windows evaluates 0.8 s isolated-word data on
        that dataset's own windows: no parameter depends on the length."""
        iso = tmp_path / "iso.cfg"
        iso.write_text(
            "[synth]\nsubjects = 1\nsegments = 12\nchannels = 8\nfeatures = 6\n"
            "seed = 2\nvocab_size = 6\nduration = 0.8\nanchor_offset = 0.3\n"
            "words_per_segment = 1\n"
        )
        assert main(["synth", "--spec", str(iso), "--out", str(tmp_path / "isodata")]) == 0
        assert main(["eval", "--checkpoint", str(workspace / "run" / "best"),
                     "--dataset", str(tmp_path / "isodata"), "--no-recon",
                     "--out", str(tmp_path / "e")]) == 0
        assert "error" not in capsys.readouterr().err
        report = json.loads((tmp_path / "e" / "report.json").read_text())
        n_test = len(dataset_io.read_splits(tmp_path / "isodata").ids_in("test"))
        assert report["n_trials"] == report["n_candidates"] == n_test
        pipeline = _pipeline_for_checkpoint(load_checkpoint(workspace / "run" / "best"),
                                            str(tmp_path / "isodata"))
        assert pipeline.materialize("test").x.shape[2] == round(0.8 * 120)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_recording_rejected(self, workspace, tmp_path, capsys, value):
        broken = tmp_path / "broken"
        shutil.copytree(workspace / "data", broken)
        target = broken / "recordings" / "s00_r00.bin"
        meta = json.loads(target.with_suffix(".json").read_text())
        signal = np.fromfile(target, dtype="<f4").reshape(meta["channels"], meta["samples"])
        signal[3, 100] = value
        signal.tofile(target)
        for argv in (
            ["ingest", "--dataset", str(broken)],
            ["train", "--config", str(workspace / "train.cfg"), "--dataset", str(broken),
             "--out", str(tmp_path / "r")],
            ["eval", "--checkpoint", str(workspace / "run" / "best"),
             "--dataset", str(broken), "--out", str(tmp_path / "e")],
        ):
            assert main(argv) == 1
            err = capsys.readouterr().err.splitlines()
            assert err == [f"error category=format: {target}: non-finite value "
                           f"{value} at row 3, column 100"]

    @pytest.mark.parametrize("corrupt, commands, representation", [
        (_manifest_without("subjects"), ("ingest", "train", "eval"), "external"),
        (_manifest_without("name"), ("ingest", "train", "eval"), "external"),
        # a string would pass `in` and `.index` by substring matching
        (_manifest_value("subjects", "s00s01"), ("ingest", "train", "eval"), "external"),
        (_manifest_value("subjects", ["s00", "s00"]), ("ingest", "train", "eval"), "external"),
        (_manifest_value("channels", "8"), ("ingest", "train", "eval"), "external"),
        (_manifest_value("channels", True), ("ingest", "train", "eval"), "external"),
        (_manifest_value("audio_rate", 16000.5), ("ingest", "train", "eval"), "external"),
        (_manifest_value("recording_rate", 0), ("ingest", "train", "eval"), "external"),
        (_manifest_value("window_s", "3.0"), ("ingest", "train", "eval"), "external"),
        (_manifest_value("anchor_s", -0.5), ("ingest", "train", "eval"), "external"),
        (_manifest_value("anchor_s", 3.5), ("ingest", "train", "eval"), "external"),
        (_dev_split, ("ingest", "train", "eval"), "external"),
        (_unknown_subject, ("ingest", "train", "eval"), "external"),
        (_recording_without_channels, ("ingest", "train", "eval"), "external"),
        # a training segment's file: eval reads test targets only
        (_features_without_rate, ("ingest", "train"), "external"),
        (_null_sidecar_value("recordings", "samples"), ("ingest", "train", "eval"),
         "external"),
        (_null_sidecar_value("recordings", "sample_rate"), ("ingest", "train", "eval"),
         "external"),
        (_null_sidecar_value("features", "samples"), ("ingest", "train"), "external"),
        (_null_sidecar_value("features", "feature_rate"), ("ingest", "train"), "external"),
        # a sidecar number of the wrong JSON type, which a conversion would accept
        (_sidecar_value("recordings", "channels", str), ("ingest", "train", "eval"),
         "external"),
        (_sidecar_value("recordings", "channels", float), ("ingest", "train", "eval"),
         "external"),
        (_sidecar_value("recordings", "samples", float), ("ingest", "train", "eval"),
         "external"),
        (_sidecar_value("recordings", "sample_rate", str), ("ingest", "train", "eval"),
         "external"),
        (_sidecar_value("recordings", "sample_rate", lambda value: 0.0),
         ("ingest", "train", "eval"), "external"),
        (_sidecar_value("features", "features", float), ("ingest", "train"), "external"),
        (_sidecar_value("features", "samples", float), ("ingest", "train"), "external"),
        (_sidecar_value("features", "feature_rate", lambda value: True), ("ingest", "train"),
         "external"),
        (_splits_without_assignment, ("ingest", "train", "eval"), "external"),
        (_non_integer_segment_id, ("ingest", "train", "eval"), "external"),
        (_underscored_segment_id, ("ingest", "train", "eval"), "external"),
        (_splits_value("seed", 1.5), ("ingest", "train", "eval"), "external"),
        (_splits_value("ratios", "abc"), ("ingest", "train", "eval"), "external"),
        (_splits_value("excluded", [2.7]), ("ingest", "train", "eval"), "external"),
        (_three_field_event, ("ingest", "train", "eval"), "external"),
        (_nan_onset, ("ingest", "train", "eval"), "external"),
        # eval's checkpoint channel check fires first
        (_manifest_channels, ("ingest", "train"), "external"),
        (_wav_8khz, ("ingest", "train"), "mel"),
    ], ids=["manifest-subjects", "manifest-name", "manifest-subjects-string",
            "manifest-subjects-repeated", "manifest-channels-string", "manifest-channels-bool",
            "manifest-audio-rate-float", "manifest-recording-rate-zero",
            "manifest-window-string", "manifest-anchor-negative", "manifest-anchor-outside",
            "dev-split", "unknown-subject",
            "recording-channels", "feature-rate", "recording-samples-null",
            "recording-rate-null", "feature-samples-null", "feature-rate-null",
            "recording-channels-string", "recording-channels-float",
            "recording-samples-float", "recording-rate-string", "recording-rate-zero",
            "feature-count-float", "feature-samples-float", "feature-rate-bool",
            "splits-assignment", "splits-id", "splits-id-underscore", "splits-seed-float",
            "splits-ratios-string", "splits-excluded-float",
            "event-fields", "event-onset-nan",
            "manifest-channels", "wav-8khz"])
    def test_malformed_root_rejected(self, workspace, tmp_path, capsys, caplog, corrupt,
                                     commands, representation):
        """One break of the format gives the same single line from every
        command that reads the broken file, and no warning ahead of it."""
        broken = tmp_path / "broken"
        shutil.copytree(workspace / "data", broken)
        path = corrupt(broken)
        argv = {
            "ingest": ["ingest", "--dataset", str(broken)],
            "train": ["train", "--config", str(workspace / "train.cfg"), "--dataset",
                      str(broken), "--out", str(tmp_path / "r"),
                      "--set", f"speech.representation={representation}"],
            "eval": ["eval", "--checkpoint", str(workspace / "run" / "best"),
                     "--dataset", str(broken), "--out", str(tmp_path / "e")],
        }
        lines = []
        for command in commands:
            assert main(argv[command]) == 1, command
            lines.append(capsys.readouterr().err.splitlines())
        assert len(lines[0]) == 1 and lines[0][0].startswith("error category=format: ")
        assert str(path) in lines[0][0]
        assert all(err == lines[0] for err in lines)
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == []

    def test_unparsable_synth_value(self, tmp_path, capsys):
        (tmp_path / "bad.cfg").write_text(SYNTH_CFG.replace("seed = 11", "seed = eleven"))
        assert main(["synth", "--spec", str(tmp_path / "bad.cfg"),
                     "--out", str(tmp_path / "data")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error category=config: bad value for synth.seed: 'eleven' "
                       "(invalid literal for int() with base 10: 'eleven')"]

    def test_feature_dimension_mismatch_reported(self, workspace, tmp_path, capsys):
        (tmp_path / "narrow.cfg").write_text(SYNTH_CFG.replace("features = 6",
                                                               "features = 4"))
        assert main(["synth", "--spec", str(tmp_path / "narrow.cfg"),
                     "--out", str(tmp_path / "narrow")]) == 0
        assert main(["eval", "--checkpoint", str(workspace / "run" / "best"),
                     "--dataset", str(tmp_path / "narrow"),
                     "--out", str(tmp_path / "e")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error category=invalid: features have 4 dimensions but the "
                       "feature statistics were fitted on 6"]

    def test_channel_count_mismatch_reported(self, workspace, tmp_path, capsys, monkeypatch):
        (tmp_path / "six.cfg").write_text(SYNTH_CFG.replace("channels = 8", "channels = 6"))
        assert main(["synth", "--spec", str(tmp_path / "six.cfg"),
                     "--out", str(tmp_path / "six")]) == 0
        assert (dataset_io.recording_ids(tmp_path / "six")
                == dataset_io.recording_ids(workspace / "data"))

        def no_read(*args, **kwargs):
            raise AssertionError("a recording was read")

        monkeypatch.setattr(dataset_io, "read_recording", no_read)
        assert main(["eval", "--checkpoint", str(workspace / "run" / "best"),
                     "--dataset", str(tmp_path / "six"), "--out", str(tmp_path / "e")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error category=config: checkpoint was trained on 8 channels but "
                       f"dataset {tmp_path / 'six'} has 6; train a matching-channel model"]

    def test_zero_iqr_channel_names_the_recording(self, workspace, tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(workspace / "data", broken)
        target = broken / "recordings" / "s00_r00.bin"
        meta = json.loads(target.with_suffix(".json").read_text())
        signal = np.fromfile(target, dtype="<f4").reshape(meta["channels"], meta["samples"])
        signal[3] = 0.5
        signal.tofile(target)
        assert main(["train", "--config", str(workspace / "train.cfg"),
                     "--dataset", str(broken), "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error category=invalid: s00_r00: channel(s) [3] have zero "
                       "interquartile range"]


def test_version_stamp_is_the_source_trees_revision(tmp_path, monkeypatch):
    package = Path(brainspeech.cli.__file__).resolve().parent
    rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=package,
                         capture_output=True, text=True, timeout=5)
    # run from another repository, whose revision must not be recorded
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    subprocess.run(git + ["init", "-q"], cwd=tmp_path, check=True, timeout=10)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "other"], cwd=tmp_path,
                   check=True, timeout=10)
    monkeypatch.chdir(tmp_path)
    stamp = _version_stamp()
    if rev.returncode == 0:
        assert stamp["git"] == rev.stdout.strip()
    else:
        assert "git" not in stamp


class TestCheckpointRoundtrip:
    def test_save_load_bit_identical(self, workspace, tmp_path):
        ckpt = load_checkpoint(workspace / "run" / "best")
        save_checkpoint(
            tmp_path / "again", ckpt["brain"], ckpt["config"], ckpt["scalers"],
            ckpt["feature_stats"], deep_mel=ckpt["deep_mel"],
        )
        again = load_checkpoint(tmp_path / "again")
        for key, p in ckpt["brain"].params.items():
            np.testing.assert_array_equal(p.data, again["brain"].params[key].data)
        for key, st in ckpt["brain"].bn_states.items():
            np.testing.assert_array_equal(
                st.running_mean, again["brain"].bn_states[key].running_mean
            )
            assert st.initialized == again["brain"].bn_states[key].initialized
        assert set(ckpt["scalers"]) == set(again["scalers"])

    def test_load_draws_no_rng(self, workspace, tmp_path, monkeypatch):
        """The blob supplies every value, so a load draws no init: nothing in
        it may make or use a random generator."""
        ckpt = load_checkpoint(workspace / "run" / "best")
        deep_mel = BrainNet(deep_mel_config(5, 3, ckpt["brain"].config),
                            np.random.default_rng(2), prefix="deepmel.")
        save_checkpoint(tmp_path / "both", ckpt["brain"], ckpt["config"], ckpt["scalers"],
                        ckpt["feature_stats"], deep_mel=deep_mel)
        want = _net_state({"brain": ckpt["brain"], "deep_mel": deep_mel})

        def no_rng(*args, **kwargs):
            raise AssertionError("load_checkpoint used a random generator")

        for name in ("default_rng", "Generator", "RandomState", "normal", "uniform"):
            monkeypatch.setattr(np.random, name, no_rng)
        assert _net_state(load_checkpoint(tmp_path / "both")) == want

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)])
    def test_files_follow_the_umask(self, workspace, tmp_path, umask, mode):
        ckpt = load_checkpoint(workspace / "run" / "best")
        old = os.umask(umask)
        try:
            save_checkpoint(tmp_path / "ckpt", ckpt["brain"], ckpt["config"], ckpt["scalers"],
                            ckpt["feature_stats"])
        finally:
            os.umask(old)
        modes = [stat.S_IMODE(f.stat().st_mode) for f in (tmp_path / "ckpt").iterdir()]
        assert modes == [mode, mode]

    def test_loaded_model_scores_identically(self, workspace):
        from brainspeech.evaluation import score_test_set
        from brainspeech.pipeline import DataConfig, DataPipeline

        ckpt = load_checkpoint(workspace / "run" / "best")
        pipeline = DataPipeline(
            workspace / "data",
            DataConfig(representation="external"),
            scalers=ckpt["scalers"],
            feature_stats=ckpt["feature_stats"],
        )
        a = score_test_set(ckpt["brain"], pipeline)
        b = score_test_set(load_checkpoint(workspace / "run" / "best")["brain"], pipeline)
        np.testing.assert_array_equal(a.probs, b.probs)


def _edit_manifest(ckpt, edit):
    return _edit_json(ckpt / "manifest.json", edit)


def _blob(ckpt):
    return ckpt / json.loads((ckpt / "manifest.json").read_text())["blob"]


def _set_format(ckpt):
    _edit_manifest(ckpt, lambda m: m.update(format=1))


def _truncate_bn(ckpt):
    blob = _blob(ckpt)
    blob.write_bytes(blob.read_bytes()[:-8])


def _rename_param(ckpt):
    _edit_manifest(ckpt, lambda m: m["params"][-1].update(name="head.conv9.b"))


def _drop_param(ckpt):
    """Drop the last parameter from the manifest and its bytes from the blob."""
    manifest = json.loads((ckpt / "manifest.json").read_text())
    end = 4 * sum(int(np.prod(e["shape"])) for e in manifest["params"])
    size = 4 * int(np.prod(manifest["params"].pop()["shape"]))
    blob = _blob(ckpt)
    raw = blob.read_bytes()
    blob.write_bytes(raw[:end - size] + raw[end:])
    manifest["sha256"] = hashlib.sha256(blob.read_bytes()).hexdigest()
    (ckpt / "manifest.json").write_text(json.dumps(manifest))


def _drop_bn(ckpt):
    _edit_manifest(ckpt, lambda m: m.pop("bn"))


def _add_config_field(ckpt):
    _edit_manifest(ckpt, lambda m: m["brain_config"].update(width=3))


def _flip_blob_byte(ckpt):
    blob = _blob(ckpt)
    raw = bytearray(blob.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    blob.write_bytes(bytes(raw))


def _blob_outside(ckpt):
    _edit_manifest(ckpt, lambda m: m.update(blob=f"../best/{m['blob']}"))


class TestCheckpointValidation:
    """A checkpoint that does not match its manifest fails eval with one line."""

    @pytest.mark.parametrize("corrupt, needle", [
        (_set_format, "checkpoint format 1 is not 2"),
        (_truncate_bn, ".bin: expected"),
        (_rename_param, "head.conv9.b"),
        (_drop_param, "is None but the rebuilt net has ('subject.m'"),
        (_drop_bn, "manifest.json: missing key 'bn'"),
        (_add_config_field, "unexpected keyword argument 'width'"),
        (_blob_outside, "is not a state-* file name"),
    ], ids=["format", "bn-length", "unknown-param", "missing-param", "missing-key",
            "unknown-config-field", "blob-path"])
    def test_eval_rejects(self, workspace, tmp_path, capsys, corrupt, needle):
        ckpt = tmp_path / "best"
        shutil.copytree(workspace / "run" / "best", ckpt)
        corrupt(ckpt)
        assert main(["eval", "--checkpoint", str(ckpt), "--dataset",
                     str(workspace / "data"), "--out", str(tmp_path / "e")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error category=invalid: ")
        assert needle in err[0]

    @pytest.mark.parametrize("key, value", [("eval.restricted_n", 1), ("training.seed", -4)])
    def test_eval_rejects_out_of_range_run_config(self, workspace, tmp_path, capsys, key,
                                                  value):
        """The stored run config must hold the ranges ``train`` enforces."""
        ckpt = tmp_path / "best"
        shutil.copytree(workspace / "run" / "best", ckpt)
        section, name = key.split(".")
        _edit_manifest(ckpt, lambda m: m["config"][section].update({name: value}))
        assert main(["eval", "--checkpoint", str(ckpt), "--dataset",
                     str(workspace / "data"), "--out", str(tmp_path / "e")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error category=config: manifest.json: {key}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "e").exists()

    def test_eval_rejects_a_stored_window_key(self, workspace, tmp_path, capsys):
        """Checkpoints saved while the run config held the window are retrained."""
        ckpt = tmp_path / "best"
        shutil.copytree(workspace / "run" / "best", ckpt)
        _edit_manifest(ckpt, lambda m: m["config"]["dataset"].update(window_s=3.0))
        assert main(["eval", "--checkpoint", str(ckpt), "--dataset",
                     str(workspace / "data"), "--out", str(tmp_path / "e")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error category=config: manifest.json: unknown config key dataset.window_s"]
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("content", [b"[1, 2]", b'{"format": "\xff"}'],
                             ids=["array", "not-utf8"])
    def test_eval_rejects_malformed_manifest(self, workspace, tmp_path, capsys, content):
        ckpt = tmp_path / "best"
        shutil.copytree(workspace / "run" / "best", ckpt)
        (ckpt / "manifest.json").write_bytes(content)
        assert main(["eval", "--checkpoint", str(ckpt), "--dataset",
                     str(workspace / "data"), "--out", str(tmp_path / "e")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error category=format: ")
        assert str(ckpt / "manifest.json") in err[0]

    def test_flipped_byte_names_both_hashes(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "best"
        shutil.copytree(workspace / "run" / "best", ckpt)
        blob = _blob(ckpt)
        stored = json.loads((ckpt / "manifest.json").read_text())["sha256"]
        _flip_blob_byte(ckpt)
        found = hashlib.sha256(blob.read_bytes()).hexdigest()
        assert main(["eval", "--checkpoint", str(ckpt), "--dataset",
                     str(workspace / "data"), "--out", str(tmp_path / "e")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error category=invalid: {blob.name}: sha256 {found} does not match "
            f"the manifest's {stored}"]


class _Stop(BaseException):
    """Stands for a kill: nothing in the save may catch it."""


def _net_state(ckpt):
    nets = [ckpt["brain"]] + ([ckpt["deep_mel"]] if ckpt["deep_mel"] is not None else [])
    return ([p.data.tobytes() for net in nets for _, p in sorted(net.params.items())]
            + [st.running_mean.tobytes() + st.running_var.tobytes()
               for net in nets for _, st in sorted(net.bn_states.items())])


class TestCheckpointCommit:
    """A save stopped anywhere leaves the old checkpoint or the new one."""

    def _save(self, ckpt, directory):
        save_checkpoint(directory, ckpt["brain"], ckpt["config"], ckpt["scalers"],
                        ckpt["feature_stats"], deep_mel=ckpt["deep_mel"])

    def test_stop_at_each_boundary_loads_old_or_new(self, workspace, tmp_path, monkeypatch):
        best = workspace / "run" / "best"
        old = _net_state(load_checkpoint(best))
        ckpt = load_checkpoint(best)
        assert ckpt["brain"].bn_states
        for p in ckpt["brain"].params.values():
            p.data = p.data + np.float32(1.0)
        for st in ckpt["brain"].bn_states.values():
            st.running_mean = st.running_mean + np.float32(1.0)
            st.running_var = st.running_var * np.float32(2.0)
        new = _net_state(ckpt)
        real_write = checkpoint._atomic_write

        writes = []
        monkeypatch.setattr(checkpoint, "_atomic_write",
                            lambda path, data: (writes.append(path.name), real_write(path, data)))
        self._save(ckpt, tmp_path / "counted")
        assert writes[-1] == "manifest.json"

        loaded = []
        for stop in range(2 * len(writes)):  # before and after each write
            directory = tmp_path / f"stop-{stop}"
            shutil.copytree(best, directory)
            calls = []

            def write(path, data):
                calls.append(path.name)
                if 2 * (len(calls) - 1) == stop:
                    raise _Stop
                real_write(path, data)
                if 2 * (len(calls) - 1) + 1 == stop:
                    raise _Stop

            monkeypatch.setattr(checkpoint, "_atomic_write", write)
            with pytest.raises(_Stop):
                self._save(ckpt, directory)
            state = _net_state(load_checkpoint(directory))
            loaded.append("old" if state == old else "new" if state == new else "mix")
        monkeypatch.setattr(checkpoint, "_atomic_write", real_write)
        assert loaded == ["old"] * (2 * len(writes) - 1) + ["new"]

        # stopped during the cleanup, after the commit point
        directory = tmp_path / "ckpt-cleanup"
        shutil.copytree(best, directory)

        def unlink(self, *args, **kwargs):
            raise _Stop

        with monkeypatch.context() as patch:
            patch.setattr(Path, "unlink", unlink)
            with pytest.raises(_Stop):
                self._save(ckpt, directory)
        assert _net_state(load_checkpoint(directory)) == new
        self._save(ckpt, directory)  # the next save removes what the stop left
        assert len(list(directory.iterdir())) == 2
        assert _net_state(load_checkpoint(directory)) == new


def test_checkpoint_config_maps_to_the_training_pipeline(tmp_path):
    """eval rebuilds the pipeline config that training used, field for field."""
    (tmp_path / "spec.cfg").write_text(
        SYNTH_CFG + "duration = 2.0\nanchor_offset = 0.4\n"
    )
    assert main(["synth", "--spec", str(tmp_path / "spec.cfg"),
                 "--out", str(tmp_path / "data")]) == 0
    config = Config()
    config.dataset.root = str(tmp_path / "data")
    config.dataset.shift_s = 0.1
    config.preprocessing.baseline_s = 0.3
    config.preprocessing.clamp = 10.0
    config.speech.representation = "mel"
    config.speech.n_mels = 20
    config.model.d1 = config.model.d2 = 8
    config.model.harmonics = 2
    config.training.batch_size = 4
    config.training.updates_per_epoch = 2
    config.training.max_epochs = 1
    want = data_config_from(config)
    default = DataConfig()
    assert all(getattr(want, f) != getattr(default, f) for f in vars(default))

    result = train(config, tmp_path / "run")
    pipeline = _pipeline_for_checkpoint(load_checkpoint(result.checkpoint_dir),
                                        config.dataset.root)
    assert pipeline.config == want
    assert (pipeline.window_s, pipeline.anchor_s) == (2.0, 0.4)  # from the manifest


class TestReconstructionMel:
    def test_mel_pipeline_reuses_its_targets(self, workspace, monkeypatch):
        from brainspeech.dataset import io as dataset_io
        from brainspeech.pipeline import DataConfig, DataPipeline

        pipeline = DataPipeline(workspace / "data", DataConfig(representation="mel"))
        test_ids = pipeline.splits.ids_in("test")
        computed = [pipeline.segment_mel(sid) for sid in test_ids]
        pipeline.materialize("test")  # as cmd_eval scores before it reconstructs
        monkeypatch.setattr(dataset_io, "read_audio",
                            lambda *a: pytest.fail("log_mel re-read the audio"))
        reused = [pipeline.log_mel(sid) for sid in test_ids]
        for a, b in zip(reused, computed):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_eval_build_computes_each_test_mel_once(self, workspace, monkeypatch):
        from collections import Counter

        from brainspeech.pipeline import DataConfig, DataPipeline

        config = DataConfig(representation="mel")
        fitted = DataPipeline(workspace / "data", config)
        calls = Counter()
        real = DataPipeline.segment_mel

        def counted(self, sid):
            calls[sid] += 1
            return real(self, sid)

        monkeypatch.setattr(DataPipeline, "segment_mel", counted)
        pipeline = DataPipeline(workspace / "data", config, scalers=fitted.scalers,
                                feature_stats=fitted.feature_stats)
        assert not calls and not pipeline.guard.reads
        data = pipeline.materialize("test")
        for sid in data.candidate_ids:
            pipeline.log_mel(sid)
        assert calls == Counter(pipeline.splits.ids_in("test"))
        assert pipeline.guard.reads == {"test"}

    def test_external_pipeline_computes_the_mel(self, workspace):
        from brainspeech.pipeline import DataConfig, DataPipeline

        pipeline = DataPipeline(workspace / "data", DataConfig(representation="external"))
        sid = pipeline.splits.ids_in("test")[0]
        assert pipeline.log_mel(sid).tobytes() == pipeline.segment_mel(sid).tobytes()
        assert pipeline.log_mel(sid).shape[0] == pipeline.config.n_mels
