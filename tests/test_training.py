import numpy as np
import pytest

from brainspeech import training
from brainspeech.config import Config, ConfigError, load_config
from brainspeech.dataset import SynthSpec, generate_synthetic
from brainspeech.evaluation import EvalReport, topk_accuracy
from brainspeech.pipeline import DataConfig, DataPipeline, SplitLeakError
from brainspeech.training import make_batches, train


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data") / "tiny"
    spec = SynthSpec(subjects=2, segments=40, channels=8, features=6,
                     noise_std=0.0, seed=21, vocab_size=12)
    generate_synthetic(spec, root)
    return root


@pytest.fixture(scope="module")
def valid_dataset(tmp_path_factory):
    """More than 10 validation segments, so top-10 is not every window."""
    root = tmp_path_factory.mktemp("data") / "valid"
    spec = SynthSpec(subjects=2, segments=100, channels=8, features=6,
                     noise_std=0.0, seed=22, vocab_size=30)
    generate_synthetic(spec, root)
    return root


def tiny_train_config(root, **overrides):
    cfg = Config()
    cfg.dataset.root = str(root)
    cfg.speech.representation = "external"
    cfg.model.d1 = 16
    cfg.model.d2 = 16
    cfg.model.harmonics = 4
    cfg.training.batch_size = 8
    cfg.training.max_epochs = 4
    cfg.training.seed = 3
    for dotted, value in overrides.items():
        section, key = dotted.split(".")
        setattr(getattr(cfg, section), key, value)
    return cfg


class TestMakeBatches:
    def test_batch_arithmetic(self):
        batches = make_batches(1000, 256, seed=0, epoch=0, updates=3)
        assert len(batches) == 3
        assert all(b.size == 256 for b in batches)
        used = np.concatenate(batches)
        assert len(np.unique(used)) == 768  # 232 samples dropped that pass

    def test_epoch_changes_permutation(self):
        a = make_batches(100, 10, seed=0, epoch=0, updates=5)
        b = make_batches(100, 10, seed=0, epoch=1, updates=5)
        assert not all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_deterministic(self):
        a = make_batches(100, 10, seed=4, epoch=2, updates=5)
        b = make_batches(100, 10, seed=4, epoch=2, updates=5)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_cycles_when_pool_small(self):
        batches = make_batches(20, 10, seed=0, epoch=0, updates=7)
        assert len(batches) == 7

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            make_batches(5, 10, seed=0, epoch=0, updates=1)

    def test_mixed_subjects_in_batches(self, tiny_dataset):
        pipeline = DataPipeline(tiny_dataset, DataConfig(representation="external"))
        data = pipeline.materialize("train")
        batches = make_batches(data.x.shape[0], 16, seed=0, epoch=0, updates=3)
        mixed = sum(len(np.unique(data.subject_idx[b])) > 1 for b in batches)
        assert mixed == 3


class TestTrain:
    def test_loss_decreases_and_history_written(self, tiny_dataset, tmp_path):
        cfg = tiny_train_config(tiny_dataset)
        result = train(cfg, tmp_path / "run")
        assert (tmp_path / "run" / "history.csv").exists()
        assert (tmp_path / "run" / "best" / "manifest.json").exists()
        losses = [h["train_loss"] for h in result.history]
        assert losses[-1] < losses[0]

    def test_best_checkpoint_invariant(self, tiny_dataset, tmp_path):
        cfg = tiny_train_config(tiny_dataset)
        result = train(cfg, tmp_path / "run")
        best = min(h["valid_loss"] for h in result.history)
        assert result.best_valid_loss == best

    def test_determinism_identical_history(self, tiny_dataset, tmp_path):
        cfg = tiny_train_config(tiny_dataset)
        train(cfg, tmp_path / "a")
        train(tiny_train_config(tiny_dataset), tmp_path / "b")
        assert (tmp_path / "a" / "history.csv").read_bytes() == (
            tmp_path / "b" / "history.csv"
        ).read_bytes()

    def test_patience_arithmetic(self):
        from brainspeech.training import EarlyStopper

        # 1.0 then ten epochs at >= 1.0: stop after epoch 11, best = epoch 1
        stopper = EarlyStopper(patience=10)
        assert stopper.update(1, 1.0)
        for epoch in range(2, 12):
            assert not stopper.update(epoch, 1.0)
            if epoch < 11:
                assert not stopper.should_stop
        assert stopper.should_stop
        assert stopper.best_epoch == 1

    def test_strict_improvement_required(self):
        from brainspeech.training import EarlyStopper

        stopper = EarlyStopper(patience=2)
        assert stopper.update(1, 0.5)
        assert not stopper.update(2, 0.5)  # equal is not an improvement
        assert stopper.update(3, 0.4999999)  # any margin counts

    def test_build_reads_splits_once_and_each_events_file_once(self, tiny_dataset,
                                                               monkeypatch):
        from collections import Counter

        from brainspeech.dataset import io as dataset_io

        calls = Counter()
        for name in ("read_splits", "read_events"):
            def counted(root, *rest, real=getattr(dataset_io, name), name=name):
                calls[(name, *rest)] += 1
                return real(root, *rest)

            monkeypatch.setattr(dataset_io, name, counted)
        DataPipeline(tiny_dataset, DataConfig(representation="external"))
        recordings = dataset_io.recording_ids(tiny_dataset)
        assert len(recordings) == 2
        assert calls == Counter([("read_splits",)]
                                + [("read_events", rec_id) for rec_id in recordings])

    def test_guard_blocks_test_reads(self, tiny_dataset, tmp_path):
        pipeline = DataPipeline(tiny_dataset, DataConfig(representation="external"))
        pipeline.materialize("test")
        cfg = tiny_train_config(tiny_dataset, **{"training.max_epochs": 1})
        with pytest.raises(SplitLeakError):
            train(cfg, tmp_path / "run", pipeline=pipeline)

    @pytest.mark.parametrize("representation", ["external", "mel"])
    def test_train_never_reads_test_targets(self, tiny_dataset, tmp_path, monkeypatch,
                                            representation):
        from brainspeech.dataset import io as dataset_io

        splits = dataset_io.read_splits(tiny_dataset)
        for name in ("read_feature_file", "read_audio"):
            def guarded(root, sid, *rest, real=getattr(dataset_io, name), name=name):
                if splits.split_of(sid) == "test":
                    pytest.fail(f"training called {name} for test segment {sid}")
                return real(root, sid, *rest)

            monkeypatch.setattr(dataset_io, name, guarded)
        cfg = tiny_train_config(tiny_dataset, **{"training.max_epochs": 1})
        cfg.speech.representation = representation
        cfg.speech.n_mels = 20
        result = train(cfg, tmp_path / "run")
        assert np.isfinite(result.best_valid_loss)

    @pytest.mark.parametrize("window_s, anchor_s", [(3.0, 0.5), (2.0, 0.4)])
    def test_materialize_serves_the_split_targets(self, tiny_dataset, tmp_path, window_s,
                                                  anchor_s):
        """Windows and targets span the manifest's window at its anchor."""
        from brainspeech.dataset import io as dataset_io
        from brainspeech.speech import align_feature_rate

        root = tiny_dataset
        if window_s != 3.0:
            root = tmp_path / "short"
            generate_synthetic(SynthSpec(subjects=2, segments=40, channels=8, features=6,
                                         noise_std=0.0, seed=21, vocab_size=12,
                                         duration=window_s, anchor_offset=anchor_s), root)
        pipeline = DataPipeline(root, DataConfig(representation="external"))
        assert (pipeline.window_s, pipeline.anchor_s) == (window_s, anchor_s)
        for split in ("train", "valid", "test"):
            data = pipeline.materialize(split)
            assert data.x.shape[2] == round(window_s * 120)
            assert data.candidate_ids == pipeline.splits.ids_in(split)
            assert data.candidates.dtype == np.float32
            assert data.candidates.shape[0] == len(data.candidate_ids)
            for sid, target in zip(data.candidate_ids, data.candidates):
                arr, rate = dataset_io.read_feature_file(root, sid)
                assert arr.shape[1] == round(window_s * rate)
                raw = align_feature_rate(arr, rate, window_s)
                want = pipeline.feature_stats.apply(raw).astype(np.float32)
                assert target.tobytes() == want.tobytes()
            served = [data.candidate_ids[j] for j in data.target_index]
            assert served == [s.segment_id for s in pipeline._samples[split]]

    def test_regression_objective_runs(self, tiny_dataset, tmp_path):
        cfg = tiny_train_config(tiny_dataset, **{"training.objective": "regression"})
        cfg.speech.representation = "mel"
        cfg.speech.n_mels = 20
        result = train(cfg, tmp_path / "run")
        assert np.isfinite(result.best_valid_loss)

    def test_deep_mel_objective_runs(self, tiny_dataset, tmp_path):
        cfg = tiny_train_config(tiny_dataset)
        cfg.speech.representation = "deep-mel"
        cfg.speech.n_mels = 20
        cfg.speech.deep_mel_dim = 8
        cfg.training.max_epochs = 2
        result = train(cfg, tmp_path / "run")
        assert np.isfinite(result.best_valid_loss)
        assert (result.checkpoint_dir / "manifest.json").exists()

    def test_valid_top10_breaks_ties_like_eval(self, valid_dataset, tmp_path, monkeypatch):
        # every score tied: a window's rank is its target's candidate index,
        # as in eval's top-k
        monkeypatch.setattr(training, "clip_scores_eval",
                            lambda z, y: np.zeros((z.shape[0], y.shape[0])))
        ranked = []
        real_ranks = training.true_ranks

        def recorded(scores, true_index):
            ranks, ties = real_ranks(scores, true_index)
            ranked.append(ranks)
            return ranks, ties

        monkeypatch.setattr(training, "true_ranks", recorded)
        cfg = tiny_train_config(valid_dataset, **{"training.max_epochs": 1})
        result = train(cfg, tmp_path / "run")
        valid = DataPipeline(valid_dataset, training.data_config_from(cfg)).materialize("valid")
        n = len(valid.candidate_ids)
        assert n > 10
        report = EvalReport(probs=np.full((valid.target_index.size, n), 1.0 / n),
                            true_index=valid.target_index, candidate_ids=valid.candidate_ids,
                            anchor_words=["w"] * n,
                            trial_subjects=np.zeros(valid.target_index.size, dtype=int))
        assert len(ranked) == 1 and ranked[0].tolist() == report.ranks.tolist()
        assert result.history[0]["valid_top10"] == pytest.approx(topk_accuracy(report, 10) / 100)
        assert result.history[0]["valid_top10"] < 1.0

    def test_valid_top10_of_an_untrained_model_is_chance(self, valid_dataset, tmp_path):
        # lr 1e-7 leaves the model at its random init; chunks of 8 windows
        # each hold fewer than 10 targets, which must not make every window a hit
        cfg = tiny_train_config(valid_dataset, **{"training.lr": 1e-7,
                                                  "training.max_epochs": 2})
        result = train(cfg, tmp_path / "run")
        valid = DataPipeline(valid_dataset, training.data_config_from(cfg)).materialize("valid")
        windows, n = valid.target_index.size, len(valid.candidate_ids)
        chance = min(10, n) / n
        bound = 3 * np.sqrt(chance * (1 - chance) / windows)  # three binomial SDs
        assert n > 10 and cfg.training.batch_size <= 10
        for row in result.history:
            assert abs(row["valid_top10"] - chance) <= bound, (row, chance, bound)


class TestConfig:
    def test_defaults_follow_reference_settings(self):
        cfg = Config()
        assert cfg.training.lr == 3e-4
        assert cfg.training.batch_size == 256
        assert cfg.training.updates_per_epoch == 1200
        assert cfg.training.patience == 10
        assert cfg.model.d1 == 270
        assert cfg.model.d2 == 320
        assert cfg.model.harmonics == 32

    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("[training]\nlr = 0.001\nbatch_size = 32\n[model]\nd1 = 64\n")
        cfg = load_config(str(path), ["training.seed=9", "preprocessing.clamp=none"])
        assert cfg.training.lr == 0.001
        assert cfg.training.batch_size == 32
        assert cfg.model.d1 == 64
        assert cfg.training.seed == 9
        assert cfg.preprocessing.clamp is None

    def test_unknown_key_reports_path(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("[training]\nlearning = 1\n")
        with pytest.raises(ConfigError, match="training.learning"):
            load_config(str(path))

    def test_bad_representation(self):
        with pytest.raises(ConfigError, match="representation"):
            load_config(None, ["speech.representation=wavelets"])

    def test_regression_requires_mel(self):
        with pytest.raises(ConfigError):
            load_config(None, ["training.objective=regression",
                               "speech.representation=external"])

    @pytest.mark.parametrize("override", ["training.lr=abc", "dataset.shift_s=3s",
                                          "training.lr=none", "training.batch_size=none"])
    def test_unparsable_value_rejected(self, override):
        key, raw = override.split("=")
        with pytest.raises(ConfigError, match=f"^bad value for {key}: '{raw}' "):
            load_config(None, [override])

    def test_ablation_flag_validated(self):
        with pytest.raises(ConfigError, match="ablation"):
            load_config(None, ["model.ablation=transformer"])
