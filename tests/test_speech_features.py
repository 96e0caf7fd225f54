import numpy as np
import pytest

from brainspeech.speech import (
    AUDIO_RATE,
    FeatureStats,
    align_feature_rate,
    hz_to_mel,
    log_compress,
    mel_filterbank,
    mel_spectrogram,
    mel_to_hz,
)
from brainspeech.dataset import io as dataset_io


def dft_mel_oracle(audio, n_mels, frame=512, hop=128):
    """Mel spectrogram via an explicit DFT matrix (no FFT)."""
    n = 1 + (len(audio) - frame) // hop
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(frame) / frame)
    k = np.arange(frame // 2 + 1)
    t = np.arange(frame)
    dft = np.exp(-2j * np.pi * k[:, None] * t[None, :] / frame)
    fb = mel_filterbank(n_mels, frame)
    out = np.empty((n_mels, n))
    for i in range(n):
        seg = audio[i * hop : i * hop + frame] * window
        mag = np.abs(dft @ seg) / frame
        out[:, i] = fb @ mag
    return out


def gather_frame_signal(audio, frame, hop):
    """The framing of the previous release: an index array and a gather."""
    n = 1 + (len(audio) - frame) // hop
    idx = np.arange(frame)[None, :] + hop * np.arange(n)[:, None]
    return audio[idx]


def gather_mel_oracle(audio, n_mels, frame=512, hop=128):
    """The previous release's mel_spectrogram, gathered frames included."""
    audio = np.asarray(audio, dtype=np.float64)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(frame) / frame)
    frames = gather_frame_signal(audio, frame, hop) * window
    mag = np.abs(np.fft.rfft(frames, axis=1)) / frame
    return mel_filterbank(n_mels, frame, AUDIO_RATE) @ mag.T


class TestMelSpectrogram:
    @pytest.mark.parametrize("n_mels", [20, 40, 120])
    def test_strided_frames_match_gather_bytes(self, n_mels):
        rng = np.random.default_rng(n_mels)
        for length in (512, 639, 640, 4097, 48_000):
            for audio in (rng.normal(size=length), rng.normal(size=length).astype(np.float32)):
                got = mel_spectrogram(audio, n_mels=n_mels)
                want = gather_mel_oracle(audio, n_mels)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), length

    def test_matches_direct_dft_oracle(self):
        rng = np.random.default_rng(0)
        audio = rng.normal(size=4096)
        got = mel_spectrogram(audio, n_mels=40)
        want = dft_mel_oracle(audio, n_mels=40)
        assert np.abs(got - want).max() < 1e-6

    @pytest.mark.parametrize("n_mels", [20, 40, 80])
    def test_pure_tone_concentrates_energy(self, n_mels):
        t = np.arange(AUDIO_RATE) / AUDIO_RATE
        audio = np.sin(2 * np.pi * 1000.0 * t)
        mel = mel_spectrogram(audio, n_mels=n_mels).mean(axis=1)
        fb = mel_filterbank(n_mels)
        band = int(np.argmax(fb[:, 32]))  # bin 32 is exactly 1 kHz
        assert mel.argmax() == band
        for other in (band - 2, band + 2):
            assert mel[band] >= 10 * mel[other]

    def test_zero_audio_zero_mel(self):
        out = mel_spectrogram(np.zeros(2048), n_mels=20)
        np.testing.assert_array_equal(out, 0.0)

    def test_frame_count_3s(self):
        out = mel_spectrogram(np.zeros(48000), n_mels=120)
        assert out.shape == (120, 1 + (48000 - 512) // 128)
        assert out.shape[1] == 372

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            mel_spectrogram(np.zeros(100))

    def test_wrong_rate_rejected(self):
        with pytest.raises(ValueError):
            mel_spectrogram(np.zeros(2048), sr=22050)

    def test_amplitude_quadratic_energy(self):
        rng = np.random.default_rng(1)
        audio = rng.normal(size=4096)
        base = (mel_spectrogram(audio, n_mels=40) ** 2).sum()
        scaled = (mel_spectrogram(3.0 * audio, n_mels=40) ** 2).sum()
        assert scaled == pytest.approx(9.0 * base, rel=1e-9)

    @pytest.mark.parametrize("n_mels", [20, 40, 80, 120])
    def test_filterbank_rows_positive_and_cover_band(self, n_mels):
        fb = mel_filterbank(n_mels)
        assert fb.shape == (n_mels, 257)
        assert np.all(fb.sum(axis=1) > 0)
        # no dead column inside the covered band (up to 8 kHz)
        covered = fb.sum(axis=0)[1:256]
        assert np.all(covered > 0)

    def test_filterbank_built_once_and_read_only(self):
        fb = mel_filterbank(40)
        assert mel_filterbank(40) is fb
        assert not fb.flags.writeable
        with pytest.raises(ValueError):
            fb[0, 0] = 1.0
        mel_spectrogram(np.random.default_rng(0).normal(size=4096), n_mels=40)
        assert fb.tobytes() == mel_filterbank.__wrapped__(40).tobytes()

    def test_min_max_frequencies_fixed_across_n_mels(self):
        # band edges always span exactly [0, 8000] Hz, whatever the count
        for n_mels in (20, 40, 80, 120):
            edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(8000.0), n_mels + 2))
            assert edges[0] == pytest.approx(0.0, abs=1e-9)
            assert edges[-1] == pytest.approx(8000.0, rel=1e-12)
            fb = mel_filterbank(n_mels)
            # response dies out above the 8 kHz edge minus one bin's reach
            assert fb[:, -1].max() < fb.max() * 0.2


class TestLogCompress:
    def test_zero_maps_to_log_eps(self):
        assert log_compress(np.array([0.0]))[0] == pytest.approx(np.log(1e-5))

    def test_one_minus_eps_maps_to_zero(self):
        assert log_compress(np.array([1.0 - 1e-5]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_monotone(self):
        x = np.linspace(0, 5, 100)
        out = log_compress(x)
        assert np.all(np.diff(out) > 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            log_compress(np.array([-0.1]))


class TestAlign:
    def test_constant_preserved(self):
        out = align_feature_rate(np.full((2, 150), 3.5), 50.0, 3.0)
        assert out.shape == (2, 360)
        np.testing.assert_allclose(out, 3.5)

    def test_matched_grid_identity(self):
        x = np.random.default_rng(2).normal(size=(4, 360))
        out = align_feature_rate(x, 120.0, 3.0)
        np.testing.assert_array_equal(out, x)

    def test_ramp_stays_linear(self):
        t_src = 372
        ramp = np.linspace(0.0, 1.0, t_src)[None, :]
        out = align_feature_rate(ramp, 125.0, 3.0)[0]
        # interpolating a linear function must stay exactly linear
        second_diff = np.diff(out, 2)
        step = out[1] - out[0]
        assert np.abs(second_diff).max() < 1e-6 * step

    def test_short_span_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            align_feature_rate(np.zeros((2, 50)), 50.0, 3.0)

    def test_segment_count_and_dim_preserved(self):
        x = np.random.default_rng(3).normal(size=(7, 150))
        assert align_feature_rate(x, 50.0, 3.0).shape == (7, 360)


class TestFeatureStats:
    def test_training_set_standardized(self):
        rng = np.random.default_rng(4)
        feats = [rng.normal(loc=2.0, scale=3.0, size=(5, 360)) for _ in range(10)]
        stats = FeatureStats.fit(feats)
        normed = np.concatenate([stats.apply(f) for f in feats], axis=1)
        np.testing.assert_allclose(normed.mean(axis=1), 0.0, atol=1e-6)
        np.testing.assert_allclose(normed.std(axis=1), 1.0, atol=1e-6)

    def test_constant_dimension_rejected(self):
        feats = [np.vstack([np.random.default_rng(5).normal(size=100), np.ones(100)])]
        with pytest.raises(ValueError, match="zero-variance"):
            FeatureStats.fit(feats)

    def test_stats_frozen_for_test_data(self):
        rng = np.random.default_rng(6)
        train = [rng.normal(size=(3, 100))]
        stats = FeatureStats.fit(train)
        test = rng.normal(loc=50.0, size=(3, 100))
        out = stats.apply(test)
        # applying train stats leaves the test shift visible (no refit)
        assert out.mean() > 10.0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_statistics_rejected(self, value):
        feats = np.random.default_rng(8).normal(size=(3, 50))
        feats[1, 5] = value
        with pytest.raises(ValueError, match=r"mean is not finite at feature dimension\(s\) \[1\]"), \
                np.errstate(invalid="ignore"):
            FeatureStats.fit([feats])
        with pytest.raises(ValueError, match=r"std is not finite at feature dimension\(s\) \[0\]"):
            FeatureStats.from_dict({"mean": [0.0, 0.0], "std": [value, 1.0]})

    def test_dict_roundtrip(self):
        stats = FeatureStats.fit([np.random.default_rng(7).normal(size=(3, 50))])
        again = FeatureStats.from_dict(stats.to_dict())
        np.testing.assert_array_equal(stats.mean, again.mean)


class TestExternalFeatures:
    def test_roundtrip_bit_identical(self, tmp_path):
        arr = np.random.default_rng(8).normal(size=(16, 150)).astype(np.float32)
        dataset_io.write_feature_file(tmp_path, 3, arr, 50.0)
        got, rate = dataset_io.read_feature_file(tmp_path, 3)
        assert rate == 50.0
        np.testing.assert_array_equal(got, arr)

    def test_sidecar_shape_contract(self, tmp_path):
        arr = np.zeros((1024, 150), dtype=np.float32)
        dataset_io.write_feature_file(tmp_path, 0, arr, 50.0)
        got, rate = dataset_io.read_feature_file(tmp_path, 0)
        assert got.shape == (1024, 150)

    def test_corrupted_length_reports_sizes(self, tmp_path):
        arr = np.zeros((4, 10), dtype=np.float32)
        dataset_io.write_feature_file(tmp_path, 1, arr, 50.0)
        path = tmp_path / "features" / "1.bin"
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(dataset_io.DatasetFormatError, match="160 bytes.*152"):
            dataset_io.read_feature_file(tmp_path, 1)
