import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brainspeech import twoway
from brainspeech.preprocessing import (
    _RESAMPLE_BLOCK,
    _RESAMPLE_ROWS,
    DegenerateChannel,
    ScalerParams,
    _resample_filter,
    baseline_correct,
    clamp,
    preprocess_window,
    resample,
)


def fft_resample_oracle(x, sr_in, sr_out):
    """Spectrum-truncation resampling (independent of the polyphase path)."""
    t_in = x.shape[-1]
    t_out = int(round(t_in * sr_out / sr_in))
    spec = np.fft.rfft(x)
    keep = t_out // 2 + 1
    return np.fft.irfft(spec[..., :keep] * (t_out / t_in), n=t_out)


def convolve_resample_oracle(signal, sr_in, sr_out):
    """Direct polyphase resampling: zero-stuff, convolve each channel at the
    full upsampled rate with ``np.convolve`` and keep every ``down``-th output.
    Same filter and edge handling as :func:`resample`, none of its blocking."""
    signal = np.atleast_2d(np.asarray(signal))
    t_out = int(round(signal.shape[1] * sr_out / sr_in))
    ratio = Fraction(sr_out / sr_in).limit_denominator(10000)
    up, down = ratio.numerator, ratio.denominator
    h = _resample_filter(up, down)
    half = (len(h) - 1) // 2
    pad_in = -(-half // up)
    padded = np.pad(signal, ((0, 0), (pad_in, pad_in)), mode="edge")
    stuffed = np.zeros((signal.shape[0], padded.shape[1] * up), dtype=np.float64)
    stuffed[:, ::up] = padded
    out = np.empty((signal.shape[0], t_out), dtype=signal.dtype)
    take = np.arange(t_out) * down + pad_in * up + half
    for c in range(signal.shape[0]):
        out[c] = np.convolve(stuffed[c], h)[take]
    return out


def whole_signal_resample(signal, sr_in, sr_out):
    """The blocked polyphase GEMM over the whole signal at once: one
    edge-extended float64 copy of every channel, float64 products, then a
    cast to the input dtype. Same filter, taps, blocks and summation order
    as :func:`resample`, none of its grouping into GEMMs."""
    signal = np.atleast_2d(np.asarray(signal))
    channels, t_in = signal.shape
    t_out = int(round(t_in * sr_out / sr_in))
    ratio = Fraction(sr_out / sr_in).limit_denominator(10000)
    up, down = ratio.numerator, ratio.denominator
    h = _resample_filter(up, down)
    half = (len(h) - 1) // 2
    pad_in = -(-half // up)
    offset = pad_in * up + half

    block = up * -(-_RESAMPLE_BLOCK // up)
    step = block * down // up
    first = -(-(offset - 2 * half) // up)
    last = ((block - 1) * down + offset) // up
    n_slices = -(-(last - first + 1) // step)
    lag = np.arange(block) * down + offset - (first + np.arange(n_slices * step)[:, None]) * up
    taps = np.where((lag >= 0) & (lag < len(h)), h[np.clip(lag, 0, len(h) - 1)], 0.0)

    n_blocks = -(-t_out // block)
    n_rows = n_blocks + n_slices - 1
    x = np.zeros((channels, n_rows * step))
    lead = pad_in - first
    body = signal[:, : x.shape[1] - lead]
    x[:, :lead] = signal[:, :1]
    x[:, lead : lead + body.shape[1]] = body
    x[:, lead + t_in : lead + t_in + pad_in] = signal[:, -1:]

    rows = x.reshape(channels * n_rows, step)
    out = (rows @ taps[:step]).reshape(channels, n_rows, block)[:, :n_blocks]
    for j in range(1, n_slices):
        part = rows @ taps[j * step : (j + 1) * step]
        out += part.reshape(channels, n_rows, block)[:, j : j + n_blocks]
    return out.reshape(channels, n_blocks * block)[:, :t_out].astype(signal.dtype)


# (sr_in, sr_out): integer and rational ratios; 500, 1000 and 1017 Hz give up > 1.
RATE_PAIRS = [(150.0, 120.0), (240.0, 120.0), (250.0, 120.0), (300.0, 120.0),
              (480.0, 120.0), (500.0, 120.0), (600.0, 120.0), (720.0, 120.0),
              (1000.0, 120.0), (1017.0, 120.0), (1200.0, 120.0), (1000.0, 250.0),
              (1200.0, 150.0)]


def tone_amplitude(x, freq, rate):
    t = np.arange(x.shape[-1]) / rate
    c = (x * np.cos(2 * np.pi * freq * t)).mean() * 2
    s = (x * np.sin(2 * np.pi * freq * t)).mean() * 2
    return np.hypot(c, s)


class TestResample:
    def test_tone_amplitude_matches_fft_oracle(self):
        rate_in, rate_out, dur = 480.0, 120.0, 8.0
        t = np.arange(int(rate_in * dur)) / rate_in
        x = np.sin(2 * np.pi * 10.0 * t)[None, :]
        got = resample(x, rate_in, rate_out)[0]
        want = fft_resample_oracle(x, rate_in, rate_out)[0]
        # compare in the bulk; both paths have (different) edge behavior
        sl = slice(120, -120)
        a_got = tone_amplitude(got[sl], 10.0, rate_out)
        a_want = tone_amplitude(want[sl], 10.0, rate_out)
        assert abs(a_got - a_want) / a_want < 0.01
        assert abs(a_got - 1.0) < 0.01

    def test_constant_preserved(self):
        x = np.full((2, 2000), 3.25)
        out = resample(x, 600.0, 120.0)
        np.testing.assert_allclose(out, 3.25, atol=1e-9)

    def test_identity_when_rates_equal(self):
        x = np.random.default_rng(0).normal(size=(3, 500))
        out = resample(x, 120.0, 120.0)
        np.testing.assert_array_equal(out, x)

    def test_output_length(self):
        x = np.zeros((1, 1001))
        assert resample(x, 480.0, 120.0).shape == (1, round(1001 * 120 / 480))

    def test_upsampling_rejected(self):
        with pytest.raises(ValueError, match="upsampling"):
            resample(np.zeros((1, 100)), 100.0, 120.0)

    def test_stopband_attenuation(self):
        rate_in, rate_out = 480.0, 120.0
        t = np.arange(int(rate_in * 10)) / rate_in
        for freq in (66.0, 90.0, 150.0):
            x = np.sin(2 * np.pi * freq * t)[None, :]
            out = resample(x, rate_in, rate_out)[0][120:-120]
            # aliased tone lands at |freq - 120| or mirrored; bound total power
            rms = np.sqrt((out**2).mean())
            assert rms < 10 ** (-60 / 20) / np.sqrt(2) * 1.5

    def test_rational_ratio(self):
        t = np.arange(5000) / 500.0
        x = np.sin(2 * np.pi * 7.0 * t)[None, :]
        out = resample(x, 500.0, 120.0)[0]
        assert out.shape[0] == 1200
        assert abs(tone_amplitude(out[120:-120], 7.0, 120.0) - 1.0) < 0.01


class TestResampleMatchesConvolveOracle:
    @settings(max_examples=60, deadline=None)
    @given(rates=st.sampled_from(RATE_PAIRS), length=st.integers(1, 1500),
           channels=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_float64_within_1e12_relative(self, rates, length, channels, seed):
        x = np.random.default_rng(seed).normal(size=(channels, length))
        got = resample(x, *rates)
        want = convolve_resample_oracle(x, *rates)
        assert got.shape == want.shape and got.dtype == np.float64
        if want.size:
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("rates", [(600.0, 120.0), (1017.0, 120.0)])
    def test_float32_in_float32_out(self, rates):
        x = np.random.default_rng(3).normal(size=(2, 2000)).astype(np.float32)
        got = resample(x, *rates)
        want = convolve_resample_oracle(x, *rates)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=0, atol=4e-7 * np.abs(want).max())

    def test_empty_signal_rejected_like_the_oracle(self):
        with pytest.raises(ValueError):
            convolve_resample_oracle(np.zeros((2, 0)), 600.0, 120.0)
        with pytest.raises(ValueError):
            resample(np.zeros((2, 0)), 600.0, 120.0)


class TestResampleMatchesWholeSignal:
    """Grouping rows into GEMMs changes no bit: every output is the same float64 sum."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rates", RATE_PAIRS + [(300.0, 250.0)])
    def test_byte_identical(self, rates, dtype):
        rng = np.random.default_rng(7)
        for length in (1, 2, 50, 1000, 5000, 12345, 60000):
            for channels in (1, 3, 21, 64):
                x = rng.normal(size=(channels, length)).astype(dtype)
                got = resample(x, *rates)
                want = whole_signal_resample(x, *rates)
                assert got.dtype == want.dtype == dtype
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (length, channels)

    @pytest.fixture(scope="class")
    def recording(self):
        # the ingest-mel-eval benchmark's recording shape: 64 channels at 600 Hz
        return np.random.default_rng(11).normal(size=(64, 210_900)).astype(np.float32)

    def test_benchmark_recording_byte_identical(self, recording):
        got = resample(recording, 600.0, 120.0)
        want = whole_signal_resample(recording, 600.0, 120.0)
        assert got.dtype == np.float32 and got.shape == want.shape == (64, 42_180)
        assert got.tobytes() == want.tobytes()

    def test_benchmark_recording_byte_identical_with_split_forced(self, split_mode, recording):
        got = resample(recording, 600.0, 120.0)
        assert got.tobytes() == whole_signal_resample(recording, 600.0, 120.0).tobytes()
        assert (twoway.split._pool is not None) == (split_mode == "split")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_byte_identical_with_split_forced(self, split_mode, dtype):
        """Each half of the GEMMs, with its own buffers, gives the
        whole-signal bytes, on two threads and on one."""
        rng = np.random.default_rng(8)
        for rates in RATE_PAIRS + [(300.0, 250.0)]:
            for length, channels in ((1000, 64), (12345, 64), (60000, 8)):
                x = rng.normal(size=(channels, length)).astype(dtype)
                got = resample(x, *rates)
                want = whole_signal_resample(x, *rates)
                assert got.tobytes() == want.tobytes(), (rates, length, channels)
        assert (twoway.split._pool is not None) == (split_mode == "split")

    def test_peak_allocation_below_half_the_input(self, recording):
        tracemalloc.start()
        try:
            resample(recording, 600.0, 120.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < recording.nbytes / 2


def window_spans(t_out, width, rng, n):
    """Spans of ``width`` samples: one at each edge, an overlapping and a
    touching pair, ``n`` at random, a repeat, one sample and an empty span."""
    mid = t_out // 2
    spans = [(0, width), (t_out - width, t_out), (mid, mid + width),
             (mid + width // 3, mid + width // 3 + width), (mid + width, mid + 2 * width),
             (0, width), (5, 6), (7, 7)]
    spans += [(a, a + width) for a in rng.integers(0, t_out - width + 1, size=n).tolist()]
    return spans


class TestWindowedResample:
    """Each requested span is byte-equal to the same columns of the whole
    signal's blocked GEMM, however few rows the spans select. 300 -> 250 Hz
    steps only 42 samples per row, so more of its GEMMs are small."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rates", [(500.0, 120.0), (600.0, 120.0), (1000.0, 120.0),
                                       (300.0, 250.0)])
    @pytest.mark.parametrize("channels, length, n", [
        (32, 30_000, 40),  # a 50 s recording with many windows
        (32, 30_000, 0),  # few windows: zero rows pad their GEMMs to the limit
        (8, 60_000, 6),
        # the whole signal's one GEMM has fewer rows than the limit, and under
        # 1e6 multiply-adds, where OpenBLAS runs its small-matrix kernels
        (1, 18_000, 2),
    ])
    def test_spans_byte_equal_to_whole_signal(self, split_mode, rates, dtype, channels,
                                             length, n):
        if channels == 1:
            # every rate pair here steps at least 42 input samples per row
            assert length // 42 + 5 < _RESAMPLE_ROWS
        for seed in range(3):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(channels, length)).astype(dtype)
            whole = whole_signal_resample(x, *rates)
            spans = window_spans(whole.shape[1], 360, rng, n)
            got = resample(x, *rates, spans)
            assert len(got) == len(spans)
            for (a, b), window in zip(spans, got):
                assert window.dtype == dtype and window.shape == (channels, b - a)
                assert window.tobytes() == whole[:, a:b].tobytes(), (seed, a, b)

    def test_spans_at_the_working_rate_are_copies(self):
        x = np.random.default_rng(4).normal(size=(3, 500)).astype(np.float32)
        got = resample(x, 120.0, 120.0, [(0, 360), (140, 500)])
        assert [w.tobytes() for w in got] == [x[:, :360].tobytes(), x[:, 140:].tobytes()]
        assert not any(np.shares_memory(w, x) for w in got)

    @pytest.mark.parametrize("span", [(-1, 10), (10, 9), (0, 401)])
    def test_span_outside_the_output_rejected(self, span):
        with pytest.raises(ValueError, match="outside the 400 output samples"):
            resample(np.zeros((2, 2000)), 600.0, 120.0, [span])


class TestBaselineCorrect:
    def test_constant_channel_zeroed(self):
        win = np.full((2, 360), 7.0)
        np.testing.assert_allclose(baseline_correct(win), 0.0)

    def test_piecewise_shift(self):
        win = np.concatenate([np.full((1, 60), 2.0), np.full((1, 300), 5.0)], axis=1)
        out = baseline_correct(win)
        np.testing.assert_allclose(out[0, :60], 0.0)
        np.testing.assert_allclose(out[0, 60:], 3.0)

    def test_zero_fixed_point(self):
        np.testing.assert_array_equal(baseline_correct(np.zeros((3, 360))), 0.0)

    def test_idempotent(self):
        win = np.random.default_rng(1).normal(size=(4, 360))
        once = baseline_correct(win)
        np.testing.assert_allclose(baseline_correct(once), once, atol=1e-12)

    def test_first_half_second_mean_zero(self):
        win = np.random.default_rng(2).normal(loc=5.0, size=(4, 360))
        out = baseline_correct(win)
        np.testing.assert_allclose(out[:, :60].mean(axis=1), 0.0, atol=1e-6)

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            baseline_correct(np.zeros((1, 30)))


class TestRobustScale:
    def test_quantile_endpoints(self):
        p = ScalerParams(q25=np.array([-2.0]), median=np.array([0.0]), q75=np.array([2.0]))
        np.testing.assert_allclose(p.apply(np.array([[2.0]])), 1.0)
        np.testing.assert_allclose(p.apply(np.array([[-2.0]])), -1.0)

    def test_midpoint_maps_to_zero(self):
        p = ScalerParams(q25=np.array([1.0]), median=np.array([2.5]), q75=np.array([4.0]))
        np.testing.assert_allclose(p.apply(np.array([[2.5]])), 0.0)

    def test_uniform_channel_quantiles(self):
        x = np.random.default_rng(3).uniform(0, 1, size=(1, 10**6))
        p = ScalerParams.fit(x)
        scaled = p.apply(x)
        q25, q75 = np.quantile(scaled[0], [0.25, 0.75])
        assert abs(q25 + 1.0) < 0.01
        assert abs(q75 - 1.0) < 0.01

    def test_degenerate_channel_identified(self):
        sig = np.vstack([np.random.default_rng(4).normal(size=100), np.ones(100)])
        with pytest.raises(DegenerateChannel, match="1"):
            ScalerParams.fit(sig)

    def test_affine_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 500))
        a = rng.uniform(0.5, 2.0, size=(3, 1))
        b = rng.normal(size=(3, 1))
        base = ScalerParams.fit(x).apply(x)
        moved = ScalerParams.fit(a * x + b).apply(a * x + b)
        np.testing.assert_allclose(base, moved, atol=1e-9)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fit_matches_whole_signal_quantiles(self, split_mode, dtype):
        """The halves of the channel rows, partitioned in place on two threads
        or on one, give np.quantile's bytes and leave the input untouched."""
        rng = np.random.default_rng(9)
        for channels, length in ((1, 50), (2, 7), (5, 1000), (64, 4001)):
            for x in (rng.standard_t(3, size=(channels, length)).astype(dtype),
                      np.round(rng.normal(size=(channels, length)) * 2).astype(dtype)):
                kept = x.copy()
                params = ScalerParams.fit(x)
                want = np.quantile(kept, [0.25, 0.5, 0.75], axis=1)
                for got, w in zip((params.q25, params.median, params.q75), want):
                    assert got.dtype == np.float64 and got.tobytes() == w.tobytes()
                assert x.tobytes() == kept.tobytes()
        assert (twoway.split._pool is not None) == (split_mode == "split")

    def test_fit_allocates_at_most_one_copy(self, split_mode):
        ScalerParams.fit(np.arange(8.0).reshape(2, 4))  # numpy's first quantile imports numpy.ma
        x = np.random.default_rng(10).normal(size=(64, 50_000)).astype(np.float32)
        tracemalloc.start()
        try:
            ScalerParams.fit(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= x.nbytes + (64 << 10)

    def test_roundtrip_dict(self):
        p = ScalerParams.fit(np.random.default_rng(6).normal(size=(2, 100)))
        q = ScalerParams.from_dict(p.to_dict())
        np.testing.assert_array_equal(p.q25, q.q25)
        np.testing.assert_array_equal(p.q75, q.q75)


class TestClamp:
    def test_saturation(self):
        assert clamp(np.array([25.0]))[0] == 20.0

    def test_symmetric(self):
        assert clamp(np.array([-25.0]))[0] == -20.0

    def test_none_is_identity(self):
        x = np.array([1e6, -1e6, 0.5])
        np.testing.assert_array_equal(clamp(x, None), x)

    def test_inside_range_untouched(self):
        x = np.linspace(-19.9, 19.9, 100)
        np.testing.assert_array_equal(clamp(x), x)

    def test_idempotent(self):
        x = np.random.default_rng(7).normal(scale=30, size=200)
        once = clamp(x)
        np.testing.assert_array_equal(clamp(once), once)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), scale=st.floats(0.1, 100.0))
def test_pipeline_never_exceeds_clamp(seed, scale):
    rng = np.random.default_rng(seed)
    win = rng.normal(scale=scale, size=(3, 360))
    win[0, 100] = scale * 1e5  # an extreme outlier
    params = ScalerParams.fit(rng.normal(scale=scale, size=(3, 2000)))
    out = preprocess_window(win, params)
    assert np.all(np.abs(out) <= 20.0)
