"""Signal chain: resample to the working rate, baseline-correct, robust-scale, clamp.

The pipeline order is fixed. Baseline correction is applied per extracted
window; scaler statistics are fit once per recording on its training-split
portion and then applied everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence, Tuple

import numpy as np

from . import twoway
from .dataset.windows import WORKING_RATE, resampled_length

# Outputs per resampling block, rounded up to a multiple of ``up``. Measured
# with one BLAS thread at 600 -> 120 Hz on 64 x 210,900 float32 samples
# (median of 7): 16 took 0.154 s, 32 took 0.144 s, 48 took 0.171 s and
# 64 took 0.185 s; 32 was also fastest at 500 and 1000 Hz.
_RESAMPLE_BLOCK = 32

# Minimum rows of ``step`` input samples in each GEMM of ``resample``.
# OpenBLAS runs a GEMM with M * N * K <= 1e6 through small-matrix kernels,
# which can sum in another order than the tall whole-signal GEMM; with
# N = block >= 32 and K = step >= block, more than 977 rows stay above that
# limit. At 512 rows 6 of 1120 cases (300 -> 250 Hz, 42 x 35 taps) differed
# by 1e-15; at 1024 and 2048 none did. Measured with one BLAS thread on a
# 2-vCPU VM, on 64 channels of 351 s (median of 7), resampling the whole
# signal in GEMMs of 1024 / 2048 / 4096 / 8192 rows took 0.092 / 0.068 /
# 0.076 / 0.063 s at 600 Hz, 0.058 / 0.059 / 0.056 / 0.063 s at 500 Hz and
# 0.113 / 0.118 / 0.111 / 0.117 s at 1000 Hz.
_RESAMPLE_ROWS = 2048


class DegenerateChannel(ValueError):
    """A channel's interquartile range is zero; it cannot be scaled."""


def _resample_filter(up: int, down: int, half_zc: int = 16, beta: float = 8.6,
                     rolloff: float = 0.94) -> np.ndarray:
    """Kaiser-windowed sinc lowpass for a rational-rate polyphase resampler."""
    max_rate = max(up, down)
    half = half_zc * max_rate
    n = np.arange(-half, half + 1)
    c = rolloff / max_rate  # cutoff as a fraction of the upsampled Nyquist
    h = c * np.sinc(c * n) * np.kaiser(2 * half + 1, beta)
    h /= h.sum()
    return h * up


def resample(signal: np.ndarray, sr_in: float, sr_out: float = WORKING_RATE,
             spans: Optional[Sequence[Tuple[int, int]]] = None):
    """Windowed-sinc polyphase resampling of a (C, T) signal.

    Downsampling only; content above ``sr_out / 2`` is attenuated by at
    least 60 dB. Edges are handled by constant extension so DC signals are
    preserved exactly. Output length is :func:`resampled_length` of ``T``,
    and the output keeps the input dtype (the arithmetic is float64).

    With ``spans``, a sequence of ``(start, stop)`` output-sample ranges
    (they may overlap and touch either edge), only those samples are
    computed and a list of ``(C, stop - start)`` arrays is returned, one per
    span. Without it the whole output is one span, returned as one array.
    Each requested sample is byte-equal to the same sample of the whole
    output.

    Only output-rate samples are computed (no full-rate convolution), so the
    work scales with the requested length. Output ``i`` is the zero-stuffed,
    edge-extended input convolved with the filter at upsampled position
    ``i * down``. A block of ``G`` outputs (``G`` a multiple of ``up``)
    advances the input by exactly ``step = G * down / up`` samples, so one
    banded (rows, G) tap matrix serves every block. Cut into row slices of
    height ``step``, it turns a channel into a few GEMMs against its input
    reshaped into non-overlapping rows of ``step`` samples. The spans' blocks
    form runs, merged where their rows overlap or touch, and only the rows
    under a run are gathered; each run's outputs are the same sums in the
    same order as in the whole signal's GEMM.

    Channels run in groups of at least ``_RESAMPLE_ROWS`` such rows, which
    zero rows pad when the runs hold fewer. When the whole signal holds fewer,
    every row of every channel makes one GEMM, the whole signal's own. The
    groups split in two halves, the calling thread's and one pool thread's,
    through :data:`brainspeech.twoway.split`. The same split serves every
    two-way site: this one, the halves of :meth:`ScalerParams.fit`'s channel
    rows, and the batch halves of ``conv1d``, ``glu`` and ``gelu``'s
    backward. Each half reuses its own float64 input and product buffers,
    both allocated on the calling thread, so the extra memory is a few MB
    whatever the recording's size. The pool thread runs only the inner loop,
    which no profiler wraps by name.
    """
    signal = np.atleast_2d(np.asarray(signal))
    if sr_out <= 0 or sr_in <= 0:
        raise ValueError("sample rates must be positive")
    if sr_in < sr_out:
        raise ValueError(f"upsampling unsupported ({sr_in} Hz -> {sr_out} Hz)")
    channels, t_in = signal.shape
    t_out = resampled_length(t_in, sr_in, sr_out)
    whole = spans is None
    spans = [(0, t_out)] if whole else list(spans)
    for a, b in spans:
        if not 0 <= a <= b <= t_out:
            raise ValueError(f"span {(a, b)} is outside the {t_out} output samples")
    outs = [np.empty((channels, b - a), dtype=signal.dtype) for a, b in spans]
    if sr_in == sr_out:
        for out, (a, b) in zip(outs, spans):
            out[:] = signal[:, a:b]
        return outs[0] if whole else outs
    if t_in == 0:
        raise ValueError("cannot resample an empty signal")

    ratio = Fraction(sr_out / sr_in).limit_denominator(10000)
    up, down = ratio.numerator, ratio.denominator
    h = _resample_filter(up, down)
    half = (len(h) - 1) // 2
    pad_in = -(-half // up)  # ceil; constant extension on both edges
    offset = pad_in * up + half  # output 0's index in the full convolution

    block = up * -(-_RESAMPLE_BLOCK // up)
    step = block * down // up
    # extended-input samples first .. last feed some output of a block
    first = -(-(offset - 2 * half) // up)
    last = ((block - 1) * down + offset) // up
    n_slices = -(-(last - first + 1) // step)
    lag = np.arange(block) * down + offset - (first + np.arange(n_slices * step)[:, None]) * up
    taps = np.where((lag >= 0) & (lag < len(h)), h[np.clip(lag, 0, len(h) - 1)], 0.0)

    # runs [b0, b1) of output blocks under the spans; block b reads rows
    # b .. b + n_slices - 1, so runs whose rows overlap or touch merge
    runs = []
    for a, b in sorted(span for span in spans if span[0] < span[1]):
        b0, b1 = a // block, -(-b // block)
        if runs and b0 < runs[-1][1] + n_slices:
            runs[-1][1] = max(runs[-1][1], b1)
        else:
            runs.append([b0, b1])
    if not runs:
        return outs[0] if whole else outs
    n_blocks = -(-t_out // block)
    per = max(-(-_RESAMPLE_ROWS // channels), n_slices)  # rows per channel per GEMM
    if n_blocks + n_slices - 1 < per:
        # the whole signal's one GEMM is below the limit: run exactly that GEMM
        runs, per = [[0, n_blocks]], n_blocks + n_slices - 1
    # cut the runs into pieces (b0, b1, o), blocks b0 .. b1 - 1 whose rows
    # start at row o of each channel's ``per`` rows, and the pieces into GEMMs
    groups, pieces, o = [], [], 0
    for b0, b1 in runs:
        while b0 < b1:
            if o + n_slices > per:
                groups.append(pieces)
                pieces, o = [], 0
            cut = min(b1, b0 + per - o - n_slices + 1)
            pieces.append((b0, cut, o))
            o += cut - b0 + n_slices - 1
            b0 = cut
    groups.append(pieces)
    starts, stops = np.array(spans).T
    lead = pad_in - first  # extended sample ``first`` is signal sample ``-lead``

    def extend(dst, p0) -> None:
        """The extended input from sample ``first + p0`` on: edge values for
        ``pad_in`` samples on both sides, zeros beyond (np.convolve's full mode)."""
        i0 = p0 - lead
        c0, c1, c2 = np.clip([-i0, t_in - i0, t_in + pad_in - i0], 0, dst.shape[1])
        dst[:, :c0] = signal[:, :1]
        dst[:, c0:c1] = signal[:, i0 + c0 : i0 + c1]
        dst[:, c1:c2] = signal[:, -1:]
        dst[:, c2:] = 0.0

    def resample_groups(groups, x, prods) -> None:
        rows = x.reshape(channels * per, step)
        for pieces in groups:
            for b0, b1, o in pieces:
                extend(x[:, o * step : (o + b1 - b0 + n_slices - 1) * step], b0 * step)
            p0 = np.matmul(rows, taps[:step], out=prods[0]).reshape(channels, per, block)
            accs = [p0[:, o : o + b1 - b0] for b0, b1, o in pieces]
            for j in range(1, n_slices):
                pj = np.matmul(rows, taps[j * step : (j + 1) * step], out=prods[1])
                pj = pj.reshape(channels, per, block)
                for acc, (_, _, o) in zip(accs, pieces):
                    acc += pj[:, o + j : o + j + acc.shape[1]]
            for acc, (b0, b1, _) in zip(accs, pieces):
                acc = acc.reshape(channels, -1)
                lo, hi = b0 * block, b1 * block
                for i in np.flatnonzero((starts < hi) & (stops > lo)):
                    a, b = spans[i]
                    c0, c1 = max(a, lo), min(b, hi)
                    outs[i][:, c0 - a : c1 - a] = acc[:, c0 - lo : c1 - lo]

    # each half of the GEMMs gets its own buffers, allocated on this thread;
    # rows a GEMM's pieces leave over hold zeros or an earlier GEMM's rows
    split = twoway.split
    split.run([
        partial(resample_groups, groups[part], np.zeros((channels, per * step)),
                np.empty((2, channels * per, block)))
        for part in split.halves(len(groups), channels * per * step * len(groups)
                                 + sum(out.size for out in outs))
    ])
    return outs[0] if whole else outs


def baseline_correct(window: np.ndarray, baseline_dur: float = 0.5,
                     sample_rate: float = WORKING_RATE) -> np.ndarray:
    """Subtract each channel's mean over the first ``baseline_dur`` seconds."""
    window = np.asarray(window)
    n0 = int(round(baseline_dur * sample_rate))
    if window.ndim != 2 or window.shape[1] < n0:
        raise ValueError(f"window of {window.shape} too short for {baseline_dur}s baseline")
    return window - window[:, :n0].mean(axis=1, keepdims=True)


@dataclass
class ScalerParams:
    """Per-channel robust-scaler statistics (training portion only)."""

    q25: np.ndarray
    median: np.ndarray
    q75: np.ndarray

    def __post_init__(self):
        self.q25 = np.asarray(self.q25, dtype=np.float64)
        self.median = np.asarray(self.median, dtype=np.float64)
        self.q75 = np.asarray(self.q75, dtype=np.float64)
        bad = np.flatnonzero(self.q75 - self.q25 <= 0)
        if bad.size:
            raise DegenerateChannel(
                f"channel(s) {bad.tolist()} have zero interquartile range"
            )
        if np.any(self.q25 > self.median) or np.any(self.median > self.q75):
            raise ValueError("quantiles out of order")

    @classmethod
    def fit(cls, signal: np.ndarray) -> "ScalerParams":
        """Quartiles of each channel of a (C, T) signal.

        One copy of ``signal`` is made here; the halves of its channel rows
        are partitioned in place, on this thread and the pool thread of
        :data:`brainspeech.twoway.split`.
        """
        data = np.array(signal)
        quartiles = np.empty((3, data.shape[0]))

        def quartile_rows(rows) -> None:
            quartiles[:, rows] = np.quantile(data[rows], [0.25, 0.5, 0.75], axis=1,
                                             overwrite_input=True)

        twoway.split(len(data), data.size, quartile_rows)
        q25, med, q75 = quartiles
        return cls(q25=q25, median=med, q75=q75)

    def apply(self, signal: np.ndarray) -> np.ndarray:
        """Affine map sending q25 -> -1 and q75 -> +1 per channel."""
        q25 = self.q25[:, None]
        q75 = self.q75[:, None]
        return (2.0 * signal - q25 - q75) / (q75 - q25)

    def to_dict(self) -> dict:
        return {
            "q25": self.q25.tolist(),
            "median": self.median.tolist(),
            "q75": self.q75.tolist(),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "ScalerParams":
        return cls(q25=obj["q25"], median=obj["median"], q75=obj["q75"])


def clamp(signal: np.ndarray, limit: Optional[float] = 20.0) -> np.ndarray:
    """Saturate values to [-limit, +limit]; ``limit=None`` is the ablation identity."""
    if limit is None:
        return np.asarray(signal).copy()
    if limit <= 0:
        raise ValueError("clamp limit must be positive")
    return np.clip(signal, -limit, limit)


def preprocess_window(window: np.ndarray, params: ScalerParams,
                      baseline_dur: float = 0.5, sample_rate: float = WORKING_RATE,
                      clamp_limit: Optional[float] = 20.0) -> np.ndarray:
    """Fixed-order window pipeline: baseline-correct, robust-scale, clamp."""
    out = baseline_correct(window, baseline_dur, sample_rate)
    out = params.apply(out)
    return clamp(out, clamp_limit)
