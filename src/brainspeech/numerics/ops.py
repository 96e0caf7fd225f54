"""Differentiable primitives used by the decoding networks.

All functions return a :class:`Tensor` and take one for each operand that
can need a gradient; constants (masks, indices, the Fourier basis) are
arrays. Data layout convention is (batch, channel, time) for 3-axis
tensors. Every op here has a matching finite-difference check in the test
suite (acceptance criterion 2 fails for an op without one). Outputs and
gradients keep the input dtype: constants are Python floats, which NumPy 2
casts to the array's dtype instead of promoting float32 to float64.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np
from scipy.special import erf

from .. import twoway
from .tensor import Tensor, from_op

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
# Bytes of one thread's conv1d column buffer. conv1d fills the columns of as
# many samples as fit (at least one) and runs their GEMMs in one call. A
# paper-width sample (320 channels, k=3, 360 steps of float32) takes 1.4 MB,
# so it goes alone; at desk width (32 channels) 7 samples share one call's
# Python work. On a 2-core VM with one BLAS thread, one desk sample per call
# made perfbench's traced conv1d forward 1.26x (desk-quickstart) and 1.37x
# (ingest-mel-eval) as long as one batch-sized buffer did. At 1 MB a
# desk-width conv (B=32, 32 -> 64 channels, split over two threads) took
# 2.0 ms forward and 5.1 ms backward against 2.0 and 5.4 with batch-sized
# buffers and 2.5 and 5.6 with 128 kB, timed in turn in one process; 2 and
# 4 MB timed like 1 MB.
_COLUMN_BYTES = 1 << 20


def _fill_taps(x: np.ndarray, taps: Sequence[np.ndarray], dilation: int) -> None:
    """Write the same-padded dilated taps of ``x`` along its last axis.

    ``taps[j][..., s] = x[..., s + j*dilation - pad]`` with zeros where that
    index falls outside ``x``; ``pad = dilation * (k - 1) // 2`` for k taps.
    """
    for j, tap in enumerate(taps):
        lo, hi, off = _tap_span(x.shape[-1], len(taps), dilation, j)
        tap[..., :lo] = 0
        tap[..., hi:] = 0
        tap[..., lo:hi] = x[..., lo + off : hi + off]


def _tap_span(t: int, k: int, dilation: int, j: int):
    """(lo, hi, off): tap j reads input ``s + off`` for outputs ``lo <= s < hi``."""
    off = j * dilation - dilation * (k - 1) // 2
    lo = min(max(-off, 0), t)
    return lo, max(min(t - off, t), lo), off


def conv1d(x: Tensor, w: Tensor, b: Optional[Tensor] = None, dilation: int = 1,
           residual: Optional[Tensor] = None) -> Tensor:
    """Same-padded dilated 1D convolution, plus an optional residual.

    ``x`` is (B, Cin, T), ``w`` is (Cout, Cin, k) with k odd, ``b`` is
    (Cout,). Output time length equals input time length; padding is
    ``dilation * (k - 1) / 2`` zeros on each side. ``residual`` (B, Cout, T)
    is added after the bias, ``(W·cols + b) + residual``, in the forward's
    own pass, so no separate sum is kept for backward.

    Forward and input gradient run one GEMM per sample and the weight
    gradient one GEMM over all B*T columns. Each thread allocates and reuses
    one column buffer of ``_COLUMN_BYTES`` (one sample, if a sample's
    (Cin*k, T) columns take more): it fills the columns of the samples that
    fit just before their forward GEMMs, and takes their input gradient's
    GEMM outputs, which it scatters back (col2im) into their rows of dx at
    once. So neither pass holds a k-times copy of the batch. Over two threads
    (``twoway.split``) the per-sample work splits per half of the batch, and
    the weight gradient's GEMM runs beside the input gradient, whose GEMMs
    do as many multiply-adds. No GEMM changes its shape or operands and no
    sum its order.
    """
    if x.ndim != 3 or w.ndim != 3:
        raise ValueError("conv1d expects x (B,Cin,T) and w (Cout,Cin,k)")
    batch, cin, t = x.shape
    cout, cin_w, k = w.shape
    if cin_w != cin:
        raise ValueError(f"conv1d: input has {cin} channels, weight expects {cin_w}")
    if k % 2 == 0:
        raise ValueError("conv1d: kernel size must be odd")
    if dilation < 1:
        raise ValueError("conv1d: dilation must be >= 1")
    if b is not None and b.shape != (cout,):
        raise ValueError(f"conv1d: bias shape {b.shape} != ({cout},)")
    if residual is not None and residual.shape != (batch, cout, t):
        raise ValueError(f"conv1d: residual shape {residual.shape} != {(batch, cout, t)}")

    w2 = w.data.reshape(cout, cin * k)
    out_data = np.empty((batch, cout, t), dtype=np.result_type(w.data, x.data))
    sample_bytes = max(cin * k * t * x.dtype.itemsize, 1)
    # samples per call; k=1 needs no column buffer
    group = max(1, batch if k == 1 else _COLUMN_BYTES // sample_bytes)

    def groups(rows) -> list:
        """Slices of at most ``group`` samples covering ``rows``."""
        r = range(batch)[rows]
        return [slice(s, min(s + group, r.stop)) for s in r[::group]]

    def columns(rows, dtype) -> Optional[np.ndarray]:
        """A column buffer of at most ``group`` samples for ``rows``, None for
        k=1, allocated by the thread that runs ``rows``."""
        n = min(group, len(range(batch)[rows]))
        return np.empty((n, cin, k, t), dtype=dtype) if k > 1 else None

    def forward(rows) -> None:
        cols = columns(rows, x.dtype)
        for c in groups(rows):
            n = c.stop - c.start
            if k == 1:
                xs = np.ascontiguousarray(x.data[c])
            else:
                _fill_taps(x.data[c], [cols[:n, :, j] for j in range(k)], dilation)
                xs = cols[:n].reshape(n, cin * k, t)
            np.matmul(w2, xs, out=out_data[c])
            if b is not None:
                out_data[c] += b.data[:, None]
            if residual is not None:
                out_data[c] += residual.data[c]

    twoway.split(batch, out_data.size, forward)

    # Backward rebuilds the columns from x instead of keeping a k-times copy.
    def backward(g: np.ndarray) -> None:
        need_w, need_x = w.requires_grad, x.requires_grad
        if need_x:
            dx_type = np.result_type(w2, g)
            if k == 1:
                dx = np.empty((batch, cin, t), dtype=dx_type)
            else:
                # taps are added in j order into zeros, as a padded buffer would
                dx = np.zeros((batch, cin, t), dtype=x.dtype)
        if need_w:
            cols_tm = np.empty((batch, t, cin, k), dtype=x.dtype)
            g_cm = np.empty((cout, batch, t), dtype=g.dtype)
            dw2 = np.empty((cout, cin * k), dtype=np.result_type(g, x.data))

        def input_grad(rows) -> None:
            dcols = columns(rows, dx_type)
            for c in groups(rows):
                n = c.stop - c.start
                if k == 1:
                    np.matmul(w2.T, g[c], out=dx[c])
                    continue
                np.matmul(w2.T, g[c], out=dcols[:n].reshape(n, cin * k, t))
                dxs = dx[c]
                for j in range(k):
                    lo, hi, off = _tap_span(t, k, dilation, j)
                    dxs[..., lo + off : hi + off] += dcols[:n, :, j, lo:hi]

        def weight_operands(rows) -> None:
            _fill_taps(x.data[rows],
                       [cols_tm[rows, :, :, j].transpose(0, 2, 1) for j in range(k)],
                       dilation)
            g_cm[:, rows] = g[rows].transpose(1, 0, 2)

        def weight_grad() -> None:
            # dW = (Cout, B*T) gradient times (B*T, Cin*k) time-major columns,
            # one GEMM in the layout np.tensordot used (a transposed operand,
            # or a GEMM over part of the rows, may take other OpenBLAS kernels
            # for small sizes, summing differently).
            np.dot(g_cm.reshape(cout, batch * t), cols_tm.reshape(batch * t, cin * k), out=dw2)

        if need_w:
            twoway.split(batch, g.size, weight_operands)
        if need_w and need_x:
            # as many multiply-adds each: dW here, the per-sample dx GEMMs on the pool thread
            tasks = (weight_grad, lambda: input_grad(slice(None)))
            twoway.split(2, g.size, lambda r: [task() for task in tasks[r]])
        elif need_x:
            twoway.split(batch, g.size, input_grad)
        elif need_w:
            weight_grad()
        if need_w:
            w.accumulate(dw2.reshape(cout, cin, k))
        if b is not None and b.requires_grad:
            b.accumulate(g.sum(axis=(0, 2)))
        # g is read no more: the residual may keep it as its gradient buffer.
        # It gets g before x gets dx, the order of a separate add node.
        if residual is not None:
            residual.accumulate(g)
        if need_x:
            x.accumulate(dx)

    parents = tuple(p for p in (x, w, b, residual) if p is not None)
    return from_op(out_data, parents, backward)


class BatchNormState:
    """Running statistics for one batch-norm layer."""

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5,
                 dtype=np.float32):
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.momentum = momentum
        self.eps = eps
        self.initialized = False


def _affine(gamma: np.ndarray, beta: np.ndarray, xh: np.ndarray, out: np.ndarray) -> None:
    """BatchNorm's output ``gamma * xh + beta`` into ``out``."""
    np.multiply(gamma[:, None], xh, out=out)
    out += beta[:, None]


def _act_grad(act_backward, gamma: np.ndarray, beta: np.ndarray, xhat: np.ndarray,
              cdf: Optional[np.ndarray], g: np.ndarray, dtype) -> np.ndarray:
    """The gradient at BatchNorm's normalised output: ``g`` itself without an
    activation, else the activation's gradient at that output, recomputed per
    half-row (``dtype`` is the output's) by the forward's own expression."""
    if act_backward is None:
        return g
    y = np.empty(xhat.shape, dtype=dtype)
    dy = np.empty(xhat.shape, dtype=dtype)

    def rows(r) -> None:
        _affine(gamma, beta, xhat[r], y[r])
        act_backward(y[r], None if cdf is None else cdf[r], g[r], dy[r])

    twoway.split(len(dy), dy.size, rows)
    return dy


def batchnorm1d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    state: BatchNormState,
    training: bool,
    update_running: bool = True,
    activation: Optional[str] = None,
) -> Tensor:
    """Per-channel normalization over the (batch, time) axes, then optionally
    ``activation`` (``"gelu"`` or ``"relu"``).

    Train mode normalizes by batch statistics and (optionally) updates the
    running estimates; eval mode uses the frozen running statistics and
    fails if none were ever recorded.

    The elementwise passes (centring, squaring, scaling, the affine, the
    activation and their backward) run per half of the batch
    (``twoway.split``). The mean, the variance and the backward's sums stay
    one reduction over the whole array on the calling thread, so no sum
    changes its order and the result is bitwise that of the serial path.

    With an activation the op returns its output and keeps only the
    normalised input (and GELU's cdf): backward recomputes the normalised
    output ``gamma * xhat + beta`` per half-row with the forward's own
    expression, so its gradients are bitwise those of ``gelu`` or ``relu``
    applied to the plain op's output, which is never kept.

    Train mode registers a rebuild of its output from ``xhat`` (and the cdf)
    with the forward's own last steps (the affine, then ``x * cdf`` or the
    ReLU), no ``erf``, so ``Tensor.release`` may drop the output until
    backward reads it and the rebuilt bytes are the forward's.

    Train mode takes ownership of ``x.data``: it overwrites it with the
    normalised input ``xhat`` (same dtype, since ``mu`` is ``x``'s own mean),
    so the graph keeps no copy of an input no backward reads. As
    ``Tensor.accumulate`` asks of gradients, the caller hands it a buffer
    that nothing else writes to or reads afterwards, such as a fresh conv
    output. Eval mode leaves ``x`` as it is.
    """
    if x.ndim != 3:
        raise ValueError("batchnorm1d expects (B, C, T)")
    batch, channels, t = x.shape
    if gamma.shape != (channels,) or beta.shape != (channels,):
        raise ValueError("batchnorm1d: gamma/beta must be (C,)")
    if activation is not None and activation not in _ACTIVATIONS:
        raise ValueError(f"batchnorm1d: unknown activation {activation!r}")
    act_forward, act_backward = _ACTIVATIONS.get(activation, (None, None))

    def normalise_rows(rows, xh: np.ndarray, act, out: np.ndarray) -> None:
        """Writes ``out[rows]``: the affine of the normalised ``xh``, then
        ``act`` (an activation's forward, its output from the kept cdf, or None)."""
        y = out[rows]
        _affine(gamma.data, beta.data, xh, y)
        if act is not None:
            act(y, None if cdf is None else cdf[rows], y)

    if training:
        if batch < 2:
            raise ValueError("batchnorm1d: train mode requires batch size >= 2")
        n = batch * t
        mu = x.data.mean(axis=(0, 2))
        # xhat is x's own buffer, centred in place: its square gives the
        # variance exactly as ndarray.var sums it, then it is scaled in place.
        xhat = x.data
        out_data = np.empty_like(xhat)
        cdf = np.empty_like(xhat) if activation == "gelu" else None

        def centre(rows) -> None:
            np.subtract(xhat[rows], mu[:, None], out=xhat[rows])
            np.square(xhat[rows], out=out_data[rows])

        twoway.split(batch, x.size, centre)
        var = out_data.sum(axis=(0, 2)) / n
        inv = 1.0 / np.sqrt(var + state.eps)

        def normalise(rows) -> None:
            xh = xhat[rows]
            xh *= inv[:, None]
            normalise_rows(rows, xh, act_forward, out_data)

        twoway.split(batch, x.size, normalise)
        if update_running:
            m = state.momentum
            unbiased = var * n / max(n - 1, 1)
            state.running_mean = (1 - m) * state.running_mean + m * mu.astype(
                state.running_mean.dtype
            )
            state.running_var = (1 - m) * state.running_var + m * unbiased.astype(
                state.running_var.dtype
            )
            state.initialized = True
        act_output = _ACTIVATION_OUTPUTS.get(activation)

        # Neither closure below reads out_data, so a released output is freed.
        def rebuild() -> np.ndarray:
            out = np.empty_like(xhat)
            twoway.split(batch, out.size, lambda r: normalise_rows(r, xhat[r], act_output, out))
            return out

        def backward(g: np.ndarray) -> None:
            dy = _act_grad(act_backward, gamma.data, beta.data, xhat, cdf, g, xhat.dtype)
            need_x = x.requires_grad
            tmp = np.empty(xhat.shape, dtype=np.result_type(dy, xhat))
            if need_x:
                dx = np.empty(xhat.shape, dtype=np.result_type(dy, gamma.data))

            def products(rows) -> None:
                np.multiply(dy[rows], xhat[rows], out=tmp[rows])
                if need_x:
                    np.multiply(dy[rows], gamma.data[:, None], out=dx[rows])

            twoway.split(batch, dy.size, products)
            if gamma.requires_grad:
                gamma.accumulate(tmp.sum(axis=(0, 2)))
            if beta.requires_grad:
                beta.accumulate(dy.sum(axis=(0, 2)))
            if not need_x:
                return
            # dx = (inv / n) * (n * dxhat - s1 - xhat * s2), in two buffers
            s1 = dx.sum(axis=(0, 2), keepdims=True)

            def centred(rows) -> None:
                d = dx[rows]
                np.multiply(d, xhat[rows], out=tmp[rows])
                d *= n
                d -= s1

            twoway.split(batch, dx.size, centred)
            s2 = tmp.sum(axis=(0, 2), keepdims=True)
            inv_n = inv[:, None] / n

            def scaled(rows) -> None:
                d = dx[rows]
                d -= np.multiply(xhat[rows], s2, out=tmp[rows])
                d *= inv_n

            twoway.split(batch, dx.size, scaled)
            x.accumulate(dx)

        return from_op(out_data, (x, gamma, beta), backward, rebuild)

    if not state.initialized:
        raise RuntimeError("batchnorm1d: eval mode before any train step")
    rinv = 1.0 / np.sqrt(state.running_var + state.eps)
    scale_c = (gamma.data * rinv)[:, None]
    xhat = np.empty_like(x.data, dtype=np.result_type(x.data, state.running_mean))
    out_data = np.empty_like(xhat, dtype=np.result_type(gamma.data, xhat))
    cdf = np.empty_like(out_data) if activation == "gelu" else None

    def normalise(rows) -> None:
        xh = np.subtract(x.data[rows], state.running_mean[:, None], out=xhat[rows])
        xh *= rinv[:, None]
        normalise_rows(rows, xh, act_forward, out_data)

    twoway.split(batch, x.size, normalise)

    def backward_eval(g: np.ndarray) -> None:
        dy = _act_grad(act_backward, gamma.data, beta.data, xhat, cdf, g, out_data.dtype)
        if gamma.requires_grad:
            gamma.accumulate((dy * xhat).sum(axis=(0, 2)))
        if beta.requires_grad:
            beta.accumulate(dy.sum(axis=(0, 2)))
        if x.requires_grad:
            x.accumulate(dy * scale_c)

    return from_op(out_data, (x, gamma, beta), backward_eval)


def _gelu_forward(x: np.ndarray, cdf: np.ndarray, out: np.ndarray) -> None:
    """``cdf = 0.5 * (1 + erf(x * (1 / sqrt(2))))`` and ``out = x * cdf``;
    ``out`` may be ``x`` itself."""
    c = np.multiply(x, _INV_SQRT2, out=cdf)
    erf(c, out=c)
    c += 1.0
    c *= 0.5
    _gated(x, c, out)


def _gated(x: np.ndarray, gate: np.ndarray, out: np.ndarray) -> None:
    """``out = x * gate``, the last step of GELU (gate: the cdf) and of GLU
    (gate: the sigmoid), which their rebuilds repeat; ``out`` may be ``x``."""
    np.multiply(x, gate, out=out)


def _gelu_backward(x: np.ndarray, cdf: np.ndarray, g: np.ndarray, out: np.ndarray) -> None:
    """``out = g * (cdf + x * (exp(-0.5 * x * x) * (1 / sqrt(2 pi))))``, each
    element through that expression's steps in its order, in place in ``out``;
    ``out`` must not overlap ``x``, ``cdf`` or ``g``. Only an ``out`` of
    another dtype than ``x`` costs a scratch array for the steps in ``x``'s."""
    p = out if out.dtype == x.dtype else np.empty_like(x)
    np.multiply(-0.5, x, out=p)
    p *= x
    np.exp(p, out=p)
    p *= _INV_SQRT2PI
    np.multiply(x, p, out=p)
    np.add(cdf, p, out=p)
    np.multiply(g, p, out=out)


def _relu_forward(x: np.ndarray, _cdf: None, out: np.ndarray) -> None:
    np.maximum(x, 0, out=out)


def _relu_backward(x: np.ndarray, _cdf: None, g: np.ndarray, out: np.ndarray) -> None:
    np.multiply(g, x > 0, out=out)


# activation -> (forward, backward) row math; GELU's needs its cdf kept
_ACTIVATIONS = {"gelu": (_gelu_forward, _gelu_backward),
                "relu": (_relu_forward, _relu_backward)}
# activation -> its output from the input and the kept cdf, without erf
_ACTIVATION_OUTPUTS = {"gelu": _gated, "relu": _relu_forward}


def gelu(x: Tensor) -> Tensor:
    """Exact-erf GELU.

    Forward and backward run per half of the batch (``twoway.split``); each
    element goes through the same operations as ``x * (0.5 * (1 + erf(x *
    (1 / sqrt(2)))))``, so the result is bitwise that of one whole-array pass.
    The op registers a rebuild of its output as ``x * cdf`` from the input and
    cdf its backward keeps, the forward's own last step, so
    ``Tensor.release`` may drop the output until backward reads it.
    """
    x1 = np.atleast_1d(x.data)
    cdf = np.empty_like(x1)
    out1 = np.empty_like(x1)

    def forward(r) -> None:
        _gelu_forward(x1[r], cdf[r], out1[r])

    twoway.split(len(x1), x1.size, forward)

    def backward(g: np.ndarray) -> None:
        g1 = np.atleast_1d(g)
        dx = np.empty(x1.shape, dtype=np.result_type(g, x.data))

        def rows(r) -> None:
            _gelu_backward(x1[r], cdf[r], g1[r], dx[r])

        twoway.split(len(dx), dx.size, rows)
        x.accumulate(dx.reshape(x.shape))

    def rebuild() -> np.ndarray:
        out = np.empty_like(x1)
        twoway.split(len(out), out.size, lambda r: _gated(x1[r], cdf[r], out[r]))
        return out.reshape(x.shape)

    return from_op(out1.reshape(x.shape), (x,), backward, rebuild)


def relu(x: Tensor) -> Tensor:
    out_data = np.empty_like(x.data)
    _relu_forward(x.data, None, out_data)

    def backward(g: np.ndarray) -> None:
        dx = np.empty_like(g)
        _relu_backward(x.data, None, g, dx)
        x.accumulate(dx)

    return from_op(out_data, (x,), backward)


def glu(x: Tensor) -> Tensor:
    """Gated linear unit over the channel axis; halves the channel count.

    Takes ownership of ``x.data``: the gate's sigmoid overwrites the gate
    half, which no backward reads afterwards. As ``Tensor.accumulate`` asks
    of gradients, the caller hands it a buffer that nothing else writes to
    or reads afterwards, such as a fresh conv output.

    The op registers a rebuild of its output as ``a * sigmoid`` from the two
    halves it keeps, with the forward's own last step, so ``Tensor.release``
    may drop the output until backward reads it.
    """
    channels = x.shape[1]
    if channels % 2:
        raise ValueError("glu requires an even channel count")
    half = channels // 2
    a = x.data[:, :half]
    sig = x.data[:, half:]  # the gate, until forward writes its sigmoid over it
    out_data = np.empty(a.shape, dtype=x.dtype)

    def forward(r) -> None:
        np.divide(1.0, 1.0 + np.exp(-sig[r]), out=sig[r])
        _gated(a[r], sig[r], out_data[r])

    twoway.split(x.shape[0], out_data.size, forward)

    def backward(g: np.ndarray) -> None:
        dx = np.empty_like(x.data)

        def rows(r) -> None:
            # in dx's own halves: (1 - s) waits in the first until the
            # second holds g * a * s * (1 - s), then g * s overwrites it
            d, gr, s = dx[r], g[r], sig[r]
            da, dgate = d[:, :half], d[:, half:]
            np.subtract(1.0, s, out=da)
            np.multiply(gr, a[r], out=dgate)
            dgate *= s
            dgate *= da
            np.multiply(gr, s, out=da)

        twoway.split(x.shape[0], g.size, rows)
        x.accumulate(dx)

    def rebuild() -> np.ndarray:
        out = np.empty(a.shape, dtype=x.dtype)
        twoway.split(len(out), out.size, lambda r: _gated(a[r], sig[r], out[r]))
        return out

    return from_op(out_data, (x,), backward, rebuild)


def softmax(x: Tensor, axis: int = -1, keep: Optional[np.ndarray] = None) -> Tensor:
    """Softmax along ``axis``; entries where ``keep`` is False are excluded."""
    z = x.data
    if keep is not None:
        if np.all(~keep):
            raise ValueError("softmax: all entries masked out")
        z = np.where(keep, z, -np.inf)
    m = z.max(axis=axis, keepdims=True)
    if not np.all(np.isfinite(m)):
        raise ValueError("softmax: a slice has every entry masked out")
    e = np.exp(z - m)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray) -> None:
        inner = (g * y).sum(axis=axis, keepdims=True)
        x.accumulate((g - inner) * y)

    return from_op(y, (x,), backward)


def spatial_logits(re: Tensor, im: Tensor, cos_b: np.ndarray, sin_b: np.ndarray) -> Tensor:
    """Spatial attention's Fourier logits ``re2 @ cos_b + im2 @ sin_b``, (D1, C):
    ``re2``, ``im2`` are the (D1, K*K) views of the (D1, K, K) coefficients and
    ``cos_b``, ``sin_b`` the constant (K*K, C) basis at the sensor positions."""
    if re.shape != im.shape or cos_b.shape != sin_b.shape:
        raise ValueError(f"spatial_logits: shapes {re.shape}, {im.shape}, {cos_b.shape}, "
                         f"{sin_b.shape}")
    re2, im2 = re.data.reshape(re.shape[0], -1), im.data.reshape(im.shape[0], -1)
    out_data = re2 @ cos_b + im2 @ sin_b

    def backward(g: np.ndarray) -> None:
        if re.requires_grad:
            re.accumulate((g @ cos_b.T).reshape(re.shape))
        if im.requires_grad:
            im.accumulate((g @ sin_b.T).reshape(im.shape))

    return from_op(out_data, (re, im), backward)


def mix(w: Tensor, x: Tensor) -> Tensor:
    """Channel mixing: (J, C) weights applied to (B, C, T) -> (B, J, T)."""
    if w.ndim != 2 or x.ndim != 3 or w.shape[1] != x.shape[1]:
        raise ValueError(f"mix: incompatible shapes {w.shape} with {x.shape}")
    out_data = np.matmul(w.data, x.data)

    def backward(g: np.ndarray) -> None:
        if w.requires_grad:
            w.accumulate(np.tensordot(g, x.data, axes=([0, 2], [0, 2])))
        if x.requires_grad:
            x.accumulate(np.matmul(w.data.T, g))

    return from_op(out_data, (w, x), backward)


def subject_mix(m: Tensor, x: Tensor, subject_idx: np.ndarray) -> Tensor:
    """Apply the per-sample matrix ``m[subject_idx[b]]`` along channels.

    ``m`` is (S, D, D), ``x`` is (B, D, T); gradients for a subject's
    matrix accumulate over exactly the batch rows of that subject.
    """
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ValueError("subject_mix: m must be (S, D, D)")
    if x.ndim != 3 or x.shape[1] != m.shape[1]:
        raise ValueError(f"subject_mix: x {x.shape} incompatible with m {m.shape}")
    subject_idx = np.asarray(subject_idx)
    if subject_idx.shape != (x.shape[0],):
        raise ValueError("subject_mix: one subject index per batch row required")
    if subject_idx.min() < 0 or subject_idx.max() >= m.shape[0]:
        raise IndexError("subject_mix: subject index out of range")
    out_data = np.matmul(m.data[subject_idx], x.data)

    def backward(g: np.ndarray) -> None:
        if m.requires_grad:
            dm = np.zeros_like(m.data)
            per_sample = np.matmul(g, x.data.transpose(0, 2, 1))
            np.add.at(dm, subject_idx, per_sample)
            m.accumulate(dm)
        if x.requires_grad:
            x.accumulate(np.matmul(m.data[subject_idx].transpose(0, 2, 1), g))

    return from_op(out_data, (m, x), backward)


def pairwise_inner(z: Tensor, y: Tensor) -> Tensor:
    """Full inner products between all pairs: (B,F,T) x (N,F,T) -> (B,N)."""
    if z.shape[1:] != y.shape[1:]:
        raise ValueError(f"pairwise_inner: shape mismatch {z.shape} vs {y.shape}")
    zf = z.data.reshape(z.shape[0], -1)
    yf = y.data.reshape(y.shape[0], -1)
    out_data = zf @ yf.T

    def backward(g: np.ndarray) -> None:
        if z.requires_grad:
            z.accumulate((g @ yf).reshape(z.shape))
        if y.requires_grad:
            y.accumulate((g.T @ zf).reshape(y.shape))

    return from_op(out_data, (z, y), backward)


def cross_entropy_diagonal(logits: Tensor) -> Tensor:
    """The CLIP loss of (N, N) scores: the mean over rows i of the max-shifted
    ``logsumexp(logits[i]) - logits[i, i]``."""
    if logits.ndim != 2 or logits.shape[0] != logits.shape[1]:
        raise ValueError(f"cross_entropy_diagonal expects a square matrix, got {logits.shape}")
    x = logits.data
    n = x.shape[0]
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    s = e.sum(axis=1, keepdims=True)
    lse = np.squeeze(m + np.log(s), axis=1)
    out_data = np.asarray((lse - np.diagonal(x)).mean())

    def backward(g: np.ndarray) -> None:
        gn = np.full_like(lse, g / n)
        dx = gn[:, None] * (e / s)
        dx.flat[:: n + 1] -= gn
        logits.accumulate(dx)

    return from_op(out_data, (logits,), backward)


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared error over all elements."""
    if a.shape != b.shape:
        raise ValueError(f"mse: shape mismatch {a.shape} vs {b.shape}")
    diff = a.data - b.data
    out_data = np.asarray((diff * diff).mean())

    def backward(g: np.ndarray) -> None:
        d = g * 2.0 * diff / diff.size
        a.accumulate(d)
        b.accumulate(-d)

    return from_op(out_data, (a, b), backward)
