"""conv1d allocates no batch-sized column buffer, in forward or backward.

conv1d fills the columns of at most ``ops._COLUMN_BYTES`` of samples at a
time into a buffer per thread (one sample at paper width, whose (Cin*k, T)
columns take 1.4 MB), and scatters their input-gradient columns back into dx
as soon as their GEMMs have run. tracemalloc checks that a paper-width conv
allocates, beyond the arrays it must build, at most two one-sample buffers
(one per thread) and 0.5 MB of small arrays: a quarter of the (B, Cin*k, T)
buffer that the batch-im2col form allocated at B=8, in forward and again in
backward.
"""

import tracemalloc

import numpy as np

from brainspeech import brain_net
from brainspeech.brain_net import BrainNet, BrainNetConfig
from brainspeech.numerics import Tensor, ops

from gradcheck import inner_product_full

SMALL = 1 << 19  # bytes of small arrays: the bias, index lists, Python objects


def test_paper_width_conv3_backward_allocates_no_batch_column_buffer(split_mode):
    """A block's conv3 at paper width (d2=320 in, 640 out, k=3, 3 s at 120 Hz)
    and B=8: on top of g, dx, the time-major columns, g's (Cout, B*T) copy,
    dW and db, backward allocates at most two (Cin, k, T) buffers."""
    batch, cin, cout, k, t = 8, 320, 640, 3, 360
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(batch, cin, t)).astype(np.float32), requires_grad=True)
    w = Tensor((rng.normal(size=(cout, cin, k)) * 0.03).astype(np.float32), requires_grad=True)
    b = Tensor(np.zeros(cout, dtype=np.float32), requires_grad=True)
    y = Tensor(rng.normal(size=(batch, cout, t)).astype(np.float32))
    loss = inner_product_full(ops.conv1d(x, w, b), y)
    tracemalloc.start()
    try:
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.grad is not None and w.grad is not None and b.grad is not None
    per_row = batch * t * 4  # bytes of one float32 channel row over the batch
    must = per_row * (cout + cin + cin * k + cout) + (cout * cin * k + cout) * 4
    assert peak - must <= 2 * cin * k * t * 4 + SMALL


def test_eval_encode_chunk_allocates_no_column_buffer(monkeypatch):
    """Every k=3 conv of a paper-width eval-mode ``encode`` chunk (8 rows)
    allocates at most two (Cin, k, T) buffers beyond its output."""
    rows, t = 8, 360
    cfg = BrainNetConfig(in_channels=208, out_features=16, n_subjects=2, d1=270, d2=320,
                         harmonics=32, blocks=5)
    net = BrainNet(cfg, np.random.default_rng(0))
    for state in net.bn_states.values():
        state.initialized = True  # eval with the initial statistics
    rng = np.random.default_rng(1)
    positions = rng.uniform(0.1, 0.9, size=(208, 2))
    x = rng.normal(size=(rows, 208, t)).astype(np.float32)
    extra = []

    def traced_conv(h, w, b=None, dilation=1, residual=None):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = ops.conv1d(h, w, b, dilation=dilation, residual=residual)
        sample_columns = h.data[0].nbytes * w.shape[2]
        extra.append((tracemalloc.get_traced_memory()[1] - before - out.data.nbytes,
                      sample_columns, w.shape[2]))
        return out

    monkeypatch.setattr(brain_net, "conv1d", traced_conv)
    tracemalloc.start()
    try:
        z = net.encode(x, np.arange(rows) % 2, positions)
    finally:
        tracemalloc.stop()
    assert z.shape == (rows, 16, t)
    convs = [(got, sample_columns) for got, sample_columns, k in extra if k > 1]
    assert len(convs) == 3 * cfg.blocks
    for got, sample_columns in convs:
        assert got <= 2 * sample_columns + SMALL
