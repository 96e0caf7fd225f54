"""conv1d, batchnorm1d, gelu and glu against the serial bodies they replaced.

The ops split their per-sample work over the calling thread and one pool
thread. Splitting must not change a bit: outputs, every gradient and the
BatchNorm running statistics are compared byte for byte with the oracles
below, with the split forced on (two CPUs, no size floor) and forced off
(one CPU). The fused forms, conv1d with a residual and batchnorm1d with an
activation, are compared the same way with the unfused ops they stand for.
Further tests check that the split passes really reach the pool thread,
that desk-width passes split at the shipped size floor, that a whole network
step gives the same bytes either way, and the pool's own lifecycle.
"""

import math
import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest
from scipy.special import erf

from brainspeech import twoway
from brainspeech.brain_net import BrainNet, BrainNetConfig
from brainspeech.numerics import AdamState, BatchNormState, Tensor, adam_step, no_grad, ops
from brainspeech.objective import clip_loss_batch

from gradcheck import add, inner_product_full, mean_all

# ---------------------------------------------------------------------------
# Oracles: the serial op bodies of the previous release, as plain numpy.
# ---------------------------------------------------------------------------


def conv1d_oracle(x, w, b, dilation, g):
    """np.pad im2col, one batched matmul, tensordot dW and a padded col2im."""
    batch, cin, t = x.shape
    cout, _, k = w.shape
    pad = dilation * (k - 1) // 2

    def im2col(x):
        if k == 1:
            return np.ascontiguousarray(x)
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
        cols4 = np.empty((batch, cin, k, t), dtype=x.dtype)
        for j in range(k):
            cols4[:, :, j, :] = xp[:, :, j * dilation : j * dilation + t]
        return cols4.reshape(batch, cin * k, t)

    w2 = w.reshape(cout, cin * k)
    out = np.matmul(w2, im2col(x))
    if b is not None:
        out += b[:, None]
    dw = np.tensordot(g, im2col(x), axes=([0, 2], [0, 2])).reshape(cout, cin, k)
    db = None if b is None else g.sum(axis=(0, 2))
    dcols = np.matmul(w2.T, g)
    if k == 1:
        dx = dcols
    else:
        dcols = dcols.reshape(batch, cin, k, t)
        dxp = np.zeros((batch, cin, t + 2 * pad), dtype=x.dtype)
        for j in range(k):
            dxp[:, :, j * dilation : j * dilation + t] += dcols[:, :, j, :]
        dx = dxp[:, :, pad : pad + t]
    return out, dx, dw, db


def batchnorm_train_oracle(x, gamma, beta, state, g):
    """Train-mode batch norm; returns out, dx, dgamma, dbeta, running mean, running var."""
    batch, _, t = x.shape
    n = batch * t
    mu = x.mean(axis=(0, 2))
    var = x.var(axis=(0, 2))
    inv = 1.0 / np.sqrt(var + state.eps)
    xhat = (x - mu[:, None]) * inv[:, None]
    out = gamma[:, None] * xhat + beta[:, None]
    m = state.momentum
    unbiased = var * n / max(n - 1, 1)
    running_mean = (1 - m) * state.running_mean + m * mu.astype(state.running_mean.dtype)
    running_var = (1 - m) * state.running_var + m * unbiased.astype(state.running_var.dtype)
    dgamma = (g * xhat).sum(axis=(0, 2))
    dbeta = g.sum(axis=(0, 2))
    dxhat = g * gamma[:, None]
    s1 = dxhat.sum(axis=(0, 2), keepdims=True)
    s2 = (dxhat * xhat).sum(axis=(0, 2), keepdims=True)
    dx = (inv[:, None] / n) * (n * dxhat - s1 - xhat * s2)
    return out, dx, dgamma, dbeta, running_mean, running_var


def batchnorm_eval_oracle(x, gamma, beta, state, g):
    """Eval-mode batch norm from the running statistics; returns out, dx, dgamma, dbeta."""
    rinv = 1.0 / np.sqrt(state.running_var + state.eps)
    scale_c = (gamma * rinv)[:, None]
    xhat = (x - state.running_mean[:, None]) * rinv[:, None]
    out = gamma[:, None] * xhat + beta[:, None]
    return out, g * scale_c, (g * xhat).sum(axis=(0, 2)), g.sum(axis=(0, 2))


def gelu_oracle(x, g):
    # Python-float constants keep float32 in float32 (NEP 50)
    cdf = 0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0))))
    pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
    return x * cdf, g * (cdf + x * pdf)


def glu_oracle(x, g):
    half = x.shape[1] // 2
    a, gate = x[:, :half], x[:, half:]
    sig = 1.0 / (1.0 + np.exp(-gate))
    dx = np.empty_like(x)
    dx[:, :half] = g * sig
    dx[:, half:] = g * a * sig * (1.0 - sig)
    return a * sig, dx


# ---------------------------------------------------------------------------


def assert_bitwise(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def run_op(fn, arrays, g, grads=None):
    """Forward ``fn`` on tensors holding ``arrays`` and backpropagate ``g``.

    ``grads`` says which inputs require a gradient (default: all). Each
    tensor holds its own copy, since ``batchnorm1d`` and ``glu`` overwrite
    their input's buffer. The loss is the inner product of the output with
    ``g``, so the output gradient is exactly ``g``.
    """
    grads = grads or [True] * len(arrays)
    tensors = [None if a is None else Tensor(np.array(a), requires_grad=r)
               for a, r in zip(arrays, grads)]
    out = fn(*tensors)
    inner_product_full(out, Tensor(g)).backward()
    return out.data, [None if t is None else t.grad for t in tensors]


DTYPES = [np.float32, np.float64]
BATCHES = [1, 2, 3, 8]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("dilation", [1, 2, 4, 16])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv1d_bitwise_matches_serial_oracle(split_mode, k, dilation, dtype):
    # T=12 with dilation 16 pads by at least T: some taps read only zeros
    rng = np.random.default_rng(k * 100 + dilation)
    cin, cout, t = 5, 7, 12
    w = rng.normal(size=(cout, cin, k)).astype(dtype)
    b = rng.normal(size=cout).astype(dtype)
    for batch in BATCHES:
        x = rng.normal(size=(batch, cin, t)).astype(dtype)
        g = rng.normal(size=(batch, cout, t)).astype(dtype)
        out, (dx, dw, db) = run_op(lambda x_, w_, b_: ops.conv1d(x_, w_, b_, dilation=dilation),
                                   [x, w, b], g)
        want = conv1d_oracle(x, w, b, dilation, g)
        for name, got_, want_ in zip(("out", "dx", "dw", "db"), (out, dx, dw, db), want):
            assert_bitwise(got_, want_, f"{name} B={batch}")
    assert (twoway.split._pool is not None) == (split_mode == "split")


@pytest.mark.parametrize("dtype", DTYPES)
def test_conv1d_without_bias_or_input_grad(split_mode, dtype):
    # three output channels: dW's rows are not split into a one-row GEMV
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 4, 20)).astype(dtype)
    w = rng.normal(size=(3, 4, 3)).astype(dtype)
    g = rng.normal(size=(3, 3, 20)).astype(dtype)
    want_out, want_dx, want_dw, _ = conv1d_oracle(x, w, None, 2, g)
    out, (dx, dw, _) = run_op(lambda x_, w_, b_: ops.conv1d(x_, w_, dilation=2),
                              [x, w, None], g)
    assert_bitwise(out, want_out, "out")
    assert_bitwise(dx, want_dx, "dx")
    assert_bitwise(dw, want_dw, "dw")
    out, (dx, dw, _) = run_op(lambda x_, w_, b_: ops.conv1d(x_, w_, dilation=2),
                              [x, w, None], g, grads=[False, True, False])
    assert dx is None
    assert_bitwise(dw, want_dw, "dw without input grad")


@pytest.mark.parametrize("dtype", DTYPES)
def test_batchnorm1d_train_bitwise_matches_serial_oracle(split_mode, dtype):
    rng = np.random.default_rng(4)
    gamma = rng.normal(size=6).astype(dtype)
    beta = rng.normal(size=6).astype(dtype)
    for batch in BATCHES[1:]:  # train mode needs two samples
        x = (rng.normal(size=(batch, 6, 12)) * 3 + 1).astype(dtype)
        g = rng.normal(size=(batch, 6, 12)).astype(dtype)
        state, ref = BatchNormState(6, dtype=dtype), BatchNormState(6, dtype=dtype)
        want = batchnorm_train_oracle(x, gamma, beta, ref, g)
        out, (dx, dgamma, dbeta) = run_op(
            lambda x_, g_, b_: ops.batchnorm1d(x_, g_, b_, state, training=True),
            [x, gamma, beta], g)
        got = (out, dx, dgamma, dbeta, state.running_mean, state.running_var)
        for name, got_, want_ in zip(("out", "dx", "dgamma", "dbeta", "mean", "var"), got, want):
            assert_bitwise(got_, want_, f"{name} B={batch}")


@pytest.mark.parametrize("dtype", DTYPES)
def test_batchnorm1d_eval_bitwise_matches_serial_oracle(split_mode, dtype):
    rng = np.random.default_rng(5)
    gamma = rng.normal(size=6).astype(dtype)
    beta = rng.normal(size=6).astype(dtype)
    state = BatchNormState(6, dtype=dtype)
    ops.batchnorm1d(Tensor(rng.normal(size=(4, 6, 12)).astype(dtype)), Tensor(gamma),
                    Tensor(beta), state, training=True)
    for batch in BATCHES:
        x = rng.normal(size=(batch, 6, 12)).astype(dtype)
        g = rng.normal(size=(batch, 6, 12)).astype(dtype)
        want = batchnorm_eval_oracle(x, gamma, beta, state, g)
        out, grads = run_op(lambda x_, g_, b_: ops.batchnorm1d(x_, g_, b_, state, training=False),
                            [x, gamma, beta], g)
        for name, got_, want_ in zip(("out", "dx", "dgamma", "dbeta"), [out, *grads], want):
            assert_bitwise(got_, want_, f"{name} B={batch}")


@pytest.mark.parametrize("dtype", DTYPES)
def test_gelu_and_glu_bitwise_match_serial_oracles(split_mode, dtype):
    rng = np.random.default_rng(6)
    # 6x12 and 40x37 per sample leave partial SIMD vectors at the ends of each half
    for shape in [(b, 6, 12) for b in BATCHES] + [(3, 40, 37), (7,), ()]:
        x = (rng.normal(size=shape) * 3).astype(dtype)
        g = rng.normal(size=shape).astype(dtype)
        out, (dx,) = run_op(ops.gelu, [x], g)
        want_out, want_dx = gelu_oracle(x, g)
        assert_bitwise(out, want_out, f"gelu out {shape}")
        assert_bitwise(dx, want_dx, f"gelu dx {shape}")
        if len(shape) == 3:
            gh = g[:, : shape[1] // 2]
            out, (dx,) = run_op(ops.glu, [x], gh)
            want_out, want_dx = glu_oracle(x, gh)
            assert_bitwise(out, want_out, f"glu out {shape}")
            assert_bitwise(dx, want_dx, f"glu dx {shape}")


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("source", ["separate", "input"])
def test_conv1d_residual_bitwise_matches_conv_then_add(split_mode, source, dtype):
    """The residual's gradient is g before the conv's dx is added, as the
    add node's was when it ran before the conv node's backward."""
    rng = np.random.default_rng(9)
    for batch in BATCHES:
        x = rng.normal(size=(batch, 5, 12)).astype(dtype)
        w = rng.normal(size=(5, 5, 3)).astype(dtype)
        b = rng.normal(size=5).astype(dtype)
        r = rng.normal(size=(batch, 5, 12)).astype(dtype)
        g = rng.normal(size=(batch, 5, 12)).astype(dtype)
        if source == "input":
            fused = lambda x_, w_, b_: ops.conv1d(x_, w_, b_, dilation=2, residual=x_)
            plain = lambda x_, w_, b_: add(ops.conv1d(x_, w_, b_, dilation=2), x_)
            arrays = [x, w, b]
        else:
            fused = lambda x_, w_, b_, r_: ops.conv1d(x_, w_, b_, dilation=2, residual=r_)
            plain = lambda x_, w_, b_, r_: add(ops.conv1d(x_, w_, b_, dilation=2), r_)
            arrays = [x, w, b, r]
        got_out, got_grads = run_op(fused, arrays, g)
        want_out, want_grads = run_op(plain, arrays, g)
        assert_bitwise(got_out, want_out, f"out B={batch}")
        for i, (got_, want_) in enumerate(zip(got_grads, want_grads)):
            assert_bitwise(got_, want_, f"grad {i} B={batch}")


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("activation", ["gelu", "relu"])
@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
def test_batchnorm1d_activation_bitwise_matches_batchnorm_then_activation(
        split_mode, training, activation, dtype):
    act = {"gelu": ops.gelu, "relu": ops.relu}[activation]
    rng = np.random.default_rng(10)
    gamma = rng.normal(size=6).astype(dtype)
    beta = rng.normal(size=6).astype(dtype)
    warm = (rng.normal(size=(4, 6, 37)) * 2).astype(dtype)
    for batch in BATCHES[1:]:
        x = (rng.normal(size=(batch, 6, 37)) * 3 + 1).astype(dtype)
        g = rng.normal(size=(batch, 6, 37)).astype(dtype)
        got, want = [], []
        for fused, into in ((True, got), (False, want)):
            state = BatchNormState(6, dtype=dtype)
            ops.batchnorm1d(Tensor(warm.copy()), Tensor(gamma), Tensor(beta), state, True)
            if fused:
                fn = lambda x_, g_, b_: ops.batchnorm1d(x_, g_, b_, state, training,
                                                        activation=activation)
            else:
                fn = lambda x_, g_, b_: act(ops.batchnorm1d(x_, g_, b_, state, training))
            out, grads = run_op(fn, [x, gamma, beta], g)
            into.extend([out, *grads, state.running_mean, state.running_var])
        names = ("out", "dx", "dgamma", "dbeta", "mean", "var")
        for name, got_, want_ in zip(names, got, want):
            assert_bitwise(got_, want_, f"{name} B={batch}")


def pool_tasks(split, monkeypatch):
    """Starts ``split``'s pool and returns the list of the thread names that
    ran each task handed to it since."""
    ran = []
    pool = split._executor()
    submit = pool.submit

    def recording_submit(fn):
        def task():
            ran.append(threading.current_thread().name)
            return fn()
        return submit(task)

    monkeypatch.setattr(pool, "submit", recording_submit)
    return ran


@pytest.mark.parametrize("dtype", DTYPES)
def test_gelu_and_batchnorm_forwards_hand_one_task_per_pass_to_the_pool(
        force_split, monkeypatch, dtype):
    """The oracle tests above would also pass with no split at all."""
    ran = pool_tasks(force_split(2), monkeypatch)
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(2, 6, 12)).astype(dtype))
    gamma, beta = Tensor(np.ones(6, dtype)), Tensor(np.zeros(6, dtype))
    state = BatchNormState(6, dtype=dtype)
    # (forward, its split passes); train mode centres and squares, then
    # normalises, with the variance sum between them on the calling thread
    forwards = {
        "gelu": (lambda: ops.gelu(x), 1),
        "batchnorm1d train": (lambda: ops.batchnorm1d(x, gamma, beta, state, True), 2),
        "batchnorm1d eval": (lambda: ops.batchnorm1d(x, gamma, beta, state, False), 1),
        "batchnorm1d train gelu": (
            lambda: ops.batchnorm1d(x, gamma, beta, state, True, activation="gelu"), 2),
        "batchnorm1d eval relu": (
            lambda: ops.batchnorm1d(x, gamma, beta, state, False, activation="relu"), 1),
    }
    for name, (forward, passes) in forwards.items():
        ran.clear()
        with no_grad():
            forward()
        assert ran == ["brainspeech-op_0"] * passes, name


def test_desk_width_forwards_split_at_the_shipped_floor(shipped_split, monkeypatch):
    """A desk-width batch (B=32, 32 channels, 360 samples: 368,640 elements)
    reaches the pool in conv1d, gelu and train-mode batchnorm1d, while a
    paper-width head's gelu (B=8, 16 features: 46,080 elements) and a pass one
    row-pair below the floor run inline."""
    monkeypatch.setattr(twoway, "_usable_cpus", lambda: 2)
    ran = pool_tasks(shipped_split, monkeypatch)
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(32, 32, 360)).astype(np.float32))
    w = Tensor(rng.normal(size=(32, 32, 3)).astype(np.float32))
    gamma, beta = Tensor(np.ones(32, np.float32)), Tensor(np.zeros(32, np.float32))
    state = BatchNormState(32)
    floor = twoway._SPLIT_MIN_SIZE
    forwards = {
        "conv1d": (lambda: ops.conv1d(x, w, dilation=2), True),
        "gelu": (lambda: ops.gelu(x), True),
        "batchnorm1d train": (lambda: ops.batchnorm1d(x, gamma, beta, state, True), True),
        "gelu head": (lambda: ops.gelu(Tensor(np.ones((8, 16, 360), np.float32))), False),
        "gelu at floor": (lambda: ops.gelu(Tensor(np.ones((2, 1, floor // 2), np.float32))),
                          True),
        "gelu below floor": (
            lambda: ops.gelu(Tensor(np.ones((2, 1, floor // 2 - 1), np.float32))), False),
    }
    for name, (forward, splits) in forwards.items():
        ran.clear()
        with no_grad():
            forward()
        assert bool(ran) == splits, name


def test_fused_layer_passes_split_at_desk_width(shipped_split, monkeypatch):
    """At desk width (B=32, 32 channels, 360 samples) and the shipped floor,
    conv1d's residual add rides in its one split forward pass, and a fused
    batchnorm1d hands the pool its two forward passes and its four backward
    ones: the recompute with the activation's gradient, the products with
    xhat and gamma, and the two dx passes."""
    monkeypatch.setattr(twoway, "_usable_cpus", lambda: 2)
    ran = pool_tasks(shipped_split, monkeypatch)
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(32, 32, 360)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(32, 32, 3)).astype(np.float32))
    gamma = Tensor(np.ones(32, np.float32), requires_grad=True)
    beta = Tensor(np.zeros(32, np.float32), requires_grad=True)
    g = Tensor(rng.normal(size=(32, 32, 360)).astype(np.float32))
    with no_grad():
        ops.conv1d(x, w, dilation=2, residual=x)
    assert ran == ["brainspeech-op_0"]
    for activation in ("gelu", "relu"):
        ran.clear()
        out = ops.batchnorm1d(x, gamma, beta, BatchNormState(32), True, activation=activation)
        assert len(ran) == 2, activation
        inner_product_full(out, g).backward()
        assert ran == ["brainspeech-op_0"] * 6, activation


def brain_net_step(seed=0):
    """Bytes of a 2-block net's train-mode output, every gradient and running
    statistic after one forward and backward, then of its eval output."""
    cfg = BrainNetConfig(in_channels=8, out_features=4, n_subjects=2, d1=6, d2=8,
                         blocks=2, harmonics=3)
    net = BrainNet(cfg, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    positions = rng.uniform(0.1, 0.9, size=(8, 2))
    x = Tensor(rng.normal(size=(4, 8, 30)).astype(np.float32))
    y = Tensor(rng.normal(size=(4, 4, 30)).astype(np.float32))
    subjects = np.array([0, 1, 1, 0])
    z = net.forward(x, subjects, positions, training=True, rng=rng)
    clip_loss_batch(z, y).backward()
    state = [z.data.tobytes()] + [p.grad.tobytes() for p in net.parameters()] + [
        st.running_mean.tobytes() + st.running_var.tobytes() for st in net.bn_states.values()]
    with no_grad():
        z_eval = net.forward(x, subjects, positions, training=False)
    return state + [z_eval.data.tobytes()]


def test_brain_net_step_bitwise_equal_split_and_inline(force_split, monkeypatch):
    """Spatial attention, the subject layer and two blocks, trained one step
    and run in eval mode, give the same bytes with the split on and off."""
    force_split(1)
    want = brain_net_step()
    ran = pool_tasks(force_split(2), monkeypatch)
    assert brain_net_step() == want
    assert ran


# ---------------------------------------------------------------------------
# The pool itself
# ---------------------------------------------------------------------------


@pytest.fixture
def shipped_split(monkeypatch):
    """A new, not yet started split at the module's shipped size floor."""
    split = twoway._TwoWaySplit()
    monkeypatch.setattr(twoway, "split", split)
    yield split
    if split._pool is not None:
        split._pool.shutdown()


@pytest.fixture
def fresh_split(shipped_split, monkeypatch):
    """A new, not yet started split with no size floor."""
    monkeypatch.setattr(twoway, "_SPLIT_MIN_SIZE", 0)
    return shipped_split


def conv_gelu_glu_step(seed=0):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(4, 6, 30)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(8, 6, 3)).astype(np.float32), requires_grad=True)
    out = ops.glu(ops.gelu(ops.conv1d(x, w, dilation=2)))
    mean_all(out).backward()
    return x.grad


def test_one_cpu_runs_inline_and_starts_no_thread(fresh_split, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was created with one usable CPU")

    monkeypatch.setattr(twoway.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(twoway, "ThreadPoolExecutor", no_pool)
    before = threading.active_count()
    conv_gelu_glu_step()
    assert fresh_split._pool is None
    assert threading.active_count() == before


def desk_steps_leave_at_most_one_extra_thread(split, batch, samples):
    """Two desk-width train steps, then an eval forward, start ``split``'s
    pool and no other thread."""
    before = threading.active_count()
    cfg = BrainNetConfig(in_channels=32, out_features=16, n_subjects=2, d1=32, d2=32,
                         harmonics=8)
    net = BrainNet(cfg, np.random.default_rng(1))
    params = list(net.parameters())
    adam = AdamState(params)
    rng = np.random.default_rng(2)
    positions = rng.uniform(0.1, 0.9, size=(32, 2))
    subjects = np.arange(batch) % 2
    for step in range(2):
        x = Tensor(rng.normal(size=(batch, 32, samples)).astype(np.float32))
        y = Tensor(rng.normal(size=(batch, 16, samples)).astype(np.float32))
        z = net.forward(x, subjects, positions, training=True, rng=rng)
        clip_loss_batch(z, y).backward()
        adam_step(params, adam)
    assert split._pool is not None
    assert threading.active_count() <= before + 1
    with no_grad():
        net.forward(x, subjects, positions, training=False)
    assert threading.active_count() <= before + 1


def test_desk_train_step_leaves_at_most_one_extra_thread(fresh_split, monkeypatch):
    monkeypatch.setattr(twoway, "_usable_cpus", lambda: 2)
    desk_steps_leave_at_most_one_extra_thread(fresh_split, 4, 120)


def test_desk_train_step_at_the_shipped_floor_leaves_at_most_one_extra_thread(
        shipped_split, monkeypatch):
    """The README desk batch (B=32, 360 samples) at the floor the module ships."""
    monkeypatch.setattr(twoway, "_usable_cpus", lambda: 2)
    desk_steps_leave_at_most_one_extra_thread(shipped_split, 32, 360)


def test_concurrent_callers_share_one_pool(fresh_split, monkeypatch):
    """Six threads on two CPUs with a short switch interval: one pool thread
    is started and every caller gets the result of a sequential run."""
    created = []
    executor = twoway.ThreadPoolExecutor

    def counting_executor(*args, **kwargs):
        created.append(1)
        return executor(*args, **kwargs)

    def slow_two_cpus():
        time.sleep(0.01)  # widens the window between the pool check and its creation
        return 2

    monkeypatch.setattr(twoway, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(twoway, "split", twoway._TwoWaySplit())
    want = [conv_gelu_glu_step(seed).tobytes() for seed in range(2)]
    monkeypatch.setattr(twoway, "split", fresh_split)
    monkeypatch.setattr(twoway, "_usable_cpus", slow_two_cpus)
    monkeypatch.setattr(twoway, "ThreadPoolExecutor", counting_executor)
    before = threading.active_count()
    results = {}

    def caller(i):
        results[i] = conv_gelu_glu_step(i % 2).tobytes()

    threads = [threading.Thread(target=caller, args=(i,)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(created) == 1
    assert threading.active_count() <= before + 1
    assert results == {i: want[i % 2] for i in range(6)}


def _child_step(queue):
    queue.put(conv_gelu_glu_step().tobytes())


def test_forked_child_gets_its_own_pool(fresh_split, monkeypatch):
    monkeypatch.setattr(twoway, "_usable_cpus", lambda: 2)
    want = conv_gelu_glu_step()  # starts the parent's pool thread
    assert fresh_split._pool is not None
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_child_step, args=(queue,))
    child.start()
    try:
        got = queue.get(timeout=60)
    finally:
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
    assert got == want.tobytes()
    assert child.exitcode == 0
