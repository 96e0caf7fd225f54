"""Released outputs: ``BrainNet.forward`` releases the input of every conv it
builds, and ``Tensor.backward`` rebuilds a released tensor just before the
closure of the node that reads it. A train step must give the bytes of one
whose ``release`` does nothing, and a released tensor keeps its shape and
dtype and costs no buffer."""

from pathlib import Path

import numpy as np
import pytest

from brainspeech.brain_net import (
    BrainNet,
    BrainNetConfig,
    NonFiniteActivation,
    build_ablation,
    deep_mel_config,
)
from brainspeech.numerics import (
    BatchNormState,
    Tensor,
    batchnorm1d,
    conv1d,
    gelu,
    glu,
    no_grad,
    parameter,
    relu,
)
from brainspeech.objective import clip_loss_batch

from gradcheck import mean_all

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DESK = BrainNetConfig(in_channels=32, out_features=16, n_subjects=2, d1=32, d2=32, harmonics=8)


def count_releases(monkeypatch) -> list:
    """Patches ``Tensor.release`` to record each tensor it actually released."""
    released, release = [], Tensor.release

    def recording(self):
        release(self)
        if self._released:
            released.append(self)

    monkeypatch.setattr(Tensor, "release", recording)
    return released


def train_step_bytes(cfg, batch, t, deep_mel_mels=None):
    """Loss and every parameter gradient of one train step, as bytes; with
    ``deep_mel_mels`` the targets go through a trained deep-Mel tower."""
    net = BrainNet(cfg, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    positions = rng.uniform(0.1, 0.9, size=(cfg.in_channels, 2))
    x = Tensor(rng.normal(size=(batch, cfg.in_channels, t)).astype(np.float32))
    z = net.forward(x, np.arange(batch) % 2, positions, training=True, rng=rng)
    params = net.parameters()
    if deep_mel_mels is None:
        y = Tensor(rng.normal(size=(batch, cfg.out_features, t)).astype(np.float32))
    else:
        tower = BrainNet(deep_mel_config(deep_mel_mels, cfg.out_features, cfg),
                         np.random.default_rng(3), prefix="deepmel.")
        mel = Tensor(rng.normal(size=(batch, deep_mel_mels, t)).astype(np.float32))
        y = tower.forward(mel, np.zeros(batch, dtype=int), None, training=True)
        params += tower.parameters()
    loss = clip_loss_batch(z, y)
    loss.backward()
    return [loss.data.tobytes()] + [p.grad.tobytes() for p in params]


def released_and_kept(monkeypatch, *args):
    """Step bytes with release, the number of tensors released, and the step
    bytes with ``Tensor.release`` a no-op. Each tensor is released once in
    forward and once more after the backward closure that read it."""
    with monkeypatch.context() as m:
        released = count_releases(m)
        with_release = train_step_bytes(*args)
    with monkeypatch.context() as m:
        m.setattr(Tensor, "release", lambda self: None)
        kept = train_step_bytes(*args)
    tensors = len({id(t) for t in released})
    assert len(released) == 2 * tensors
    return with_release, tensors, kept


# config -> tensors released per step: per block both BatchNorm outputs and
# the GLU output (or the second BatchNorm's, read by the next conv), and the
# head's GELU output (the head's ReLU has no rebuild and stays)
@pytest.mark.parametrize("ablation,releases", [
    (None, 16), ("relu", 15), ("glu-conv", 11), ("final-convs", 15), ("skip-connections", 16),
])
def test_desk_train_step_bitwise_equal_without_release(monkeypatch, split_mode, ablation,
                                                       releases):
    cfg = DESK if ablation is None else build_ablation(DESK, ablation)
    with_release, n, kept = released_and_kept(monkeypatch, cfg, 4, 120)
    assert n == releases
    assert with_release == kept


def test_deep_mel_tower_train_step_bitwise_equal_without_release(monkeypatch, split_mode):
    with_release, n, kept = released_and_kept(monkeypatch, DESK, 4, 120, 20)
    assert n == 2 * 16  # brain net and deep-Mel tower
    assert with_release == kept


def test_paper_width_train_step_bitwise_equal_without_release(monkeypatch):
    cfg = BrainNetConfig(in_channels=208, out_features=16, n_subjects=2)
    assert (cfg.d1, cfg.d2, cfg.harmonics, cfg.blocks) == (270, 320, 32, 5)
    with_release, n, kept = released_and_kept(monkeypatch, cfg, 2, 360)
    assert n == 16
    assert with_release == kept


def f32(rng, *shape, grad=True):
    return Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=grad)


def bn_train(x, activation="gelu"):
    gamma, beta = parameter(np.ones(4, np.float32), "g"), parameter(np.zeros(4, np.float32), "b")
    return batchnorm1d(x, gamma, beta, BatchNormState(4), True, activation=activation)


class TestReleasedTensor:
    @pytest.mark.parametrize("op", [
        lambda x: bn_train(x), lambda x: bn_train(x, "relu"), lambda x: bn_train(x, None),
        gelu, glu])
    def test_keeps_shape_and_dtype_read_only_nan(self, op):
        h = op(f32(np.random.default_rng(0), 3, 4, 6))
        shape, dtype = h.shape, h.dtype
        h.release()
        assert h.data.shape == shape and h.data.dtype == dtype
        assert not h.data.flags.writeable
        assert np.isnan(h.data).all()
        assert h.data.strides == (0,) * h.ndim  # no buffer of its own

    def test_costs_graph_size_no_buffer(self, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        from tracer import graph_size

        rng = np.random.default_rng(1)
        h = gelu(f32(rng, 3, 4, 6))
        out = conv1d(h, f32(rng, 5, 4, 3))
        before = graph_size(out)
        h.release()
        after = graph_size(out)
        # the view's one NaN element replaces the output's buffer
        assert after == (before[0], before[1] - h.size * h.data.itemsize + h.data.itemsize)

    def test_stray_forward_read_fails_the_non_finite_guard(self):
        h = gelu(f32(np.random.default_rng(2), 3, 4, 6))
        h.release()
        with pytest.raises(NonFiniteActivation):
            BrainNet._check(h, "block0")

    def test_rebuilt_for_its_reader_and_released_again(self):
        rng = np.random.default_rng(3)
        x, w = f32(rng, 3, 4, 6), f32(rng, 5, 4, 3)
        h = gelu(x)
        want = h.data.copy()
        seen = []
        out = conv1d(h, w)
        backward = out._backward
        out._backward = lambda g: (seen.append(h.data.copy()), backward(g))
        h.release()
        mean_all(out).backward()
        assert len(seen) == 1 and seen[0].tobytes() == want.tobytes()
        assert h._released and np.isnan(h.data).all()

    def test_no_op_on_leaves_outputs_without_rebuild_no_grad_and_eval(self):
        rng = np.random.default_rng(4)
        x = f32(rng, 3, 4, 6)
        conv_out = conv1d(x, f32(rng, 5, 4, 3))
        with no_grad():
            no_graph = gelu(x)
        state = BatchNormState(4)
        state.initialized = True  # eval mode on the initial running statistics
        bn_eval = batchnorm1d(f32(rng, 3, 4, 6), parameter(np.ones(4, np.float32), "g"),
                              parameter(np.zeros(4, np.float32), "b"), state, False,
                              activation="gelu")
        for t in (x, parameter(np.ones(3, np.float32), "p"), Tensor(np.ones(3)), conv_out,
                  relu(x), no_graph, bn_eval):
            data = t.data
            t.release()
            assert t.data is data and not t._released

    def test_no_op_after_backward(self):
        h = gelu(f32(np.random.default_rng(5), 3, 4, 6))
        data = h.data
        mean_all(h).backward()
        h.release()
        assert h.data is data and not h._released


def test_encode_releases_nothing_and_keeps_its_bytes(monkeypatch):
    net = BrainNet(DESK, np.random.default_rng(6))
    rng = np.random.default_rng(7)
    for st in net.bn_states.values():
        st.running_mean = rng.normal(0.0, 0.5, st.running_mean.shape).astype(np.float32)
        st.running_var = rng.uniform(0.5, 2.0, st.running_var.shape).astype(np.float32)
        st.initialized = True
    positions = rng.uniform(0.1, 0.9, size=(32, 2))
    x = rng.normal(size=(5, 32, 120)).astype(np.float32)
    sidx = np.arange(5) % 2
    with monkeypatch.context() as m:
        released = count_releases(m)
        got = net.encode(x, sidx, positions)
    assert released == []
    with monkeypatch.context() as m:
        m.setattr(Tensor, "release", lambda self: None)
        assert got.tobytes() == net.encode(x, sidx, positions).tobytes()
