"""The fused block layer against the composition it replaced.

``BrainNet.forward`` runs each block layer as ``conv1d(..., residual=)`` then
``batchnorm1d(..., activation=)``. The oracle below is the previous release's
block loop, ``conv1d`` -> ``add`` -> ``batchnorm1d`` -> ``gelu``/``relu``,
built from the unfused ops. A train step (loss, every parameter gradient,
the BatchNorm running statistics) and an eval forward must give the same
bytes, with the two-way split forced on and off, while the fused graph holds
two activation-sized arrays fewer per layer.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from brainspeech.brain_net import BrainNet, BrainNetConfig, dilation_schedule
from brainspeech.numerics import BatchNormState, Tensor, no_grad, ops
from brainspeech.objective import clip_loss_batch

from gradcheck import add

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def unfused_forward(net, x, subject_idx, positions, training, rng=None):
    """The previous release's ``BrainNet.forward`` for known subjects: every
    block layer keeps its conv output, the residual sum, BatchNorm's output
    and the activation's output as separate graph nodes."""
    c, p = net.config, net.params
    if c.use_spatial_attention:
        logits = net.attention_logits(positions)
        keep = None
        if training and c.use_spatial_dropout:
            keep = np.broadcast_to(net._dropout_keep(positions, rng), logits.shape)
        h = ops.mix(ops.softmax(logits, axis=1, keep=keep), x)
    else:
        h = ops.conv1d(x, p["input_proj.w"], p["input_proj.b"])
    if c.use_initial_conv:
        h = ops.conv1d(h, p["initial.w"], p["initial.b"])
    if c.use_subject_layer:
        h = ops.subject_mix(p["subject.m"], h, np.asarray(subject_idx))
    act = ops.gelu if c.activation == "gelu" else ops.relu
    for b, (d_a, d_b) in enumerate(dilation_schedule(c.blocks)):
        c1 = ops.conv1d(h, p[f"block{b}.conv1.w"], p[f"block{b}.conv1.b"], dilation=d_a)
        if c.use_skip_connections and h.shape[1] == c1.shape[1]:
            c1 = add(c1, h)
        h1 = act(ops.batchnorm1d(c1, p[f"block{b}.bn1.gamma"], p[f"block{b}.bn1.beta"],
                                 net.bn_states[f"block{b}.bn1"], training))
        c2 = ops.conv1d(h1, p[f"block{b}.conv2.w"], p[f"block{b}.conv2.b"], dilation=d_b)
        if c.use_skip_connections:
            c2 = add(c2, h1)
        h2 = act(ops.batchnorm1d(c2, p[f"block{b}.bn2.gamma"], p[f"block{b}.bn2.beta"],
                                 net.bn_states[f"block{b}.bn2"], training))
        if c.use_glu_conv:
            h = ops.glu(ops.conv1d(h2, p[f"block{b}.conv3.w"], p[f"block{b}.conv3.b"]))
        else:
            h = h2
    if c.use_final_convs:
        h = act(ops.conv1d(h, p["head.conv1.w"], p["head.conv1.b"]))
        return ops.conv1d(h, p["head.conv2.w"], p["head.conv2.b"])
    return ops.conv1d(h, p["head.direct.w"], p["head.direct.b"])


def fused_forward(net, x, subject_idx, positions, training, rng=None):
    return net.forward(x, subject_idx, positions, training, rng=rng)


def step_bytes(forward, activation, d1):
    """Bytes of one train step's loss, every parameter gradient and running
    statistic of a 2-block net, then of an eval forward."""
    cfg = BrainNetConfig(in_channels=8, out_features=4, n_subjects=2, d1=d1, d2=8,
                         blocks=2, harmonics=3, activation=activation)
    net = BrainNet(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    positions = rng.uniform(0.1, 0.9, size=(8, 2))
    x = Tensor(rng.normal(size=(4, 8, 30)).astype(np.float32))
    y = Tensor(rng.normal(size=(4, 4, 30)).astype(np.float32))
    subjects = np.array([0, 1, 1, 0])
    loss = clip_loss_batch(forward(net, x, subjects, positions, True, rng), y)
    loss.backward()
    out = [loss.data.tobytes()] + [p.grad.tobytes() for p in net.parameters()] + [
        st.running_mean.tobytes() + st.running_var.tobytes() for st in net.bn_states.values()]
    with no_grad():
        out.append(forward(net, x, subjects, positions, False).data.tobytes())
    return out


@pytest.mark.parametrize("d1", [8, 6], ids=["every-layer-residual", "first-conv-plain"])
@pytest.mark.parametrize("activation", ["gelu", "relu"])
def test_train_step_and_eval_bitwise_equal_to_unfused_oracle(split_mode, activation, d1):
    assert (step_bytes(fused_forward, activation, d1)
            == step_bytes(unfused_forward, activation, d1))


def graph_after_loss(forward, batch, t):
    """(nodes, bytes) that ``perfbench/tracer.py``'s ``graph_size`` counts
    after a desk-width (d1=d2=32, 5 blocks) train-mode forward plus the CLIP
    loss."""
    from tracer import graph_size

    cfg = BrainNetConfig(in_channels=32, out_features=16, n_subjects=2, d1=32, d2=32,
                         harmonics=8)
    net = BrainNet(cfg, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    positions = rng.uniform(0.1, 0.9, size=(32, 2))
    x = Tensor(rng.normal(size=(batch, 32, t)).astype(np.float32))
    y = Tensor(rng.normal(size=(batch, 16, t)).astype(np.float32))
    return graph_size(clip_loss_batch(
        forward(net, x, np.arange(batch) % 2, positions, True, rng), y))


def test_graph_keeps_two_activations_fewer_per_layer(monkeypatch):
    """Per conv-BatchNorm-GELU layer the oracle keeps the conv output, the
    residual sum (which BatchNorm overwrites with its xhat), BatchNorm's
    output, GELU's cdf and output; the fused layer keeps the conv-plus-skip
    output as xhat, GELU's cdf and the output, and neither a separate sum nor
    BatchNorm's output."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    batch, t = 4, 120
    fused_nodes, fused_bytes = graph_after_loss(fused_forward, batch, t)
    oracle_nodes, oracle_bytes = graph_after_loss(unfused_forward, batch, t)
    layers, act_bytes = 2 * 5, batch * 32 * t * 4  # float32 (B, d2, T)
    assert fused_bytes <= oracle_bytes - 2 * layers * act_bytes
    assert fused_nodes == oracle_nodes - 2 * layers


def graph_bytes(monkeypatch, out):
    """Bytes that ``perfbench/tracer.py``'s ``graph_size`` counts from ``out``."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import graph_size

    return graph_size(out)[1]


def test_train_batchnorm_keeps_three_activations(monkeypatch):
    """Train-mode BatchNorm with GELU normalises its input in place, so it
    keeps xhat (the input's buffer), GELU's cdf and the output: three
    activation-sized buffers, where a separate xhat made four."""
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(4, 6, 50)), requires_grad=True)
    gamma = Tensor(np.ones(6), requires_grad=True)
    beta = Tensor(np.zeros(6), requires_grad=True)
    out = ops.batchnorm1d(x, gamma, beta, BatchNormState(6, dtype=np.float64), True,
                          activation="gelu")
    act_bytes = x.data.nbytes
    assert 3 * act_bytes <= graph_bytes(monkeypatch, out) < 4 * act_bytes


def test_glu_keeps_only_its_input_and_output(monkeypatch):
    """GLU writes the gate's sigmoid over the gate half of its input."""
    x = Tensor(np.random.default_rng(4).normal(size=(4, 12, 50)), requires_grad=True)
    out = ops.glu(x)
    assert graph_bytes(monkeypatch, out) == x.data.nbytes + out.data.nbytes


def test_paper_width_train_step_holds_under_18_mb_per_sample():
    """At paper width (208 channels, d1=270, d2=320, 3 s at 120 Hz) a B=8
    train-mode forward plus the CLIP loss holds at most 18.0 MB per sample
    until backward, and backward peaks at 22.5 MB per sample (tracemalloc,
    the held graph included). Keeping every BatchNorm, GLU and GELU output
    instead of rebuilding it in backward held 24.8 MB and peaked at 28.0 MB;
    a separate xhat per BatchNorm and a separate sigmoid per GLU held 31.7 MB."""
    batch, t = 8, 360
    cfg = BrainNetConfig(in_channels=208, out_features=16, n_subjects=2, d1=270, d2=320,
                         harmonics=32, blocks=5)
    net = BrainNet(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    positions = rng.uniform(0.1, 0.9, size=(208, 2))
    x = Tensor(rng.normal(size=(batch, 208, t)).astype(np.float32))
    y = Tensor(rng.normal(size=(batch, 16, t)).astype(np.float32))
    net.attention_weights(positions)  # fills the Fourier basis cache
    tracemalloc.start()
    try:
        loss = clip_loss_batch(net.forward(x, np.arange(batch) % 2, positions, True, rng), y)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        backward_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(p.grad is not None for p in net.parameters())
    assert held / batch <= 18.0e6
    assert backward_peak / batch <= 22.5e6
