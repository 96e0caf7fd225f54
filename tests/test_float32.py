"""Precision contract: float32 in gives float32 out, forward and backward.

NumPy 2 promotes a float32 array multiplied by an ``np.float64`` scalar to
float64 (NEP 50), so one float64 constant in an op silently turns the whole
network into double precision. These tests feed float32 everywhere and
check every output and every gradient.
"""

import inspect

import numpy as np
import pytest

from brainspeech.brain_net import BrainNet, BrainNetConfig, fourier_basis
from brainspeech.numerics import BatchNormState, Tensor, ops
from brainspeech.numerics import tensor as tensor_mod
from brainspeech.objective import clip_loss_batch

import gradcheck
from gradcheck import inner_product_full, mean_all

F32 = np.float32


def _t(rng, *shape):
    return Tensor(rng.normal(size=shape).astype(F32), requires_grad=True)


def _bn_eval(rng):
    state = BatchNormState(4)
    ops.batchnorm1d(Tensor(rng.normal(size=(3, 4, 5)).astype(F32)), _t(rng, 4), _t(rng, 4),
                    state, training=True)
    x, g, b = _t(rng, 3, 4, 5), _t(rng, 4), _t(rng, 4)
    return ops.batchnorm1d(x, g, b, state, training=False), [x, g, b]


def _spatial_logits(rng):
    re, im = _t(rng, 3, 2, 2), _t(rng, 3, 2, 2)
    cos_b, sin_b = (rng.normal(size=(4, 5)).astype(F32) for _ in range(2))
    return ops.spatial_logits(re, im, cos_b, sin_b), [re, im]


def _case(fn, *shapes):
    def build(rng):
        inputs = [_t(rng, *s) for s in shapes]
        return fn(*inputs), inputs
    return build


# One entry per public op of numerics.ops (checked below); several cover a
# second code path of the same op.
CASES = {
    "conv1d": _case(lambda x, w, b: ops.conv1d(x, w, b, dilation=2), (2, 3, 9), (4, 3, 3), (4,)),
    "conv1d_k1": _case(ops.conv1d, (2, 3, 9), (4, 3, 1), (4,)),
    "batchnorm1d": _case(lambda x, g, b: ops.batchnorm1d(x, g, b, BatchNormState(4), True),
                         (3, 4, 5), (4,), (4,)),
    "batchnorm1d_eval": _bn_eval,
    "gelu": _case(ops.gelu, (2, 3, 5)),
    "relu": _case(ops.relu, (2, 3, 5)),
    "glu": _case(ops.glu, (2, 4, 5)),
    "softmax": _case(lambda x: ops.softmax(x, axis=1, keep=np.array([True, False, True, True])),
                     (3, 4)),
    "spatial_logits": _spatial_logits,
    "mix": _case(ops.mix, (5, 3), (2, 3, 4)),
    "subject_mix": _case(lambda m, x: ops.subject_mix(m, x, np.array([1, 0, 1])),
                         (2, 3, 3), (3, 3, 4)),
    "pairwise_inner": _case(ops.pairwise_inner, (3, 2, 4), (5, 2, 4)),
    "mse": _case(ops.mse, (3, 4), (3, 4)),
    "cross_entropy_diagonal": _case(ops.cross_entropy_diagonal, (4, 4)),
}
# The ops that only the tests use keep float32 too.
TEST_OP_CASES = {
    "scale": _case(lambda a: gradcheck.scale(a, 0.37), (3, 4)),
    "add": _case(gradcheck.add, (3, 4), (3, 4)),
    "inner_product_full": _case(gradcheck.inner_product_full, (3, 4), (3, 4)),
    "mean_all": _case(gradcheck.mean_all, (3, 4)),
}
ALL_CASES = {**CASES, **TEST_OP_CASES}


def test_cases_cover_every_op():
    public = {
        name for name, fn in vars(ops).items()
        if inspect.isfunction(fn) and fn.__module__ == ops.__name__ and not name.startswith("_")
    }
    covered = {name.removesuffix("_k1").removesuffix("_eval") for name in CASES}
    assert public == covered


@pytest.mark.parametrize("name", sorted(ALL_CASES))
def test_op_keeps_float32(name):
    out, inputs = ALL_CASES[name](np.random.default_rng(0))
    assert out.dtype == F32
    mean_all(out).backward()
    for t in inputs:
        assert t.grad is not None and t.grad.dtype == F32, t


def test_brain_net_forward_loss_backward_float32(monkeypatch):
    """Every activation, every propagated gradient and every parameter
    gradient of a desk-width train step is float32, and so are the cdf that
    each fused BatchNorm-GELU keeps and the output its backward recomputes."""
    out_dtypes, grad_dtypes, fused_dtypes = [], [], []
    from_op = tensor_mod.from_op
    gelu_forward, gelu_backward = ops._ACTIVATIONS["gelu"]

    def recording_forward(x, cdf, out):
        gelu_forward(x, cdf, out)
        fused_dtypes.extend([cdf.dtype, out.dtype])

    def recording_backward(y, cdf, g, out):
        fused_dtypes.extend([y.dtype, cdf.dtype])  # y: the recomputed output
        gelu_backward(y, cdf, g, out)

    def recording_from_op(data, parents, backward, rebuild=None):
        out_dtypes.append(np.asarray(data).dtype)
        return from_op(data, parents, backward, rebuild)

    accumulate = Tensor.accumulate

    def recording_accumulate(self, g):
        grad_dtypes.append(g.dtype)
        accumulate(self, g)

    monkeypatch.setattr(ops, "from_op", recording_from_op)
    monkeypatch.setattr(Tensor, "accumulate", recording_accumulate)
    monkeypatch.setitem(ops._ACTIVATIONS, "gelu", (recording_forward, recording_backward))

    cfg = BrainNetConfig(in_channels=32, out_features=16, n_subjects=2, d1=32, d2=32,
                         harmonics=8)
    net = BrainNet(cfg, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    positions = rng.uniform(0.1, 0.9, size=(32, 2))
    x = Tensor(rng.normal(size=(4, 32, 120)).astype(F32))
    y = Tensor(rng.normal(size=(4, 16, 120)).astype(F32))
    z = net.forward(x, np.array([0, 1, 0, 1]), positions, training=True, rng=rng)
    loss = clip_loss_batch(z, y)
    loss.backward()

    # 40 op outputs: 5 blocks of 2 conv1d, 2 fused batchnorm1d, conv1d and glu,
    # 5 before the blocks, 3 in the head and 2 in the loss
    assert len(out_dtypes) == 40 and set(out_dtypes) == {np.dtype(F32)}
    # 10 layers, forward and backward, per half-row when split
    assert len(fused_dtypes) >= 40 and set(fused_dtypes) == {np.dtype(F32)}
    assert len(grad_dtypes) > 50 and set(grad_dtypes) == {np.dtype(F32)}
    for p in net.parameters():
        assert p.data.dtype == F32, p.name
        assert p.grad is not None and p.grad.dtype == F32, p.name


# The two model formulas were each a composition of generic ops before they
# became one op. The oracles below are those compositions written inline in
# numpy, with the same expressions and the backward sweep's order; the fused
# ops must give their bytes in float32 at desk and paper sizes.

def composed_spatial_logits(re, im, cos_b, sin_b, g):
    """add(matmul2d(reshape(re), cos_b), matmul2d(reshape(im), sin_b)):
    the logits, then the gradients of re and im for output gradient g."""
    d1 = re.shape[0]
    re2, im2 = re.reshape(d1, -1), im.reshape(d1, -1)
    out = re2 @ cos_b + im2 @ sin_b
    # add hands g to its first input and a copy to its second
    return out, (g @ cos_b.T).reshape(re.shape), (g.copy() @ sin_b.T).reshape(im.shape)


def composed_clip_loss(x):
    """mean_all(sub(logsumexp(x, axis=1), diagonal(x))): the loss, then the
    gradient of x. The sweep reaches logsumexp's backward before diagonal's,
    so x's gradient buffer is logsumexp's and diagonal's is added into it."""
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    s = e.sum(axis=1, keepdims=True)
    lse = np.squeeze(m + np.log(s), axis=1)
    d = lse - np.diagonal(x).copy()
    loss = np.asarray(d.mean())
    gn = np.full_like(d, np.ones_like(loss) / d.size)
    grad = np.expand_dims(gn, 1) * (e / s)
    dx = np.zeros_like(x)
    np.fill_diagonal(dx, -gn)
    grad += dx
    return loss, grad


@pytest.mark.parametrize("d1,harmonics,channels", [(32, 8, 32), (270, 32, 208)])
def test_spatial_logits_bytes_match_composition(d1, harmonics, channels):
    rng = np.random.default_rng(harmonics)
    cos_b, sin_b = fourier_basis(rng.uniform(0.1, 0.9, size=(channels, 2)), harmonics, 0.1, F32)
    re, im = (_t(rng, d1, harmonics, harmonics) for _ in range(2))
    g = rng.normal(size=(d1, channels)).astype(F32)
    out = ops.spatial_logits(re, im, cos_b, sin_b)
    inner_product_full(out, Tensor(g)).backward()
    want, dre, dim = composed_spatial_logits(re.data, im.data, cos_b, sin_b, g)
    assert out.data.dtype == F32
    assert out.data.tobytes() == want.tobytes()
    assert re.grad.tobytes() == dre.tobytes()
    assert im.grad.tobytes() == dim.tobytes()


@pytest.mark.parametrize("batch", [8, 32, 40, 256])
@pytest.mark.parametrize("scale", [1.0, 300.0])
def test_cross_entropy_diagonal_bytes_match_composition(batch, scale):
    """Scale 300 saturates most rows, so exp underflows to zero and subnormals.
    A batch of 40 makes 1/n inexact, so the order of the products shows."""
    rng = np.random.default_rng(batch)
    x = Tensor((scale * rng.normal(size=(batch, batch))).astype(F32), requires_grad=True)
    loss = ops.cross_entropy_diagonal(x)
    loss.backward()
    want, grad = composed_clip_loss(x.data)
    assert loss.data.dtype == F32 and x.grad.dtype == F32
    assert loss.data.tobytes() == want.tobytes()
    assert x.grad.tobytes() == grad.tobytes()
