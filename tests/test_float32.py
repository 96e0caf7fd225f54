"""Precision contract: float32 in gives float32 out, forward and backward.

NumPy 2 promotes a float32 array multiplied by an ``np.float64`` scalar to
float64 (NEP 50), so one float64 constant in an op silently turns the whole
network into double precision. These tests feed float32 everywhere and
check every output and every gradient.
"""

import inspect

import numpy as np
import pytest

from brainspeech.brain_net import BrainNet, BrainNetConfig
from brainspeech.numerics import BatchNormState, Tensor, mean_all, ops
from brainspeech.numerics import tensor as tensor_mod
from brainspeech.objective import clip_loss_batch

import gradcheck

F32 = np.float32


def _t(rng, *shape):
    return Tensor(rng.normal(size=shape).astype(F32), requires_grad=True)


def _bn_eval(rng):
    state = BatchNormState(4)
    ops.batchnorm1d(Tensor(rng.normal(size=(3, 4, 5)).astype(F32)), _t(rng, 4), _t(rng, 4),
                    state, training=True)
    x, g, b = _t(rng, 3, 4, 5), _t(rng, 4), _t(rng, 4)
    return ops.batchnorm1d(x, g, b, state, training=False), [x, g, b]


def _case(fn, *shapes):
    def build(rng):
        inputs = [_t(rng, *s) for s in shapes]
        return fn(*inputs), inputs
    return build


# One entry per public op of numerics.ops (checked below); several cover a
# second code path of the same op.
CASES = {
    "add": _case(ops.add, (3, 4), (3, 4)),
    "sub": _case(ops.sub, (3, 4), (3, 4)),
    "reshape": _case(lambda a: ops.reshape(a, (4, 3)), (3, 4)),
    "mean_all": _case(ops.mean_all, (3, 4)),
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
    "logsumexp": _case(lambda x: ops.logsumexp(x, axis=1), (3, 4)),
    "diagonal": _case(ops.diagonal, (4, 4)),
    "matmul2d": _case(ops.matmul2d, (3, 4), (4, 2)),
    "mix": _case(ops.mix, (5, 3), (2, 3, 4)),
    "subject_mix": _case(lambda m, x: ops.subject_mix(m, x, np.array([1, 0, 1])),
                         (2, 3, 3), (3, 3, 4)),
    "pairwise_inner": _case(ops.pairwise_inner, (3, 2, 4), (5, 2, 4)),
    "mse": _case(ops.mse, (3, 4), (3, 4)),
}
# The two ops that only the tests use keep float32 too.
TEST_OP_CASES = {
    "scale": _case(lambda a: gradcheck.scale(a, 0.37), (3, 4)),
    "inner_product_full": _case(gradcheck.inner_product_full, (3, 4), (3, 4)),
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

    def recording_from_op(data, parents, backward):
        out_dtypes.append(np.asarray(data).dtype)
        return from_op(data, parents, backward)

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

    # 47 op outputs: 5 blocks of 2 conv1d, 2 fused batchnorm1d, conv1d and glu,
    # 9 before the blocks, 3 in the head and 5 in the loss
    assert len(out_dtypes) == 47 and set(out_dtypes) == {np.dtype(F32)}
    # 10 layers, forward and backward, per half-row when split
    assert len(fused_dtypes) >= 40 and set(fused_dtypes) == {np.dtype(F32)}
    assert len(grad_dtypes) > 50 and set(grad_dtypes) == {np.dtype(F32)}
    for p in net.parameters():
        assert p.data.dtype == F32, p.name
        assert p.grad is not None and p.grad.dtype == F32, p.name
