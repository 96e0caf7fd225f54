"""Oracle and gradient tests for the differentiable primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brainspeech.numerics import (
    BatchNormState,
    Tensor,
    batchnorm1d,
    conv1d,
    cross_entropy_diagonal,
    gelu,
    glu,
    mix,
    mse,
    pairwise_inner,
    relu,
    softmax,
    spatial_logits,
    subject_mix,
)

from gradcheck import grad_check, inner_product_full, mean_all, scale


def conv1d_loops(x, w, b, dilation):
    """Nested-loop same-padded dilated convolution (independent oracle)."""
    batch, cin, t = x.shape
    cout, _, k = w.shape
    pad = dilation * (k - 1) // 2
    out = np.zeros((batch, cout, t), dtype=x.dtype)
    for bi in range(batch):
        for o in range(cout):
            for ti in range(t):
                acc = 0.0 if b is None else b[o]
                for c in range(cin):
                    for j in range(k):
                        src = ti + j * dilation - pad
                        if 0 <= src < t:
                            acc += w[o, c, j] * x[bi, c, src]
                out[bi, o, ti] = acc
    return out


class TestConv1d:
    def test_k1_identity(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 3, 9)))
        w = Tensor(np.eye(3)[:, :, None])
        out = conv1d(x, w)
        np.testing.assert_allclose(out.data, x.data)

    def test_k3_center_tap(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(1, 1, 12)))
        w = Tensor(np.array([0.0, 1.0, 0.0]).reshape(1, 1, 3))
        out = conv1d(x, w)
        np.testing.assert_allclose(out.data, x.data)

    def test_random_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 7))
        w = rng.normal(size=(4, 3, 3))
        b = rng.normal(size=4)
        got = conv1d(Tensor(x), Tensor(w), Tensor(b), dilation=2).data
        want = conv1d_loops(x, w, b, dilation=2)
        np.testing.assert_allclose(got, want, atol=1e-6)

    @pytest.mark.parametrize("dilation", [1, 2, 4])
    def test_linearity(self, dilation):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 2, 11))
        y = rng.normal(size=(2, 2, 11))
        w = Tensor(rng.normal(size=(3, 2, 3)))
        lhs = conv1d(Tensor(2.0 * x + 0.5 * y), w, dilation=dilation).data
        rhs = 2.0 * conv1d(Tensor(x), w, dilation=dilation).data + 0.5 * conv1d(
            Tensor(y), w, dilation=dilation
        ).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-5)

    def test_shape_mismatch_raises(self):
        x = Tensor(np.zeros((1, 3, 5)))
        w = Tensor(np.zeros((2, 4, 3)))
        with pytest.raises(ValueError):
            conv1d(x, w)
        with pytest.raises(ValueError, match="residual shape"):
            conv1d(x, Tensor(np.zeros((2, 3, 3))), residual=x)

    def test_grad(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(2, 3, 7)))
        w = Tensor(rng.normal(size=(4, 3, 3)))
        b = Tensor(rng.normal(size=4))
        err = grad_check(lambda x_, w_, b_: mean_all(gelu(conv1d(x_, w_, b_, dilation=2))), [x, w, b])
        assert err < 1e-4

    def test_grad_k1(self):
        rng = np.random.default_rng(41)
        x = Tensor(rng.normal(size=(2, 3, 7)))
        w = Tensor(rng.normal(size=(4, 3, 1)))
        b = Tensor(rng.normal(size=4))
        err = grad_check(lambda x_, w_, b_: mean_all(gelu(conv1d(x_, w_, b_))), [x, w, b])
        assert err < 1e-4

    def test_grad_k3_dilation3(self):
        rng = np.random.default_rng(42)
        x = Tensor(rng.normal(size=(2, 3, 8)))
        w = Tensor(rng.normal(size=(2, 3, 3)))
        err = grad_check(lambda x_, w_: mean_all(gelu(conv1d(x_, w_, dilation=3))), [x, w])
        assert err < 1e-4

    @pytest.mark.parametrize("residual", ["separate", "input"])
    def test_grad_residual(self, residual):
        """A separate residual, and the conv's own input as in a block, whose
        gradient then sums the skip's and the conv's contributions."""
        rng = np.random.default_rng(43)
        x = Tensor(rng.normal(size=(2, 3, 7)))
        w = Tensor(rng.normal(size=(3, 3, 3)))
        b = Tensor(rng.normal(size=3))
        if residual == "input":
            err = grad_check(lambda x_, w_, b_: mean_all(gelu(
                conv1d(x_, w_, b_, dilation=2, residual=x_))), [x, w, b])
        else:
            r = Tensor(rng.normal(size=(2, 3, 7)))
            err = grad_check(lambda x_, w_, b_, r_: mean_all(gelu(
                conv1d(x_, w_, b_, dilation=2, residual=r_))), [x, w, b, r])
        assert err < 1e-4


class TestBatchNorm:
    def test_train_mode_standardizes(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(loc=3.0, scale=2.5, size=(4, 3, 50)))
        state = BatchNormState(3, dtype=np.float64)
        gamma = Tensor(np.ones(3))
        beta = Tensor(np.zeros(3))
        out = batchnorm1d(x, gamma, beta, state, training=True).data
        np.testing.assert_allclose(out.mean(axis=(0, 2)), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.var(axis=(0, 2)), 1.0, atol=1e-4)

    def test_standardized_input_is_fixed_point(self):
        rng = np.random.default_rng(6)
        raw = rng.normal(size=(8, 2, 100))
        raw = (raw - raw.mean(axis=(0, 2), keepdims=True)) / raw.std(axis=(0, 2), keepdims=True)
        state = BatchNormState(2, dtype=np.float64)
        out = batchnorm1d(Tensor(raw), Tensor(np.ones(2)), Tensor(np.zeros(2)), state, training=True).data
        np.testing.assert_allclose(out, raw, atol=1e-4)

    def test_eval_before_train_raises(self):
        state = BatchNormState(2)
        with pytest.raises(RuntimeError):
            batchnorm1d(Tensor(np.zeros((2, 2, 4))), Tensor(np.ones(2)), Tensor(np.zeros(2)), state, training=False)

    def test_batch_of_one_raises(self):
        state = BatchNormState(2)
        with pytest.raises(ValueError):
            batchnorm1d(Tensor(np.zeros((1, 2, 4))), Tensor(np.ones(2)), Tensor(np.zeros(2)), state, training=True)

    def test_grad_train_mode(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(3, 2, 5)))
        gamma = Tensor(rng.normal(size=2) + 1.0)
        beta = Tensor(rng.normal(size=2))
        state = BatchNormState(2, dtype=np.float64)

        def f(x_, g_, b_):
            # train mode overwrites its input: scale by 1.0 hands it a fresh copy
            return mean_all(gelu(batchnorm1d(scale(x_, 1.0), g_, b_, state, training=True,
                                             update_running=False)))

        assert grad_check(f, [x, gamma, beta]) < 1e-4

    def test_grad_eval_mode(self):
        rng = np.random.default_rng(8)
        state = BatchNormState(2, dtype=np.float64)
        warm = Tensor(rng.normal(size=(4, 2, 10)))
        batchnorm1d(warm, Tensor(np.ones(2)), Tensor(np.zeros(2)), state, training=True)
        x = Tensor(rng.normal(size=(2, 2, 5)))
        gamma = Tensor(rng.normal(size=2) + 1.0)
        beta = Tensor(rng.normal(size=2))

        def f(x_, g_, b_):
            return mean_all(gelu(batchnorm1d(x_, g_, b_, state, training=False)))

        assert grad_check(f, [x, gamma, beta]) < 1e-4

    @pytest.mark.parametrize("activation", ["gelu", "relu"])
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_grad_fused_activation(self, training, activation):
        rng = np.random.default_rng(9)
        state = BatchNormState(2, dtype=np.float64)
        warm = Tensor(rng.normal(size=(4, 2, 10)))
        batchnorm1d(warm, Tensor(np.ones(2)), Tensor(np.zeros(2)), state, training=True)
        x = Tensor(rng.normal(size=(3, 2, 5)))
        gamma = Tensor(rng.normal(size=2) + 1.0)
        beta = Tensor(rng.normal(size=2))
        probe = Tensor(rng.normal(size=(3, 2, 5)))

        def f(x_, g_, b_):
            out = batchnorm1d(scale(x_, 1.0), g_, b_, state, training, update_running=False,
                              activation=activation)
            return inner_product_full(out, probe)

        assert grad_check(f, [x, gamma, beta]) < 1e-4

    def test_unknown_activation_raises(self):
        with pytest.raises(ValueError, match="unknown activation"):
            batchnorm1d(Tensor(np.zeros((2, 2, 4))), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                        BatchNormState(2), training=True, activation="tanh")


class TestActivations:
    def test_gelu_zero(self):
        assert gelu(Tensor(np.array([0.0]))).data[0] == 0.0

    def test_gelu_matches_erf_form(self):
        x = np.linspace(-4, 4, 41)
        want = x * 0.5 * (1 + np.array([math.erf(v / math.sqrt(2)) for v in x]))
        np.testing.assert_allclose(gelu(Tensor(x)).data, want, atol=1e-12)

    def test_glu_saturated_gate_passes_first_half(self):
        a = np.random.default_rng(9).normal(size=(2, 2, 5))
        gate = np.full((2, 2, 5), 40.0)
        x = Tensor(np.concatenate([a, gate], axis=1))
        np.testing.assert_allclose(glu(x).data, a, atol=1e-12)

    def test_glu_odd_channels_raises(self):
        with pytest.raises(ValueError):
            glu(Tensor(np.zeros((1, 3, 4))))

    def test_softmax_closed_form(self):
        out = softmax(Tensor(np.array([[0.0, math.log(3.0)]])), axis=1).data
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(10)
        out = softmax(Tensor(rng.normal(size=(6, 9))), axis=1).data
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_softmax_mask_excludes(self):
        x = Tensor(np.array([[1.0, 100.0, 2.0]]))
        keep = np.array([[True, False, True]])
        out = softmax(x, axis=1, keep=keep).data
        assert out[0, 1] == 0.0
        np.testing.assert_allclose(out.sum(), 1.0)

    def test_softmax_all_masked_raises(self):
        with pytest.raises(ValueError):
            softmax(Tensor(np.zeros((1, 3))), axis=1, keep=np.zeros((1, 3), bool))

    @settings(max_examples=50, deadline=None)
    @given(shift=st.floats(-50, 50), seed=st.integers(0, 2**16))
    def test_softmax_shift_invariance(self, shift, seed):
        x = np.random.default_rng(seed).normal(size=(3, 7))
        base = softmax(Tensor(x), axis=1).data
        moved = softmax(Tensor(x + shift), axis=1).data
        np.testing.assert_allclose(base, moved, atol=1e-7)

    @pytest.mark.parametrize("op", [gelu, relu, glu])
    def test_grads(self, op):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(2, 4, 5)))
        # glu overwrites its input: scale by 1.0 hands it a fresh copy
        assert grad_check(lambda x_: mean_all(op(scale(x_, 1.0))), [x]) < 1e-4

    def test_softmax_grad(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(3, 5)))
        c = rng.normal(size=(3, 5))
        assert grad_check(lambda x_: mean_all(inner_product_full(softmax(x_, axis=1), Tensor(c))), [x]) < 1e-4


class TestInnerProducts:
    def test_all_ones_counts_elements(self):
        z = Tensor(np.ones((2, 3)))
        y = Tensor(np.ones((2, 3)))
        assert inner_product_full(z, y).item() == 6.0

    def test_orthogonal_one_hot(self):
        z = np.zeros((2, 3))
        y = np.zeros((2, 3))
        z[0, 0] = 1.0
        y[1, 2] = 1.0
        assert inner_product_full(Tensor(z), Tensor(y)).item() == 0.0

    def test_random_matches_loop_sum(self):
        rng = np.random.default_rng(14)
        z = rng.normal(size=(4, 9))
        y = rng.normal(size=(4, 9))
        want = sum(z[i, j] * y[i, j] for i in range(4) for j in range(9))
        assert abs(inner_product_full(Tensor(z), Tensor(y)).item() - want) < 1e-6

    def test_pairwise_matches_singles(self):
        rng = np.random.default_rng(15)
        z = rng.normal(size=(3, 2, 5))
        y = rng.normal(size=(4, 2, 5))
        got = pairwise_inner(Tensor(z), Tensor(y)).data
        for i in range(3):
            for j in range(4):
                want = inner_product_full(Tensor(z[i]), Tensor(y[j])).item()
                assert abs(got[i, j] - want) < 1e-6

    def test_inner_product_grad(self):
        rng = np.random.default_rng(16)
        z = Tensor(rng.normal(size=(2, 4)))
        y = Tensor(rng.normal(size=(2, 4)))
        assert grad_check(inner_product_full, [z, y]) < 1e-4

    def test_pairwise_grad(self):
        rng = np.random.default_rng(17)
        z = Tensor(rng.normal(size=(3, 2, 4)))
        y = Tensor(rng.normal(size=(3, 2, 4)))
        assert grad_check(lambda z_, y_: cross_entropy_diagonal(pairwise_inner(z_, y_)), [z, y]) < 1e-4


class TestCrossEntropyDiagonal:
    def test_matches_softmax_loop_oracle(self):
        rng = np.random.default_rng(13)
        x = rng.normal(scale=3.0, size=(5, 5))
        want = np.mean([-math.log(math.exp(x[i, i]) / sum(math.exp(v) for v in x[i]))
                        for i in range(5)])
        assert cross_entropy_diagonal(Tensor(x)).item() == pytest.approx(want, abs=1e-12)

    def test_uniform_logits_give_log_n(self):
        for n in (2, 7, 31):
            assert cross_entropy_diagonal(Tensor(np.zeros((n, n)))).item() == pytest.approx(
                math.log(n), abs=1e-12)

    def test_large_logits_stay_finite(self):
        # exp(1000) overflows; the row maximum is subtracted first
        x = np.full((3, 3), 1000.0)
        x[np.diag_indices(3)] = 1001.0
        want = math.log(math.e + 2.0) - 1.0
        assert cross_entropy_diagonal(Tensor(x)).item() == pytest.approx(want, abs=1e-12)

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            cross_entropy_diagonal(Tensor(np.zeros((3, 4))))

    def test_grad(self):
        rng = np.random.default_rng(24)
        x = Tensor(rng.normal(size=(4, 4)))
        assert grad_check(cross_entropy_diagonal, [x]) < 1e-4


class TestSpatialLogits:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(18)
        re, im = rng.normal(size=(4, 3, 3)), rng.normal(size=(4, 3, 3))
        cos_b, sin_b = rng.normal(size=(9, 5)), rng.normal(size=(9, 5))
        want = np.zeros((4, 5))
        for j in range(4):
            for c in range(5):
                for k in range(3):
                    for l in range(3):
                        want[j, c] += (re[j, k, l] * cos_b[3 * k + l, c]
                                       + im[j, k, l] * sin_b[3 * k + l, c])
        got = spatial_logits(Tensor(re), Tensor(im), cos_b, sin_b).data
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("im_shape,basis_rows", [((4, 3, 2), 9), ((4, 3, 3), 8)])
    def test_shape_mismatch_raises(self, im_shape, basis_rows):
        with pytest.raises(ValueError):
            spatial_logits(Tensor(np.zeros((4, 3, 3))), Tensor(np.zeros(im_shape)),
                           np.zeros((basis_rows, 5)), np.zeros((basis_rows, 5)))

    def test_grad(self):
        rng = np.random.default_rng(29)
        re, im = Tensor(rng.normal(size=(3, 2, 2))), Tensor(rng.normal(size=(3, 2, 2)))
        cos_b, sin_b = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        assert grad_check(lambda r_, i_: mean_all(gelu(spatial_logits(r_, i_, cos_b, sin_b))),
                          [re, im]) < 1e-4


class TestMixing:
    def test_mix_matches_einsum(self):
        rng = np.random.default_rng(19)
        w = rng.normal(size=(5, 3))
        x = rng.normal(size=(2, 3, 7))
        np.testing.assert_allclose(mix(Tensor(w), Tensor(x)).data, np.einsum("jc,bct->bjt", w, x))

    def test_subject_mix_identity(self):
        rng = np.random.default_rng(20)
        m = np.stack([np.eye(4), 2.0 * np.eye(4)])
        x = rng.normal(size=(3, 4, 6))
        sidx = np.array([0, 1, 0])
        out = subject_mix(Tensor(m), Tensor(x), sidx).data
        np.testing.assert_allclose(out[0], x[0])
        np.testing.assert_allclose(out[1], 2.0 * x[1])
        np.testing.assert_allclose(out[2], x[2])

    def test_subject_mix_matches_matvec_loop(self):
        rng = np.random.default_rng(21)
        m = rng.normal(size=(3, 4, 4))
        x = rng.normal(size=(5, 4, 6))
        sidx = np.array([0, 2, 1, 2, 0])
        out = subject_mix(Tensor(m), Tensor(x), sidx).data
        for b in range(5):
            for t in range(6):
                np.testing.assert_allclose(out[b, :, t], m[sidx[b]] @ x[b, :, t], atol=1e-6)

    def test_subject_mix_bad_index(self):
        with pytest.raises(IndexError):
            subject_mix(Tensor(np.zeros((2, 3, 3))), Tensor(np.zeros((1, 3, 4))), np.array([5]))

    @pytest.mark.parametrize("sidx", [np.array([0, 1, 0]), np.array([1, 1, 1])])
    def test_grads(self, sidx):
        rng = np.random.default_rng(22)
        m = Tensor(rng.normal(size=(2, 3, 3)))
        x = Tensor(rng.normal(size=(3, 3, 4)))
        assert grad_check(lambda m_, x_: mean_all(gelu(subject_mix(m_, x_, sidx))), [m, x]) < 1e-4

    def test_mix_grad(self):
        rng = np.random.default_rng(23)
        w = Tensor(rng.normal(size=(4, 3)))
        x = Tensor(rng.normal(size=(2, 3, 5)))
        assert grad_check(lambda w_, x_: mean_all(gelu(mix(w_, x_))), [w, x]) < 1e-4


class TestMSE:
    def test_perfect_prediction(self):
        x = np.random.default_rng(25).normal(size=(3, 4))
        assert mse(Tensor(x), Tensor(x.copy())).item() == 0.0

    def test_constant_offset(self):
        x = np.random.default_rng(26).normal(size=(3, 4))
        assert abs(mse(Tensor(x + 1.0), Tensor(x)).item() - 1.0) < 1e-7

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(27)
        a, b = rng.normal(size=(2, 5)), rng.normal(size=(2, 5))
        want = np.mean([(a[i, j] - b[i, j]) ** 2 for i in range(2) for j in range(5)])
        assert abs(mse(Tensor(a), Tensor(b)).item() - want) < 1e-7

    def test_grad(self):
        rng = np.random.default_rng(28)
        a = Tensor(rng.normal(size=(2, 3)))
        b = Tensor(rng.normal(size=(2, 3)))
        assert grad_check(mse, [a, b]) < 1e-4
