import numpy as np
import pytest

from brainspeech.brain_net import (
    ABLATION_FLAGS,
    BrainNet,
    BrainNetConfig,
    NonFiniteActivation,
    build_ablation,
    deep_mel_config,
    dilation_schedule,
    fourier_basis,
)
from brainspeech.numerics import Tensor, gelu

from gradcheck import grad_check, inner_product_full, mean_all


def receptive_field_radius(config: BrainNetConfig) -> int:
    """Input samples around t that can influence output sample t."""
    per_tap = (config.kernel - 1) // 2
    radius = 0
    for d_a, d_b in dilation_schedule(config.blocks):
        radius += (d_a + d_b) * per_tap
        if config.use_glu_conv:
            radius += per_tap
    return radius


def param_count(net: BrainNet) -> int:
    return sum(p.size for p in net.parameters())


def tiny_config(**overrides):
    base = dict(
        in_channels=4,
        out_features=3,
        n_subjects=2,
        d1=6,
        d2=8,
        harmonics=2,
    )
    base.update(overrides)
    return BrainNetConfig(**base)


def make_positions(c, seed=0):
    return np.random.default_rng(seed).uniform(0.1, 0.9, size=(c, 2))


def warm_bn(net, x, sidx, positions, passes=40):
    # converge the BN running stats so eval mode matches train-mode scaling
    for i in range(passes):
        net.forward(Tensor(x), sidx, positions, training=True,
                    rng=np.random.default_rng(i))


class TestSchedule:
    def test_dilation_schedule(self):
        assert dilation_schedule(5) == [(1, 2), (4, 8), (16, 1), (2, 4), (8, 16)]

    def test_receptive_field_default(self):
        cfg = BrainNetConfig(in_channels=4, out_features=3)
        assert receptive_field_radius(cfg) == 67

    def test_receptive_field_without_glu_conv(self):
        cfg = BrainNetConfig(in_channels=4, out_features=3, use_glu_conv=False)
        assert receptive_field_radius(cfg) == 62


class TestSpatialAttention:
    def test_zero_coefficients_give_channel_mean(self):
        cfg = tiny_config()
        net = BrainNet(cfg, np.random.default_rng(1))
        net.params["spatial.re"].data[:] = 0
        net.params["spatial.im"].data[:] = 0
        positions = make_positions(4)
        w = net.attention_weights(positions)
        np.testing.assert_allclose(w, 0.25, atol=1e-7)

    def test_single_sensor_gets_all_weight(self):
        cfg = tiny_config(in_channels=1)
        net = BrainNet(cfg, np.random.default_rng(2))
        w = net.attention_weights(make_positions(1))
        np.testing.assert_allclose(w, 1.0)

    def test_hand_set_fourier_oracle(self):
        # C=3, K=1: a(x, y) = re*cos(2pi(x'+y')) + im*sin(2pi(x'+y'))
        cfg = tiny_config(d1=2, harmonics=1)
        net = BrainNet(cfg, np.random.default_rng(3))
        re = np.array([[[0.7]], [[-0.3]]])
        im = np.array([[[0.2]], [[1.1]]])
        net.params["spatial.re"].data[:] = re
        net.params["spatial.im"].data[:] = im
        positions = np.array([[0.0, 0.0], [0.5, 0.25], [1.0, 1.0]])
        scaled = 0.1 + 0.8 * positions
        phase = 2 * np.pi * (scaled[:, 0] + scaled[:, 1])
        logits = re[:, 0, 0][:, None] * np.cos(phase) + im[:, 0, 0][:, None] * np.sin(phase)
        want = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        got = net.attention_weights(positions)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_basis_rejects_bad_positions(self):
        with pytest.raises(ValueError):
            fourier_basis(np.array([[1.5, 0.0]]), 2, 0.1)

    def test_dropout_excludes_disk(self):
        cfg = tiny_config(in_channels=30, drop_radius=0.2)
        net = BrainNet(cfg, np.random.default_rng(4))
        positions = make_positions(30, seed=5)
        keep = net._dropout_keep(positions, np.random.default_rng(6))
        assert keep.any()
        assert not keep.all()  # radius 0.2 over [0.1, 0.9]^2 drops someone


class TestForward:
    def test_output_shape(self):
        cfg = tiny_config()
        net = BrainNet(cfg, np.random.default_rng(7))
        x = np.random.default_rng(8).normal(size=(3, 4, 40)).astype(np.float32)
        sidx = np.array([0, 1, 0])
        out = net.forward(Tensor(x), sidx, make_positions(4), training=True,
                          rng=np.random.default_rng(9))
        assert out.shape == (3, 3, 40)

    def test_eval_determinism(self):
        cfg = tiny_config()
        net = BrainNet(cfg, np.random.default_rng(10))
        positions = make_positions(4)
        x = np.random.default_rng(11).normal(size=(2, 4, 40)).astype(np.float32)
        sidx = np.array([0, 1])
        warm_bn(net, x, sidx, positions)
        a = net.forward(Tensor(x), sidx, positions, training=False).data
        b = net.forward(Tensor(x), sidx, positions, training=False).data
        assert np.array_equal(a, b)

    def test_subject_layer_distinguishes_subjects(self):
        cfg = tiny_config()
        net = BrainNet(cfg, np.random.default_rng(12))
        positions = make_positions(4)
        x = np.random.default_rng(13).normal(size=(2, 4, 40)).astype(np.float32)
        x[1] = x[0]
        warm_bn(net, x, np.array([0, 1]), positions)
        out = net.forward(Tensor(x), np.array([0, 1]), positions, training=False).data
        assert not np.allclose(out[0], out[1])

    def test_unknown_subject_errors_without_flag(self):
        cfg = tiny_config()
        net = BrainNet(cfg, np.random.default_rng(14))
        positions = make_positions(4)
        x = np.zeros((1, 4, 40), dtype=np.float32)
        with pytest.raises(IndexError):
            net.forward(Tensor(x), np.array([5]), positions, training=True,
                        rng=np.random.default_rng(0))

    def test_unknown_subject_fallback_uses_mean_matrix(self):
        cfg = tiny_config()
        net = BrainNet(cfg, np.random.default_rng(15))
        positions = make_positions(4)
        x = np.random.default_rng(16).normal(size=(2, 4, 40)).astype(np.float32)
        warm_bn(net, x, np.array([0, 1]), positions)
        mean_m = net.params["subject.m"].data.mean(axis=0)
        net_mean = BrainNet(cfg, np.random.default_rng(15))
        for name, p in net.params.items():
            net_mean.params[name].data[:] = p.data
        net_mean.bn_states = net.bn_states
        net_mean.params["subject.m"].data[0] = mean_m
        got = net.forward(Tensor(x), np.array([7, -1]), positions, training=False,
                          subject_fallback=True).data
        want = net_mean.forward(Tensor(x), np.array([0, 0]), positions,
                                training=False).data
        np.testing.assert_allclose(got, want, atol=1e-5)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_aborts_with_layer(self):
        cfg = tiny_config()
        net = BrainNet(cfg, np.random.default_rng(17))
        x = np.zeros((2, 4, 40), dtype=np.float32)
        x[0, 0, 0] = np.inf
        with pytest.raises(NonFiniteActivation):
            net.forward(Tensor(x), np.array([0, 1]), make_positions(4), training=True,
                        rng=np.random.default_rng(0))

    def test_receptive_field_perturbation(self):
        # gradient support of one output sample is exactly the receptive field;
        # eval-mode BN keeps time steps uncoupled (train-mode batch stats would
        # couple everything)
        cfg = tiny_config(d1=4, d2=4)
        net = BrainNet(cfg, np.random.default_rng(18), dtype=np.float64)
        positions = make_positions(4)
        radius = receptive_field_radius(cfg)
        t = 2 * radius + 60
        rng = np.random.default_rng(19)
        x_np = rng.normal(size=(2, 4, t))
        warm_bn(net, x_np, np.array([0, 1]), positions, passes=2)
        x = Tensor(x_np.copy(), requires_grad=True)
        out = net.forward(x, np.array([0, 1]), positions, training=False)
        mid = t // 2
        pick = np.zeros_like(out.data)
        pick[0, :, mid] = 1.0
        inner_product_full(out, Tensor(pick)).backward()
        support = np.flatnonzero(np.abs(x.grad[0]).max(axis=0) > 0)
        assert support.min() == mid - radius
        assert support.max() == mid + radius
        assert np.all(x.grad[1] == 0)

    def test_time_equivariance_away_from_edges(self):
        cfg = tiny_config()
        net = BrainNet(cfg, np.random.default_rng(20))
        positions = make_positions(4)
        radius = receptive_field_radius(cfg)
        t = 2 * radius + 80
        x = np.random.default_rng(21).normal(size=(2, 4, t)).astype(np.float32)
        warm_bn(net, x, np.array([0, 1]), positions)
        delta = 5
        base = net.forward(Tensor(x), np.array([0, 1]), positions, training=False).data
        rolled = net.forward(Tensor(np.roll(x, delta, axis=2)), np.array([0, 1]),
                             positions, training=False).data
        m = radius + delta
        np.testing.assert_allclose(
            rolled[:, :, m:-m], np.roll(base, delta, axis=2)[:, :, m:-m], atol=1e-4
        )


class TestParamCount:
    def test_matches_hand_formula(self):
        cfg = BrainNetConfig(in_channels=32, out_features=16, n_subjects=3)
        net = BrainNet(cfg, np.random.default_rng(22))
        d1, d2, f, k, s, kk = cfg.d1, cfg.d2, cfg.out_features, cfg.kernel, 3, cfg.harmonics**2
        want = 2 * d1 * kk                      # spatial attention coefficients
        want += d1 * d1 * 1 + d1                # initial 1x1
        want += s * d1 * d1                     # subject matrices
        want += d2 * d1 * k + d2                # block0 conv1
        want += 4 * (d2 * d2 * k + d2)          # blocks1-4 conv1
        want += 5 * (d2 * d2 * k + d2)          # conv2
        want += 5 * (2 * d2 * d2 * k + 2 * d2)  # conv3 (GLU)
        want += 10 * 2 * d2                     # batch-norm gamma/beta
        want += 2 * d2 * d2 + 2 * d2            # head conv1
        want += f * 2 * d2 + f                  # head conv2
        assert param_count(net) == want

    def test_pure_function_of_config(self):
        cfg = tiny_config()
        a = param_count(BrainNet(cfg, np.random.default_rng(1)))
        b = param_count(BrainNet(cfg, np.random.default_rng(99)))
        assert a == b


class TestAblations:
    @pytest.mark.parametrize("flag", ABLATION_FLAGS)
    def test_each_flag_builds_runnable_net(self, flag):
        cfg = build_ablation(tiny_config(), flag)
        net = BrainNet(cfg, np.random.default_rng(23))
        x = np.random.default_rng(24).normal(size=(2, 4, 30)).astype(np.float32)
        out = net.forward(Tensor(x), np.array([0, 1]), make_positions(4),
                          training=True, rng=np.random.default_rng(25))
        assert out.shape == (2, 3, 30)

    def test_unknown_flag(self):
        with pytest.raises(ValueError):
            build_ablation(tiny_config(), "nonsense")

    def test_subject_ablation_ignores_subject(self):
        cfg = build_ablation(tiny_config(), "subject-layer")
        net = BrainNet(cfg, np.random.default_rng(26))
        positions = make_positions(4)
        x = np.random.default_rng(27).normal(size=(2, 4, 30)).astype(np.float32)
        x[1] = x[0]
        warm_bn(net, x, np.array([0, 1]), positions)
        out = net.forward(Tensor(x), np.array([0, 1]), positions, training=False).data
        np.testing.assert_allclose(out[0], out[1], atol=1e-7)

    def test_spatial_attention_ablation_learns_projection(self):
        cfg = build_ablation(tiny_config(), "spatial-attention")
        net = BrainNet(cfg, np.random.default_rng(28))
        assert "input_proj.w" in net.params
        assert "spatial.re" not in net.params
        x = np.random.default_rng(29).normal(size=(2, 4, 30)).astype(np.float32)
        out = net.forward(Tensor(x), np.array([0, 1]), None, training=True,
                          rng=np.random.default_rng(30))
        assert out.shape == (2, 3, 30)

    def test_relu_ablation_changes_activation(self):
        assert build_ablation(tiny_config(), "relu").activation == "relu"


class TestDeepMelTower:
    def test_config_strips_subject_and_attention(self):
        base = tiny_config()
        cfg = deep_mel_config(20, 3, base)
        assert not cfg.use_subject_layer
        assert not cfg.use_spatial_attention
        assert cfg.in_channels == 20

    def test_forward_contract_and_distinct_outputs(self):
        cfg = deep_mel_config(10, 3, tiny_config())
        net = BrainNet(cfg, np.random.default_rng(31))
        rng = np.random.default_rng(32)
        a = rng.normal(size=(2, 10, 36)).astype(np.float32)
        b = rng.normal(size=(2, 10, 36)).astype(np.float32)
        sidx = np.zeros(2, dtype=int)
        out_a = net.forward(Tensor(a), sidx, None, training=True, rng=rng)
        out_b = net.forward(Tensor(b), sidx, None, training=True, rng=rng)
        assert out_a.shape == (2, 3, 36)
        assert not np.allclose(out_a.data, out_b.data)


class TestEndToEndGrad:
    def test_full_module_grad_check(self):
        cfg = tiny_config(d1=4, d2=4, harmonics=2, use_spatial_dropout=False)
        net = BrainNet(cfg, np.random.default_rng(33), dtype=np.float64)
        positions = make_positions(4, seed=34)
        x = Tensor(np.random.default_rng(35).normal(size=(3, 4, 12)))
        target = np.random.default_rng(36).normal(size=(3, 3, 12))
        sidx = np.array([0, 1, 0])
        params = net.parameters()

        def loss_fn(x_, *ps):
            out = net.forward(x_, sidx, positions, training=True, update_running=False)
            return mean_all(gelu(net_inner(out, target)))

        def net_inner(out, tgt):
            return inner_product_full(out, Tensor(tgt))

        err = grad_check(loss_fn, [x] + params)
        assert err < 1e-3
