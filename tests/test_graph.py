"""Graph lifetime: ``no_grad()`` records nothing, ``backward()`` releases the
graph as it goes, and neither changes a single bit of the numbers."""

import weakref

import numpy as np
import pytest

from brainspeech import brain_net
from brainspeech.brain_net import BrainNet, BrainNetConfig, deep_mel_config
from brainspeech.numerics import Tensor, conv1d, gelu, mix, no_grad, parameter, relu
from brainspeech.objective import clip_loss_batch

from gradcheck import add, inner_product_full, mean_all, scale


def desk_net(seed=1):
    cfg = BrainNetConfig(in_channels=32, out_features=16, n_subjects=2, d1=32, d2=32,
                         harmonics=8)
    return BrainNet(cfg, np.random.default_rng(seed))


def desk_batch(seed=2, batch=4, t=120):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.1, 0.9, size=(32, 2))
    x = rng.normal(size=(batch, 32, t)).astype(np.float32)
    y = rng.normal(size=(batch, 16, t)).astype(np.float32)
    return positions, x, y, np.arange(batch) % 2


def records_graph() -> bool:
    return gelu(parameter(np.ones(3, dtype=np.float32), "p"))._backward is not None


def backward_keeping_graph(loss: Tensor) -> None:
    """The sweep without release: same order, closures and graph left intact.
    Like ``Tensor.backward`` it rebuilds a released parent before the closure
    of a node that reads it; the rebuilt bytes then stay."""
    order, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node._parents if id(p) not in seen)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            for p in node._parents:
                if p._released:
                    p.data, p._released = p._rebuild(), False
            node._backward(node.grad)


class TestNoGrad:
    def test_ops_record_nothing(self):
        x = parameter(np.ones((2, 3, 5), dtype=np.float32), "x")
        w = parameter(np.ones((4, 3, 3), dtype=np.float32), "w")
        m = parameter(np.ones((2, 3), dtype=np.float32), "m")
        with no_grad():
            outs = [gelu(x), conv1d(x, w), mix(m, x), mean_all(x)]
        for out in outs:
            assert out._backward is None
            assert out._parents == ()
            assert not out.requires_grad

    def test_mode_restored_after_normal_exit(self):
        with no_grad():
            assert not records_graph()
        assert records_graph()

    def test_mode_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert records_graph()

    def test_mode_restored_after_nested_block(self):
        with no_grad():
            with no_grad():
                assert not records_graph()
            assert not records_graph()
        assert records_graph()

def with_running_stats(net, seed=5):
    """``net`` with random BatchNorm running statistics, so eval mode uses
    per-channel values as after training."""
    rng = np.random.default_rng(seed)
    for st in net.bn_states.values():
        st.running_mean = rng.normal(0.0, 0.5, st.running_mean.shape).astype(np.float32)
        st.running_var = rng.uniform(0.5, 2.0, st.running_var.shape).astype(np.float32)
        st.initialized = True
    return net


def eval_forward(net, x, sidx, positions):
    with no_grad():
        return net.forward(Tensor(x), sidx, positions, training=False).data


class TestEncode:
    """``BrainNet.encode`` runs eval mode in chunks of ``ENCODE_ROWS`` rows;
    its bytes equal one whole-batch forward and the row-by-row forwards,
    because in eval mode a row's output depends on that row alone."""

    def check(self, net, x, sidx, positions):
        got = net.encode(x, sidx, positions)
        whole = eval_forward(net, x, sidx, positions)
        rows = np.concatenate([eval_forward(net, x[i : i + 1], sidx[i : i + 1], positions)
                               for i in range(x.shape[0])])
        assert got.dtype == np.float32
        assert got.shape == whole.shape
        assert got.tobytes() == whole.tobytes()
        assert got.tobytes() == rows.tobytes()

    def test_desk_brain_net_across_the_chunk_boundary(self):
        assert brain_net.ENCODE_ROWS == 64
        net = with_running_stats(desk_net())
        positions, x, _, sidx = desk_batch(batch=brain_net.ENCODE_ROWS + 3)
        self.check(net, x, sidx, positions)

    def test_deep_mel_tower_across_the_chunk_boundary(self):
        base = desk_net().config
        net = with_running_stats(BrainNet(deep_mel_config(20, 16, base),
                                          np.random.default_rng(3), prefix="deepmel."))
        x = np.random.default_rng(4).normal(size=(brain_net.ENCODE_ROWS + 1, 20, 120))
        self.check(net, x.astype(np.float32), np.zeros(x.shape[0], dtype=int), None)

    def test_paper_width_brain_net(self, monkeypatch):
        # three rows over chunks of two keep the paper shapes cheap
        monkeypatch.setattr(brain_net, "ENCODE_ROWS", 2)
        cfg = BrainNetConfig(in_channels=208, out_features=16, n_subjects=2)
        assert (cfg.d1, cfg.d2, cfg.harmonics) == (270, 320, 32)
        net = with_running_stats(BrainNet(cfg, np.random.default_rng(6)))
        rng = np.random.default_rng(7)
        positions = rng.uniform(0.05, 0.95, size=(208, 2))
        x = rng.normal(size=(3, 208, 360)).astype(np.float32)
        self.check(net, x, np.array([0, 1, 1]), positions)


class TestBackwardReleasesGraph:
    def test_interior_activations_freed_while_outputs_held(self, monkeypatch):
        refs = []

        def tracked_gelu(t):
            out = gelu(t)
            refs.append(weakref.ref(out))
            return out

        monkeypatch.setattr(brain_net, "gelu", tracked_gelu)
        net = desk_net()
        positions, x, y, sidx = desk_batch()
        z = net.forward(Tensor(x), sidx, positions, training=True,
                        rng=np.random.default_rng(0))
        loss = clip_loss_batch(z, Tensor(y))
        assert refs and all(r() is not None for r in refs)
        loss.backward()
        assert all(r() is None for r in refs)
        assert z._backward is None and z._parents == () and z.grad is None
        assert loss._backward is None and loss._parents == ()

    def test_leaf_gradients_bitwise_equal_to_keeping_the_graph(self):
        grads = []
        for sweep in (Tensor.backward, backward_keeping_graph):
            net = desk_net()
            positions, x, y, sidx = desk_batch()
            z = net.forward(Tensor(x), sidx, positions, training=True,
                            rng=np.random.default_rng(0))
            sweep(clip_loss_batch(z, Tensor(y)))
            grads.append({p.name: p.grad for p in net.parameters()})
        released, kept = grads
        assert released.keys() == kept.keys()
        for name in kept:
            assert released[name].tobytes() == kept[name].tobytes(), name


def accumulate_by_copy(self, g):
    """Gradient accumulation that never keeps the array it is handed."""
    if not self.requires_grad:
        return
    if self.grad is None:
        self.grad = g.copy()
    else:
        self.grad += g


class TestAccumulateKeepsFirstGradient:
    def test_shared_add_inputs_bitwise_equal_to_copying_sweep(self, monkeypatch):
        rng = np.random.default_rng(4)
        x0 = rng.normal(size=(3, 5))
        r = Tensor(rng.normal(size=(3, 5)))

        def leaf_grads():
            x = parameter(x0.copy(), "x")
            u = gelu(x)
            v = scale(x, 3.0)
            both = add(u, u)  # one tensor feeds both inputs
            pair = add(v, u)  # v and u receive the same upstream gradient
            third = relu(v)  # further consumers add into v's and u's buffers
            loss = add(inner_product_full(add(both, pair), r),
                       add(mean_all(third), mean_all(u)))
            loss.backward()
            return x.grad

        kept = leaf_grads()
        monkeypatch.setattr(Tensor, "accumulate", accumulate_by_copy)
        copied = leaf_grads()
        assert kept.tobytes() == copied.tobytes()
