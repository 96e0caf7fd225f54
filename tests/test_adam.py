import numpy as np
import pytest

from brainspeech.numerics import (
    AdamState,
    NonFiniteGradient,
    Tensor,
    adam_step,
    mse,
    parameter,
)


def test_first_step_magnitude():
    # bias correction makes m_hat/sqrt(v_hat) ~ 1 on the first step
    p = parameter(np.array([1.0, -2.0]), "p")
    state = AdamState([p], lr=3e-4)
    p.grad = np.array([1.0, 1.0])
    before = p.data.copy()
    adam_step([p], state)
    np.testing.assert_allclose(before - p.data, 3e-4, rtol=1e-6)


def test_sign_follows_gradient():
    p = parameter(np.array([0.0, 0.0]), "p")
    state = AdamState([p], lr=1e-2)
    p.grad = np.array([5.0, -5.0])
    adam_step([p], state)
    assert p.data[0] < 0 < p.data[1]


def test_zero_gradient_fixed_point():
    p = parameter(np.array([3.0]), "p")
    state = AdamState([p])
    for _ in range(10):
        p.grad = np.zeros(1)
        adam_step([p], state)
    np.testing.assert_allclose(p.data, 3.0)


def test_non_finite_gradient_names_parameter():
    p = parameter(np.array([1.0]), "weights.block0")
    state = AdamState([p])
    p.grad = np.array([np.nan])
    with pytest.raises(NonFiniteGradient, match="weights.block0"):
        adam_step([p], state)


def test_identical_runs_identical_trajectories():
    def run():
        rng = np.random.default_rng(99)
        p = parameter(rng.normal(size=(4,)), "p")
        target = Tensor(rng.normal(size=(4,)))
        state = AdamState([p], lr=1e-2)
        history = []
        for _ in range(25):
            p.zero_grad()
            loss = mse(p, target)
            loss.backward()
            adam_step([p], state)
            history.append(p.data.copy())
        return np.stack(history)

    a, b = run(), run()
    assert np.array_equal(a, b)


def test_converges_on_quadratic():
    rng = np.random.default_rng(7)
    p = parameter(rng.normal(size=(6,)), "p")
    target = Tensor(rng.normal(size=(6,)))
    state = AdamState([p], lr=5e-2)
    for _ in range(500):
        p.zero_grad()
        mse(p, target).backward()
        adam_step([p], state)
    np.testing.assert_allclose(p.data, target.data, atol=1e-3)


def test_non_finite_gradient_leaves_every_parameter_and_moment_unchanged():
    rng = np.random.default_rng(3)
    first = parameter(rng.normal(size=(3, 4)).astype(np.float32), "first")
    second = parameter(rng.normal(size=5).astype(np.float32), "second")
    state = AdamState([first, second])
    first.grad = rng.normal(size=(3, 4)).astype(np.float32)
    second.grad = rng.normal(size=5).astype(np.float32)
    adam_step([first, second], state)
    before = [a.copy() for a in (first.data, state.m["first"], state.v["first"],
                                 second.data, state.m["second"], state.v["second"])]
    first.grad = rng.normal(size=(3, 4)).astype(np.float32)
    second.grad = np.array([0.0, np.nan, 1.0, 0.0, 0.0], dtype=np.float32)
    with pytest.raises(NonFiniteGradient, match="second"):
        adam_step([first, second], state)
    after = (first.data, state.m["first"], state.v["first"],
             second.data, state.m["second"], state.v["second"])
    for want, got in zip(before, after):
        assert got.tobytes() == want.tobytes()
    assert state.step == 1


def adam_oracle(data, grad, m, v, step, lr=3e-4, b1=0.9, b2=0.999, eps=1e-8):
    """One update of a parameter in the allocating form adam_step replaced."""
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * (grad * grad)
    mhat = m / (1.0 - b1**step)
    vhat = v / (1.0 - b2**step)
    data -= lr * mhat / (np.sqrt(vhat) + eps)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_in_place_update_bitwise_matches_allocating_form(dtype):
    rng = np.random.default_rng(4)
    shapes = [(6, 5, 3), (6,), ()]
    params = [parameter(rng.normal(size=s).astype(dtype), f"p{i}") for i, s in enumerate(shapes)]
    want = [(p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)) for p in params]
    state = AdamState(params)
    for step in range(1, 8):
        for p, (data, m, v) in zip(params, want):
            p.grad = (rng.normal(size=p.shape) * 10.0**rng.integers(-6, 3)).astype(dtype)
            adam_oracle(data, p.grad, m, v, step)
        adam_step(params, state)
        for p, (data, m, v) in zip(params, want):
            assert p.data.tobytes() == data.tobytes()
            assert state.m[p.name].tobytes() == m.tobytes()
            assert state.v[p.name].tobytes() == v.tobytes()
