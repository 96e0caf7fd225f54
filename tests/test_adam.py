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
