"""Central finite-difference verification of reverse-mode gradients, and
the ops that only the tests use: ``scale``, ``add`` (the unfused oracle of
``conv1d``'s residual), and ``inner_product_full`` and ``mean_all``, the
scalar probes that turn a tensor output into a loss to check."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from brainspeech.numerics import Tensor, from_op


def scale(a: Tensor, c: float) -> Tensor:
    out_data = a.data * c

    def backward(g: np.ndarray) -> None:
        a.accumulate(g * c)

    return from_op(out_data, (a,), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"add: shape mismatch {a.shape} vs {b.shape}")
    out_data = a.data + b.data

    def backward(g: np.ndarray) -> None:
        a.accumulate(g)
        if b.requires_grad:
            # a may keep g as its gradient buffer and add into it later
            b.accumulate(g.copy() if a.requires_grad else g)

    return from_op(out_data, (a, b), backward)


def mean_all(a: Tensor) -> Tensor:
    n = a.size
    out_data = np.asarray(a.data.mean())

    def backward(g: np.ndarray) -> None:
        a.accumulate(np.full_like(a.data, g / n))

    return from_op(out_data, (a,), backward)


def inner_product_full(z: Tensor, y: Tensor) -> Tensor:
    """Sum of elementwise products over every axis of two same-shape tensors."""
    if z.shape != y.shape:
        raise ValueError(f"inner_product_full: shape mismatch {z.shape} vs {y.shape}")
    out_data = np.asarray((z.data * y.data).sum())

    def backward(g: np.ndarray) -> None:
        z.accumulate(g * y.data)
        y.accumulate(g * z.data)

    return from_op(out_data, (z, y), backward)


def grad_check(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    h: float = 1e-5,
) -> float:
    """Compare analytic gradients of ``fn(*inputs)`` against central differences.

    ``fn`` must build a fresh graph on every call and return a scalar.
    Inputs should be float64; every element of every input is perturbed, so
    keep instances small. Returns the maximum relative error.
    """
    for t in inputs:
        if t.dtype != np.float64:
            raise ValueError("grad_check requires float64 inputs")
        t.requires_grad = True
        t.zero_grad()

    out = fn(*inputs)
    if out.size != 1:
        raise ValueError("grad_check target must be scalar")
    out.backward()
    analytic = [
        t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in inputs
    ]

    max_rel = 0.0
    for t, ga in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        ga_flat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = fn(*inputs).item()
            flat[i] = orig - h
            f_minus = fn(*inputs).item()
            flat[i] = orig
            g_fd = (f_plus - f_minus) / (2.0 * h)
            # floor keeps near-zero gradients from amplifying FD noise
            denom = max(abs(ga_flat[i]), abs(g_fd), 1e-4)
            rel = abs(ga_flat[i] - g_fd) / denom
            if rel > max_rel:
                max_rel = rel
    return max_rel
