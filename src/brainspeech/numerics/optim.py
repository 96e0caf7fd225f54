"""Adam optimizer with bias correction."""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from .tensor import Tensor


class NonFiniteGradient(RuntimeError):
    """Raised when a parameter's gradient contains NaN or infinity."""

    def __init__(self, name: str):
        super().__init__(f"non-finite gradient for parameter {name!r}")
        self.parameter = name


class AdamState:
    """First/second moment estimates and step counter for a parameter set."""

    def __init__(
        self,
        params: Sequence[Tensor],
        lr: float = 3e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step = 0
        self.m: Dict[str, np.ndarray] = {}
        self.v: Dict[str, np.ndarray] = {}
        for p in params:
            if p.name is None:
                raise ValueError("Adam requires named parameters")
            self.m[p.name] = np.zeros_like(p.data)
            self.v[p.name] = np.zeros_like(p.data)


def adam_step(params: Sequence[Tensor], state: AdamState) -> None:
    """One bias-corrected Adam update; parameters with no gradient are skipped.

    Every gradient is checked before anything changes, so a non-finite one
    raises :class:`NonFiniteGradient` with every parameter, moment and the
    step count as they were. Each parameter is then updated in place, through
    one scratch array per dtype, element by element in the order of
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*(g*g)`` and
    ``p -= (lr*mhat) / (sqrt(vhat) + eps)``.
    """
    live = [p for p in params if p.grad is not None]
    for p in live:
        if not np.all(np.isfinite(p.grad)):
            raise NonFiniteGradient(p.name or "<unnamed>")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    largest = max((p.data.size for p in live), default=0)
    work: Dict[np.dtype, np.ndarray] = {}

    def scratch(like: np.ndarray):
        """Two scratch views shaped like ``like``, in its dtype."""
        if like.dtype not in work:
            work[like.dtype] = np.empty((2, largest), dtype=like.dtype)
        flat = work[like.dtype][:, : like.size]
        return flat[0].reshape(like.shape), flat[1].reshape(like.shape)

    for p in live:
        g, m, v = p.grad, state.m[p.name], state.v[p.name]
        tmp, _ = scratch(g)
        m *= b1
        m += np.multiply(1.0 - b1, g, out=tmp)
        v *= b2
        v += np.multiply(1.0 - b2, np.multiply(g, g, out=tmp), out=tmp)
        step, den = scratch(m)
        np.divide(v, bc2, out=den)
        np.sqrt(den, out=den)
        den += state.eps
        np.divide(m, bc1, out=step)
        np.multiply(state.lr, step, out=step)
        p.data -= np.divide(step, den, out=step)
