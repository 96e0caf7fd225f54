"""Minimal reverse-mode autodiff on top of numpy arrays.

Tensors wrap an ndarray (float32 by default, float64 for gradient
checking) and remember how they were produced. Calling ``backward()`` on
a scalar walks the graph in reverse topological order, accumulates
gradients into every tensor with ``requires_grad=True`` and releases each
node's link to the graph once its gradient has been passed on. Inside
``no_grad()`` ops record no graph at all. An op whose output can be rebuilt
bitwise from what its backward keeps anyway registers that rebuild, so the
output itself can be released until backward reads it (``Tensor.release``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward",
                 "_rebuild", "_released", "__weakref__")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        name: Optional[str] = None,
        _parents: Sequence["Tensor"] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        _rebuild: Optional[Callable[[], np.ndarray]] = None,
    ):
        self.data = np.asarray(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents = tuple(_parents)
        self._backward = _backward
        self._rebuild = _rebuild
        self._released = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate(self, g: np.ndarray) -> None:
        """Add ``g`` into this tensor's gradient buffer.

        The first gradient becomes the buffer itself and later ones are added
        into it in place, so an op must hand each input an array that nothing
        else writes to or reads afterwards (fresh, or its own output gradient
        passed to one input only).
        """
        if not self.requires_grad:
            return
        if g.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match tensor shape "
                f"{self.data.shape} for {self.name or 'tensor'}"
            )
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g

    def release(self) -> None:
        """Drop this op output's buffer until backward needs it again.

        Only an output whose op registered a rebuild is released: ``data``
        becomes a zero-byte, read-only NaN view of the same shape and dtype
        (so shape checks still hold and a stray forward read fails the
        non-finite guards), and ``backward()`` rebuilds the bytes just before
        the closure of a node that reads this tensor runs, then releases them
        again. On leaves, on outputs without a rebuild, on outputs built
        inside ``no_grad()`` and once the sweep has passed this tensor it
        does nothing. Call it once nothing but backward reads ``data`` any
        more, such as right after building the op that consumes it.
        """
        if self._rebuild is not None:
            self.data = np.broadcast_to(np.array(np.nan, dtype=self.data.dtype), self.shape)
            self._released = True

    def backward(self) -> None:
        """Reverse-mode sweep from this (scalar) tensor.

        The graph is consumed: after a node's closure has run, the node drops
        its closure, its parents and (unless it is a leaf) its gradient, so
        the activations it held are freed as the sweep goes and tensors kept
        by the caller pin no graph afterwards. Released parents are rebuilt
        for the closure of the node that reads them and released again after
        it, so the rebuild time counts as the sweep's own.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._backward is None:
                continue  # a leaf keeps its gradient
            if node.grad is not None:
                rebuilt = [p for p in dict.fromkeys(node._parents) if p._released]
                for p in rebuilt:
                    p.data, p._released = p._rebuild(), False
                node._backward(node.grad)
                for p in rebuilt:
                    p.release()
            node._backward = None
            node._rebuild = None
            node._parents = ()
            node.grad = None

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{tag})"


def parameter(data, name: str) -> Tensor:
    """A learnable leaf tensor."""
    return Tensor(np.asarray(data), requires_grad=True, name=name)


_grad_enabled = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Ops inside the block record no graph: outputs keep no parents and no closure."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def from_op(data: np.ndarray, parents: Iterable[Tensor], backward, rebuild=None) -> Tensor:
    """Build a graph node; the backward closure and the optional ``rebuild``
    (a function returning ``data``'s bytes afresh, for ``Tensor.release``) are
    dropped when no parent needs grad or inside ``no_grad()``."""
    parents = tuple(parents)
    needs = _grad_enabled and any(p.requires_grad for p in parents)
    return Tensor(
        data,
        requires_grad=needs,
        _parents=parents if needs else (),
        _backward=backward if needs else None,
        _rebuild=rebuild if needs else None,
    )
