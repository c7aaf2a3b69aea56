"""Reverse-mode automatic differentiation over numpy arrays.

The tape has one kind of node: a value, the tensors it was computed from and
a vector-Jacobian product that maps the gradient of the value to one
gradient per input. The computations it joins (the two encoder towers, the
temperature and the contrastive loss) each differentiate themselves in closed
form, so the tape needs no operator algebra. backward() walks the nodes in
reverse topological order and accumulates each input's gradient into .grad.
Everything is float64.

A VJP closure holds the arrays it needs, never its node's output, so a graph
holds no reference cycle: it is freed by reference counting as soon as its
root is dropped, without the cyclic collector.
"""
from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NonFiniteGradient


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_vjp", "_prev")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._vjp = None
        self._prev: tuple = ()

    @property
    def shape(self):
        return self.data.shape

    def _accum(self, grad) -> None:
        grad = np.asarray(grad, dtype=np.float64)
        if self.grad is None:
            self.grad = grad.copy() if grad.base is not None else grad
        else:
            self.grad = self.grad + grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every leaf tensor.

        Raises NonFiniteGradient if any leaf gradient is NaN/inf.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar root")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            t, processed = stack.pop()
            if processed:
                topo.append(t)
                continue
            if id(t) in visited:
                continue
            visited.add(id(t))
            stack.append((t, True))
            for child in t._prev:
                if id(child) not in visited:
                    stack.append((child, False))
        self.grad = np.ones_like(self.data)
        for t in reversed(topo):
            if t._vjp is not None and t.requires_grad:
                for parent, grad in zip(t._prev, t._vjp(t.grad), strict=True):
                    if parent.requires_grad:
                        parent._accum(grad)
        for t in topo:
            if t.requires_grad and not t._prev:
                if t.grad is not None and not np.isfinite(t.grad).all():
                    raise NonFiniteGradient("non-finite gradient in backward")


def node(
    value, inputs: Sequence[Tensor], vjp: Callable[[np.ndarray], Sequence]
) -> Tensor:
    """A tape node holding `value`, computed from `inputs`; `vjp(grad)`
    returns one gradient per input, each shaped like that input."""
    out = Tensor(value, any(t.requires_grad for t in inputs))
    out._prev = tuple(inputs)
    out._vjp = vjp
    return out
