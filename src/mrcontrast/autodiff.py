"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor records the ops that produced it; backward() walks the tape in
reverse topological order, hands each node its incoming gradient and
accumulates vector-Jacobian products into .grad. Everything is float64. The
op set is exactly what the dual encoder needs, nothing more; a computation
with closed-form gradients (the contrastive loss) joins the tape as one node
through `with_gradients`.

A backward closure holds its op's inputs and the arrays it needs, never the
op's output, so a graph holds no reference cycle: it is freed by reference
counting as soon as its root is dropped, without the cyclic collector.
"""
from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .errors import NonFiniteGradient


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad down to `shape` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")

    def __init__(self, data, requires_grad: bool = False, _prev: tuple = ()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._backward = None
        self._prev = _prev

    @property
    def shape(self):
        return self.data.shape

    def _accum(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy() if grad.base is not None else grad
        else:
            self.grad = self.grad + grad

    def zero_grad(self) -> None:
        self.grad = None

    # --- arithmetic ---------------------------------------------------------

    @staticmethod
    def _wrap(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        other = self._wrap(other)
        out = Tensor(
            self.data + other.data,
            self.requires_grad or other.requires_grad,
            (self, other),
        )

        def backward(grad):
            if self.requires_grad:
                self._accum(grad)
            if other.requires_grad:
                other._accum(grad)

        out._backward = backward
        return out

    __radd__ = __add__

    def __mul__(self, other):
        other = self._wrap(other)
        out = Tensor(
            self.data * other.data,
            self.requires_grad or other.requires_grad,
            (self, other),
        )

        def backward(grad):
            if self.requires_grad:
                self._accum(grad * other.data)
            if other.requires_grad:
                other._accum(grad * self.data)

        out._backward = backward
        return out

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = self._wrap(other)
        out = Tensor(
            self.data @ other.data,
            self.requires_grad or other.requires_grad,
            (self, other),
        )

        def backward(grad):
            if self.requires_grad:
                self._accum(grad @ other.data.T)
            if other.requires_grad:
                other._accum(self.data.T @ grad)

        out._backward = backward
        return out

    def pow(self, exponent: float):
        out = Tensor(self.data**exponent, self.requires_grad, (self,))

        def backward(grad):
            if self.requires_grad:
                self._accum(grad * exponent * self.data ** (exponent - 1))

        out._backward = backward
        return out

    # --- elementwise --------------------------------------------------------

    def exp(self):
        e = np.exp(self.data)
        out = Tensor(e, self.requires_grad, (self,))

        def backward(grad):
            if self.requires_grad:
                self._accum(grad * e)

        out._backward = backward
        return out

    def sigmoid(self):
        s = 1.0 / (1.0 + np.exp(-self.data))
        out = Tensor(s, self.requires_grad, (self,))

        def backward(grad):
            if self.requires_grad:
                self._accum(grad * s * (1.0 - s))

        out._backward = backward
        return out

    def silu(self):
        """x * sigmoid(x)."""
        return self * self.sigmoid()

    def clamp(self, lo: float, hi: float):
        """Gradient passes where lo <= value <= hi (boundary included, so a
        projected parameter sitting exactly on the bound can still move)."""
        clipped = np.clip(self.data, lo, hi)
        inside = (self.data >= lo) & (self.data <= hi)
        out = Tensor(clipped, self.requires_grad, (self,))

        def backward(grad):
            if self.requires_grad:
                self._accum(grad * inside)

        out._backward = backward
        return out

    # --- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out = Tensor(
            self.data.sum(axis=axis, keepdims=keepdims),
            self.requires_grad,
            (self,),
        )

        def backward(grad):
            if self.requires_grad:
                if axis is not None and not keepdims:
                    grad = np.expand_dims(grad, axis)
                self._accum(np.broadcast_to(grad, self.data.shape))

        out._backward = backward
        return out

    # --- graph --------------------------------------------------------------

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
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for child in node._prev:
                if id(child) not in visited:
                    stack.append((child, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.requires_grad:
                node._backward(node.grad)
        for node in topo:
            if node.requires_grad and not node._prev:
                if node.grad is not None and not np.isfinite(node.grad).all():
                    raise NonFiniteGradient("non-finite gradient in backward")


def with_gradients(value, inputs: Sequence[tuple[Tensor, np.ndarray]]) -> Tensor:
    """A node whose gradient with respect to each input the caller supplies
    (for a closed-form computation such as the contrastive loss); backward
    scales each supplied gradient by the incoming one."""
    parents = tuple(t for t, _ in inputs)
    out = Tensor(value, any(t.requires_grad for t in parents), parents)

    def backward(grad):
        for t, g in inputs:
            if t.requires_grad:
                t._accum(grad * g)

    out._backward = backward
    return out


def mean_rows(table: Tensor, id_lists: Sequence[Sequence[int]], null_row: int) -> Tensor:
    """Mean-pooled table rows per id list; empty lists use the null row.

    Pooling is order-invariant by construction (a plain mean).
    """
    n = len(id_lists)
    d = table.data.shape[1]
    flat: list[int] = []
    seg: list[int] = []
    counts = np.empty(n, dtype=np.float64)
    for i, ids in enumerate(id_lists):
        use = list(ids) if len(ids) > 0 else [null_row]
        counts[i] = len(use)
        flat.extend(use)
        seg.extend([i] * len(use))
    flat_idx = np.asarray(flat, dtype=np.int64)
    seg_idx = np.asarray(seg, dtype=np.int64)
    pooled = np.zeros((n, d), dtype=np.float64)
    np.add.at(pooled, seg_idx, table.data[flat_idx])
    pooled /= counts[:, None]
    out = Tensor(pooled, table.requires_grad, (table,))

    def backward(grad):
        if table.requires_grad:
            g = np.zeros_like(table.data)
            np.add.at(g, flat_idx, grad[seg_idx] / counts[seg_idx, None])
            table._accum(g)

    out._backward = backward
    return out


def unit_rows(x: Tensor, eps: float = 1e-30) -> Tensor:
    """L2-normalize each row. eps only guards the all-zero row."""
    sq = (x * x).sum(axis=1, keepdims=True)
    return x * (sq + eps).pow(-0.5)
