"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor records the ops that produced it; backward() walks the tape in
reverse topological order and accumulates vector-Jacobian products into
.grad. Everything is float64. The op set is exactly what the dual encoder
and the contrastive losses need, nothing more.
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

    def detach(self) -> "Tensor":
        return Tensor(self.data)

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

        def backward():
            if self.requires_grad:
                self._accum(out.grad)
            if other.requires_grad:
                other._accum(out.grad)

        out._backward = backward
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.data, self.requires_grad, (self,))

        def backward():
            if self.requires_grad:
                self._accum(-out.grad)

        out._backward = backward
        return out

    def __sub__(self, other):
        return self + (-self._wrap(other))

    def __rsub__(self, other):
        return self._wrap(other) + (-self)

    def __mul__(self, other):
        other = self._wrap(other)
        out = Tensor(
            self.data * other.data,
            self.requires_grad or other.requires_grad,
            (self, other),
        )

        def backward():
            if self.requires_grad:
                self._accum(out.grad * other.data)
            if other.requires_grad:
                other._accum(out.grad * self.data)

        out._backward = backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._wrap(other)
        out = Tensor(
            self.data / other.data,
            self.requires_grad or other.requires_grad,
            (self, other),
        )

        def backward():
            if self.requires_grad:
                self._accum(out.grad / other.data)
            if other.requires_grad:
                other._accum(-out.grad * self.data / (other.data**2))

        out._backward = backward
        return out

    def __rtruediv__(self, other):
        return self._wrap(other) / self

    def __matmul__(self, other):
        other = self._wrap(other)
        out = Tensor(
            self.data @ other.data,
            self.requires_grad or other.requires_grad,
            (self, other),
        )

        def backward():
            if self.requires_grad:
                self._accum(out.grad @ other.data.T)
            if other.requires_grad:
                other._accum(self.data.T @ out.grad)

        out._backward = backward
        return out

    def pow(self, exponent: float):
        out = Tensor(self.data**exponent, self.requires_grad, (self,))

        def backward():
            if self.requires_grad:
                self._accum(out.grad * exponent * self.data ** (exponent - 1))

        out._backward = backward
        return out

    # --- elementwise --------------------------------------------------------

    def exp(self):
        out = Tensor(np.exp(self.data), self.requires_grad, (self,))

        def backward():
            if self.requires_grad:
                self._accum(out.grad * out.data)

        out._backward = backward
        return out

    def log(self):
        out = Tensor(np.log(self.data), self.requires_grad, (self,))

        def backward():
            if self.requires_grad:
                self._accum(out.grad / self.data)

        out._backward = backward
        return out

    def sigmoid(self):
        s = 1.0 / (1.0 + np.exp(-self.data))
        out = Tensor(s, self.requires_grad, (self,))

        def backward():
            if self.requires_grad:
                self._accum(out.grad * s * (1.0 - s))

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

        def backward():
            if self.requires_grad:
                self._accum(out.grad * inside)

        out._backward = backward
        return out

    # --- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out = Tensor(
            self.data.sum(axis=axis, keepdims=keepdims),
            self.requires_grad,
            (self,),
        )

        def backward():
            if self.requires_grad:
                g = out.grad
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                self._accum(np.broadcast_to(g, self.data.shape))

        out._backward = backward
        return out

    def mean(self):
        return self.sum() * (1.0 / self.data.size)

    def max_detached(self, axis: int, keepdims: bool = True) -> "Tensor":
        """Row max as a constant (no gradient); used for log-sum-exp shifts."""
        return Tensor(self.data.max(axis=axis, keepdims=keepdims))

    # --- indexing -----------------------------------------------------------

    def take_rows(self, idx: np.ndarray):
        idx = np.asarray(idx, dtype=np.int64)
        out = Tensor(self.data[idx], self.requires_grad, (self,))

        def backward():
            if self.requires_grad:
                g = np.zeros_like(self.data)
                np.add.at(g, idx, out.grad)
                self._accum(g)

        out._backward = backward
        return out

    @property
    def T(self):
        out = Tensor(self.data.T, self.requires_grad, (self,))

        def backward():
            if self.requires_grad:
                self._accum(out.grad.T)

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
                node._backward()
        for node in topo:
            if node.requires_grad and not node._prev:
                if node.grad is not None and not np.isfinite(node.grad).all():
                    raise NonFiniteGradient("non-finite gradient in backward")


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

    def backward():
        if table.requires_grad:
            g = np.zeros_like(table.data)
            np.add.at(g, flat_idx, out.grad[seg_idx] / counts[seg_idx, None])
            table._accum(g)

    out._backward = backward
    return out


def unit_rows(x: Tensor, eps: float = 1e-30) -> Tensor:
    """L2-normalize each row. eps only guards the all-zero row."""
    sq = (x * x).sum(axis=1, keepdims=True)
    return x * (sq + eps).pow(-0.5)
