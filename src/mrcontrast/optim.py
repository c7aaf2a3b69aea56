"""Adam with decoupled weight decay and linear learning-rate warmup."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import NonFiniteGradient
from .model import TAU_MAX, TAU_MIN


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.98
    eps: float = 1e-8
    weight_decay: float = 0.2
    warmup_steps: int = 2000


def effective_lr(config: AdamConfig, t: int) -> float:
    """lr * t / warmup_steps while warming up, lr afterwards (t is 1-based)."""
    if config.warmup_steps > 0 and t < config.warmup_steps:
        return config.lr * t / config.warmup_steps
    return config.lr


def _as_rows(a: np.ndarray) -> np.ndarray:
    """A 2-D parameter's rows; a 1-D or 0-D parameter is one row."""
    return a.reshape(a.shape[0] if a.ndim > 1 else 1, -1)


class Adam:
    """Decay is decoupled: p <- p * (1 - lr_eff * wd) before the moment
    update, both in p's own array. Bias-corrected moments, elementwise, on each
    touched row: the union of every gradient's `grad_rows` (all rows, for a
    dense gradient) and of loaded m's and v's rows with a nonzero bit. On other
    rows g = m = v = +0.0, so the update (p - lr_eff * 0 / (0 + eps) = p) and
    its finiteness check are skipped without changing a bit. Decay stays dense."""

    def __init__(self, params: list[tuple[str, Tensor, bool]], config: AdamConfig):
        self.params = params
        self.config = config
        self.t = 0
        # np.zeros, not zeros_like: the pages of rows no step touches stay unwritten
        self.m = {name: np.zeros(p.data.shape) for name, p, _ in params}
        self.v = {name: np.zeros(p.data.shape) for name, p, _ in params}
        self.touched = {name: np.zeros(len(_as_rows(p.data)), bool) for name, p, _ in params}

    def step(self) -> float:
        """Apply one update from the stored gradients; returns lr_eff."""
        self.t += 1
        c = self.config
        lr_eff = effective_lr(c, self.t)
        bc1 = 1.0 - c.beta1**self.t
        bc2 = 1.0 - c.beta2**self.t
        for name, p, decay in self.params:
            if p.grad_values is None:
                continue
            rows = np.arange(self.touched[name].size) if p.grad_rows is None else p.grad_rows
            self.touched[name][rows] = True
            live = np.flatnonzero(self.touched[name])
            g = np.zeros((live.size, _as_rows(p.data).shape[1]))  # +0.0 off the gradient's rows
            g[np.searchsorted(live, rows)] = _as_rows(p.grad_values)
            if not np.isfinite(g).all():
                raise NonFiniteGradient(f"non-finite gradient for {name}")
            scale = 1.0 - lr_eff * c.weight_decay if decay and c.weight_decay != 0.0 else 1.0
            p.data = np.multiply(p.data, scale, out=np.asarray(p.data))  # 0-d data may be a scalar
            m, v, data = (_as_rows(a) for a in (self.m[name], self.v[name], p.data))
            m[live] = c.beta1 * m[live] + (1.0 - c.beta1) * g
            v[live] = c.beta2 * v[live] + (1.0 - c.beta2) * (g * g)
            data[live] -= lr_eff * (m[live] / bc1) / (np.sqrt(v[live] / bc2) + c.eps)
        return lr_eff

    def load_state_dict(self, state: dict) -> None:
        """Take step count and moments from `state`, copying the arrays, and
        rebuild each touched-row set from the bits of m and v."""
        self.t = int(state["t"])
        for k in self.m:
            self.m[k] = np.array(state["m"][k], dtype=np.float64).reshape(
                self.m[k].shape
            )
            self.v[k] = np.array(state["v"][k], dtype=np.float64).reshape(
                self.v[k].shape
            )
            bits = _as_rows(self.m[k]).view(np.int64) | _as_rows(self.v[k]).view(np.int64)
            self.touched[k] = bits.any(axis=1)


def clamp_log_tau(log_tau: Tensor) -> None:
    """Project the temperature back into [TAU_MIN, TAU_MAX] after a step."""
    log_tau.data = np.clip(log_tau.data, math.log(TAU_MIN), math.log(TAU_MAX))
