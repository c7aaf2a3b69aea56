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


class Adam:
    """Decay is decoupled: p <- p * (1 - lr_eff * wd) before the moment
    update. Bias-corrected first/second moments, elementwise, on each row (a
    1-D or 0-D parameter is one row) where g, m or v has a nonzero bit. On other
    rows the update is exactly the identity (m = v = +0.0, p - lr_eff * 0 / (0
    + eps) = p), so skipping them keeps every bit. Decay stays dense."""

    def __init__(self, params: list[tuple[str, Tensor, bool]], config: AdamConfig):
        self.params = params
        self.config = config
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p, _ in params}
        self.v = {name: np.zeros_like(p.data) for name, p, _ in params}

    def step(self) -> float:
        """Apply one update from the stored gradients; returns lr_eff."""
        self.t += 1
        c = self.config
        lr_eff = effective_lr(c, self.t)
        bc1 = 1.0 - c.beta1**self.t
        bc2 = 1.0 - c.beta2**self.t
        for name, p, decay in self.params:
            g = p.grad
            if g is None:
                continue
            if not np.isfinite(g).all():
                raise NonFiniteGradient(f"non-finite gradient for {name}")
            scale = 1.0 - lr_eff * c.weight_decay if decay and c.weight_decay != 0.0 else 1.0
            data = np.multiply(p.data, scale, out=np.empty_like(p.data))
            shape = (data.shape[0] if data.ndim > 1 else 1, -1)
            g, m, v, rows = (a.reshape(shape) for a in (g, self.m[name], self.v[name], data))
            bits = g.view(np.int64) | m.view(np.int64) | v.view(np.int64)
            live = np.flatnonzero(bits.any(axis=1))
            g = g[live]
            m[live] = c.beta1 * m[live] + (1.0 - c.beta1) * g
            v[live] = c.beta2 * v[live] + (1.0 - c.beta2) * (g * g)
            rows[live] -= lr_eff * (m[live] / bc1) / (np.sqrt(v[live] / bc2) + c.eps)
            p.data = data
        return lr_eff

    def load_state_dict(self, state: dict) -> None:
        """Take step count and moments from `state`, copying the arrays."""
        self.t = int(state["t"])
        for k in self.m:
            self.m[k] = np.array(state["m"][k], dtype=np.float64).reshape(
                self.m[k].shape
            )
            self.v[k] = np.array(state["v"][k], dtype=np.float64).reshape(
                self.v[k].shape
            )


def clamp_log_tau(log_tau: Tensor) -> None:
    """Project the temperature back into [TAU_MIN, TAU_MAX] after a step."""
    log_tau.data = np.clip(log_tau.data, math.log(TAU_MIN), math.log(TAU_MAX))
