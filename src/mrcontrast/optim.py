"""Adam with decoupled weight decay and linear learning-rate warmup."""
from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor
from .errors import NonFiniteGradient
from .model import TAU_MAX, TAU_MIN


# Fixed, as in CLIP; the learning rate, weight decay and warmup are run flags.
BETA1, BETA2, EPS = 0.9, 0.98, 1e-8


def effective_lr(lr: float, warmup_steps: int, t: int) -> float:
    """lr * t / warmup_steps while warming up, lr afterwards (t is 1-based)."""
    if warmup_steps > 0 and t < warmup_steps:
        return lr * t / warmup_steps
    return lr


class Adam:
    """Decay is decoupled: p <- p * (1 - lr_eff * wd) before the moment
    update, both in p's own array. Bias-corrected moments, elementwise over
    every row. On a row no step has given a gradient, g = m = v = +0.0 and
    p - lr_eff * 0 / (0 + eps) is p, so the row keeps every bit (-0.0 too)."""

    def __init__(self, params: list[tuple[str, Tensor, bool]], lr: float, weight_decay: float,
                 warmup_steps: int):
        self.params = params
        self.lr, self.weight_decay, self.warmup_steps = lr, weight_decay, warmup_steps
        self.t = 0
        self.m = {name: np.zeros(p.data.shape) for name, p, _ in params}
        self.v = {name: np.zeros(p.data.shape) for name, p, _ in params}

    def step(self) -> float:
        """Apply one update from the stored gradients; returns lr_eff."""
        self.t += 1
        lr_eff = effective_lr(self.lr, self.warmup_steps, self.t)
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for name, p, decay in self.params:
            if (g := p.grad) is None:
                continue
            if not np.isfinite(g).all():
                raise NonFiniteGradient(f"non-finite gradient for {name}")
            wd = self.weight_decay
            scale = 1.0 - lr_eff * wd if decay and wd != 0.0 else 1.0
            p.data = np.multiply(p.data, scale, out=np.asarray(p.data))  # 0-d data may be a scalar
            m = self.m[name] = BETA1 * self.m[name] + (1.0 - BETA1) * g
            v = self.v[name] = BETA2 * self.v[name] + (1.0 - BETA2) * (g * g)
            p.data -= lr_eff * (m / bc1) / (np.sqrt(v / bc2) + EPS)
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
