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
    """Decay is decoupled: p <- p * (1 - lr_eff * wd) on decay-eligible
    parameters, before the moment update. Bias-corrected moments. `params`
    are views of `flat` in order; one elementwise update covers `flat` and the
    flat moments `m` and `v`, all in place. On an element no step has given a
    gradient, g = m = v = +0.0 and p - lr_eff * 0 / (0 + eps) is p, so it
    keeps every bit (-0.0 too)."""

    def __init__(self, flat: np.ndarray, params: list[tuple[str, Tensor, bool]], lr: float,
                 weight_decay: float, warmup_steps: int, t: int = 0,
                 m: np.ndarray | None = None, v: np.ndarray | None = None):
        self.flat, self.params = flat, params
        self.lr, self.weight_decay, self.warmup_steps = lr, weight_decay, warmup_steps
        self.t = t
        self.m = np.zeros(flat.size) if m is None else m
        self.v = np.zeros(flat.size) if v is None else v
        self.decay = np.repeat([d for _, _, d in params], [p.data.size for _, p, _ in params])

    def step(self) -> float:
        """Apply one update from the stored gradients; returns lr_eff."""
        self.t += 1
        lr_eff = effective_lr(self.lr, self.warmup_steps, self.t)
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        g = np.concatenate([p.grad.ravel() for _, p, _ in self.params])
        if not np.isfinite(g).all():
            name = next(name for name, p, _ in self.params if not np.isfinite(p.grad).all())
            raise NonFiniteGradient(f"non-finite gradient for {name}")
        self.flat *= np.where(self.decay, 1.0 - lr_eff * self.weight_decay, 1.0)
        self.m *= BETA1
        self.m += (1.0 - BETA1) * g
        self.v *= BETA2
        self.v += (1.0 - BETA2) * (g * g)
        self.flat -= lr_eff * (self.m / bc1) / (np.sqrt(self.v / bc2) + EPS)
        return lr_eff


def clamp_log_tau(log_tau: Tensor) -> None:
    """Project the temperature back into [TAU_MIN, TAU_MAX] after a step, in place."""
    np.clip(log_tau.data, math.log(TAU_MIN), math.log(TAU_MAX), out=log_tau.data)
