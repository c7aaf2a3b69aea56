"""Dual encoder: an image-feature MLP and a token-pooling text MLP.

Both towers end in L2 normalization so similarities are cosines. The
temperature is a learnable log-parameter shared by both retrieval
directions, clamped to [0.01, 1.0]. Each tower and the temperature is one
autodiff node whose gradients are written out in closed form. Trained
checkpoints depend on the order of the floating-point operations in these
vector-Jacobian products down to the last bit, so reordering them (even
(a + b) + c into a + (b + c)) changes every checkpoint.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import Tensor, node
from .errors import ShapeMismatch, TokenIdOutOfRange
from .prompts import VOCAB_SIZE

TAU_MIN = 0.01
TAU_MAX = 1.0
NORM_EPS = 1e-30  # only guards the all-zero row in the L2 normalization


@dataclass(frozen=True)
class ModelConfig:
    d_in: int = 12
    d_hidden: int = 64
    d_emb: int = 32
    d_tok: int = 32
    tau_init: float = 0.07

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def _mlp(x, w1, b1, w2, b2):
    """unit_rows(silu(x @ w1 + b1) @ w2 + b2) and its VJP, which maps the
    output gradient to (d pre-activation a, d w1, d b1, d w2, d b2)."""
    a = x @ w1 + b1
    s = 1.0 / (1.0 + np.exp(-a))
    h = a * s
    o = h @ w2 + b2
    t = (o * o).sum(axis=1, keepdims=True) + NORM_EPS
    r = t**-0.5

    def vjp(g):
        gt = (g * o).sum(axis=1, keepdims=True) * -0.5 * t**-1.5
        go = ((g * r) + gt * o) + gt * o
        gh = go @ w2.T
        ga = gh * s + ((gh * a) * s) * (1.0 - s)
        return ga, x.T @ ga, ga.sum(axis=0), h.T @ go, go.sum(axis=0)

    return o * r, vjp


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    std = math.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, size=(fan_in, fan_out))


class DualEncoder:
    """Image MLP [d_in, h, d_emb] and text [token table -> mean -> MLP].

    The token table has VOCAB_SIZE + 1 rows; the extra row is a learned null
    token used when a prompt has no tokens at all.
    """

    def __init__(self, config: ModelConfig = ModelConfig(), seed: int = 0):
        self.config = config
        rng = np.random.Generator(np.random.PCG64(seed))
        c = config
        self.img_w1 = Tensor(_glorot(rng, c.d_in, c.d_hidden), True)
        self.img_b1 = Tensor(np.zeros(c.d_hidden), True)
        self.img_w2 = Tensor(_glorot(rng, c.d_hidden, c.d_emb), True)
        self.img_b2 = Tensor(np.zeros(c.d_emb), True)
        self.tok_table = Tensor(
            rng.normal(0.0, 0.1, size=(VOCAB_SIZE + 1, c.d_tok)), True
        )
        self.txt_w1 = Tensor(_glorot(rng, c.d_tok, c.d_hidden), True)
        self.txt_b1 = Tensor(np.zeros(c.d_hidden), True)
        self.txt_w2 = Tensor(_glorot(rng, c.d_hidden, c.d_emb), True)
        self.txt_b2 = Tensor(np.zeros(c.d_emb), True)
        self.log_tau = Tensor(np.float64(math.log(c.tau_init)), True)

    def parameters(self) -> list[tuple[str, Tensor, bool]]:
        """(name, tensor, weight-decay eligible) in fixed order."""
        return [
            ("img_w1", self.img_w1, True),
            ("img_b1", self.img_b1, False),
            ("img_w2", self.img_w2, True),
            ("img_b2", self.img_b2, False),
            ("tok_table", self.tok_table, True),
            ("txt_w1", self.txt_w1, True),
            ("txt_b1", self.txt_b1, False),
            ("txt_w2", self.txt_w2, True),
            ("txt_b2", self.txt_b2, False),
            ("log_tau", self.log_tau, False),
        ]

    def zero_grad(self) -> None:
        for _, p, _ in self.parameters():
            p.zero_grad()

    def tau(self) -> Tensor:
        """Temperature exp(log_tau) clamped to [0.01, 1.0]; the gradient
        passes on the bounds too, so a projected log_tau can still move."""
        e = np.exp(self.log_tau.data)
        inside = (e >= TAU_MIN) & (e <= TAU_MAX)
        return node(
            np.clip(e, TAU_MIN, TAU_MAX), (self.log_tau,), lambda g: ((g * inside) * e,)
        )

    def encode_images(self, features: np.ndarray) -> Tensor:
        """(N, d_in) raw features -> (N, d_emb) unit embeddings."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.config.d_in:
            raise ShapeMismatch(
                f"expected (N, {self.config.d_in}) features, got {features.shape}"
            )
        params = (self.img_w1, self.img_b1, self.img_w2, self.img_b2)
        out, vjp = _mlp(features, *(p.data for p in params))
        return node(out, params, lambda g: vjp(g)[1:])

    def encode_texts(self, token_lists: Sequence[Sequence[int]]) -> Tensor:
        """Token id lists -> (N, d_emb) unit embeddings (order-invariant
        mean pooling; an empty list maps to the learned null token)."""
        flat: list[int] = []
        seg: list[int] = []
        counts = np.empty(len(token_lists), dtype=np.float64)
        for i, ids in enumerate(token_lists):
            for t in ids:
                if not (0 <= t < VOCAB_SIZE):
                    raise TokenIdOutOfRange(f"token id {t} outside [0, {VOCAB_SIZE})")
            use = list(ids) if len(ids) > 0 else [VOCAB_SIZE]
            counts[i] = len(use)
            flat.extend(use)
            seg.extend([i] * len(use))
        flat_idx = np.asarray(flat, dtype=np.int64)
        seg_idx = np.asarray(seg, dtype=np.int64)
        table = self.tok_table.data
        pooled = np.zeros((len(token_lists), table.shape[1]), dtype=np.float64)
        np.add.at(pooled, seg_idx, table[flat_idx])
        pooled /= counts[:, None]

        params = (self.tok_table, self.txt_w1, self.txt_b1, self.txt_w2, self.txt_b2)
        w1 = self.txt_w1.data
        out, vjp = _mlp(pooled, *(p.data for p in params[1:]))

        def text_vjp(g):
            ga, *weight_grads = vjp(g)
            g_pooled = ga @ w1.T
            g_table = np.zeros_like(table)
            np.add.at(g_table, flat_idx, g_pooled[seg_idx] / counts[seg_idx, None])
            return (g_table, *weight_grads)

        return node(out, params, text_vjp)
