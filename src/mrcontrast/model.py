"""Dual encoder: an image-feature MLP and a token-pooling text MLP.

Both towers end in L2 normalization so similarities are cosines. The
temperature is a learnable log-parameter shared by both retrieval
directions, clamped to [0.01, 1.0].
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import Tensor, mean_rows, unit_rows
from .errors import ShapeMismatch, TokenIdOutOfRange
from .prompts import VOCAB_SIZE

TAU_MIN = 0.01
TAU_MAX = 1.0


@dataclass(frozen=True)
class ModelConfig:
    d_in: int = 12
    d_hidden: int = 64
    d_emb: int = 32
    d_tok: int = 32
    tau_init: float = 0.07

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


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
        """Temperature with the [0.01, 1.0] clamp applied in-graph."""
        return self.log_tau.exp().clamp(TAU_MIN, TAU_MAX)

    def _mlp(self, x: Tensor, w1, b1, w2, b2) -> Tensor:
        h = (x @ w1 + b1).silu()
        return unit_rows(h @ w2 + b2)

    def encode_images(self, features: np.ndarray) -> Tensor:
        """(N, d_in) raw features -> (N, d_emb) unit embeddings."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.config.d_in:
            raise ShapeMismatch(
                f"expected (N, {self.config.d_in}) features, got {features.shape}"
            )
        return self._mlp(
            Tensor(features), self.img_w1, self.img_b1, self.img_w2, self.img_b2
        )

    def encode_texts(self, token_lists: Sequence[Sequence[int]]) -> Tensor:
        """Token id lists -> (N, d_emb) unit embeddings (order-invariant
        pooling; an empty list maps to the learned null token)."""
        for ids in token_lists:
            for t in ids:
                if not (0 <= t < VOCAB_SIZE):
                    raise TokenIdOutOfRange(f"token id {t} outside [0, {VOCAB_SIZE})")
        pooled = mean_rows(self.tok_table, token_lists, null_row=VOCAB_SIZE)
        return self._mlp(
            pooled, self.txt_w1, self.txt_b1, self.txt_w2, self.txt_b2
        )
