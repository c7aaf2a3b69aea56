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
from itertools import chain
from typing import Sequence

import numpy as np

from .autodiff import Tensor, node
from .errors import ShapeMismatch, TokenIdOutOfRange
from .prompts import VOCAB_SIZE, TokenBatch
from .rules import check_fields, positive_float, positive_int

TAU_MIN = 0.01
TAU_MAX = 1.0
NORM_EPS = 1e-30  # only guards the all-zero row in the L2 normalization


MODEL_RULES = dict(d_in=positive_int, d_hidden=positive_int, d_emb=positive_int,
                   d_tok=positive_int, tau_init=positive_float)


@dataclass(frozen=True)
class ModelConfig:
    """Tower widths and the initial temperature, each checked by its rule."""

    d_in: int = 12
    d_hidden: int = 64
    d_emb: int = 32
    d_tok: int = 32
    tau_init: float = 0.07

    def __post_init__(self) -> None:
        check_fields(self, MODEL_RULES)


def parameter_layout(c: ModelConfig, table_rows: int) -> list[tuple[str, tuple[int, ...], bool]]:
    """(name, shape, weight-decay eligible) of each parameter in draw and
    checkpoint order; the token table has `table_rows` rows, one per bucket."""
    return [
        ("img_w1", (c.d_in, c.d_hidden), True),
        ("img_b1", (c.d_hidden,), False),
        ("img_w2", (c.d_hidden, c.d_emb), True),
        ("img_b2", (c.d_emb,), False),
        ("tok_table", (table_rows, c.d_tok), True),
        ("txt_w1", (c.d_tok, c.d_hidden), True),
        ("txt_b1", (c.d_hidden,), False),
        ("txt_w2", (c.d_hidden, c.d_emb), True),
        ("txt_b2", (c.d_emb,), False),
        ("log_tau", (), False),
    ]


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
        ga = (gh * a) * s  # then * (1 - s) + gh * s, in place
        ga *= 1.0 - s
        ga += np.multiply(gh, s, out=gh)
        return ga, x.T @ ga, ga.sum(axis=0), h.T @ go, go.sum(axis=0)

    return o * r, vjp


def _pool_slotwise(table: np.ndarray, flat_idx: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Row i sums table[id] over the counts[i] ids that follow sum(counts[:i])
    in flat_idx, as ((+0.0 + t0) + t1) + ... in token order: the additions
    np.bincount makes, without a (tokens, d) gather. Rows sorted longest first
    make slot j's rows a prefix, so each slot adds one (rows, d) block."""
    order = np.argsort(-counts, kind="stable")
    starts = (np.cumsum(counts) - counts)[order]
    desc = -counts[order]
    acc = np.zeros((counts.size, table.shape[1]))
    for j in range(int(counts.max(initial=0))):
        n = np.searchsorted(desc, -j, side="left")  # rows with more than j ids
        acc[:n] += table[flat_idx[starts[:n] + j]]
    pooled = np.empty_like(acc)
    pooled[order] = acc
    return pooled


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    std = math.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, size=(fan_in, fan_out))


def parameter_views(flat: np.ndarray, layout: list[tuple[str, tuple[int, ...], bool]]) -> list:
    """One view of the flat array `flat` per `parameter_layout` entry, in order, shaped as it."""
    shapes = [shape for _, shape, _ in layout]
    ends = np.cumsum([math.prod(shape) for shape in shapes])[:-1]
    return [piece.reshape(shape) for piece, shape in zip(np.split(flat, ends), shapes)]


class DualEncoder:
    """Image MLP [d_in, h, d_emb] and text [token table -> mean -> MLP]; every parameter
    is a view into `flat`, one array in `parameter_layout` order. Init: Glorot weights,
    zero biases, an N(0, 0.1) token table, log(tau_init); or a given `flat`, as is. The
    table has a row per `vocab` bucket (ascending ids, then the null bucket VOCAB_SIZE;
    all VOCAB_SIZE + 1 without `vocab`), drawn as that row of the full table's draw, so
    no other parameter's bits depend on `vocab`."""

    def __init__(self, config: ModelConfig = ModelConfig(), seed: int = 0,
                 flat: np.ndarray | None = None, vocab: np.ndarray | None = None):
        self.config = config
        self.vocab = np.arange(VOCAB_SIZE + 1) if vocab is None else np.asarray(vocab, np.int64)
        layout = parameter_layout(config, self.vocab.size)
        fresh = flat is None
        self.flat = np.zeros(sum(math.prod(s) for _, s, _ in layout)) if fresh else flat
        rng = np.random.Generator(np.random.PCG64(seed))
        for (name, shape, _), view in zip(layout, parameter_views(self.flat, layout)):
            if fresh and name == "log_tau":
                view[...] = math.log(config.tau_init)
            elif fresh and name == "tok_table":
                view[...] = rng.normal(0.0, 0.1, size=(VOCAB_SIZE + 1, config.d_tok))[self.vocab]
            elif fresh and len(shape) == 2:  # the biases stay zero
                view[...] = _glorot(rng, *shape)
            setattr(self, name, Tensor(view, True))

    def parameters(self) -> list[tuple[str, Tensor, bool]]:
        """(name, tensor, weight-decay eligible) in `parameter_layout` order."""
        layout = parameter_layout(self.config, self.vocab.size)
        return [(n, getattr(self, n), decay) for n, _, decay in layout]

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

    def encode_texts(self, tokens: TokenBatch | Sequence[Sequence[int]]) -> Tensor:
        """A TokenBatch or token id lists -> (N, d_emb) unit embeddings (mean
        pooling over table rows; an empty prompt and an id outside `vocab`
        pool the null row). The table gradient is dense, +0.0 on unused rows."""
        if isinstance(tokens, TokenBatch):
            flat_idx, lengths = tokens
        else:
            lengths = np.array([len(ids) for ids in tokens], dtype=np.int64)
            flat_idx = np.fromiter(chain.from_iterable(tokens), np.int64, lengths.sum())
        bad = (flat_idx < 0) | (flat_idx >= VOCAB_SIZE)
        if bad.any():
            raise TokenIdOutOfRange(f"token id {flat_idx[bad.argmax()]} outside [0, {VOCAB_SIZE})")
        flat_idx = np.insert(flat_idx, np.cumsum(lengths)[lengths == 0], VOCAB_SIZE)
        rows = np.searchsorted(self.vocab, flat_idx)  # the null bucket is last: rows stay in range
        rows[self.vocab[rows] != flat_idx] = self.vocab.size - 1
        counts = np.maximum(lengths, 1)
        table = self.tok_table.data
        pooled = _pool_slotwise(table, rows, counts) / counts[:, None]

        params = (self.tok_table, self.txt_w1, self.txt_b1, self.txt_w2, self.txt_b2)
        w1 = self.txt_w1.data
        out, vjp = _mlp(pooled, *(p.data for p in params[1:]))

        def text_vjp(g):
            ga, *weight_grads = vjp(g)
            g_pooled_t = ((ga @ w1.T) / counts[:, None]).T.copy()
            del ga  # freed before the scatter's temporaries
            seg_idx = np.repeat(np.arange(counts.size), counts)
            g_table = np.empty(table.shape)
            for c, column in enumerate(g_pooled_t):
                g_table[:, c] = np.bincount(rows, column[seg_idx], table.shape[0])
            return (g_table, *weight_grads)

        return node(out, params, text_vjp)
