"""Bidirectional supervised contrastive loss over paired embeddings.

For an anchor, every candidate on the other side that carries the same label
is a positive, the anchor's own pair included; the denominator runs over all
candidates. Per-anchor terms are averaged so loss magnitude does not depend
on batch size, and the two retrieval directions are averaged with weight 1/2.
InfoNCE is the special case whose only positive is the anchor's own pair.

Shard plans split the anchor rows while keeping the full candidate set, so
per-shard terms sum to the unsharded loss exactly (up to float reassociation).
All reductions are float64; softmax rows are max-shifted before
exponentiation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import Tensor
from .errors import (
    EmptyBatch,
    InvalidPlan,
    NonPositiveTemperature,
    NonUnitEmbedding,
    ShapeMismatch,
)

UNIT_NORM_TOL = 1e-6


@dataclass(frozen=True)
class ContrastiveBatch:
    """Aligned image/text embedding pairs plus their shared labels."""

    image_embeddings: np.ndarray  # (N, d), unit rows
    text_embeddings: np.ndarray  # (N, d), unit rows
    labels: np.ndarray  # (N,) int label ids
    temperature: float


@dataclass(frozen=True)
class ShardPlan:
    """Contiguous anchor ranges; must tile [0, N) without overlap."""

    ranges: tuple[tuple[int, int], ...]

    @staticmethod
    def even(n: int, n_shards: int) -> "ShardPlan":
        if n_shards < 1:
            raise InvalidPlan(f"need at least 1 shard, got {n_shards}")
        base, extra = divmod(n, n_shards)
        ranges = []
        start = 0
        for i in range(n_shards):
            size = base + (1 if i < extra else 0)
            ranges.append((start, start + size))
            start += size
        return ShardPlan(tuple(ranges))

    def validate(self, n: int) -> None:
        covered = 0
        last_end = 0
        for start, end in sorted(self.ranges):
            if not (0 <= start <= end <= n):
                raise InvalidPlan(f"range ({start}, {end}) outside [0, {n})")
            if start < last_end:
                raise InvalidPlan(f"ranges overlap at {start}")
            if start > last_end:
                raise InvalidPlan(f"gap before {start}")
            covered += end - start
            last_end = end
        if last_end != n or covered != n:
            raise InvalidPlan(f"ranges cover {covered} of {n} anchors")


@dataclass(frozen=True)
class LossResult:
    loss: float
    d_images: np.ndarray
    d_texts: np.ndarray
    d_temperature: float


def _check_unit_rows(name: str, x: np.ndarray) -> None:
    norms = np.sqrt((x * x).sum(axis=1))
    worst = np.abs(norms - 1.0).max()
    if not np.isfinite(worst) or worst > UNIT_NORM_TOL:
        raise NonUnitEmbedding(
            f"{name} norms deviate from 1 by {worst:.3e} (> {UNIT_NORM_TOL})"
        )


def validate_batch(batch: ContrastiveBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    img = np.asarray(batch.image_embeddings, dtype=np.float64)
    txt = np.asarray(batch.text_embeddings, dtype=np.float64)
    labels = np.asarray(batch.labels)
    if img.ndim != 2 or txt.ndim != 2 or img.shape != txt.shape:
        raise ShapeMismatch(
            f"embedding shapes disagree: {img.shape} vs {txt.shape}"
        )
    if img.shape[0] == 0:
        raise EmptyBatch("batch has no pairs")
    if labels.shape != (img.shape[0],):
        raise ShapeMismatch(
            f"labels shape {labels.shape} != ({img.shape[0]},)"
        )
    if not (math.isfinite(batch.temperature) and batch.temperature > 0):
        raise NonPositiveTemperature(f"temperature {batch.temperature!r}")
    _check_unit_rows("image embeddings", img)
    _check_unit_rows("text embeddings", txt)
    return img, txt, labels


def _positive_weights(
    anchor_labels: np.ndarray, candidate_labels: np.ndarray, infonce_rows: Optional[np.ndarray]
) -> np.ndarray:
    """Row-normalized positive mask: weights[i, p] = 1/|P(i)| on positives."""
    if infonce_rows is None:
        mask = (anchor_labels[:, None] == candidate_labels[None, :]).astype(
            np.float64
        )
    else:
        mask = np.zeros(
            (len(infonce_rows), len(candidate_labels)), dtype=np.float64
        )
        mask[np.arange(len(infonce_rows)), infonce_rows] = 1.0
    return mask / mask.sum(axis=1, keepdims=True)


def _term_sum(
    anchors: Tensor, candidates: Tensor, weights: np.ndarray, tau: Tensor
) -> Tensor:
    """Sum over anchors of -(1/|P|) * sum_p log softmax_p; not yet averaged."""
    logits = (anchors @ candidates.T) / tau
    shifted = logits - logits.max_detached(axis=1)
    log_denom = shifted.exp().sum(axis=1, keepdims=True).log()
    log_prob = shifted - log_denom
    return -((log_prob * Tensor(weights)).sum())


def loss_graph(
    images: Tensor,
    texts: Tensor,
    labels: np.ndarray,
    tau: Tensor,
    kind: str = "supcon",
    plan: Optional[ShardPlan] = None,
) -> Tensor:
    """Bidirectional loss as an autodiff graph (used by training and tests).

    The single-shard plan is the canonical computation; multi-shard plans
    compute each anchor range against the full candidate set and sum.
    """
    n = images.data.shape[0]
    if plan is None:
        plan = ShardPlan(((0, n),))
    plan.validate(n)
    if kind not in ("supcon", "infonce"):
        raise ValueError(f"unknown loss kind {kind!r}")
    total: Optional[Tensor] = None
    for start, end in plan.ranges:
        if start == end:
            continue
        rows = np.arange(start, end)
        img_rows = images.take_rows(rows)
        txt_rows = texts.take_rows(rows)
        diag = rows if kind == "infonce" else None
        w_i2t = _positive_weights(labels[rows], labels, diag)
        w_t2i = w_i2t  # same labels both sides; diag rows identical too
        part = _term_sum(img_rows, texts, w_i2t, tau) + _term_sum(
            txt_rows, images, w_t2i, tau
        )
        total = part if total is None else total + part
    return total * (0.5 / n)


def _scalar_loss(
    images: np.ndarray,
    texts: np.ndarray,
    labels: np.ndarray,
    temperature: float,
    kind: str,
    plan: Optional[ShardPlan] = None,
) -> float:
    out = loss_graph(
        Tensor(images), Tensor(texts), labels, Tensor(temperature), kind, plan
    )
    return float(out.data)


def supcon_directional(
    anchors: np.ndarray,
    candidates: np.ndarray,
    labels: np.ndarray,
    temperature: float,
) -> float:
    """One direction only: anchors against the full candidate set."""
    batch = ContrastiveBatch(anchors, candidates, labels, temperature)
    img, txt, lab = validate_batch(batch)
    weights = _positive_weights(lab, lab, None)
    term = _term_sum(Tensor(img), Tensor(txt), weights, Tensor(temperature))
    return float(term.data) / img.shape[0]


def supcon_bidirectional(batch: ContrastiveBatch) -> float:
    img, txt, labels = validate_batch(batch)
    return _scalar_loss(img, txt, labels, batch.temperature, "supcon")


def infonce_bidirectional(batch: ContrastiveBatch) -> float:
    img, txt, labels = validate_batch(batch)
    return _scalar_loss(img, txt, labels, batch.temperature, "infonce")


def sharded_loss(
    batch: ContrastiveBatch,
    plan: Optional[ShardPlan] = None,
    kind: str = "supcon",
) -> LossResult:
    """Loss plus gradients w.r.t. both embedding sets and the temperature."""
    img, txt, labels = validate_batch(batch)
    images = Tensor(img, requires_grad=True)
    texts = Tensor(txt, requires_grad=True)
    tau = Tensor(batch.temperature, requires_grad=True)
    out = loss_graph(images, texts, labels, tau, kind, plan)
    out.backward()
    return LossResult(
        loss=float(out.data),
        d_images=images.grad,
        d_texts=texts.grad,
        d_temperature=float(tau.grad),
    )
