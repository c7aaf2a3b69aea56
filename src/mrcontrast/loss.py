"""Bidirectional supervised contrastive loss over paired embeddings.

For an anchor, every candidate on the other side that carries the same label
is a positive, the anchor's own pair included; the denominator runs over all
candidates. Per-anchor terms are averaged so loss magnitude does not depend
on batch size, and the two retrieval directions are averaged with weight 1/2.
InfoNCE is the special case whose only positive is the anchor's own pair.

`contrastive_loss` is the one computation: it returns the loss with its
closed-form gradients for both embedding sets and the temperature, and every
public name calls it (`loss_graph` wraps the result as a single autodiff
node). Shard plans split the anchor rows while keeping the full candidate
set, so per-shard terms sum to the unsharded loss exactly (up to float
reassociation), and a shard's N-wide blocks are dropped before the next one
is formed: peak memory is about N^2 / shards. All reductions are float64;
softmax rows are max-shifted before exponentiation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import Tensor, node
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


def contrastive_loss(
    img: np.ndarray,
    txt: np.ndarray,
    labels: np.ndarray,
    tau: float,
    kind: str = "supcon",
    plan: Optional[ShardPlan] = None,
) -> LossResult:
    """The bidirectional loss and its closed-form gradients, shard by shard.

    For each shard and direction the anchors' logits against the full
    candidate set are max-shifted and log-softmaxed; with
    coef = softmax - positive weights, the anchor gradient is
    coef @ candidates / tau, the candidate gradient coef.T @ anchors / tau
    and the temperature gradient -sum(coef * shifted) / tau (the shift
    cancels because both row sets sum to one). Only one shard's blocks are
    alive at a time, so peak memory is O(shard x N) rather than O(N^2).
    """
    n = img.shape[0]
    if plan is None:
        plan = ShardPlan(((0, n),))
    plan.validate(n)
    if kind not in ("supcon", "infonce"):
        raise ValueError(f"unknown loss kind {kind!r}")
    total = 0.0
    d_img = np.zeros_like(img)
    d_txt = np.zeros_like(txt)
    d_tau = 0.0
    for start, end in plan.ranges:
        if start == end:
            continue
        rows = slice(start, end)
        # Same labels on both sides, so one weight block serves both directions.
        weights = _positive_weights(
            labels[rows], labels, np.arange(start, end) if kind == "infonce" else None
        )
        part = 0.0
        for anchors, candidates, d_anchors, d_candidates in (
            (img, txt, d_img, d_txt),
            (txt, img, d_txt, d_img),
        ):
            shifted = anchors[rows] @ candidates.T / tau
            shifted -= shifted.max(axis=1, keepdims=True)
            log_prob = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            part -= (log_prob * weights).sum()
            coef = np.exp(log_prob) - weights  # d term / d logits
            d_tau -= (coef * shifted).sum() / tau
            d_anchors[rows] += coef @ candidates / tau
            d_candidates += coef.T @ anchors[rows] / tau
        total += part
    scale = 0.5 / n
    return LossResult(
        loss=total * scale,
        d_images=d_img * scale,
        d_texts=d_txt * scale,
        d_temperature=d_tau * scale,
    )


def loss_graph(
    images: Tensor,
    texts: Tensor,
    labels: np.ndarray,
    tau: Tensor,
    kind: str = "supcon",
    plan: Optional[ShardPlan] = None,
) -> Tensor:
    """`contrastive_loss` as one autodiff node (used by training and tests);
    the gradients are computed in the forward pass and scaled in backward."""
    result = contrastive_loss(images.data, texts.data, labels, float(tau.data), kind, plan)
    return node(
        result.loss,
        (images, texts, tau),
        lambda g: (g * result.d_images, g * result.d_texts, g * result.d_temperature),
    )


def supcon_bidirectional(batch: ContrastiveBatch) -> float:
    img, txt, labels = validate_batch(batch)
    return contrastive_loss(img, txt, labels, batch.temperature, "supcon").loss


def infonce_bidirectional(batch: ContrastiveBatch) -> float:
    img, txt, labels = validate_batch(batch)
    return contrastive_loss(img, txt, labels, batch.temperature, "infonce").loss


def sharded_loss(
    batch: ContrastiveBatch,
    plan: Optional[ShardPlan] = None,
    kind: str = "supcon",
) -> LossResult:
    """Loss plus gradients w.r.t. both embedding sets and the temperature."""
    img, txt, labels = validate_batch(batch)
    return contrastive_loss(img, txt, labels, batch.temperature, kind, plan)
