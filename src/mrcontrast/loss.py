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
reassociation), and every shard reuses one workspace of four N-wide blocks:
peak memory is about 4 N^2 / shards. All reductions are float64; softmax
rows are max-shifted before exponentiation.
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
LOSS_KINDS = ("supcon", "infonce")


@dataclass(frozen=True)
class ContrastiveBatch:
    """Aligned image/text embedding pairs plus their shared labels."""

    image_embeddings: np.ndarray  # (N, d), unit rows
    text_embeddings: np.ndarray  # (N, d), unit rows
    labels: np.ndarray  # (N,) int label ids
    temperature: float


@dataclass(frozen=True)
class ShardPlan:
    """`shards` contiguous, near-equal anchor ranges tiling [0, n)."""

    n: int
    shards: int

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise InvalidPlan(f"need at least 1 shard, got {self.shards}")

    @staticmethod
    def even(n: int, n_shards: int) -> "ShardPlan":
        return ShardPlan(n, n_shards)

    @property
    def ranges(self) -> tuple[tuple[int, int], ...]:
        """The first n % shards ranges are one longer; none is empty, so there
        are at most n."""
        base, extra = divmod(self.n, self.shards)
        bounds = [i * base + min(i, extra) for i in range(min(self.n, self.shards) + 1)]
        return tuple(zip(bounds, bounds[1:]))


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


def loss_workspace(n: int, plan: ShardPlan) -> np.ndarray:
    """Four (widest shard x n) float64 blocks: `contrastive_loss` scratch for up to n pairs."""
    return np.empty((4, max((end - start for start, end in plan.ranges), default=0) * n))


def contrastive_loss(
    img: np.ndarray,
    txt: np.ndarray,
    labels: np.ndarray,
    tau: float,
    kind: str = "supcon",
    plan: Optional[ShardPlan] = None,
    workspace: Optional[np.ndarray] = None,
) -> LossResult:
    """The bidirectional loss and its closed-form gradients, shard by shard.

    For each shard and direction the anchors' logits against the full
    candidate set are max-shifted and log-softmaxed; with
    coef = softmax - positive weights, the anchor gradient is
    coef @ candidates / tau, the candidate gradient coef.T @ anchors / tau
    and the temperature gradient -sum(coef * shifted) / tau (the shift
    cancels because both row sets sum to one). The blocks are prefixes of a
    `loss_workspace`, the caller's or its own: O(shard x N) memory, not O(N^2).
    """
    n = img.shape[0]
    if plan is None:
        plan = ShardPlan(n, 1)
    if plan.n != n:
        raise InvalidPlan(f"plan covers {plan.n} anchors, the batch has {n}")
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    if kind == "infonce":  # supcon over distinct labels: each pair is its own class
        labels = np.arange(n)
    total = 0.0
    d_img = np.zeros_like(img)
    d_txt = np.zeros_like(txt)
    d_tau = 0.0
    workspace = loss_workspace(n, plan) if workspace is None else workspace
    for start, end in plan.ranges:
        rows = slice(start, end)
        shifted, log_prob, product, weights = workspace[:, : (end - start) * n].reshape(4, -1, n)
        # weights[i, p] = 1/|P(i)| on positives; one block serves both directions
        np.equal(labels[rows, None], labels[None, :], out=weights)
        weights /= weights.sum(axis=1, keepdims=True)
        part = 0.0
        for anchors, candidates, d_anchors, d_candidates in (
            (img, txt, d_img, d_txt),
            (txt, img, d_txt, d_img),
        ):
            np.matmul(anchors[rows], candidates.T, out=shifted)
            shifted /= tau
            shifted -= shifted.max(axis=1, keepdims=True)
            lse = np.log(np.exp(shifted, out=product).sum(axis=1, keepdims=True))
            np.subtract(shifted, lse, out=log_prob)
            part -= np.multiply(log_prob, weights, out=product).sum()
            coef = np.subtract(np.exp(log_prob, out=log_prob), weights, out=log_prob)
            d_tau -= np.multiply(coef, shifted, out=product).sum() / tau
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
    workspace: Optional[np.ndarray] = None,
) -> Tensor:
    """`contrastive_loss` as one autodiff node (used by training and tests);
    the gradients are computed in the forward pass and scaled in backward."""
    result = contrastive_loss(images.data, texts.data, labels, float(tau.data), kind, plan,
                              workspace)
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
