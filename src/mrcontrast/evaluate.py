"""Retrieval, probing and error-decomposition metrics.

The gallery holds one canonical text embedding per unique label, so retrieval
is over label prototypes, not over every prompt string. All tie-breaks are
deterministic (ascending label id) to keep reports reproducible bit for bit.
"""
from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    EmptyGallery,
    EmptyImageSet,
    LabelDecodeFailure,
    NonFiniteInput,
    SingleClassTrainingSet,
)
from .labels import GridSpec, LabelSpace, coarsened_space
from .model import DualEncoder
from .prompts import tokenize

DEFAULT_KS = (1, 5, 10)


@dataclass
class Gallery:
    label_ids: np.ndarray  # (G,), ascending
    embeddings: np.ndarray  # (G, d_emb), unit rows


def encode_features(model: DualEncoder, features: np.ndarray, chunk: int = 4096) -> np.ndarray:
    """Image embeddings without keeping the autodiff graphs around."""
    parts = []
    for start in range(0, features.shape[0], chunk):
        parts.append(model.encode_images(features[start : start + chunk]).data)
    return np.concatenate(parts, axis=0) if parts else np.empty((0, model.config.d_emb))


def build_gallery(
    model: DualEncoder, space: LabelSpace, present_ids: Sequence[int]
) -> Gallery:
    """One canonical text embedding per unique label id in present_ids."""
    ids = np.unique(np.asarray(present_ids, dtype=np.int64))
    if ids.size == 0:
        raise EmptyGallery("no labels to build a gallery from")
    token_lists = [
        tokenize(space.labels[int(i)].canonical_text) for i in ids
    ]
    emb = model.encode_texts(token_lists).data
    return Gallery(label_ids=ids, embeddings=emb)


def rank_gallery(queries: np.ndarray, gallery: Gallery) -> np.ndarray:
    """(N, G) ranked gallery label ids per query, best first.

    Cosine similarity (inputs are unit rows); ties break by ascending label
    id: the columns are put in id order, then sorted stably.
    """
    if queries.shape[0] == 0:
        raise EmptyImageSet("no queries to rank")
    sims = queries @ gallery.embeddings.T
    by_id = np.argsort(gallery.label_ids, kind="stable")
    return gallery.label_ids[by_id][np.argsort(-sims[:, by_id], axis=1, kind="stable")]


def recall_at_k(
    queries: np.ndarray,
    gallery: Gallery,
    true_ids: np.ndarray,
    ks: Sequence[int] = DEFAULT_KS,
) -> dict[int, float]:
    """Fraction of queries whose true label appears in the top k."""
    if any(k < 1 for k in ks):
        raise ValueError("k must be >= 1")
    ranked = rank_gallery(queries, gallery)
    out = {}
    for k in ks:
        hits = (ranked[:, :k] == np.asarray(true_ids)[:, None]).any(axis=1)
        out[k] = float(hits.mean())
    return out


def text_to_image_recall(
    gallery: Gallery,
    image_embeddings: np.ndarray,
    image_label_ids: np.ndarray,
    ks: Sequence[int] = DEFAULT_KS,
) -> dict[int, float]:
    """Per unique label, does any top-k image carry the query's label?

    Image ties break by ascending label id, then ascending image index.
    """
    if image_embeddings.shape[0] == 0:
        raise EmptyImageSet("no images to rank")
    sims = gallery.embeddings @ image_embeddings.T  # (G, N)
    by_label = np.argsort(image_label_ids, kind="stable")  # ties in image order
    order = np.argsort(-sims[:, by_label], axis=1, kind="stable")[:, : max(ks, default=0)]
    hits = image_label_ids[by_label][order] == gallery.label_ids[:, None]
    return {k: float(hits[:, :k].any(axis=1).mean()) for k in ks}


def scan_to_text_recall(
    image_embeddings: np.ndarray,
    image_label_ids: np.ndarray,
    scan_ids: np.ndarray,
    gallery: Gallery,
    ks: Sequence[int] = DEFAULT_KS,
) -> dict[int, float]:
    """Majority-vote retrieval per scan (all slices of a scan share a label).

    Each slice votes for its top-1 label (similarity ties go to the lowest
    id), and one lexsort ranks the gallery for every scan at once. Rank 1 is
    the vote winner: most votes, then the highest mean top-1 score of the
    label's voting slices, then the lowest id. The rest follow by most
    votes, then the highest mean similarity over all the scan's slices, then
    the lowest id.

    Both means are row-order sums over the scan's slices divided by the
    count. The scan mean is numpy's axis-0 mean bit for bit; the voter mean
    can differ from numpy's pairwise 1-D mean in its last bit only for a
    label with at least 8 voters.
    """
    by_id = np.argsort(gallery.label_ids, kind="stable")
    ids = gallery.label_ids[by_id]
    sims = (image_embeddings @ gallery.embeddings.T)[:, by_id]  # (N, G), id order
    g = ids.size
    top1 = np.argmax(sims, axis=1)  # ties -> lowest id
    top1_score = sims[np.arange(sims.shape[0]), top1]
    _, first, scan = np.unique(scan_ids, return_index=True, return_inverse=True)
    n_scans = first.size

    cell = scan * g + top1
    votes = np.bincount(cell, minlength=n_scans * g).reshape(n_scans, g)
    voter_sum = np.bincount(cell, top1_score, minlength=n_scans * g).reshape(n_scans, g)
    voter_mean = voter_sum / np.maximum(votes, 1)
    scan_mean = np.zeros((n_scans, g))
    np.add.at(scan_mean, scan, sims)
    scan_mean /= np.bincount(scan)[:, None]

    id_key = np.broadcast_to(ids, (n_scans, g))
    winner = np.lexsort((id_key, -voter_mean, -votes))[:, :1]
    ranked = ids[np.lexsort((id_key, -scan_mean, -votes, np.arange(g) != winner))]
    truth = np.asarray(image_label_ids)[first]
    return {k: float((ranked[:, :k] == truth[:, None]).any(axis=1).mean()) for k in ks}


# L-BFGS keeps this many curvature pairs (Nocedal & Wright, ch. 7).
LBFGS_MEMORY = 10
# The probe's training and eval columns per block; its one buffer is (C, PROBE_BLOCK).
PROBE_BLOCK = 1024


@dataclass
class ProbeResult:
    accuracy: float
    losses: list[float]
    predicted_ids: np.ndarray
    n_iterations: int
    grad_norm: float  # at the last iterate
    converged: bool  # grad_norm < grad_tol


def _lbfgs_direction(
    grad: np.ndarray, pairs: Sequence[tuple[np.ndarray, np.ndarray, float]]
) -> np.ndarray:
    """Two-loop recursion: -H grad for the inverse-Hessian estimate H built
    from the (s, y, 1 / s.y) pairs, oldest first, with H0 = (s.y / y.y) I
    from the newest pair."""
    q = -grad
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * float((s * q).sum())
        q = q - alpha * y
        alphas.append(alpha)
    if pairs:
        s, y, _ = pairs[-1]
        q = q * (float((s * y).sum()) / float((y * y).sum()))
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q = q + (alpha - rho * float((y * q).sum())) * s
    return q


def linear_probe(
    train_x: np.ndarray,
    train_y: np.ndarray,
    eval_x: np.ndarray,
    eval_y: np.ndarray,
    l2: float = 1e-5,
    max_iter: int = 500,
    grad_tol: float = 1e-6,
) -> ProbeResult:
    """Multinomial logistic regression on frozen embeddings.

    Full-batch L-BFGS (Liu & Nocedal 1989) with memory LBFGS_MEMORY. Each
    step starts at t = 1 and halves until the Armijo sufficient-decrease test
    holds, so the training loss is non-increasing by construction; a
    direction that is not a descent direction falls back to the negative
    gradient. Stops after max_iter iterates or once the gradient norm falls
    below grad_tol. Deterministic (zero init, no sampling).
    """
    classes = np.unique(train_y)
    if classes.size < 2:
        raise SingleClassTrainingSet("probe needs at least two classes")
    y = np.searchsorted(classes, train_y)

    def augment(x: np.ndarray) -> np.ndarray:
        return np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)

    xa = augment(np.asarray(train_x, dtype=np.float64))
    n, d = xa.shape
    buf = np.empty(classes.size * PROBE_BLOCK)
    row_nll = np.empty(n)

    def block_logits(w_t: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The (C, len(x)) logits w_t @ x.T, written into the buffer."""
        return np.matmul(w_t, x.T, out=buf[: w_t.shape[0] * len(x)].reshape(-1, len(x)))

    def objective(w_t: np.ndarray) -> tuple[float, np.ndarray]:
        """The regularised mean NLL of w_t and its gradient. A block's logits become
        their softmax minus one-hot in place; the gradient adds the blocks in order."""
        for start in range(0, n, PROBE_BLOCK):
            rows = slice(start, start + PROBE_BLOCK)
            z = block_logits(w_t, xa[rows])
            np.subtract(z, z.max(axis=0), out=z)
            hit = (y[rows], np.arange(z.shape[1]))
            picked = z[hit]
            np.exp(z, out=z)
            norm = z.sum(axis=0)
            np.subtract(np.log(norm), picked, out=row_nll[rows])
            np.divide(z, norm, out=z)
            z[hit] -= 1.0
            part = z @ xa[rows]
            grad = part if start == 0 else grad + part
        return float(row_nll.mean()) + 0.5 * l2 * float((w_t * w_t).sum()), grad / n + l2 * w_t

    w = np.zeros((classes.size, d), dtype=np.float64)
    loss, grad = objective(w)
    losses = [loss]
    pairs: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=LBFGS_MEMORY)
    grad_norm = float(np.sqrt((grad * grad).sum()))
    while grad_norm >= grad_tol and len(losses) < max_iter:
        dw = _lbfgs_direction(grad, pairs)
        slope = float((grad * dw).sum())
        if not (np.isfinite(slope) and slope < 0.0):
            dw = -grad
            slope = -grad_norm * grad_norm
        t = 1.0
        while t > 1e-18:
            w_t = w + t * dw
            loss_t, grad_t = objective(w_t)
            if loss_t <= loss + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break
        s, yk = w_t - w, grad_t - grad
        sy = float((s * yk).sum())
        if sy > 0.0:
            pairs.append((s, yk, 1.0 / sy))
        w, loss, grad = w_t, loss_t, grad_t
        losses.append(loss)
        grad_norm = float(np.sqrt((grad * grad).sum()))

    best = np.empty(len(eval_x), dtype=np.intp)  # argmax ties: the lowest class id
    for start in range(0, len(eval_x), PROBE_BLOCK):
        rows = slice(start, start + PROBE_BLOCK)
        best[rows] = np.argmax(block_logits(w, augment(eval_x[rows])), axis=0)
    pred = classes[best]
    accuracy = float((pred == np.asarray(eval_y)).mean())
    return ProbeResult(
        accuracy=accuracy,
        losses=losses,
        predicted_ids=pred.astype(np.int64),
        n_iterations=len(losses),
        grad_norm=grad_norm,
        converged=grad_norm < grad_tol,
    )


def per_tag_error(
    predicted_ids: np.ndarray, true_ids: np.ndarray, space: LabelSpace
) -> dict:
    """The report's per-tag fields: per-field mismatch rates (`per_tag_error`)
    and the TE/TR bin MAE, in bins and exactly as bins * bin width in ms; a
    k-means space has no bins, and those four stay 0.0. Both id arrays index
    one (labels x key fields) object array of the label keys."""
    pred, true = np.asarray(predicted_ids, np.int64), np.asarray(true_ids, np.int64)
    if len(pred) != len(true):
        raise LabelDecodeFailure("prediction/truth length mismatch")
    for ids in (pred, true):
        if ids.size and not 0 <= ids.min() <= ids.max() < len(space):
            raise LabelDecodeFailure(f"label ids {ids.min()}..{ids.max()} out of range")
    keys = np.array([lab.key for lab in space.labels], dtype=object)
    fields = space.key_fields
    mismatches = (keys[pred] != keys[true]).sum(axis=0)
    tags = dict(per_tag_error={f: int(m) / len(true) for f, m in zip(fields, mismatches)},
                te_bin_mae=0.0, tr_bin_mae=0.0, te_mae_ms=0.0, tr_mae_ms=0.0)
    if "te_bin" in fields:
        for axis, width in (("te", space.config.grid.te_width), ("tr", space.config.grid.tr_width)):
            col = fields.index(axis + "_bin")
            tags[axis + "_bin_mae"] = float(np.mean(np.abs(keys[pred, col] - keys[true, col])))
            tags[axis + "_mae_ms"] = tags[axis + "_bin_mae"] * width
    return tags


@dataclass
class EvalReport:
    recalls: dict[str, dict[str, float]]
    config_hash: str
    counts: dict[str, int]
    # the probe's fields, left at these values when no probe runs
    probe_accuracy: Optional[float] = None
    per_tag_error: dict[str, float] = field(default_factory=dict)
    te_bin_mae: float = 0.0
    tr_bin_mae: float = 0.0
    te_mae_ms: float = 0.0
    tr_mae_ms: float = 0.0
    # n_iterations, grad_norm, converged and the final loss
    probe: Optional[dict] = None

    def to_json_dict(self) -> dict:
        return asdict(self)


def _recall_dict(r: dict[int, float]) -> dict[str, float]:
    return {f"r{k}": v for k, v in sorted(r.items())}


def run_evaluation(
    model: DualEncoder,
    space: LabelSpace,
    train_features: Optional[np.ndarray],
    train_ids: Optional[np.ndarray],
    eval_features: np.ndarray,
    eval_ids: np.ndarray,
    eval_scan_ids: np.ndarray,
    config_hash: str,
    probe_l2: float = 1e-5,
    transfer_grid: Optional[GridSpec] = None,
) -> EvalReport:
    """Full evaluation; pass transfer_grid to relabel under a coarser grid.

    Raises NonFiniteInput before any ranking or probe if an image or gallery
    embedding is not finite; numpy's overflow warnings are silenced for it.
    """
    if transfer_grid is not None:
        space, eval_ids = coarsened_space(space, eval_ids, transfer_grid)
        train_features = train_ids = None  # probe is not part of transfer eval

    run_probe = train_features is not None and train_ids is not None
    with np.errstate(over="ignore", invalid="ignore"):
        eval_emb = encode_features(model, eval_features)
        gallery = build_gallery(model, space, eval_ids)
        train_emb = encode_features(model, train_features) if run_probe else None
    for name, emb in (
        ("eval image", eval_emb), ("gallery", gallery.embeddings), ("train image", train_emb)
    ):
        if emb is not None and not np.isfinite(emb).all():
            raise NonFiniteInput(f"{name} embeddings are not finite")

    i2t = recall_at_k(eval_emb, gallery, eval_ids)
    s2t = scan_to_text_recall(eval_emb, eval_ids, eval_scan_ids, gallery)
    t2i = text_to_image_recall(gallery, eval_emb, eval_ids)

    report = EvalReport(
        recalls={
            "image_to_text": _recall_dict(i2t),
            "scan_to_text": _recall_dict(s2t),
            "text_to_image": _recall_dict(t2i),
        },
        config_hash=config_hash,
        counts={
            "n_eval_slices": int(eval_features.shape[0]),
            "n_eval_scans": int(np.unique(eval_scan_ids).size),
            "n_labels": len(space),
            "n_gallery": int(gallery.label_ids.size),
        },
    )
    if run_probe:
        probe = linear_probe(train_emb, train_ids, eval_emb, eval_ids, l2=probe_l2)
        report.probe_accuracy = probe.accuracy
        report.probe = {
            "n_iterations": probe.n_iterations,
            "grad_norm": probe.grad_norm,
            "converged": probe.converged,
            "loss": probe.losses[-1],
        }
        for name, value in per_tag_error(probe.predicted_ids, eval_ids, space).items():
            setattr(report, name, value)
    return report


def render_table(report: EvalReport) -> str:
    """Plain-text table of the report's headline numbers."""
    lines = []
    lines.append("task            " + "".join(f"{'R@' + str(k):>8}" for k in DEFAULT_KS))
    for task in ("image_to_text", "scan_to_text", "text_to_image"):
        lines.append(f"{task:<16}" + "".join(f"{report.recalls[task][f'r{k}']:>8.3f}"
                                             for k in DEFAULT_KS))
    if report.probe is not None:
        p = report.probe
        lines.append(f"linear probe accuracy: {report.probe_accuracy:.3f}")
        lines.append(
            f"probe: {p['n_iterations']} iterations, grad norm "
            f"{p['grad_norm']:.3e}, converged {str(p['converged']).lower()}, "
            f"loss {p['loss']:.9f}"
        )
        lines.append(
            f"TE bin MAE: {report.te_bin_mae:.3f} bins "
            f"({report.te_mae_ms:.1f} ms); "
            f"TR bin MAE: {report.tr_bin_mae:.3f} bins "
            f"({report.tr_mae_ms:.1f} ms)"
        )
        if report.per_tag_error:
            lines.append("per-tag error rates:")
            for name, rate in report.per_tag_error.items():
                lines.append(f"  {name:<18} {rate:.4f}")
    lines.append(f"labels: {report.counts.get('n_labels', 0)}  config: {report.config_hash}")
    return "\n".join(lines)
