"""Lloyd's k-means with k-means++ seeding, deterministic given a seed.

Grouping by cluster id is the alternative to grid quantization when building
label spaces, so the fit has to be reproducible bit for bit: fixed iteration
order, argmin ties to the lowest index, empty clusters refilled by a
deterministic farthest-point rule.

The k-means++ draws are `random.Random(seed).random()`, whose sequence Python
keeps across versions, and not numpy's: importing `numpy.random` loads
OpenSSL (through `secrets` and `hmac`), about 6 MB that `build-labels
--kmeans` would carry for a few dozen numbers.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteInput, TooFewDistinctPoints

CONVERGENCE_TOL = 1e-8
MAX_ITER = 300
# points per distance block: the (rows, k, d) difference array never holds more
BLOCK_ROWS = 512


@dataclass
class KMeansModel:
    centroids: np.ndarray  # (k, d)
    inertia_history: list[float] = field(default_factory=list)
    n_iter: int = 0

    def assign(self, points: np.ndarray) -> np.ndarray:
        """Nearest-centroid index per point (ties -> lowest index)."""
        points = np.asarray(points, dtype=np.float64)
        out = np.empty(points.shape[0], dtype=np.intp)
        for start in range(0, len(out), BLOCK_ROWS):
            block = slice(start, start + BLOCK_ROWS)
            out[block] = np.argmin(_sq_dists(points[block], self.centroids), axis=1)
        return out


def _sq_dists(points: np.ndarray, centroids: np.ndarray, out=None, cols=slice(None)) -> np.ndarray:
    """Squared point-centroid distances into out[:, cols] (a new (n, k) array if out
    is None), BLOCK_ROWS points at a time; each entry's einsum sum over d keeps its bits."""
    if out is None:
        out = np.empty((points.shape[0], centroids.shape[0]))
    for start in range(0, points.shape[0], BLOCK_ROWS):
        diff = points[start : start + BLOCK_ROWS, None, :] - centroids[None, :, :]
        out[start : start + BLOCK_ROWS, cols] = np.einsum("nkd,nkd->nk", diff, diff)
    return out


def _seed_centroids(points: np.ndarray, k: int, rng: random.Random) -> np.ndarray:
    """k-means++: first centroid uniform, the rest sampled prop. to D^2. Every
    pick draws from rng.random() alone, the one sequence Python promises."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    centroids[0] = points[min(int(rng.random() * n), n - 1)]
    d2 = _sq_dists(points, centroids[:1])[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining mass on already-chosen points; fall back uniform
            idx = min(int(rng.random() * n), n - 1)
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            idx = min(idx, n - 1)
        centroids[j] = points[idx]
        d2 = np.minimum(d2, _sq_dists(points, centroids[j : j + 1])[:, 0])
    return centroids


def fit_kmeans(points: np.ndarray, n_clusters: int, seed: int) -> KMeansModel:
    """Cluster points; converges when max centroid movement < CONVERGENCE_TOL,
    or stops after MAX_ITER iterations.

    inertia_history records the assignment cost once per iteration (after
    assignment, before the centroid update), so it is non-increasing.

    Raises:
        ValueError: a negative seed, which random.Random would take as abs(seed).
        NonFiniteInput: points contain NaN/inf.
        TooFewDistinctPoints: fewer distinct rows than clusters.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {points.shape}")
    if not np.isfinite(points).all():
        raise NonFiniteInput("k-means input contains non-finite values")
    if n_clusters < 1:
        raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    distinct = np.unique(points, axis=0).shape[0]
    if distinct < n_clusters:
        raise TooFewDistinctPoints(
            f"{distinct} distinct points < {n_clusters} clusters"
        )

    centroids = _seed_centroids(points, n_clusters, random.Random(seed))
    model = KMeansModel(centroids=centroids)
    d2 = np.empty((points.shape[0], n_clusters))
    # the centroids whose distances d2 holds; NaN differs from every value,
    # so the first iteration computes every column
    held = np.full_like(centroids, np.nan)
    for iteration in range(MAX_ITER):
        # recompute only the columns of centroids that moved: one column alone
        # has the same bits as the full einsum
        moved = (centroids != held).any(axis=1)
        _sq_dists(points, centroids[moved], d2, moved)
        held = centroids.copy()  # the refill below edits centroids in place
        assign = np.argmin(d2, axis=1)
        point_cost = d2[np.arange(points.shape[0]), assign]

        # refill empty clusters with the farthest point, lowest cluster first
        counts = np.bincount(assign, minlength=n_clusters)
        for empty in np.flatnonzero(counts == 0):
            far = int(np.argmax(point_cost))
            centroids[empty] = points[far]
            assign[far] = empty
            point_cost[far] = 0.0
            counts = np.bincount(assign, minlength=n_clusters)

        model.inertia_history.append(float(point_cost.sum()))
        model.n_iter = iteration + 1

        if points.shape[1] == 1:
            # a one-column mean is numpy's pairwise sum; wider means add row
            # by row, which per-column bincount reproduces bit for bit
            new_centroids = np.array([points[assign == j].mean(axis=0) for j in range(n_clusters)])
        else:
            sums = [np.bincount(assign, col, n_clusters) for col in points.T]
            new_centroids = np.stack(sums, axis=1) / counts[:, None]
        movement = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        model.centroids = centroids
        if movement < CONVERGENCE_TOL:
            break
    return model
