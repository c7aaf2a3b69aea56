"""Output checks made apart from the program.

Each check recomputes a result from the definitions (floor-and-clamp
quantization, the SupCon sums, argmax retrieval, nearest centroids) or tests
a property the method must have, and raises CheckFailed on a mismatch. None
compares against a stored copy of an earlier output.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from typing import Optional, Sequence

import numpy as np

TE_RANGE = (0.0, 200.0)
TR_RANGE = (0.0, 10000.0)
TI_EDGES = (400.0, 1000.0, 3000.0)
RECORD_FIELDS = ("manufacturer", "scanner_model", "series_description",
                 "sequence_type", "sequence_variant", "field_strength_tesla",
                 "te_ms", "tr_ms", "ti_ms", "flip_angle_deg", "voxel_spacing_mm")


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- labels ------------------------------------------------------------------


def plane_of(spacing: Optional[Sequence[float]]) -> str:
    """Through-plane axis = largest spacing; isotropic or absent -> AXIAL."""
    if spacing is None:
        return "AXIAL"
    hi, lo = max(spacing), min(spacing)
    if hi - lo <= 1e-6 * hi:
        return "AXIAL"
    return ("SAGITTAL", "CORONAL", "AXIAL")[list(spacing).index(hi)]


def floor_clamp(value: float, lo: float, hi: float, n: int) -> int:
    return min(max(math.floor((value - lo) / ((hi - lo) / n)), 0), n - 1)


def ti_bin(ti: Optional[float]) -> int:
    if ti is None:
        return 0
    return min(1 + sum(1 for e in TI_EDGES if e < ti), len(TI_EDGES) + 1)


def categorical_key(rec: dict) -> tuple:
    return (
        rec.get("manufacturer", ""),
        rec.get("scanner_model", ""),
        plane_of(rec.get("voxel_spacing_mm")),
        round(rec.get("field_strength_tesla", 0.0), 1),
        rec.get("sequence_type", ""),
        rec.get("sequence_variant", ""),
        round(rec.get("flip_angle_deg", 0.0), 1),
    )


def grid_key(rec: dict, n_te: int, n_tr: int) -> tuple:
    return categorical_key(rec) + (
        floor_clamp(rec["te_ms"], *TE_RANGE, n_te),
        floor_clamp(rec["tr_ms"], *TR_RANGE, n_tr),
        ti_bin(rec.get("ti_ms")),
    )


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_grid_labels(space: dict, records: Sequence[dict], n_te: int, n_tr: int) -> int:
    """Every label key equals the floor-and-clamp key of its members.

    Returns the label count, which must equal the number of distinct keys.
    """
    grid = space["config"]["grid"]
    require((grid["n_te"], grid["n_tr"]) == (n_te, n_tr), f"grid {grid} != {n_te}x{n_tr}")
    require(space["config"]["grouping"] == "grid", "label space is not grid-grouped")
    want = Counter(grid_key(r, n_te, n_tr) for r in records)
    got = {tuple(lab["key"]): lab["count"] for lab in space["labels"]}
    require(len(got) == len(want), f"{len(got)} labels, quantization gives {len(want)} keys")
    require(got == dict(want), "label keys or member counts differ from floor-and-clamp quantization")
    ids = [lab["id"] for lab in space["labels"]]
    require(ids == list(range(len(ids))), "label ids are not dense")
    require([tuple(lab["key"]) for lab in space["labels"]] == sorted(want), "label ids not in sorted key order")
    return len(got)


def check_kmeans_labels(space: dict, records: Sequence[dict], assigned_clusters: np.ndarray) -> None:
    """Each record sits at its brute-force nearest centroid (ties allowed),
    and label counts equal the members assigned to each key."""
    km = space["kmeans"]
    mins = np.asarray(km["mins"], dtype=np.float64)
    ranges = np.asarray(km["ranges"], dtype=np.float64)
    centroids = np.asarray(km["centroids"], dtype=np.float64)
    require(centroids.shape[0] == space["config"]["n_clusters"], "centroid count != n_clusters")
    feats = np.array([
        [r["te_ms"], r["tr_ms"], 0.0 if r.get("ti_ms") is None else 1.0, r.get("ti_ms") or 0.0]
        for r in records
    ])
    x = (feats - mins) / ranges
    d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    best = d2.min(axis=1)
    got = d2[np.arange(len(records)), np.asarray(assigned_clusters)]
    worst = int(np.argmax(got - best))
    require(bool((got <= best + 1e-12 * np.maximum(best, 1.0)).all()),
            f"record {records[worst]['source_id']} at cluster {assigned_clusters[worst]} "
            f"(d2 {got[worst]!r}), nearest is {int(np.argmin(d2[worst]))} (d2 {best[worst]!r})")
    want = Counter(categorical_key(r) + (int(c),) for r, c in zip(records, assigned_clusters))
    got = {tuple(lab["key"]): lab["count"] for lab in space["labels"]}
    require(got == dict(want), "k-means label counts differ from the assigned members")


# --- ingest ------------------------------------------------------------------


def check_ingest(records: Sequence[dict], summary: dict, expected: dict, rejected: dict) -> None:
    """Accepted records round-trip every written field; rejections by type
    equal the malformed inputs injected."""
    require(summary["rejected"] == rejected, f"rejected {summary['rejected']} != injected {rejected}")
    require(summary["accepted"] == len(expected), f"accepted {summary['accepted']} != {len(expected)}")
    require(len(records) == len(expected), f"{len(records)} records written, {len(expected)} expected")
    seen = set()
    for rec in records:
        sid = rec["source_id"]
        require(sid in expected and sid not in seen, f"unexpected or repeated record {sid}")
        seen.add(sid)
        want = expected[sid]
        for name in RECORD_FIELDS:
            require(rec.get(name) == want[name], f"{sid}.{name}: {rec.get(name)!r} != {want[name]!r}")


# --- training log and loss -------------------------------------------------------


def check_train_log(lines: Sequence[str], expected_steps: int) -> None:
    entries = [json.loads(line) for line in lines if line.strip()]
    require(len(entries) == expected_steps, f"{len(entries)} log steps != {expected_steps}")
    require([e["step"] for e in entries] == list(range(1, expected_steps + 1)), "steps not numbered 1..n")
    losses = [e["loss"] for e in entries]
    require(all(math.isfinite(v) for v in losses), "non-finite loss in the log")
    require(losses[-1] < losses[0], f"final loss {losses[-1]} not below first {losses[0]}")


def brute_force_supcon(img: np.ndarray, txt: np.ndarray, labels: np.ndarray, tau: float) -> float:
    """0.5 * mean over both directions of -(1/|P(i)|) sum_p log softmax_p.

    The defining sums, one anchor at a time: no max shift, exact summation.
    """
    labels = np.asarray(labels)
    n = img.shape[0]
    total = 0.0
    for anchors, cands in ((img, txt), (txt, img)):
        for i in range(n):
            logits = (cands @ anchors[i]) / tau
            log_denom = math.log(math.fsum(np.exp(logits).tolist()))
            pos = np.flatnonzero(labels == labels[i])
            total += -math.fsum((logits[pos] - log_denom).tolist()) / pos.size
    return 0.5 * total / n


def check_loss(program: float, reference: float, rel_tol: float = 1e-10) -> None:
    rel = abs(program - reference) / max(abs(reference), 1e-300)
    require(rel <= rel_tol, f"loss {program!r} vs brute force {reference!r}: rel {rel:.3e} > {rel_tol}")


def check_shards(sharded: float, single: float, rel_tol: float = 1e-9) -> None:
    rel = abs(sharded - single) / max(abs(single), 1e-300)
    require(rel <= rel_tol, f"sharded loss {sharded!r} vs single {single!r}: rel {rel:.3e} > {rel_tol}")


# --- evaluation ----------------------------------------------------------------


def check_recalls(report: dict) -> None:
    """Every recall in [0, 1] and non-decreasing in k."""
    for task, by_k in report["recalls"].items():
        ks = sorted(by_k, key=lambda name: int(name[1:]))
        values = [by_k[k] for k in ks]
        require(all(0.0 <= v <= 1.0 for v in values), f"{task} recall outside [0, 1]: {values}")
        require(all(a <= b for a, b in zip(values, values[1:])), f"{task} recall not monotone in k: {values}")


def argmax_r1(queries: np.ndarray, gallery_emb: np.ndarray, gallery_ids: np.ndarray, true_ids: np.ndarray) -> float:
    """R@1 by cosine argmax over a gallery in ascending id order; the first
    maximum wins, so ties go to the lowest label id."""
    require(bool((np.diff(gallery_ids) > 0).all()), "gallery ids not ascending")
    sims = queries @ gallery_emb.T
    top = gallery_ids[np.argmax(sims, axis=1)]
    return int((top == np.asarray(true_ids)).sum()) / len(true_ids)


def check_i2t(report: dict, recomputed: float) -> None:
    got = report["recalls"]["image_to_text"]["r1"]
    require(got == recomputed, f"i2t R@1 {got!r} != recomputed {recomputed!r}")


def check_mae_ms(report: dict, te_width: float, tr_width: float) -> None:
    require(report["te_mae_ms"] == report["te_bin_mae"] * te_width, "te_mae_ms != te_bin_mae * width")
    require(report["tr_mae_ms"] == report["tr_bin_mae"] * tr_width, "tr_mae_ms != tr_bin_mae * width")


def check_floor(name: str, value: float, floor: float) -> None:
    require(value >= floor, f"{name} {value!r} below its floor {floor}")
