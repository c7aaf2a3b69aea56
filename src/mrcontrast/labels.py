"""Grouped contrast-aware labels from acquisition metadata.

Records are grouped either by joint TE/TR grid quantization plus TI binning
(`LabelConfig`) or by k-means over the numerical tags (`KMeansLabelConfig`);
the grouping key also carries the categorical tags. Label ids are dense and
assigned in sorted key order so a label space is a pure function of
(records, config).
"""
from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from operator import itemgetter
from typing import ClassVar, Iterable, Optional, Sequence

import numpy as np

from . import prompts
from .errors import (
    EmptyDataset,
    IncompatibleRanges,
    LabelDecodeFailure,
    MalformedNumeric,
    NonFiniteInput,
)
from .kmeans import KMeansModel, fit_kmeans
from .records import MetadataRecord, Plane, plane_for_record, runs
from .rules import (
    check_fields, float_range_count, instance_of, non_negative_int, one_of, ordered_subset,
    positive_int,
)

# Canonical field order for label keys. Configs may drop fields but never
# reorder them. series_description is deliberately not groupable.
FIELD_ORDER = (
    "manufacturer",
    "scanner_model",
    "plane",
    "field_strength",
    "sequence_type",
    "sequence_variant",
    "flip_angle",
    "te_bin",
    "tr_bin",
    "ti_bin",
)
CATEGORICAL_FIELDS = FIELD_ORDER[:7]

# The value ranges that every TE/TR grid splits, and the TI bin edges.
TE_RANGE_MS = (0.0, 200.0)
TR_RANGE_MS = (0.0, 10000.0)
TI_EDGES_MS = (400.0, 1000.0, 3000.0)
LABEL_FILE_VERSION = 2


@dataclass(frozen=True)
class GridSpec:
    """TE_RANGE_MS and TR_RANGE_MS split into n_te and n_tr uniform,
    half-open bins; a count past the largest float has no bin width."""

    n_te: int = 20
    n_tr: int = 20

    def __post_init__(self):
        check_fields(self, dict(n_te=float_range_count, n_tr=float_range_count))

    @property
    def te_width(self) -> float:
        return (TE_RANGE_MS[1] - TE_RANGE_MS[0]) / self.n_te

    @property
    def tr_width(self) -> float:
        return (TR_RANGE_MS[1] - TR_RANGE_MS[0]) / self.n_tr


def quantize_te_tr(te_ms: float, tr_ms: float, grid: GridSpec) -> tuple[int, int]:
    """Joint TE/TR bin indices; out-of-range values clamp to edge bins. The
    clamp comes before the floor, so an overflowed (inf) quotient clamps too."""
    for v in (te_ms, tr_ms):
        if not math.isfinite(v):
            raise NonFiniteInput(f"cannot quantize non-finite value {v!r}")
    te_bin = math.floor(min(max((te_ms - TE_RANGE_MS[0]) / grid.te_width, 0), grid.n_te - 1))
    tr_bin = math.floor(min(max((tr_ms - TR_RANGE_MS[0]) / grid.tr_width, 0), grid.n_tr - 1))
    return te_bin, tr_bin


def bin_ti(ti_ms: Optional[float]) -> int:
    """TI bin: 0 means no inversion pulse; otherwise 1 + #TI_EDGES_MS below ti."""
    if ti_ms is None:
        return 0
    if not math.isfinite(ti_ms):
        raise NonFiniteInput(f"cannot bin non-finite TI {ti_ms!r}")
    return 1 + sum(1 for e in TI_EDGES_MS if e < ti_ms)


def coarsen_te_tr(
    te_bin: int, tr_bin: int, fine: GridSpec, coarse: GridSpec
) -> tuple[int, int]:
    """Map fine-grid bins onto a coarser grid.

    When the fine bin count is a multiple of the coarse one this is exact
    nesting (floor division); otherwise the fine bin's center is re-quantized.
    Both cases are the same arithmetic: quantize the fine bin center.
    """
    te_center = TE_RANGE_MS[0] + (te_bin + 0.5) * fine.te_width
    tr_center = TR_RANGE_MS[0] + (tr_bin + 0.5) * fine.tr_width
    return quantize_te_tr(te_center, tr_center, coarse)


@dataclass(frozen=True)
class LabelConfig:
    """Grid grouping: the key is ``fields``, categoricals then TE/TR/TI bins."""

    grid: GridSpec = field(default_factory=GridSpec)
    fields: tuple[str, ...] = FIELD_ORDER
    grouping: ClassVar[str] = "grid"

    def __post_init__(self):
        check_fields(self, dict(
            grid=instance_of(GridSpec), fields=ordered_subset(FIELD_ORDER, ("te_bin", "tr_bin")),
        ))

    @property
    def key_fields(self) -> tuple[str, ...]:
        return self.fields


@dataclass(frozen=True)
class KMeansLabelConfig:
    """K-means grouping: the key is the categorical ``fields`` plus the id of
    the record's cluster of (TE, TR, TI)."""

    n_clusters: int = 20
    kmeans_seed: int = 0
    fields: tuple[str, ...] = CATEGORICAL_FIELDS
    grouping: ClassVar[str] = "kmeans"

    def __post_init__(self):
        check_fields(self, dict(
            n_clusters=positive_int, kmeans_seed=non_negative_int,
            fields=ordered_subset(CATEGORICAL_FIELDS),
        ))

    @property
    def key_fields(self) -> tuple[str, ...]:
        return self.fields + ("cluster",)


def _field_value(record: MetadataRecord, name: str):
    if name == "manufacturer":
        return record.manufacturer
    if name == "scanner_model":
        return record.scanner_model
    if name == "plane":
        return plane_for_record(record).label
    if name == "field_strength":
        return prompts.one_decimal(record.field_strength_tesla)
    if name == "sequence_type":
        return record.sequence_type
    if name == "sequence_variant":
        return record.sequence_variant
    if name == "flip_angle":
        return prompts.flip_angle_decimal(record.flip_angle_deg)
    if name == "ti_bin":
        return bin_ti(record.ti_ms)
    raise KeyError(name)


def _run_key(record: MetadataRecord, config: LabelConfig | KMeansLabelConfig) -> tuple:
    """The label key of a run's record: its value for each of
    ``config.key_fields``. A grid quantizes its TE/TR; a k-means key stops
    before its cluster id, which `_with_clusters` appends."""
    if isinstance(config, KMeansLabelConfig):
        return tuple(_field_value(record, f) for f in config.fields)
    te_bin, tr_bin = quantize_te_tr(record.te_ms, record.tr_ms, config.grid)
    derived = {"te_bin": te_bin, "tr_bin": tr_bin}
    return tuple(derived[f] if f in derived else _field_value(record, f) for f in config.fields)


def _run_keys(records: Iterable[MetadataRecord], config: LabelConfig | KMeansLabelConfig) -> tuple:
    """One pass over the runs of one shared record (the slices of a scan):
    lists of each run's `_run_key`, its length and its (te, tr, ti). Equal
    keys share one tuple."""
    keys, lengths, timings, shared = [], [], [], {}
    for record, length in runs(records):
        key = _run_key(record, config)
        keys.append(shared.setdefault(key, key))
        lengths.append(length)
        timings.append((record.te_ms, record.tr_ms, record.ti_ms))
    return keys, lengths, timings


def _with_clusters(keys: list[tuple], feats: np.ndarray, grouper: KMeansGrouper) -> list[tuple]:
    """Each run's key with the cluster id of its `kmeans_features` row
    appended; equal keys share one tuple."""
    clusters = grouper.model.assign(grouper.normalize(feats)).tolist()
    shared: dict[tuple, tuple] = {}
    return [shared.setdefault(key, key) for key in (k + (c,) for k, c in zip(keys, clusters))]


KMEANS_DIM = 4


def kmeans_features(timings: Iterable[tuple]) -> np.ndarray:
    """(te, tr, ti_present, ti or 0) per (te, tr, ti or None) triple, for
    numeric-tag clustering."""
    rows = [(te, tr, ti is not None, 0.0 if ti is None else ti) for te, tr, ti in timings]
    return np.array(rows, dtype=np.float64).reshape(-1, KMEANS_DIM)


@dataclass
class KMeansGrouper:
    """Min-max normalization plus a fitted k-means model."""

    mins: np.ndarray
    ranges: np.ndarray  # zero-spread columns get range 1 (normalize to 0)
    model: KMeansModel

    def __post_init__(self):
        centroids = self.model.centroids
        if not (self.mins.shape == self.ranges.shape == (KMEANS_DIM,)
                and centroids.shape[1:] == (KMEANS_DIM,) and len(centroids) >= 1):
            raise ValueError(f"k-means needs mins and ranges of shape ({KMEANS_DIM},) "
                             f"and centroids of shape (k, {KMEANS_DIM}), k >= 1")
        finite = all(np.isfinite(a).all() for a in (self.mins, self.ranges, centroids))
        if not (finite and (self.ranges > 0).all()):
            raise ValueError("k-means has non-finite values or a non-positive range")

    def normalize(self, feats: np.ndarray) -> np.ndarray:
        return (feats - self.mins) / self.ranges

    @staticmethod
    def fit(feats: np.ndarray, n_clusters: int, seed: int) -> "KMeansGrouper":
        """Normalize (n, KMEANS_DIM) `kmeans_features` and fit k-means on them."""
        mins = feats.min(axis=0)
        spread = feats.max(axis=0) - mins
        ranges = np.where(spread > 0, spread, 1.0)
        model = fit_kmeans((feats - mins) / ranges, n_clusters, seed)
        return KMeansGrouper(mins=mins, ranges=ranges, model=model)


@dataclass(frozen=True)
class ContrastLabel:
    label_id: int
    key: tuple
    canonical_text: str
    count: int
    # (te_ms, tr_ms, ti_ms or None) observed in the member records; the
    # canonical text quotes these, so the gallery never contains numerals
    # absent from the corpus.
    rep: tuple


def median_rep(values: Sequence[tuple], counts: Optional[Sequence[int]] = None) -> tuple:
    """Per-axis median element of (te, tr, ti) triples, the i-th of them
    counted ``counts[i]`` times (once each by default).

    The median is an element of the input (lower middle for even counts), so
    every quoted value occurs verbatim in the data; equal values (0.0 and
    -0.0) keep their input order. TI is reported only when a strict majority
    of members carry an inversion pulse.
    """
    weighted = list(zip(values, counts or [1] * len(values)))

    def median(axis: int):
        members = sorted(((v[axis], c) for v, c in weighted if v[axis] is not None),
                         key=itemgetter(0))
        middle = (sum(c for _, c in members) - 1) // 2
        for value, c in members:
            if middle < c:
                return value
            middle -= c
        return None

    n_ti = sum(c for v, c in weighted if v[2] is not None)
    ti = median(2) if 2 * n_ti > sum(c for _, c in weighted) else None
    return (median(0), median(1), ti)


_CLAUSES_FOR_FIELD = {
    "manufacturer": ("scanner",),
    "scanner_model": ("scanner",),
    "plane": ("plane",),
    "field_strength": ("field",),
    "sequence_type": ("sequence",),
    "sequence_variant": ("sequence",),
    "flip_angle": ("flip_angle",),
    "te_bin": ("te",),
    "tr_bin": ("tr",),
    "ti_bin": ("ti",),
    "cluster": ("te", "tr", "ti"),
}


class LabelSpace:
    """Dense label ids over grouped record keys, plus canonical prompts."""

    def __init__(
        self,
        config: LabelConfig | KMeansLabelConfig,
        keys_with_counts: dict[tuple, int],
        grouper: Optional[KMeansGrouper],
        reps_by_key: dict[tuple, tuple],
    ):
        if not keys_with_counts:
            raise EmptyDataset("no records to build a label space from")
        self.config = config
        self.key_fields = config.key_fields
        self.grouper = grouper
        self.labels: list[ContrastLabel] = []
        self._key_to_id: dict[tuple, int] = {}
        for label_id, key in enumerate(sorted(keys_with_counts)):
            record = representative_record(key, config, reps_by_key[key])
            self.labels.append(ContrastLabel(
                label_id, key, canonical_text(record, config), keys_with_counts[key],
                (record.te_ms, record.tr_ms, record.ti_ms),
            ))
            self._key_to_id[key] = label_id

    def __len__(self) -> int:
        return len(self.labels)

    def assign(self, records: Iterable[MetadataRecord]) -> np.ndarray:
        """Label ids for records, looked up once per run of one shared record;
        unseen keys raise LabelDecodeFailure."""
        keys, lengths, timings = _run_keys(records, self.config)
        if self.grouper is not None:
            keys = _with_clusters(keys, kmeans_features(timings), self.grouper)
        try:
            ids = np.array([self._key_to_id[key] for key in keys], dtype=np.int64)
        except KeyError as exc:
            raise LabelDecodeFailure(f"key not in label space: {exc.args[0]!r}") from None
        return np.repeat(ids, lengths)

    # --- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        """The label file: the config's grouping and settings (a grid's with
        the fixed TE/TR ranges and TI edges), the labels in id order and any
        k-means block."""
        config = dict(asdict(self.config), grouping=self.config.grouping)
        if isinstance(self.config, LabelConfig):
            config["grid"].update(te_lo=TE_RANGE_MS[0], te_hi=TE_RANGE_MS[1],
                                  tr_lo=TR_RANGE_MS[0], tr_hi=TR_RANGE_MS[1])
            config["ti_edges"] = TI_EDGES_MS
        out: dict = {
            "version": LABEL_FILE_VERSION,
            "config": config,
            "labels": [
                dict(id=lab.label_id, key=lab.key, text=lab.canonical_text, count=lab.count,
                     rep=lab.rep)
                for lab in self.labels
            ],
        }
        if self.grouper is not None:
            out["kmeans"] = {
                "mins": self.grouper.mins.tolist(),
                "ranges": self.grouper.ranges.tolist(),
                "centroids": self.grouper.model.centroids.tolist(),
            }
        return out

    def to_json(self) -> str:
        """The label file's text, as `build-labels` writes it and `hash_hex`
        hashes it."""
        return _canonical_json(self.to_json_dict())

    @property
    def hash_hex(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    @staticmethod
    def from_json_dict(obj: dict) -> "LabelSpace":
        """Inverse of `to_json_dict`. The file must declare version 2 and be
        exactly what `to_json` writes for the space it describes, up to
        whitespace and key order; anything else raises LabelDecodeFailure."""
        try:
            version = obj["version"]
            if type(version) is not int or version != LABEL_FILE_VERSION:
                raise LabelDecodeFailure(
                    f"label file version must be {LABEL_FILE_VERSION}, got {version!r}"
                )
            cfg, labels = obj["config"], obj["labels"]
            fields = tuple(cfg["fields"])
            keys = [tuple(lab["key"]) for lab in labels]
            reps = [lab["rep"] for lab in labels]
            grouper = None
            grouping = one_of(("grid", "kmeans"))(cfg["grouping"], "grouping", LabelDecodeFailure)
            if grouping == "grid":
                grid = GridSpec(n_te=cfg["grid"]["n_te"], n_tr=cfg["grid"]["n_tr"])
                config = LabelConfig(grid, fields)
                # a grid key is a function of its rep
                records = (representative_record(k, config, r) for k, r in zip(keys, reps))
                keys = [_run_key(record, config) for record in records]
            else:
                config = KMeansLabelConfig(cfg["n_clusters"], cfg["kmeans_seed"], fields)
                mins, ranges, centroids = (
                    np.asarray(obj["kmeans"][name], dtype=np.float64)
                    for name in ("mins", "ranges", "centroids")
                )
                grouper = KMeansGrouper(mins, ranges, KMeansModel(centroids))
                n = config.n_clusters
                if len(centroids) != n or not all(
                    len(k) == len(config.key_fields) and type(k[-1]) is int and 0 <= k[-1] < n
                    for k in keys
                ):
                    raise LabelDecodeFailure(
                        f"k-means needs n_clusters = {n} centroids and label keys that "
                        "end in a cluster id below it"
                    )
            counts = [positive_int(lab["count"], "count", LabelDecodeFailure) for lab in labels]
            space = LabelSpace(config, dict(zip(keys, counts)), grouper, dict(zip(keys, reps)))
            text = space.to_json()
        except (
            KeyError, TypeError, ValueError, OverflowError, MalformedNumeric, EmptyDataset
        ) as exc:
            raise LabelDecodeFailure(f"malformed label space: {exc!r}") from exc
        if _canonical_json(obj) != text:
            raise LabelDecodeFailure(
                "label file is not what build-labels writes for the space it "
                f"describes: {_first_difference(obj, json.loads(text))} differs"
            )
        return space


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _first_difference(got, want, pointer: str = "") -> str:
    """JSON pointer to the first value at which ``got`` differs from ``want``."""
    steps = ()
    if type(got) is type(want) is dict:
        steps = [(k, got.get(k), want.get(k)) for k in sorted(got.keys() | want.keys())]
    elif type(got) is type(want) is list and len(got) == len(want):
        steps = zip(range(len(got)), got, want)
    for k, g, w in steps:
        if _canonical_json(g) != _canonical_json(w):
            return _first_difference(g, w, f"{pointer}/{k}")
    return pointer or "/"


def representative_record(
    key: tuple, config: LabelConfig | KMeansLabelConfig, rep
) -> MetadataRecord:
    """A record that reproduces the label key, with the observed member
    timings ``rep`` = (te, tr, ti or None); values that break a record rule
    raise MalformedNumeric."""
    values = dict(zip(config.key_fields, key))
    te, tr, ti = rep
    plane = Plane[values["plane"]] if "plane" in values else Plane.AXIAL
    spacing = {
        Plane.SAGITTAL: (5.0, 1.0, 1.0),
        Plane.CORONAL: (1.0, 5.0, 1.0),
        Plane.AXIAL: (1.0, 1.0, 5.0),
    }[plane]
    return MetadataRecord(
        source_id="label",
        manufacturer=str(values.get("manufacturer", "")),
        scanner_model=str(values.get("scanner_model", "")),
        sequence_type=str(values.get("sequence_type", "")),
        sequence_variant=str(values.get("sequence_variant", "")),
        field_strength_tesla=values.get("field_strength", 0.0),
        te_ms=te,
        tr_ms=tr,
        ti_ms=ti,
        flip_angle_deg=values.get("flip_angle", 0.0),
        voxel_spacing_mm=spacing,
    )


def canonical_text(record: MetadataRecord, config: LabelConfig | KMeansLabelConfig) -> str:
    """The training prompt of a label's representative record, kept to the
    clauses of the label's fields."""
    clauses = {c for name in config.key_fields for c in _CLAUSES_FOR_FIELD[name]}
    pieces = prompts.prompt_pieces(record, prompts.PromptConfig())
    return prompts.assemble([p for p in pieces if p.clause in clauses])


def build_label_space(
    records: Iterable[MetadataRecord], config: LabelConfig | KMeansLabelConfig
) -> tuple[LabelSpace, np.ndarray]:
    """Group records into labels; returns the space and per-record ids.

    One pass over ``records`` (`_run_keys`) keeps state per run of one shared
    record, not per record. k-means fits on the runs' features repeated by
    length, the same matrix as one row per record, then appends each run's
    cluster id (`_with_clusters`), as `LabelSpace.assign` does.
    """
    keys, lengths, timings = _run_keys(records, config)
    if not keys:
        raise EmptyDataset("no records")
    grouper = None
    if isinstance(config, KMeansLabelConfig):
        feats = kmeans_features(timings)
        grouper = KMeansGrouper.fit(
            np.repeat(feats, lengths, axis=0), config.n_clusters, config.kmeans_seed)
        keys = _with_clusters(keys, feats, grouper)
    members: dict[tuple, tuple[list, list]] = {}
    for key, timing, length in zip(keys, timings, lengths):
        values, counts = members.setdefault(key, ([], []))
        values.append(timing)
        counts.append(length)
    space = LabelSpace(config, {k: sum(c) for k, (_, c) in members.items()}, grouper,
                       {k: median_rep(v, c) for k, (v, c) in members.items()})
    ids = np.array([space._key_to_id[k] for k in keys], dtype=np.int64)
    return space, np.repeat(ids, lengths)


def coarsened_space(
    space: LabelSpace,
    eval_ids: np.ndarray,
    coarse_grid: GridSpec,
) -> tuple[LabelSpace, np.ndarray, dict[int, int]]:
    """Relabel grid-grouped assignments under a coarser grid.

    Returns the coarse space over the keys present in eval_ids, the coarse id
    per evaluation row, and the fine-id -> coarse-id mapping.
    """
    if not isinstance(space.config, LabelConfig):
        raise IncompatibleRanges("coarsening applies to grid-grouped spaces")
    te_pos, tr_pos = (space.key_fields.index(f) for f in ("te_bin", "tr_bin"))
    coarse_config = replace(space.config, grid=coarse_grid)
    fine_to_coarse_key: dict[int, tuple] = {}
    for lab in space.labels:
        key = list(lab.key)
        key[te_pos], key[tr_pos] = coarsen_te_tr(
            lab.key[te_pos], lab.key[tr_pos], space.config.grid, coarse_grid
        )
        fine_to_coarse_key[lab.label_id] = tuple(key)
    present = Counter(fine_to_coarse_key[int(i)] for i in eval_ids)
    fine_reps: dict[tuple, list] = {}
    for lab in space.labels:
        fine_reps.setdefault(fine_to_coarse_key[lab.label_id], []).append(lab.rep)
    coarse_reps = {k: median_rep(v) for k, v in fine_reps.items()}
    coarse = LabelSpace(coarse_config, dict(present), None, coarse_reps)
    mapping = {
        fid: coarse._key_to_id[k]
        for fid, k in fine_to_coarse_key.items()
        if k in coarse._key_to_id
    }
    coarse_ids = np.array(
        [mapping[int(i)] for i in eval_ids], dtype=np.int64
    )
    return coarse, coarse_ids, mapping
