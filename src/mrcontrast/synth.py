"""Physics-based synthetic scans: spin-echo style signal per tissue channel.

Each scan draws one protocol (a full metadata record) and emits slices whose
features are the per-tissue signal vector under that protocol, modulated by
per-slice tissue mixing weights and additive Gaussian noise. Categorical
acquisition tags (vendor, model, plane, field strength, sequence) also shape
the features through deterministic per-channel gain patterns, hashed from the
tag values; without that, protocols differing only in a categorical tag would
be indistinguishable from image features alone.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import EmptyDataset, EmptyProtocolList, MalformedFeatures, NonFiniteInput
from .labels import TE_RANGE_MS, TR_RANGE_MS, GridSpec
from .records import (
    MetadataRecord,
    decode_manifest_line,
    manifest_lines,
    plane_for_record,
    record_from_dict,
)
from .rules import int64


@dataclass(frozen=True)
class Tissue:
    name: str
    t1_ms: float
    t2_ms: float
    pd: float  # proton density, relative


# Four canonical tissue classes plus eight additional compartments chosen to
# spread T1 across 350..8000 ms and T2 across 30..2800 ms, so every TE/TR
# region of the default protocol grids changes at least a few channels by a
# margin that survives the slice-level mixing nuisance. Twelve channels total,
# fixed once per dataset.
DEFAULT_TISSUES: tuple[Tissue, ...] = (
    Tissue("GM", 1200.0, 80.0, 0.80),
    Tissue("WM", 900.0, 70.0, 0.70),
    Tissue("CSF", 4000.0, 2000.0, 1.00),
    Tissue("FAT", 350.0, 120.0, 0.90),
    Tissue("EDEMA", 1500.0, 110.0, 0.84),
    Tissue("WM_DENSE", 700.0, 55.0, 0.74),
    Tissue("MUSCLE", 1100.0, 40.0, 0.85),
    Tissue("MARROW", 500.0, 150.0, 0.88),
    Tissue("FLUID_SLOW", 6000.0, 2400.0, 1.00),
    Tissue("FLUID_SLOWER", 8000.0, 2800.0, 0.98),
    Tissue("CARTILAGE", 1050.0, 30.0, 0.75),
    Tissue("LIVER", 600.0, 45.0, 0.82),
)


def signal(tissue: Tissue, record: MetadataRecord) -> float:
    """Steady-state signal magnitude for one tissue under one acquisition.

    Without an inversion pulse:
        S = PD * (1 - exp(-TR/T1)) * exp(-TE/T2) * sin(flip angle)
    With one (flip angle does not enter):
        S = PD * (1 - 2*exp(-TI/T1) + exp(-TR/T1)) * exp(-TE/T2)
    The magnitude (absolute value) is returned, as after magnitude
    reconstruction.
    """
    e_te = math.exp(-record.te_ms / tissue.t2_ms)
    e_tr = math.exp(-record.tr_ms / tissue.t1_ms)
    if record.ti_ms is None:
        s = (
            tissue.pd
            * (1.0 - e_tr)
            * e_te
            * math.sin(math.radians(record.flip_angle_deg))
        )
    else:
        e_ti = math.exp(-record.ti_ms / tissue.t1_ms)
        s = tissue.pd * (1.0 - 2.0 * e_ti + e_tr) * e_te
    return abs(s)


@lru_cache(maxsize=1024)
def _pattern(tag: str, value: str, n_channels: int, amp: float) -> np.ndarray:
    """One tag value's gain pattern, drawn once per process (read-only)."""
    import hashlib

    digest = hashlib.blake2b(
        f"{tag}={value}".encode("utf-8"), digest_size=8
    ).digest()
    seed = int.from_bytes(digest, "little")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    out = 1.0 + amp * rng.uniform(-1.0, 1.0, size=n_channels)
    out.flags.writeable = False
    return out


def channel_gain(record: MetadataRecord, n_channels: int) -> np.ndarray:
    """Deterministic per-channel gain from the categorical tags.

    Field strength contributes only a scalar amplitude factor (B0/1.5), the
    way signal-to-noise actually scales with B0; vendor, model, plane and
    sequence tags contribute per-channel patterns.
    """
    gain = np.ones(n_channels, dtype=np.float64)
    if record.field_strength_tesla > 0:
        gain *= record.field_strength_tesla / 1.5
    plane = plane_for_record(record).label
    for tag, value, amp in (
        ("manufacturer", record.manufacturer, 0.12),
        ("scanner_model", record.scanner_model, 0.12),
        ("plane", plane, 0.10),
        ("sequence_type", record.sequence_type, 0.08),
        ("sequence_variant", record.sequence_variant, 0.08),
    ):
        gain *= _pattern(tag, value, n_channels, amp)
    return gain


def expected_features(
    record: MetadataRecord, tissues: Sequence[Tissue] = DEFAULT_TISSUES
) -> np.ndarray:
    """Noise-free mean feature vector for a protocol (mixing weights mean 1)."""
    base = np.array([signal(t, record) for t in tissues], dtype=np.float64)
    return base * channel_gain(record, len(tissues))


@dataclass(frozen=True)
class SyntheticSlice:
    record: MetadataRecord
    scan_id: int
    slice_index: int
    features: np.ndarray

    def to_json_line(self) -> str:
        obj = self.record.to_dict()
        obj["scan_id"] = self.scan_id
        obj["slice_index"] = self.slice_index
        obj["features"] = [float(v) for v in self.features]
        return json.dumps(obj, sort_keys=True)


# Each slice scales every tissue channel by its own uniform draw from
# [MIX_LO, MIX_HI): the slice-level mixing nuisance.
MIX_LO = 0.95
MIX_HI = 1.05


@dataclass(frozen=True)
class SynthConfig:
    n_scans: int = 1000
    slices_per_scan: int = 10
    noise_sigma: float = 0.005
    seed: int = 0


def generate_dataset(
    protocols: Sequence[MetadataRecord],
    config: SynthConfig,
    tissues: Sequence[Tissue] = DEFAULT_TISSUES,
) -> list[SyntheticSlice]:
    """Draw scans uniformly over the protocol list and synthesize slices.

    Bit-for-bit deterministic given config.seed: every scan derives its own
    RNG stream from (seed, scan_id), so generation order (or parallelism)
    cannot change the output.
    """
    if not protocols:
        raise EmptyProtocolList("protocol list is empty")
    k = len(tissues)
    slices: list[SyntheticSlice] = []
    for scan_id in range(config.n_scans):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((config.seed, scan_id)))
        )
        protocol = protocols[int(rng.integers(len(protocols)))]
        record = replace(
            protocol,
            source_id=f"scan{scan_id:05d}",
            num_slices=config.slices_per_scan,
        )
        base = expected_features(record, tissues)
        for s in range(config.slices_per_scan):
            mix = rng.uniform(MIX_LO, MIX_HI, size=k)
            noise = rng.normal(0.0, config.noise_sigma, size=k)
            slices.append(
                SyntheticSlice(
                    record=record,
                    scan_id=scan_id,
                    slice_index=s,
                    features=mix * base + noise,
                )
            )
    return slices


# Protocol timings span the label grid's TE/TR ranges; half the protocols
# carry an inversion pulse (IR) and half do not (SE).
INVERSION_TIMES_MS: tuple[Optional[float], ...] = (None, 150.0)
FLIP_ANGLE_DEG = 90.0


def default_protocols(
    n_te_cells: int = 5,
    n_tr_cells: int = 5,
    scanners: Sequence[tuple[str, str]] = (("SIEMENS", "AVANTO"), ("GE", "SIGNA")),
    field_strengths: Sequence[float] = (1.5, 3.0),
    offsets: Sequence[tuple[float, float]] = ((0.0, 0.0),),
) -> list[MetadataRecord]:
    """Protocols at TE/TR cell centers, crossed with the categorical options.

    The default 5x5 x 2 scanners x 2 fields x 2 inversion states gives 200
    distinct acquisition configurations spanning the default label grid.

    ``offsets`` replicates every cell's protocol at (te + dte, tr + dtr) for
    each (dte, dtr) pair. Small offsets model sites running near-identical
    protocols whose timings differ by a few milliseconds, the situation where
    fine quantization splits physically similar scans into separate labels.
    """
    grid = GridSpec(n_te_cells, n_tr_cells)
    protocols = []
    for i in range(n_te_cells):
        te = TE_RANGE_MS[0] + (i + 0.5) * grid.te_width
        for j in range(n_tr_cells):
            tr = TR_RANGE_MS[0] + (j + 0.5) * grid.tr_width
            for dte, dtr in offsets:
                for mfr, model in scanners:
                    for fs in field_strengths:
                        for ti in INVERSION_TIMES_MS:
                            protocols.append(
                                MetadataRecord(
                                    "protocol",
                                    manufacturer=mfr,
                                    scanner_model=model,
                                    sequence_type="IR" if ti is not None else "SE",
                                    sequence_variant="SK",
                                    field_strength_tesla=fs,
                                    te_ms=te + dte,
                                    tr_ms=tr + dtr,
                                    ti_ms=ti,
                                    flip_angle_deg=FLIP_ANGLE_DEG,
                                    voxel_spacing_mm=(1.0, 1.0, 5.0),
                                )
                            )
    return protocols


def write_dataset(slices: Iterable[SyntheticSlice], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in slices:
            fh.write(s.to_json_line() + "\n")


def load_dataset(path: str) -> list[SyntheticSlice]:
    """Read a JSON-lines dataset back into slices, decoding each line once.

    Every line must be UTF-8 JSON (else MalformedJson) and needs
    ``features``: a list of numbers as long as the first line's (else
    MalformedFeatures), all of them finite (else NonFiniteInput, a numerical
    error like other non-finite input). ``scan_id`` and ``slice_index``, 0
    when absent, must be ints that fit in int64 (else MalformedFeatures); a
    file without lines raises EmptyDataset. A scan's slices share one record.
    """
    out: list[SyntheticSlice] = []
    record = None
    for number, line in manifest_lines(path):
        obj = decode_manifest_line(line, number)
        record = record_from_dict(obj, number, record)
        try:
            features = np.asarray(obj["features"], dtype=np.float64)
            scan_id = int64(obj.get("scan_id", 0), "scan_id")
            slice_index = int64(obj.get("slice_index", 0), "slice_index")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MalformedFeatures(f"line {number}: {exc!r}") from exc
        if features.ndim != 1 or features.size == 0:
            raise MalformedFeatures(f"line {number}: features must be a non-empty list")
        if out and features.size != out[0].features.size:
            raise MalformedFeatures(f"line {number}: feature count differs from row 1's")
        if not np.isfinite(features).all():
            raise NonFiniteInput(f"line {number}: non-finite features")
        out.append(SyntheticSlice(record, scan_id, slice_index, features))
    if not out:
        raise EmptyDataset(f"{path}: no records")
    return out
