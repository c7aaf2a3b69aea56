"""The ingest_kmeans input corpus: DICOM headers and JSONL manifests.

Every byte is written here, independently of the parser under test, so the
expected record for each accepted file is known before `ingest` runs. A fixed
number of files per malformation kind is injected, so the expected rejection
counts do not depend on the seed.
"""
from __future__ import annotations

import json
import random
import struct
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional

TRANSFER_SYNTAX = b"1.2.840.10008.1.2.1"
LONG_VRS = {"OB", "OD", "OF", "OL", "OV", "OW", "SQ", "UN"}

# (sequence type, variant, TE range, TR range, TI range or None, flip angles)
FAMILIES = (
    ("SE", "SK", (8.0, 20.0), (400.0, 700.0), None, (90.0,)),
    ("SE", "SK", (80.0, 120.0), (3000.0, 6000.0), None, (90.0, 150.0)),
    ("SE", "SK", (15.0, 40.0), (2000.0, 4000.0), None, (90.0,)),
    ("IR", "SK", (80.0, 140.0), (8000.0, 11000.0), (2000.0, 2800.0), (90.0, 150.0)),
    ("IR", "SK", (30.0, 70.0), (3000.0, 6000.0), (130.0, 220.0), (90.0,)),
    ("GR", "SP", (2.0, 30.0), (20.0, 800.0), None, (10.0, 30.0, 60.0)),
)
SCANNERS = (("SIEMENS", "AVANTO"), ("SIEMENS", "SKYRA"), ("GE", "SIGNA"), ("PHILIPS", "INGENIA"))
FIELDS = ("1.5", "3")
# (pixel spacing text, slice thickness text); the last entry omits both tags
SPACINGS = (("0.5\\0.5", "5"), ("0.9\\0.9", "3"), ("1\\1", "1"), ("4\\1", "1"), ("1\\4", "1"), (None, None))
SERIES = ("t1_se", "t2_tse", "pd_tse", "flair", "stir", "gre")

# malformation kind -> error type name that ingest --skip-bad must report
DICOM_FAULTS = {
    "truncated": "TruncatedElement",
    "missing_te": "MissingRequiredTag",
    "bad_magic": "MissingMagic",
    "bad_ds": "MalformedNumeric",
}
MANIFEST_FAULT = "MalformedJson"


@dataclass(frozen=True)
class CorpusSize:
    dicom_files: int
    dicom_dirs: int
    manifest_files: int
    manifest_lines: int  # per file
    faults_per_kind: int  # per DICOM kind; also bad lines per manifest file


FULL = CorpusSize(10000, 10, 4, 500, 50)
MINI = CorpusSize(120, 2, 2, 20, 2)


@dataclass
class Corpus:
    """What was written: expected records by source id, rejections by type."""

    expected: dict[str, dict]
    rejected: dict[str, int]


@lru_cache(maxsize=4096)  # most values repeat; TE/TR/TI text mostly does not
def _element(group: int, elem: int, vr: str, value: bytes) -> bytes:
    if len(value) % 2:
        value += b"\x00" if vr in ("UI", "OB", "UN") else b" "
    head = struct.pack("<HH", group, elem) + vr.encode("ascii")
    if vr in LONG_VRS:
        return head + b"\x00\x00" + struct.pack("<I", len(value)) + value
    return head + struct.pack("<H", len(value)) + value


def _draw_fields(rng: random.Random) -> dict[str, Optional[str]]:
    """Header values as the DICOM text the file will carry."""
    seq, variant, te_r, tr_r, ti_r, flips = rng.choice(FAMILIES)
    mfr, model = rng.choice(SCANNERS)
    pix, thick = rng.choice(SPACINGS)
    flip = rng.choice(flips)
    return {
        "manufacturer": mfr.lower() if rng.random() < 0.3 else mfr,
        "scanner_model": model,
        "series_description": rng.choice(SERIES) + " ",
        "sequence_type": seq,
        "sequence_variant": variant,
        "te": f"{rng.uniform(*te_r):.2f}",
        "tr": f"{rng.uniform(*tr_r):.1f}",
        "ti": None if ti_r is None else f"{rng.uniform(*ti_r):.1f}",
        "field": rng.choice(FIELDS),
        "flip": f"{flip:g}",
        "pixel_spacing": pix,
        "thickness": thick,
    }


def expected_record(source_id: str, f: dict) -> dict:
    """The canonical record the pipeline must produce from these values."""
    spacing = None
    if f["pixel_spacing"] is not None:
        row, col = (float(v) for v in f["pixel_spacing"].split("\\"))
        spacing = [row, col, float(f["thickness"])]
    return {
        "source_id": source_id,
        "manufacturer": f["manufacturer"].strip().upper(),
        "scanner_model": f["scanner_model"].strip().upper(),
        "series_description": f["series_description"].strip().upper(),
        "sequence_type": f["sequence_type"],
        "sequence_variant": f["sequence_variant"],
        "field_strength_tesla": float(f["field"]),
        "te_ms": float(f["te"]),
        "tr_ms": float(f["tr"]),
        "ti_ms": None if f["ti"] is None else float(f["ti"]),
        "flip_angle_deg": float(f["flip"]),
        "voxel_spacing_mm": spacing,
    }


def dicom_bytes(f: dict, fault: Optional[str] = None, rng: Optional[random.Random] = None) -> bytes:
    """Explicit-VR little-endian part-10 file, tags in ascending order."""
    te = f["te"]
    if fault == "bad_ds":
        te = te.replace(".", ",")
    parts = [
        _element(0x0002, 0x0010, "UI", TRANSFER_SYNTAX),
        _element(0x0008, 0x0060, "CS", b"MR"),
        _element(0x0008, 0x0070, "LO", f["manufacturer"].encode()),
        _element(0x0008, 0x103E, "LO", f["series_description"].encode()),
        _element(0x0008, 0x1090, "LO", f["scanner_model"].encode()),
        _element(0x0018, 0x0020, "CS", f["sequence_type"].encode()),
        _element(0x0018, 0x0021, "CS", f["sequence_variant"].encode()),
    ]
    if f["thickness"] is not None:
        parts.append(_element(0x0018, 0x0050, "DS", f["thickness"].encode()))
    parts.append(_element(0x0018, 0x0080, "DS", f["tr"].encode()))
    if fault != "missing_te":
        parts.append(_element(0x0018, 0x0081, "DS", te.encode()))
    if f["ti"] is not None:
        parts.append(_element(0x0018, 0x0082, "DS", f["ti"].encode()))
    parts.append(_element(0x0018, 0x0087, "DS", f["field"].encode()))
    parts.append(_element(0x0018, 0x1314, "DS", f["flip"].encode()))
    if f["pixel_spacing"] is not None:
        parts.append(_element(0x0028, 0x0030, "DS", f["pixel_spacing"].encode()))
    # an unread long-VR element the reader must skip by length
    parts.append(_element(0x0029, 0x1010, "OB", bytes(range(24))))
    # the last element is long, so a cut inside it is a truncated value
    parts.append(_element(0x0040, 0x0254, "LO", b"PERFORMED PROCEDURE DESCRIPTION"))
    magic = b"DICN" if fault == "bad_magic" else b"DICM"
    data = b"\x00" * 128 + magic + b"".join(parts)
    if fault == "truncated":
        data = data[: len(data) - (rng.randint(2, 20) if rng else 10)]
    return data


def build_corpus(seed: int, size: CorpusSize = FULL) -> tuple[dict[str, bytes], Corpus]:
    """Every file's bytes by path under the corpus root, and what they hold:
    DICOM files under dicom/, manifests under manifests/."""
    rng = random.Random(seed)
    files: dict[str, bytes] = {}
    expected: dict[str, dict] = {}
    rejected = {name: size.faults_per_kind for name in DICOM_FAULTS.values()}
    rejected[MANIFEST_FAULT] = size.faults_per_kind * size.manifest_files

    order = list(range(size.dicom_files))
    rng.shuffle(order)
    fault_of: dict[int, str] = {}
    for k, kind in enumerate(DICOM_FAULTS):
        for i in order[k * size.faults_per_kind : (k + 1) * size.faults_per_kind]:
            fault_of[i] = kind

    for i in range(size.dicom_files):
        name = f"im{i:06d}.dcm"
        fields = _draw_fields(rng)
        fault = fault_of.get(i)
        files[f"dicom/series{i % size.dicom_dirs:03d}/{name}"] = dicom_bytes(fields, fault, rng)
        if fault is None:
            expected[name] = expected_record(name, fields)

    for m in range(size.manifest_files):
        bad = set(rng.sample(range(size.manifest_lines), size.faults_per_kind))
        lines = []
        for j in range(size.manifest_lines):
            sid = f"m{m:02d}_{j:05d}"
            if j in bad:
                lines.append('{"source_id": "' + sid + '", "te_ms": 12.5,')
                continue
            rec = expected_record(sid, _draw_fields(rng))
            expected[sid] = rec
            lines.append(json.dumps({k: v for k, v in rec.items() if v is not None}))
        files[f"manifests/site{m:02d}.jsonl"] = ("\n".join(lines) + "\n").encode("utf-8")
    return files, Corpus(expected=expected, rejected=rejected)


def write_corpus(root: Path, seed: int, size: CorpusSize = FULL) -> Corpus:
    """Write the corpus of `seed` under root and return what it holds."""
    files, written = build_corpus(seed, size)
    for d in {str(Path(rel).parent) for rel in files}:
        (root / d).mkdir(parents=True, exist_ok=True)
    for rel, data in files.items():
        (root / rel).write_bytes(data)
    return written
