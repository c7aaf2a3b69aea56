"""Canonical metadata records and the geometry helpers derived from them.

A record is the pipeline's common currency: the DICOM parser, the JSON
manifest reader and the synthetic generator all produce `MetadataRecord`
instances in canonical form (strings trimmed and uppercased, numerics
validated), so every downstream stage can treat equality as semantic equality.
"""
from __future__ import annotations

import enum
import json
import math
import sys
from dataclasses import dataclass, fields
from typing import Any, Iterable, Iterator, Optional, Sequence, Union

from .errors import (
    DataError,
    MalformedJson,
    MalformedNumeric,
    NonPositiveSpacing,
)
from .rules import positive_int

ISOTROPY_REL_TOL = 1e-6


class Plane(enum.Enum):
    SAGITTAL = 0
    CORONAL = 1
    AXIAL = 2

    @property
    def label(self) -> str:
        """Canonical uppercase name used in label keys."""
        return self.name

    @property
    def word(self) -> str:
        """Lowercase name used in prompt text."""
        return self.name.lower()


def canonical_string(value: str, name: str = "value") -> str:
    """Trim, uppercase and intern, so equal values share one object. Idempotent:
    f(f(x)) == f(x). A value that is not a string raises MalformedJson naming the field."""
    if not isinstance(value, str):
        raise MalformedJson(f"{name} is not a string: {value!r}")
    return sys.intern(value.strip().upper())


@dataclass(frozen=True)
class MetadataRecord:
    """One acquisition's metadata, validated and put in canonical form on
    construction (strings trimmed and uppercased, numbers as floats, spacing
    as a 3-tuple of floats), so equal records mean equal acquisitions.

    Raises:
        MalformedJson: a text field (manufacturer, scanner model, series
            description, sequence type or variant) is not a string.
        MalformedNumeric: a numeric field is non-finite or out of domain
            (te/tr < 0, ti <= 0, field strength < 0, flip angle outside
            [0, 360)), or num_slices is not an int of at least 1.
        NonPositiveSpacing: voxel spacing has a non-positive component.
    """

    source_id: str
    manufacturer: str = ""
    scanner_model: str = ""
    series_description: Optional[str] = None
    sequence_type: str = ""
    sequence_variant: str = ""
    field_strength_tesla: float = 0.0
    te_ms: float = 0.0
    tr_ms: float = 0.0
    ti_ms: Optional[float] = None  # absent <=> no inversion pulse, never 0
    flip_angle_deg: float = 0.0
    voxel_spacing_mm: Optional[tuple[float, float, float]] = None
    num_slices: Optional[int] = None

    def __post_init__(self) -> None:
        te = _check_finite("te_ms", self.te_ms)
        tr = _check_finite("tr_ms", self.tr_ms)
        if te < 0 or tr < 0:
            raise MalformedNumeric(f"te_ms/tr_ms must be >= 0, got {te}, {tr}")
        fs = _check_finite("field_strength_tesla", self.field_strength_tesla)
        if fs < 0:
            raise MalformedNumeric(f"field_strength_tesla must be >= 0, got {fs}")
        fa = _check_finite("flip_angle_deg", self.flip_angle_deg)
        if not (0.0 <= fa < 360.0):
            raise MalformedNumeric(f"flip_angle_deg must be in [0, 360), got {fa}")
        ti = self.ti_ms
        if ti is not None:
            ti = _check_finite("ti_ms", ti)
            if ti <= 0:
                # an inversion pulse at TI=0 is meaningless; absence means no pulse
                raise MalformedNumeric(f"ti_ms must be > 0 when present, got {ti}")
        spacing = self.voxel_spacing_mm
        if spacing is not None:
            spacing = tuple(_check_finite("voxel_spacing_mm", v) for v in spacing)
            if len(spacing) != 3:
                raise MalformedNumeric(
                    f"voxel_spacing_mm needs 3 components, got {len(spacing)}"
                )
            if any(v <= 0 for v in spacing):
                raise NonPositiveSpacing(f"voxel spacing must be > 0, got {list(spacing)}")
        if self.num_slices is not None:
            positive_int(self.num_slices, "num_slices", MalformedNumeric)
        set_ = object.__setattr__  # the class is frozen
        set_(self, "source_id", str(self.source_id))
        set_(self, "manufacturer", canonical_string(self.manufacturer, "manufacturer"))
        set_(self, "scanner_model", canonical_string(self.scanner_model, "scanner_model"))
        if self.series_description is not None:
            set_(self, "series_description",
                 canonical_string(self.series_description, "series_description"))
        set_(self, "sequence_type", canonical_string(self.sequence_type, "sequence_type"))
        set_(self, "sequence_variant", canonical_string(self.sequence_variant, "sequence_variant"))
        set_(self, "field_strength_tesla", fs)
        set_(self, "te_ms", te)
        set_(self, "tr_ms", tr)
        set_(self, "ti_ms", ti)
        set_(self, "flip_angle_deg", fa)
        set_(self, "voxel_spacing_mm", spacing)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dict; optional fields are omitted when absent."""
        out = {k: v for k in _RECORD_FIELDS if (v := getattr(self, k)) is not None}
        if self.voxel_spacing_mm is not None:
            out["voxel_spacing_mm"] = list(self.voxel_spacing_mm)
        return out


def _check_finite(name: str, value: float) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise MalformedNumeric(f"{name} is not numeric: {value!r}") from exc
    if not math.isfinite(value):
        raise MalformedNumeric(f"{name} is not finite: {value!r}")
    return value


_RECORD_FIELDS = dict.fromkeys(f.name for f in fields(MetadataRecord))  # ordered, O(1) `in`


def manifest_lines(path) -> Iterator[tuple[int, bytes]]:
    """(line number from 1, raw bytes) of each non-blank line of a JSON-lines
    file; manifests and datasets are read through here and decoded by
    `decode_manifest_line`, so a bad byte is a typed error, not a crash."""
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            if line.strip():
                yield number, line


def decode_manifest_line(line: Union[str, bytes], number: int = 1) -> Any:
    """The JSON value of one line; bytes that are not UTF-8, or text that is
    not JSON, raise MalformedJson naming the line number."""
    try:
        return json.loads(line.decode("utf-8") if isinstance(line, bytes) else line)
    except ValueError as exc:  # UnicodeDecodeError or json.JSONDecodeError
        raise MalformedJson(f"line {number}: not UTF-8 JSON: {exc}") from exc


def parse_manifest_line(line: Union[str, bytes], number: int = 1, previous=None) -> MetadataRecord:
    """`record_from_dict` of `decode_manifest_line`."""
    return record_from_dict(decode_manifest_line(line, number), number, previous)


def record_from_dict(obj: Any, number: int = 1, previous=None) -> MetadataRecord:
    """Validate one decoded manifest entry into a canonical record.

    Unknown keys are ignored so feature-bearing dataset files remain valid
    manifests. Raises MalformedJson when the value is not a JSON object or
    lacks source_id/te_ms/tr_ms; the record's own validation errors propagate.
    Every error names line `number`. Loaders pass the previous line's record
    as `previous`; an entry that would build it again (`_builds_again`) gets
    it back, so the slices of one scan share one record.
    """
    if not isinstance(obj, dict):
        raise MalformedJson(f"line {number}: manifest line must be a JSON object")
    values = {k: obj[k] for k in _RECORD_FIELDS if k in obj}  # in `to_dict` order
    if previous is not None and _builds_again(values, previous):
        return previous
    for required in ("source_id", "te_ms", "tr_ms"):
        if obj.get(required) is None:
            raise MalformedJson(f"line {number}: manifest line lacks required field {required}")
    try:
        return MetadataRecord(**values)
    except TypeError as exc:
        raise MalformedJson(f"line {number}: bad field type: {exc}") from exc
    except DataError as exc:
        raise type(exc)(f"line {number}: {exc}") from exc


def _builds_again(values: dict, record: MetadataRecord) -> bool:
    """Whether entry fields `values` are exactly `record.to_dict()`: equal
    values of equal JSON types (1, 1.0 and true differ), zeros compared by
    repr as 0.0 == -0.0. Spacing items need only be equal: they become floats."""
    if values.get("source_id") != record.source_id:  # another scan: fail fast
        return False
    canon = record.to_dict()
    return (values == canon
            and list(map(type, values.values())) == list(map(type, canon.values()))
            and (0.0 not in canon.values() or repr(values) == repr(canon)))


def runs(records: Iterable[MetadataRecord]) -> Iterator[tuple[MetadataRecord, int]]:
    """(record, length) for each run of one shared record object (the slices
    of a scan), in order, holding one record at a time. Equal records that are
    distinct objects are separate runs: sharing is by identity, not equality."""
    run, length = None, 0
    for record in records:
        if record is not run:
            if length:
                yield run, length
            run, length = record, 0
        length += 1
    if length:
        yield run, length


def infer_plane(spacing: Sequence[float]) -> Plane:
    """Infer the acquisition plane from voxel spacing.

    The through-plane axis is the one with the largest spacing: axis 0 ->
    sagittal, 1 -> coronal, 2 -> axial. Spacings all equal within relative
    tolerance 1e-6 count as isotropic and default to axial; a tie on the
    maximum otherwise resolves to the lowest axis index.

    Raises:
        NonPositiveSpacing: any component <= 0 or non-finite.
    """
    vals = [float(v) for v in spacing]
    if len(vals) != 3 or any(not math.isfinite(v) or v <= 0 for v in vals):
        raise NonPositiveSpacing(f"spacing must be 3 positive values, got {vals}")
    hi, lo = max(vals), min(vals)
    if hi - lo <= ISOTROPY_REL_TOL * hi:
        return Plane.AXIAL
    return Plane(vals.index(hi))


def plane_for_record(record: MetadataRecord) -> Plane:
    """Plane used in label keys; records without spacing default to axial."""
    if record.voxel_spacing_mm is None:
        return Plane.AXIAL
    return infer_plane(record.voxel_spacing_mm)
