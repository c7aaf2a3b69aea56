"""Minimal DICOM part-10 reader for acquisition metadata.

Scope is deliberately narrow: explicit-VR little-endian files only, no pixel
decoding, and only top-level elements are read. Twelve tags are extracted;
everything else is skipped by length. An undefined-length value (a sequence,
encapsulated pixel data, an undefined-length UN) is skipped by walking its
items and counting nesting depth until the delimiter that closes it, without
recursion. Anything outside that envelope should be converted with standard
tooling and handed to the JSON manifest path instead.
"""
from __future__ import annotations

import re
import struct
from typing import Iterator, Optional

from .errors import (
    MalformedNumeric,
    MissingMagic,
    MissingRequiredTag,
    TruncatedElement,
    UnsupportedTransferSyntax,
)
from .records import MetadataRecord

PREAMBLE_LEN = 128
MAGIC = b"DICM"
EXPLICIT_VR_LE_UID = "1.2.840.10008.1.2.1"

# explicit VRs with 2 reserved bytes and a 4-byte length (PS3.5 7.1.2)
LONG_LENGTH_VRS = frozenset("OB OD OF OL OV OW SQ SV UC UN UR UT UV".split())

UNDEFINED_LENGTH = 0xFFFFFFFF
DELIMITERS = frozenset({(0xFFFE, 0xE00D), (0xFFFE, 0xE0DD)})  # item, sequence

# every well-formed VR (two capitals) -> (VR, uses the 4-byte length)
_CAPS = range(ord("A"), ord("Z") + 1)
_VRS = {
    bytes((a, b)): (chr(a) + chr(b), chr(a) + chr(b) in LONG_LENGTH_VRS)
    for a in _CAPS
    for b in _CAPS
}

TAG_TRANSFER_SYNTAX = (0x0002, 0x0010)
TAG_MANUFACTURER = (0x0008, 0x0070)
TAG_MODEL = (0x0008, 0x1090)
TAG_SERIES_DESCRIPTION = (0x0008, 0x103E)
TAG_SEQUENCE_TYPE = (0x0018, 0x0020)
TAG_SEQUENCE_VARIANT = (0x0018, 0x0021)
TAG_TR = (0x0018, 0x0080)
TAG_TE = (0x0018, 0x0081)
TAG_TI = (0x0018, 0x0082)
TAG_FIELD_STRENGTH = (0x0018, 0x0087)
TAG_FLIP_ANGLE = (0x0018, 0x1314)
TAG_SLICE_THICKNESS = (0x0018, 0x0050)
TAG_PIXEL_SPACING = (0x0028, 0x0030)

_WANTED = {
    TAG_TRANSFER_SYNTAX,
    TAG_MANUFACTURER,
    TAG_MODEL,
    TAG_SERIES_DESCRIPTION,
    TAG_SEQUENCE_TYPE,
    TAG_SEQUENCE_VARIANT,
    TAG_TR,
    TAG_TE,
    TAG_TI,
    TAG_FIELD_STRENGTH,
    TAG_FLIP_ANGLE,
    TAG_SLICE_THICKNESS,
    TAG_PIXEL_SPACING,
}

# DICOM DS grammar: optional sign, digits with optional fraction, optional
# exponent. float() alone is too permissive (accepts "nan", "1_0").
_DS_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$")


_TAG_VR = struct.Struct("<HH2s")
_TAG_LENGTH = struct.Struct("<HHI")  # item headers; elements in implicit VR
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


def _truncated(pos: int, need: int, end: int) -> TruncatedElement:
    return TruncatedElement(
        f"need {need} bytes at offset {pos}, have {max(end - pos, 0)}"
    )


def _explicit_header(data: bytes, pos: int, end: int) -> tuple[int, int, str, int, int]:
    """(group, element, VR, length, value offset) of the element at pos."""
    if pos + 6 > end:
        raise _truncated(pos, 6, end)
    group, elem, raw = _TAG_VR.unpack_from(data, pos)
    if raw not in _VRS:
        # explicit VR is the only supported encoding; a non-letter VR
        # field almost always means an implicit-VR dataset
        raise UnsupportedTransferSyntax(
            f"bad VR {raw.decode('ascii', errors='replace')!r} at offset "
            f"{pos + 4}; only explicit-VR little endian is supported"
        )
    vr, long_length = _VRS[raw]
    if long_length:  # 2 reserved bytes, then a 4-byte length
        if pos + 12 > end:
            raise _truncated(pos + 6, 6, end)
        return group, elem, vr, _U32.unpack_from(data, pos + 8)[0], pos + 12
    if pos + 8 > end:
        raise _truncated(pos + 6, 2, end)
    return group, elem, vr, _U16.unpack_from(data, pos + 6)[0], pos + 8


def _skip_undefined_length(data: bytes, pos: int, implicit: bool) -> int:
    """Offset just past the delimiter closing the undefined-length value
    whose contents start at pos.

    Each undefined-length value inside (item, sequence, UN) opens a level and
    each item or sequence delimiter closes one; everything else is skipped
    by its length. Elements are explicit VR, except inside an undefined-length
    UN, whose contents are implicit VR (tag + 4-byte length) by PS3.5 6.2.2.
    """
    end = len(data)
    depth = 1
    implicit_depth = 1 if implicit else 0  # shallowest implicit level, 0: none
    while depth:
        if pos + 8 > end:
            raise _truncated(pos, 8, end)
        group, elem, length = _TAG_LENGTH.unpack_from(data, pos)
        vr = ""
        if group == 0xFFFE or implicit_depth:
            pos += 8
        else:
            group, elem, vr, length, pos = _explicit_header(data, pos, end)
        if (group, elem) in DELIMITERS:
            depth -= 1
            if depth < implicit_depth:
                implicit_depth = 0
        elif length == UNDEFINED_LENGTH:
            depth += 1
            if vr == "UN" and not implicit_depth:
                implicit_depth = depth
        else:  # a value running past the end fails the next header read
            pos += length
    return pos


def iter_elements(data: bytes) -> Iterator[tuple[int, int, str, bytes]]:
    """Yield (group, element, vr, value bytes) for every top-level element.

    Raises MissingMagic if the part-10 preamble/magic is absent,
    TruncatedElement if the buffer ends inside a header or value field, and
    UnsupportedTransferSyntax at the first VR that is not two capitals.
    """
    if len(data) < PREAMBLE_LEN + len(MAGIC):
        raise MissingMagic("file shorter than preamble + magic")
    if data[PREAMBLE_LEN : PREAMBLE_LEN + 4] != MAGIC:
        raise MissingMagic("DICM magic not found after 128-byte preamble")
    pos, end = PREAMBLE_LEN + len(MAGIC), len(data)
    while pos < end:
        group, elem, vr, length, pos = _explicit_header(data, pos, end)
        if length == UNDEFINED_LENGTH:
            pos = _skip_undefined_length(data, pos, vr == "UN")
            yield group, elem, vr, b""
            continue
        if pos + length > end:
            raise _truncated(pos, length, end)
        yield group, elem, vr, data[pos : pos + length]
        pos += length


def _decode_string(raw: bytes) -> str:
    return raw.decode("latin-1").strip("\x00").strip()


def parse_ds(raw: bytes, tag_name: str) -> list[float]:
    """Parse a decimal string (possibly multi-valued, split on backslash)."""
    text = _decode_string(raw)
    if not text:
        return []
    values = []
    for part in text.split("\\"):
        part = part.strip()
        if not _DS_RE.match(part):
            raise MalformedNumeric(f"{tag_name}: bad decimal string {part!r}")
        values.append(float(part))
    return values


def _single_ds(raw: bytes, tag_name: str) -> Optional[float]:
    values = parse_ds(raw, tag_name)
    return values[0] if values else None


def parse_dicom_tags(data: bytes, source_id: str = "") -> MetadataRecord:
    """Extract acquisition metadata from a part-10 DICOM buffer.

    Only the twelve tags the pipeline consumes are read; unknown elements
    are skipped by their declared length. TE and TR are required (a present
    but empty value counts as missing). An absent or empty TI means no
    inversion pulse. Voxel spacing is (row, column, slice thickness) and is
    reported only when pixel spacing and slice thickness are both present.

    Raises:
        MissingMagic, TruncatedElement, UnsupportedTransferSyntax,
        MissingRequiredTag, MalformedNumeric, NonPositiveSpacing.
    """
    found: dict[tuple[int, int], bytes] = {}
    for group, elem, _vr, value in iter_elements(data):
        if (group, elem) in _WANTED:
            found[(group, elem)] = value

    if TAG_TRANSFER_SYNTAX in found:
        uid = _decode_string(found[TAG_TRANSFER_SYNTAX])
        if uid != EXPLICIT_VR_LE_UID:
            raise UnsupportedTransferSyntax(
                f"transfer syntax {uid!r} is not explicit-VR little endian"
            )

    te = _single_ds(found.get(TAG_TE, b""), "TE")
    if te is None:
        raise MissingRequiredTag("TE")
    tr = _single_ds(found.get(TAG_TR, b""), "TR")
    if tr is None:
        raise MissingRequiredTag("TR")
    ti = _single_ds(found.get(TAG_TI, b""), "TI")
    field = _single_ds(found.get(TAG_FIELD_STRENGTH, b""), "FieldStrength")
    flip = _single_ds(found.get(TAG_FLIP_ANGLE, b""), "FlipAngle")

    spacing = None
    if TAG_PIXEL_SPACING in found and TAG_SLICE_THICKNESS in found:
        pix = parse_ds(found[TAG_PIXEL_SPACING], "PixelSpacing")
        thick = _single_ds(found[TAG_SLICE_THICKNESS], "SliceThickness")
        if len(pix) != 2:
            raise MalformedNumeric(
                f"PixelSpacing needs 2 values, got {len(pix)}"
            )
        if thick is not None:
            spacing = (pix[0], pix[1], thick)

    return MetadataRecord(
        source_id,
        manufacturer=_decode_string(found.get(TAG_MANUFACTURER, b"")),
        scanner_model=_decode_string(found.get(TAG_MODEL, b"")),
        series_description=(
            _decode_string(found[TAG_SERIES_DESCRIPTION])
            if TAG_SERIES_DESCRIPTION in found
            else None
        ),
        sequence_type=_decode_string(found.get(TAG_SEQUENCE_TYPE, b"")),
        sequence_variant=_decode_string(found.get(TAG_SEQUENCE_VARIANT, b"")),
        field_strength_tesla=field if field is not None else 0.0,
        te_ms=te,
        tr_ms=tr,
        ti_ms=ti,
        flip_angle_deg=flip if flip is not None else 0.0,
        voxel_spacing_mm=spacing,
    )
