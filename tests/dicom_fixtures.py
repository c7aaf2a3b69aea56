"""Byte-level builders for explicit-VR little-endian DICOM test files.

Every fixture is constructed by hand with struct.pack so the tests do not
depend on the parser under test. The corpus covers the tag combinations the
ingest path must survive: missing or empty inversion time, multi-valued
pixel spacing, long-form VR elements (including the long text and 64-bit
VRs), nested undefined-length sequences and items, an undefined-length UN
holding implicit-VR items, encapsulated pixel data, padded
and exponent-form decimal strings, plus a set of deliberately broken files
that must each raise a typed error.
"""

import struct

LONG_VRS = {
    "OB", "OD", "OF", "OL", "OV", "OW", "SQ", "SV", "UC", "UN", "UR", "UT",
    "UV",
}
EXPLICIT_VR_LE = b"1.2.840.10008.1.2.1"


def element(group: int, elem: int, vr: str, value: bytes) -> bytes:
    """Encode one explicit-VR data element, padding odd values to even."""
    if len(value) % 2:
        pad = b"\x00" if vr in ("UI", "OB", "UN") else b" "
        value = value + pad
    head = struct.pack("<HH", group, elem) + vr.encode("ascii")
    if vr in LONG_VRS:
        return head + b"\x00\x00" + struct.pack("<I", len(value)) + value
    return head + struct.pack("<H", len(value)) + value


def implicit_element(group: int, elem: int, value: bytes) -> bytes:
    """Encode one implicit-VR data element: tag and a 4-byte length."""
    return struct.pack("<HHI", group, elem, len(value)) + value


def item(payload: bytes, undefined_length: bool = False) -> bytes:
    """A sequence item: defined length, or closed by an item delimiter."""
    if undefined_length:
        return (
            struct.pack("<HHI", 0xFFFE, 0xE000, 0xFFFFFFFF) + payload
            + struct.pack("<HHI", 0xFFFE, 0xE00D, 0)
        )
    return struct.pack("<HHI", 0xFFFE, 0xE000, len(payload)) + payload


def undefined_length_value(group: int, elem: int, vr: str, items) -> bytes:
    """A long-VR element with undefined length: items, then a delimiter."""
    head = struct.pack("<HH", group, elem) + vr.encode("ascii")
    head += b"\x00\x00" + struct.pack("<I", 0xFFFFFFFF)
    delim = struct.pack("<HHI", 0xFFFE, 0xE0DD, 0)
    return head + b"".join(items) + delim


def undefined_sequence(group: int, elem: int, item_payload: bytes) -> bytes:
    """An SQ element with undefined length holding one defined-length item."""
    return undefined_length_value(group, elem, "SQ", [item(item_payload)])


def long_text_elements() -> list:
    """One element of each long-text and 64-bit VR (UC, UR, UT, SV, UV)."""
    return [
        element(0x0008, 0x0119, "UC", b"LONG CODE VALUE"),
        element(0x0008, 0x0120, "UR", b"http://example.org/code"),
        element(0x0040, 0xA160, "UT", b"free text " * 20),
        element(0x0029, 0x1001, "SV", struct.pack("<q", -5)),
        element(0x0029, 0x1002, "UV", struct.pack("<Q", 5)),
    ]


def nested_sequences() -> bytes:
    """Two levels of undefined-length sequences in undefined-length items,
    with elements after the inner sequence and a defined-length item last."""
    inner = undefined_length_value(0x0040, 0xA730, "SQ", [
        item(element(0x0040, 0xA040, "CS", b"TEXT"), undefined_length=True),
        item(element(0x0040, 0xA160, "UT", b"inner")),
    ])
    outer_item = inner + element(0x0008, 0x0100, "SH", b"T-A0100")
    return undefined_length_value(0x0040, 0xA730, "SQ", [
        item(outer_item, undefined_length=True),
        item(element(0x0008, 0x0104, "LO", b"second item")),
    ])


def defined_item_holding_delimiter_bytes() -> bytes:
    """An undefined-length SQ whose defined-length item carries the bytes of
    a sequence delimiter inside an OB value."""
    fake = struct.pack("<HHI", 0xFFFE, 0xE0DD, 0)
    return undefined_sequence(
        0x0008, 0x1140, element(0x0009, 0x1010, "OB", fake * 2)
    )


def undefined_length_un() -> bytes:
    """An undefined-length UN: implicit-VR items, one with a nested
    undefined-length sequence, as PS3.5 6.2.2 encodes them."""
    nested = (
        struct.pack("<HHI", 0x0040, 0xA730, 0xFFFFFFFF)
        + item(implicit_element(0x0040, 0xA040, b"TEXT"), undefined_length=True)
        + struct.pack("<HHI", 0xFFFE, 0xE0DD, 0)
    )
    return undefined_length_value(0x0029, 0x1020, "UN", [
        item(implicit_element(0x0029, 0x0010, b"PRIVATE ") + nested,
             undefined_length=True),
        item(implicit_element(0x0029, 0x1030, b"1.5 ")),
    ])


def encapsulated_pixel_data() -> bytes:
    """Undefined-length OB pixel data: empty offset table, two fragments."""
    return undefined_length_value(0x7FE0, 0x0010, "OB", [
        item(b""), item(b"\xff\xd8" * 8), item(b"\x01\x02\x03\x04"),
    ])


def dicom_file(
    elements,
    preamble: bytes = b"\x00" * 128,
    magic: bytes = b"DICM",
    transfer_syntax: bytes = EXPLICIT_VR_LE,
) -> bytes:
    head = preamble + magic
    if transfer_syntax is not None:
        head += element(0x0002, 0x0010, "UI", transfer_syntax)
    return head + b"".join(elements)


def scan_elements(
    manufacturer=b"SIEMENS",
    model=b"Avanto",
    series=b"t2_tse_ax",
    seq_type=b"SE",
    seq_variant=b"SK",
    te=b"90",
    tr=b"4000",
    ti=None,
    field=b"1.5",
    flip=b"150",
    thickness=b"5",
    pixel_spacing=b"0.5\\0.5",
    extra=(),
) -> list:
    """Standard scan dataset; pass None to omit a tag, b"" for empty."""
    out = []

    def put(group, elem, vr, value):
        if value is not None:
            out.append(element(group, elem, vr, value))

    put(0x0008, 0x0070, "LO", manufacturer)
    put(0x0008, 0x1090, "LO", model)
    put(0x0008, 0x103E, "LO", series)
    put(0x0018, 0x0020, "CS", seq_type)
    put(0x0018, 0x0021, "CS", seq_variant)
    put(0x0018, 0x0050, "DS", thickness)
    put(0x0018, 0x0080, "DS", tr)
    put(0x0018, 0x0081, "DS", te)
    put(0x0018, 0x0082, "DS", ti)
    put(0x0018, 0x0087, "DS", field)
    put(0x0018, 0x1314, "DS", flip)
    put(0x0028, 0x0030, "DS", pixel_spacing)
    out.extend(extra)
    return out


def expected(
    manufacturer="SIEMENS",
    scanner_model="AVANTO",
    series_description="T2_TSE_AX",
    sequence_type="SE",
    sequence_variant="SK",
    te_ms=90.0,
    tr_ms=4000.0,
    ti_ms=None,
    field_strength_tesla=1.5,
    flip_angle_deg=150.0,
    voxel_spacing_mm=(0.5, 0.5, 5.0),
) -> dict:
    return {
        "manufacturer": manufacturer,
        "scanner_model": scanner_model,
        "series_description": series_description,
        "sequence_type": sequence_type,
        "sequence_variant": sequence_variant,
        "te_ms": te_ms,
        "tr_ms": tr_ms,
        "ti_ms": ti_ms,
        "field_strength_tesla": field_strength_tesla,
        "flip_angle_deg": flip_angle_deg,
        "voxel_spacing_mm": voxel_spacing_mm,
    }


def round_trip_cases() -> list:
    """(name, file bytes, expected field dict) for every well-formed fixture."""
    cases = []

    def add(name, file_bytes, exp):
        cases.append((name, file_bytes, exp))

    add("spin_echo_baseline", dicom_file(scan_elements()), expected())
    add(
        "no_inversion_tag",
        dicom_file(scan_elements(ti=None)),
        expected(ti_ms=None),
    )
    add(
        "empty_inversion_value",
        dicom_file(scan_elements(ti=b"")),
        expected(ti_ms=None),
    )
    add(
        "inversion_recovery",
        dicom_file(
            scan_elements(seq_type=b"IR", te=b"20", tr=b"9000", ti=b"2500")
        ),
        expected(sequence_type="IR", te_ms=20.0, tr_ms=9000.0, ti_ms=2500.0),
    )
    add(
        "flair_long_ti",
        dicom_file(
            scan_elements(
                series=b"t2_flair", seq_type=b"IR", seq_variant=b"SK\\SP",
                te=b"85", tr=b"9000", ti=b"2371.4",
            )
        ),
        expected(
            series_description="T2_FLAIR", sequence_type="IR",
            sequence_variant="SK\\SP", te_ms=85.0, tr_ms=9000.0,
            ti_ms=2371.4,
        ),
    )
    add(
        "ge_scanner",
        dicom_file(
            scan_elements(
                manufacturer=b"GE MEDICAL SYSTEMS", model=b"SIGNA HDxt",
                field=b"3",
            )
        ),
        expected(
            manufacturer="GE MEDICAL SYSTEMS", scanner_model="SIGNA HDXT",
            field_strength_tesla=3.0,
        ),
    )
    add(
        "philips_scanner",
        dicom_file(
            scan_elements(manufacturer=b"Philips", model=b"Achieva")
        ),
        expected(manufacturer="PHILIPS", scanner_model="ACHIEVA"),
    )
    add(
        "values_padded_to_even_length",
        dicom_file(
            scan_elements(
                manufacturer=b"SIEMENS ", te=b"90 ", tr=b"400", ti=b"150 ",
            )
        ),
        expected(tr_ms=400.0, ti_ms=150.0),
    )
    add(
        "nul_padded_uid_and_strings",
        dicom_file(
            scan_elements(model=b"Trio\x00\x00"),
            transfer_syntax=EXPLICIT_VR_LE + b"\x00",
        ),
        expected(scanner_model="TRIO"),
    )
    add(
        "decimal_string_exponent",
        dicom_file(scan_elements(te=b"9.0e1", tr=b"4.0E+3")),
        expected(),
    )
    add(
        "decimal_string_signed",
        dicom_file(scan_elements(te=b"+90", field=b"+1.5")),
        expected(),
    )
    add(
        "decimal_string_bare_fraction",
        dicom_file(scan_elements(pixel_spacing=b".5\\.5")),
        expected(),
    )
    add(
        "fractional_timings",
        dicom_file(scan_elements(te=b"93.7", tr=b"4123.25", flip=b"89.5")),
        expected(te_ms=93.7, tr_ms=4123.25, flip_angle_deg=89.5),
    )
    add(
        "anisotropic_spacing_sagittal",
        dicom_file(scan_elements(pixel_spacing=b"6.0\\0.9", thickness=b"1")),
        expected(voxel_spacing_mm=(6.0, 0.9, 1.0)),
    )
    add(
        "coronal_spacing",
        dicom_file(scan_elements(pixel_spacing=b"0.9\\6.0", thickness=b"1")),
        expected(voxel_spacing_mm=(0.9, 6.0, 1.0)),
    )
    add(
        "no_spacing_without_thickness",
        dicom_file(scan_elements(thickness=None)),
        expected(voxel_spacing_mm=None),
    )
    add(
        "no_spacing_without_pixel_spacing",
        dicom_file(scan_elements(pixel_spacing=None)),
        expected(voxel_spacing_mm=None),
    )
    add(
        "missing_optional_strings",
        dicom_file(
            scan_elements(
                manufacturer=None, model=None, series=None,
                seq_type=None, seq_variant=None, field=None, flip=None,
            )
        ),
        expected(
            manufacturer="", scanner_model="", series_description=None,
            sequence_type="", sequence_variant="",
            field_strength_tesla=0.0, flip_angle_deg=0.0,
        ),
    )
    add(
        "unknown_tags_skipped",
        dicom_file(
            scan_elements(
                extra=(
                    element(0x0010, 0x0010, "PN", b"ANON^PATIENT"),
                    element(0x0008, 0x0060, "CS", b"MR"),
                    element(0x0020, 0x0011, "IS", b"4"),
                )
            )
        ),
        expected(),
    )
    add(
        "long_vr_pixel_payload_skipped",
        dicom_file(
            scan_elements(
                extra=(element(0x7FE0, 0x0010, "OB", b"\x01\x02" * 64),)
            )
        ),
        expected(),
    )
    add(
        "undefined_length_sequence_skipped",
        dicom_file(
            scan_elements(
                extra=(
                    undefined_sequence(
                        0x0008, 0x1140,
                        element(0x0008, 0x1150, "UI", b"1.2.3"),
                    ),
                )
            )
        ),
        expected(),
    )
    add(
        "tags_after_sequence_still_read",
        dicom_file(
            [undefined_sequence(0x0008, 0x1140, b"")]
            + scan_elements()
        ),
        expected(),
    )
    add(
        "long_text_vrs_before_timings",
        dicom_file(long_text_elements() + scan_elements()),
        expected(),
    )
    add(
        "nested_undefined_length_sequences",
        dicom_file([nested_sequences()] + scan_elements()),
        expected(),
    )
    add(
        "defined_item_holding_delimiter_bytes",
        dicom_file([defined_item_holding_delimiter_bytes()] + scan_elements()),
        expected(),
    )
    add(
        "undefined_length_un_with_implicit_items",
        dicom_file([undefined_length_un()] + scan_elements()),
        expected(),
    )
    add(
        "undefined_length_un_inside_sequence",
        dicom_file(
            [undefined_length_value(0x0008, 0x1140, "SQ", [
                item(undefined_length_un() + element(0x0008, 0x1150, "UI", b"1.2"),
                     undefined_length=True),
            ])]
            + scan_elements()
        ),
        expected(),
    )
    add(
        "encapsulated_pixel_data_skipped",
        dicom_file(scan_elements(extra=(encapsulated_pixel_data(),))),
        expected(),
    )
    add(
        "latin1_strings",
        dicom_file(scan_elements(series=b"s\xe9rie sagittale")),
        expected(series_description="S\xc9RIE SAGITTALE"),
    )
    add(
        "zero_te_allowed",
        dicom_file(scan_elements(te=b"0", tr=b"0")),
        expected(te_ms=0.0, tr_ms=0.0),
    )
    add(
        "high_field_research_magnet",
        dicom_file(scan_elements(field=b"7.0", flip=b"0")),
        expected(field_strength_tesla=7.0, flip_angle_deg=0.0),
    )
    return cases


def error_cases() -> list:
    """(name, file bytes, error name) for files that must raise typed errors."""
    good = dicom_file(scan_elements())
    cases = [
        ("empty_file", b"", "MissingMagic"),
        ("preamble_only", b"\x00" * 128, "MissingMagic"),
        ("wrong_magic", dicom_file(scan_elements(), magic=b"DICX"),
         "MissingMagic"),
        ("magic_without_preamble", b"DICM" + good[132:], "MissingMagic"),
        ("truncated_mid_uid_value", good[:140], "TruncatedElement"),
        ("truncated_mid_value", good[:-3], "TruncatedElement"),
        ("truncated_before_length", good[:138], "TruncatedElement"),
        ("truncated_inside_sequence",
         dicom_file(
             [undefined_sequence(0x0008, 0x1140, b"")[:-4]]
         ),
         "TruncatedElement"),
        ("unterminated_nested_sequence",
         dicom_file([nested_sequences()[:-8]] + scan_elements()),
         "TruncatedElement"),
        ("bad_vr_inside_item",
         dicom_file(
             [undefined_length_value(0x0008, 0x1140, "SQ", [
                 item(b"\x08\x00\x50\x11x1\x00\x00", undefined_length=True)
             ])]
             + scan_elements()
         ),
         "UnsupportedTransferSyntax"),
        ("implicit_vr_body",
         b"\x00" * 128 + b"DICM" + struct.pack("<HHI", 0x0008, 0x0070, 8)
         + b"SIEMENS ",
         "UnsupportedTransferSyntax"),
        ("declared_implicit_syntax",
         dicom_file(scan_elements(), transfer_syntax=b"1.2.840.10008.1.2"),
         "UnsupportedTransferSyntax"),
        ("declared_big_endian_syntax",
         dicom_file(scan_elements(), transfer_syntax=b"1.2.840.10008.1.2.2"),
         "UnsupportedTransferSyntax"),
        ("missing_te", dicom_file(scan_elements(te=None)),
         "MissingRequiredTag"),
        ("missing_tr", dicom_file(scan_elements(tr=None)),
         "MissingRequiredTag"),
        ("empty_te_value", dicom_file(scan_elements(te=b"")),
         "MissingRequiredTag"),
        ("nan_decimal_string", dicom_file(scan_elements(te=b"nan")),
         "MalformedNumeric"),
        ("underscore_decimal_string", dicom_file(scan_elements(tr=b"1_0")),
         "MalformedNumeric"),
        ("double_sign_decimal_string", dicom_file(scan_elements(ti=b"--5")),
         "MalformedNumeric"),
        ("three_valued_pixel_spacing",
         dicom_file(scan_elements(pixel_spacing=b"0.5\\0.5\\0.5")),
         "MalformedNumeric"),
        ("one_valued_pixel_spacing",
         dicom_file(scan_elements(pixel_spacing=b"0.5")),
         "MalformedNumeric"),
        ("negative_te", dicom_file(scan_elements(te=b"-5")),
         "MalformedNumeric"),
        ("zero_inversion_time", dicom_file(scan_elements(ti=b"0")),
         "MalformedNumeric"),
        ("zero_slice_thickness", dicom_file(scan_elements(thickness=b"0")),
         "NonPositiveSpacing"),
    ]
    return cases
