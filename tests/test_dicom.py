"""Parser tests over the hand-built explicit-VR little-endian corpus.

Fixture bytes come from dicom_fixtures, which encodes elements with
struct.pack independently of the code under test.
"""

import itertools
import struct

import pytest

import dicom_fixtures as fx
from mrcontrast import errors
from mrcontrast.dicom import (
    EXPLICIT_VR_LE_UID,
    iter_elements,
    parse_dicom_tags,
    parse_ds,
)
from mrcontrast.errors import (
    DataError,
    MalformedNumeric,
    MissingMagic,
    MissingRequiredTag,
    TruncatedElement,
    UnsupportedTransferSyntax,
)

ROUND_TRIP = fx.round_trip_cases()
ERRORS = fx.error_cases()


def test_corpus_is_large_enough():
    assert len(ROUND_TRIP) >= 20


@pytest.mark.parametrize(
    "name,data,expected", ROUND_TRIP, ids=[c[0] for c in ROUND_TRIP]
)
def test_round_trip(name, data, expected):
    record = parse_dicom_tags(data, source_id=name)
    assert record.source_id == name
    for field, want in expected.items():
        assert getattr(record, field) == want, field


@pytest.mark.parametrize(
    "name,data,error_name", ERRORS, ids=[c[0] for c in ERRORS]
)
def test_broken_files_raise_typed_errors(name, data, error_name):
    with pytest.raises(getattr(errors, error_name)):
        parse_dicom_tags(data, source_id=name)


def test_every_typed_error_is_a_data_error():
    for _, data, error_name in ERRORS:
        with pytest.raises(DataError):
            parse_dicom_tags(data)


def test_truncation_never_escapes_typed_errors():
    """Chopping a valid file at any byte offset must never panic.

    A cut landing exactly on an element boundary after TE/TR leaves a
    shorter but complete dataset, which parses; every other cut must raise
    one of the parser's typed errors, never IndexError or struct.error.
    Besides the plain scan, the files lead with the long text VRs, a
    two-level nested sequence, or a defined-length item inside an
    undefined-length sequence; a cut inside a leading element is always a
    truncated element.
    """
    start = len(fx.dicom_file([]))
    for lead in (
        [],
        fx.long_text_elements(),
        [fx.nested_sequences()],
        [fx.defined_item_holding_delimiter_bytes()],
    ):
        ends = {start + n for n in itertools.accumulate(map(len, lead))}
        stop = max(ends, default=start)
        good = fx.dicom_file(lead + fx.scan_elements())
        for cut in range(len(good)):
            try:
                parse_dicom_tags(good[:cut])
            except (MissingMagic, TruncatedElement, MissingRequiredTag,
                    MalformedNumeric, UnsupportedTransferSyntax) as exc:
                if start < cut < stop and cut not in ends:
                    assert isinstance(exc, TruncatedElement), (cut, exc)
                continue
            assert cut > stop, cut


class TestIterElements:
    def test_yields_tags_in_file_order(self):
        data = fx.dicom_file([
            fx.element(0x0008, 0x0070, "LO", b"SIEMENS"),
            fx.element(0x0018, 0x0081, "DS", b"90"),
        ])
        tags = [(g, e) for g, e, _, _ in iter_elements(data)]
        assert tags == [(0x0002, 0x0010), (0x0008, 0x0070), (0x0018, 0x0081)]

    def test_long_vr_uses_four_byte_length(self):
        payload = b"\x01\x02\x03\x04" * 100
        data = fx.dicom_file([
            fx.element(0x7FE0, 0x0010, "OB", payload),
            fx.element(0x0018, 0x0081, "DS", b"90"),
        ])
        got = {(g, e): v for g, e, _, v in iter_elements(data)}
        assert got[(0x7FE0, 0x0010)] == payload
        assert got[(0x0018, 0x0081)] == b"90"

    def test_undefined_length_sequence_skipped(self):
        inner = fx.element(0x0008, 0x1150, "UI", b"1.2.3")
        data = fx.dicom_file([
            fx.undefined_sequence(0x0008, 0x1140, inner),
            fx.element(0x0018, 0x0081, "DS", b"90"),
        ])
        tags = [(g, e) for g, e, _, _ in iter_elements(data)]
        assert (0x0008, 0x1140) in tags
        assert (0x0008, 0x1150) not in tags
        assert tags[-1] == (0x0018, 0x0081)

    @pytest.mark.parametrize("vr", ["UC", "UR", "UT", "SV", "UV"])
    def test_long_text_and_64_bit_vrs_use_four_byte_length(self, vr):
        payload = b"ab" * 40000  # longer than a 2-byte length can declare
        data = fx.dicom_file([
            fx.element(0x0029, 0x1001, vr, payload),
            fx.element(0x0018, 0x0081, "DS", b"90"),
        ])
        got = [(g, e, v, value) for g, e, v, value in iter_elements(data)]
        assert got[1:] == [
            (0x0029, 0x1001, vr, payload), (0x0018, 0x0081, "DS", b"90"),
        ]

    @pytest.mark.parametrize("value", [
        fx.nested_sequences(), fx.undefined_length_un(),
        fx.encapsulated_pixel_data(),
    ], ids=["nested_sq", "undefined_un", "pixel_fragments"])
    def test_undefined_length_value_skipped_whole(self, value):
        data = fx.dicom_file([value, fx.element(0x0018, 0x0081, "DS", b"90")])
        got = [(g, e, value) for g, e, _, value in iter_elements(data)]
        group, elem = struct.unpack_from("<HH", value)
        assert got[1:] == [(group, elem, b""), (0x0018, 0x0081, b"90")]

    def test_deep_nesting_needs_no_recursion(self):
        depth = 5000
        opener = fx.undefined_length_value(0x0040, 0xA730, "SQ", [])[:12]
        item_open = struct.pack("<HHI", 0xFFFE, 0xE000, 0xFFFFFFFF)
        item_close = struct.pack("<HHI", 0xFFFE, 0xE00D, 0)
        seq_close = struct.pack("<HHI", 0xFFFE, 0xE0DD, 0)
        nest = (opener + item_open) * depth + (item_close + seq_close) * depth
        data = fx.dicom_file([nest, fx.element(0x0018, 0x0081, "DS", b"90")])
        tags = [(g, e) for g, e, _, _ in iter_elements(data)]
        assert tags[1:] == [(0x0040, 0xA730), (0x0018, 0x0081)]
        with pytest.raises(TruncatedElement):
            list(iter_elements(fx.dicom_file([nest[:-8]])))

    def test_lowercase_vr_rejected(self):
        data = fx.dicom_file([b"\x08\x00\x70\x00lo\x07\x00SIEMENS "])
        with pytest.raises(UnsupportedTransferSyntax):
            list(iter_elements(data))


class TestParseDs:
    def test_single_value(self):
        assert parse_ds(b"90.5 ", "TE") == [90.5]

    def test_multi_value(self):
        assert parse_ds(b"0.5\\0.625", "PixelSpacing") == [0.5, 0.625]

    def test_empty_gives_no_values(self):
        assert parse_ds(b"", "TE") == []
        assert parse_ds(b"  ", "TE") == []

    def test_exponent_and_sign(self):
        assert parse_ds(b"+1.5e2", "TR") == [150.0]
        assert parse_ds(b"-0.5", "X") == [-0.5]

    @pytest.mark.parametrize("raw", [
        b"nan", b"inf", b"1_0", b"--5", b"1.2.3", b"1e", b"e5", b"0x10",
    ])
    def test_non_grammar_strings_rejected(self, raw):
        with pytest.raises(MalformedNumeric):
            parse_ds(raw, "TE")


class TestTransferSyntax:
    def test_accepted_uid_constant(self):
        assert EXPLICIT_VR_LE_UID == "1.2.840.10008.1.2.1"

    def test_file_without_meta_group_parses(self):
        data = fx.dicom_file(fx.scan_elements(), transfer_syntax=None)
        record = parse_dicom_tags(data)
        assert record.te_ms == 90.0

    def test_missing_ti_vs_empty_ti_both_mean_no_inversion(self):
        absent = parse_dicom_tags(fx.dicom_file(fx.scan_elements(ti=None)))
        empty = parse_dicom_tags(fx.dicom_file(fx.scan_elements(ti=b"")))
        assert absent.ti_ms is None
        assert empty.ti_ms is None

    def test_missing_required_tag_names_the_tag(self):
        with pytest.raises(MissingRequiredTag) as err:
            parse_dicom_tags(fx.dicom_file(fx.scan_elements(te=None)))
        assert "TE" in str(err.value)
