"""Tests for metadata records: validation, manifests, plane inference."""

import json
import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

from mrcontrast.errors import (
    DataError,
    MalformedJson,
    MalformedNumeric,
    NonPositiveSpacing,
)
from mrcontrast.records import (
    MetadataRecord,
    Plane,
    canonical_string,
    infer_plane,
    parse_manifest_line,
    plane_for_record,
    record_from_dict,
    runs,
)


def full_record() -> MetadataRecord:
    return MetadataRecord(
        "scan001",
        manufacturer=" Siemens ",
        scanner_model="avanto",
        series_description="t2_tse",
        sequence_type="se",
        sequence_variant="sk",
        field_strength_tesla=1.5,
        te_ms=90.0,
        tr_ms=4000.0,
        ti_ms=150.0,
        flip_angle_deg=150.0,
        voxel_spacing_mm=(0.5, 0.5, 5.0),
        num_slices=24,
    )


class TestCanonicalString:
    def test_trims_and_uppercases(self):
        assert canonical_string("  Siemens Healthineers ") == "SIEMENS HEALTHINEERS"

    def test_idempotent(self):
        once = canonical_string(" ge Medical\t")
        assert canonical_string(once) == once


class TestMakeRecord:
    """`MetadataRecord` validates and canonicalizes its fields on construction."""

    def test_canonicalizes_strings(self):
        rec = full_record()
        assert rec.manufacturer == "SIEMENS"
        assert rec.scanner_model == "AVANTO"
        assert rec.series_description == "T2_TSE"
        assert rec.sequence_type == "SE"
        assert rec.sequence_variant == "SK"

    def test_optional_fields_default_to_none(self):
        rec = MetadataRecord("s", te_ms=10.0, tr_ms=100.0)
        assert rec.series_description is None
        assert rec.ti_ms is None
        assert rec.voxel_spacing_mm is None
        assert rec.num_slices is None

    def test_record_is_frozen(self):
        rec = full_record()
        with pytest.raises(AttributeError):
            rec.te_ms = 1.0

    @pytest.mark.parametrize("field,value", [
        ("te_ms", float("nan")),
        ("te_ms", float("inf")),
        ("te_ms", -1.0),
        ("tr_ms", -0.001),
        ("tr_ms", float("-inf")),
        ("field_strength_tesla", -1.5),
        ("field_strength_tesla", float("nan")),
        ("flip_angle_deg", -1.0),
        ("flip_angle_deg", 360.0),
        ("ti_ms", 0.0),
        ("ti_ms", -100.0),
        ("ti_ms", float("nan")),
        ("num_slices", 0),
        ("num_slices", "x"),
        ("num_slices", float("nan")),
        ("num_slices", 2.0),
        ("num_slices", True),
    ])
    def test_domain_violations_raise(self, field, value):
        with pytest.raises(MalformedNumeric):
            MetadataRecord("s", **{field: value})

    @pytest.mark.parametrize("field,value", [
        ("te_ms", True), ("tr_ms", "500"), ("field_strength_tesla", False), ("ti_ms", "900"),
        ("te_ms", 10**400), ("flip_angle_deg", -(10**400)),
        ("voxel_spacing_mm", ["1", True, 5]), ("voxel_spacing_mm", [1.0, True, 5.0]),
    ], ids=["bool", "string", "bool-field", "string-ti", "past-float-range",
            "past-float-range-negative", "spacing-string", "spacing-bool"])
    def test_only_ints_and_floats_are_numbers(self, field, value):
        """float() alone takes a bool or a numeric string, and overflows on an
        int past the float range; each is a MalformedNumeric naming the field."""
        with pytest.raises(MalformedNumeric, match=field):
            MetadataRecord("s", **{field: value})

    def test_ints_up_to_the_largest_float_are_numbers(self):
        big = int(sys.float_info.max)
        rec = MetadataRecord("s", te_ms=big, tr_ms=np.float64(2.5), voxel_spacing_mm=[1, 2.0, big])
        assert (rec.te_ms, rec.tr_ms) == (sys.float_info.max, 2.5)
        assert rec.voxel_spacing_mm == (1.0, 2.0, sys.float_info.max)

    def test_flip_angle_boundaries(self):
        assert MetadataRecord("s", flip_angle_deg=0.0).flip_angle_deg == 0.0
        assert MetadataRecord("s", flip_angle_deg=359.9).flip_angle_deg == 359.9

    def test_spacing_needs_three_components(self):
        with pytest.raises(MalformedNumeric):
            MetadataRecord("s", voxel_spacing_mm=(1.0, 1.0))

    @pytest.mark.parametrize("spacing", [
        (0.0, 1.0, 1.0),
        (1.0, -1.0, 1.0),
        (1.0, 1.0, 0.0),
    ])
    def test_nonpositive_spacing_raises(self, spacing):
        with pytest.raises(NonPositiveSpacing):
            MetadataRecord("s", voxel_spacing_mm=spacing)

    def test_numbers_and_spacing_are_stored_canonically(self):
        rec = MetadataRecord(7, te_ms=10, tr_ms=100, voxel_spacing_mm=[1, 1, 5])
        assert rec.source_id == "7"
        assert type(rec.te_ms) is float and type(rec.tr_ms) is float
        assert rec.voxel_spacing_mm == (1.0, 1.0, 5.0)
        assert all(type(v) is float for v in rec.voxel_spacing_mm)

    @pytest.mark.parametrize("field,value,error", [
        ("te_ms", -5.0, MalformedNumeric),
        ("ti_ms", 0.0, MalformedNumeric),
        ("voxel_spacing_mm", (1.0, 0.0, 1.0), NonPositiveSpacing),
        ("manufacturer", 5, MalformedJson),
    ])
    def test_replace_validates_like_construction(self, field, value, error):
        with pytest.raises(error):
            replace(full_record(), **{field: value})


class TestToDict:
    def test_full_record(self):
        assert full_record().to_dict() == {
            "source_id": "scan001", "manufacturer": "SIEMENS",
            "scanner_model": "AVANTO", "sequence_type": "SE",
            "sequence_variant": "SK", "field_strength_tesla": 1.5,
            "te_ms": 90.0, "tr_ms": 4000.0, "flip_angle_deg": 150.0,
            "series_description": "T2_TSE", "ti_ms": 150.0,
            "voxel_spacing_mm": [0.5, 0.5, 5.0], "num_slices": 24,
        }

    def test_minimal_record(self):
        assert MetadataRecord("s", te_ms=10, tr_ms=100).to_dict() == {
            "source_id": "s", "manufacturer": "", "scanner_model": "",
            "sequence_type": "", "sequence_variant": "",
            "field_strength_tesla": 0.0, "te_ms": 10.0, "tr_ms": 100.0,
            "flip_angle_deg": 0.0,
        }

    def test_absent_optionals_are_omitted(self):
        d = MetadataRecord("s", te_ms=10.0, tr_ms=100.0).to_dict()
        assert "ti_ms" not in d
        assert "series_description" not in d
        assert "voxel_spacing_mm" not in d
        assert "num_slices" not in d

    def test_present_optionals_are_kept(self):
        d = full_record().to_dict()
        assert d["ti_ms"] == 150.0
        assert d["voxel_spacing_mm"] == [0.5, 0.5, 5.0]
        assert d["num_slices"] == 24


class TestManifestLines:
    def test_round_trip(self):
        rec = full_record()
        again = parse_manifest_line(json.dumps(rec.to_dict()))
        assert again == rec

    def test_round_trip_without_optionals(self):
        rec = MetadataRecord("s", te_ms=10.0, tr_ms=100.0)
        assert parse_manifest_line(json.dumps(rec.to_dict())) == rec

    def test_unknown_keys_ignored(self):
        line = json.dumps({
            "source_id": "s", "te_ms": 10.0, "tr_ms": 100.0,
            "features": [1, 2, 3], "scan_id": 7,
        })
        rec = parse_manifest_line(line)
        assert rec.te_ms == 10.0

    @pytest.mark.parametrize("line", [
        "not json",
        "[1, 2, 3]",
        '"just a string"',
        json.dumps({"te_ms": 1.0, "tr_ms": 2.0}),
        json.dumps({"source_id": "s", "tr_ms": 2.0}),
        json.dumps({"source_id": "s", "te_ms": 1.0}),
        json.dumps({"source_id": "s", "te_ms": None, "tr_ms": 2.0}),
        json.dumps({"source_id": "s", "te_ms": 1.0, "tr_ms": 2.0, "manufacturer": 5}),
        json.dumps({"source_id": "s", "te_ms": 1.0, "tr_ms": 2.0, "scanner_model": ["a"]}),
        json.dumps({"source_id": "s", "te_ms": 1.0, "tr_ms": 2.0, "series_description": 7}),
        json.dumps({"source_id": "s", "te_ms": 1.0, "tr_ms": 2.0, "sequence_type": None}),
        json.dumps({"source_id": "s", "te_ms": 1.0, "tr_ms": 2.0, "sequence_variant": {}}),
    ])
    def test_malformed_lines_raise(self, line):
        with pytest.raises(MalformedJson):
            parse_manifest_line(line)

    @pytest.mark.parametrize("te", [-5.0, "soon", [1.0]])
    def test_numeric_violations_propagate(self, te):
        line = json.dumps({"source_id": "s", "te_ms": te, "tr_ms": 2.0})
        with pytest.raises(MalformedNumeric):
            parse_manifest_line(line)


def scan_line(**kw) -> str:
    """One slice's dataset line with record fields as `to_dict` writes them."""
    entry = dict(
        source_id="scan00001", manufacturer="GE", scanner_model="SIGNA", sequence_type="SE",
        sequence_variant="SK", field_strength_tesla=3.0, te_ms=30.0, tr_ms=2000.0,
        flip_angle_deg=90.0, voxel_spacing_mm=[1.0, 1.0, 5.0], num_slices=10,
        features=[0.5, 0.25], scan_id=1, slice_index=0,
    )
    entry.update(kw)
    return json.dumps(entry, sort_keys=True)


def load_lines(lines: list) -> list:
    """Records of consecutive lines, each given the previous one's, as the loaders do."""
    records = []
    for number, line in enumerate(lines, 1):
        records.append(parse_manifest_line(line, number, records[-1] if records else None))
    return records


ZERO_FIELDS = ("field_strength_tesla", "te_ms", "tr_ms", "flip_angle_deg")
# (field, first line's value, second line's value): equal under ==, but the
# second line builds another record or raises
TYPED_PAIRS = [
    ("source_id", a, b) for a in (1, 1.0, True) for b in (1, 1.0, True) if repr(a) != repr(b)
] + [("num_slices", 10, 10.0), ("num_slices", 1, True)] + [
    (field, a, b) for field in ZERO_FIELDS for a, b in ((0.0, -0.0), (-0.0, 0.0))
]


class TestSharedRecords:
    """A line whose record fields are exactly the previous line's record gets
    that record object; any other line builds (or fails) as on its own."""

    def test_identical_consecutive_lines_share_one_record(self):
        lines = [scan_line(slice_index=i, features=[0.1 * i, 0.2]) for i in range(4)]
        records = load_lines(lines)
        assert all(r is records[0] for r in records)
        assert records[0] == parse_manifest_line(lines[0])

    def test_key_order_and_unknown_keys_do_not_matter(self):
        first = parse_manifest_line(scan_line())
        reordered = json.dumps(dict(reversed(json.loads(scan_line(extra=[1, 2])).items())))
        assert parse_manifest_line(reordered, 2, first) is first

    @pytest.mark.parametrize("field, first, second", TYPED_PAIRS)
    def test_typed_values_build_their_own_record(self, field, first, second):
        lines = [scan_line(**{field: first}), scan_line(**{field: second})]
        previous = parse_manifest_line(lines[0], 1)
        try:
            want = parse_manifest_line(lines[1], 2)
        except DataError as exc:
            assert "line 2" in str(exc)
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                parse_manifest_line(lines[1], 2, previous)
            return
        got = parse_manifest_line(lines[1], 2, previous)
        assert got.to_dict() == want.to_dict()
        got_signs, want_signs = (
            [math.copysign(1.0, getattr(r, name)) for name in ZERO_FIELDS] for r in (got, want)
        )
        assert got_signs == want_signs

    @pytest.mark.parametrize("edit", [
        dict(source_id="scan00002"),
        dict(manufacturer="ge"),
        dict(te_ms=30),
        dict(ti_ms=None),
        dict(te_ms=31.0),
        dict(voxel_spacing_mm=[1.0, 5.0, 1.0]),
    ], ids=["other-source", "not-canonical", "int-te", "null-ti", "other-te", "other-plane"])
    def test_other_lines_build_a_new_record(self, edit):
        first = parse_manifest_line(scan_line())
        got = parse_manifest_line(scan_line(**edit), 2, first)
        assert got is not first
        assert got.to_dict() == parse_manifest_line(scan_line(**edit)).to_dict()

    def test_equal_lines_apart_build_their_own_records(self):
        a, b = scan_line(), scan_line(source_id="scan00002", te_ms=90.0)
        records = load_lines([a, a, b, a])
        assert records[1] is records[0] and records[3] is not records[0]
        alone = [parse_manifest_line(line).to_dict() for line in (a, a, b, a)]
        assert [r.to_dict() for r in records] == alone

    def test_error_names_its_own_line(self):
        with pytest.raises(MalformedNumeric, match="line 3"):
            load_lines([scan_line(), scan_line(), scan_line(te_ms=-1.0)])
        with pytest.raises(MalformedJson, match="line 2"):
            record_from_dict([scan_line()], 2)


class TestRuns:
    """`runs` yields (record, length) per run of one shared record object."""

    def test_empty_input_has_no_runs(self):
        assert list(runs([])) == []

    def test_one_record_is_one_run(self):
        a = MetadataRecord("a", te_ms=1.0, tr_ms=2.0)
        assert list(runs([a])) == [(a, 1)]

    def test_a_run_then_another(self):
        a, b = MetadataRecord("a", te_ms=1.0, tr_ms=2.0), MetadataRecord("b", te_ms=3.0, tr_ms=4.0)
        got = list(runs(iter([a, a, b])))  # a one-shot iterator
        assert [(r is a, r is b, n) for r, n in got] == [(True, False, 2), (False, True, 1)]

    def test_a_record_that_comes_back_starts_a_new_run(self):
        a, b = MetadataRecord("a", te_ms=1.0, tr_ms=2.0), MetadataRecord("b", te_ms=3.0, tr_ms=4.0)
        got = list(runs([a, b, a]))
        assert [(r is a, r is b, n) for r, n in got] == [(True, False, 1), (False, True, 1),
                                                          (True, False, 1)]

    def test_equal_distinct_copies_are_separate_runs(self):
        a = MetadataRecord("a", te_ms=1.0, tr_ms=2.0)
        b = replace(a)
        assert a == b and a is not b
        got = list(runs([a, b]))
        assert [(r is a, n) for r, n in got] == [(True, 1), (False, 1)]


class TestInternedStrings:
    """Canonical strings are interned: records built apart share one object
    per distinct value, and stay equal, serialized and validated as before."""

    TEXT_FIELDS = ("manufacturer", "scanner_model", "series_description",
                   "sequence_type", "sequence_variant")

    def test_records_from_separate_lines_share_their_strings(self):
        raw = dict(manufacturer=" ge ", scanner_model="Signa", series_description="t1 ax",
                   sequence_type="se", sequence_variant="sk")
        a = parse_manifest_line(scan_line(**raw))
        b = parse_manifest_line(scan_line(**{k: v.upper().strip() for k, v in raw.items()}))
        c = parse_manifest_line(scan_line(**raw, source_id="scan00002"), 2, a)
        assert a is not b and a == b and c is not a
        for name in self.TEXT_FIELDS:
            assert getattr(a, name) is getattr(b, name) is getattr(c, name)
        assert a.to_dict() == b.to_dict() == {**c.to_dict(), "source_id": "scan00001"}
        assert a.to_dict()["series_description"] == "T1 AX"

    def test_a_str_subclass_becomes_a_plain_interned_str(self):
        class Tag(str):
            pass

        got = canonical_string(Tag(" avanto "))
        assert type(got) is str and got is canonical_string("AVANTO")

    @pytest.mark.parametrize("name", TEXT_FIELDS)
    def test_a_value_that_is_not_a_string_still_raises(self, name):
        with pytest.raises(MalformedJson, match=f"{name} is not a string"):
            MetadataRecord("s", te_ms=1.0, tr_ms=2.0, **{name: 5})


class TestPlaneInference:
    @pytest.mark.parametrize("spacing,plane", [
        ((6.0, 0.9, 0.9), Plane.SAGITTAL),
        ((0.9, 6.0, 0.9), Plane.CORONAL),
        ((0.9, 0.9, 6.0), Plane.AXIAL),
        ((1.0, 1.0, 1.0), Plane.AXIAL),
        ((0.5, 0.5, 0.5 + 1e-9), Plane.AXIAL),
    ])
    def test_largest_spacing_is_through_plane(self, spacing, plane):
        assert infer_plane(spacing) is plane

    def test_tie_resolves_to_lowest_axis(self):
        assert infer_plane((6.0, 6.0, 1.0)) is Plane.SAGITTAL
        assert infer_plane((1.0, 6.0, 6.0)) is Plane.CORONAL

    @pytest.mark.parametrize("spacing", [
        (0.0, 1.0, 1.0),
        (1.0, 1.0),
        (1.0, 1.0, float("nan")),
        (1.0, 1.0, float("inf")),
    ])
    def test_bad_spacing_raises(self, spacing):
        with pytest.raises(NonPositiveSpacing):
            infer_plane(spacing)

    def test_record_without_spacing_defaults_axial(self):
        rec = MetadataRecord("s", te_ms=1.0, tr_ms=2.0)
        assert plane_for_record(rec) is Plane.AXIAL

    def test_record_with_spacing_uses_it(self):
        rec = MetadataRecord(
            "s", te_ms=1.0, tr_ms=2.0, voxel_spacing_mm=(6.0, 1.0, 1.0)
        )
        assert plane_for_record(rec) is Plane.SAGITTAL

    def test_plane_words(self):
        assert [p.word for p in Plane] == ["sagittal", "coronal", "axial"]
