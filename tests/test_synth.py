"""Synthetic data generator tests against a literal signal reference."""

import gc
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from mrcontrast.errors import (
    DataError,
    EmptyDataset,
    EmptyProtocolList,
    MalformedFeatures,
    MalformedJson,
    NonFiniteInput,
)
from mrcontrast.records import MetadataRecord, record_from_dict
from mrcontrast.synth import (
    DEFAULT_TISSUES,
    SynthConfig,
    Tissue,
    channel_gain,
    default_protocols,
    expected_features,
    generate_dataset,
    load_dataset,
    signal,
    write_dataset,
)


def rec(te, tr, ti=None, fa=90.0, fs=1.5, **kw):
    base = dict(
        manufacturer="SIEMENS", scanner_model="AVANTO",
        sequence_type="IR" if ti is not None else "SE",
        sequence_variant="SK",
    )
    base.update(kw)
    return MetadataRecord(
        "r", te_ms=te, tr_ms=tr, ti_ms=ti, flip_angle_deg=fa,
        field_strength_tesla=fs, **base,
    )


def reference_signal(tissue, record):
    e_te = math.exp(-record.te_ms / tissue.t2_ms)
    e_tr = math.exp(-record.tr_ms / tissue.t1_ms)
    if record.ti_ms is None:
        value = (
            tissue.pd * (1.0 - e_tr) * e_te
            * math.sin(math.radians(record.flip_angle_deg))
        )
    else:
        e_ti = math.exp(-record.ti_ms / tissue.t1_ms)
        value = tissue.pd * (1.0 - 2.0 * e_ti + e_tr) * e_te
    return abs(value)


class TestSignal:
    def test_matches_reference_without_inversion(self):
        grid = [(10.0, 500.0), (30.0, 2000.0), (90.0, 4000.0), (150.0, 9500.0)]
        for te, tr in grid:
            record = rec(te, tr)
            for tissue in DEFAULT_TISSUES:
                np.testing.assert_allclose(
                    signal(tissue, record),
                    reference_signal(tissue, record),
                    rtol=1e-12,
                )

    def test_matches_reference_with_inversion(self):
        for ti in (150.0, 800.0, 2500.0):
            record = rec(20.0, 9000.0, ti=ti)
            for tissue in DEFAULT_TISSUES:
                np.testing.assert_allclose(
                    signal(tissue, record),
                    reference_signal(tissue, record),
                    rtol=1e-12,
                )

    def test_signal_is_nonnegative(self):
        record = rec(20.0, 9000.0, ti=2500.0)
        for tissue in DEFAULT_TISSUES:
            assert signal(tissue, record) >= 0.0

    def test_inversion_null_point(self):
        """At TI = T1 * ln 2 with long TR the tissue is suppressed."""
        tissue = Tissue("X", 1000.0, 100.0, 1.0)
        record = rec(0.0, 1e9, ti=1000.0 * math.log(2.0))
        assert signal(tissue, record) < 1e-9

    def test_t2_decay_orders_echo_times(self):
        tissue = DEFAULT_TISSUES[0]
        values = [signal(tissue, rec(te, 4000.0)) for te in (10.0, 50.0, 150.0)]
        assert values[0] > values[1] > values[2]

    def test_t1_recovery_orders_repetition_times(self):
        tissue = DEFAULT_TISSUES[0]
        values = [signal(tissue, rec(10.0, tr)) for tr in (300.0, 1500.0, 8000.0)]
        assert values[0] < values[1] < values[2]

    def test_flip_angle_scales_non_inversion_signal(self):
        tissue = DEFAULT_TISSUES[0]
        ninety = signal(tissue, rec(20.0, 2000.0, fa=90.0))
        thirty = signal(tissue, rec(20.0, 2000.0, fa=30.0))
        np.testing.assert_allclose(thirty, ninety * 0.5, rtol=1e-12)


class TestChannelGain:
    def test_field_strength_is_scalar_amplitude(self):
        lo = channel_gain(rec(10.0, 500.0, fs=1.5), 12)
        hi = channel_gain(rec(10.0, 500.0, fs=3.0), 12)
        np.testing.assert_allclose(hi, lo * 2.0, rtol=1e-12)

    def test_zero_field_strength_leaves_gain_unscaled(self):
        zero = channel_gain(rec(10.0, 500.0, fs=0.0), 12)
        base = channel_gain(rec(10.0, 500.0, fs=1.5), 12)
        np.testing.assert_allclose(zero, base, rtol=1e-12)

    def test_categorical_tags_give_per_channel_patterns(self):
        a = channel_gain(rec(10.0, 500.0), 12)
        b = channel_gain(rec(10.0, 500.0, manufacturer="GE"), 12)
        ratio = b / a
        assert ratio.std() > 1e-3

    def test_gain_is_deterministic(self):
        a = channel_gain(rec(10.0, 500.0), 12)
        b = channel_gain(rec(10.0, 500.0), 12)
        assert a.tobytes() == b.tobytes()

    def test_timings_do_not_affect_gain(self):
        a = channel_gain(rec(10.0, 500.0), 12)
        b = channel_gain(rec(150.0, 9000.0), 12)
        np.testing.assert_array_equal(a, b)

    def test_expected_features_are_signal_times_gain(self):
        record = rec(25.0, 1200.0)
        want = np.array([
            reference_signal(t, record) for t in DEFAULT_TISSUES
        ]) * channel_gain(record, len(DEFAULT_TISSUES))
        np.testing.assert_allclose(expected_features(record), want, rtol=1e-12)


class TestGenerateDataset:
    def config(self):
        return SynthConfig(n_scans=20, slices_per_scan=3, seed=13)

    def protocols(self):
        return default_protocols(
            n_te_cells=2, n_tr_cells=2,
            scanners=(("SIEMENS", "AVANTO"),), field_strengths=(1.5,),
        )

    def test_shape_and_metadata(self):
        slices = generate_dataset(self.protocols(), self.config())
        assert len(slices) == 60
        assert slices[0].features.shape == (len(DEFAULT_TISSUES),)
        assert slices[0].record.source_id == "scan00000"
        assert slices[0].record.num_slices == 3
        assert [s.slice_index for s in slices[:3]] == [0, 1, 2]

    def test_same_seed_is_bit_identical(self):
        a = generate_dataset(self.protocols(), self.config())
        b = generate_dataset(self.protocols(), self.config())
        for sa, sb in zip(a, b):
            assert sa.record == sb.record
            assert sa.features.tobytes() == sb.features.tobytes()

    def test_different_seeds_differ(self):
        a = generate_dataset(self.protocols(), self.config())
        b = generate_dataset(
            self.protocols(), SynthConfig(n_scans=20, slices_per_scan=3, seed=14)
        )
        assert any(
            sa.features.tobytes() != sb.features.tobytes()
            for sa, sb in zip(a, b)
        )

    def test_scan_streams_are_independent_of_scan_count(self):
        """Scan k's slices do not depend on how many scans are generated."""
        few = generate_dataset(self.protocols(), SynthConfig(
            n_scans=5, slices_per_scan=3, seed=13))
        many = generate_dataset(self.protocols(), SynthConfig(
            n_scans=20, slices_per_scan=3, seed=13))
        for sa, sb in zip(few, many[:15]):
            assert sa.record == sb.record
            assert sa.features.tobytes() == sb.features.tobytes()

    def test_features_stay_near_expected_value(self):
        slices = generate_dataset(self.protocols(), self.config())
        for s in slices[:12]:
            clean = expected_features(s.record)
            spread = 0.05 * np.abs(clean) + 4 * 0.005
            assert np.all(np.abs(s.features - clean) <= spread)

    def test_all_scans_use_listed_protocols(self):
        protocols = self.protocols()
        keys = {(p.te_ms, p.tr_ms, p.ti_ms) for p in protocols}
        slices = generate_dataset(protocols, self.config())
        for s in slices:
            assert (s.record.te_ms, s.record.tr_ms, s.record.ti_ms) in keys

    def test_empty_protocol_list_raises(self):
        with pytest.raises(EmptyProtocolList):
            generate_dataset([], self.config())


class TestDefaultProtocols:
    def test_default_count_and_coverage(self):
        protocols = default_protocols()
        assert len(protocols) == 5 * 5 * 2 * 2 * 2
        tes = sorted({p.te_ms for p in protocols})
        assert tes == [20.0, 60.0, 100.0, 140.0, 180.0]
        trs = sorted({p.tr_ms for p in protocols})
        assert trs == [1000.0, 3000.0, 5000.0, 7000.0, 9000.0]

    def test_inversion_protocols_are_ir(self):
        for p in default_protocols():
            assert (p.ti_ms is not None) == (p.sequence_type == "IR")

    def test_offsets_replicate_cells(self):
        base = default_protocols(
            n_te_cells=2, n_tr_cells=2,
            scanners=(("SIEMENS", "AVANTO"),), field_strengths=(1.5,),
        )
        shifted = default_protocols(
            n_te_cells=2, n_tr_cells=2,
            scanners=(("SIEMENS", "AVANTO"),), field_strengths=(1.5,),
            offsets=((-2.0, -100.0), (2.0, 100.0)),
        )
        assert len(shifted) == 2 * len(base)
        tes = sorted({p.te_ms for p in shifted})
        assert tes == [48.0, 52.0, 148.0, 152.0]

    def test_offset_timings_stay_valid(self):
        protocols = default_protocols(
            offsets=((-2.0, -100.0), (2.0, 100.0)),
        )
        for p in protocols:
            assert p.te_ms >= 0 and p.tr_ms >= 0


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        slices = generate_dataset(
            default_protocols(
                n_te_cells=2, n_tr_cells=2,
                scanners=(("SIEMENS", "AVANTO"),), field_strengths=(1.5,),
            ),
            SynthConfig(n_scans=6, slices_per_scan=2, seed=3),
        )
        path = str(tmp_path / "data.jsonl")
        write_dataset(slices, path)
        again = load_dataset(path)
        assert len(again) == len(slices)
        for sa, sb in zip(slices, again):
            assert sb.record == sa.record
            assert sb.scan_id == sa.scan_id
            assert sb.slice_index == sa.slice_index
            np.testing.assert_array_equal(sb.features, sa.features)

    def test_written_lines_are_sorted_json(self, tmp_path):
        slices = generate_dataset(
            default_protocols(
                n_te_cells=2, n_tr_cells=2,
                scanners=(("SIEMENS", "AVANTO"),), field_strengths=(1.5,),
            ),
            SynthConfig(n_scans=2, slices_per_scan=1, seed=0),
        )
        path = str(tmp_path / "data.jsonl")
        write_dataset(slices, path)
        line = open(path).readline()
        keys = list(__import__("json").loads(line).keys())
        assert keys == sorted(keys)

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda o: o.pop("features"), MalformedFeatures),
            (lambda o: o.update(features=["a"] * 12), MalformedFeatures),
            (lambda o: o.update(features={"gm": 1.0}), MalformedFeatures),
            (lambda o: o.update(features=[]), MalformedFeatures),
            (lambda o: o.update(features=[o["features"]]), MalformedFeatures),
            (lambda o: o.update(features=o["features"][:-1]), MalformedFeatures),
            (lambda o: o.update(scan_id="first"), MalformedFeatures),
            (lambda o: o.update(scan_id=10**30), MalformedFeatures),
            (lambda o: o.update(scan_id=1.5), MalformedFeatures),
            (lambda o: o.update(slice_index=True), MalformedFeatures),
            (lambda o: o.update(features=[float("nan")] * 12), NonFiniteInput),
            (lambda o: o["features"].__setitem__(3, float("inf")), NonFiniteInput),
            (lambda o: json.dumps(o).encode().replace(b'"source_id": "', b'"source_id": "\xff', 1),
             MalformedJson),
        ],
        ids=[
            "missing", "strings", "object", "empty", "nested", "ragged",
            "bad-scan-id", "scan-id-past-int64", "float-scan-id", "bool-slice-index",
            "nan", "inf", "non-utf8",
        ],
    )
    def test_malformed_line_raises_typed_error(self, tmp_path, edit, error):
        slices = generate_dataset(default_protocols(), SynthConfig(n_scans=2, slices_per_scan=1))
        path = tmp_path / "data.jsonl"
        write_dataset(slices, str(path))
        first, second = path.read_bytes().splitlines()
        obj = json.loads(second)
        result = edit(obj)
        second = result if isinstance(result, bytes) else json.dumps(obj).encode()
        path.write_bytes(first + b"\n" + second + b"\n")
        with pytest.raises(error, match="line 2"):
            load_dataset(str(path))

    def test_invalid_json_line_raises_malformed_json(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"source_id": "a", "te_ms": 1,\n')
        with pytest.raises(MalformedJson):
            load_dataset(str(path))


class TestSharedRecords:
    """`load_dataset` gives consecutive slices that repeat their scan's record
    fields one record object; every other slice gets what its line builds."""

    @pytest.mark.parametrize("field, first, second", [
        ("source_id", 1, 1.0), ("source_id", 1.0, True), ("source_id", True, 1),
        ("num_slices", 10, 10.0), ("te_ms", 0.0, -0.0), ("te_ms", -0.0, 0.0),
    ])
    def test_typed_values_build_their_own_record(self, tmp_path, field, first, second):
        slices = generate_dataset(default_protocols(), SynthConfig(n_scans=1, slices_per_scan=2))
        objs = [json.loads(s.to_json_line()) for s in slices]
        objs[0][field], objs[1][field] = first, second
        path = tmp_path / "data.jsonl"
        path.write_text("".join(json.dumps(o) + "\n" for o in objs))
        try:
            want = record_from_dict(json.loads(json.dumps(objs[1])), 2)
        except DataError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                load_dataset(str(path))
            return
        got = load_dataset(str(path))[1].record
        assert got.to_dict() == want.to_dict()
        assert math.copysign(1.0, got.te_ms) == math.copysign(1.0, want.te_ms)

    def test_a_scan_holds_one_record(self, tmp_path):
        config = SynthConfig(n_scans=1000, slices_per_scan=10)
        slices = generate_dataset(default_protocols(), config)
        path = str(tmp_path / "data.jsonl")
        write_dataset(slices, path)
        del slices
        gc.collect()
        tracemalloc.start()
        try:
            loaded = load_dataset(path)
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert live < 6e6, live  # 9.9 MB with one record per slice
        assert len({id(s.record) for s in loaded}) == 1000
        assert all(s.record is loaded[10 * s.scan_id].record for s in loaded)

    @pytest.mark.parametrize("text", ["", "\n \n\n"], ids=["empty", "blank-lines"])
    def test_dataset_without_lines_raises_empty_dataset(self, tmp_path, text):
        path = tmp_path / "data.jsonl"
        path.write_text(text)
        with pytest.raises(EmptyDataset):
            load_dataset(str(path))
