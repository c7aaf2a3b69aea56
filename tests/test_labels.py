"""Label construction tests: quantization, grouping, coarsening, round-trips."""

import copy
import dataclasses
import json
import math
import random
import sys

import numpy as np
import pytest

from mrcontrast.errors import (
    EmptyDataset,
    IncompatibleRanges,
    LabelDecodeFailure,
    NonFiniteInput,
)
from mrcontrast.labels import (
    CATEGORICAL_FIELDS,
    FIELD_ORDER,
    TI_EDGES_MS,
    GridSpec,
    KMeansLabelConfig,
    LabelConfig,
    LabelSpace,
    bin_ti,
    build_label_space,
    canonical_text,
    coarsen_te_tr,
    coarsened_space,
    median_rep,
    quantize_te_tr,
)
from mrcontrast.kmeans import KMeansModel
from mrcontrast.prompts import PromptBank, PromptConfig, render_prompt, tokenize
from mrcontrast.records import MetadataRecord
from mrcontrast.synth import SynthConfig, default_protocols, generate_dataset
from test_sweep import DELETE, SEED, VALUES, json_paths, mutate


def rec(te, tr, ti=None, **kw):
    base = dict(
        manufacturer="SIEMENS", scanner_model="AVANTO",
        sequence_type="SE", sequence_variant="SK",
        field_strength_tesla=1.5, flip_angle_deg=90.0,
    )
    base.update(kw)
    return MetadataRecord("r", te_ms=te, tr_ms=tr, ti_ms=ti, **base)


class TestGridSpec:
    def test_default_widths(self):
        grid = GridSpec()
        assert grid.te_width == 10.0
        assert grid.tr_width == 500.0

    def test_five_by_five_widths(self):
        grid = GridSpec(n_te=5, n_tr=5)
        assert grid.te_width == 40.0
        assert grid.tr_width == 2000.0

    @pytest.mark.parametrize("kw", [
        {"n_te": 2.5},
        {"n_tr": True},
        {"n_te": 0},
        {"n_tr": -1},
    ])
    def test_bad_specs_raise(self, kw):
        with pytest.raises(ValueError):
            GridSpec(**kw)

    def test_counts_are_bounded_by_the_largest_float(self):
        largest = int(sys.float_info.max)
        assert GridSpec(n_te=largest, n_tr=largest).te_width > 0.0
        for kw in ({"n_te": largest + 1}, {"n_tr": 10**400}):
            with pytest.raises(ValueError, match="largest float"):
                GridSpec(**kw)


class TestQuantize:
    def test_interior_values(self):
        grid = GridSpec()
        assert quantize_te_tr(25.0, 1145.0, grid) == (2, 2)
        assert quantize_te_tr(0.0, 0.0, grid) == (0, 0)
        assert quantize_te_tr(199.0, 9999.0, grid) == (19, 19)

    def test_bin_edges_are_half_open(self):
        grid = GridSpec()
        assert quantize_te_tr(10.0, 500.0, grid) == (1, 1)
        assert quantize_te_tr(9.999999, 499.999, grid) == (0, 0)

    def test_out_of_range_clamps(self):
        grid = GridSpec()
        assert quantize_te_tr(500.0, 20000.0, grid) == (19, 19)
        assert quantize_te_tr(200.0, 10000.0, grid) == (19, 19)
        assert quantize_te_tr(-1.0, -1.0, grid) == (0, 0)

    def test_matches_floor_formula(self):
        grid = GridSpec(n_te=8, n_tr=12)
        assert (grid.te_width, grid.tr_width) == (25.0, 10000.0 / 12)
        rng = np.random.default_rng(0)
        for _ in range(200):
            te = float(rng.uniform(-50, 250))
            tr = float(rng.uniform(-500, 12000))
            tb, rb = quantize_te_tr(te, tr, grid)
            want_tb = min(max(int(np.floor(te / grid.te_width)), 0), 7)
            want_rb = min(max(int(np.floor(tr / grid.tr_width)), 0), 11)
            assert (tb, rb) == (want_tb, want_rb)

    def test_overflowed_quotient_lands_in_the_top_bin(self):
        assert quantize_te_tr(1e308, 1e308, GridSpec(n_te=1000, n_tr=5)) == (999, 4)
        largest = int(sys.float_info.max)
        assert quantize_te_tr(250.0, -1e308, GridSpec(n_te=largest, n_tr=largest)) == (
            largest - 1, 0)

    def test_clamp_before_floor_matches_floor_then_clamp(self):
        """Wherever floor-then-clamp has a finite quotient, it gives the same bins."""
        rng = np.random.default_rng(1)
        for _ in range(2000):
            grid = GridSpec(n_te=int(rng.integers(1, 1000)), n_tr=int(rng.integers(1, 1000)))
            te, tr = (float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 300)) for _ in "ab")
            want = tuple(
                min(max(math.floor(v / width), 0), n - 1)
                for v, width, n in ((te, grid.te_width, grid.n_te), (tr, grid.tr_width, grid.n_tr))
            )
            assert quantize_te_tr(te, tr, grid) == want

    @pytest.mark.parametrize("te,tr", [
        (float("nan"), 1.0), (1.0, float("inf")), (float("-inf"), 1.0),
    ])
    def test_non_finite_raises(self, te, tr):
        with pytest.raises(NonFiniteInput):
            quantize_te_tr(te, tr, GridSpec())


class TestTiBins:
    def test_absent_is_bin_zero(self):
        assert bin_ti(None) == 0

    @pytest.mark.parametrize("ti,expected", [
        (150.0, 1), (399.9, 1), (400.0, 1),
        (500.0, 2), (1000.0, 2),
        (2500.0, 3), (3000.0, 3),
        (5000.0, 4),
    ])
    def test_edges_partition_positives(self, ti, expected):
        assert bin_ti(ti) == expected

    def test_bin_count(self):
        values = (None, 150.0, 500.0, 2500.0, 5000.0, 1e6)
        assert {bin_ti(v) for v in values} == set(range(len(TI_EDGES_MS) + 2))

    def test_non_finite_raises(self):
        with pytest.raises(NonFiniteInput):
            bin_ti(float("nan"))


class TestCoarsening:
    def test_nested_grids_use_floor_division(self):
        fine, coarse = GridSpec(), GridSpec(n_te=5, n_tr=5)
        for tb in range(20):
            for rb in range(20):
                assert coarsen_te_tr(tb, rb, fine, coarse) == (tb // 4, rb // 4)

    def test_non_nested_grids_requantize_centers(self):
        fine, coarse = GridSpec(), GridSpec(n_te=3, n_tr=3)
        tb, rb = coarsen_te_tr(7, 19, fine, coarse)
        assert (tb, rb) == (1, 2)

    def test_identity_coarsening(self):
        grid = GridSpec()
        assert coarsen_te_tr(13, 4, grid, grid) == (13, 4)


class TestLabelConfig:
    def test_default_key_fields_follow_canonical_order(self):
        assert LabelConfig().key_fields == FIELD_ORDER

    def test_kmeans_key_is_categoricals_plus_cluster(self):
        config = KMeansLabelConfig()
        assert config.key_fields == CATEGORICAL_FIELDS + ("cluster",)
        assert KMeansLabelConfig(fields=("flip_angle",)).key_fields == ("flip_angle", "cluster")

    def test_numerical_only_subset(self):
        config = LabelConfig(fields=("flip_angle", "te_bin", "tr_bin", "ti_bin"))
        assert config.key_fields == ("flip_angle", "te_bin", "tr_bin", "ti_bin")

    def test_out_of_order_fields_rejected(self):
        with pytest.raises(ValueError):
            LabelConfig(fields=("te_bin", "manufacturer"))

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            LabelConfig(fields=("patient_age",))

    def test_unknown_grouping_rejected(self):
        """The grouping is the config's type, not a setting; a label file
        names it, and only grid and kmeans decode."""
        assert (LabelConfig.grouping, KMeansLabelConfig.grouping) == ("grid", "kmeans")
        for cls in (LabelConfig, KMeansLabelConfig):
            with pytest.raises(TypeError):
                cls(grouping="dbscan")
        obj = json.loads(build_label_space([rec(25.0, 1145.0)], KMeansLabelConfig(1))[0].to_json())
        obj["config"]["grouping"] = "dbscan"
        with pytest.raises(LabelDecodeFailure, match="grouping must be one of grid, kmeans"):
            LabelSpace.from_json_dict(obj)

    @pytest.mark.parametrize("field,value", [
        ("grid", (20, 20)), ("fields", ["te_bin"]), ("fields", ("te_bin", "te_bin")),
        ("n_clusters", 0), ("n_clusters", "x"), ("kmeans_seed", -1), ("kmeans_seed", 1.0),
    ])
    def test_each_field_has_a_rule(self, field, value):
        cls = KMeansLabelConfig if field in ("n_clusters", "kmeans_seed") else LabelConfig
        with pytest.raises(ValueError, match=field):
            cls(**{field: value})

    @pytest.mark.parametrize("cls,fields", [
        (LabelConfig, ("flip_angle", "ti_bin")),
        (LabelConfig, ("te_bin",)),
        (KMeansLabelConfig, ("flip_angle", "te_bin")),
        (KMeansLabelConfig, ("ti_bin",)),
        (KMeansLabelConfig, ["plane"]),
    ], ids=["grid-without-bins", "grid-without-tr", "kmeans-with-bin", "kmeans-ti-bin",
            "kmeans-list"])
    def test_fields_fit_the_grouping(self, cls, fields):
        """A grid key needs the TE and TR bins; a k-means key takes only
        categorical fields, since the cluster stands for the timings."""
        with pytest.raises(ValueError, match="fields must be"):
            cls(fields=fields)


class TestMedianRep:
    def test_odd_count_takes_middle(self):
        values = [(10.0, 100.0, None), (30.0, 300.0, None), (20.0, 200.0, None)]
        assert median_rep(values) == (20.0, 200.0, None)

    def test_even_count_takes_lower_middle(self):
        values = [(10.0, 100.0, None), (20.0, 200.0, None)]
        assert median_rep(values) == (10.0, 100.0, None)

    def test_axes_are_independent(self):
        values = [(10.0, 300.0, None), (20.0, 100.0, None), (30.0, 200.0, None)]
        assert median_rep(values) == (20.0, 200.0, None)

    def test_ti_requires_strict_majority(self):
        half = [(1.0, 1.0, 150.0), (1.0, 1.0, None)]
        assert median_rep(half)[2] is None
        majority = [(1.0, 1.0, 150.0), (1.0, 1.0, 250.0), (1.0, 1.0, None)]
        assert median_rep(majority)[2] == 150.0

    def test_result_values_occur_in_input(self):
        rng = np.random.default_rng(3)
        values = [
            (float(rng.uniform(0, 200)), float(rng.uniform(0, 8000)),
             float(rng.uniform(50, 3000)))
            for _ in range(11)
        ]
        te, tr, ti = median_rep(values)
        assert te in [v[0] for v in values]
        assert tr in [v[1] for v in values]
        assert ti in [v[2] for v in values]

    def test_counts_weigh_like_repeated_values(self):
        """Counted triples give the element the repeated list gives, signed
        zeros included, since equal values keep their input order."""
        rng = random.Random(5)
        pool = [0.0, -0.0, 10.0, 20.0, None]
        for _ in range(200):
            values = [(rng.choice(pool[:4]), rng.choice(pool[:4]), rng.choice(pool))
                      for _ in range(rng.randint(1, 6))]
            counts = [rng.randint(1, 4) for _ in values]
            repeated = [v for v, c in zip(values, counts) for _ in range(c)]
            assert repr(median_rep(values, counts)) == repr(median_rep(repeated))



def as_kmeans(obj):
    """Give a decoded grid space a valid one-cluster k-means config."""
    obj["config"] = {"fields": list(CATEGORICAL_FIELDS), "grouping": "kmeans",
                     "kmeans_seed": 0, "n_clusters": 1}


def with_kmeans(obj, **block):
    """Turn a decoded grid space into a k-means one with the given block
    entries; the defaults form a valid one-cluster block."""
    as_kmeans(obj)
    obj["kmeans"] = {"mins": [0.0] * 4, "ranges": [1.0] * 4,
                     "centroids": [[0.5] * 4], **block}

class TestLabelSpace:
    def records(self):
        return [
            rec(25.0, 1145.0),
            rec(25.0, 1145.0),
            rec(27.0, 1100.0),
            rec(95.0, 4200.0),
            rec(20.0, 9000.0, ti=2500.0, sequence_type="IR"),
        ]

    def test_ids_are_dense_and_sorted_by_key(self):
        space, ids = build_label_space(self.records(), LabelConfig())
        assert [lab.label_id for lab in space.labels] == list(range(len(space)))
        keys = [lab.key for lab in space.labels]
        assert keys == sorted(keys)
        assert ids.dtype == np.int64

    def test_same_bin_records_share_a_label(self):
        space, ids = build_label_space(self.records(), LabelConfig())
        assert len(space) == 3
        assert ids[0] == ids[1] == ids[2]
        assert space.labels[int(ids[0])].count == 3

    def test_assign_matches_build_ids(self):
        records = self.records()
        space, ids = build_label_space(records, LabelConfig())
        np.testing.assert_array_equal(space.assign(records), ids)

    def test_assign_unseen_key_raises(self):
        space, _ = build_label_space(self.records(), LabelConfig())
        with pytest.raises(LabelDecodeFailure):
            space.assign([rec(190.0, 9900.0, field_strength_tesla=7.0)])

    def test_rep_values_come_from_members(self):
        space, _ = build_label_space(self.records(), LabelConfig())
        shared = space.labels[space.assign([rec(25.0, 1145.0)])[0]]
        assert shared.rep == (25.0, 1145.0, None)
        ir = space.labels[space.assign(
            [rec(20.0, 9000.0, ti=2500.0, sequence_type="IR")]
        )[0]]
        assert ir.rep == (20.0, 9000.0, 2500.0)

    def test_canonical_text_quotes_rep_timings(self):
        space, _ = build_label_space(self.records(), LabelConfig())
        shared = space.labels[space.assign([rec(25.0, 1145.0)])[0]]
        assert "echo time 25 ms" in shared.canonical_text
        assert "repetition time 1145 ms" in shared.canonical_text
        assert "no inversion pulse" in shared.canonical_text

    def test_canonical_text_mentions_inversion_when_present(self):
        space, _ = build_label_space(self.records(), LabelConfig())
        ir = space.labels[space.assign(
            [rec(20.0, 9000.0, ti=2500.0, sequence_type="IR")]
        )[0]]
        assert "inversion time 2500 ms" in ir.canonical_text

    def test_canonical_text_keeps_only_the_key_clauses(self):
        record = rec(20.0, 3000.0, ti=150.0, sequence_type="IR", series_description="T1 FLAIR")
        text = canonical_text(record, LabelConfig(fields=("te_bin", "tr_bin")))
        assert text == "MRI scan, echo time 20 ms, repetition time 3000 ms."

    def test_series_description_never_in_canonical_text(self):
        records = [rec(25.0, 1145.0, series_description="SECRET_NOTE")]
        space, _ = build_label_space(records, LabelConfig())
        assert "SECRET" not in space.labels[0].canonical_text

    def test_empty_dataset_raises(self):
        with pytest.raises(EmptyDataset):
            build_label_space([], LabelConfig())

    def test_json_round_trip_preserves_everything(self):
        space, _ = build_label_space(self.records(), LabelConfig())
        blob = json.dumps(space.to_json_dict(), sort_keys=True)
        again = LabelSpace.from_json_dict(json.loads(blob))
        assert again.hash_hex == space.hash_hex
        assert [l.key for l in again.labels] == [l.key for l in space.labels]
        assert [l.canonical_text for l in again.labels] == \
            [l.canonical_text for l in space.labels]
        assert [l.rep for l in again.labels] == [l.rep for l in space.labels]
        assert [l.count for l in again.labels] == [l.count for l in space.labels]

    @pytest.mark.parametrize(
        "edit",
        [
            lambda o: o.pop("config"),
            lambda o: o.pop("labels"),
            lambda o: o["config"].pop("grid"),
            lambda o: o["config"]["grid"].update(n_te="many"),
            lambda o: o["config"].update(fields=["bogus"]),
            as_kmeans,
            lambda o: o.update(labels=[1, 2]),
            lambda o: o["labels"][0].pop("key"),
            lambda o: o["labels"][0].update(key=[[1], 2]),
            lambda o: o["labels"][0].update(rep=5),
            lambda o: o["labels"][0].pop("rep"),
            lambda o: o["labels"][0].update(rep=None),
            lambda o: o["labels"][0].update(rep=[25.0, 1145.0]),
            lambda o: o["labels"][0].update(rep=[25.0, 1e999, None]),
            lambda o: o["labels"][0].update(rep=[25.0, 1145.0, float("nan")]),
            lambda o: o["labels"][0].update(rep=[-5.0, 1145.0, None]),
            lambda o: o["labels"][0].update(rep=[25.0, 1145.0, 0.0]),
            lambda o: o["labels"][-1]["key"].__setitem__(6, 400.0),
            lambda o: o.update(version=99),
            lambda o: o.pop("version"),
            lambda o: o["labels"][0].update(count="x"),
            lambda o: o["labels"][0].update(count=0),
            lambda o: o["labels"][0].pop("id"),
            lambda o: o.update(labels=[]),
            lambda o: o["labels"][0].update(text="bogus"),
            lambda o: o["config"]["fields"].pop(),
            lambda o: o["labels"].reverse(),
            lambda o: o["labels"][0].update(id=1),
            lambda o: o["labels"][0]["key"].__setitem__(7, o["labels"][0]["key"][7] + 1),
            lambda o: o["labels"][0]["key"].__setitem__(7, -0.0),
            lambda o: o["config"]["grid"].update(n_te=7),
            lambda o: o["config"]["grid"].update(te_hi=100.0),
            lambda o: o["config"].update(ti_edges=[3000.0, 400.0, 1000.0]),
            lambda o: o["labels"][0].update(rep=[v if v is None else int(v)
                                                 for v in o["labels"][0]["rep"]]),
            lambda o: o.update(kmeans={"mins": [0.0] * 4, "ranges": [1.0] * 4,
                                       "centroids": [[0.5] * 4]}),
            lambda o: with_kmeans(o, centroids=[[0.5, 0.5, 0.0]]),
            lambda o: with_kmeans(o, centroids=[]),
            lambda o: with_kmeans(o, centroids=[0.5] * 4),
            lambda o: with_kmeans(o, mins=[0.0] * 3),
            lambda o: with_kmeans(o, ranges=[1.0] * 5),
            lambda o: with_kmeans(o, ranges=[1.0, 0.0, 1.0, 1.0]),
            lambda o: with_kmeans(o, mins=[0.0, float("nan"), 0.0, 0.0]),
            lambda o: with_kmeans(o, centroids=[[0.5, float("inf"), 0.0, 0.0]]),
            lambda o: o.update(version=1),
            lambda o: o.update(key_fields=o["config"]["fields"]),
            lambda o: o["config"].update(n_clusters=20, kmeans_seed=0),
            lambda o: o["config"].pop("grouping"),
            lambda o: o["config"].update(grouping=["grid"]),
            lambda o: o["config"].update(fields=o["config"]["fields"][:7] + ["ti_bin"]),
        ],
        ids=[
            "no-config", "no-labels", "no-grid", "grid-type", "unknown-field",
            "kmeans-without-centroids", "labels-not-objects", "no-key",
            "unhashable-key", "rep-type", "no-rep", "null-rep", "rep-two-entries",
            "rep-overflow", "rep-nan-ti", "rep-negative-te", "rep-zero-ti",
            "key-flip-angle", "version-99", "no-version", "count-string",
            "count-zero", "no-id", "no-labels-left", "text-edited", "key-field-dropped",
            "labels-reversed", "id-edited", "te-bin-edited", "te-bin-negative-zero",
            "n-te-edited", "other-te-range", "unsorted-ti-edges", "rep-int-timings",
            "stray-kmeans-block", "centroid-columns",
            "no-centroids", "centroids-1d", "mins-shape", "ranges-shape",
            "zero-range", "nan-min", "inf-centroid", "version-1", "stray-key-fields",
            "stray-kmeans-settings", "no-grouping", "grouping-list", "no-te-tr-bins",
        ],
    )
    def test_malformed_json_raises_decode_failure(self, edit):
        space, _ = build_label_space(self.records(), LabelConfig())
        obj = json.loads(json.dumps(space.to_json_dict()))
        edit(obj)
        with pytest.raises(LabelDecodeFailure):
            LabelSpace.from_json_dict(obj)

    @pytest.mark.parametrize("edit,pointer", [
        (lambda o: o["labels"][0].update(text="bogus"), "/labels/0/text differs"),
        (lambda o: o["config"].update(ti_edges=[3000.0, 400.0, 1000.0]), "/config/ti_edges/0 "),
        (lambda o: o["config"]["grid"].update(tr_lo=-1.0), "/config/grid/tr_lo "),
        (lambda o: o.update(kmeans={}), "/kmeans "),
        (lambda o: o["labels"].reverse(), "/labels/0/"),
    ], ids=["text", "ti-edges", "tr-lo", "stray-kmeans", "order"])
    def test_decode_failure_names_the_first_difference(self, edit, pointer):
        space, _ = build_label_space(self.records(), LabelConfig())
        obj = json.loads(space.to_json())
        edit(obj)
        with pytest.raises(LabelDecodeFailure, match=pointer):
            LabelSpace.from_json_dict(obj)

    def test_file_is_the_canonical_json(self):
        space, _ = build_label_space(self.records(), LabelConfig())
        assert space.to_json() == json.dumps(space.to_json_dict(), sort_keys=True)
        obj = json.loads(space.to_json())
        assert obj["version"] == 2 and "key_fields" not in obj
        config = obj["config"]
        assert config["grid"] == {"te_lo": 0.0, "te_hi": 200.0, "n_te": 20,
                                  "tr_lo": 0.0, "tr_hi": 10000.0, "n_tr": 20}
        assert config["ti_edges"] == [400.0, 1000.0, 3000.0]

    def test_hash_changes_with_contents(self):
        space, _ = build_label_space(self.records(), LabelConfig())
        other, _ = build_label_space(self.records()[:3], LabelConfig())
        assert space.hash_hex != other.hash_hex


class TestKMeansGrouping:
    def records(self):
        rng = np.random.default_rng(11)
        out = []
        for center_te, center_tr in ((20.0, 500.0), (100.0, 4000.0), (180.0, 9000.0)):
            for _ in range(15):
                out.append(rec(
                    center_te + float(rng.normal(0, 1.0)),
                    center_tr + float(rng.normal(0, 20.0)),
                ))
        return out

    def test_clusters_recover_the_three_groups(self):
        records = self.records()
        config = KMeansLabelConfig(n_clusters=3, kmeans_seed=0)
        space, ids = build_label_space(records, config)
        assert len(space) == 3
        for start in (0, 15, 30):
            group = ids[start:start + 15]
            assert len(set(group.tolist())) == 1

    def test_rep_used_for_cluster_text(self):
        records = self.records()
        config = KMeansLabelConfig(n_clusters=3, kmeans_seed=0)
        space, ids = build_label_space(records, config)
        member_tes = {}
        for record, i in zip(records, ids):
            member_tes.setdefault(int(i), []).append(record.te_ms)
        for lab in space.labels:
            assert lab.rep[0] in member_tes[lab.label_id]

    def test_json_round_trip_for_kmeans_space(self):
        config = KMeansLabelConfig(n_clusters=3, kmeans_seed=0)
        space, ids = build_label_space(self.records(), config)
        again = LabelSpace.from_json_dict(
            json.loads(json.dumps(space.to_json_dict()))
        )
        assert again.hash_hex == space.hash_hex
        assert [l.canonical_text for l in again.labels] == \
            [l.canonical_text for l in space.labels]
        np.testing.assert_array_equal(again.assign(self.records()), ids)

    @pytest.mark.parametrize("edit", [
        lambda o: o["labels"][0]["key"].__setitem__(-1, -1),
        lambda o: o["labels"][0]["key"].__setitem__(-1, 3),
        lambda o: o["labels"][0]["key"].__setitem__(-1, True),
        lambda o: o["labels"][0]["key"].append(0),
        lambda o: o["config"].update(n_clusters=2),
        lambda o: o["kmeans"]["centroids"].pop(),
    ], ids=["cluster-negative", "cluster-past-k", "cluster-bool", "key-too-long",
            "n-clusters-edited", "centroid-dropped"])
    def test_cluster_ids_and_count_are_checked(self, edit):
        config = KMeansLabelConfig(n_clusters=3, kmeans_seed=0)
        space, _ = build_label_space(self.records(), config)
        obj = json.loads(space.to_json())
        edit(obj)
        with pytest.raises(LabelDecodeFailure):
            LabelSpace.from_json_dict(obj)


class TestCoarsenedSpace:
    def dataset(self):
        protocols = default_protocols(
            n_te_cells=4, n_tr_cells=4,
            scanners=(("SIEMENS", "AVANTO"),), field_strengths=(1.5,),
        )
        slices = generate_dataset(
            protocols, SynthConfig(n_scans=64, slices_per_scan=2, seed=9)
        )
        records = [s.record for s in slices]
        config = LabelConfig(grid=GridSpec())
        space, ids = build_label_space(records, config)
        return space, ids

    def test_coarse_ids_consistent_with_key_coarsening(self):
        space, ids = self.dataset()
        coarse_grid = GridSpec(n_te=4, n_tr=4)
        coarse, coarse_ids, mapping = coarsened_space(space, ids, coarse_grid)
        te_pos = space.key_fields.index("te_bin")
        tr_pos = space.key_fields.index("tr_bin")
        for row, fine_id in enumerate(ids):
            fine_key = space.labels[int(fine_id)].key
            te_b, tr_b = coarsen_te_tr(
                fine_key[te_pos], fine_key[tr_pos], space.config.grid, coarse_grid
            )
            want = list(fine_key)
            want[te_pos], want[tr_pos] = te_b, tr_b
            got = coarse.labels[int(coarse_ids[row])].key
            assert got == tuple(want)
            assert mapping[int(fine_id)] == int(coarse_ids[row])

    def test_coarse_space_is_smaller(self):
        space, ids = self.dataset()
        coarse, coarse_ids, _ = coarsened_space(space, ids, GridSpec(n_te=2, n_tr=2))
        assert len(coarse) < len(space)
        assert set(coarse_ids.tolist()) == set(range(len(coarse)))

    def test_coarse_reps_come_from_fine_reps(self):
        space, ids = self.dataset()
        coarse, _, mapping = coarsened_space(space, ids, GridSpec(n_te=2, n_tr=2))
        fine_tes = {}
        for lab in space.labels:
            if lab.label_id in mapping:
                fine_tes.setdefault(mapping[lab.label_id], []).append(lab.rep[0])
        for lab in coarse.labels:
            assert lab.rep[0] in fine_tes[lab.label_id]

    def test_kmeans_space_cannot_be_coarsened(self):
        protocols = default_protocols(
            n_te_cells=2, n_tr_cells=2,
            scanners=(("SIEMENS", "AVANTO"),), field_strengths=(1.5,),
        )
        slices = generate_dataset(
            protocols, SynthConfig(n_scans=16, slices_per_scan=1, seed=2)
        )
        config = KMeansLabelConfig(n_clusters=4)
        space, ids = build_label_space([s.record for s in slices], config)
        with pytest.raises(IncompatibleRanges):
            coarsened_space(space, ids, GridSpec(n_te=2, n_tr=2))


# Every mutation of these paths, or of a path under one, changes what the file
# describes, so none may load.
PINNED_PATHS = (
    ("version",), ("labels", 0, "id"), ("labels", 0, "text"),
    ("config", "ti_edges"), ("config", "grid", "te_lo"), ("config", "grid", "te_hi"),
    ("config", "grid", "tr_lo"), ("config", "grid", "tr_hi"),
)
SWEEP_SAMPLE = 400


def label_records() -> list:
    protocols = default_protocols(
        n_te_cells=3, n_tr_cells=3, scanners=(("SIEMENS", "AVANTO"),), field_strengths=(1.5,)
    )
    slices = generate_dataset(protocols, SynthConfig(n_scans=60, slices_per_scan=3, seed=11))
    return [s.record for s in slices]


def label_files() -> dict:
    """A grid, a numerical and a k-means label file of one synthetic set."""
    configs = {
        "grid": LabelConfig(grid=GridSpec(n_te=3, n_tr=3)),
        "numerical": LabelConfig(
            grid=GridSpec(n_te=3, n_tr=3), fields=("flip_angle", "te_bin", "tr_bin", "ti_bin")
        ),
        "kmeans": KMeansLabelConfig(n_clusters=4),
    }
    records = label_records()
    return {name: json.loads(build_label_space(records, config)[0].to_json())
            for name, config in configs.items()}


CONTRACT_CONFIGS = pytest.mark.parametrize("config", [
    LabelConfig(grid=GridSpec(n_te=3, n_tr=3)),
    LabelConfig(grid=GridSpec(n_te=3, n_tr=3), fields=("flip_angle", "te_bin", "tr_bin", "ti_bin")),
    KMeansLabelConfig(n_clusters=4),
], ids=["grid", "numerical", "kmeans"])


@CONTRACT_CONFIGS
@pytest.mark.parametrize("siemens_3t", [False, True], ids=["synth", "siemens-3t"])
def test_gallery_quotes_only_training_tokens(config, siemens_3t):
    """Every token of every label's prompt is a token of the training
    prompts, also for values with more than one decimal (2.89362 T, the
    field Siemens 3 T scanners write, and a 12.35 degree flip)."""
    records = label_records()
    if siemens_3t:
        odd = [dataclasses.replace(r, field_strength_tesla=2.89362, flip_angle_deg=12.35)
               for r in records[:9]]
        records = records + odd
    bank = PromptBank(records, PromptConfig())
    trained = set(bank.tokens(np.arange(len(records))).flat.tolist())
    space, _ = build_label_space(records, config)
    for lab in space.labels:
        assert set(tokenize(lab.canonical_text)) <= trained, lab.canonical_text


@CONTRACT_CONFIGS
def test_flip_angle_that_rounds_to_360_builds_a_label(config):
    """A flip angle of 359.96 degrees passes the record rule [0, 360). It keys
    and is quoted as 359.9, so the label's representative record passes the
    rule too, and the gallery still quotes only training tokens."""
    records = label_records()
    records = records + [dataclasses.replace(r, flip_angle_deg=359.96) for r in records[:9]]
    bank = PromptBank(records, PromptConfig())
    trained = set(bank.tokens(np.arange(len(records))).flat.tolist())
    assert "flip angle 359.9 degrees" in render_prompt(records[-1], PromptConfig()).text
    space, ids = build_label_space(records, config)
    assert ids[-1] not in ids[:-9]
    texts = [lab.canonical_text for lab in space.labels]
    quoted = any("flip angle 359.9 degrees" in text for text in texts)
    assert quoted == ("flip_angle" in config.key_fields)
    for text in texts:
        assert set(tokenize(text)) <= trained, text


@pytest.mark.parametrize("config", [
    LabelConfig(grid=GridSpec(n_te=3, n_tr=3)), KMeansLabelConfig(n_clusters=4),
], ids=["grid", "kmeans"])
def test_shared_records_label_as_their_copies(config):
    """Keys, label files and ids are computed once per run of a shared record
    and equal those of distinct copies."""
    shared = label_records()  # one record object per scan
    copies = [copy.copy(r) for r in shared]
    assert len(set(map(id, shared))) == 60 and len(set(map(id, copies))) == len(shared)
    space, ids = build_label_space(copies, config)
    space_shared, ids_shared = build_label_space(shared, config)
    assert space_shared.to_json() == space.to_json()
    np.testing.assert_array_equal(ids_shared, ids)
    assert space.assign(shared).tobytes() == space.assign(copies).tobytes() == ids.tobytes()
    mixed = shared[5:] + copies[:5] + shared[:5]
    np.testing.assert_array_equal(space.assign(mixed), space.assign(copies[5:] + copies[:5] * 2))


def test_kmeans_assigns_once_per_run_of_a_shared_record(monkeypatch):
    shared = label_records()  # 60 scans of 3 slices, one record object per scan
    space, ids = build_label_space(shared, KMeansLabelConfig(n_clusters=4))
    sizes = []
    assign = KMeansModel.assign
    monkeypatch.setattr(KMeansModel, "assign",
                        lambda self, points: sizes.append(len(points)) or assign(self, points))
    np.testing.assert_array_equal(space.assign(shared), ids)
    np.testing.assert_array_equal(space.assign(shared[1:] + shared[:1]), ids[1:].tolist() + [ids[0]])
    assert sizes == [60, 61]


@pytest.mark.parametrize("config", [
    LabelConfig(grid=GridSpec(n_te=3, n_tr=3)), KMeansLabelConfig(n_clusters=4),
], ids=["grid", "kmeans"])
def test_one_shot_iterator_builds_what_a_list_builds(config):
    """build_label_space reads its records in one pass: a generator gives the
    list's label file and id bytes, over runs of shared records (three
    slices a scan) and distinct copies alike."""
    shared = label_records()
    records = shared[:90] + [copy.copy(r) for r in shared[90:]]
    space, ids = build_label_space(records, config)
    streamed, streamed_ids = build_label_space((r for r in records), config)
    assert streamed.to_json() == space.to_json()
    assert streamed_ids.dtype == ids.dtype and streamed_ids.tobytes() == ids.tobytes()
    assert len(ids) == len(records)


@pytest.mark.parametrize("tes, lengths, want", [
    ((0.0, -0.0), (1, 1), "0.0"),
    ((-0.0, 0.0), (1, 1), "-0.0"),
    ((0.0, -0.0), (1, 3), "-0.0"),
    ((-0.0, 0.0), (3, 1), "-0.0"),
    ((0.0, -0.0, 0.0), (2, 1, 2), "-0.0"),
])
def test_signed_zero_median_keeps_its_element(tes, lengths, want):
    """A label whose members quote TE 0.0 and -0.0 (runs of one shared record
    of the given lengths) takes the median element a per-record list takes:
    the lower middle in input order."""
    runs = [rec(te, 1000.0) for te in tes]
    records = [r for r, n in zip(runs, lengths) for _ in range(n)]
    space, _ = build_label_space(iter(records), LabelConfig(grid=GridSpec(n_te=3, n_tr=3)))
    assert len(space) == 1
    assert repr(space.labels[0].rep[0]) == want
    assert repr(space.labels[0].rep) == repr(median_rep([(r.te_ms, r.tr_ms, r.ti_ms) for r in records]))


def test_config_holds_only_its_groupings_settings():
    files = label_files()
    grid_keys = {"fields", "grid", "grouping", "ti_edges"}
    assert set(files["grid"]["config"]) == set(files["numerical"]["config"]) == grid_keys
    assert set(files["kmeans"]["config"]) == {"fields", "grouping", "kmeans_seed", "n_clusters"}
    assert files["kmeans"]["config"]["fields"] == list(CATEGORICAL_FIELDS)
    for obj in files.values():
        assert obj["version"] == 2 and "key_fields" not in obj


def test_rebuild_from_the_loaded_config_gives_the_file_back():
    """The loaded config and the same records rebuild each file byte for
    byte; for the k-means file that needs the stored kmeans_seed."""
    records = label_records()
    for name, obj in label_files().items():
        config = LabelSpace.from_json_dict(obj).config
        rebuilt = build_label_space(records, config)[0].to_json()
        assert rebuilt == json.dumps(obj, sort_keys=True), name


def test_label_file_mutation_sweep():
    """Each path of the three files (labels[1:] aside) is deleted or set to one
    of test_sweep's 14 values. A changed pinned path raises LabelDecodeFailure.
    Any other change either raises LabelDecodeFailure or loads a space whose
    canonical JSON is the changed file, a valid file of another space (for
    example a different count). No other exception type may escape."""
    pinned, others = [], []
    for obj in label_files().values():
        for path in json_paths(obj):
            if path[:1] == ("labels",) and path[1:2] not in ((), (0,)):
                continue
            is_pinned = any(path[:len(p)] == p for p in PINNED_PATHS)
            for value in VALUES + [DELETE]:
                (pinned if is_pinned else others).append((obj, path, value))
    sample = random.Random(SEED).sample(others, SWEEP_SAMPLE)
    assert len(pinned) >= 375
    for cases, must_fail in ((pinned, True), (sample, False)):
        for obj, path, value in cases:
            changed = copy.deepcopy(obj)
            mutate(changed, path, value)
            text = json.dumps(changed, sort_keys=True)
            if text == json.dumps(obj, sort_keys=True):
                continue  # the value was already there
            try:
                space = LabelSpace.from_json_dict(json.loads(text))
            except LabelDecodeFailure:
                continue
            assert not must_fail, (path, value)
            assert space.to_json() == text, (path, value)
