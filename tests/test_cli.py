"""End-to-end command-line pipeline tests, run in process via main()."""

import json

import numpy as np
import pytest

import dicom_fixtures
from mrcontrast import cli, train
from mrcontrast.cli import main
from mrcontrast.records import make_record, parse_manifest_line

SYNTH_FLAGS = [
    "--protocol-grid", "3x3", "--scans", "60", "--slices-per-scan", "3",
    "--seed", "11", "--single-site",
]
TRAIN_FLAGS = [
    "--epochs", "2", "--batch-size", "64", "--warmup-steps", "10",
    "--seed", "0",
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "data": str(root / "data.jsonl"),
        "labels": str(root / "labels.json"),
        "ckpt": str(root / "model.ckpt"),
        "log": str(root / "train.log"),
        "report": str(root / "report.json"),
    }
    assert main(["synth", "--out", paths["data"]] + SYNTH_FLAGS) == 0
    assert main([
        "build-labels", "--dataset", paths["data"],
        "--out", paths["labels"], "--grid", "3x3",
    ]) == 0
    assert main([
        "train", "--dataset", paths["data"], "--labels", paths["labels"],
        "--checkpoint", paths["ckpt"], "--log", paths["log"],
    ] + TRAIN_FLAGS) == 0
    assert main([
        "eval", "--dataset", paths["data"], "--labels", paths["labels"],
        "--checkpoint", paths["ckpt"], "--report", "json",
        "--out", paths["report"],
    ]) == 0
    return paths


class TestPipeline:
    def test_report_has_expected_shape(self, pipeline):
        report = json.loads(open(pipeline["report"]).read())
        assert set(report["recalls"]) == {
            "image_to_text", "scan_to_text", "text_to_image"
        }
        for task in report["recalls"].values():
            assert set(task) == {"r1", "r5", "r10"}
        assert report["probe_accuracy"] is not None
        assert report["counts"]["n_labels"] == 18
        assert report["counts"]["n_eval_scans"] == 12

    def test_dataset_lines_parse_as_records(self, pipeline):
        lines = open(pipeline["data"]).read().splitlines()
        assert len(lines) == 180
        record = parse_manifest_line(lines[0])
        assert record.source_id == "scan00000"

    def test_train_log_lines_are_json(self, pipeline):
        lines = open(pipeline["log"]).read().splitlines()
        assert len(lines) == 6  # 2 epochs x ceil(144 train rows / 64)
        for line in lines:
            entry = json.loads(line)
            assert set(entry) == {"epoch", "step", "loss", "lr", "tau"}

    def test_synth_rerun_is_byte_identical(self, pipeline, tmp_path):
        again = str(tmp_path / "again.jsonl")
        assert main(["synth", "--out", again] + SYNTH_FLAGS) == 0
        assert open(again, "rb").read() == open(pipeline["data"], "rb").read()

    def test_synth_seed_moves_the_data(self, pipeline, tmp_path):
        other = str(tmp_path / "other.jsonl")
        flags = [f if f != "11" else "12" for f in SYNTH_FLAGS]
        assert main(["synth", "--out", other] + flags) == 0
        assert open(other, "rb").read() != open(pipeline["data"], "rb").read()

    def test_train_rerun_is_byte_identical(self, pipeline, tmp_path):
        again = str(tmp_path / "again.ckpt")
        assert main([
            "train", "--dataset", pipeline["data"],
            "--labels", pipeline["labels"], "--checkpoint", again,
        ] + TRAIN_FLAGS) == 0
        assert open(again, "rb").read() == open(pipeline["ckpt"], "rb").read()

    def test_resume_matches_uninterrupted_training(self, pipeline, tmp_path):
        short = str(tmp_path / "short.ckpt")
        resumed = str(tmp_path / "resumed.ckpt")
        one_epoch = [f if f != "2" else "1" for f in TRAIN_FLAGS]
        assert main([
            "train", "--dataset", pipeline["data"],
            "--labels", pipeline["labels"], "--checkpoint", short,
        ] + one_epoch) == 0
        assert main([
            "train", "--dataset", pipeline["data"],
            "--labels", pipeline["labels"], "--checkpoint", resumed,
            "--resume", short, "--epochs", "2",
        ]) == 0
        assert open(resumed, "rb").read() == open(pipeline["ckpt"], "rb").read()

    def test_checkpoint_is_written_once_per_epoch(self, pipeline, tmp_path, monkeypatch):
        paths = []

        def counting_save(path, *args):
            paths.append(path)
            original(path, *args)

        original = train.save_checkpoint
        monkeypatch.setattr(train, "save_checkpoint", counting_save)
        monkeypatch.setattr(cli, "save_checkpoint", counting_save)
        ckpt = str(tmp_path / "two.ckpt")
        assert main([
            "train", "--dataset", pipeline["data"],
            "--labels", pipeline["labels"], "--checkpoint", ckpt,
        ] + TRAIN_FLAGS) == 0
        assert paths == [ckpt, ckpt]
        resumed = str(tmp_path / "resumed.ckpt")
        assert main([
            "train", "--dataset", pipeline["data"],
            "--labels", pipeline["labels"], "--checkpoint", resumed,
            "--resume", ckpt, "--epochs", "2",
        ]) == 0
        assert paths == [ckpt, ckpt, resumed]
        assert open(resumed, "rb").read() == open(ckpt, "rb").read()

    def test_eval_table_report(self, pipeline, tmp_path):
        out = str(tmp_path / "report.txt")
        assert main([
            "eval", "--dataset", pipeline["data"],
            "--labels", pipeline["labels"], "--checkpoint", pipeline["ckpt"],
            "--report", "table", "--out", out,
        ]) == 0
        text = open(out).read()
        assert "scan_to_text" in text
        assert "linear probe accuracy" in text

    def test_eval_transfer_report(self, pipeline, tmp_path):
        coarse_labels = str(tmp_path / "coarse.json")
        out = str(tmp_path / "transfer.json")
        assert main([
            "build-labels", "--dataset", pipeline["data"],
            "--out", coarse_labels, "--grid", "1x1",
        ]) == 0
        assert main([
            "eval", "--dataset", pipeline["data"],
            "--labels", pipeline["labels"], "--checkpoint", pipeline["ckpt"],
            "--transfer", coarse_labels, "--out", out,
        ]) == 0
        report = json.loads(open(out).read())
        assert report["probe_accuracy"] is None
        assert report["counts"]["n_labels"] == 2


class TestIngest:
    def corpus(self, tmp_path):
        src = tmp_path / "incoming"
        src.mkdir()
        (src / "a_good.dcm").write_bytes(
            dicom_fixtures.dicom_file(dicom_fixtures.scan_elements())
        )
        (src / "b_garbage.dcm").write_bytes(b"this is not imaging data")
        record = make_record(
            "manual-1", manufacturer="GE", scanner_model="SIGNA",
            sequence_type="SE", sequence_variant="SK",
            field_strength_tesla=3.0, te_ms=30.0, tr_ms=2000.0,
            flip_angle_deg=90.0,
        )
        (src / "c_manifest.jsonl").write_bytes(
            b'{"source_id": "\xff"}\n'
            + json.dumps(record.to_dict(), sort_keys=True).encode()
            + b"\nnot json at all\n"
        )
        return src

    def test_strict_mode_fails_on_first_bad_input(self, tmp_path):
        src = self.corpus(tmp_path)
        out = str(tmp_path / "records.jsonl")
        assert main(["ingest", str(src), "--out", out]) == 2

    def test_skip_bad_collects_good_records_and_counts_failures(self, tmp_path):
        src = self.corpus(tmp_path)
        out = str(tmp_path / "records.jsonl")
        summary_path = str(tmp_path / "summary.json")
        assert main([
            "ingest", str(src), "--out", out,
            "--summary", summary_path, "--skip-bad",
        ]) == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 2
        sources = {parse_manifest_line(line).source_id for line in lines}
        assert sources == {"a_good.dcm", "manual-1"}
        summary = json.loads(open(summary_path).read())
        assert summary["accepted"] == 2
        assert summary["rejected"] == {"MalformedJson": 2, "MissingMagic": 1}

    def test_summary_defaults_to_stdout(self, tmp_path, capsys):
        src = self.corpus(tmp_path)
        out = str(tmp_path / "records.jsonl")
        assert main(["ingest", str(src), "--out", out, "--skip-bad"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["accepted"] == 2

    def test_ingested_records_feed_label_building(self, tmp_path):
        src = self.corpus(tmp_path)
        out = str(tmp_path / "records.jsonl")
        labels = str(tmp_path / "labels.json")
        assert main(["ingest", str(src), "--out", out, "--skip-bad"]) == 0
        assert main(["build-labels", "--dataset", out, "--out", labels]) == 0
        space = json.loads(open(labels).read())
        assert len(space["labels"]) == 2


class TestExitCodes:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", str(tmp_path / "x"), "--bogus"])
        assert exc.value.code == 1

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("flags", [
        ["--batch-size", "0"],
        ["--batch-size", "-4"],
        ["--val-fraction", "-0.2"],
        ["--val-fraction", "1.5"],
        ["--val-fraction", "nan"],
    ])
    def test_out_of_range_train_flag_is_usage_error(self, tmp_path, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main([
                "train", "--dataset", str(tmp_path / "d.jsonl"),
                "--labels", str(tmp_path / "l.json"),
                "--checkpoint", str(tmp_path / "c.ckpt"),
            ] + flags)
        assert exc.value.code == 1
        assert flags[0] in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_kmeans_below_one_is_usage_error(self, tmp_path, capsys, k):
        with pytest.raises(SystemExit) as exc:
            main([
                "build-labels", "--dataset", str(tmp_path / "d.jsonl"),
                "--out", str(tmp_path / "l.json"), "--kmeans", k,
            ])
        assert exc.value.code == 1
        assert "--kmeans" in capsys.readouterr().err

    def test_range_checks_accept_their_bounds(self):
        parser = cli.build_parser()
        train_args = ["train", "--dataset", "d", "--labels", "l", "--checkpoint", "c"]
        for fraction in ("0", "1"):
            args = parser.parse_args(train_args + ["--val-fraction", fraction])
            assert args.val_fraction == float(fraction)
        assert parser.parse_args(train_args + ["--batch-size", "1"]).batch_size == 1
        args = parser.parse_args(["build-labels", "--dataset", "d", "--out", "o", "--kmeans", "1"])
        assert args.kmeans == 1

    def test_bad_grid_spec_is_data_error(self, tmp_path):
        code = main([
            "synth", "--out", str(tmp_path / "x.jsonl"),
            "--protocol-grid", "lol",
        ])
        assert code == 2

    def test_missing_input_file_is_data_error(self, tmp_path):
        code = main([
            "eval", "--dataset", str(tmp_path / "absent.jsonl"),
            "--labels", str(tmp_path / "absent.json"),
            "--checkpoint", str(tmp_path / "absent.ckpt"),
        ])
        assert code == 2

    def test_label_space_mismatch_is_data_error(self, pipeline, tmp_path):
        other_labels = str(tmp_path / "labels5x5.json")
        assert main([
            "build-labels", "--dataset", pipeline["data"],
            "--out", other_labels, "--grid", "5x5",
        ]) == 0
        code = main([
            "eval", "--dataset", pipeline["data"], "--labels", other_labels,
            "--checkpoint", pipeline["ckpt"],
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda b: b[:6],
            lambda b: b[:40],
            lambda b: b[: len(b) // 2],
            lambda b: b + b"\0",
            lambda b: b.replace(b'"adam_t"', b'"adam_u"', 1),
            lambda b: b.replace(b'"params": [["img_w1", [', b'"params": [["img_w1", [[', 1),
        ],
        ids=["prefix", "header", "tensors", "trailing", "header-key", "manifest"],
    )
    def test_malformed_checkpoint_is_data_error(self, pipeline, tmp_path, capsys, corrupt):
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(corrupt(open(pipeline["ckpt"], "rb").read()))
        code = main([
            "eval", "--dataset", pipeline["data"], "--labels", pipeline["labels"],
            "--checkpoint", str(ckpt),
        ])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda o: o.pop("features"),
            lambda o: o.update(features=["x"] * len(o["features"])),
            lambda o: o.update(features=o["features"][1:]),
            lambda o: json.dumps(o).encode().replace(b'"source_id": "', b'"source_id": "\xff', 1),
        ],
        ids=["missing", "non-numeric", "ragged", "non-utf8"],
    )
    def test_malformed_dataset_is_data_error(self, pipeline, tmp_path, capsys, edit):
        lines = open(pipeline["data"], "rb").read().splitlines()
        obj = json.loads(lines[-1])
        result = edit(obj)
        last = result if isinstance(result, bytes) else json.dumps(obj).encode()
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\n".join(lines[:-1] + [last]) + b"\n")
        code = main([
            "train", "--dataset", str(bad), "--labels", pipeline["labels"],
            "--checkpoint", str(tmp_path / "bad.ckpt"),
        ] + TRAIN_FLAGS)
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ingest", "build-labels"])
    def test_non_utf8_manifest_line_is_data_error(self, tmp_path, capsys, command):
        manifest = tmp_path / "manifest.jsonl"
        good = make_record("m-1", te_ms=30.0, tr_ms=2000.0).to_dict()
        manifest.write_bytes(json.dumps(good).encode() + b'\n{"source_id": "\xff"}\n')
        args = [str(manifest)] if command == "ingest" else ["--dataset", str(manifest)]
        assert main([command] + args + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda o: o.pop("config"),
            lambda o: o["labels"][0].update(key=7),
            lambda o: "not json",
        ],
        ids=["missing-key", "wrong-type", "not-json"],
    )
    def test_malformed_label_file_is_data_error(self, pipeline, tmp_path, capsys, edit):
        obj = json.loads(open(pipeline["labels"]).read())
        result = edit(obj)
        bad = tmp_path / "bad.json"
        bad.write_text(result if isinstance(result, str) else json.dumps(obj))
        code = main([
            "train", "--dataset", pipeline["data"], "--labels", str(bad),
            "--checkpoint", str(tmp_path / "bad.ckpt"),
        ] + TRAIN_FLAGS)
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_non_finite_training_is_numerical_error(self, pipeline, tmp_path):
        poisoned = tmp_path / "poisoned.jsonl"
        out = []
        for line in open(pipeline["data"]).read().splitlines():
            obj = json.loads(line)
            obj["features"] = [float("nan")] * len(obj["features"])
            out.append(json.dumps(obj, sort_keys=True))
        poisoned.write_text("\n".join(out) + "\n")
        code = main([
            "train", "--dataset", str(poisoned),
            "--labels", pipeline["labels"],
            "--checkpoint", str(tmp_path / "diverged.ckpt"),
        ] + TRAIN_FLAGS)
        assert code == 3
