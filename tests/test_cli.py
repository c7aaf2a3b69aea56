"""End-to-end command-line pipeline tests, run in process via main()."""

import argparse
import gc
import importlib.util
import json
import struct
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import dicom_fixtures
from mrcontrast import cli, errors, evaluate, optim, synth, train
from mrcontrast.cli import main
from mrcontrast.errors import BadCheckpoint, LabelDecodeFailure
from mrcontrast.model import ModelConfig
from mrcontrast.prompts import VOCAB_SIZE
from mrcontrast.records import MetadataRecord, manifest_lines, parse_manifest_line
from mrcontrast.train import RunConfig
from test_train import rewrite_header

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


def required_args(command: str, root) -> list[str]:
    """The required flags of a command, pointing at files under root."""
    if command == "synth":
        return ["--out", str(root / "x.jsonl")]
    dataset = ["--dataset", str(root / "d.jsonl")]
    if command == "build-labels":
        return dataset + ["--out", str(root / "l.json")]
    return dataset + ["--labels", str(root / "l.json"), "--checkpoint", str(root / "c.ckpt")]


def with_nan(blob: bytes, index: int) -> bytes:
    """A checkpoint with its index-th stored float (parameters, then the Adam
    moments) replaced by NaN."""
    start = 12 + struct.unpack("<I", blob[8:12])[0]
    values = np.frombuffer(blob, dtype="<f8", offset=start).copy()
    values[index] = np.nan
    return blob[:start] + values.tobytes()


# RunConfig field -> (its train flag with a value that parses but breaks the
# field's rule, a mistyped or out-of-range header value)
RUN_FLAG_CASES = {
    "batch_size": (["--batch-size", "0"], 0),
    "epochs": (["--epochs", "-1"], 2.0),
    "seed": (["--seed", "-1"], "0"),
    "lr": (["--lr", "nan"], "0.003"),
    "warmup_steps": (["--warmup-steps", "-5"], True),
    "weight_decay": (["--weight-decay", "-0.1"], None),
    "loss_kind": (["--loss", "triplet"], "triplet"),
    "shards": (["--shards", "0"], []),
    "text_dropout": (["--text-dropout", "1.5"], 1.5),
    "include_series_description": (["--include-series-description=1"], "true"),
    "val_fraction": (["--val-fraction", "nan"], float("nan")),
}


def with_raw_rep(obj: dict, text: str) -> str:
    """A label file's text with the first label's rep written as ``text``."""
    obj["labels"][0]["rep"] = "REP"
    return json.dumps(obj).replace('"REP"', text)


class TestPipeline:
    def test_report_has_expected_shape(self, pipeline):
        report = json.loads(open(pipeline["report"]).read())
        assert set(report["recalls"]) == {
            "image_to_text", "scan_to_text", "text_to_image"
        }
        for task in report["recalls"].values():
            assert set(task) == {"r1", "r5", "r10"}
        assert report["probe_accuracy"] is not None
        assert set(report["probe"]) == {"n_iterations", "grad_norm", "converged", "loss"}
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

    def test_resumed_run_frees_the_loaded_moments(self, pipeline, tmp_path, monkeypatch):
        """Traced memory at a resumed run's first optimizer step exceeds a
        fresh run's by less than one token-table array: once the optimizer
        has copied the checkpoint's Adam moments, the loaded ones are freed."""
        step = optim.Adam.step

        def at_first_step(argv):
            seen = []

            def traced(self):
                if not seen:
                    seen.append(tracemalloc.get_traced_memory()[0])
                return step(self)

            monkeypatch.setattr(optim.Adam, "step", traced)
            tracemalloc.start()
            try:
                assert main(argv) == 0
            finally:
                tracemalloc.stop()
            return seen[0]

        short = str(tmp_path / "short.ckpt")
        one_epoch = [f if f != "2" else "1" for f in TRAIN_FLAGS]
        common = ["train", "--dataset", pipeline["data"], "--labels", pipeline["labels"]]
        assert main(common + ["--checkpoint", short] + one_epoch) == 0
        fresh = at_first_step(common + ["--checkpoint", str(tmp_path / "fresh.ckpt")] + TRAIN_FLAGS)
        resumed = at_first_step(common + ["--checkpoint", str(tmp_path / "resumed.ckpt"),
                                          "--resume", short, "--epochs", "2"])
        table_bytes = (VOCAB_SIZE + 1) * ModelConfig().d_tok * 8
        assert resumed - fresh < table_bytes

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

    @pytest.mark.parametrize("flags", [
        ["--lr", "0.5"],
        ["--batch-size", "7", "--shards", "4"],
        ["--include-series-description"],
    ])
    def test_resume_takes_no_run_flag_but_epochs(self, pipeline, tmp_path, capsys, flags):
        """The checkpoint fixes every run setting but the epoch count: any
        other run flag with --resume is a usage error and writes nothing."""
        resumed = tmp_path / "resumed.ckpt"
        with pytest.raises(SystemExit) as exc:
            main([
                "train", "--dataset", pipeline["data"], "--labels", pipeline["labels"],
                "--checkpoint", str(resumed), "--resume", pipeline["ckpt"], "--epochs", "3",
            ] + flags)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "--resume: the checkpoint fixes" in err and "Traceback" not in err
        assert not resumed.exists()

    def test_empty_resume_path_is_data_error(self, pipeline, tmp_path, capsys):
        """--resume "" names no checkpoint: exit 2, not a fresh run."""
        ckpt = tmp_path / "fresh.ckpt"
        assert main([
            "train", "--dataset", pipeline["data"], "--labels", pipeline["labels"],
            "--checkpoint", str(ckpt), "--resume", "", "--epochs", "1",
        ]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "Traceback" not in err
        assert not ckpt.exists() and not (tmp_path / "fresh.ckpt.tmp").exists()

    def test_resume_to_fewer_epochs_than_done_is_data_error(self, pipeline, tmp_path, capsys):
        """--epochs below the checkpoint's epochs_done cannot be reached by
        training on: exit 2 naming both counts, and nothing is written."""
        resumed, log = tmp_path / "resumed.ckpt", tmp_path / "resumed.log"
        assert main([
            "train", "--dataset", pipeline["data"], "--labels", pipeline["labels"],
            "--checkpoint", str(resumed), "--log", str(log),
            "--resume", pipeline["ckpt"], "--epochs", "1",
        ]) == 2
        err = capsys.readouterr().err
        assert "--epochs 1 is below the checkpoint's 2 epochs done" in err
        assert "Traceback" not in err
        assert not resumed.exists() and not log.exists()

    def test_zero_step_runs_write_an_empty_log(self, pipeline, tmp_path, capsys):
        """A run that takes no step writes an empty log (no line, so no
        non-JSON line) and prints no loss; its checkpoint is still written."""
        common = ["train", "--dataset", pipeline["data"], "--labels", pipeline["labels"]]
        fresh, resumed = tmp_path / "zero.ckpt", tmp_path / "resumed.ckpt"
        assert main(common + ["--checkpoint", str(fresh), "--log", str(tmp_path / "zero.log"),
                              "--epochs", "0"]) == 0
        assert main(common + ["--checkpoint", str(resumed), "--log", str(tmp_path / "resumed.log"),
                              "--resume", pipeline["ckpt"], "--epochs", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [f"trained 0 epochs, 0 steps -> {fresh}",
                       f"trained 2 epochs, 6 steps -> {resumed}"]
        assert (tmp_path / "zero.log").read_bytes() == b""
        assert (tmp_path / "resumed.log").read_bytes() == b""
        assert train.load_checkpoint(str(fresh)).epochs_done == 0
        assert resumed.read_bytes() == open(pipeline["ckpt"], "rb").read()

    @pytest.mark.parametrize("transfer", [False, True], ids=["eval", "eval-transfer"])
    def test_eval_of_a_run_that_held_out_no_scans_names_val_fraction(
        self, pipeline, tmp_path, monkeypatch, capsys, transfer
    ):
        """A checkpoint trained with --val-fraction 0.0 has no eval split:
        eval exits 2 naming val_fraction before it encodes anything, and
        writes no report."""
        ckpt = str(tmp_path / "all_train.ckpt")
        assert main([
            "train", "--dataset", pipeline["data"], "--labels", pipeline["labels"],
            "--checkpoint", ckpt, "--val-fraction", "0.0", "--epochs", "1",
        ]) == 0
        extra = []
        if transfer:
            extra = ["--transfer", str(tmp_path / "1x1.json")]
            assert main(["build-labels", "--dataset", pipeline["data"],
                         "--out", extra[1], "--grid", "1x1"]) == 0
        capsys.readouterr()
        encoded = []
        monkeypatch.setattr(evaluate, "encode_features", lambda *a: encoded.append(a))
        out = tmp_path / "report.json"
        assert main([
            "eval", "--dataset", pipeline["data"], "--labels", pipeline["labels"],
            "--checkpoint", ckpt, "--out", str(out),
        ] + extra) == 2
        err = capsys.readouterr().err
        assert "held out no scans (val_fraction 0.0)" in err and "Traceback" not in err
        assert encoded == [] and not out.exists()

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
        probe = json.loads(open(pipeline["report"]).read())["probe"]
        assert (
            f"probe: {probe['n_iterations']} iterations, "
            f"grad norm {probe['grad_norm']:.3e}, "
            f"converged {str(probe['converged']).lower()}, loss {probe['loss']:.9f}"
        ) in text.splitlines()

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
        assert report["probe"] is None
        assert report["counts"]["n_labels"] == 2

    def test_eval_transfer_onto_kmeans_labels_is_data_error(self, pipeline, tmp_path, capsys):
        """A k-means file has no grid to coarsen onto: exit 2, no report."""
        kmeans_labels = str(tmp_path / "kmeans.json")
        out = tmp_path / "transfer.json"
        assert main([
            "build-labels", "--dataset", pipeline["data"], "--out", kmeans_labels, "--kmeans", "4",
        ]) == 0
        assert main([
            "eval", "--dataset", pipeline["data"],
            "--labels", pipeline["labels"], "--checkpoint", pipeline["ckpt"],
            "--transfer", kmeans_labels, "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert "--transfer needs a grid label file" in err and "Traceback" not in err
        assert not out.exists()

    def test_transfer_is_checked_before_the_dataset_loads(self, pipeline, tmp_path, monkeypatch,
                                                          capsys):
        """A k-means transfer file fails before eval loads the dataset, the
        checkpoint or the model."""
        kmeans_labels = str(tmp_path / "kmeans.json")
        assert main([
            "build-labels", "--dataset", pipeline["data"], "--out", kmeans_labels, "--kmeans", "4",
        ]) == 0

        def no_load(path):
            raise AssertionError("eval loaded the dataset before checking --transfer")

        monkeypatch.setattr(synth, "load_dataset", no_load)
        assert main([
            "eval", "--dataset", pipeline["data"],
            "--labels", pipeline["labels"], "--checkpoint", pipeline["ckpt"],
            "--transfer", kmeans_labels, "--out", str(tmp_path / "transfer.json"),
        ]) == 2
        err = capsys.readouterr().err
        assert "--transfer needs a grid label file" in err and "Traceback" not in err

    def test_kmeans_labels_with_transfer_fail_before_any_load(self, pipeline, tmp_path,
                                                              monkeypatch, capsys):
        """Coarsening needs grid --labels: a k-means --labels file with
        --transfer exits 2 before eval loads the dataset or the checkpoint."""
        kmeans_labels = str(tmp_path / "kmeans.json")
        assert main([
            "build-labels", "--dataset", pipeline["data"], "--out", kmeans_labels, "--kmeans", "4",
        ]) == 0
        loads = []
        monkeypatch.setattr(synth, "load_dataset", lambda path: loads.append(path))
        monkeypatch.setattr(cli, "load_checkpoint", lambda path: loads.append(path))
        out = tmp_path / "transfer.json"
        assert main([
            "eval", "--dataset", pipeline["data"], "--labels", kmeans_labels,
            "--checkpoint", pipeline["ckpt"], "--transfer", pipeline["labels"], "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert "--transfer coarsens grid --labels" in err and "Traceback" not in err
        assert loads == [] and not out.exists()

    def test_transfer_grid_that_does_not_nest_fails_before_any_load(
        self, pipeline, tmp_path, monkeypatch, capsys
    ):
        """A 3x3 bin does not sit inside one 5x5 bin: transferring the 3x3
        labels onto a 5x5 grid exits 2 before eval loads anything."""
        coarse = str(tmp_path / "5x5.json")
        assert main([
            "build-labels", "--dataset", pipeline["data"], "--out", coarse, "--grid", "5x5",
        ]) == 0
        loads = []
        monkeypatch.setattr(synth, "load_dataset", lambda path: loads.append(path))
        monkeypatch.setattr(cli, "load_checkpoint", lambda path: loads.append(path))
        out = tmp_path / "transfer.json"
        assert main([
            "eval", "--dataset", pipeline["data"], "--labels", pipeline["labels"],
            "--checkpoint", pipeline["ckpt"], "--transfer", coarse, "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert "does not nest" in err and "Traceback" not in err
        assert loads == [] and not out.exists()

    def test_eval_frees_dataset_and_checkpoint_before_the_probe(
        self, pipeline, tmp_path, monkeypatch
    ):
        """eval builds the model alone from the checkpoint, with no optimizer,
        and frees the slices and the checkpoint before the probe."""
        refs, alive_at_probe, adams = {}, [], []
        load_dataset, load_checkpoint = synth.load_dataset, cli.load_checkpoint
        adam_init, linear_probe = optim.Adam.__init__, evaluate.linear_probe

        def tracked_load_dataset(path):
            slices = load_dataset(path)
            refs["slice"] = weakref.ref(slices[0])
            return slices

        def tracked_load_checkpoint(path):
            ckpt = load_checkpoint(path)
            refs["checkpoint"] = weakref.ref(ckpt)
            return ckpt

        def tracked_adam_init(adam, *args, **kwargs):
            adams.append(adam)
            adam_init(adam, *args, **kwargs)

        def checked_probe(*args, **kwargs):
            alive_at_probe.append(sorted(name for name, ref in refs.items() if ref() is not None))
            return linear_probe(*args, **kwargs)

        monkeypatch.setattr(synth, "load_dataset", tracked_load_dataset)
        monkeypatch.setattr(cli, "load_checkpoint", tracked_load_checkpoint)
        monkeypatch.setattr(optim.Adam, "__init__", tracked_adam_init)
        monkeypatch.setattr(evaluate, "linear_probe", checked_probe)
        out = str(tmp_path / "report.json")
        gc.disable()  # freed by reference counts, not by a collection
        try:
            assert main([
                "eval", "--dataset", pipeline["data"],
                "--labels", pipeline["labels"], "--checkpoint", pipeline["ckpt"],
                "--out", out,
            ]) == 0
        finally:
            gc.enable()
        assert sorted(refs) == ["checkpoint", "slice"]
        assert adams == []
        assert alive_at_probe == [[]]
        assert open(out).read() == open(pipeline["report"]).read()

    def test_eval_drops_the_checkpoint_before_the_dataset_load(self, pipeline, tmp_path, monkeypatch):
        """eval reads the checkpoint first and keeps only the model, the run
        config and the config hash, so the checkpoint and its Adam moments
        are freed before the slices are loaded."""
        checkpoints, alive_at_load = [], []
        load_dataset, load_checkpoint = synth.load_dataset, cli.load_checkpoint

        def tracked_load_checkpoint(path):
            ckpt = load_checkpoint(path)
            checkpoints.append(weakref.ref(ckpt))
            return ckpt

        def tracked_load_dataset(path):
            alive_at_load.append([ref() is not None for ref in checkpoints])
            return load_dataset(path)

        monkeypatch.setattr(cli, "load_checkpoint", tracked_load_checkpoint)
        monkeypatch.setattr(synth, "load_dataset", tracked_load_dataset)
        out = str(tmp_path / "report.json")
        gc.disable()  # freed by reference counts, not by a collection
        try:
            assert main([
                "eval", "--dataset", pipeline["data"],
                "--labels", pipeline["labels"], "--checkpoint", pipeline["ckpt"], "--out", out,
            ]) == 0
        finally:
            gc.enable()
        assert alive_at_load == [[False]]
        assert open(out).read() == open(pipeline["report"]).read()


class TestIngest:
    def corpus(self, tmp_path):
        src = tmp_path / "incoming"
        src.mkdir()
        (src / "a_good.dcm").write_bytes(
            dicom_fixtures.dicom_file(dicom_fixtures.scan_elements())
        )
        (src / "b_garbage.dcm").write_bytes(b"this is not imaging data")
        record = MetadataRecord(
            "manual-1", manufacturer="GE", scanner_model="SIGNA",
            sequence_type="SE", sequence_variant="SK",
            field_strength_tesla=3.0, te_ms=30.0, tr_ms=2000.0,
            flip_angle_deg=90.0,
        )
        mistyped = [{**record.to_dict(), "source_id": "m-2", "manufacturer": 5},
                    {**record.to_dict(), "source_id": "m-3", "num_slices": "x"}]
        (src / "c_manifest.jsonl").write_bytes(
            b'{"source_id": "\xff"}\n'
            + json.dumps(record.to_dict(), sort_keys=True).encode()
            + b"\nnot json at all\n"
            + b"".join(json.dumps(obj).encode() + b"\n" for obj in mistyped)
        )
        return src

    def test_strict_mode_fails_on_first_bad_input(self, tmp_path):
        src = self.corpus(tmp_path)
        out = str(tmp_path / "records.jsonl")
        assert main(["ingest", str(src), "--out", out]) == 2

    def test_failed_strict_ingest_keeps_the_previous_output(self, tmp_path):
        """The good DICOM file is written before the garbage one fails: the
        temporary file goes, and an existing --out keeps its bytes."""
        src = self.corpus(tmp_path)
        out = tmp_path / "records.jsonl"
        out.write_bytes(b"previous run\n")
        assert main(["ingest", str(src), "--out", str(out)]) == 2
        assert out.read_bytes() == b"previous run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["incoming", "records.jsonl"]

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
        assert summary["rejected"] == {"MalformedJson": 3, "MalformedNumeric": 1, "MissingMagic": 1}

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


NOT_NUMBERS = {  # values float() alone would take, or overflow on
    "bool-te": {"te_ms": True},
    "string-tr": {"tr_ms": "500"},
    "spacing-string-and-bool": {"voxel_spacing_mm": ["1", True, 5]},
    "te-past-float-range": {"te_ms": 10**400},
}


@pytest.mark.parametrize("fields", NOT_NUMBERS.values(), ids=NOT_NUMBERS)
def test_record_numbers_that_are_not_numbers_are_malformed_numeric(tmp_path, capsys, fields):
    """`ingest --skip-bad` counts such a manifest line as MalformedNumeric and
    keeps the good one; `build-labels` on the same file exits 2, naming the
    line, with no traceback."""
    good = MetadataRecord("good", te_ms=30.0, tr_ms=2000.0).to_dict()
    manifest = tmp_path / "incoming" / "manifest.jsonl"
    manifest.parent.mkdir()
    manifest.write_text(json.dumps(good) + "\n" + json.dumps({**good, "source_id": "bad", **fields})
                        + "\n")
    out, summary = tmp_path / "records.jsonl", tmp_path / "summary.json"
    assert main(["ingest", str(manifest.parent), "--out", str(out), "--skip-bad",
                 "--summary", str(summary)]) == 0
    assert json.loads(summary.read_text()) == {"accepted": 1, "rejected": {"MalformedNumeric": 1}}
    assert out.read_text() == json.dumps(good, sort_keys=True) + "\n"
    assert main(["build-labels", "--dataset", str(manifest),
                 "--out", str(tmp_path / "labels.json")]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "Traceback" not in err
    assert not (tmp_path / "labels.json").exists()


def test_build_labels_holds_less_than_the_record_list(tmp_path, capsys):
    """build-labels streams its records: over 3,000 distinct manifest lines
    (one label), its traced peak stays below what a list of the parsed
    records alone holds."""
    base = MetadataRecord(
        "x", manufacturer="GE", scanner_model="SIGNA", sequence_type="SE",
        sequence_variant="SK", field_strength_tesla=3.0, te_ms=10.0, tr_ms=500.0,
        flip_angle_deg=90.0, voxel_spacing_mm=(1.0, 1.0, 5.0), num_slices=20,
    ).to_dict()
    data = tmp_path / "records.jsonl"
    with open(data, "w", encoding="utf-8") as fh:
        for i in range(3000):
            fh.write(json.dumps({**base, "source_id": f"scan{i:05d}", "te_ms": 10.0 + i * 1e-3,
                                 "tr_ms": 500.0 + i * 1e-2}) + "\n")
    argv = ["build-labels", "--dataset", str(data), "--out", str(tmp_path / "l.json"),
            "--grid", "20x20"]
    assert main(argv) == 0  # warm-up: first-call caches are not the build's memory
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        records = [parse_manifest_line(line, n) for n, line in manifest_lines(data)]
        list_bytes = tracemalloc.get_traced_memory()[0] - start
        del records
        gc.collect()
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert "built 1 labels over 3000 records" in capsys.readouterr().out
    assert peak < list_bytes, (peak, list_bytes)


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
        ["--lr", "nan"],
        ["--lr", "-1"],
        ["--lr", "inf"],
        ["--weight-decay", "nan"],
        ["--weight-decay", "-0.1"],
        ["--epochs", "-1"],
        ["--warmup-steps", "-5"],
        ["--shards", "0"],
        ["--text-dropout", "1.5"],
        ["--text-dropout", "-0.5"],
        ["--seed", "-1"],
        ["synth", "--scans", "0"],
        ["synth", "--scans", "-3"],
        ["synth", "--slices-per-scan", "0"],
        ["synth", "--noise", "-1"],
        ["synth", "--noise", "nan"],
        ["synth", "--seed", "-1"],
        ["eval", "--probe-l2", "nan"],
        ["eval", "--probe-l2", "-1"],
        ["build-labels", "--kmeans-seed", "-1"],
    ])
    def test_out_of_range_train_flag_is_usage_error(self, tmp_path, capsys, flags):
        """Bad numeric flag values of train, or of the command named first."""
        command = "train"
        if not flags[0].startswith("--"):
            command, flags = flags[0], flags[1:]
        with pytest.raises(SystemExit) as exc:
            main([command] + required_args(command, tmp_path) + flags)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert flags[0] in err and "Traceback" not in err

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
            args = parser.parse_args(train_args + ["--text-dropout", fraction])
            assert args.text_dropout == float(fraction)
        bounds = {
            "batch_size": 1, "shards": 1, "epochs": 0, "warmup_steps": 0,
            "seed": 0, "lr": 0.0, "weight_decay": 0.0,
        }
        for dest, low in bounds.items():
            flag = "--" + dest.replace("_", "-")
            assert getattr(parser.parse_args(train_args + [flag, str(low)]), dest) == low
        synth_args = ["synth", "--out", "o"]
        for dest, low in {"scans": 1, "slices_per_scan": 1, "noise": 0.0, "seed": 0}.items():
            flag = "--" + dest.replace("_", "-")
            assert getattr(parser.parse_args(synth_args + [flag, str(low)]), dest) == low
        eval_args = ["eval", "--dataset", "d", "--labels", "l", "--checkpoint", "c"]
        assert parser.parse_args(eval_args + ["--probe-l2", "0"]).probe_l2 == 0.0
        labels_args = ["build-labels", "--dataset", "d", "--out", "o"]
        assert parser.parse_args(labels_args + ["--kmeans", "1"]).kmeans == 1
        assert parser.parse_args(labels_args + ["--kmeans-seed", "0"]).kmeans_seed == 0

    def test_run_flags_are_the_run_config_fields(self):
        """RunConfig holds exactly train's run flags, and cli sets no default
        of its own: a run flag left out is absent from the parsed args."""
        parser = cli.build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        not_run = {"help", "dataset", "labels", "checkpoint", "log", "resume"}
        dests = [a.dest for a in subparsers.choices["train"]._actions if a.dest not in not_run]
        fields = list(RunConfig.__dataclass_fields__)
        assert len(fields) == 11 and sorted(dests) == sorted(fields) == sorted(RUN_FLAG_CASES)
        args = parser.parse_args(["train", "--dataset", "d", "--labels", "l", "--checkpoint", "c"])
        assert not set(vars(args)) & set(fields)

    @pytest.mark.parametrize("field", list(RUN_FLAG_CASES))
    def test_flag_and_header_share_one_rule(self, pipeline, tmp_path, capsys, monkeypatch, field):
        """A bad value exits 1 naming the flag; in a checkpoint header it is
        BadCheckpoint (exit 2); the field's one rule rejects both. A bool
        flag takes no value, so argparse rejects the flag's explicit one."""
        flag, header_value = RUN_FLAG_CASES[field]
        rule, rejected = train.RUN_RULES[field], []

        def spy(value, *args, **kwargs):
            try:
                return rule(value, *args, **kwargs)
            except (ValueError, argparse.ArgumentTypeError):
                rejected.append(value)
                raise

        monkeypatch.setitem(train.RUN_RULES, field, spy)
        with pytest.raises(SystemExit) as exc:
            main(["train"] + required_args("train", tmp_path) + flag)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert flag[0].split("=")[0] in err and "Traceback" not in err
        bad = tmp_path / "bad.ckpt"
        blob = open(pipeline["ckpt"], "rb").read()
        bad.write_bytes(rewrite_header(blob, lambda h: h["run"].update({field: header_value})))
        with pytest.raises(BadCheckpoint, match=field):
            train.load_checkpoint(str(bad))
        assert main([
            "eval", "--dataset", pipeline["data"], "--labels", pipeline["labels"],
            "--checkpoint", str(bad),
        ]) == 2
        # the flag's value, then the header's in load_checkpoint and in eval
        assert len(rejected) == (2 if "=" in flag[0] else 3)

    @pytest.mark.parametrize("flag", ["--dataset", "--labels", "--checkpoint"])
    def test_directory_as_eval_input_is_data_error(self, pipeline, tmp_path, capsys, flag):
        paths = {"--dataset": pipeline["data"], "--labels": pipeline["labels"],
                 "--checkpoint": pipeline["ckpt"], flag: str(tmp_path)}
        assert main(["eval"] + [a for item in paths.items() for a in item]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("flag, path", [
        ("--checkpoint", "."),
        ("--checkpoint", "missing_dir/c.ckpt"),
        ("--log", "missing_dir/t.log"),
    ])
    def test_unwritable_train_output_fails_before_loading_data(
        self, pipeline, tmp_path, capsys, monkeypatch, flag, path
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(synth, "load_dataset", lambda path: pytest.fail("data was loaded"))
        outputs = {"--checkpoint": "c.ckpt", flag: path}
        assert main([
            "train", "--dataset", pipeline["data"], "--labels", pipeline["labels"],
        ] + [a for item in outputs.items() for a in item] + TRAIN_FLAGS) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("out", [".", "missing_dir/report.json"])
    def test_unwritable_eval_output_fails_before_evaluating(
        self, pipeline, tmp_path, capsys, monkeypatch, out
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(synth, "load_dataset", lambda path: pytest.fail("data was loaded"))
        monkeypatch.setattr(evaluate, "run_evaluation", lambda *a, **k: pytest.fail("evaluated"))
        assert main([
            "eval", "--dataset", pipeline["data"], "--labels", pipeline["labels"],
            "--checkpoint", pipeline["ckpt"], "--out", out,
        ]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_step_counts_past_float_range_rejected(self, pipeline, tmp_path, capsys):
        """A warmup or Adam step count that float arithmetic cannot take is a
        usage error as a flag and a data error in a checkpoint header."""
        huge, largest = 10**400, int(sys.float_info.max)
        with pytest.raises(SystemExit) as exc:
            main(["train"] + required_args("train", tmp_path) + ["--warmup-steps", str(huge)])
        assert exc.value.code == 1 and "--warmup-steps" in capsys.readouterr().err
        assert RunConfig(warmup_steps=largest).warmup_steps == largest
        with pytest.raises(ValueError, match="warmup_steps"):
            RunConfig(warmup_steps=largest + 1)
        blob = open(pipeline["ckpt"], "rb").read()
        for field, edit in (("warmup_steps", lambda h: h["run"].update(warmup_steps=huge)),
                            ("adam_t", lambda h: h.update(adam_t=huge))):
            bad = tmp_path / "bad.ckpt"
            bad.write_bytes(rewrite_header(blob, edit))
            with pytest.raises(BadCheckpoint, match=field):
                train.load_checkpoint(str(bad))
            common = ["--dataset", pipeline["data"], "--labels", pipeline["labels"]]
            assert main(["eval", *common, "--checkpoint", str(bad)]) == 2
            assert main(["train", *common, "--resume", str(bad), "--epochs", "3",
                         "--checkpoint", str(tmp_path / "resumed.ckpt")]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_grid_and_kmeans_together_are_usage_error(self, tmp_path, capsys):
        for flags in (["--grid", "5x5", "--kmeans", "4"], ["--kmeans", "4", "--grid", "20x20"]):
            with pytest.raises(SystemExit) as exc:
                main(["build-labels"] + required_args("build-labels", tmp_path) + flags)
            assert exc.value.code == 1
            assert "not allowed with argument" in capsys.readouterr().err

    def test_kmeans_seed_without_kmeans_is_usage_error(self, tmp_path, capsys):
        """--kmeans-seed only seeds k-means: without --kmeans it is a usage
        error and no label file is written."""
        data, labels = tmp_path / "d.jsonl", tmp_path / "l.json"
        data.write_text(json.dumps(MetadataRecord("r0", te_ms=30.0, tr_ms=2000.0).to_dict()) + "\n")
        common = ["build-labels", "--dataset", str(data), "--out", str(labels)]
        for flags in (["--grid", "5x5", "--kmeans-seed", "9"], ["--kmeans-seed", "0"]):
            with pytest.raises(SystemExit) as exc:
                main(common + flags)
            assert exc.value.code == 1
            err = capsys.readouterr().err
            assert "--kmeans-seed: needs --kmeans" in err and "Traceback" not in err
            assert not labels.exists()
        assert main(common + ["--kmeans", "1", "--kmeans-seed", "9"]) == 0
        assert json.loads(labels.read_text())["config"]["kmeans_seed"] == 9

    def test_grid_past_float_range(self, tmp_path, capsys):
        """A TE whose bin quotient overflows lands in the top bin; a bin count
        past the largest float is a bad grid spec."""
        data, labels = tmp_path / "d.jsonl", tmp_path / "l.json"
        rows = [MetadataRecord(f"r{i}", te_ms=te, tr_ms=2000.0).to_dict()
                for i, te in enumerate((30.0, 1e308))]
        data.write_text("".join(json.dumps(row) + "\n" for row in rows))
        common = ["build-labels", "--dataset", str(data), "--out", str(labels)]
        assert main(common + ["--grid", "1000x5"]) == 0
        keys = [lab["key"] for lab in json.loads(labels.read_text())["labels"]]
        assert sorted(key[7] for key in keys) == [150, 999]
        labels.unlink()
        assert main(common + ["--grid", "1x1" + "0" * 400]) == 2
        err = capsys.readouterr().err
        assert "bad grid spec" in err and "Traceback" not in err
        assert not labels.exists()

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
            lambda b: with_nan(b, 0),
            lambda b: with_nan(b, -1),
        ],
        ids=[
            "prefix", "header", "tensors", "trailing", "header-key", "manifest",
            "nan-param", "nan-adam-moment",
        ],
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

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["empty", "blank-lines"])
    def test_dataset_without_lines_is_data_error(self, pipeline, tmp_path, capsys, command, text):
        data = tmp_path / "empty.jsonl"
        data.write_text(text)
        out = tmp_path / "out"
        flags = (["--checkpoint", str(out)] + TRAIN_FLAGS if command == "train"
                 else ["--checkpoint", pipeline["ckpt"], "--out", str(out)])
        code = main([command, "--dataset", str(data), "--labels", pipeline["labels"]] + flags)
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "no records" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["ingest", "build-labels"])
    def test_non_utf8_manifest_line_is_data_error(self, tmp_path, capsys, command):
        manifest = tmp_path / "manifest.jsonl"
        good = MetadataRecord("m-1", te_ms=30.0, tr_ms=2000.0).to_dict()
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
            lambda o: o["labels"][0].pop("rep"),
            lambda o: with_raw_rep(o, "null"),
            lambda o: with_raw_rep(o, "[30.0, 1200.0]"),
            lambda o: with_raw_rep(o, "[30.0, 1e999, null]"),
        ],
        ids=[
            "missing-key", "wrong-type", "not-json", "missing-rep", "null-rep",
            "rep-two-entries", "rep-overflow",
        ],
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

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda o: o["labels"][0].update(rep=[-5.0, 1200.0, None]), "te_ms/tr_ms must be >= 0"),
            (lambda o: o["labels"][0].update(rep=[30.0, 1200.0, 0.0]), "ti_ms must be > 0"),
            (lambda o: o.update(version=99), "version must be 2"),
            (lambda o: o["labels"][0].update(count="x"), "count must be an int"),
            (lambda o: o["config"].update(ti_edges=[3000.0, 400.0, 1000.0]),
             "/config/ti_edges/0 differs"),
            (lambda o: o["config"].update(n_clusters="x"), "/config/n_clusters differs"),
            (lambda o: o["config"]["grid"].update(n_te=2.5), "n_te must be an int"),
            (lambda o: o["labels"][0].update(text="bogus"), "/labels/0/text differs"),
        ],
        ids=["rep-negative-te", "rep-zero-ti", "version-99", "count-string",
             "unsorted-ti-edges", "n-clusters-string", "fractional-n-te", "bogus-text"],
    )
    def test_label_file_breaking_a_rule_writes_nothing(
        self, pipeline, tmp_path, capsys, command, edit, message
    ):
        obj = json.loads(open(pipeline["labels"]).read())
        edit(obj)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        with pytest.raises(LabelDecodeFailure, match=message):
            cli._load_space(str(bad))
        outputs = [tmp_path / "out.ckpt", tmp_path / "out.log"]
        args = ["--dataset", pipeline["data"], "--labels", str(bad)]
        if command == "train":
            args += ["--checkpoint", str(outputs[0]), "--log", str(outputs[1])] + TRAIN_FLAGS
        else:
            args += ["--checkpoint", pipeline["ckpt"], "--out", str(outputs[0])]
        assert main([command] + args) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not any(p.exists() for p in outputs)

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

    def test_overflowed_embeddings_are_numerical_error(self, tmp_path, capsys):
        # one Adam step at lr 1e300 leaves finite parameters near 1e300, whose
        # embeddings overflow to NaN
        data, labels = str(tmp_path / "d.jsonl"), str(tmp_path / "l.json")
        ckpt, out = str(tmp_path / "c.ckpt"), tmp_path / "report.json"
        assert main([
            "synth", "--out", data, "--protocol-grid", "3x3", "--scans", "20",
            "--slices-per-scan", "3", "--seed", "11", "--single-site",
        ]) == 0
        assert main([
            "build-labels", "--dataset", data, "--out", labels, "--grid", "3x3",
        ]) == 0
        assert main([
            "train", "--dataset", data, "--labels", labels, "--checkpoint", ckpt,
            "--lr", "1e300", "--warmup-steps", "0", "--batch-size", "1024",
            "--epochs", "1",
        ]) == 0
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([
                "eval", "--dataset", data, "--labels", labels,
                "--checkpoint", ckpt, "--out", str(out),
            ])
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert code == 3
        err = capsys.readouterr().err
        assert "not finite" in err and "Traceback" not in err
        assert not out.exists()


class TestChecksBeforeWork:
    """Errors that depend only on the flags, the label file or the checkpoint
    exit 2 before a command does its work: before the dataset load for
    train and eval, before any generation, parsing or grouping otherwise."""

    @pytest.fixture(scope="class")
    def inputs(self, pipeline, tmp_path_factory):
        root = tmp_path_factory.mktemp("before_load")
        paths = {"labels5x5": str(root / "labels5x5.json"),
                 "all_train": str(root / "all_train.ckpt"),
                 "truncated": str(root / "truncated.ckpt"),
                 "bad_labels": str(root / "bad_labels.json")}
        assert main(["build-labels", "--dataset", pipeline["data"],
                     "--out", paths["labels5x5"], "--grid", "5x5"]) == 0
        assert main(["train", "--dataset", pipeline["data"], "--labels", pipeline["labels"],
                     "--checkpoint", paths["all_train"], "--val-fraction", "0.0",
                     "--epochs", "1"]) == 0
        blob = open(pipeline["ckpt"], "rb").read()
        Path(paths["truncated"]).write_bytes(blob[: len(blob) // 2])
        Path(paths["bad_labels"]).write_text("not json")
        return {**pipeline, **paths}

    # case -> (command, --labels, eval's --checkpoint, train's extra flags,
    # what the error says); names are keys of the inputs fixture
    CASES = {
        "eval-val-fraction-0": ("eval", "labels", "all_train", [],
                                "held out no scans (val_fraction 0.0)"),
        "eval-label-space-mismatch": ("eval", "labels5x5", "ckpt", [], "different label space"),
        "eval-truncated-checkpoint": ("eval", "labels", "truncated", [], "data error"),
        "train-resume-truncated-checkpoint": ("train", "labels", None,
                                              ["--resume", "truncated"], "data error"),
        "train-resume-label-space-mismatch": ("train", "labels5x5", None, ["--resume", "ckpt"],
                                              "different label space"),
        "train-resume-to-fewer-epochs": ("train", "labels", None,
                                         ["--resume", "ckpt", "--epochs", "1"],
                                         "--epochs 1 is below the checkpoint's 2 epochs done"),
        "train-malformed-labels": ("train", "bad_labels", None, [], "data error"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_label_and_checkpoint_errors_come_before_the_dataset_load(
        self, inputs, tmp_path, capsys, monkeypatch, case
    ):
        command, labels, ckpt, extra, message = self.CASES[case]
        out = tmp_path / "out"
        args = [command, "--dataset", inputs["data"], "--labels", inputs[labels]]
        if command == "eval":
            args += ["--checkpoint", inputs[ckpt], "--out", str(out)]
        else:
            args += ["--checkpoint", str(out)] + [inputs.get(a, a) for a in extra]
        monkeypatch.setattr(synth, "load_dataset", lambda path: pytest.fail("data was loaded"))
        assert main(args) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("out", [".", "missing_dir/data.jsonl"])
    def test_unwritable_synth_output_fails_before_generating(
        self, tmp_path, capsys, monkeypatch, out
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(synth, "generate_dataset", lambda *a: pytest.fail("data generated"))
        assert main(["synth", "--out", out] + SYNTH_FLAGS) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_unwritable_ingest_summary_keeps_the_previous_output(self, tmp_path, capsys):
        """--summary in a missing directory exits 2 before ingest parses or
        writes anything, so an existing --out keeps its bytes."""
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(json.dumps(MetadataRecord("m-1", te_ms=30.0, tr_ms=2000.0).to_dict()))
        out = tmp_path / "records.jsonl"
        out.write_bytes(b"previous run\n")
        assert main(["ingest", str(manifest), "--out", str(out),
                     "--summary", str(tmp_path / "missing_dir" / "s.json")]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert out.read_bytes() == b"previous run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.jsonl", "records.jsonl"]

    @pytest.mark.parametrize("out", [".", "missing_dir/labels.json"])
    def test_unwritable_label_output_fails_before_grouping(
        self, pipeline, tmp_path, capsys, monkeypatch, out
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "build_label_space", lambda *a: pytest.fail("labels built"))
        assert main(["build-labels", "--dataset", pipeline["data"], "--out", out]) == 2
        assert "Traceback" not in capsys.readouterr().err


def test_every_error_class_maps_to_an_exit_code():
    """main() maps DataError to exit 2 and NumericalError to exit 3; a class
    under only the base would escape as a traceback."""
    classes = [c for c in vars(errors).values() if isinstance(c, type)]
    assert len(classes) > 20 and errors.MrContrastError in classes
    for cls in classes:
        if cls is not errors.MrContrastError:
            assert issubclass(cls, (errors.DataError, errors.NumericalError)), cls.__name__


def test_bench_trace_hooks_find_and_restore_their_targets():
    """bench/spans.py wraps entry points by name; install() fails if one is
    gone, and uninstall() puts every original back."""
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    patched = []

    class Recording(spans.Tracer):
        def patch(self, owner, attr, *args, **kwargs):
            patched.append((owner, attr, owner.__dict__[attr]))
            super().patch(owner, attr, *args, **kwargs)

        def patch_counter(self, owner, attr, counter):
            patched.append((owner, attr, owner.__dict__[attr]))
            super().patch_counter(owner, attr, counter)

    callbacks = list(gc.callbacks)
    tracer = Recording()
    try:
        spans.install(tracer)
        assert all(owner.__dict__[attr] is not original for owner, attr, original in patched)
        names = {(getattr(owner, "__name__", owner), attr) for owner, attr, _ in patched}
        assert {("LabelSpace", "assign"), ("mrcontrast.labels", "fit_kmeans"),
                ("mrcontrast.evaluate", "per_tag_error"), ("PromptBank", "__init__"),
                ("mrcontrast.cli", "build_label_space")} <= names
    finally:
        tracer.uninstall()
    assert [(owner, attr) for owner, attr, original in patched
            if owner.__dict__[attr] is not original] == []
    assert gc.callbacks == callbacks
