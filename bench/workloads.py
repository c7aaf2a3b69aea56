"""One round of one workload, run in a fresh child process.

`run.py` starts this file once per round with OpenBLAS/OpenMP limited to one
thread. The round sets up its inputs, runs each user-facing stage through
`mrcontrast.cli.main` in process (or through the public module functions
where the CLI has no switch for the workload's input), checks the outputs
with `checks.py`, and writes its metrics to a JSON result file.

    python3 bench/workloads.py --workload desk5x5 --seed 7 --workdir DIR \
        --result OUT.json --t0 T0 [--trace 1] [--setup-only] [--mini]
    python3 bench/workloads.py --workload ingest_kmeans --corpus CORPUS ...

ingest_kmeans reads the corpus `run.py` wrote once for the run (see
`corpus.py`); its set-up rebuilds the same corpus in memory, for the
expected records and rejections, without writing it.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from mrcontrast import cli, evaluate, prompts, synth, train
from mrcontrast.labels import LabelSpace
from mrcontrast.loss import ShardPlan, loss_graph
from mrcontrast.records import parse_manifest_line

import checks
import corpus
from spans import Tracer, install, layer_metrics, span_table

WORKLOADS = ("desk5x5", "bigbatch_fine", "ingest_kmeans")


@dataclass(frozen=True)
class Scale:
    """Input sizes and training settings; FULL is what the benchmark runs."""

    scans: int
    slices: int
    epochs: int  # bigbatch_fine only; desk5x5 uses the CLI default
    batch: int
    shards: int
    warmup: int
    lr: float
    kmeans: int
    corpus: corpus.CorpusSize
    quality_checks: bool  # the miniature trains too little for transfer >= fine
    desk_train_flags: tuple = ()


FULL = Scale(
    scans=1000, slices=10, epochs=3, batch=1024, shards=8, warmup=8, lr=0.01, kmeans=40,
    corpus=corpus.FULL, quality_checks=True,
)
# Miniature used by the benchmark's own tests: same code paths, seconds to run.
MINI = Scale(
    scans=60, slices=3, epochs=2, batch=64, shards=4, warmup=10, lr=0.01, kmeans=6,
    corpus=corpus.MINI, quality_checks=False,
    desk_train_flags=("--epochs", "2", "--batch-size", "64", "--warmup-steps", "10"),
)


class Round:
    """Stage timings, operation counts and check results of one round."""

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        self.times: dict[str, float] = {}
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.check_failures: list[str] = []
        self.peak_rss_mb = 0.0

    def stage(self, metric: str, fn: Callable[[], object]):
        """Time one user-facing command or stage call (one operation)."""
        self.attempted += 1
        # Training graphs are freed only by the cyclic collector, so peak RSS
        # depends on when it runs. A user runs each command in a fresh
        # process; a full collection here (untimed) likewise leaves nothing of
        # import, set-up or the stage before, and resets the collector's
        # counts, so a stage's peak depends on that stage alone.
        gc.collect()
        span = self.tracer.enter_stage(metric[:-2]) if self.tracer else None
        t = time.perf_counter()
        try:
            result = fn()
        except Exception:
            self.failed += 1
            raise
        finally:
            self.times[metric] = self.times.get(metric, 0.0) + time.perf_counter() - t
            if span is not None:
                self.tracer.exit_stage(span)
            # peak over the stages only; the checks that follow allocate too
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if isinstance(result, int) and not isinstance(result, bool) and result != 0:
            self.failed += 1
            raise RuntimeError(f"{metric[:-2]} exited with code {result}")
        return result

    def check(self, name: str, fn: Callable[[], object]) -> None:
        """Run one correctness check (one operation)."""
        self.attempted += 1
        try:
            fn()
        except Exception as exc:  # a check that crashes has failed too
            self.failed += 1
            detail = str(exc) if isinstance(exc, checks.CheckFailed) else traceback.format_exc()
            self.check_failures.append(f"{name}: {detail}")


def _main(argv) -> Callable[[], int]:
    return lambda: cli.main([str(a) for a in argv])


def _report_metrics(rnd: Round, report: dict) -> None:
    for metric, task in (("i2t_r1", "image_to_text"), ("s2t_r1", "scan_to_text"), ("t2i_r1", "text_to_image")):
        rnd.metrics[metric] = report["recalls"][task]["r1"]


def _restore(ckpt_path: Path):
    ckpt = train.load_checkpoint(str(ckpt_path))
    return ckpt, ckpt.restore().model


def _split(data_rows: list[dict], ckpt) -> tuple[np.ndarray, np.ndarray]:
    scan_ids = np.array([r.get("scan_id", 0) for r in data_rows], dtype=np.int64)
    return train.split_by_scan(scan_ids, ckpt.run.val_fraction, ckpt.run.seed)


def _loss_on_batch(model, data_rows, lines, key_ids, rows, n_te, n_tr, shards=(1,)):
    """Program loss (per shard count) and brute-force loss on fixed rows."""
    feats = np.array([data_rows[i]["features"] for i in rows], dtype=np.float64)
    recs = [parse_manifest_line(lines[i]) for i in rows]
    tokens = [prompts.tokenize(prompts.render_prompt(r, prompts.PromptConfig()).text) for r in recs]
    labels = np.array([key_ids[checks.grid_key(data_rows[i], n_te, n_tr)] for i in rows])
    img = model.encode_images(feats)
    txt = model.encode_texts(tokens)
    tau = model.tau()
    program = {
        s: float(loss_graph(img, txt, labels, tau, "supcon", ShardPlan.even(len(rows), s)).data)
        for s in shards
    }
    reference = checks.brute_force_supcon(img.data, txt.data, labels, float(tau.data))
    return program, reference


def _check_i2t(model, space: dict, data_rows, eval_rows, report: dict, n_te, n_tr) -> None:
    key_ids = {tuple(lab["key"]): lab["id"] for lab in space["labels"]}
    true = np.array([key_ids[checks.grid_key(data_rows[i], n_te, n_tr)] for i in eval_rows])
    gallery_ids = np.unique(true)
    texts = {lab["id"]: lab["text"] for lab in space["labels"]}
    gallery = model.encode_texts([prompts.tokenize(texts[int(i)]) for i in gallery_ids]).data
    feats = np.array([data_rows[i]["features"] for i in eval_rows], dtype=np.float64)
    queries = evaluate.encode_features(model, feats)
    checks.check_i2t(report, checks.argmax_r1(queries, gallery, gallery_ids, true))


def _expected_steps(scans: int, slices: int, batch: int, epochs: int, val_fraction: float = 0.2) -> int:
    n_train = (scans - int(round(val_fraction * scans))) * slices
    return epochs * math.ceil(n_train / batch)


# --- workloads ------------------------------------------------------------------


def desk5x5(rnd: Round, work: Path, seed: int, scale: Scale) -> None:
    """README walkthrough at desk scale (the run5x5 acceptance fixture at seed 7)."""
    data, labels, ckpt, log, report = (work / n for n in ("data.jsonl", "labels.json", "model.ckpt", "train.log", "report.json"))
    rnd.stage("synth_s", _main(["synth", "--out", data, "--scans", scale.scans,
                                "--slices-per-scan", scale.slices, "--seed", seed]))
    rnd.stage("labels_s", _main(["build-labels", "--dataset", data, "--out", labels, "--grid", "5x5"]))
    rnd.stage("train_s", _main(["train", "--dataset", data, "--labels", labels, "--checkpoint", ckpt,
                                "--log", log, *scale.desk_train_flags]))
    rnd.stage("eval_s", _main(["eval", "--dataset", data, "--labels", labels, "--checkpoint", ckpt,
                               "--report", "json", "--out", report]))

    lines = [line for line in data.read_text(encoding="utf-8").splitlines() if line.strip()]
    data_rows = [json.loads(line) for line in lines]
    space = json.loads(labels.read_text(encoding="utf-8"))
    rep = json.loads(report.read_text(encoding="utf-8"))
    ck, model = _restore(ckpt)
    train_mask, eval_mask = _split(data_rows, ck)
    _report_metrics(rnd, rep)
    rnd.metrics["probe_acc"] = rep["probe_accuracy"]

    rnd.check("labels_5x5", lambda: checks.check_grid_labels(space, data_rows, 5, 5))
    rnd.check("train_log", lambda: checks.check_train_log(
        log.read_text(encoding="utf-8").splitlines(),
        _expected_steps(scale.scans, scale.slices, ck.run.batch_size, ck.run.epochs)))

    def loss_check():
        key_ids = {tuple(lab["key"]): lab["id"] for lab in space["labels"]}
        rows = np.flatnonzero(train_mask)[: ck.run.batch_size]
        program, reference = _loss_on_batch(model, data_rows, lines, key_ids, rows, 5, 5)
        checks.check_loss(program[1], reference)

    rnd.check("loss_brute_force", loss_check)
    rnd.check("recalls", lambda: checks.check_recalls(rep))
    rnd.check("i2t_recomputed", lambda: _check_i2t(model, space, data_rows, np.flatnonzero(eval_mask), rep, 5, 5))
    grid = space["config"]["grid"]
    rnd.check("mae_ms", lambda: checks.check_mae_ms(
        rep, (grid["te_hi"] - grid["te_lo"]) / grid["n_te"], (grid["tr_hi"] - grid["tr_lo"]) / grid["n_tr"]))


GRID_COMPARE_OFFSETS = ((-2.0, -100.0), (-2.0, 100.0), (2.0, -100.0), (2.0, 100.0))


def bigbatch_fine(rnd: Round, work: Path, seed: int, scale: Scale) -> None:
    """grid_compare data on the 20x20 grid, batch 1024 over 8 anchor shards."""
    data, fine, coarse, ckpt, log = (work / n for n in ("data.jsonl", "fine.json", "coarse.json", "model.ckpt", "train.log"))

    def make_data():
        protocols = synth.default_protocols(
            n_te_cells=5, n_tr_cells=5, scanners=(("SIEMENS", "AVANTO"),),
            field_strengths=(1.5,), offsets=GRID_COMPARE_OFFSETS)
        slices = synth.generate_dataset(
            protocols, synth.SynthConfig(n_scans=scale.scans, slices_per_scan=scale.slices, seed=seed))
        synth.write_dataset(slices, str(data))

    rnd.stage("synth_s", make_data)
    rnd.stage("labels_s", _main(["build-labels", "--dataset", data, "--out", fine, "--grid", "20x20"]))
    rnd.stage("labels_s", _main(["build-labels", "--dataset", data, "--out", coarse, "--grid", "5x5"]))
    rnd.stage("train_s", _main(["train", "--dataset", data, "--labels", fine, "--checkpoint", ckpt, "--log", log,
                                "--epochs", scale.epochs, "--batch-size", scale.batch, "--shards", scale.shards,
                                "--warmup-steps", scale.warmup, "--lr", scale.lr]))
    reports = {}

    def evaluate_fine_and_transfer():
        slices = synth.load_dataset(str(data))
        space = LabelSpace.from_json_dict(json.loads(fine.read_text(encoding="utf-8")))
        coarse_grid = LabelSpace.from_json_dict(json.loads(coarse.read_text(encoding="utf-8"))).config.grid
        ck = train.load_checkpoint(str(ckpt))
        model = ck.restore().model
        ids = space.assign([s.record for s in slices])
        features, scan_ids, _ = train.dataset_arrays(slices)
        _, eval_mask = train.split_by_scan(scan_ids, ck.run.val_fraction, ck.run.seed)
        for name, grid in (("fine", None), ("transfer", coarse_grid)):
            reports[name] = evaluate.run_evaluation(
                model, space, None, None, features[eval_mask], ids[eval_mask], scan_ids[eval_mask],
                ck.config_hash, transfer_grid=grid).to_json_dict()

    rnd.stage("eval_s", evaluate_fine_and_transfer)

    lines = [line for line in data.read_text(encoding="utf-8").splitlines() if line.strip()]
    data_rows = [json.loads(line) for line in lines]
    fine_space = json.loads(fine.read_text(encoding="utf-8"))
    coarse_space = json.loads(coarse.read_text(encoding="utf-8"))
    ck, model = _restore(ckpt)
    train_mask, eval_mask = _split(data_rows, ck)
    _report_metrics(rnd, reports["fine"])
    rnd.metrics["transfer_s2t_r1"] = reports["transfer"]["recalls"]["scan_to_text"]["r1"]

    rnd.check("labels_20x20", lambda: checks.check_grid_labels(fine_space, data_rows, 20, 20))
    rnd.check("labels_5x5", lambda: checks.check_grid_labels(coarse_space, data_rows, 5, 5))
    rnd.check("train_log", lambda: checks.check_train_log(
        log.read_text(encoding="utf-8").splitlines(),
        _expected_steps(scale.scans, scale.slices, scale.batch, scale.epochs)))
    losses = {}

    def loss_check():
        key_ids = {tuple(lab["key"]): lab["id"] for lab in fine_space["labels"]}
        rows = np.flatnonzero(train_mask)[: scale.batch]
        losses["program"], losses["reference"] = _loss_on_batch(
            model, data_rows, lines, key_ids, rows, 20, 20, shards=(1, scale.shards))
        checks.check_loss(losses["program"][1], losses["reference"])

    rnd.check("loss_brute_force", loss_check)
    rnd.check("loss_shards", lambda: checks.check_shards(losses["program"][scale.shards], losses["program"][1]))
    rnd.check("recalls_fine", lambda: checks.check_recalls(reports["fine"]))
    rnd.check("recalls_transfer", lambda: checks.check_recalls(reports["transfer"]))
    rnd.check("i2t_recomputed", lambda: _check_i2t(
        model, fine_space, data_rows, np.flatnonzero(eval_mask), reports["fine"], 20, 20))
    if scale.quality_checks:
        rnd.check("transfer_not_below_fine", lambda: checks.check_floor(
            "transfer_s2t_r1", rnd.metrics["transfer_s2t_r1"], rnd.metrics["s2t_r1"]))


def ingest_kmeans(rnd: Round, work: Path, incoming: Path, scale: Scale, written: corpus.Corpus) -> None:
    """Metadata path with no model: ingest, then k-means and 20x20 labels."""
    records, summary, km, grid = (work / n for n in ("records.jsonl", "summary.json", "kmeans.json", "grid.json"))
    rnd.stage("ingest_s", _main(["ingest", incoming, "--out", records, "--skip-bad", "--summary", summary]))
    rnd.stage("labels_s", _main(["build-labels", "--dataset", records, "--out", km, "--kmeans", scale.kmeans]))
    rnd.stage("labels_s", _main(["build-labels", "--dataset", records, "--out", grid, "--grid", "20x20"]))

    rows = checks.read_jsonl(records)
    rnd.check("ingest_round_trip", lambda: checks.check_ingest(
        rows, json.loads(summary.read_text(encoding="utf-8")), written.expected, written.rejected))

    def kmeans_check():
        space_json = json.loads(km.read_text(encoding="utf-8"))
        space = LabelSpace.from_json_dict(space_json)
        ids = space.assign([parse_manifest_line(json.dumps(r)) for r in rows])
        clusters = np.array([space.labels[int(i)].key[-1] for i in ids])
        checks.check_kmeans_labels(space_json, rows, clusters)

    rnd.check("kmeans_nearest_centroid", kmeans_check)
    rnd.check("labels_20x20", lambda: checks.check_grid_labels(
        json.loads(grid.read_text(encoding="utf-8")), rows, 20, 20))


# --- child entry point ------------------------------------------------------------


def run_round(workload: str, seed: int, work: Path, t0: float, trace: bool, setup_only: bool, scale: Scale,
              incoming: Optional[Path] = None) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    written = corpus.build_corpus(seed, scale.corpus)[1] if workload == "ingest_kmeans" else None
    setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s}
    if setup_only:
        return out
    tracer = Tracer() if trace else None
    if tracer:
        install(tracer)
    rnd = Round(tracer)
    error = None
    try:
        if workload == "ingest_kmeans":
            ingest_kmeans(rnd, work, incoming, scale, written)
        elif workload == "desk5x5":
            desk5x5(rnd, work, seed, scale)
        else:
            bigbatch_fine(rnd, work, seed, scale)
    except Exception:
        error = traceback.format_exc()
    finally:
        if tracer:
            tracer.uninstall()
    metrics = dict(rnd.metrics)
    metrics.update(rnd.times)
    if error is None:  # a failed stage leaves wall_s unmeasured
        metrics["wall_s"] = sum(rnd.times.values())
    metrics["peak_rss_mb"] = rnd.peak_rss_mb
    out.update(
        metrics=metrics,
        attempted=rnd.attempted,
        failed=rnd.failed,
        correct=error is None and not rnd.check_failures,
        errors=rnd.check_failures + ([error] if error else []),
    )
    if tracer:
        out["layers"] = layer_metrics(tracer)
        out["spans"] = span_table(tracer)
        spans_path = work / "spans.json"
        tracer.write(str(spans_path))
        out["spans_path"] = str(spans_path)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--t0", type=float, required=True, help="parent's perf_counter at spawn")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--mini", action="store_true")
    p.add_argument("--corpus", default=None, help="ingest_kmeans: the corpus written for this seed")
    args = p.parse_args(argv)
    if args.workload == "ingest_kmeans" and args.corpus is None:
        p.error("ingest_kmeans needs --corpus")
    out = run_round(args.workload, args.seed, Path(args.workdir), args.t0, bool(args.trace),
                    args.setup_only, MINI if args.mini else FULL, Path(args.corpus) if args.corpus else None)
    Path(args.result).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
