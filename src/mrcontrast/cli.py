"""Command-line pipeline: synth -> ingest -> build-labels -> train -> eval.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
All outputs are deterministic functions of their inputs and flags, so
rerunning a command rewrites byte-identical files.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from . import dicom, synth
from .errors import DataError, LabelDecodeFailure, MrContrastError, NumericalError
from .labels import GridSpec, LabelConfig, LabelSpace, build_label_space
from .records import manifest_lines, parse_manifest_line
from .train import (
    RunConfig,
    config_hash,
    dataset_arrays,
    load_checkpoint,
    save_checkpoint,
    split_by_scan,
    train_model,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _fraction(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value}")
    return value


def _parse_grid(text: str) -> GridSpec:
    try:
        te_part, tr_part = text.lower().split("x")
        return GridSpec(n_te=int(te_part), n_tr=int(tr_part))
    except (ValueError, TypeError):
        raise DataError(f"bad grid spec {text!r}; expected TExTR like 20x20")


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(path).write_text(text, encoding="utf-8")


# --- commands -----------------------------------------------------------------


def cmd_synth(args) -> int:
    grid = _parse_grid(args.protocol_grid)
    scanners = (
        (("SIEMENS", "AVANTO"),) if args.single_site
        else (("SIEMENS", "AVANTO"), ("GE", "SIGNA"))
    )
    fields = (1.5,) if args.single_site else (1.5, 3.0)
    protocols = synth.default_protocols(
        n_te_cells=grid.n_te,
        n_tr_cells=grid.n_tr,
        scanners=scanners,
        field_strengths=fields,
    )
    slices = synth.generate_dataset(
        protocols,
        synth.SynthConfig(
            n_scans=args.scans,
            slices_per_scan=args.slices_per_scan,
            noise_sigma=args.noise,
            seed=args.seed,
        ),
    )
    synth.write_dataset(slices, args.out)
    print(f"wrote {len(slices)} slices over {len(protocols)} protocols to {args.out}")
    return 0


def cmd_ingest(args) -> int:
    paths: list[Path] = []
    for raw in args.inputs:
        p = Path(raw)
        if p.is_dir():
            paths.extend(sorted(q for q in p.rglob("*") if q.is_file()))
        else:
            paths.append(p)
    accepted = []
    rejected: dict[str, int] = {}

    def reject(exc: Exception) -> None:
        name = type(exc).__name__
        rejected[name] = rejected.get(name, 0) + 1
        if not args.skip_bad:
            raise exc

    for p in paths:
        if p.suffix.lower() in (".jsonl", ".json"):
            for number, line in manifest_lines(p):
                try:
                    accepted.append(parse_manifest_line(line, number))
                except MrContrastError as exc:
                    reject(exc)
        else:
            try:
                record = dicom.parse_dicom_tags(p.read_bytes(), source_id=p.name)
                accepted.append(record)
            except MrContrastError as exc:
                reject(exc)

    with open(args.out, "w", encoding="utf-8") as fh:
        for record in accepted:
            fh.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
    summary = {
        "accepted": len(accepted),
        "rejected": dict(sorted(rejected.items())),
    }
    _write_text(args.summary, json.dumps(summary, sort_keys=True))
    return 0


def _load_records(path: str):
    return [parse_manifest_line(line, number) for number, line in manifest_lines(path)]


def cmd_build_labels(args) -> int:
    records = _load_records(args.dataset)
    if args.numerical_labels:
        fields = ("flip_angle", "te_bin", "tr_bin", "ti_bin")
    else:
        fields = LabelConfig().fields
    config = LabelConfig(
        grid=_parse_grid(args.grid),
        fields=fields,
        grouping="grid" if args.kmeans is None else "kmeans",
        n_clusters=20 if args.kmeans is None else args.kmeans,
        kmeans_seed=args.kmeans_seed,
    )
    space, ids = build_label_space(records, config)
    Path(args.out).write_text(
        json.dumps(space.to_json_dict(), sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"built {len(space)} labels over {len(records)} records -> {args.out}")
    return 0


def _load_space(path: str) -> LabelSpace:
    try:
        return LabelSpace.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise LabelDecodeFailure(f"{path}: {exc}") from exc


def cmd_train(args) -> int:
    slices = synth.load_dataset(args.dataset)
    space = _load_space(args.labels)
    records = [s.record for s in slices]
    ids = space.assign(records)

    epochs_before = 0
    if args.resume:
        ckpt = load_checkpoint(args.resume)
        epochs_before = ckpt.epochs_done
        run = ckpt.run
        if args.epochs is not None:
            run = RunConfig(**{**run.to_dict(), "epochs": args.epochs})
        state = train_model(
            slices, space, ids, run, resume_from=ckpt, checkpoint_path=args.checkpoint
        )
    else:
        run = RunConfig(
            batch_size=args.batch_size,
            epochs=args.epochs if args.epochs is not None else 20,
            seed=args.seed,
            lr=args.lr,
            warmup_steps=args.warmup_steps,
            weight_decay=args.weight_decay,
            loss_kind=args.loss,
            shards=args.shards,
            text_dropout=args.text_dropout,
            numerical_only=args.numerical_only,
            include_series_description=args.include_series_description,
            val_fraction=args.val_fraction,
        )
        state = train_model(slices, space, ids, run, checkpoint_path=args.checkpoint)

    # train_model saves after every epoch; write here only when none ran.
    if state.epochs_done == epochs_before:
        save_checkpoint(
            args.checkpoint, state, run, space.hash_hex, config_hash(run, space.hash_hex)
        )
    if args.log:
        Path(args.log).write_text(
            "\n".join(state.log_lines) + "\n", encoding="utf-8"
        )
    final = json.loads(state.log_lines[-1]) if state.log_lines else {}
    print(
        f"trained {state.epochs_done} epochs, {state.optimizer.t} steps, "
        f"final loss {final.get('loss', float('nan')):.4f} -> {args.checkpoint}"
    )
    return 0


def cmd_eval(args) -> int:
    from .evaluate import render_table, run_evaluation

    slices = synth.load_dataset(args.dataset)
    space = _load_space(args.labels)
    ckpt = load_checkpoint(args.checkpoint)
    if ckpt.label_space_hash != space.hash_hex:
        raise DataError(
            "checkpoint was trained on a different label space than --labels"
        )
    state = ckpt.restore()
    records = [s.record for s in slices]
    ids = space.assign(records)
    features, scan_ids, _ = dataset_arrays(slices)
    train_mask, eval_mask = split_by_scan(
        scan_ids, ckpt.run.val_fraction, ckpt.run.seed
    )
    transfer_grid = None
    if args.transfer:
        transfer_grid = _load_space(args.transfer).config.grid
    report = run_evaluation(
        state.model,
        space,
        features[train_mask],
        ids[train_mask],
        features[eval_mask],
        ids[eval_mask],
        scan_ids[eval_mask],
        ckpt.config_hash,
        probe_l2=args.probe_l2,
        transfer_grid=transfer_grid,
    )
    if args.report == "table":
        _write_text(args.out, render_table(report))
    else:
        _write_text(args.out, json.dumps(report.to_json_dict(), sort_keys=True))
    return 0


# --- wiring ---------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="mrcontrast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--protocol-grid", default="5x5")
    p.add_argument("--scans", type=int, default=1000)
    p.add_argument("--slices-per-scan", type=int, default=10)
    p.add_argument("--noise", type=float, default=0.005)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--single-site", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="parse DICOM files / JSON manifests")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out", required=True)
    p.add_argument("--summary", default=None)
    p.add_argument("--skip-bad", action="store_true")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("build-labels", help="construct the label space")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid", default="20x20")
    p.add_argument("--kmeans", type=_positive_int, default=None)
    p.add_argument("--kmeans-seed", type=int, default=0)
    p.add_argument("--numerical-labels", action="store_true")
    p.set_defaults(func=cmd_build_labels)

    p = sub.add_parser("train", help="train the dual encoder")
    p.add_argument("--dataset", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--log", default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=_positive_int, default=256)
    p.add_argument("--lr", type=float, default=3e-3)
    p.add_argument("--warmup-steps", type=int, default=100)
    p.add_argument("--weight-decay", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--loss", choices=("supcon", "infonce"), default="supcon")
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--text-dropout", type=float, default=0.2)
    p.add_argument("--numerical-only", action="store_true")
    p.add_argument("--include-series-description", action="store_true")
    p.add_argument("--val-fraction", type=_fraction, default=0.2)
    p.add_argument("--resume", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--dataset", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--report", choices=("json", "table"), default="json")
    p.add_argument("--out", default=None)
    p.add_argument("--transfer", default=None)
    p.add_argument("--probe-l2", type=float, default=1e-5)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return 3
    except DataError as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return 2
    except MrContrastError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except FileNotFoundError as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
