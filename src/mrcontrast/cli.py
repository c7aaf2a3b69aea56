"""Command-line pipeline: synth -> ingest -> build-labels -> train -> eval.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
All outputs are deterministic functions of their inputs and flags, so
rerunning a command rewrites byte-identical files.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterator, Optional

from . import dicom, synth
from .errors import DataError, EmptyImageSet, LabelDecodeFailure, MrContrastError, NumericalError
from .labels import (
    CATEGORICAL_FIELDS, GridSpec, KMeansLabelConfig, LabelConfig, LabelSpace, build_label_space,
    nesting,
)
from .loss import LOSS_KINDS
from .records import MetadataRecord, manifest_lines, parse_manifest_line
from .rules import non_negative_float, non_negative_int, positive_int
from .train import (
    RUN_RULES,
    Checkpoint,
    RunConfig,
    config_hash,
    dataset_arrays,
    load_checkpoint,
    save_checkpoint,
    split_by_scan,
    train_model,
    write_replacing,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _flag_type(parse, rule):
    """An argparse type: parse the text, then apply the rule that the config
    or reader of the same value applies."""

    def convert(text: str):
        return rule(parse(text), error=argparse.ArgumentTypeError)

    convert.__name__ = parse.__name__
    return convert


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


def _check_outputs(*paths: Optional[str]) -> None:
    """Called by each command before any work, so a bad output path costs nothing."""
    for path in filter(None, paths):
        if Path(path).is_dir() or not Path(path).parent.is_dir():
            raise DataError(f"cannot write {path}: not a file in an existing directory")


# --- commands -----------------------------------------------------------------


def cmd_synth(args) -> int:
    _check_outputs(args.out)
    grid = _parse_grid(args.protocol_grid)
    one_site = dict(scanners=(("SIEMENS", "AVANTO"),), field_strengths=(1.5,))
    protocols = synth.default_protocols(n_te_cells=grid.n_te, n_tr_cells=grid.n_tr,
                                        **(one_site if args.single_site else {}))
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
    """Each accepted record is written as it is parsed, through a temporary
    file that replaces --out at the end, so only the rejection counts are
    kept; a strict-mode failure leaves --out as it was."""
    _check_outputs(args.out, args.summary)
    paths: list[Path] = []
    for raw in args.inputs:
        p = Path(raw)
        if p.is_dir():
            paths.extend(sorted(q for q in p.rglob("*") if q.is_file()))
        else:
            paths.append(p)
    accepted = 0
    rejected: dict[str, int] = {}

    def parse(read, *read_args, **read_kwargs):
        """read(...), or None for input it rejects when --skip-bad is given."""
        try:
            return read(*read_args, **read_kwargs)
        except MrContrastError as exc:
            name = type(exc).__name__
            rejected[name] = rejected.get(name, 0) + 1
            if not args.skip_bad:
                raise
            return None

    def lines():
        nonlocal accepted
        for p in paths:
            if p.suffix.lower() in (".jsonl", ".json"):
                records = (parse(parse_manifest_line, line, number)
                           for number, line in manifest_lines(p))
            else:
                records = [parse(dicom.parse_dicom_tags, p.read_bytes(), source_id=p.name)]
            for record in records:
                if record is not None:
                    accepted += 1
                    yield (json.dumps(record.to_dict(), sort_keys=True) + "\n").encode()

    write_replacing(args.out, lines())
    summary = {
        "accepted": accepted,
        "rejected": dict(sorted(rejected.items())),
    }
    _write_text(args.summary, json.dumps(summary, sort_keys=True))
    return 0


def _read_records(path: str) -> Iterator[MetadataRecord]:
    """The records of a dataset or records file, one line at a time; a line
    that builds the previous line's record again yields that record, so the
    slices of a scan share one."""
    record = None
    for number, line in manifest_lines(path):
        record = parse_manifest_line(line, number, record)
        yield record


def cmd_build_labels(args) -> int:
    _check_outputs(args.out)
    cats = ("flip_angle",) if args.numerical_labels else CATEGORICAL_FIELDS
    if args.kmeans is None:
        grid = _parse_grid(args.grid) if args.grid else GridSpec()
        config = LabelConfig(grid, cats + ("te_bin", "tr_bin", "ti_bin"))
    else:
        config = KMeansLabelConfig(args.kmeans, args.kmeans_seed or 0, cats)
    space, ids = build_label_space(_read_records(args.dataset), config)
    Path(args.out).write_text(space.to_json() + "\n", encoding="utf-8")
    print(f"built {len(space)} labels over {len(ids)} records -> {args.out}")
    return 0


def _load_space(path: str) -> LabelSpace:
    try:
        return LabelSpace.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise LabelDecodeFailure(f"{path}: {exc}") from exc


def _load_checkpoint_for(path: str, space: LabelSpace) -> Checkpoint:
    """The checkpoint at path; a data error unless it was trained on space."""
    ckpt = load_checkpoint(path)
    if ckpt.label_space_hash != space.hash_hex:
        raise DataError("checkpoint was trained on a different label space than --labels")
    return ckpt


def cmd_train(args) -> int:
    _check_outputs(args.checkpoint, args.log)
    flags = {k: v for k, v in vars(args).items() if k in RunConfig.__dataclass_fields__}
    # the label file and the checkpoint are read and checked before the dataset load
    space = _load_space(args.labels)
    ckpt = _load_checkpoint_for(args.resume, space) if args.resume is not None else None
    epochs_before = ckpt.epochs_done if ckpt else 0
    run = replace(ckpt.run, **flags) if ckpt else RunConfig(**flags)
    if run.epochs < epochs_before:
        raise DataError(f"--epochs {run.epochs} is below the checkpoint's "
                        f"{epochs_before} epochs done")
    slices = synth.load_dataset(args.dataset)
    ids = space.assign([s.record for s in slices])
    state = train_model(
        slices, space, ids, run, resume_from=ckpt, checkpoint_path=args.checkpoint
    )

    # train_model saves after every epoch; write here only when none ran.
    if state.epochs_done == epochs_before:
        save_checkpoint(
            args.checkpoint, state, run, space.hash_hex, config_hash(run, space.hash_hex)
        )
    if args.log:
        Path(args.log).write_text("".join(f"{line}\n" for line in state.log_lines), "utf-8")
    summary = f"trained {state.epochs_done} epochs, {state.optimizer.t} steps"
    if state.log_lines:  # a loss only when this run took a step
        summary += f", final loss {json.loads(state.log_lines[-1])['loss']:.4f}"
    print(f"{summary} -> {args.checkpoint}")
    return 0


def _eval_inputs(args) -> tuple[tuple, Optional[GridSpec]]:
    """run_evaluation's positional arguments and the transfer grid. Both label
    files, then the checkpoint, are read and checked before the dataset load.
    Only the model, the run config and the config hash are kept from the
    checkpoint, which is dropped before that load; the slices go out of scope
    on return, so neither is alive while eval ranks and probes."""
    transfer = _load_space(args.transfer).config if args.transfer else None
    if isinstance(transfer, KMeansLabelConfig):
        raise DataError(f"--transfer needs a grid label file, not the k-means file {args.transfer}")
    space = _load_space(args.labels)
    if transfer and isinstance(space.config, KMeansLabelConfig):
        raise DataError(f"--transfer coarsens grid --labels, not the k-means file {args.labels}")
    if transfer:
        nesting(space.config.grid, transfer.grid)
    ckpt = _load_checkpoint_for(args.checkpoint, space)
    if ckpt.run.val_fraction == 0:
        raise EmptyImageSet("the checkpoint's run held out no scans (val_fraction 0.0): "
                            "nothing to evaluate")
    model, run, cfg_hash = ckpt.model(), ckpt.run, ckpt.config_hash
    del ckpt
    slices = synth.load_dataset(args.dataset)
    ids = space.assign([s.record for s in slices])
    features, scan_ids, _ = dataset_arrays(slices)
    train_mask, eval_mask = split_by_scan(scan_ids, run.val_fraction, run.seed)
    return (
        model, space, features[train_mask], ids[train_mask], features[eval_mask],
        ids[eval_mask], scan_ids[eval_mask], cfg_hash,
    ), transfer.grid if transfer else None


def cmd_eval(args) -> int:
    from .evaluate import render_table, run_evaluation

    _check_outputs(args.out)
    inputs, transfer_grid = _eval_inputs(args)
    report = run_evaluation(*inputs, probe_l2=args.probe_l2, transfer_grid=transfer_grid)
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
    p.add_argument("--scans", type=_flag_type(int, positive_int), default=1000)
    p.add_argument("--slices-per-scan", type=_flag_type(int, positive_int), default=10)
    p.add_argument("--noise", type=_flag_type(float, non_negative_float), default=0.005)
    p.add_argument("--seed", type=_flag_type(int, non_negative_int), default=0)
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
    grouping = p.add_mutually_exclusive_group()
    grouping.add_argument("--grid", default=None, help="TExTR bin counts (default 20x20)")
    grouping.add_argument("--kmeans", type=_flag_type(int, positive_int), default=None)
    p.add_argument("--kmeans-seed", type=_flag_type(int, non_negative_int), default=None,
                   help="k-means seed (default 0); needs --kmeans")
    p.add_argument("--numerical-labels", action="store_true")
    p.set_defaults(func=cmd_build_labels)

    # a run flag (dest = RunConfig field) left out is absent from args
    p = sub.add_parser("train", help="train the dual encoder", argument_default=argparse.SUPPRESS)
    p.add_argument("--dataset", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--log", default=None)
    p.add_argument("--epochs", type=_flag_type(int, RUN_RULES["epochs"]))
    p.add_argument("--batch-size", type=_flag_type(int, RUN_RULES["batch_size"]))
    p.add_argument("--lr", type=_flag_type(float, RUN_RULES["lr"]))
    p.add_argument("--warmup-steps", type=_flag_type(int, RUN_RULES["warmup_steps"]))
    p.add_argument("--weight-decay", type=_flag_type(float, RUN_RULES["weight_decay"]))
    p.add_argument("--seed", type=_flag_type(int, RUN_RULES["seed"]))
    p.add_argument("--loss", dest="loss_kind", choices=LOSS_KINDS,
                   type=_flag_type(str, RUN_RULES["loss_kind"]))
    p.add_argument("--shards", type=_flag_type(int, RUN_RULES["shards"]))
    p.add_argument("--text-dropout", type=_flag_type(float, RUN_RULES["text_dropout"]))
    p.add_argument("--include-series-description", action="store_true")
    p.add_argument("--val-fraction", type=_flag_type(float, RUN_RULES["val_fraction"]))
    p.add_argument("--resume", default=None, help="continue a checkpoint's run to --epochs")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--dataset", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--report", choices=("json", "table"), default="json")
    p.add_argument("--out", default=None)
    p.add_argument("--transfer", default=None)
    p.add_argument("--probe-l2", type=_flag_type(float, non_negative_float), default=1e-5)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "kmeans_seed", None) is not None and args.kmeans is None:
        parser.error("argument --kmeans-seed: needs --kmeans")
    if getattr(args, "resume", None) is not None:
        fixed = sorted(set(vars(args)) & set(RunConfig.__dataclass_fields__) - {"epochs"})
        if fixed:
            parser.error(f"argument --resume: the checkpoint fixes {', '.join(fixed)}; "
                         "only --epochs may change")
    try:
        return args.func(args)
    except NumericalError as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return 3
    except DataError as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return 2
    except OSError as exc:  # a missing or unreadable path, or a directory given as a file
        sys.stderr.write(f"data error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
