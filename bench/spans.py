"""Spans around the public entry points of each module, and the per-layer
metrics derived from them.

Functions are wrapped where their callers look them up (`mrcontrast.cli`
imports `build_label_space` by name, `mrcontrast.train` imports `loss_graph`
by name, and so on); methods are wrapped on their classes. A span records
name, start, end, parent and the benchmark stage it ran in. Spans stay in
memory in flat arrays and are written out when the workload ends. Calls made
outside a stage (the benchmark's own checks) are not recorded.
"""
from __future__ import annotations

import functools
import gc
import json
import math
import os
import time
import tracemalloc
from array import array
from collections import defaultdict
from typing import Callable, Optional

import numpy as np

TAIL_PERCENTILES = (99.0, 98.0, 95.0, 90.0, 75.0)


class Tracer:
    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.stages: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stage_of = array("i")
        self._open: list[int] = []
        self.stage: Optional[int] = None
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        self.distinct: dict[str, set] = defaultdict(set)
        self._undo: list[Callable[[], None]] = []

    # --- spans ----------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._open[-1] if self._open else -1)
        self.stage_of.append(-1 if self.stage is None else self.stage)
        self.end.append(math.nan)
        self._open.append(idx)
        self.start.append(time.perf_counter() - self.t0)
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter() - self.t0
        self._open.pop()

    def enter_stage(self, name: str) -> int:
        """Open a top-level stage span; training also runs under tracemalloc."""
        self.stage = len(self.stages)
        self.stages.append(name)
        if name == "train":
            tracemalloc.start()
        return self.begin("stage." + name)

    def exit_stage(self, idx: int) -> None:
        self.finish(idx)
        if self.stages[self.stage] == "train":
            tracemalloc.stop()
        self.stage = None

    # --- wrapping -------------------------------------------------------------

    def patch(self, owner, attr: str, span: str,
              before: Optional[Callable] = None, after: Optional[Callable] = None) -> None:
        """Replace owner.attr with a wrapper recording a span per call.

        before(args) returns a value handed to after(state, args, result).
        """
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer.stage is None:
                return original(*args, **kwargs)
            state = before(args) if before else None
            idx = tracer.begin(span)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.finish(idx)
            if after:
                after(state, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append(lambda: setattr(owner, attr, original))

    def patch_counter(self, owner, attr: str, counter: str) -> None:
        """Count calls and distinct first arguments, without spans."""
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer.stage is not None:
                tracer.counts[counter + "_calls"] += 1
                tracer.distinct[counter + "_distinct"].add(args[0])
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._undo.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    # --- output -----------------------------------------------------------------

    def arrays(self):
        """(name id, start, end, parent, stage) per span as numpy arrays."""
        return (np.array(self.name, dtype=np.int32), np.array(self.start), np.array(self.end),
                np.array(self.parent, dtype=np.int32), np.array(self.stage_of, dtype=np.int32))

    def write(self, path: str) -> None:
        name, start, end, parent, stage = self.arrays()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "stages": self.stages,
                "columns": ["name", "start_s", "end_s", "parent", "stage"],
                "name": name.tolist(),
                "start_s": start.tolist(),
                "end_s": end.tolist(),
                "parent": parent.tolist(),
                "stage": stage.tolist(),
            }, fh)


def install(tr: Tracer) -> None:
    """Wrap the public entry points of every module the workloads reach."""
    from mrcontrast import cli, dicom, evaluate, labels, prompts, records, synth, train
    from mrcontrast.autodiff import Tensor
    from mrcontrast.labels import LabelSpace
    from mrcontrast.model import DualEncoder
    from mrcontrast.optim import Adam
    from mrcontrast.prompts import PromptBank

    def sample(metric: str, value) -> Callable:
        return lambda _state, _args, result: tr.samples[metric].append(value(result))

    tr.patch(synth, "generate_dataset", "synth.generate")
    tr.patch(synth, "write_dataset", "synth.write")
    tr.patch(synth, "load_dataset", "synth.load")
    tr.patch(dicom, "parse_dicom_tags", "dicom.parse")
    for owner in (records, cli):
        tr.patch(owner, "parse_manifest_line", "records.manifest_parse")
    for owner in (labels, cli):
        tr.patch(owner, "build_label_space", "labels.build",
                 after=sample("labels.n_labels", lambda r: len(r[0])))
    tr.patch(LabelSpace, "assign", "labels.assign")
    tr.patch(evaluate, "coarsened_space", "labels.coarsen")
    tr.patch(labels, "fit_kmeans", "kmeans.fit",
             after=sample("kmeans.iterations", lambda r: r.n_iter))
    tr.patch(PromptBank, "__init__", "prompts.bank_build", after=_reset_peak)
    tr.patch(PromptBank, "tokens_with_dropout", "prompts.dropout")
    for owner in (prompts, evaluate):
        tr.patch_counter(owner, "tokenize", "prompts.tokenize")
    tr.patch(DualEncoder, "encode_images", "model.encode_images")
    tr.patch(DualEncoder, "encode_texts", "model.encode_texts")
    tr.patch(train, "loss_graph", "loss.forward")
    tr.patch(Tensor, "backward", "autodiff.backward")
    tr.patch(Adam, "step", "optim.step", before=_tok_rows_before, after=_adam_after(tr))
    for owner in (train, cli):
        tr.patch(owner, "save_checkpoint", "train.checkpoint", after=_checkpoint_after(tr))
    tr.patch(cli, "train_model", "train.train_model")
    tr.patch(evaluate, "run_evaluation", "evaluate.run")
    tr.patch(evaluate, "encode_features", "evaluate.encode")
    tr.patch(evaluate, "build_gallery", "evaluate.gallery")
    tr.patch(evaluate, "recall_at_k", "evaluate.i2t")
    tr.patch(evaluate, "scan_to_text_recall", "evaluate.s2t")
    tr.patch(evaluate, "text_to_image_recall", "evaluate.t2i")
    tr.patch(evaluate, "linear_probe", "evaluate.probe",
             after=sample("evaluate.probe_iterations", lambda r: r.n_iterations))
    tr.patch(evaluate, "per_tag_error", "evaluate.per_tag")

    def on_gc(phase: str, info: dict) -> None:
        if phase == "stop" and tr.stage is not None and tr.stages[tr.stage] == "train":
            tr.counts["autodiff.gc_collected"] += info["collected"]

    gc.callbacks.append(on_gc)
    tr._undo.append(lambda: gc.callbacks.remove(on_gc))


def _reset_peak(_state=None, _args=None, _result=None) -> None:
    if tracemalloc.is_tracing():
        tracemalloc.reset_peak()


def _tok_rows_before(args):
    adam = args[0]
    for name, p, _ in adam.params:
        if name == "tok_table" and p.grad is not None:
            return p, int(np.any(p.grad != 0, axis=1).sum()), p.data.copy()
    return None


def _adam_after(tr: Tracer) -> Callable:
    def after(state, _args, _result) -> None:
        if state is not None:
            p, with_grad, before = state
            tr.samples["optim.tok_rows_with_grad"].append(with_grad)
            tr.samples["optim.tok_rows_updated"].append(int(np.any(p.data != before, axis=1).sum()))
        if tracemalloc.is_tracing():
            tr.samples["train.step_peak_mb"].append(tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.reset_peak()
    return after


def _checkpoint_after(tr: Tracer) -> Callable:
    def after(_state, args, _result) -> None:
        tr.samples["train.checkpoint_bytes"].append(os.path.getsize(args[0]))
        _reset_peak()
    return after


# --- per-layer metrics ---------------------------------------------------------

# name -> (unit, what it is, the end-to-end metric and workload it should move)
LAYER_METRICS = {
    "synth.generate_s": ("s", "generate_dataset", "synth_s on desk5x5, bigbatch_fine"),
    "synth.write_s": ("s", "write_dataset", "synth_s on desk5x5, bigbatch_fine"),
    "synth.load_s": ("s", "load_dataset, self time", "train_s and eval_s on desk5x5, bigbatch_fine"),
    "dicom.parse_s": ("s", "parse_dicom_tags", "ingest_s on ingest_kmeans"),
    "dicom.files": ("count", "parse_dicom_tags calls", "ingest_s on ingest_kmeans"),
    "records.manifest_parse_s": ("s", "parse_manifest_line", "ingest_s, labels_s on ingest_kmeans; train_s, eval_s on desk5x5"),
    "labels.build_s": ("s", "build_label_space, self time", "labels_s on all workloads"),
    "labels.assign_s": ("s", "LabelSpace.assign", "train_s, eval_s on desk5x5, bigbatch_fine"),
    "labels.coarsen_s": ("s", "coarsened_space", "eval_s on bigbatch_fine"),
    "labels.n_labels": ("count", "largest label space built", "labels_s on ingest_kmeans"),
    "kmeans.fit_s": ("s", "fit_kmeans", "labels_s on ingest_kmeans"),
    "kmeans.iterations": ("count", "Lloyd iterations", "labels_s on ingest_kmeans"),
    "prompts.bank_build_s": ("s", "PromptBank.__init__", "train_s on desk5x5"),
    "prompts.dropout_s": ("s", "PromptBank.tokens_with_dropout", "train_s on desk5x5"),
    "prompts.tokenize_calls": ("count", "tokenize calls", "train_s on desk5x5"),
    "prompts.tokenize_distinct": ("count", "distinct texts tokenized", "train_s on desk5x5"),
    "train.steps": ("count", "optimizer steps", "train_s on desk5x5, bigbatch_fine"),
    "train.step_p50_s": ("s", "median step, optimizer end to optimizer end", "train_s on desk5x5, bigbatch_fine"),
    "train.step_tail_s": ("s", "highest step percentile of 99/98/95/90/75 with >= 10 steps beyond it", "train_s on desk5x5, bigbatch_fine"),
    "train.sampling_s": ("s", "optimizer end to the next image-tower call", "train_s on desk5x5"),
    "train.image_forward_s": ("s", "DualEncoder.encode_images in training", "train_s on desk5x5, bigbatch_fine"),
    "train.text_forward_s": ("s", "DualEncoder.encode_texts in training", "train_s on desk5x5"),
    "loss.forward_s": ("s", "loss_graph in training", "train_s, peak_rss_mb on bigbatch_fine"),
    "autodiff.backward_s": ("s", "Tensor.backward in training", "train_s, peak_rss_mb on bigbatch_fine"),
    "optim.step_s": ("s", "Adam.step", "train_s on desk5x5"),
    "train.checkpoint_s": ("s", "save_checkpoint", "train_s on desk5x5"),
    "train.checkpoint_bytes": ("bytes", "bytes written by all checkpoint saves", "train_s on desk5x5"),
    "optim.tok_rows_with_grad": ("count", "token-table rows with a nonzero gradient, mean per step", "train_s on desk5x5"),
    "optim.tok_rows_updated": ("count", "token-table rows Adam changed, mean per step", "train_s on desk5x5"),
    "train.step_peak_mb": ("MB", "largest tracemalloc peak within one step", "peak_rss_mb, train_s on bigbatch_fine"),
    "autodiff.gc_collected": ("count", "objects the cyclic collector freed during training", "peak_rss_mb, train_s on bigbatch_fine"),
    "evaluate.encode_s": ("s", "encode_features", "eval_s on desk5x5, bigbatch_fine"),
    "evaluate.gallery_s": ("s", "build_gallery", "eval_s on desk5x5, bigbatch_fine"),
    "evaluate.i2t_s": ("s", "recall_at_k", "eval_s on desk5x5, bigbatch_fine"),
    "evaluate.s2t_s": ("s", "scan_to_text_recall", "eval_s on desk5x5, bigbatch_fine"),
    "evaluate.t2i_s": ("s", "text_to_image_recall", "eval_s on desk5x5, bigbatch_fine"),
    "evaluate.probe_s": ("s", "linear_probe", "eval_s on desk5x5"),
    "evaluate.probe_iterations": ("count", "probe iterations", "eval_s on desk5x5"),
    "evaluate.per_tag_s": ("s", "per_tag_error", "eval_s on desk5x5"),
}

# metric -> (span name, use self time, only in this stage)
_SPAN_METRICS = {
    "synth.generate_s": ("synth.generate", False, None),
    "synth.write_s": ("synth.write", False, None),
    "synth.load_s": ("synth.load", True, None),
    "dicom.parse_s": ("dicom.parse", False, None),
    "records.manifest_parse_s": ("records.manifest_parse", False, None),
    "labels.build_s": ("labels.build", True, None),
    "labels.assign_s": ("labels.assign", False, None),
    "labels.coarsen_s": ("labels.coarsen", False, None),
    "kmeans.fit_s": ("kmeans.fit", False, None),
    "prompts.bank_build_s": ("prompts.bank_build", False, None),
    "prompts.dropout_s": ("prompts.dropout", False, None),
    "train.image_forward_s": ("model.encode_images", False, "train"),
    "train.text_forward_s": ("model.encode_texts", False, "train"),
    "loss.forward_s": ("loss.forward", False, "train"),
    "autodiff.backward_s": ("autodiff.backward", False, "train"),
    "optim.step_s": ("optim.step", False, None),
    "train.checkpoint_s": ("train.checkpoint", False, None),
    "evaluate.encode_s": ("evaluate.encode", False, None),
    "evaluate.gallery_s": ("evaluate.gallery", False, None),
    "evaluate.i2t_s": ("evaluate.i2t", False, None),
    "evaluate.s2t_s": ("evaluate.s2t", False, None),
    "evaluate.t2i_s": ("evaluate.t2i", False, None),
    "evaluate.probe_s": ("evaluate.probe", False, None),
    "evaluate.per_tag_s": ("evaluate.per_tag", False, None),
}


def tail_percentile(n: int) -> Optional[float]:
    """Highest listed percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return None


def nearest_rank(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def _durations(tr: Tracer) -> tuple[np.ndarray, np.ndarray]:
    """Per span: duration, and self time (duration minus traced children)."""
    _, start, end, parent, _ = tr.arrays()
    dur = end - start
    child = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur, dur - child


def span_table(tr: Tracer) -> list[tuple[str, int, float, float]]:
    """(name, calls, total seconds, self seconds) per span name."""
    name = tr.arrays()[0]
    dur, own = _durations(tr)
    rows = []
    for i, label in enumerate(tr.names):
        sel = name == i
        rows.append((label, int(sel.sum()), float(dur[sel].sum()), float(own[sel].sum())))
    return rows


def _step_metrics(tr: Tracer) -> dict[str, tuple[float, int]]:
    """Step times and the sampling gap from the optimizer/checkpoint spans.

    A step runs from the previous boundary (end of the prompt-bank build, of
    the last optimizer step or of a checkpoint save) to the end of its
    optimizer step.
    """
    name, start, end, _, stage = tr.arrays()
    ids = {label: i for i, label in enumerate(tr.names)}
    train_stages = [i for i, s in enumerate(tr.stages) if s == "train"]
    in_train = np.isin(stage, train_stages)
    events = []
    for label, kind in (("prompts.bank_build", "boundary"), ("train.checkpoint", "boundary"),
                        ("optim.step", "step"), ("model.encode_images", "image")):
        if label not in ids:
            continue
        sel = np.flatnonzero(in_train & (name == ids[label]))
        t = start[sel] if kind == "image" else end[sel]
        events.extend((float(x), kind) for x in t)
    events.sort()
    steps, gaps = [], []
    boundary = None
    waiting = False
    for t, kind in events:
        if kind == "image" and waiting and boundary is not None:
            gaps.append(t - boundary)
            waiting = False
        elif kind == "step":
            if boundary is not None:
                steps.append(t - boundary)
            boundary, waiting = t, True
        elif kind == "boundary":
            boundary, waiting = t, True
    out = {"train.steps": (float(len(steps)), len(steps)),
           "train.sampling_s": (float(sum(gaps)), len(gaps))}
    if steps:
        out["train.step_p50_s"] = (nearest_rank(steps, 50.0), len(steps))
        p = tail_percentile(len(steps))
        out["train.step_tail_s"] = (nearest_rank(steps, p if p else 50.0), len(steps))
    return out


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, int]]:
    """metric -> (value, sample count); 0 where a layer did not run."""
    name, _, _, _, stage = tr.arrays()
    dur, own = _durations(tr)
    ids = {label: i for i, label in enumerate(tr.names)}
    out: dict[str, tuple[float, int]] = {m: (0.0, 0) for m in LAYER_METRICS}
    for metric, (span, self_time, only_stage) in _SPAN_METRICS.items():
        if span not in ids:
            continue
        sel = name == ids[span]
        if only_stage is not None:
            sel &= np.isin(stage, [i for i, s in enumerate(tr.stages) if s == only_stage])
        values = own[sel] if self_time else dur[sel]
        out[metric] = (float(values.sum()), int(sel.sum()))
    if "dicom.parse" in ids:
        n = int((name == ids["dicom.parse"]).sum())
        out["dicom.files"] = (float(n), n)
    for metric in ("labels.n_labels", "train.step_peak_mb"):
        values = tr.samples.get(metric, [])
        if values:
            out[metric] = (float(max(values)), len(values))
    for metric in ("kmeans.iterations", "evaluate.probe_iterations", "train.checkpoint_bytes"):
        values = tr.samples.get(metric, [])
        out[metric] = (float(sum(values)), len(values))
    for metric in ("optim.tok_rows_with_grad", "optim.tok_rows_updated"):
        values = tr.samples.get(metric, [])
        if values:
            out[metric] = (float(np.mean(values)), len(values))
    calls = int(tr.counts.get("prompts.tokenize_calls", 0))
    out["prompts.tokenize_calls"] = (float(calls), calls)
    out["prompts.tokenize_distinct"] = (float(len(tr.distinct.get("prompts.tokenize_distinct", ()))), calls)
    collected = tr.counts.get("autodiff.gc_collected", 0.0)
    out["autodiff.gc_collected"] = (float(collected), 1)
    out.update(_step_metrics(tr))
    return out
