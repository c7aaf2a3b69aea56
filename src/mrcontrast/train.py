"""Training loop, scan-level splitting and byte-stable checkpoints.

Every stochastic choice (batch order, prompt dropout) is drawn from one
seeded generator whose state rides along in the checkpoint, so resuming a
run reproduces the uninterrupted run bit for bit.
"""
from __future__ import annotations

import io
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field
from typing import BinaryIO, Iterable, Optional, Sequence

import numpy as np

from .errors import BadCheckpoint, DataError
from .labels import LabelSpace
from .loss import LOSS_KINDS, ShardPlan, loss_graph, loss_workspace
from .model import DualEncoder, ModelConfig, parameter_layout
from .optim import Adam, clamp_log_tau
from .prompts import PromptBank, PromptConfig
from .rules import (
    boolean, check_fields, float_range_int, fraction, non_negative_float, non_negative_int, one_of,
    positive_int, string,
)
from .synth import SyntheticSlice

CHECKPOINT_MAGIC = b"MRCC"
CHECKPOINT_VERSION = 4

RUN_RULES = dict(
    batch_size=positive_int, epochs=non_negative_int, seed=non_negative_int,
    lr=non_negative_float, warmup_steps=float_range_int, weight_decay=non_negative_float,
    loss_kind=one_of(LOSS_KINDS), shards=positive_int, text_dropout=fraction,
    include_series_description=boolean, val_fraction=fraction,
)


@dataclass(frozen=True)
class RunConfig:
    """The `train` run flags at their desk-scale defaults, one field per flag;
    its rule in RUN_RULES checks the flag and the checkpoint header alike."""

    batch_size: int = 256
    epochs: int = 20
    seed: int = 0
    lr: float = 3e-3
    warmup_steps: int = 100
    weight_decay: float = 0.2
    loss_kind: str = "supcon"
    shards: int = 1
    text_dropout: float = 0.2
    include_series_description: bool = False
    val_fraction: float = 0.2

    def __post_init__(self) -> None:
        check_fields(self, RUN_RULES)


def config_hash(run: RunConfig, label_space_hash: str) -> str:
    blob = json.dumps(
        {"run": asdict(run), "label_space": label_space_hash}, sort_keys=True
    ).encode()
    import hashlib

    return hashlib.sha256(blob).hexdigest()[:16]


def split_by_scan(
    scan_ids: np.ndarray, val_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row masks (train, eval) split at scan granularity."""
    scans = np.unique(scan_ids)
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(scans.size)
    n_eval = int(round(val_fraction * scans.size))
    if val_fraction > 0:
        n_eval = max(1, min(n_eval, scans.size - 1))
    eval_mask = np.isin(scan_ids, scans[perm[:n_eval]])
    return ~eval_mask, eval_mask


def dataset_arrays(
    slices: Sequence[SyntheticSlice],
) -> tuple[np.ndarray, np.ndarray, list]:
    features = np.stack([s.features for s in slices]).astype(np.float64)
    scan_ids = np.array([s.scan_id for s in slices], dtype=np.int64)
    records = [s.record for s in slices]
    return features, scan_ids, records


@dataclass
class TrainState:
    model: DualEncoder
    optimizer: Adam
    rng: np.random.Generator
    epochs_done: int
    log_lines: list[str] = field(default_factory=list)


def _build_state(
    run: RunConfig, model: DualEncoder, rng: np.random.Generator, epochs_done: int
) -> TrainState:
    """The model and a fresh optimizer for it, as the run config sets it up."""
    adam = Adam(model.parameters(), run.lr, run.weight_decay, run.warmup_steps)
    return TrainState(model=model, optimizer=adam, rng=rng, epochs_done=epochs_done)


def train_model(
    slices: Sequence[SyntheticSlice],
    space: LabelSpace,
    label_ids: np.ndarray,
    run: RunConfig,
    resume_from: Optional["Checkpoint"] = None,
    checkpoint_path: Optional[str] = None,
) -> TrainState:
    """Train on the scan-level training split; returns the final state.

    When checkpoint_path is given the full state is rewritten after every
    epoch, so an interrupted run can resume bit-identically.
    """
    features, scan_ids, records = dataset_arrays(slices)
    train_mask, _ = split_by_scan(scan_ids, run.val_fraction, run.seed)
    train_rows = np.flatnonzero(train_mask)
    if train_rows.size == 0:
        raise DataError("training split is empty")

    bank = PromptBank(records, PromptConfig(
        dropout=run.text_dropout, include_series_description=run.include_series_description))
    space_hash = space.hash_hex
    cfg_hash = config_hash(run, space_hash)

    if resume_from is not None:
        if resume_from.label_space_hash != space_hash:
            raise BadCheckpoint("checkpoint was trained on a different label space")
        state = resume_from.restore()
    else:
        rng = np.random.Generator(np.random.PCG64(run.seed))
        model = DualEncoder(ModelConfig(d_in=features.shape[1]), seed=run.seed)
        state = _build_state(run, model, rng, epochs_done=0)

    n_train = train_rows.size
    largest = min(run.batch_size, n_train)  # every batch's loss blocks fit in its workspace
    workspace = loss_workspace(largest, ShardPlan.even(largest, run.shards))
    step = state.optimizer.t
    for epoch in range(state.epochs_done, run.epochs):
        perm = state.rng.permutation(n_train)
        for start in range(0, n_train, run.batch_size):
            rows = train_rows[perm[start : start + run.batch_size]]
            batch_features = features[rows]
            batch_labels = label_ids[rows]
            # one draw per batch: the same doubles and end state as one per row
            uniforms = state.rng.random(bank.n_droppable(rows)) if run.text_dropout > 0 else None

            model = state.model
            img = model.encode_images(batch_features)
            txt = model.encode_texts(bank.tokens(rows, uniforms))
            plan = ShardPlan.even(len(rows), run.shards)
            out = loss_graph(
                img, txt, batch_labels, model.tau(), run.loss_kind, plan, workspace
            )
            out.backward()
            lr_eff = state.optimizer.step()
            loss = float(out.data)
            # the next forward must not run on top of this step's graph and gradients
            del img, txt, out
            model.zero_grad()
            clamp_log_tau(model.log_tau)
            step += 1
            state.log_lines.append(
                json.dumps(
                    {
                        "epoch": epoch,
                        "step": step,
                        "loss": loss,
                        "lr": lr_eff,
                        "tau": float(model.tau().data),
                    },
                    sort_keys=True,
                )
            )
        state.epochs_done = epoch + 1
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, state, run, space_hash, cfg_hash)
    return state


# --- checkpoint blob ---------------------------------------------------------


@dataclass
class Checkpoint:
    run: RunConfig
    model_config: ModelConfig
    epochs_done: int
    rng_state: dict
    label_space_hash: str
    config_hash: str
    adam_t: int
    # the tensors, which the loader fills
    params: dict[str, np.ndarray] = field(default_factory=dict)
    adam_m: dict[str, np.ndarray] = field(default_factory=dict)
    adam_v: dict[str, np.ndarray] = field(default_factory=dict)

    def model(self) -> DualEncoder:
        """The model on the loaded arrays, shared, for a caller that never steps it."""
        return DualEncoder(self.model_config, params=self.params)

    def restore(self) -> TrainState:
        """`model()`, an optimizer holding the loaded moments, and the generator. Steps write
        `params` in place; the loaded moments are freed, `adam_m` and `adam_v` name its copies."""
        rng = np.random.Generator(np.random.PCG64(0))
        rng.bit_generator.state = self.rng_state
        state = _build_state(self.run, self.model(), rng, self.epochs_done)
        state.optimizer.load_state_dict(
            {"t": self.adam_t, "m": self.adam_m, "v": self.adam_v}
        )
        self.adam_m, self.adam_v = state.optimizer.m, state.optimizer.v
        return state


def _checkpoint_pieces(
    state: TrainState, run: RunConfig, label_space_hash: str, cfg_hash: str
) -> list[bytes | memoryview]:
    """The file in order: magic, prefix, header, then every parameter, Adam
    first moment and second moment, each a view of its float64 array."""
    params = state.model.parameters()
    manifest = [[name, list(p.data.shape)] for name, p, _ in params]
    header = {
        "version": CHECKPOINT_VERSION,
        "run": asdict(run),
        "model": asdict(state.model.config),
        "epochs_done": state.epochs_done,
        "rng_state": _rng_state(state.rng.bit_generator.state, str),
        "label_space_hash": label_space_hash,
        "config_hash": cfg_hash,
        "adam_t": state.optimizer.t,
        "params": manifest,
    }
    head = json.dumps(header, sort_keys=True).encode()
    pieces = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(head)), head]
    for arrays in ({name: p.data for name, p, _ in params}, state.optimizer.m, state.optimizer.v):
        for name, _, _ in params:
            pieces.append(memoryview(np.ascontiguousarray(arrays[name], dtype="<f8")))
    return pieces


def checkpoint_bytes(
    state: TrainState, run: RunConfig, label_space_hash: str, cfg_hash: str
) -> bytes:
    return b"".join(_checkpoint_pieces(state, run, label_space_hash, cfg_hash))


def write_replacing(path, pieces: Iterable[bytes]) -> None:
    """Stream ``pieces`` into a temporary file in the same directory, then
    os.replace it onto ``path``: a write that fails or is interrupted leaves
    any previous file intact and no temporary file behind."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_checkpoint(
    path: str, state: TrainState, run: RunConfig, label_space_hash: str, cfg_hash: str
) -> None:
    """Stream the pieces of `checkpoint_bytes` to ``path`` through
    `write_replacing`, so a failed or interrupted write leaves any previous
    checkpoint intact."""
    write_replacing(path, _checkpoint_pieces(state, run, label_space_hash, cfg_hash))


def _rng_state(obj: dict, word: type) -> dict:
    """A PCG64 state with its two 128-bit words as `word`: str in the
    checkpoint header (JSON numbers lose them), int for numpy."""
    return {
        "bit_generator": obj["bit_generator"],
        "state": {"state": word(obj["state"]["state"]), "inc": word(obj["state"]["inc"])},
        "has_uint32": int(obj["has_uint32"]),
        "uinteger": int(obj["uinteger"]),
    }


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        if not fh.seekable():  # a pipe: its size is known only once it is read
            return checkpoint_from_bytes(fh.read())
        return _read_checkpoint(fh, os.fstat(fh.fileno()).st_size)


def checkpoint_from_bytes(data: bytes) -> Checkpoint:
    return _read_checkpoint(io.BytesIO(data), len(data))


def _read_checkpoint(fh: BinaryIO, size: int) -> Checkpoint:
    """Inverse of `checkpoint_bytes`, from the start of a file of `size` bytes.
    BadCheckpoint for any malformed input: a header value that breaks its rule,
    a config_hash other than `config_hash` of the header's run and label space
    hash, a tensor manifest other than the model config's layout (before any
    tensor is read), a non-finite value."""
    prefix = fh.read(12)
    if prefix[:4] != CHECKPOINT_MAGIC:
        raise BadCheckpoint("not a checkpoint file (bad magic)")
    if len(prefix) < 12:
        raise BadCheckpoint("checkpoint ends inside its 12-byte prefix")
    version, head_len = struct.unpack("<II", prefix[4:])
    if version != CHECKPOINT_VERSION:
        raise BadCheckpoint(f"unknown checkpoint version {version}")
    try:
        header = json.loads(fh.read(min(head_len, size)))
        for key, cls in (("run", RunConfig), ("model", ModelConfig)):
            names = set(cls.__dataclass_fields__)
            if set(header[key]) != names:
                raise BadCheckpoint(f"{key} keys differ from {sorted(names)}")
        rng_state = _rng_state(header["rng_state"], int)
        np.random.PCG64(0).state = rng_state  # rejects a malformed state here
        checkpoint = Checkpoint(
            run=RunConfig(**header["run"]),
            model_config=ModelConfig(**header["model"]),
            epochs_done=non_negative_int(header["epochs_done"], "epochs_done"),
            rng_state=rng_state,
            label_space_hash=string(header["label_space_hash"], "label_space_hash"),
            config_hash=string(header["config_hash"], "config_hash"),
            adam_t=float_range_int(header["adam_t"], "adam_t"),
        )
        if checkpoint.config_hash != config_hash(checkpoint.run, checkpoint.label_space_hash):
            raise BadCheckpoint("config_hash does not match the run config and label space hash")
        manifest = [(name, shape) for name, shape, _ in parameter_layout(checkpoint.model_config)]
        if header["params"] != [[name, list(shape)] for name, shape in manifest]:
            raise BadCheckpoint("tensor manifest does not match the model config")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BadCheckpoint(f"corrupt header: {exc!r}") from exc
    tensor_bytes = sum(8 * math.prod(shape) for _, shape in manifest)
    if size != 12 + head_len + 3 * tensor_bytes:
        raise BadCheckpoint(f"checkpoint size {size} disagrees with its manifest")
    for arrays in (checkpoint.params, checkpoint.adam_m, checkpoint.adam_v):
        for name, shape in manifest:
            arrays[name] = np.empty(shape, dtype="<f8")
            if fh.readinto(arrays[name]) != arrays[name].nbytes:
                raise BadCheckpoint("checkpoint file changed while it was read")
            if not np.isfinite(arrays[name]).all():
                raise BadCheckpoint(f"tensor {name!r} holds non-finite values")
    return checkpoint
