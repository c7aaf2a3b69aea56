"""Split, training-loop and checkpoint round-trip tests."""

import hashlib
import io
import json
import os
import struct
import threading
import tracemalloc
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest

from mrcontrast import train
from mrcontrast.errors import BadCheckpoint, DataError
from mrcontrast.model import TAU_MAX, TAU_MIN, DualEncoder, ModelConfig
from mrcontrast.prompts import PromptBank, PromptConfig
from mrcontrast.train import (
    CHECKPOINT_VERSION,
    RunConfig,
    checkpoint_bytes,
    checkpoint_from_bytes,
    config_hash,
    dataset_arrays,
    load_checkpoint,
    save_checkpoint,
    split_by_scan,
    train_model,
)


TINY_RUN = RunConfig(batch_size=64, epochs=4, seed=0, warmup_steps=10)


@pytest.fixture(scope="module")
def small_blob(tiny_dataset):
    """Checkpoint bytes of a one-epoch run with the narrowest towers, so the
    blob is little more than the 8,193-row token table (about 200 KB). The
    narrow model is built from its ModelConfig and trained by resuming it."""
    slices, space, ids = tiny_dataset
    run = RunConfig(batch_size=64, epochs=1)
    narrow = ModelConfig(d_in=slices[0].features.size, d_hidden=2, d_emb=2, d_tok=1)
    rng = np.random.Generator(np.random.PCG64(run.seed))
    cfg = config_hash(run, space.hash_hex)
    untrained_state = train._build_state(run, DualEncoder(narrow, seed=run.seed), rng, 0)
    untrained = checkpoint_bytes(untrained_state, run, space.hash_hex, cfg)
    state = train_model(slices, space, ids, run, resume_from=checkpoint_from_bytes(untrained))
    return checkpoint_bytes(state, run, space.hash_hex, cfg)


def rewrite_header(blob: bytes, edit, version: int = CHECKPOINT_VERSION) -> bytes:
    """The blob with its JSON header passed through ``edit`` (in place)."""
    head_len = struct.unpack("<I", blob[8:12])[0]
    header = json.loads(blob[12 : 12 + head_len])
    edit(header)
    head = json.dumps(header, sort_keys=True).encode()
    return blob[:4] + struct.pack("<II", version, len(head)) + head + blob[12 + head_len :]


def assert_rejected(blob: bytes, path, match=None) -> None:
    """Both readers reject the blob, with one message: checkpoint_from_bytes,
    and load_checkpoint on the blob written to ``path``."""
    with pytest.raises(BadCheckpoint, match=match) as from_bytes:
        checkpoint_from_bytes(blob)
    path.write_bytes(blob)
    with pytest.raises(BadCheckpoint, match=match) as from_file:
        load_checkpoint(str(path))
    assert str(from_file.value) == str(from_bytes.value)


class TestSplitByScan:
    def scan_ids(self, n_scans=10, per_scan=3):
        return np.repeat(np.arange(n_scans), per_scan)

    def test_masks_partition_the_rows(self):
        train, ev = split_by_scan(self.scan_ids(), 0.2, seed=0)
        assert np.all(train ^ ev)
        assert not np.any(train & ev)

    def test_eval_fraction_is_rounded_scan_count(self):
        ids = self.scan_ids(10)
        _, ev = split_by_scan(ids, 0.2, seed=0)
        assert len(set(ids[ev].tolist())) == 2

    def test_split_is_scan_granular(self):
        ids = self.scan_ids()
        _, ev = split_by_scan(ids, 0.3, seed=1)
        for scan in np.unique(ids):
            rows = ev[ids == scan]
            assert rows.all() or not rows.any()

    def test_same_seed_reproduces(self):
        a = split_by_scan(self.scan_ids(), 0.3, seed=5)
        b = split_by_scan(self.scan_ids(), 0.3, seed=5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_different_seeds_move_the_split(self):
        ids = self.scan_ids(30)
        _, ev_a = split_by_scan(ids, 0.3, seed=0)
        _, ev_b = split_by_scan(ids, 0.3, seed=1)
        assert set(ids[ev_a].tolist()) != set(ids[ev_b].tolist())

    def test_zero_fraction_keeps_everything_in_train(self):
        train, ev = split_by_scan(self.scan_ids(), 0.0, seed=0)
        assert train.all() and not ev.any()

    def test_tiny_fraction_still_holds_out_one_scan(self):
        ids = self.scan_ids(5)
        _, ev = split_by_scan(ids, 0.01, seed=0)
        assert len(set(ids[ev].tolist())) == 1

    def test_full_fraction_still_keeps_one_training_scan(self):
        ids = self.scan_ids(5)
        train, _ = split_by_scan(ids, 1.0, seed=0)
        assert len(set(ids[train].tolist())) == 1


class TestConfigHash:
    def test_matches_reference_construction(self):
        run = RunConfig()
        blob = json.dumps(
            {"run": asdict(run), "label_space": "abc123"}, sort_keys=True
        ).encode()
        assert config_hash(run, "abc123") == hashlib.sha256(blob).hexdigest()[:16]

    def test_sensitive_to_run_and_space(self):
        base = config_hash(RunConfig(), "abc123")
        assert config_hash(RunConfig(lr=1e-4), "abc123") != base
        assert config_hash(RunConfig(), "abc124") != base
        assert config_hash(RunConfig(), "abc123") == base

    def test_is_short_hex(self):
        h = config_hash(RunConfig(), "abc123")
        assert len(h) == 16
        int(h, 16)


class TestDatasetArrays:
    def test_stacks_features_and_scan_ids(self, tiny_dataset):
        slices, _, _ = tiny_dataset
        features, scan_ids, records = dataset_arrays(slices[:8])
        assert features.shape == (8, slices[0].features.size)
        assert features.dtype == np.float64
        np.testing.assert_array_equal(
            scan_ids, [s.scan_id for s in slices[:8]]
        )
        assert records == [s.record for s in slices[:8]]


class TestTrainModel:
    def test_log_lines_are_json_with_fixed_schema(self, tiny_run):
        _, _, _, run, state = tiny_run
        assert state.epochs_done == run.epochs
        assert state.log_lines
        steps = []
        for line in state.log_lines:
            entry = json.loads(line)
            assert set(entry) == {"epoch", "step", "loss", "lr", "tau"}
            assert 0 <= entry["epoch"] < run.epochs
            assert np.isfinite(entry["loss"])
            assert TAU_MIN <= entry["tau"] <= TAU_MAX
            steps.append(entry["step"])
        assert steps == list(range(1, len(steps) + 1))

    def test_loss_improves_over_training(self, tiny_run):
        _, _, _, run, state = tiny_run
        entries = [json.loads(line) for line in state.log_lines]
        first = np.mean([e["loss"] for e in entries if e["epoch"] == 0])
        last = np.mean(
            [e["loss"] for e in entries if e["epoch"] == run.epochs - 1]
        )
        assert last < first

    def test_retraining_is_byte_identical(self, tiny_run):
        slices, space, ids, run, state = tiny_run
        again = train_model(slices, space, ids, run)
        cfg = config_hash(run, space.hash_hex)
        assert checkpoint_bytes(again, run, space.hash_hex, cfg) == checkpoint_bytes(
            state, run, space.hash_hex, cfg
        )

    def test_batch_dropout_draw_equals_per_row_draws(self, tiny_dataset, monkeypatch):
        """One rng.random per batch, sampled for the whole batch, hands each row
        the doubles one draw per row would, and leaves the generator in the
        same state: the batch's (flat ids, lengths) is the concatenation of
        the per-row tuples."""
        slices, space, ids = tiny_dataset
        run = replace(TINY_RUN, epochs=2, batch_size=48, text_dropout=0.5)
        seen = []
        encode = DualEncoder.encode_texts
        monkeypatch.setattr(DualEncoder, "encode_texts", lambda self, batch: seen.append(
            (batch.flat.tolist(), batch.lengths.tolist())) or encode(self, batch))
        state = train_model(slices, space, ids, run)

        features, scan_ids, records = dataset_arrays(slices)
        train_rows = np.flatnonzero(split_by_scan(scan_ids, run.val_fraction, run.seed)[0])
        bank = PromptBank(records, PromptConfig(dropout=run.text_dropout))
        rng = np.random.Generator(np.random.PCG64(run.seed))
        want, dropped = [], False
        for _ in range(run.epochs):
            perm = rng.permutation(train_rows.size)
            for start in range(0, train_rows.size, run.batch_size):
                rows = train_rows[perm[start : start + run.batch_size]]
                per_row = [bank.tokens_with_dropout(int(r), rng.random(bank.n_droppable(int(r))))
                           for r in rows]
                want.append(([t for ids in per_row for t in ids], [len(ids) for ids in per_row]))
                dropped |= any(len(t) < bank.tokens([int(r)]).flat.size for t, r in zip(per_row, rows))
        assert seen == want and dropped
        assert state.rng.bit_generator.state == rng.bit_generator.state

    def test_each_step_is_freed_before_the_next_forward(self, tiny_dataset, monkeypatch):
        """A step's image embeddings (and so its graph) are gone by the time
        the next step's image forward starts."""
        slices, space, ids = tiny_dataset
        refs, alive = [], []
        encode = DualEncoder.encode_images

        def tracked(self, features):
            alive.append(sum(ref() is not None for ref in refs))
            img = encode(self, features)
            refs.append(weakref.ref(img.data))
            return img

        monkeypatch.setattr(DualEncoder, "encode_images", tracked)
        train_model(slices, space, ids, replace(TINY_RUN, epochs=2))
        assert len(alive) > 2 and not any(alive)

    def test_a_step_after_the_first_allocates_less_than_the_token_table(
        self, tiny_dataset, monkeypatch
    ):
        """At the default widths and batch 256 (a full batch, then a partial
        one, each epoch), every step after the first peaks less than one
        token-table array over its start: the loss reuses one workspace, the
        table gradient holds only the used rows and Adam steps in place."""
        slices, space, ids = tiny_dataset
        starts, peaks = [], []
        encode, step = DualEncoder.encode_images, train.Adam.step

        def start_step(self, features):
            tracemalloc.reset_peak()
            starts.append(tracemalloc.get_traced_memory()[0])
            return encode(self, features)

        def end_step(self):
            lr = step(self)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return lr

        monkeypatch.setattr(DualEncoder, "encode_images", start_step)
        monkeypatch.setattr(train.Adam, "step", end_step)
        run = replace(TINY_RUN, batch_size=256, epochs=3)
        tracemalloc.start()
        try:
            state = train_model(slices, space, ids, run)
        finally:
            tracemalloc.stop()
        table_bytes = state.model.tok_table.data.nbytes
        assert state.model.config == ModelConfig(d_in=slices[0].features.size)
        assert len(peaks) == 6 and table_bytes > 2 * 2**20
        assert max(p - s for s, p in zip(starts[1:], peaks[1:])) < table_bytes

    def test_single_scan_with_holdout_has_no_training_rows(self, tiny_dataset):
        slices, space, ids = tiny_dataset
        one_scan = [s for s in slices if s.scan_id == 0]
        one_ids = ids[: len(one_scan)]
        with pytest.raises(DataError):
            train_model(one_scan, space, one_ids, replace(TINY_RUN, epochs=1))


class TestCheckpoint:
    def test_bytes_are_deterministic(self, tiny_run):
        _, space, _, run, state = tiny_run
        cfg = config_hash(run, space.hash_hex)
        a = checkpoint_bytes(state, run, space.hash_hex, cfg)
        b = checkpoint_bytes(state, run, space.hash_hex, cfg)
        assert a == b
        assert a[:4] == b"MRCC"

    def test_save_load_round_trip(self, tiny_run, tmp_path):
        _, space, _, run, state = tiny_run
        cfg = config_hash(run, space.hash_hex)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, state, run, space.hash_hex, cfg)
        ckpt = load_checkpoint(path)
        assert ckpt.run == run
        assert ckpt.model_config == state.model.config
        assert ckpt.epochs_done == state.epochs_done
        assert ckpt.label_space_hash == space.hash_hex
        assert ckpt.config_hash == cfg
        assert ckpt.adam_t == state.optimizer.t
        assert ckpt.rng_state == state.rng.bit_generator.state
        for name, p, _ in state.model.parameters():
            assert ckpt.params[name].tobytes() == p.data.tobytes()
            assert ckpt.adam_m[name].tobytes() == state.optimizer.m[name].tobytes()
            assert ckpt.adam_v[name].tobytes() == state.optimizer.v[name].tobytes()

    def test_save_writes_checkpoint_bytes(self, tiny_run, tmp_path):
        _, space, _, run, state = tiny_run
        cfg = config_hash(run, space.hash_hex)
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), state, run, space.hash_hex, cfg)
        assert path.read_bytes() == checkpoint_bytes(state, run, space.hash_hex, cfg)

    def test_save_and_load_peaks_are_bounded(self, tiny_run, tmp_path):
        """A save streams its pieces: its traced peak stays below a quarter of
        the file. Loading and building the model hold the tensors once: the
        model shares the loaded parameters."""
        _, space, _, run, state = tiny_run
        cfg = config_hash(run, space.hash_hex)
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), state, run, space.hash_hex, cfg)
        tensor_bytes = 3 * sum(p.data.nbytes for _, p, _ in state.model.parameters())
        tracemalloc.start()
        try:
            save_checkpoint(str(path), state, run, space.hash_hex, cfg)
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            model = load_checkpoint(str(path)).model()
            load_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert save_peak < path.stat().st_size / 4
        assert load_peak < 1.1 * tensor_bytes
        for (_, a, _), (_, b, _) in zip(state.model.parameters(), model.parameters()):
            assert a.data.tobytes() == b.data.tobytes()

    def test_load_from_a_pipe(self, small_blob, tmp_path):
        fifo = tmp_path / "model.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(small_blob,))
        writer.start()
        try:
            ckpt = load_checkpoint(str(fifo))
        finally:
            writer.join()
        want = checkpoint_from_bytes(small_blob)
        assert ckpt.run == want.run and ckpt.adam_t == want.adam_t
        for tensors in ("params", "adam_m", "adam_v"):
            got, wanted = getattr(ckpt, tensors), getattr(want, tensors)
            assert all(got[name].tobytes() == wanted[name].tobytes() for name in wanted)

    def test_model_takes_the_loaded_parameters(self, tiny_run, tmp_path):
        _, space, _, run, state = tiny_run
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, state, run, space.hash_hex, config_hash(run, space.hash_hex))
        ckpt = load_checkpoint(path)
        model, resumed = ckpt.model(), ckpt.restore().model
        for m in (model, resumed):
            for name, p, _ in m.parameters():
                assert p.data is ckpt.params[name]

    def test_restore_rebuilds_identical_state(self, tiny_run, tmp_path):
        _, space, _, run, state = tiny_run
        cfg = config_hash(run, space.hash_hex)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, state, run, space.hash_hex, cfg)
        restored = load_checkpoint(path).restore()
        for (na, pa, da), (nb, pb, db) in zip(
            state.model.parameters(), restored.model.parameters()
        ):
            assert na == nb and da == db
            assert pa.data.tobytes() == pb.data.tobytes()
        assert restored.optimizer.t == state.optimizer.t
        assert restored.epochs_done == state.epochs_done
        a = np.random.Generator(np.random.PCG64())
        a.bit_generator.state = state.rng.bit_generator.state
        np.testing.assert_array_equal(a.random(5), restored.rng.random(5))

    @pytest.mark.parametrize("split_epochs", [1, 2, 3])
    def test_resume_matches_uninterrupted_run(self, tiny_run, tmp_path, split_epochs):
        """Resuming after 1, 2 or 3 of 4 epochs (steps 5, 10 and 15, around
        the 10-step warmup) gives the uninterrupted run's bytes."""
        slices, space, ids, run, full_state = tiny_run
        cfg = config_hash(run, space.hash_hex)
        half_run = replace(run, epochs=split_epochs)
        path = str(tmp_path / "half.ckpt")
        half = train_model(slices, space, ids, half_run, checkpoint_path=path)
        assert half.epochs_done == split_epochs and half.optimizer.t == 5 * split_epochs
        resumed = train_model(
            slices, space, ids, run, resume_from=load_checkpoint(path)
        )
        assert resumed.epochs_done == run.epochs
        assert checkpoint_bytes(
            resumed, run, space.hash_hex, cfg
        ) == checkpoint_bytes(full_state, run, space.hash_hex, cfg)

    def test_resume_rejects_foreign_label_space(self, tiny_run, tmp_path):
        slices, space, ids, run, state = tiny_run
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, state, run, "0" * 64, config_hash(run, "0" * 64))
        with pytest.raises(BadCheckpoint):
            train_model(slices, space, ids, run, resume_from=load_checkpoint(path))

    def test_bad_magic_rejected(self, tiny_run, tmp_path):
        _, space, _, run, state = tiny_run
        cfg = config_hash(run, space.hash_hex)
        blob = checkpoint_bytes(state, run, space.hash_hex, cfg)
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(BadCheckpoint):
            load_checkpoint(str(path))

    def test_unknown_version_rejected(self, tiny_run, tmp_path):
        import struct

        _, space, _, run, state = tiny_run
        cfg = config_hash(run, space.hash_hex)
        blob = bytearray(checkpoint_bytes(state, run, space.hash_hex, cfg))
        blob[4:8] = struct.pack("<I", 99)
        path = tmp_path / "bad.ckpt"
        path.write_bytes(bytes(blob))
        with pytest.raises(BadCheckpoint):
            load_checkpoint(str(path))

    def test_truncated_tensors_rejected(self, tiny_run, tmp_path):
        _, space, _, run, state = tiny_run
        cfg = config_hash(run, space.hash_hex)
        blob = checkpoint_bytes(state, run, space.hash_hex, cfg)
        path = tmp_path / "bad.ckpt"
        path.write_bytes(blob[: len(blob) - 100])
        with pytest.raises(BadCheckpoint):
            load_checkpoint(str(path))

    def test_every_truncation_is_rejected(self, small_blob, tmp_path):
        """Modelled on acceptance criterion 10. Every cut through the prefix,
        the header and the first 4 KiB of tensor data is tried, from bytes and
        from a file; past that the loader sees only the total length, so the
        rest of the tensor region is cut at a stride of 997 bytes and at one
        byte either side of every tensor boundary."""
        head_end = 12 + struct.unpack("<I", small_blob[8:12])[0]
        cuts = set(range(head_end + 4096))
        cuts.update(range(head_end + 4096, len(small_blob), 997))
        offset = head_end
        header = json.loads(small_blob[12:head_end])
        for _ in range(3):
            for _, shape in header["params"]:
                offset += 8 * int(np.prod(shape))
                cuts.update((offset - 1, offset, offset + 1))
        cuts = sorted(c for c in cuts if c < len(small_blob))
        assert cuts[-1] == len(small_blob) - 1
        for cut in cuts:
            assert_rejected(small_blob[:cut], tmp_path / "cut.ckpt")
        checkpoint_from_bytes(small_blob)

    @pytest.mark.parametrize("extra", [b"\0", b"\0" * 8, b"MRCC"])
    def test_trailing_bytes_rejected(self, small_blob, tmp_path, extra):
        assert_rejected(small_blob + extra, tmp_path / "long.ckpt", match="size")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h.pop("adam_t"),
            lambda h: h.pop("rng_state"),
            lambda h: h["run"].pop("lr"),
            lambda h: h["run"].update(vocab_size=8192),
            lambda h: h["model"].update(vocab_size=8192),
            lambda h: h.update(run=[]),
            lambda h: h.update(epochs_done="two"),
            lambda h: h["rng_state"].update(bit_generator="MT19937"),
            lambda h: h["rng_state"]["state"].update(state="-1"),
            lambda h: h["run"].update(val_fraction=0.5),
            lambda h: h.update(label_space_hash="0" * 64),
        ],
        ids=[
            "no-adam_t", "no-rng_state", "no-run-lr", "unknown-run-key",
            "unknown-model-key", "run-not-object", "epochs-not-int",
            "foreign-rng", "negative-rng-state", "run-edited-under-its-hash",
            "label-hash-edited-under-config-hash",
        ],
    )
    def test_bad_header_keys_rejected(self, small_blob, tmp_path, edit):
        assert_rejected(rewrite_header(small_blob, edit), tmp_path / "bad.ckpt")

    @pytest.mark.parametrize(
        "params",
        ["img_w1", [["img_w1"]], [["img_w1", 12]], [["img_w1", ["a", 2]]], [["img_w1", [-1, -2]]]],
    )
    def test_malformed_manifest_rejected(self, small_blob, tmp_path, params):
        bad = rewrite_header(small_blob, lambda h: h.update(params=params))
        assert_rejected(bad, tmp_path / "bad.ckpt")

    def test_manifest_disagreeing_with_model_rejected(self, small_blob, tmp_path):
        def transpose_first(header):
            name, shape = header["params"][0]
            header["params"][0] = [name, shape[::-1]]

        bad = rewrite_header(small_blob, transpose_first)
        assert_rejected(bad, tmp_path / "bad.ckpt", match="manifest")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "tensor", [0, 9, 10, 29], ids=["first-param", "log_tau", "first-m", "last-v"]
    )
    def test_non_finite_tensor_rejected(self, small_blob, tmp_path, tensor, value):
        head_end = 12 + struct.unpack("<I", small_blob[8:12])[0]
        manifest = json.loads(small_blob[12:head_end])["params"]
        sizes = [8 * int(np.prod(shape)) for _, shape in manifest]
        offset = head_end + sum((sizes * 3)[:tensor])
        bad = small_blob[:offset] + struct.pack("<d", value) + small_blob[offset + 8 :]
        name = manifest[tensor % len(manifest)][0]
        assert_rejected(bad, tmp_path / "bad.ckpt", match=f"tensor '{name}' holds non-finite")

    def test_version_1_checkpoint_rejected(self, small_blob):
        def as_version_1(header):
            header["version"] = 1
            header["run"]["vocab_size"] = 8192
            header["model"]["vocab_size"] = 8192

        with pytest.raises(BadCheckpoint):
            checkpoint_from_bytes(rewrite_header(small_blob, as_version_1, version=1))

    def test_version_2_checkpoint_rejected(self, small_blob):
        """Version 2 headers also held the model widths, tau_init and Adam's
        betas in their run block; version 3 ones held `numerical_only`."""
        old_run = dict(d_hidden=2, d_emb=2, d_tok=1, tau_init=0.07, beta1=0.9, beta2=0.98)

        def as_version_2(header):
            header["version"] = 2
            header["run"].update(old_run)

        def as_version_3(header):
            header["version"] = 3
            header["run"]["numerical_only"] = False

        assert CHECKPOINT_VERSION == 4
        with pytest.raises(BadCheckpoint, match="version 2"):
            checkpoint_from_bytes(rewrite_header(small_blob, as_version_2, version=2))
        with pytest.raises(BadCheckpoint, match="version 3"):
            checkpoint_from_bytes(rewrite_header(small_blob, as_version_3, version=3))

    @pytest.mark.parametrize("fail", ["tensor_write", "replace"])
    def test_failed_save_keeps_previous_checkpoint(
        self, tiny_run, tmp_path, monkeypatch, fail
    ):
        """A save that fails once the header is in the temporary file, or at
        the rename, leaves the previous checkpoint and no temporary file."""
        slices, space, ids, run, state = tiny_run
        cfg = config_hash(run, space.hash_hex)
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), state, run, space.hash_hex, cfg)
        before = path.read_bytes()
        head_end = 12 + struct.unpack("<I", before[8:12])[0]
        written = []

        class InterruptedFile(io.FileIO):
            def write(self, piece):
                if sum(written) >= head_end:
                    raise OSError("interrupted")
                written.append(super().write(piece))
                return written[-1]

        def boom(*args, **kwargs):
            raise OSError("interrupted")

        if fail == "tensor_write":
            monkeypatch.setattr(train, "open", lambda p, _: InterruptedFile(p, "w"), raising=False)
        else:
            monkeypatch.setattr(train.os, "replace", boom)
        with pytest.raises(OSError):
            save_checkpoint(str(path), state, run, space.hash_hex, cfg)
        monkeypatch.undo()
        assert fail == "replace" or sum(written) == head_end
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.ckpt"]
        resumed = train_model(
            slices, space, ids, replace(run, epochs=run.epochs + 1),
            resume_from=load_checkpoint(str(path)),
        )
        assert resumed.epochs_done == run.epochs + 1
