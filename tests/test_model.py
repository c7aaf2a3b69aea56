"""Dual encoder tests: shapes, norms, temperature clamp, determinism, and
the closed-form gradients of the encoder and temperature nodes."""

import math
import tracemalloc

import numpy as np
import pytest

from mrcontrast.autodiff import node
from mrcontrast.errors import ShapeMismatch, TokenIdOutOfRange
from mrcontrast.loss import loss_graph
from mrcontrast.model import TAU_MAX, TAU_MIN, DualEncoder, ModelConfig, _mlp
from mrcontrast.prompts import VOCAB_SIZE, PromptBank, PromptConfig, TokenBatch
from mrcontrast.synth import SynthConfig, default_protocols, generate_dataset
from mrcontrast.train import RunConfig


def small_model(seed=0):
    return DualEncoder(
        ModelConfig(d_in=6, d_hidden=16, d_emb=8, d_tok=8),
        seed=seed,
    )


class TestEncoding:
    def test_image_embeddings_are_unit_rows(self):
        model = small_model()
        rng = np.random.default_rng(0)
        emb = model.encode_images(rng.normal(size=(10, 6)))
        assert emb.shape == (10, 8)
        np.testing.assert_allclose(
            np.linalg.norm(emb.data, axis=1), 1.0, rtol=1e-12
        )

    def test_text_embeddings_are_unit_rows(self):
        model = small_model()
        emb = model.encode_texts([[1, 2, 3], [4], []])
        assert emb.shape == (3, 8)
        np.testing.assert_allclose(
            np.linalg.norm(emb.data, axis=1), 1.0, rtol=1e-12
        )

    def test_token_pooling_is_order_invariant(self):
        model = small_model()
        a = model.encode_texts([[1, 2, 3]]).data
        b = model.encode_texts([[3, 1, 2]]).data
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)

    def test_empty_prompt_uses_null_token(self):
        model = small_model()
        empty = model.encode_texts([[]]).data
        assert np.isfinite(empty).all()
        other = model.encode_texts([[5]]).data
        assert not np.array_equal(empty, other)

    def test_wrong_feature_width_raises(self):
        with pytest.raises(ShapeMismatch):
            small_model().encode_images(np.zeros((4, 5)))
        with pytest.raises(ShapeMismatch):
            small_model().encode_images(np.zeros(6))

    def test_out_of_range_token_raises(self):
        with pytest.raises(TokenIdOutOfRange):
            small_model().encode_texts([[VOCAB_SIZE]])
        with pytest.raises(TokenIdOutOfRange):
            small_model().encode_texts([[0], [-1]])

    @pytest.mark.parametrize("lists, first", [
        ([[1, 9000, -1]], 9000),
        ([[3], [], [2, -2, VOCAB_SIZE]], -2),
        ([[], [VOCAB_SIZE], [-5]], VOCAB_SIZE),
    ])
    def test_out_of_range_error_names_the_first_bad_id(self, lists, first):
        with pytest.raises(TokenIdOutOfRange, match=rf"^token id {first} outside"):
            small_model().encode_texts(lists)

    def test_gradients_reach_all_parameters(self):
        model = small_model()
        rng = np.random.default_rng(1)
        img = model.encode_images(rng.normal(size=(4, 6)))
        txt = model.encode_texts([[1], [2], [3], [4]])
        loss_graph(img, txt, np.array([0, 0, 1, 1]), model.tau()).backward()
        for name, p, _ in model.parameters():
            assert p.grad is not None, name
            assert p.grad.shape == p.shape, name
            assert np.any(p.grad != 0), name


def dense_text_reference(model, token_lists, g):
    """Pooled rows, embeddings and token-table gradient for upstream gradient
    g, pooled and scattered with np.add.at into dense zero arrays."""
    use = [list(ids) if ids else [VOCAB_SIZE] for ids in token_lists]
    flat = np.array([t for ids in use for t in ids], dtype=np.int64)
    seg = np.repeat(np.arange(len(use)), [len(ids) for ids in use])
    counts = np.array([len(ids) for ids in use], dtype=np.float64)
    table = model.tok_table.data
    pooled = np.zeros((len(use), table.shape[1]))
    np.add.at(pooled, seg, table[flat])
    pooled /= counts[:, None]
    weights = (model.txt_w1, model.txt_b1, model.txt_w2, model.txt_b2)
    out, vjp = _mlp(pooled, *(w.data for w in weights))
    g_pooled = vjp(g)[0] @ model.txt_w1.data.T
    g_table = np.zeros_like(table)
    np.add.at(g_table, flat, g_pooled[seg] / counts[seg, None])
    return out, g_table


def bank_batch(rng):
    """A dropout TokenBatch from a PromptBank over synthetic records, with an
    empty row after every fifth prompt (the bank always keeps the head, so
    its own rows are never empty), and the same prompts as id lists."""
    protocols = default_protocols(n_te_cells=3, n_tr_cells=3)
    slices = generate_dataset(protocols, SynthConfig(n_scans=60, slices_per_scan=1, seed=3))
    bank = PromptBank([s.record for s in slices], PromptConfig(dropout=0.5))
    rows = rng.integers(0, len(slices), size=300)
    batch = bank.tokens(rows, rng.random(bank.n_droppable(rows)))
    ends = np.cumsum(batch.lengths)
    lists = [batch.flat[end - n : end].tolist() for end, n in zip(ends, batch.lengths)]
    lists = [ids for i, row in enumerate(lists) for ids in ([row, []] if i % 5 == 4 else [row])]
    lengths = np.array([len(ids) for ids in lists], dtype=np.int64)
    return TokenBatch(np.array([t for ids in lists for t in ids], dtype=np.int64), lengths), lists


def random_lists(rng, n, min_len, max_len):
    """n id lists of min_len to max_len - 1 ids over 40 ids, so ids repeat,
    and those 40 ids."""
    vocab = rng.integers(0, VOCAB_SIZE, size=40)
    return [[int(t) for t in rng.choice(vocab, size=rng.integers(min_len, max_len))]
            for _ in range(n)], vocab


class TestTextPoolingBits:
    """Pooling and the token-table gradient equal a dense np.add.at
    reference bit for bit; the gradient holds only the rows of the ids used,
    and the reference is +0.0 on every other row."""

    @pytest.mark.parametrize("n", [1, 5, 1024, "bank-dropout", "equal-lengths", "long-rows"])
    def test_pooling_and_table_gradient_match_dense_add_at(self, n):
        rng = np.random.default_rng(n if isinstance(n, int) else len(n))
        model = small_model(seed=4)
        if n == "bank-dropout":
            tokens, token_lists = bank_batch(rng)
        elif n == "equal-lengths":
            tokens = token_lists = random_lists(rng, 64, 7, 8)[0]
        elif n == "long-rows":
            tokens = token_lists = random_lists(rng, 200, 13, 41)[0]
        else:
            token_lists, vocab = random_lists(rng, n, 0, 12)
            token_lists[0] = []  # the null row
            if n > 1:
                token_lists[1] = [int(vocab[0])] * 3 + [int(vocab[1])]  # a repeated id
            tokens = token_lists
        assert any(not ids for ids in token_lists) == (n not in ("equal-lengths", "long-rows"))
        g = rng.normal(size=(len(token_lists), 8))
        txt = model.encode_texts(tokens)
        want_out, want_table = dense_text_reference(model, token_lists, g)
        assert txt.data.tobytes() == want_out.tobytes()
        g_rows, rows = txt._vjp(g)[0]
        used = [t for ids in token_lists for t in (ids or [VOCAB_SIZE])]
        assert rows.tolist() == sorted(set(used))
        assert g_rows.shape == (rows.size, model.tok_table.shape[1])
        assert g_rows.tobytes() == want_table[rows].tobytes()
        assert not np.delete(want_table, rows, axis=0).view(np.int64).any()


class TestTextTowerMemory:
    def test_forward_and_backward_build_no_token_sized_array(self):
        """On a 1024-row PromptBank batch with the run's default dropout
        (about 28 ids a row), one text forward and its backward peak below
        the size of one (tokens, d_tok) float64 array."""
        rng = np.random.default_rng(0)
        protocols = default_protocols(n_te_cells=5, n_tr_cells=5)
        slices = generate_dataset(protocols, SynthConfig(n_scans=200, slices_per_scan=1, seed=1))
        dropout = RunConfig().text_dropout
        bank = PromptBank([s.record for s in slices], PromptConfig(dropout=dropout))
        rows = rng.integers(0, len(slices), size=1024)
        batch = bank.tokens(rows, rng.random(bank.n_droppable(rows)))
        model = DualEncoder(ModelConfig(), seed=0)
        g = rng.normal(size=(rows.size, model.config.d_emb))
        token_array_bytes = batch.flat.size * model.config.d_tok * 8
        tracemalloc.start()
        try:
            txt = model.encode_texts(batch)
            node(np.float64(0.0), (txt,), lambda _: (g,)).backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 25 < batch.flat.size / rows.size < 30
        assert model.tok_table.grad_rows.size > 0
        assert peak < token_array_bytes


class TestTemperature:
    def test_tau_starts_at_config_value(self):
        model = small_model()
        np.testing.assert_allclose(float(model.tau().data), 0.07, rtol=1e-12)

    def test_tau_clamps_high(self):
        model = small_model()
        model.log_tau.data = np.float64(5.0)
        assert float(model.tau().data) == TAU_MAX

    def test_tau_clamps_low(self):
        model = small_model()
        model.log_tau.data = np.float64(-20.0)
        assert float(model.tau().data) == TAU_MIN

    def test_clamp_bounds(self):
        assert TAU_MIN == 0.01
        assert TAU_MAX == 1.0


class TestParameters:
    def test_fixed_order_and_decay_flags(self):
        params = small_model().parameters()
        names = [name for name, _, _ in params]
        assert names == [
            "img_w1", "img_b1", "img_w2", "img_b2", "tok_table",
            "txt_w1", "txt_b1", "txt_w2", "txt_b2", "log_tau",
        ]
        decay = {name: d for name, _, d in params}
        assert decay["img_w1"] and decay["tok_table"] and decay["txt_w2"]
        assert not decay["img_b1"] and not decay["txt_b2"]
        assert not decay["log_tau"]

    def test_token_table_has_null_row(self):
        model = small_model()
        assert model.tok_table.shape == (VOCAB_SIZE + 1, 8)

    def test_biases_start_at_zero(self):
        model = small_model()
        for name in ("img_b1", "img_b2", "txt_b1", "txt_b2"):
            np.testing.assert_array_equal(getattr(model, name).data, 0.0)

    def test_zero_grad_clears_everything(self):
        model = small_model()
        img = model.encode_images(np.ones((2, 6)))
        txt = model.encode_texts([[1], []])
        loss_graph(img, txt, np.array([0, 1]), model.tau()).backward()
        model.zero_grad()
        for name, p, _ in model.parameters():
            assert p.grad is None, name


class TestDeterminism:
    def test_same_seed_same_parameters(self):
        a, b = small_model(seed=3), small_model(seed=3)
        for (n1, p1, _), (_, p2, _) in zip(a.parameters(), b.parameters()):
            assert p1.data.tobytes() == p2.data.tobytes(), n1

    def test_different_seeds_differ(self):
        a, b = small_model(seed=0), small_model(seed=1)
        assert a.img_w1.data.tobytes() != b.img_w1.data.tobytes()

    def test_same_seed_same_outputs(self):
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(5, 6))
        out_a = small_model(seed=9).encode_images(feats).data
        out_b = small_model(seed=9).encode_images(feats).data
        assert out_a.tobytes() == out_b.tobytes()


# An empty prompt (the null row), a repeated token id and a shared label.
GRAD_PROMPTS = [[3, 7], [], [7, 7, 2], [5], [2, 3]]
GRAD_LABELS = np.array([0, 1, 0, 1, 2])
# log_tau with tau inside the clamp, exactly on its upper bound, and above it.
TAU_REGIMES = {"inside": math.log(0.3), "at_bound": 0.0, "outside": 0.4}
FD_STEP = 1e-6


class TestGradients:
    """Central finite differences of loss_graph(encode_images, encode_texts,
    tau) for each of the ten parameters, in each temperature regime."""

    @pytest.mark.parametrize("regime", sorted(TAU_REGIMES))
    def test_every_parameter_matches_finite_differences(self, regime):
        model = DualEncoder(ModelConfig(d_in=4, d_hidden=5, d_emb=3, d_tok=4), seed=2)
        model.log_tau.data = np.array(TAU_REGIMES[regime])  # editable in place
        feats = np.random.default_rng(3).normal(size=(5, 4))

        def loss():
            return loss_graph(
                model.encode_images(feats), model.encode_texts(GRAD_PROMPTS),
                GRAD_LABELS, model.tau(),
            )

        loss().backward()
        used_rows = sorted({t for ids in GRAD_PROMPTS for t in ids} | {VOCAB_SIZE})
        for name, p, _ in model.parameters():
            flat = p.data.reshape(-1)  # a view: editing it moves the parameter
            analytic = p.grad.reshape(-1)
            if name == "tok_table":
                touched = np.flatnonzero(np.any(p.grad != 0, axis=1))
                assert touched.tolist() == used_rows
                d = p.shape[1]
                # The touched rows plus row 0, which no prompt uses.
                check = [row * d + j for row in [0] + used_rows for j in range(d)]
            else:
                check = range(flat.size)
            numeric = []
            for i in check:
                orig = flat[i]
                flat[i] = orig + FD_STEP
                hi = float(loss().data)
                flat[i] = orig - FD_STEP
                lo = float(loss().data)
                flat[i] = orig
                if name == "log_tau" and regime == "at_bound":
                    # The clamp is flat above the bound; the gradient the
                    # node passes on the bound is the one from below.
                    numeric.append((float(loss().data) - lo) / FD_STEP)
                else:
                    numeric.append((hi - lo) / (2 * FD_STEP))
            scale = max(np.abs(analytic[list(check)]).max(), 1e-12)
            np.testing.assert_allclose(
                analytic[list(check)], numeric, rtol=0, atol=1e-4 * scale, err_msg=name
            )
        if regime == "outside":
            assert float(model.log_tau.grad) == 0.0
        else:
            assert float(model.log_tau.grad) != 0.0
