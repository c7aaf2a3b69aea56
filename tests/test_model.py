"""Dual encoder tests: shapes, norms, temperature clamp, determinism, and
the closed-form gradients of the encoder and temperature nodes."""

import math

import numpy as np
import pytest

from mrcontrast.errors import ShapeMismatch, TokenIdOutOfRange
from mrcontrast.loss import loss_graph
from mrcontrast.model import TAU_MAX, TAU_MIN, DualEncoder, ModelConfig
from mrcontrast.prompts import VOCAB_SIZE


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
