"""Autodiff tests: the tape's mechanics on `node`, and each step of the
closed-form encoder and temperature nodes against central finite
differences.

The encoders are a SiLU MLP with unit-norm output rows (the text tower first
mean-pools token-table rows) and the temperature is a clamped exponential.
The test names follow the tensor operations these steps were once composed
of; each test now checks that operation where it lives in a node.
"""

import gc
import math

import numpy as np
import pytest

from mrcontrast.autodiff import Tensor, node
from mrcontrast.errors import NonFiniteGradient
from mrcontrast.loss import contrastive_loss, loss_graph
from mrcontrast.model import TAU_MAX, TAU_MIN, DualEncoder, ModelConfig
from mrcontrast.optim import clamp_log_tau
from mrcontrast.prompts import VOCAB_SIZE

EPS = 1e-6
RTOL = 1e-6
ATOL = 1e-8

# Row 0 is all zeros: with the biases at their initial zero it encodes to the
# all-zero row that the normalization's eps guards.
FEATS = np.vstack([np.zeros(3), np.random.default_rng(7).normal(size=(4, 3))])
# An empty prompt (the null row) and a repeated token id.
PROMPTS = [[1, 2], [4], [], [2, 2, 6], [6]]
USED_ROWS = [1, 2, 4, 6, VOCAB_SIZE]


def small_model(seed=0):
    return DualEncoder(ModelConfig(d_in=3, d_hidden=4, d_emb=3, d_tok=3), seed=seed)


def images(model):
    return model.encode_images(FEATS[1:])


def texts(model):
    return model.encode_texts(PROMPTS)


def probe(t: Tensor, w) -> Tensor:
    """sum(t * w) as one node: a scalar root to call backward() on."""
    return node((t.data * w).sum(), (t,), lambda g: (g * w,))


def silu_mlp(x, w1, b1, w2, b2):
    """Reference forward pass of either tower after pooling."""
    a = x @ w1 + b1
    o = (a / (1.0 + np.exp(-a))) @ w2 + b2
    return o / np.linalg.norm(o, axis=1, keepdims=True)


def check_param(model, encode, name, rows=None):
    """Gradient of sum(encode(model) * w) with respect to the parameter
    `name` (only the given table rows, if any) against central differences;
    returns the analytic gradient."""
    w = np.random.default_rng(0).normal(size=encode(model).shape)
    model.zero_grad()
    probe(encode(model), w).backward()
    p = getattr(model, name)
    flat = p.data.reshape(-1)
    if rows is None:
        idx = list(range(flat.size))
    else:
        d = p.shape[1]
        idx = [r * d + j for r in rows for j in range(d)]
    numeric = []
    for i in idx:
        orig = flat[i]
        flat[i] = orig + EPS
        hi = float((encode(model).data * w).sum())
        flat[i] = orig - EPS
        lo = float((encode(model).data * w).sum())
        flat[i] = orig
        numeric.append((hi - lo) / (2 * EPS))
    np.testing.assert_allclose(
        p.grad.reshape(-1)[idx], numeric, rtol=RTOL, atol=ATOL, err_msg=name
    )
    return p.grad


def tau_grad(log_tau: float, weight: float = 1.0):
    model = small_model()
    model.log_tau.data = np.float64(log_tau)
    tau = model.tau()
    probe(tau, weight).backward()
    return float(tau.data), float(model.log_tau.grad)


class TestElementwiseOps:
    def test_add(self):
        """The output bias: o = h @ w2 + b2."""
        check_param(small_model(), images, "img_b2")

    def test_add_broadcast_row(self):
        """The hidden bias, broadcast over the batch rows."""
        check_param(small_model(), images, "img_b1")

    def test_radd_scalar(self):
        """eps only guards the all-zero row: it encodes to zeros, and the
        other rows are normalized exactly."""
        model = small_model()
        out = model.encode_images(FEATS).data
        np.testing.assert_array_equal(out[0], 0.0)
        params = [p.data for p in (model.img_w1, model.img_b1, model.img_w2, model.img_b2)]
        np.testing.assert_allclose(out[1:], silu_mlp(FEATS[1:], *params), rtol=1e-14)

    def test_sub(self):
        """The sigmoid's (1 - s) term: at a zero pre-activation the SiLU
        gradient is exactly one half, not zero."""
        model = small_model()
        model.img_w1.data = np.zeros_like(model.img_w1.data)
        model.img_b2.data = np.ones_like(model.img_b2.data)
        assert np.any(check_param(model, images, "img_w1") != 0)

    def test_rsub(self):
        """A saturated sigmoid (pre-activations near +20) passes the
        gradient through as the identity."""
        model = small_model()
        model.img_b1.data = np.full_like(model.img_b1.data, 20.0)
        check_param(model, images, "img_w1")

    def test_neg(self):
        """Negative pre-activations, where the SiLU slope changes sign."""
        model = small_model()
        model.img_b1.data = np.full_like(model.img_b1.data, -2.0)
        check_param(model, images, "img_w1")

    def test_mul_broadcast_column(self):
        """Each row is scaled by its own inverse norm: scaling w2 and b2 by 4
        leaves the embeddings unchanged and divides the w2 gradient by 4."""
        model = small_model()
        w = np.random.default_rng(1).normal(size=(4, 3))
        before = images(model)
        probe(before, w).backward()
        g_before = model.img_w2.grad
        model.zero_grad()
        model.img_w2.data = model.img_w2.data * 4.0
        model.img_b2.data = model.img_b2.data * 4.0
        after = images(model)
        probe(after, w).backward()
        np.testing.assert_allclose(after.data, before.data, rtol=1e-14)
        np.testing.assert_allclose(model.img_w2.grad * 4.0, g_before, rtol=1e-12)

    def test_div(self):
        """The embedding is the output layer divided by its row norm."""
        model = small_model()
        model.img_b1.data = np.full_like(model.img_b1.data, 0.3)
        model.img_b2.data = np.full_like(model.img_b2.data, -0.2)
        params = [p.data for p in (model.img_w1, model.img_b1, model.img_w2, model.img_b2)]
        np.testing.assert_allclose(
            images(model).data, silu_mlp(FEATS[1:], *params), rtol=1e-14
        )

    def test_div_by_tensor_gradient_flows_to_denominator(self):
        """A gradient along the embedding itself only changes the norm, so
        the gradient through the denominator cancels it exactly."""
        model = small_model()
        out = images(model)
        probe(out, out.data).backward()
        for name in ("img_w1", "img_b1", "img_w2", "img_b2"):
            np.testing.assert_allclose(getattr(model, name).grad, 0.0, atol=1e-12)

    def test_pow(self):
        """The norm's (sum o^2 + eps)^-1/2, through the output weights."""
        check_param(small_model(), images, "img_w2")

    def test_pow_negative_exponent(self):
        """The all-zero row keeps every gradient finite."""
        model = small_model()
        w = np.random.default_rng(2).normal(size=(5, 3))
        probe(model.encode_images(FEATS), w).backward()
        for name in ("img_w1", "img_b1", "img_w2", "img_b2"):
            assert np.isfinite(getattr(model, name).grad).all(), name

    def test_exp(self):
        tau, grad = tau_grad(math.log(0.2), weight=3.0)
        assert tau == np.exp(math.log(0.2))
        assert grad == 3.0 * tau

    def test_sigmoid(self):
        """The text tower's SiLU, through its hidden bias."""
        check_param(small_model(), texts, "txt_b1")

    def test_silu(self):
        check_param(small_model(), texts, "txt_w1")

    def test_clamp_interior_passes_gradient(self):
        for log_tau in (math.log(0.02), math.log(0.07), math.log(0.5)):
            tau, grad = tau_grad(log_tau)
            assert TAU_MIN < tau < TAU_MAX
            assert grad == tau

    def test_clamp_exterior_blocks_gradient(self):
        assert tau_grad(-6.0) == (TAU_MIN, 0.0)
        assert tau_grad(0.5) == (TAU_MAX, 0.0)

    def test_clamp_boundary_passes_gradient(self):
        """A log_tau projected onto either bound can still move."""
        assert tau_grad(0.0) == (TAU_MAX, 1.0)
        model = small_model()
        model.log_tau.data = np.float64(-9.0)
        clamp_log_tau(model.log_tau)
        probe(model.tau(), 1.0).backward()
        assert float(model.log_tau.grad) > 0.0


class TestMatmulAndShapes:
    def test_matmul_left(self):
        """The pooled rows are the left operand of the first text layer:
        the gradient reaches the token-table rows the prompts use."""
        check_param(small_model(), texts, "tok_table", rows=USED_ROWS)

    def test_matmul_right(self):
        check_param(small_model(), images, "img_w1")

    def test_sum_all(self):
        """The VJPs are linear in the incoming gradient: doubling the root's
        weights doubles every gradient exactly."""
        w = np.random.default_rng(3).normal(size=(4, 3))
        grads = []
        for scale in (1.0, 2.0):
            model = small_model()
            probe(images(model), w * scale).backward()
            probe(texts(model), np.ones((5, 3)) * scale).backward()
            grads.append([p.grad for _, p, _ in model.parameters()[:-1]])
        for g1, g2 in zip(*grads):
            np.testing.assert_array_equal(g2, 2.0 * g1)

    def test_sum_axis_keepdims(self):
        """The squared norm is summed per row: a row's embedding does not
        depend on the rest of the batch."""
        model = small_model()
        batch = images(model).data
        for i, row in enumerate(FEATS[1:]):
            alone = model.encode_images(row[None, :]).data
            np.testing.assert_allclose(alone[0], batch[i], rtol=1e-14)

    def test_sum_axis_zero(self):
        """The batch gradient is the sum of the per-row gradients."""
        w = np.random.default_rng(4).normal(size=(4, 3))
        model = small_model()
        probe(images(model), w).backward()
        batch = {n: getattr(model, n).grad for n in ("img_w1", "img_b1", "img_w2", "img_b2")}
        model.zero_grad()
        for i, row in enumerate(FEATS[1:]):
            probe(model.encode_images(row[None, :]), w[i : i + 1]).backward()
        for name, g in batch.items():
            np.testing.assert_allclose(getattr(model, name).grad, g, rtol=1e-12, atol=1e-15)

    def test_mean(self):
        """A prompt pools to the mean of its token rows."""
        model = small_model()
        table = model.tok_table.data
        table[9] = (table[1] + table[2] + table[2]) / 3.0
        np.testing.assert_allclose(
            model.encode_texts([[1, 2, 2]]).data, model.encode_texts([[9]]).data,
            rtol=1e-14,
        )


class TestCompositeHelpers:
    def test_unit_rows_norms_are_one(self):
        model = small_model()
        for out in (images(model), texts(model)):
            np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0, rtol=1e-12)

    def test_unit_rows_gradient(self):
        model = small_model()
        check_param(model, texts, "txt_w2")
        check_param(model, texts, "txt_b2")

    def test_mean_rows_values(self):
        model = small_model()
        table = model.tok_table.data
        pooled = np.stack([
            table[[1, 2]].mean(axis=0), table[4], table[VOCAB_SIZE],
            table[[2, 2, 6]].mean(axis=0), table[6],
        ])
        params = [p.data for p in (model.txt_w1, model.txt_b1, model.txt_w2, model.txt_b2)]
        np.testing.assert_allclose(texts(model).data, silu_mlp(pooled, *params), rtol=1e-14)

    def test_mean_rows_empty_list_uses_null_row(self):
        model = small_model()
        probe(model.encode_texts([[]]), np.ones((1, 3))).backward()
        touched = np.flatnonzero(np.any(model.tok_table.grad != 0, axis=1))
        assert touched.tolist() == [VOCAB_SIZE]

    def test_mean_rows_gradient(self):
        """A repeated token id gets its share once per occurrence."""
        model = small_model()
        g = check_param(model, lambda m: m.encode_texts([[2, 2, 6]]), "tok_table", rows=[2, 6])
        np.testing.assert_array_equal(g[2], 2.0 * g[6])

    def test_mlp_chain_gradient(self):
        model = small_model(seed=5)
        for name in ("img_w1", "img_b1", "img_w2", "img_b2"):
            check_param(model, images, name)


class TestGraphMechanics:
    def test_reused_tensor_accumulates(self):
        t = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        square = node(t.data * t.data, (t, t), lambda g: (g * t.data, g * t.data))
        probe(square, 1.0).backward()
        np.testing.assert_array_equal(t.grad, 2 * t.data)

    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError):
            images(small_model()).backward()

    def test_zero_grad_resets(self):
        t = Tensor(np.ones(3), requires_grad=True)
        probe(t, 1.0).backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None

    def test_grads_accumulate_across_backwards(self):
        t = Tensor(np.ones(3), requires_grad=True)
        probe(t, 1.0).backward()
        probe(t, 1.0).backward()
        np.testing.assert_array_equal(t.grad, [2.0, 2.0, 2.0])

    def test_detach_cuts_the_graph(self):
        model = small_model()
        d = Tensor(images(model).data)
        assert not d.requires_grad
        probe(d, 1.0).backward()
        for name, p, _ in model.parameters():
            assert p.grad is None, name

    def test_constant_branches_get_no_grad(self):
        model = small_model()
        model.img_w2.requires_grad = False
        probe(images(model), 1.0).backward()
        assert model.img_w2.grad is None
        assert model.img_w1.grad is not None
        c = Tensor(np.ones(3))
        t = Tensor(np.ones(3), requires_grad=True)
        probe(node(t.data + c.data, (t, c), lambda g: (g, g)), 1.0).backward()
        assert c.grad is None

    def test_non_finite_leaf_gradient_raises(self):
        t = Tensor(np.array([0.0, 1.0]), requires_grad=True)
        with np.errstate(divide="ignore"):
            root = node(np.sqrt(t.data).sum(), (t,), lambda g: (g * 0.5 / np.sqrt(t.data),))
            with pytest.raises(NonFiniteGradient):
                root.backward()

    def test_with_gradients_scales_the_supplied_gradients(self):
        """The loss node supplies its closed-form gradients; backward scales
        them by the incoming gradient."""
        rng = np.random.default_rng(9)
        img = rng.normal(size=(4, 3))
        img /= np.linalg.norm(img, axis=1, keepdims=True)
        labels = np.array([0, 0, 1, 1])
        a = Tensor(img, requires_grad=True)
        c = Tensor(img)
        tau = Tensor(0.3, requires_grad=True)
        probe(loss_graph(a, c, labels, tau), 3.0).backward()
        result = contrastive_loss(img, img, labels, 0.3)
        np.testing.assert_array_equal(a.grad, 3.0 * result.d_images)
        assert float(tau.grad) == 3.0 * result.d_temperature
        assert c.grad is None

    def test_training_step_graph_is_freed_without_the_cyclic_collector(self):
        model = DualEncoder(ModelConfig(d_in=3), seed=0)
        features = np.random.default_rng(14).normal(size=(6, 3))
        tokens = [[1, 2], [3], [], [4, 5, 6], [2], [7]]
        labels = np.array([0, 0, 1, 1, 2, 2])
        gc.collect()
        gc.disable()
        try:
            out = loss_graph(
                model.encode_images(features), model.encode_texts(tokens),
                labels, model.tau(),
            )
            out.backward()
            del out
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert model.img_w1.grad is not None


class TestFloat64Discipline:
    def test_tensors_are_float64(self):
        assert Tensor(np.ones(3, dtype=np.float32)).data.dtype == np.float64
        assert Tensor([1, 2, 3]).data.dtype == np.float64

    def test_gradients_are_float64(self):
        model = small_model()
        probe(images(model), np.ones((4, 3), dtype=np.float32)).backward()
        probe(texts(model), np.ones((5, 3), dtype=np.float32)).backward()
        probe(model.tau(), np.float32(1.0)).backward()
        for name, p, _ in model.parameters():
            assert p.grad.dtype == np.float64, name
