"""Reverse-mode autodiff tests: every op against central finite differences."""

import gc

import numpy as np
import pytest

from mrcontrast.autodiff import Tensor, mean_rows, unit_rows, with_gradients
from mrcontrast.errors import NonFiniteGradient
from mrcontrast.loss import loss_graph
from mrcontrast.model import DualEncoder, ModelConfig

EPS = 1e-6
RTOL = 1e-6
ATOL = 1e-8


def numeric_grad(f, x: np.ndarray, eps: float = EPS) -> np.ndarray:
    """Central finite differences of scalar f at x, elementwise."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return g


def check_op(build, x: np.ndarray, weights=None):
    """Compare analytic and numeric gradients of sum(build(x) * weights)."""
    if weights is None:
        rng = np.random.default_rng(0)
        probe = build(Tensor(x)).data
        weights = rng.normal(size=probe.shape)

    def scalar(arr):
        return float((build(Tensor(arr)).data * weights).sum())

    t = Tensor(x.copy(), requires_grad=True)
    loss = (build(t) * Tensor(weights)).sum()
    loss.backward()
    np.testing.assert_allclose(
        t.grad, numeric_grad(scalar, x.copy()), rtol=RTOL, atol=ATOL
    )


class TestElementwiseOps:
    """The Tensor has no subtraction, negation or division operators: the
    tests of those check the compositions that stand for them (adding a
    negated value, scaling by -1, multiplying by pow(-1))."""

    def setup_method(self):
        rng = np.random.default_rng(7)
        self.x = rng.normal(size=(4, 3))

    def test_add(self):
        check_op(lambda t: t + Tensor(np.ones((4, 3))), self.x)

    def test_add_broadcast_row(self):
        check_op(lambda t: t + Tensor(np.arange(3.0)), self.x)

    def test_radd_scalar(self):
        check_op(lambda t: 2.0 + t, self.x)

    def test_sub(self):
        check_op(lambda t: t + Tensor(np.full((4, 3), 0.5)) * -1.0, self.x)

    def test_rsub(self):
        check_op(lambda t: 1.0 + t * -1.0, self.x)

    def test_neg(self):
        check_op(lambda t: t * -1.0, self.x)

    def test_mul_broadcast_column(self):
        check_op(lambda t: t * Tensor(np.arange(1.0, 5.0)[:, None]), self.x)

    def test_div(self):
        check_op(lambda t: t * Tensor(np.full((4, 3), 2.5)).pow(-1.0), self.x)

    def test_div_by_tensor_gradient_flows_to_denominator(self):
        x = np.abs(np.random.default_rng(1).normal(size=(3, 2))) + 0.5

        def build(t):
            return Tensor(np.ones((3, 2))) * t.pow(-1.0)

        check_op(build, x)

    def test_pow(self):
        check_op(lambda t: t.pow(3.0), self.x)

    def test_pow_negative_exponent(self):
        x = np.abs(self.x) + 0.5
        check_op(lambda t: t.pow(-0.5), x)

    def test_exp(self):
        check_op(lambda t: t.exp(), self.x)

    def test_sigmoid(self):
        check_op(lambda t: t.sigmoid(), self.x)

    def test_silu(self):
        check_op(lambda t: t.silu(), self.x)

    def test_clamp_interior_passes_gradient(self):
        check_op(lambda t: t.clamp(-10.0, 10.0), self.x)

    def test_clamp_exterior_blocks_gradient(self):
        t = Tensor(np.array([-5.0, 0.0, 5.0]), requires_grad=True)
        t.clamp(-1.0, 1.0).sum().backward()
        np.testing.assert_array_equal(t.grad, [0.0, 1.0, 0.0])

    def test_clamp_boundary_passes_gradient(self):
        t = Tensor(np.array([-1.0, 1.0]), requires_grad=True)
        t.clamp(-1.0, 1.0).sum().backward()
        np.testing.assert_array_equal(t.grad, [1.0, 1.0])


class TestMatmulAndShapes:
    def test_matmul_left(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(3, 5))
        check_op(lambda t: t @ Tensor(w), rng.normal(size=(4, 3)))

    def test_matmul_right(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 3))
        check_op(lambda t: Tensor(a) @ t, rng.normal(size=(3, 5)))

    def test_sum_all(self):
        check_op(lambda t: t.sum(), np.random.default_rng(5).normal(size=(3, 4)),
                 weights=np.array(1.0))

    def test_sum_axis_keepdims(self):
        rng = np.random.default_rng(6)
        check_op(lambda t: t.sum(axis=1, keepdims=True), rng.normal(size=(3, 4)))

    def test_sum_axis_zero(self):
        rng = np.random.default_rng(7)
        check_op(lambda t: t.sum(axis=0), rng.normal(size=(3, 4)))

    def test_mean(self):
        check_op(lambda t: t.sum() * (1.0 / 10), np.random.default_rng(8).normal(size=(5, 2)),
                 weights=np.array(1.0))


class TestCompositeHelpers:
    def test_unit_rows_norms_are_one(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(6, 4)))
        norms = np.linalg.norm(unit_rows(x).data, axis=1)
        np.testing.assert_allclose(norms, 1.0, rtol=1e-12)

    def test_unit_rows_gradient(self):
        rng = np.random.default_rng(11)
        check_op(unit_rows, rng.normal(size=(5, 3)))

    def test_mean_rows_values(self):
        table = Tensor(np.arange(8.0).reshape(4, 2))
        out = mean_rows(table, [[0, 2], [3]], null_row=3)
        np.testing.assert_allclose(out.data, [[2.0, 3.0], [6.0, 7.0]])

    def test_mean_rows_empty_list_uses_null_row(self):
        table = Tensor(np.arange(8.0).reshape(4, 2))
        out = mean_rows(table, [[], [1]], null_row=3)
        np.testing.assert_allclose(out.data, [[6.0, 7.0], [2.0, 3.0]])

    def test_mean_rows_gradient(self):
        rng = np.random.default_rng(12)
        id_lists = [[0, 1, 1], [2], []]

        def build(t):
            return mean_rows(t, id_lists, null_row=3)

        check_op(build, rng.normal(size=(4, 3)))

    def test_mlp_chain_gradient(self):
        rng = np.random.default_rng(13)
        w1 = rng.normal(size=(3, 4))
        w2 = rng.normal(size=(4, 2))

        def build(t):
            return unit_rows((t @ Tensor(w1)).silu() @ Tensor(w2))

        check_op(build, rng.normal(size=(5, 3)))


class TestGraphMechanics:
    def test_reused_tensor_accumulates(self):
        t = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        ((t * t) + t).sum().backward()
        np.testing.assert_allclose(t.grad, 2 * t.data + 1)

    def test_backward_requires_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2.0).backward()

    def test_zero_grad_resets(self):
        t = Tensor(np.ones(3), requires_grad=True)
        t.sum().backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None

    def test_grads_accumulate_across_backwards(self):
        t = Tensor(np.ones(3), requires_grad=True)
        t.sum().backward()
        t.sum().backward()
        np.testing.assert_array_equal(t.grad, [2.0, 2.0, 2.0])

    def test_detach_cuts_the_graph(self):
        t = Tensor(np.ones(3), requires_grad=True)
        d = Tensor(t.data)
        assert not d.requires_grad
        (Tensor(np.ones(3), requires_grad=True) * d).sum().backward()
        assert t.grad is None

    def test_constant_branches_get_no_grad(self):
        t = Tensor(np.ones(3), requires_grad=True)
        c = Tensor(np.ones(3))
        (t + c).sum().backward()
        assert c.grad is None

    def test_non_finite_leaf_gradient_raises(self):
        t = Tensor(np.array([0.0, 1.0]), requires_grad=True)
        with np.errstate(divide="ignore"):
            with pytest.raises(NonFiniteGradient):
                t.pow(-0.5).sum().backward()

    def test_with_gradients_scales_the_supplied_gradients(self):
        a = Tensor(np.ones(2), requires_grad=True)
        c = Tensor(np.ones(3))
        node = with_gradients(5.0, ((a, np.array([1.0, 2.0])), (c, np.ones(3))))
        (node * 3.0).backward()
        np.testing.assert_array_equal(a.grad, [3.0, 6.0])
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
        t = Tensor(np.ones(3, dtype=np.float64), requires_grad=True)
        t.sum().backward()
        assert t.grad.dtype == np.float64
