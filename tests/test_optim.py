"""Adam tests against a hand-computed update, plus schedule and state."""

import math

import numpy as np
import pytest

from mrcontrast.autodiff import Tensor
from mrcontrast.errors import NonFiniteGradient
from mrcontrast.model import TAU_MAX, TAU_MIN
from mrcontrast.optim import Adam, AdamConfig, clamp_log_tau, effective_lr


def reference_step(p, g, m, v, t, config, decay):
    """One decoupled-decay Adam update, written out literally."""
    lr = effective_lr(config, t)
    if decay and config.weight_decay != 0.0:
        p = p * (1.0 - lr * config.weight_decay)
    m = config.beta1 * m + (1.0 - config.beta1) * g
    v = config.beta2 * v + (1.0 - config.beta2) * (g * g)
    m_hat = m / (1.0 - config.beta1 ** t)
    v_hat = v / (1.0 - config.beta2 ** t)
    p = p - lr * m_hat / (np.sqrt(v_hat) + config.eps)
    return p, m, v


class TestEffectiveLr:
    def test_linear_warmup_is_one_based(self):
        config = AdamConfig(lr=0.1, warmup_steps=4)
        assert effective_lr(config, 1) == 0.1 * 1 / 4
        assert effective_lr(config, 2) == 0.1 * 2 / 4
        assert effective_lr(config, 3) == 0.1 * 3 / 4
        assert effective_lr(config, 4) == 0.1
        assert effective_lr(config, 100) == 0.1

    def test_zero_warmup_is_constant(self):
        config = AdamConfig(lr=0.05, warmup_steps=0)
        assert effective_lr(config, 1) == 0.05


class TestStepArithmetic:
    def config(self):
        return AdamConfig(
            lr=0.01, beta1=0.9, beta2=0.98, eps=1e-8,
            weight_decay=0.2, warmup_steps=3,
        )

    def test_single_step_matches_reference(self):
        rng = np.random.default_rng(0)
        p0 = rng.normal(size=(3, 2))
        g0 = rng.normal(size=(3, 2))
        t = Tensor(p0.copy(), requires_grad=True)
        t.grad = g0.copy()
        opt = Adam([("w", t, True)], self.config())
        lr_eff = opt.step()

        want, m, v = reference_step(
            p0, g0, np.zeros_like(p0), np.zeros_like(p0), 1, self.config(), True
        )
        assert lr_eff == effective_lr(self.config(), 1)
        np.testing.assert_array_equal(t.data, want)
        np.testing.assert_array_equal(opt.m["w"], m)
        np.testing.assert_array_equal(opt.v["w"], v)

    def test_three_steps_match_reference(self):
        rng = np.random.default_rng(1)
        p = rng.normal(size=5)
        t = Tensor(p.copy(), requires_grad=True)
        opt = Adam([("w", t, True)], self.config())
        m = np.zeros_like(p)
        v = np.zeros_like(p)
        for step in range(1, 4):
            g = rng.normal(size=5)
            t.grad = g.copy()
            opt.step()
            p, m, v = reference_step(p, g, m, v, step, self.config(), True)
            np.testing.assert_array_equal(t.data, p)

    def test_decay_skipped_for_flagged_parameters(self):
        p0 = np.full(4, 10.0)
        g0 = np.zeros(4)
        no_decay = Tensor(p0.copy(), requires_grad=True)
        no_decay.grad = g0.copy()
        opt = Adam([("b", no_decay, False)], self.config())
        opt.step()
        np.testing.assert_array_equal(no_decay.data, p0)

    def test_decay_shrinks_weights_before_moments(self):
        """With zero gradient the update is exactly the decay factor."""
        p0 = np.full(4, 10.0)
        t = Tensor(p0.copy(), requires_grad=True)
        t.grad = np.zeros(4)
        config = self.config()
        opt = Adam([("w", t, True)], config)
        lr_eff = opt.step()
        np.testing.assert_array_equal(t.data, p0 * (1.0 - lr_eff * 0.2))

    def test_missing_gradient_skips_parameter(self):
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        a.grad = np.full(2, 0.5)
        opt = Adam([("a", a, True), ("b", b, True)], self.config())
        opt.step()
        assert not np.array_equal(a.data, np.ones(2))
        np.testing.assert_array_equal(b.data, np.ones(2))
        assert opt.t == 1

    def test_non_finite_gradient_raises(self):
        t = Tensor(np.ones(2), requires_grad=True)
        t.grad = np.array([1.0, np.inf])
        opt = Adam([("w", t, True)], self.config())
        with pytest.raises(NonFiniteGradient):
            opt.step()


class TestState:
    def test_state_round_trip_reproduces_next_step(self):
        rng = np.random.default_rng(2)
        config = AdamConfig(lr=0.01, warmup_steps=5)

        def fresh():
            t = Tensor(np.ones(3), requires_grad=True)
            return t, Adam([("w", t, True)], config)

        t1, opt1 = fresh()
        grads = [rng.normal(size=3) for _ in range(4)]
        for g in grads[:2]:
            t1.grad = g.copy()
            opt1.step()
        saved_state = {"t": opt1.t, "m": dict(opt1.m), "v": dict(opt1.v)}
        saved_data = t1.data.copy()

        t2, opt2 = fresh()
        t2.data = saved_data.copy()
        opt2.load_state_dict(saved_state)
        for g in grads[2:]:
            t1.grad = g.copy()
            t2.grad = g.copy()
            opt1.step()
            opt2.step()
        np.testing.assert_array_equal(t1.data, t2.data)

    def test_state_dict_copies_are_independent(self):
        t = Tensor(np.ones(2), requires_grad=True)
        opt = Adam([("w", t, True)], AdamConfig())
        state = {"t": 3, "m": {"w": np.zeros(2)}, "v": {"w": np.zeros(2)}}
        opt.load_state_dict(state)
        state["m"]["w"][:] = 99.0
        state["v"]["w"][:] = 99.0
        np.testing.assert_array_equal(opt.m["w"], 0.0)
        np.testing.assert_array_equal(opt.v["w"], 0.0)
        assert opt.t == 3


class TestClampLogTau:
    def test_clamps_both_sides(self):
        hi = Tensor(np.float64(3.0), requires_grad=True)
        clamp_log_tau(hi)
        assert float(hi.data) == math.log(TAU_MAX)
        lo = Tensor(np.float64(-9.0), requires_grad=True)
        clamp_log_tau(lo)
        assert float(lo.data) == math.log(TAU_MIN)

    def test_interior_untouched(self):
        t = Tensor(np.float64(math.log(0.07)), requires_grad=True)
        clamp_log_tau(t)
        assert float(t.data) == math.log(0.07)
