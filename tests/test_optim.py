"""Adam tests against a hand-computed update, plus schedule and state."""

import math

import numpy as np
import pytest

from mrcontrast.autodiff import Tensor, node
from mrcontrast.errors import NonFiniteGradient
from mrcontrast.model import TAU_MAX, TAU_MIN, parameter_views
from mrcontrast import optim
from mrcontrast.optim import Adam, clamp_log_tau, effective_lr


def reference_step(p, g, m, v, t, config, decay):
    """One decoupled-decay Adam update, written out literally; `config` holds
    Adam's keyword arguments, and the betas and eps are read when it runs."""
    beta1, beta2, eps = optim.BETA1, optim.BETA2, optim.EPS
    lr = effective_lr(config["lr"], config["warmup_steps"], t)
    if decay and config["weight_decay"] != 0.0:
        p = p * (1.0 - lr * config["weight_decay"])
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * (g * g)
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p, m, v


def on_one_buffer(*entries, **kwargs):
    """(tensors, Adam) for (name, value, decay) entries: the tensors are views
    of one flat buffer holding the values in order, as a model's parameters
    are; `kwargs` go to Adam (its config, and t, m and v to resume from)."""
    flat = np.concatenate([np.ravel(value) for _, value, _ in entries]).astype(np.float64)
    layout = [(name, np.shape(value), decay) for name, value, decay in entries]
    tensors = [Tensor(view, requires_grad=True) for view in parameter_views(flat, layout)]
    params = [(name, t, decay) for (name, _, decay), t in zip(entries, tensors)]
    return tensors, Adam(flat, params, **kwargs)


class TestEffectiveLr:
    def test_linear_warmup_is_one_based(self):
        assert effective_lr(0.1, 4, 1) == 0.1 * 1 / 4
        assert effective_lr(0.1, 4, 2) == 0.1 * 2 / 4
        assert effective_lr(0.1, 4, 3) == 0.1 * 3 / 4
        assert effective_lr(0.1, 4, 4) == 0.1
        assert effective_lr(0.1, 4, 100) == 0.1

    def test_zero_warmup_is_constant(self):
        assert effective_lr(0.05, 0, 1) == 0.05

    def test_betas_and_eps_are_clip_constants(self):
        assert (optim.BETA1, optim.BETA2, optim.EPS) == (0.9, 0.98, 1e-8)


class TestStepArithmetic:
    def config(self):
        return dict(lr=0.01, weight_decay=0.2, warmup_steps=3)

    def test_single_step_matches_reference(self):
        rng = np.random.default_rng(0)
        p0 = rng.normal(size=(3, 2))
        g0 = rng.normal(size=(3, 2))
        (t,), opt = on_one_buffer(("w", p0, True), **self.config())
        t.grad = g0.copy()
        lr_eff = opt.step()

        want, m, v = reference_step(
            p0, g0, np.zeros_like(p0), np.zeros_like(p0), 1, self.config(), True
        )
        assert lr_eff == effective_lr(0.01, 3, 1)
        np.testing.assert_array_equal(t.data, want)
        np.testing.assert_array_equal(opt.m.reshape(m.shape), m)
        np.testing.assert_array_equal(opt.v.reshape(v.shape), v)

    def test_three_steps_match_reference(self):
        rng = np.random.default_rng(1)
        p = rng.normal(size=5)
        (t,), opt = on_one_buffer(("w", p, True), **self.config())
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
        (no_decay,), opt = on_one_buffer(("b", p0, False), **self.config())
        no_decay.grad = g0.copy()
        opt.step()
        np.testing.assert_array_equal(no_decay.data, p0)

    def test_decay_shrinks_weights_before_moments(self):
        """With zero gradient the update is exactly the decay factor."""
        p0 = np.full(4, 10.0)
        (t,), opt = on_one_buffer(("w", p0, True), **self.config())
        t.grad = np.zeros(4)
        lr_eff = opt.step()
        np.testing.assert_array_equal(t.data, p0 * (1.0 - lr_eff * 0.2))

    def test_non_finite_gradient_raises(self):
        """The error names the parameter; no element moves."""
        (a, b), opt = on_one_buffer(("a", np.ones(3), True), ("b", np.ones(2), True),
                                    **self.config())
        a.grad, b.grad = np.full(3, 0.5), np.array([1.0, np.inf])
        with pytest.raises(NonFiniteGradient, match="non-finite gradient for b"):
            opt.step()
        assert (opt.flat == 1.0).all() and not opt.m.any() and not opt.v.any()


class TestState:
    def test_state_round_trip_reproduces_next_step(self):
        rng = np.random.default_rng(2)
        config = dict(lr=0.01, weight_decay=0.2, warmup_steps=5)

        (t1,), opt1 = on_one_buffer(("w", np.ones(3), True), **config)
        grads = [rng.normal(size=3) for _ in range(4)]
        for g in grads[:2]:
            t1.grad = g.copy()
            opt1.step()

        (t2,), opt2 = on_one_buffer(("w", t1.data.copy(), True), **config,
                                    t=opt1.t, m=opt1.m.copy(), v=opt1.v.copy())
        for g in grads[2:]:
            t1.grad = g.copy()
            t2.grad = g.copy()
            opt1.step()
            opt2.step()
        assert t1.data.tobytes() == t2.data.tobytes()
        assert opt1.m.tobytes() == opt2.m.tobytes() and opt1.v.tobytes() == opt2.v.tobytes()

    def test_given_moments_are_stepped_in_place(self):
        """Adam keeps the t, m and v it is built on, not copies: a checkpoint's
        loaded moments are the resumed run's."""
        m, v = np.full(2, 0.5), np.full(2, 0.25)
        (t,), opt = on_one_buffer(("w", np.ones(2), True), lr=1e-4, weight_decay=0.2,
                                  warmup_steps=2000, t=3, m=m, v=v)
        t.grad = np.ones(2)
        opt.step()
        assert opt.t == 4 and opt.m is m and opt.v is v
        assert (m != 0.5).all() and (v != 0.25).all()


class TestClampLogTau:
    def test_clamps_both_sides(self):
        hi = Tensor(np.float64(3.0), requires_grad=True)
        clamp_log_tau(hi)
        assert float(hi.data) == math.log(TAU_MAX)
        lo = Tensor(np.float64(-9.0), requires_grad=True)
        clamp_log_tau(lo)
        assert float(lo.data) == math.log(TAU_MIN)

    def test_clamps_in_place(self):
        """The clamp writes log_tau's own array, a view of the model's buffer."""
        flat = np.array([1.0, 3.0])
        t = Tensor(flat[1:].reshape(()), requires_grad=True)
        before = t.data
        clamp_log_tau(t)
        assert t.data is before and flat[1] == math.log(TAU_MAX)

    def test_interior_untouched(self):
        t = Tensor(np.float64(math.log(0.07)), requires_grad=True)
        clamp_log_tau(t)
        assert float(t.data) == math.log(0.07)


class TestDenseStep:
    """Adam updates every element of the buffer densely, so every bit equals
    reference_step's, and a row that no step gives a gradient keeps its bits
    (the token table's rows outside a batch's prompts)."""

    def config(self):
        return dict(lr=0.05, weight_decay=0.2, warmup_steps=3)

    def grads(self, step, rng):
        """Row 1's gradient vanishes at steps 3-5 and returns at step 6; row
        2's square underflows (m != 0 while v = 0); row 4 never has one."""
        table = np.zeros((6, 3))
        table[0] = rng.normal(size=3)
        if step not in (3, 4, 5):
            table[1] = rng.normal(size=3)
        table[2] = 1e-170
        table[3, 1] = -0.0 if step % 2 else rng.normal()
        return {"table": table, "bias": np.where(step > 2, rng.normal(size=4), 0.0),
                "scalar": np.float64(rng.normal())}

    def fresh(self, values=None, **state):
        """Tensors and Adam on one buffer, from seed-7 values or `values`, and
        a fresh Adam or one on `state` (t, m, v)."""
        if values is None:
            rng = np.random.default_rng(7)
            shapes = {"table": (6, 3), "bias": (4,), "scalar": ()}
            values = {name: rng.normal(size=shape) for name, shape in shapes.items()}
            values["table"][4, 0] = -0.0
        decay = {"table": True, "bias": False, "scalar": False}
        tensors, opt = on_one_buffer(*((k, values[k], decay[k]) for k in decay),
                                     **self.config(), **state)
        return dict(zip(decay, tensors)), opt, values

    def test_matches_dense_reference_with_resume(self):
        rng = np.random.default_rng(3)
        tensors, opt, p = self.fresh()
        p = {k: x.copy() for k, x in p.items()}
        decay = {"table": True, "bias": False, "scalar": False}
        m = {k: np.zeros_like(x) for k, x in p.items()}
        v = {k: np.zeros_like(x) for k, x in p.items()}
        for step in range(1, 9):
            if step == 5:  # resume a fresh optimizer from the saved state
                saved = {k: t.data.copy() for k, t in tensors.items()}
                tensors, opt, _ = self.fresh(saved, t=opt.t, m=opt.m.copy(), v=opt.v.copy())
            grads = self.grads(step, rng)
            for k, t in tensors.items():
                t.grad = grads[k].copy()
                p[k], m[k], v[k] = reference_step(p[k], grads[k], m[k], v[k], step,
                                                  self.config(), decay[k])
            opt.step()
            for k, t in tensors.items():
                assert t.data.shape == p[k].shape, (step, k)
                assert t.data.tobytes() == p[k].tobytes(), (step, k)
            assert opt.m.tobytes() == b"".join(m[k].tobytes() for k in decay), step
            assert opt.v.tobytes() == b"".join(v[k].tobytes() for k in decay), step
        assert m["table"][2].all() and not v["table"][2].any()
        assert not m["table"][4].any() and np.signbit(p["table"][4, 0])

    def test_rows_live_only_through_m_or_v_update_like_the_dense_step(self, monkeypatch):
        """Row 0's -0.0 moment compares equal to zero, but the dense step turns
        it into +0.0; row 1 has m = 0 (an underflowed moment) while v > 0
        still decays. Row 2 is all +0.0 and keeps its -0.0 parameter."""
        monkeypatch.setattr(optim, "BETA1", 0.3)
        config = dict(lr=0.1, weight_decay=0.0, warmup_steps=0)
        m0 = np.array([[-0.0, -0.0], [0.0, 0.0], [0.0, 0.0]])
        v0 = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.0]])
        (t,), opt = on_one_buffer(("w", np.array([[-0.0, 1.0], [2.0, 3.0], [4.0, -0.0]]), True),
                                  **config, t=4, m=m0.ravel(), v=v0.ravel())
        t.grad = np.zeros((3, 2))
        want, m, v = reference_step(t.data.copy(), t.grad, m0.copy(), v0.copy(), 5, config, True)
        opt.step()
        assert t.data.tobytes() == want.tobytes()
        assert opt.m.tobytes() == m.tobytes()
        assert opt.v.tobytes() == v.tobytes()
        assert not np.signbit(opt.m).any()

    def test_a_step_writes_into_the_parameters_own_array(self):
        """Decay and update happen in place in the buffer, also for a 0-d
        parameter: every tensor keeps its view."""
        (t, s), opt = on_one_buffer(("w", np.ones((3, 2)), True), ("s", np.float64(1.0), False),
                                    **self.config())
        before = (t.data, s.data)
        want, _, _ = reference_step(np.ones((3, 2)), 0.5, 0.0, 0.0, 1, self.config(), True)
        t.grad = np.full((3, 2), 0.5)
        s.grad = np.float64(0.5)
        opt.step()
        assert t.data is before[0] and s.data is before[1]
        assert t.data.tobytes() == want.tobytes()
        assert float(s.data) == reference_step(1.0, 0.5, 0.0, 0.0, 1, self.config(), False)[0]
        assert opt.flat.tobytes() == want.tobytes() + s.data.tobytes()

    def test_dense_steps_match_the_reference_with_resume(self):
        """Gradients arrive through backward(), +0.0 off each step's rows (row
        4 is named but its gradient is zero); the resumed optimizer's m and v
        on rows outside the next step's gradient still move as in the
        reference."""
        config = self.config()
        rng = np.random.default_rng(11)
        p = rng.normal(size=(6, 3))
        p[5, 2] = -0.0
        (t,), opt = on_one_buffer(("table", p, True), **config)
        m, v = np.zeros_like(p), np.zeros_like(p)
        schedule = [[0, 2], [2], [1, 2, 4], [0], [3], [3, 0], [4]]
        for step, rows in enumerate(schedule, start=1):
            if step == 4:
                (t,), opt = on_one_buffer(("table", t.data.copy(), True), **config,
                                          t=opt.t, m=opt.m.copy(), v=opt.v.copy())
            g = np.zeros_like(p)
            g[rows] = rng.normal(size=(len(rows), 3))
            g[4] = 0.0
            node(np.float64(0.0), (t,), lambda _: (g,)).backward()
            opt.step()
            t.grad = None
            p, m, v = reference_step(p, g, m, v, step, config, True)
            assert t.data.tobytes() == p.tobytes(), step
            assert opt.m.tobytes() == m.tobytes(), step
            assert opt.v.tobytes() == v.tobytes(), step
        assert np.signbit(t.data[5, 2])

    def test_rows_without_a_gradient_keep_their_bits(self):
        """Without decay, rows 0 and 2 never get a gradient over ten dense
        steps: their parameters keep every bit, -0.0 included, and their
        moments stay +0.0."""
        before = np.array([[-0.0, 1.5], [2.0, 3.0], [0.25, -0.0]])
        (t,), opt = on_one_buffer(("w", before, True), lr=0.1, weight_decay=0.0, warmup_steps=3)
        rng = np.random.default_rng(2)
        for _ in range(10):
            t.grad = np.zeros((3, 2))
            t.grad[1] = rng.normal(size=2)
            opt.step()
        assert t.data[[0, 2]].tobytes() == before[[0, 2]].tobytes()
        assert (t.data[1] != before[1]).all()
        for moment in (opt.m.reshape(3, 2), opt.v.reshape(3, 2)):
            assert not moment[[0, 2]].view(np.int64).any()
