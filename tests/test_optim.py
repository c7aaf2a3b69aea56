"""Adam tests against a hand-computed update, plus schedule and state."""

import math

import numpy as np
import pytest

from mrcontrast.autodiff import Tensor, node
from mrcontrast.errors import NonFiniteGradient
from mrcontrast.model import TAU_MAX, TAU_MIN
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
        t = Tensor(p0.copy(), requires_grad=True)
        t.grad = g0.copy()
        opt = Adam([("w", t, True)], **self.config())
        lr_eff = opt.step()

        want, m, v = reference_step(
            p0, g0, np.zeros_like(p0), np.zeros_like(p0), 1, self.config(), True
        )
        assert lr_eff == effective_lr(0.01, 3, 1)
        np.testing.assert_array_equal(t.data, want)
        np.testing.assert_array_equal(opt.m["w"], m)
        np.testing.assert_array_equal(opt.v["w"], v)

    def test_three_steps_match_reference(self):
        rng = np.random.default_rng(1)
        p = rng.normal(size=5)
        t = Tensor(p.copy(), requires_grad=True)
        opt = Adam([("w", t, True)], **self.config())
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
        opt = Adam([("b", no_decay, False)], **self.config())
        opt.step()
        np.testing.assert_array_equal(no_decay.data, p0)

    def test_decay_shrinks_weights_before_moments(self):
        """With zero gradient the update is exactly the decay factor."""
        p0 = np.full(4, 10.0)
        t = Tensor(p0.copy(), requires_grad=True)
        t.grad = np.zeros(4)
        config = self.config()
        opt = Adam([("w", t, True)], **config)
        lr_eff = opt.step()
        np.testing.assert_array_equal(t.data, p0 * (1.0 - lr_eff * 0.2))

    def test_missing_gradient_skips_parameter(self):
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        a.grad = np.full(2, 0.5)
        opt = Adam([("a", a, True), ("b", b, True)], **self.config())
        opt.step()
        assert not np.array_equal(a.data, np.ones(2))
        np.testing.assert_array_equal(b.data, np.ones(2))
        assert opt.t == 1

    def test_non_finite_gradient_raises(self):
        t = Tensor(np.ones(2), requires_grad=True)
        t.grad = np.array([1.0, np.inf])
        opt = Adam([("w", t, True)], **self.config())
        with pytest.raises(NonFiniteGradient):
            opt.step()


class TestState:
    def test_state_round_trip_reproduces_next_step(self):
        rng = np.random.default_rng(2)
        config = dict(lr=0.01, weight_decay=0.2, warmup_steps=5)

        def fresh():
            t = Tensor(np.ones(3), requires_grad=True)
            return t, Adam([("w", t, True)], **config)

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
        opt = Adam([("w", t, True)], lr=1e-4, weight_decay=0.2, warmup_steps=2000)
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


class TestRowRestrictedStep:
    """Adam runs its moment arithmetic only on rows with a nonzero bit in g,
    m or v; every bit must still equal the dense update in reference_step."""

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

    def fresh(self):
        rng = np.random.default_rng(7)
        shapes = {"table": (6, 3), "bias": (4,), "scalar": ()}
        values = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        values["table"][4, 0] = -0.0
        tensors = {name: Tensor(v.copy(), requires_grad=True) for name, v in values.items()}
        params = [("table", tensors["table"], True), ("bias", tensors["bias"], False),
                  ("scalar", tensors["scalar"], False)]
        return tensors, Adam(params, **self.config()), values

    def test_matches_dense_reference_with_resume(self):
        rng = np.random.default_rng(3)
        tensors, opt, p = self.fresh()
        decay = {"table": True, "bias": False, "scalar": False}
        m = {k: np.zeros_like(v) for k, v in p.items()}
        v = {k: np.zeros_like(x) for k, x in p.items()}
        for step in range(1, 9):
            if step == 5:  # resume a fresh optimizer from the saved state
                state = {"t": opt.t, "m": dict(opt.m), "v": dict(opt.v)}
                saved = {k: t.data.copy() for k, t in tensors.items()}
                tensors, opt, _ = self.fresh()
                for k, t in tensors.items():
                    t.data = saved[k]
                opt.load_state_dict(state)
            grads = self.grads(step, rng)
            for k, t in tensors.items():
                t.grad = grads[k].copy()
                p[k], m[k], v[k] = reference_step(p[k], grads[k], m[k], v[k], step,
                                                  self.config(), decay[k])
            opt.step()
            for k, t in tensors.items():
                assert t.data.shape == p[k].shape, (step, k)
                assert np.asarray(t.data).tobytes() == p[k].tobytes(), (step, k)
                assert opt.m[k].tobytes() == m[k].tobytes(), (step, k)
                assert opt.v[k].tobytes() == v[k].tobytes(), (step, k)
        assert m["table"][2].all() and not v["table"][2].any()
        assert not m["table"][4].any() and np.signbit(p["table"][4, 0])

    def test_rows_live_only_through_m_or_v_update_like_the_dense_step(self, monkeypatch):
        """Row 0's -0.0 moment compares equal to zero, but the dense step turns
        it into +0.0; row 1 has m = 0 (an underflowed moment) while v > 0
        still decays. Both rows count as live; row 2 is all +0.0."""
        monkeypatch.setattr(optim, "BETA1", 0.3)
        config = dict(lr=0.1, weight_decay=0.0, warmup_steps=0)
        t = Tensor(np.array([[-0.0, 1.0], [2.0, 3.0], [4.0, -0.0]]), requires_grad=True)
        opt = Adam([("w", t, True)], **config)
        opt.load_state_dict({"t": 4, "m": {"w": np.array([[-0.0, -0.0], [0.0, 0.0], [0.0, 0.0]])},
                             "v": {"w": np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.0]])}})
        t.grad = np.zeros((3, 2))
        want, m, v = reference_step(t.data.copy(), t.grad, opt.m["w"].copy(),
                                    opt.v["w"].copy(), 5, config, True)
        opt.step()
        assert t.data.tobytes() == want.tobytes()
        assert opt.m["w"].tobytes() == m.tobytes()
        assert opt.v["w"].tobytes() == v.tobytes()
        assert not np.signbit(opt.m["w"]).any()

    def test_a_step_writes_into_the_parameters_own_array(self):
        """Decay and update happen in place, also for a 0-d parameter whose
        value was assigned as a numpy scalar (as clamp_log_tau does)."""
        t = Tensor(np.ones((3, 2)), requires_grad=True)
        s = Tensor(1.0, requires_grad=True)
        s.data = np.float64(1.0)
        before = t.data
        want, _, _ = reference_step(before.copy(), 0.5, 0.0, 0.0, 1, self.config(), True)
        t.grad = np.full((3, 2), 0.5)
        s.grad = np.float64(0.5)
        Adam([("w", t, True), ("s", s, False)], **self.config()).step()
        assert t.data is before
        assert before.tobytes() == want.tobytes()
        assert float(s.data) == reference_step(1.0, 0.5, 0.0, 0.0, 1, self.config(), False)[0]

    def backward_rows(self, t, g, rows):
        """Give t the gradient g through backward(), as the compact pair of
        its rows' values and the rows."""
        t.grad = None
        node(np.float64(0.0), (t,), lambda _: ((g[rows], np.array(rows)),)).backward()
        assert t.grad_rows.tolist() == rows

    def test_row_tracked_steps_match_dense_reference_with_resume(self):
        """Gradients arrive with grad_rows (some listing a row whose gradient
        is zero); the resumed optimizer holds m and v on rows outside the next
        step's grad_rows, which must still move as in the dense update."""
        config = self.config()
        rng = np.random.default_rng(11)
        p = rng.normal(size=(6, 3))
        p[5, 2] = -0.0
        t = Tensor(p.copy(), requires_grad=True)
        opt = Adam([("table", t, True)], **config)
        m, v = np.zeros_like(p), np.zeros_like(p)
        schedule = [[0, 2], [2], [1, 2, 4], [0], [3], [3, 0], [4]]
        for step, rows in enumerate(schedule, start=1):
            if step == 4:
                state = {"t": opt.t, "m": dict(opt.m), "v": dict(opt.v)}
                t = Tensor(t.data.copy(), requires_grad=True)
                opt = Adam([("table", t, True)], **config)
                opt.load_state_dict(state)
            g = np.zeros_like(p)
            g[rows] = rng.normal(size=(len(rows), 3))
            g[4] = 0.0  # row 4 is named but has no gradient
            self.backward_rows(t, g, rows)
            opt.step()
            p, m, v = reference_step(p, g, m, v, step, config, True)
            assert t.data.tobytes() == p.tobytes(), step
            assert opt.m["table"].tobytes() == m.tobytes(), step
            assert opt.v["table"].tobytes() == v.tobytes(), step
        assert np.signbit(t.data[5, 2]) and not opt.touched["table"][5]

    def test_assigned_gradient_is_not_limited_to_stale_rows(self):
        """After a backward naming row 1, an assigned gradient on every row
        updates every row."""
        t = Tensor(np.ones((4, 2)), requires_grad=True)
        self.backward_rows(t, np.ones((4, 2)) * [[0.0], [1.0], [0.0], [0.0]], [1])
        t.grad = np.full((4, 2), 0.5)
        assert t.grad_rows is None
        want, _, _ = reference_step(t.data.copy(), t.grad, 0.0, 0.0, 1, self.config(), False)
        Adam([("w", t, False)], **self.config()).step()
        assert t.data.tobytes() == want.tobytes()
        assert (t.data != 1.0).all()
