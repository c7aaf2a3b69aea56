"""Contrastive loss tests against a literal brute-force reference.

The reference below evaluates the defining sums with math.exp and explicit
Python loops: for anchor i with positives P(i) = {p : label_p == label_i}
(own pair included), the per-anchor term is -(1/|P(i)|) * sum over p of
log(exp(s_ip / tau) / sum_a exp(s_ia / tau)), averaged over anchors, and the
two directions are averaged with weight 1/2. InfoNCE restricts P(i) to {i}.
"""

import math
import tracemalloc

import numpy as np
import pytest

from mrcontrast.autodiff import Tensor
from mrcontrast.errors import (
    EmptyBatch,
    InvalidPlan,
    NonPositiveTemperature,
    NonUnitEmbedding,
    ShapeMismatch,
)
from mrcontrast.loss import (
    LOSS_KINDS,
    ContrastiveBatch,
    ShardPlan,
    contrastive_loss,
    infonce_bidirectional,
    loss_graph,
    loss_workspace,
    sharded_loss,
    supcon_bidirectional,
)


def reference_directional(anchors, candidates, labels, tau, infonce=False):
    n = anchors.shape[0]
    total = 0.0
    for i in range(n):
        if infonce:
            positives = [i]
        else:
            positives = [p for p in range(n) if labels[p] == labels[i]]
        denom = sum(
            math.exp(float(anchors[i] @ candidates[a]) / tau) for a in range(n)
        )
        inner = 0.0
        for p in positives:
            num = math.exp(float(anchors[i] @ candidates[p]) / tau)
            inner += math.log(num / denom)
        total += -inner / len(positives)
    return total / n


def reference_bidirectional(img, txt, labels, tau, infonce=False):
    return 0.5 * (
        reference_directional(img, txt, labels, tau, infonce)
        + reference_directional(txt, img, labels, tau, infonce)
    )


def unit(rows):
    rows = np.asarray(rows, dtype=np.float64)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def random_batch(rng, n=None, d=8, tau=None, distinct=False):
    n = n or int(rng.integers(2, 33))
    img = unit(rng.normal(size=(n, d)))
    txt = unit(rng.normal(size=(n, d)))
    if distinct:
        labels = rng.permutation(n).astype(np.int64)
    else:
        labels = rng.integers(0, max(2, n // 2), size=n).astype(np.int64)
    tau = tau if tau is not None else float(rng.choice([0.05, 0.5, 1.0]))
    return ContrastiveBatch(img, txt, labels, tau)


class TestSupConOracle:
    def test_matches_brute_force_on_random_batches(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            batch = random_batch(rng)
            got = supcon_bidirectional(batch)
            want = reference_bidirectional(
                batch.image_embeddings, batch.text_embeddings,
                batch.labels, batch.temperature,
            )
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_two_pair_case_by_hand(self):
        img = unit([[1.0, 0.0], [0.0, 1.0]])
        txt = unit([[1.0, 1.0], [1.0, -1.0]])
        labels = np.array([0, 1])
        tau = 0.5
        got = supcon_bidirectional(ContrastiveBatch(img, txt, labels, tau))
        s = 1.0 / math.sqrt(2.0)
        sims_i2t = [[s, s], [s, -s]]
        term = 0.0
        for row, p in ((0, 0), (1, 1)):
            denom = sum(math.exp(v / tau) for v in sims_i2t[row])
            term += -math.log(math.exp(sims_i2t[row][p] / tau) / denom)
        sims_t2i = [[s, s], [s, -s]]
        for row, p in ((0, 0), (1, 1)):
            denom = sum(math.exp(v / tau) for v in sims_t2i[row])
            term += -math.log(math.exp(sims_t2i[row][p] / tau) / denom)
        np.testing.assert_allclose(got, term / 4.0, rtol=1e-12)

    def test_all_same_label_is_uniform_weighting(self):
        rng = np.random.default_rng(2)
        n = 6
        img = unit(rng.normal(size=(n, 4)))
        txt = unit(rng.normal(size=(n, 4)))
        labels = np.zeros(n, dtype=np.int64)
        got = supcon_bidirectional(ContrastiveBatch(img, txt, labels, 0.5))
        want = reference_bidirectional(img, txt, labels, 0.5)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_extreme_temperatures_stay_finite(self):
        rng = np.random.default_rng(3)
        batch = random_batch(rng, n=16, tau=0.01)
        assert math.isfinite(supcon_bidirectional(batch))
        batch = random_batch(rng, n=16, tau=1.0)
        assert math.isfinite(supcon_bidirectional(batch))


class TestInfoNCEReduction:
    def test_equal_when_labels_pairwise_distinct(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            batch = random_batch(rng, distinct=True)
            supcon = supcon_bidirectional(batch)
            infonce = infonce_bidirectional(batch)
            assert abs(supcon - infonce) <= 1e-12

    def test_differ_when_labels_repeat(self):
        rng = np.random.default_rng(5)
        img = unit(rng.normal(size=(8, 4)))
        txt = unit(rng.normal(size=(8, 4)))
        labels = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        batch = ContrastiveBatch(img, txt, labels, 0.5)
        assert abs(
            supcon_bidirectional(batch) - infonce_bidirectional(batch)
        ) > 1e-6

    def test_infonce_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            batch = random_batch(rng)
            got = infonce_bidirectional(batch)
            want = reference_bidirectional(
                batch.image_embeddings, batch.text_embeddings,
                batch.labels, batch.temperature, infonce=True,
            )
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


class TestShardEquivalence:
    def test_loss_and_gradients_match_unsharded(self):
        rng = np.random.default_rng(7)
        batch = random_batch(rng, n=64)
        base = sharded_loss(batch, ShardPlan.even(64, 1))
        for shards in (2, 3, 4, 8, 13):
            part = sharded_loss(batch, ShardPlan.even(64, shards))
            np.testing.assert_allclose(part.loss, base.loss, rtol=1e-9)
            np.testing.assert_allclose(part.d_images, base.d_images, rtol=0,
                                       atol=1e-8 * np.abs(base.d_images).max())
            np.testing.assert_allclose(part.d_texts, base.d_texts, rtol=0,
                                       atol=1e-8 * np.abs(base.d_texts).max())
            np.testing.assert_allclose(part.d_temperature, base.d_temperature,
                                       rtol=1e-8)

    def test_more_shards_than_anchors(self):
        rng = np.random.default_rng(8)
        batch = random_batch(rng, n=3)
        base = sharded_loss(batch)
        for k in (7, 10**30):  # at most n ranges are built, so 10**30 does not loop
            plan = ShardPlan.even(3, k)
            assert plan.ranges == ((0, 1), (1, 2), (2, 3))
            part = sharded_loss(batch, plan)
            np.testing.assert_allclose(part.loss, base.loss, rtol=1e-12)

    def test_shards_bound_peak_memory(self):
        rng = np.random.default_rng(13)
        batch = random_batch(rng, n=1024, d=32, tau=0.07)

        def peak(shards):
            tracemalloc.start()
            try:
                sharded_loss(batch, ShardPlan.even(1024, shards))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8) <= peak(1) / 4

    def test_default_plan_is_single_shard(self):
        rng = np.random.default_rng(9)
        batch = random_batch(rng, n=10)
        np.testing.assert_allclose(
            sharded_loss(batch).loss,
            sharded_loss(batch, ShardPlan.even(10, 1)).loss,
            rtol=0, atol=0,
        )


class TestWorkspace:
    """A workspace reused across calls changes no bit of the loss or its
    gradients, whatever it held before, also when a smaller last batch
    uses a prefix of it."""

    @staticmethod
    def result_bytes(result):
        return (np.float64(result.loss).tobytes(), result.d_images.tobytes(),
                result.d_texts.tobytes(), np.float64(result.d_temperature).tobytes())

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    @pytest.mark.parametrize("shards", [1, 3, 8])
    def test_reused_workspace_matches_a_call_without_one(self, kind, shards):
        rng = np.random.default_rng(shards)
        batch = random_batch(rng, n=96, d=16, tau=0.07)
        workspace = loss_workspace(96, ShardPlan.even(96, shards))
        for n in (96, 41, 96):  # a full batch, a partial last one, a full one again
            args = (batch.image_embeddings[:n], batch.text_embeddings[:n],
                    batch.labels[:n], batch.temperature, kind, ShardPlan.even(n, shards))
            workspace.fill(np.nan)
            got = contrastive_loss(*args, workspace=workspace)
            assert self.result_bytes(got) == self.result_bytes(contrastive_loss(*args)), n

    def test_workspace_holds_four_widest_shard_blocks(self):
        assert loss_workspace(10, ShardPlan.even(10, 3)).shape == (4, 4 * 10)
        assert loss_workspace(256, ShardPlan.even(256, 1)).shape == (4, 256 * 256)


class TestShardPlan:
    def test_even_covers_range(self):
        assert ShardPlan.even(10, 3).ranges == ((0, 4), (4, 7), (7, 10))

    def test_even_with_exact_division(self):
        assert ShardPlan.even(8, 4).ranges == ((0, 2), (2, 4), (4, 6), (6, 8))

    def test_ranges_tile_in_order_with_the_longer_ones_first(self):
        for n in range(30):
            for shards in range(1, 35):
                ranges = ShardPlan.even(n, shards).ranges
                sizes = [end - start for start, end in ranges]
                want = [n // shards + (i < n % shards) for i in range(min(n, shards))]
                assert sizes == want, (n, shards)
                assert [start for start, _ in ranges] == [sum(sizes[:i]) for i in range(len(sizes))]

    def test_zero_shards_rejected(self):
        with pytest.raises(InvalidPlan):
            ShardPlan.even(10, 0)

    @pytest.mark.parametrize("plan_n", [9, 11])
    def test_plan_for_another_batch_size_rejected(self, plan_n):
        batch = random_batch(np.random.default_rng(10), n=10)
        args = (batch.image_embeddings, batch.text_embeddings, batch.labels)
        with pytest.raises(InvalidPlan):
            contrastive_loss(*args, batch.temperature, plan=ShardPlan.even(plan_n, 2))
        with pytest.raises(InvalidPlan):
            loss_graph(*(Tensor(a) for a in args[:2]), batch.labels, Tensor(batch.temperature),
                       plan=ShardPlan.even(plan_n, 2))


class TestGradients:
    def test_finite_differences_including_temperature(self):
        rng = np.random.default_rng(10)
        step = 1e-5
        for kind in ("supcon", "infonce"):
            for _ in range(6):
                n = int(rng.integers(3, 10))
                img = unit(rng.normal(size=(n, 5)))
                txt = unit(rng.normal(size=(n, 5)))
                labels = rng.integers(0, 3, size=n).astype(np.int64)
                tau = float(rng.uniform(0.2, 0.9))

                t_img = Tensor(img.copy(), requires_grad=True)
                t_txt = Tensor(txt.copy(), requires_grad=True)
                t_tau = Tensor(tau, requires_grad=True)
                loss_graph(t_img, t_txt, labels, t_tau, kind).backward()

                def scalar(a, b, tv):
                    out = loss_graph(Tensor(a), Tensor(b), labels, Tensor(tv), kind)
                    return float(out.data)

                for arr, grad in ((img, t_img.grad), (txt, t_txt.grad)):
                    flat = arr.reshape(-1)
                    num = np.zeros_like(flat)
                    for j in range(flat.size):
                        orig = flat[j]
                        flat[j] = orig + step
                        hi = scalar(img, txt, tau)
                        flat[j] = orig - step
                        lo = scalar(img, txt, tau)
                        flat[j] = orig
                        num[j] = (hi - lo) / (2 * step)
                    scale = max(np.abs(grad).max(), 1e-12)
                    np.testing.assert_allclose(
                        grad.reshape(-1), num, rtol=0, atol=1e-4 * scale
                    )
                num_tau = (
                    scalar(img, txt, tau + step) - scalar(img, txt, tau - step)
                ) / (2 * step)
                np.testing.assert_allclose(
                    float(t_tau.grad), num_tau, rtol=1e-4, atol=1e-10
                )

    def test_gradient_descent_direction_reduces_loss(self):
        rng = np.random.default_rng(11)
        batch = random_batch(rng, n=12, tau=0.5)
        result = sharded_loss(batch)
        stepped = ContrastiveBatch(
            unit(batch.image_embeddings - 0.01 * result.d_images),
            unit(batch.text_embeddings - 0.01 * result.d_texts),
            batch.labels,
            batch.temperature,
        )
        assert supcon_bidirectional(stepped) < result.loss


class TestValidation:
    def good(self):
        rng = np.random.default_rng(12)
        return random_batch(rng, n=4)

    def test_shape_mismatch(self):
        g = self.good()
        with pytest.raises(ShapeMismatch):
            validate = ContrastiveBatch(
                g.image_embeddings[:, :4], g.text_embeddings, g.labels,
                g.temperature,
            )
            supcon_bidirectional(validate)

    def test_label_length_mismatch(self):
        g = self.good()
        with pytest.raises(ShapeMismatch):
            supcon_bidirectional(ContrastiveBatch(
                g.image_embeddings, g.text_embeddings, g.labels[:2],
                g.temperature,
            ))

    def test_empty_batch(self):
        with pytest.raises(EmptyBatch):
            supcon_bidirectional(ContrastiveBatch(
                np.zeros((0, 4)), np.zeros((0, 4)),
                np.zeros(0, dtype=np.int64), 0.5,
            ))

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_temperature(self, tau):
        g = self.good()
        with pytest.raises(NonPositiveTemperature):
            supcon_bidirectional(ContrastiveBatch(
                g.image_embeddings, g.text_embeddings, g.labels, tau,
            ))

    def test_non_unit_rows_rejected(self):
        g = self.good()
        with pytest.raises(NonUnitEmbedding):
            supcon_bidirectional(ContrastiveBatch(
                g.image_embeddings * 1.001, g.text_embeddings, g.labels,
                g.temperature,
            ))

    def test_tolerated_norm_jitter_passes(self):
        g = self.good()
        loss = supcon_bidirectional(ContrastiveBatch(
            g.image_embeddings * (1.0 + 5e-7), g.text_embeddings, g.labels,
            g.temperature,
        ))
        assert math.isfinite(loss)
