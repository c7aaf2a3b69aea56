"""Retrieval metric tests against plain-Python sorting oracles."""

import functools
import json
import math
import operator
import tracemalloc
from collections import Counter, deque

import numpy as np
import pytest

from mrcontrast import evaluate
from mrcontrast.errors import (
    EmptyGallery,
    EmptyImageSet,
    LabelDecodeFailure,
    NonFiniteInput,
    SingleClassTrainingSet,
)
from mrcontrast.evaluate import (
    DEFAULT_KS,
    Gallery,
    build_gallery,
    encode_features,
    linear_probe,
    per_tag_error,
    rank_gallery,
    recall_at_k,
    render_table,
    run_evaluation,
    scan_to_text_recall,
    text_to_image_recall,
)
from mrcontrast.labels import (
    CATEGORICAL_FIELDS, GridSpec, KMeansLabelConfig, LabelConfig, build_label_space,
)
from mrcontrast.records import MetadataRecord
from mrcontrast.synth import SynthConfig, default_protocols, generate_dataset
from mrcontrast.train import dataset_arrays


def unit(rows):
    arr = np.asarray(rows, dtype=np.float64)
    return arr / np.linalg.norm(arr, axis=1, keepdims=True)


def mk_gallery(ids, embeddings):
    return Gallery(
        label_ids=np.asarray(ids, dtype=np.int64),
        embeddings=unit(embeddings),
    )


def random_gallery(rng, n_labels, dim):
    ids = np.sort(rng.choice(50, size=n_labels, replace=False)).astype(np.int64)
    return Gallery(label_ids=ids, embeddings=unit(rng.normal(size=(n_labels, dim))))


def reference_rank(queries, gallery):
    """Sort by similarity descending, then ascending label id."""
    sims = queries @ gallery.embeddings.T
    out = []
    for i in range(queries.shape[0]):
        order = sorted(
            range(gallery.label_ids.size),
            key=lambda j: (-sims[i, j], gallery.label_ids[j]),
        )
        out.append([int(gallery.label_ids[j]) for j in order])
    return np.asarray(out, dtype=np.int64)


class TestRankGallery:
    def test_hand_case(self):
        gallery = mk_gallery([0, 1, 2], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        ranked = rank_gallery(unit([[1.0, 0.0]]), gallery)
        np.testing.assert_array_equal(ranked, [[0, 2, 1]])

    def test_tie_breaks_by_ascending_label_id(self):
        gallery = mk_gallery([7, 3, 5], [[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        ranked = rank_gallery(unit([[1.0, 0.0]]), gallery)
        np.testing.assert_array_equal(ranked, [[3, 5, 7]])

    def test_matches_sorting_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            gallery = random_gallery(rng, int(rng.integers(2, 9)), 4)
            queries = unit(rng.normal(size=(int(rng.integers(1, 7)), 4)))
            np.testing.assert_array_equal(
                rank_gallery(queries, gallery), reference_rank(queries, gallery)
            )

    def test_empty_queries_raise(self):
        gallery = mk_gallery([0], [[1.0, 0.0]])
        with pytest.raises(EmptyImageSet):
            rank_gallery(np.empty((0, 2)), gallery)


class TestRecallAtK:
    def gallery(self):
        return mk_gallery([0, 1, 2], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])

    def test_hand_case(self):
        queries = unit([[1.0, 0.0], [0.0, 1.0]])
        out = recall_at_k(queries, self.gallery(), np.array([0, 0]), ks=(1, 2, 3))
        assert out == {1: 0.5, 2: 0.5, 3: 1.0}

    def test_k_larger_than_gallery_saturates(self):
        queries = unit([[0.0, 1.0]])
        out = recall_at_k(queries, self.gallery(), np.array([0]), ks=(10,))
        assert out == {10: 1.0}

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            recall_at_k(unit([[1.0, 0.0]]), self.gallery(), np.array([0]), ks=(0,))


def reference_text_to_image(gallery, image_embeddings, image_label_ids, ks):
    sims = gallery.embeddings @ image_embeddings.T
    n = image_embeddings.shape[0]
    hits = {k: 0 for k in ks}
    for q in range(gallery.label_ids.size):
        order = sorted(
            range(n), key=lambda i: (-sims[q, i], image_label_ids[i], i)
        )
        labels = [int(image_label_ids[i]) for i in order]
        for k in ks:
            if int(gallery.label_ids[q]) in labels[:k]:
                hits[k] += 1
    return {k: hits[k] / gallery.label_ids.size for k in ks}


class TestTextToImageRecall:
    def test_hand_case_perfect(self):
        gallery = mk_gallery([0, 1], [[1.0, 0.0], [0.0, 1.0]])
        images = unit([[1.0, 0.1], [0.1, 1.0]])
        out = text_to_image_recall(gallery, images, np.array([0, 1]), ks=(1,))
        assert out == {1: 1.0}

    def test_hand_case_swapped_labels(self):
        gallery = mk_gallery([0, 1], [[1.0, 0.0], [0.0, 1.0]])
        images = unit([[1.0, 0.1], [0.1, 1.0]])
        out = text_to_image_recall(gallery, images, np.array([1, 0]), ks=(1, 2))
        assert out == {1: 0.0, 2: 1.0}

    def test_matches_sorting_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            gallery = random_gallery(rng, int(rng.integers(2, 6)), 4)
            n = int(rng.integers(2, 9))
            images = unit(rng.normal(size=(n, 4)))
            labels = rng.choice(gallery.label_ids, size=n)
            got = text_to_image_recall(gallery, images, labels, ks=(1, 2, 3))
            want = reference_text_to_image(gallery, images, labels, ks=(1, 2, 3))
            assert got == want

    def test_empty_images_raise(self):
        gallery = mk_gallery([0], [[1.0, 0.0]])
        with pytest.raises(EmptyImageSet):
            text_to_image_recall(gallery, np.empty((0, 2)), np.array([]))


def reference_scan_to_text(image_embeddings, image_label_ids, scan_ids, gallery, ks):
    sims = image_embeddings @ gallery.embeddings.T
    top1_label = []
    top1_score = []
    for i in range(image_embeddings.shape[0]):
        order = sorted(
            range(gallery.label_ids.size),
            key=lambda j: (-sims[i, j], gallery.label_ids[j]),
        )
        top1_label.append(int(gallery.label_ids[order[0]]))
        top1_score.append(float(sims[i, order[0]]))

    def vote(preds, scores):
        votes = Counter(preds)
        top = max(votes.values())
        tied = [lab for lab, v in votes.items() if v == top]
        if len(tied) == 1:
            return tied[0]
        means = {}
        for lab in tied:
            # a row-order sum, as the documented voter mean
            total = 0.0
            for p, s in zip(preds, scores):
                if p == lab:
                    total += s
            means[lab] = total / votes[lab]
        best = max(means.values())
        return min(lab for lab in tied if means[lab] == best)

    hits = {k: 0 for k in ks}
    scans = sorted(set(int(s) for s in scan_ids))
    for scan in scans:
        rows = [i for i, s in enumerate(scan_ids) if int(s) == scan]
        truth = int(image_label_ids[rows[0]])
        preds = [top1_label[i] for i in rows]
        scores = [top1_score[i] for i in rows]
        winner = vote(preds, scores)
        counts = Counter(preds)
        mean_sims = sims[rows].mean(axis=0)
        rest = sorted(
            range(gallery.label_ids.size),
            key=lambda j: (
                -counts.get(int(gallery.label_ids[j]), 0),
                -mean_sims[j],
                gallery.label_ids[j],
            ),
        )
        ranked = [winner] + [
            int(gallery.label_ids[j])
            for j in rest
            if int(gallery.label_ids[j]) != winner
        ]
        for k in ks:
            if truth in ranked[:k]:
                hits[k] += 1
    return {k: hits[k] / len(scans) for k in ks}


def at(*degrees):
    """Unit rows in the plane at these angles."""
    rad = np.radians(degrees)
    return np.stack([np.cos(rad), np.sin(rad)], axis=1)


def scan_order(images, gallery):
    """Gallery ids in the order scan_to_text_recall ranks them for one scan
    made of these slices: a label's rank is the smallest k whose R@k is 1
    when it is the scan's true label."""
    n, ids = images.shape[0], gallery.label_ids
    ks = range(1, ids.size + 1)
    rank = {}
    for lab in ids:
        hits = scan_to_text_recall(
            images, np.full(n, lab), np.zeros(n, dtype=np.int64), gallery, ks
        )
        rank[int(lab)] = min(k for k in ks if hits[k] == 1.0)
    assert sorted(rank.values()) == list(ks)
    return sorted(rank, key=rank.get)


class TestScanToTextRecall:
    def test_majority_vote_rescues_outvoted_slice(self):
        gallery = mk_gallery([0, 1], [[1.0, 0.0], [0.0, 1.0]])
        images = unit([[1.0, 0.0], [2.0, 1.0], [1.0, 2.0]])
        labels = np.array([0, 0, 0])
        scans = np.array([9, 9, 9])
        s2t = scan_to_text_recall(images, labels, scans, gallery, ks=(1,))
        assert s2t == {1: 1.0}
        i2t = recall_at_k(images, gallery, labels, ks=(1,))
        assert i2t[1] == pytest.approx(2.0 / 3.0)

    def test_clear_mode_wins(self):
        # two votes for 3 at score cos 40; one for 5 at score 1, and 5 has
        # the higher scan mean
        gallery = mk_gallery([3, 5], at(0, 90))
        assert scan_order(at(40, 40, 90), gallery) == [3, 5]

    def test_count_tie_resolved_by_mean_score(self):
        gallery = mk_gallery([1, 2], at(0, 90))
        assert scan_order(at(10, 60), gallery) == [1, 2]  # cos 10 > cos 30
        assert scan_order(at(30, 80), gallery) == [2, 1]

    def test_full_tie_resolved_by_lowest_id(self):
        gallery = mk_gallery([2, 1], at(90, 0))
        assert scan_order(at(90, 0), gallery) == [1, 2]

    def test_mean_uses_only_voting_slices(self):
        # label 4 votes 0.9 and 0.1 (mean 0.5, max 0.9); label 6 votes 0.6
        # twice (mean 0.6)
        a, b, c = np.degrees(np.arccos([0.9, 0.1, 0.6]))
        gallery = mk_gallery([4, 6], at(0, 90))
        assert scan_order(at(a, -b, 90 + c, 90 + c), gallery) == [6, 4]

    def test_vote_counts_order_the_tail(self):
        # votes: 0 twice, 1 once. Label 9 has a higher scan mean than 1 but
        # no vote; 4 and 7 share a direction, so only their ids order them.
        gallery = mk_gallery([0, 1, 9, 2, 7, 4], at(0, 90, 45, 180, 270, 270))
        assert scan_order(at(10, -10, 80), gallery) == [0, 1, 9, 4, 7, 2]

    def test_vote_winner_promoted_over_higher_mean(self):
        # votes tie 1-1; label 1's voter scores higher (cos 5 > cos 60), but
        # label 2 has the higher scan mean
        gallery = mk_gallery([0, 1, 2], at(270, 0, 90))
        assert scan_order(at(5, 150), gallery) == [1, 2, 0]

    def test_result_is_permutation_of_gallery(self):
        gallery = mk_gallery([0, 1, 2, 3], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
        order = scan_order(unit([[1.0, -0.9]]), gallery)
        assert sorted(order) == [0, 1, 2, 3]
        assert order[0] == 3

    def test_matches_reference_implementation(self):
        # long scans, shuffled non-contiguous scan ids, unsorted gallery
        # ids, and quantized embeddings whose vote counts and similarities
        # tie exactly
        rng = np.random.default_rng(2)
        for case in range(60):
            n_labels = int(rng.integers(1, 8))
            ids = rng.choice(50, size=n_labels, replace=False).astype(np.int64)
            quantize = (None, np.round, np.sign)[case % 3]

            def draw(n):
                x = rng.normal(size=(n, 3))
                if quantize is not None:
                    x = quantize(x)
                    x[~x.any(axis=1), 0] = 1.0
                return unit(x)

            gallery = Gallery(label_ids=ids, embeddings=draw(n_labels))
            scan_ids = []
            labels = []
            for scan in rng.choice(1000, size=int(rng.integers(2, 7)), replace=False):
                n_slices = int(rng.integers(8, 21))
                scan_ids.extend([int(scan)] * n_slices)
                labels.extend([int(rng.choice(ids))] * n_slices)
            order = rng.permutation(len(labels))
            labels = np.asarray(labels, dtype=np.int64)[order]
            scan_ids = np.asarray(scan_ids, dtype=np.int64)[order]
            images = draw(len(labels))
            ks = (1, 2, 3, 8)
            got = scan_to_text_recall(images, labels, scan_ids, gallery, ks)
            want = reference_scan_to_text(images, labels, scan_ids, gallery, ks)
            assert got == want


def full_array_probe(train_x, train_y, eval_x, eval_y, l2=1e-5, max_iter=500, grad_tol=1e-6):
    """The L-BFGS probe with a fresh (C, n) array for every intermediate: the
    logits w_t @ xa.T at every trial and the softmax over axis 0; the gradient
    sums residual @ xa over blocks of PROBE_BLOCK training rows, in order.
    Also counts rejected trial steps."""
    classes = np.unique(train_y)
    y = np.array([{int(c): i for i, c in enumerate(classes)}[int(v)] for v in train_y])
    xa = np.concatenate([train_x, np.ones((len(train_x), 1))], axis=1)
    n, d = xa.shape
    cols = np.arange(n)
    block = evaluate.PROBE_BLOCK
    blocks = [slice(start, start + block) for start in range(0, n, block)]

    def gradient(residual, w_t):
        parts = [residual[:, rows] @ xa[rows] for rows in blocks]
        return functools.reduce(operator.add, parts) / n + l2 * w_t

    def objective(w_t):
        z = w_t @ xa.T
        z = z - z.max(axis=0)
        picked = z[y, cols]
        p = np.exp(z)
        norm = p.sum(axis=0)
        nll = float((np.log(norm) - picked).mean())
        residual = p / norm
        residual[y, cols] -= 1.0
        return nll + 0.5 * l2 * float((w_t * w_t).sum()), residual

    w = np.zeros((classes.size, d))
    loss, residual = objective(w)
    grad = gradient(residual, w)
    losses, rejected = [loss], 0
    pairs = deque(maxlen=evaluate.LBFGS_MEMORY)
    grad_norm = float(np.sqrt((grad * grad).sum()))
    while grad_norm >= grad_tol and len(losses) < max_iter:
        dw = evaluate._lbfgs_direction(grad, pairs)
        slope = float((grad * dw).sum())
        if not (np.isfinite(slope) and slope < 0.0):
            dw = -grad
            slope = -grad_norm * grad_norm
        t = 1.0
        while t > 1e-18:
            w_t = w + t * dw
            loss_t, residual = objective(w_t)
            if loss_t <= loss + 1e-4 * t * slope:
                break
            t *= 0.5
            rejected += 1
        else:
            break
        grad_t = gradient(residual, w_t)
        s, yk = w_t - w, grad_t - grad
        sy = float((s * yk).sum())
        if sy > 0.0:
            pairs.append((s, yk, 1.0 / sy))
        w, loss, grad = w_t, loss_t, grad_t
        losses.append(loss)
        grad_norm = float(np.sqrt((grad * grad).sum()))
    eval_x = np.concatenate([eval_x, np.ones((len(eval_x), 1))], axis=1)
    pred = classes[np.argmax(w @ eval_x.T, axis=0)]
    return losses, pred, grad_norm, rejected


class TestLinearProbe:
    def clusters(self, rng, n_per, centers, labels):
        xs, ys = [], []
        for center, label in zip(centers, labels):
            xs.append(rng.normal(scale=0.1, size=(n_per, 2)) + center)
            ys.extend([label] * n_per)
        return np.concatenate(xs), np.asarray(ys, dtype=np.int64)

    def test_separable_clusters_reach_full_accuracy(self):
        rng = np.random.default_rng(3)
        train_x, train_y = self.clusters(rng, 30, [(0, 0), (5, 5)], [5, 9])
        eval_x, eval_y = self.clusters(rng, 20, [(0, 0), (5, 5)], [5, 9])
        result = linear_probe(train_x, train_y, eval_x, eval_y)
        assert result.accuracy == 1.0
        assert set(result.predicted_ids.tolist()) <= {5, 9}

    def test_first_loss_is_log_class_count(self):
        rng = np.random.default_rng(4)
        train_x, train_y = self.clusters(
            rng, 10, [(0, 0), (4, 0), (0, 4)], [0, 1, 2]
        )
        result = linear_probe(train_x, train_y, train_x, train_y, max_iter=5)
        assert result.losses[0] == pytest.approx(math.log(3), rel=1e-12)

    def test_losses_never_increase(self):
        rng = np.random.default_rng(5)
        train_x, train_y = self.clusters(rng, 25, [(0, 0), (2, 1)], [0, 1])
        result = linear_probe(train_x, train_y, train_x, train_y)
        for before, after in zip(result.losses, result.losses[1:]):
            assert after <= before

    def test_iteration_budget_respected(self):
        rng = np.random.default_rng(6)
        train_x, train_y = self.clusters(rng, 10, [(0, 0), (3, 3)], [0, 1])
        result = linear_probe(train_x, train_y, train_x, train_y, max_iter=3)
        assert result.n_iterations <= 3

    def test_loose_gradient_tolerance_stops_immediately(self):
        rng = np.random.default_rng(7)
        train_x, train_y = self.clusters(rng, 10, [(0, 0), (3, 3)], [0, 1])
        result = linear_probe(train_x, train_y, train_x, train_y, grad_tol=1e9)
        assert result.n_iterations == 1

    def test_probe_stopped_at_zero_weights_predicts_lowest_class_id(self):
        # every eval logit is 0, so every row is a C-way tie
        rng = np.random.default_rng(10)
        train_x, train_y = self.clusters(rng, 10, [(0, 0), (3, 3), (0, 3)], [8, 2, 5])
        eval_x = rng.normal(scale=4.0, size=(30, 2))
        result = linear_probe(train_x, train_y, eval_x, np.full(30, 8), grad_tol=1e9)
        assert result.n_iterations == 1
        assert result.predicted_ids.tolist() == [2] * 30
        assert result.accuracy == 0.0

    def test_single_class_rejected(self):
        x = np.zeros((4, 2))
        y = np.array([7, 7, 7, 7])
        with pytest.raises(SingleClassTrainingSet):
            linear_probe(x, y, x, y)

    def test_ill_conditioned_problem_converges(self):
        # feature scales 1 and 100: the Hessian's condition number is ~1e4
        rng = np.random.default_rng(8)
        xs, ys = [], []
        for label, center in enumerate([(0.0, 0.0), (1.0, -1.0), (2.0, 1.0)]):
            xs.append((rng.normal(size=(40, 2)) + center) * np.array([1.0, 100.0]))
            ys.extend([label] * 40)
        x, y = np.concatenate(xs), np.asarray(ys, dtype=np.int64)
        result = linear_probe(x, y, x, y, max_iter=500, grad_tol=1e-6)
        assert result.converged
        assert result.grad_norm < 1e-6
        assert result.n_iterations < 500

    def test_converged_loss_matches_gradient_descent_minimum(self):
        rng = np.random.default_rng(9)
        x, y = self.clusters(rng, 20, [(0, 0), (1, 0), (0, 1)], [0, 1, 2])
        x = x * 6.0  # noise scale 0.6: overlapping clusters, a finite minimum
        l2 = 1e-2
        result = linear_probe(x, y, x, y, l2=l2)
        assert result.converged

        # fixed-step gradient descent at 1/L on the same objective
        xa = np.concatenate([x, np.ones((len(x), 1))], axis=1)
        n = len(x)
        onehot = np.eye(3)[y]
        step = 1.0 / (0.5 * np.linalg.eigvalsh(xa.T @ xa / n).max() + l2)
        w = np.zeros((3, 3))
        for _ in range(5000):
            z = xa @ w.T
            p = np.exp(z - z.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            w -= step * ((p - onehot).T @ xa / n + l2 * w)
        z = xa @ w.T
        log_z = np.log(np.exp(z).sum(axis=1))
        reference = float((log_z - z[np.arange(n), y]).mean() + 0.5 * l2 * (w * w).sum())
        assert result.losses[-1] == pytest.approx(reference, rel=1e-8)

    def test_iteration_cap_reports_not_converged(self):
        rng = np.random.default_rng(6)
        train_x, train_y = self.clusters(rng, 10, [(0, 0), (3, 3)], [0, 1])
        result = linear_probe(train_x, train_y, train_x, train_y, max_iter=3)
        assert result.n_iterations == 3
        assert not result.converged
        assert result.grad_norm >= 1e-6

    @pytest.mark.parametrize(
        "n, n_classes, scales, max_iter, min_rejected",
        [
            (100, 2, (1.0, 1.0, 1.0), 500, 0),
            (256, 2, (1.0, 1.0, 1.0), 500, 0),
            (257, 7, (1.0, 1.0, 1.0), 500, 0),
            (1000, 40, (1.0, 1.0, 1.0), 500, 0),
            (300, 5, (1.0, 100.0, 0.01), 500, 1),  # ill-conditioned: rejected trials
            (600, 9, (1.0, 10.0, 1.0), 6, 0),  # stopped by max_iter
            (1025, 6, (1.0, 1.0, 1.0), 500, 0),  # a one-row second block
            (2055, 11, (1.0, 10.0, 1.0), 500, 0),  # three blocks, the last one partial
        ],
    )
    def test_matches_full_array_probe_bit_for_bit(
        self, n, n_classes, scales, max_iter, min_rejected
    ):
        rng = np.random.default_rng(n + n_classes)
        x = rng.normal(size=(n, 3)) * np.asarray(scales)
        y = 3 * rng.permutation(np.arange(n) % n_classes) + 1
        eval_x = rng.normal(size=(50, 3)) * np.asarray(scales)
        eval_y = 3 * rng.integers(0, n_classes, size=50) + 1
        losses, pred, grad_norm, rejected = full_array_probe(
            x, y, eval_x, eval_y, max_iter=max_iter
        )
        assert rejected >= min_rejected
        result = linear_probe(x, y, eval_x, eval_y, max_iter=max_iter)
        assert np.asarray(result.losses).tobytes() == np.asarray(losses).tobytes()
        assert result.predicted_ids.tobytes() == pred.astype(np.int64).tobytes()
        assert np.float64(result.grad_norm).tobytes() == np.float64(grad_norm).tobytes()
        assert result.n_iterations == len(losses)
        assert max_iter == 500 or result.n_iterations == max_iter

    def test_peak_memory_does_not_grow_with_the_logits(self):
        # the fit and the prediction run through one (C, PROBE_BLOCK) buffer;
        # only (n, d)-sized arrays and vectors grow with n
        n_classes, d = 50, 8
        rng = np.random.default_rng(12)
        x = rng.normal(size=(16_000, d))
        y = rng.permutation(np.arange(16_000) % n_classes)
        linear_probe(x[:10], y[:10], x[:10], y[:10])  # np.unique imports numpy.ma once
        peaks = {}
        for n in (4_000, 16_000):
            tracemalloc.start()
            try:
                linear_probe(x[:n], y[:n], x[:n], y[:n], max_iter=20)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[16_000] - peaks[4_000] < 4_000 * n_classes * 8


class TestPerTagError:
    def space(self):
        def rec(te, tr, manufacturer="SIEMENS", model="AVANTO"):
            return MetadataRecord(
                "r", manufacturer=manufacturer, scanner_model=model,
                sequence_type="SE", sequence_variant="SK",
                field_strength_tesla=1.5, te_ms=te, tr_ms=tr,
                flip_angle_deg=90.0, voxel_spacing_mm=(1.0, 1.0, 5.0),
            )

        records = [
            rec(5.0, 250.0),
            rec(35.0, 1750.0),
            rec(5.0, 250.0, manufacturer="GE", model="SIGNA"),
        ]
        return build_label_space(records, LabelConfig())

    def test_timing_mismatch_rates_and_distances(self):
        space, ids = self.space()
        id_a, id_b, _ = (int(i) for i in ids)
        report = per_tag_error(np.array([id_a]), np.array([id_b]), space)
        assert report["per_tag_error"]["te_bin"] == 1.0
        assert report["per_tag_error"]["tr_bin"] == 1.0
        assert report["per_tag_error"]["manufacturer"] == 0.0
        assert report["te_bin_mae"] == 3.0
        assert report["tr_bin_mae"] == 3.0
        assert report["te_mae_ms"] == 30.0
        assert report["tr_mae_ms"] == 1500.0

    def test_categorical_mismatch_leaves_timings_clean(self):
        space, ids = self.space()
        id_a, _, id_c = (int(i) for i in ids)
        report = per_tag_error(np.array([id_c]), np.array([id_a]), space)
        assert report["per_tag_error"]["manufacturer"] == 1.0
        assert report["per_tag_error"]["scanner_model"] == 1.0
        assert report["per_tag_error"]["te_bin"] == 0.0
        assert report["te_mae_ms"] == 0.0

    def test_millisecond_error_is_exactly_bins_times_width(self):
        space, ids = self.space()
        id_a, id_b, id_c = (int(i) for i in ids)
        pred = np.array([id_a, id_c, id_b])
        true = np.array([id_b, id_a, id_b])
        report = per_tag_error(pred, true, space)
        grid = space.config.grid
        assert report["te_mae_ms"] == report["te_bin_mae"] * grid.te_width
        assert report["tr_mae_ms"] == report["tr_bin_mae"] * grid.tr_width
        assert report["te_bin_mae"] == pytest.approx(1.0)
        assert report["per_tag_error"]["manufacturer"] == pytest.approx(1.0 / 3.0)

    def test_perfect_predictions_are_clean(self):
        space, ids = self.space()
        report = per_tag_error(ids, ids, space)
        assert all(rate == 0.0 for rate in report["per_tag_error"].values())
        assert report["te_mae_ms"] == 0.0 and report["tr_mae_ms"] == 0.0

    def test_length_mismatch_rejected(self):
        space, ids = self.space()
        with pytest.raises(LabelDecodeFailure):
            per_tag_error(ids[:1], ids, space)

    def test_kmeans_space_has_no_bin_error(self):
        """A k-means space has no grid: cluster mismatches count as a field,
        and the four bin numbers stay 0.0."""
        records = [MetadataRecord("r", te_ms=5.0, tr_ms=250.0),
                   MetadataRecord("r", te_ms=90.0, tr_ms=4000.0)]
        space, ids = build_label_space(records, KMeansLabelConfig(n_clusters=2))
        report = per_tag_error(ids[::-1], ids, space)
        assert report["per_tag_error"]["cluster"] == 1.0
        bins = tuple(report[k] for k in ("te_bin_mae", "tr_bin_mae", "te_mae_ms", "tr_mae_ms"))
        assert bins == (0.0,) * 4


def per_tag_oracle(predicted_ids, true_ids, space) -> dict:
    """Per-tag errors row by row: decode both label keys of each row into a
    field -> value dict and compare them field by field."""
    def decode(label_id):
        return dict(zip(space.key_fields, space.labels[int(label_id)].key))

    mismatches = {f: 0 for f in space.key_fields}
    te_dist, tr_dist = [], []
    for p, t in zip(predicted_ids, true_ids):
        pk, tk = decode(p), decode(t)
        for f in space.key_fields:
            if pk[f] != tk[f]:
                mismatches[f] += 1
        if "te_bin" in pk:
            te_dist.append(abs(pk["te_bin"] - tk["te_bin"]))
            tr_dist.append(abs(pk["tr_bin"] - tk["tr_bin"]))
    n = len(true_ids)
    tags = dict(per_tag_error={f: mismatches[f] / n for f in space.key_fields},
                te_bin_mae=0.0, tr_bin_mae=0.0, te_mae_ms=0.0, tr_mae_ms=0.0)
    if te_dist:
        grid = space.config.grid
        tags["te_bin_mae"], tags["tr_bin_mae"] = float(np.mean(te_dist)), float(np.mean(tr_dist))
        tags["te_mae_ms"] = tags["te_bin_mae"] * grid.te_width
        tags["tr_mae_ms"] = tags["tr_bin_mae"] * grid.tr_width
    return tags


def hexed(tags: dict) -> list:
    """Every name and float of a per-tag dict, in order, floats as .hex()."""
    return [(name, [(f, r.hex()) for f, r in value.items()] if isinstance(value, dict)
             else value.hex()) for name, value in tags.items()]


@pytest.mark.parametrize("config", [
    LabelConfig(GridSpec(n_te=5, n_tr=5)),
    LabelConfig(GridSpec(n_te=4, n_tr=3), CATEGORICAL_FIELDS + ("te_bin", "tr_bin")),
    LabelConfig(GridSpec(n_te=5, n_tr=5), ("flip_angle", "te_bin", "tr_bin", "ti_bin")),
    KMeansLabelConfig(n_clusters=6),
], ids=["grid-ti", "grid-no-ti", "numerical", "kmeans"])
def test_per_tag_error_equals_the_row_by_row_oracle(config):
    """The key-array per-tag errors equal a per-row decode loop bit for bit,
    for random, perfect and half-right predictions."""
    protocols = default_protocols(n_te_cells=3, n_tr_cells=3)
    slices = generate_dataset(protocols, SynthConfig(n_scans=80, slices_per_scan=2, seed=5))
    space, ids = build_label_space([s.record for s in slices], config)
    assert len(space) > 4
    rng = np.random.default_rng(len(space))
    shuffled = rng.permutation(ids)
    for pred in (rng.integers(0, len(space), ids.size), ids,
                 np.where(rng.random(ids.size) < 0.5, ids, shuffled)):
        assert hexed(per_tag_error(pred, ids, space)) == hexed(per_tag_oracle(pred, ids, space))


@pytest.mark.parametrize("bad", [-1, 3])
def test_per_tag_error_rejects_ids_outside_the_space(bad):
    space, ids = TestPerTagError().space()
    for pred, true in ((np.array([bad]), ids[:1]), (ids[:1], np.array([bad]))):
        with pytest.raises(LabelDecodeFailure, match="out of range"):
            per_tag_error(pred, true, space)


class TestGalleryAndEndToEnd:
    def test_build_gallery_dedupes_and_sorts(self, tiny_run):
        slices, space, ids, run, state = tiny_run
        gallery = build_gallery(state.model, space, [int(i) for i in ids])
        np.testing.assert_array_equal(gallery.label_ids, np.unique(ids))
        norms = np.linalg.norm(gallery.embeddings, axis=1)
        np.testing.assert_allclose(norms, 1.0, rtol=1e-9)

    def test_build_gallery_empty_raises(self, tiny_run):
        _, space, _, _, state = tiny_run
        with pytest.raises(EmptyGallery):
            build_gallery(state.model, space, [])

    def test_encode_features_chunking_is_consistent(self, tiny_run):
        slices, _, _, _, state = tiny_run
        features, _, _ = dataset_arrays(slices[:10])
        full = encode_features(state.model, features)
        chunked = encode_features(state.model, features, chunk=3)
        np.testing.assert_allclose(chunked, full, rtol=1e-12)
        assert full.shape == (10, state.model.config.d_emb)

    def test_run_evaluation_report_shape(self, tiny_run):
        slices, space, ids, run, state = tiny_run
        features, scan_ids, _ = dataset_arrays(slices)
        report = run_evaluation(
            state.model, space, features, ids, features, ids, scan_ids,
            config_hash="cafe0123",
        )
        assert set(report.recalls) == {"image_to_text", "scan_to_text", "text_to_image"}
        for task in report.recalls.values():
            assert list(task) == [f"r{k}" for k in DEFAULT_KS] == ["r1", "r5", "r10"]
            for value in task.values():
                assert 0.0 <= value <= 1.0
        assert report.probe_accuracy is not None
        assert set(report.per_tag_error) == set(space.key_fields)
        grid = space.config.grid
        assert report.te_mae_ms == report.te_bin_mae * grid.te_width
        assert report.config_hash == "cafe0123"
        assert report.counts["n_eval_slices"] == len(slices)
        assert report.counts["n_eval_scans"] == len({s.scan_id for s in slices})
        assert report.counts["n_labels"] == len(space)
        assert set(report.probe) == {"n_iterations", "grad_norm", "converged", "loss"}
        assert report.probe["converged"] == (report.probe["grad_norm"] < 1e-6)
        json.dumps(report.to_json_dict())

    def test_transfer_grid_relabels_and_skips_probe(self, tiny_run):
        slices, space, ids, run, state = tiny_run
        features, scan_ids, _ = dataset_arrays(slices)
        report = run_evaluation(
            state.model, space, features, ids, features, ids, scan_ids,
            config_hash="cafe0123",
            transfer_grid=GridSpec(n_te=1, n_tr=1),
        )
        assert report.probe_accuracy is None
        assert report.probe is None
        assert report.to_json_dict()["probe"] is None
        assert report.per_tag_error == {}
        assert report.counts["n_labels"] == 2
        assert report.counts["n_gallery"] == 2

    def test_render_table_mentions_headline_numbers(self, tiny_run):
        slices, space, ids, run, state = tiny_run
        features, scan_ids, _ = dataset_arrays(slices)
        report = run_evaluation(
            state.model, space, features, ids, features, ids, scan_ids,
            config_hash="cafe0123",
        )
        text = render_table(report)
        for task, r in report.recalls.items():
            assert f"{task:<16}{r['r1']:>8.3f}{r['r5']:>8.3f}{r['r10']:>8.3f}\n" in text
        assert "linear probe accuracy" in text
        assert "cafe0123" in text
        n_iterations = report.probe["n_iterations"]
        assert f"probe: {n_iterations} iterations, grad norm" in text

    def test_non_finite_embeddings_rejected_before_ranking(self, tiny_run, monkeypatch):
        slices, space, ids, run, state = tiny_run
        features, scan_ids, _ = dataset_arrays(slices)
        calls = []
        for name in ("recall_at_k", "scan_to_text_recall", "linear_probe"):
            monkeypatch.setattr(evaluate, name, lambda *a, **k: calls.append(a))
        features = features.copy()
        features[0, 0] = np.nan
        with pytest.raises(NonFiniteInput):
            run_evaluation(
                state.model, space, features, ids, features, ids, scan_ids,
                config_hash="cafe0123",
            )
        assert calls == []
