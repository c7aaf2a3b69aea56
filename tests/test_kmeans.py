"""Lloyd iteration tests: inertia descent, exact toy solutions, determinism,
bit identity with the plain Lloyd loop, and memory bounded by the row block."""

import tracemalloc

import numpy as np
import pytest

from mrcontrast import kmeans
from mrcontrast.errors import NonFiniteInput, TooFewDistinctPoints
from mrcontrast.kmeans import BLOCK_ROWS, CONVERGENCE_TOL, MAX_ITER, fit_kmeans

# point counts around the row block's edges
BLOCK_EDGE_NS = (BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 7)


def brute_force_inertia(points, centroids):
    d = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return float(d.min(axis=1).sum())


def full_sq_dists(points, centroids):
    """Every squared distance from one (n, k, d) difference array: the formula
    that the blocked distances must reproduce bit for bit."""
    diff = points[:, None] - centroids[None]
    return np.einsum("nkd,nkd->nk", diff, diff)


def reference_seeds(points, k, rng):
    """k-means++ seeding written out on full_sq_dists."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[int(rng.integers(n))]
    d2 = full_sq_dists(points, centroids[:1])[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = min(int(np.searchsorted(np.cumsum(d2), rng.random() * total, side="right")), n - 1)
        centroids[j] = points[idx]
        d2 = np.minimum(d2, full_sq_dists(points, centroids[j : j + 1])[:, 0])
    return centroids


def reference_lloyd(points, n_clusters, seed):
    """The plain Lloyd loop: every distance and every mean recomputed each
    iteration. fit_kmeans must reproduce it bit for bit. Also returns how
    many empty clusters were refilled. The seeds come from
    kmeans._seed_centroids, so a test can patch them;
    TestBlockedDistances checks that function against reference_seeds."""
    points = np.asarray(points, dtype=np.float64)
    rng = np.random.Generator(np.random.PCG64(seed))
    centroids = kmeans._seed_centroids(points, n_clusters, rng)
    history, n_iter, refills = [], 0, 0
    for iteration in range(MAX_ITER):
        d2 = full_sq_dists(points, centroids)
        assign = np.argmin(d2, axis=1)
        point_cost = d2[np.arange(points.shape[0]), assign]
        counts = np.bincount(assign, minlength=n_clusters)
        for empty in np.flatnonzero(counts == 0):
            far = int(np.argmax(point_cost))
            centroids[empty] = points[far]
            assign[far] = empty
            point_cost[far] = 0.0
            counts = np.bincount(assign, minlength=n_clusters)
            refills += 1
        history.append(float(point_cost.sum()))
        n_iter = iteration + 1
        new_centroids = np.empty_like(centroids)
        for j in range(n_clusters):
            new_centroids[j] = points[assign == j].mean(axis=0)
        movement = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        if movement < CONVERGENCE_TOL:
            break
    return centroids, history, n_iter, refills


def assert_matches_reference(points, n_clusters, seed):
    """fit_kmeans equals reference_lloyd bitwise; returns the refill count."""
    centroids, history, n_iter, refills = reference_lloyd(points, n_clusters, seed)
    model = fit_kmeans(points, n_clusters, seed)
    assert model.centroids.tobytes() == centroids.tobytes()
    assert [h.hex() for h in model.inertia_history] == [h.hex() for h in history]
    assert model.n_iter == n_iter
    return refills


class TestMatchesPlainLloyd:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_bitwise_equal_over_seeds_and_shapes(self, d):
        rng = np.random.default_rng(100 + d)
        for trial in range(8):
            n = int(rng.integers(20, 400))
            # rounding repeats rows, so distance ties and large clusters occur
            points = np.round(rng.normal(size=(n, d)) * rng.choice([1.0, 30.0]), 1)
            distinct = np.unique(points, axis=0).shape[0]
            for k in (1, 2, min(7, distinct), min(40, distinct), distinct):
                assert_matches_reference(points, k, seed=trial)

    def test_bitwise_equal_on_clustered_timings(self):
        # TE/TR/TI-like features after min-max scaling, as build-labels fits
        rng = np.random.default_rng(11)
        centres = rng.random((25, 4))
        points = centres[rng.integers(0, 25, 3000)] + rng.normal(scale=0.01, size=(3000, 4))
        for seed in range(3):
            assert_matches_reference(points, 40, seed)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_bitwise_equal_when_clusters_are_refilled(self, d, monkeypatch):
        # k-means++ never seeds two centroids on one point; forcing repeats
        # leaves every later copy without points, so the refill runs, and the
        # refilled columns must be recomputed. The picks come from the test's
        # own generator, seeded by the shape, so both fits seed alike.
        monkeypatch.setattr(
            kmeans, "_seed_centroids",
            lambda points, k, rng: points[np.random.default_rng(points.size + k).integers(0, 3, k)].copy(),
        )
        rng = np.random.default_rng(200 + d)
        refills = 0
        for trial in range(6):
            points = rng.normal(size=(int(rng.integers(30, 300)), d))
            for k in (2, 5, 12):
                refills += assert_matches_reference(points, k, seed=trial)
        assert refills > 0


# 1 draws nothing; below 2**32 - 1 Lemire on 32 bits (the half-word buffer, and
# rejections at 2**31 + 5); 2**32 - 1 a bare 32-bit draw; above it Lemire on 64
# bits (rejections at 2**62 + 1)
CLONE_NS = (1, 2, 3, 40, 11_600, 2**31 + 5, 2**32 - 1, 2**32, 2**32 + 1, 2**40, 3 * 2**50,
            2**62 + 1, 2**63 - 1)
# seeds of one to seven 32-bit words; five and more also run the pool's
# second mixing loop
CLONE_SEEDS = (*range(40), 2**32 - 1, 2**32, 2**32 + 7, 2**64, 2**64 + 3, 2**96 + 5,
               2**128 + 1, 2**160 + 12345, 2**200 - 1)


class TestSeedingGenerator:
    """k-means++ draws from kmeans._PCG64, which must give numpy's
    Generator(PCG64(seed)) draws for integers(n) and random()."""

    @pytest.mark.parametrize("seed", CLONE_SEEDS)
    def test_interleaved_draws_equal_numpy(self, seed):
        want, got = np.random.Generator(np.random.PCG64(seed)), kmeans._PCG64(seed)
        picks = np.random.default_rng(seed % 2**64 + 1)
        for _ in range(300):
            if picks.random() < 0.3:
                assert got.random() == want.random()
            else:
                n = CLONE_NS[int(picks.integers(len(CLONE_NS)))]
                assert got.integers(n) == int(want.integers(n))

    @pytest.mark.parametrize("n", CLONE_NS)
    def test_runs_of_one_bound_equal_numpy(self, n):
        want, got = np.random.Generator(np.random.PCG64(n)), kmeans._PCG64(n)
        assert [got.integers(n) for _ in range(101)] == want.integers(n, size=101).tolist()
        assert got.random() == want.random()

    def test_negative_seed_is_rejected(self):
        with pytest.raises(ValueError):
            kmeans._PCG64(-1)


class TestBlockedDistances:
    """Distances are computed BLOCK_ROWS points at a time, with the same bits
    as one full difference array and a peak that does not grow with k."""

    @pytest.mark.parametrize("d", range(1, 8))
    def test_distances_and_seeds_equal_the_full_array(self, d):
        rng = np.random.default_rng(300 + d)
        for n in BLOCK_EDGE_NS:
            points = rng.normal(size=(n, d)) * rng.choice([1.0, 30.0])
            centroids = rng.normal(size=(13, d))
            want = full_sq_dists(points, centroids)
            assert kmeans._sq_dists(points, centroids).tobytes() == want.tobytes()
            cols = rng.random(13) < 0.5
            out = np.full((n, 13), -1.0)
            kmeans._sq_dists(points, centroids[cols], out, cols)
            assert out[:, cols].tobytes() == want[:, cols].tobytes()
            assert (out[:, ~cols] == -1.0).all()
            got, ref = (seed(points, 9, np.random.default_rng(n))
                        for seed in (kmeans._seed_centroids, reference_seeds))
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("d", range(1, 8))
    def test_fits_across_block_edges_equal_plain_lloyd(self, d):
        rng = np.random.default_rng(400 + d)
        for n in BLOCK_EDGE_NS:
            centres = rng.random((12, d))
            points = centres[rng.integers(0, 12, n)] + rng.normal(scale=0.02, size=(n, d))
            for k in (3, 12):
                assert_matches_reference(points, k, seed=n)

    @pytest.mark.parametrize("n", BLOCK_EDGE_NS)
    def test_assign_is_the_argmin_of_the_full_array(self, n):
        # rounded points tie between centroids, and the duplicated centroids
        # tie on every point: each tie goes to the lowest index
        rng = np.random.default_rng(n)
        points = np.round(rng.normal(size=(n, 3)), 0)
        centroids = np.round(rng.normal(size=(6, 3)), 0)
        model = kmeans.KMeansModel(centroids=centroids[[0, 1, 0, 2, 3, 1, 4, 5, 5]])
        got = model.assign(points)
        np.testing.assert_array_equal(got, np.argmin(full_sq_dists(points, model.centroids), axis=1))
        assert not {2, 5, 8} & set(got.tolist())

    def test_peak_memory_stays_below_half_the_difference_array(self):
        rng = np.random.default_rng(12)
        n, k, d = 20_000, 40, 4
        points = rng.random((25, d))[rng.integers(0, 25, n)] + rng.normal(scale=0.01, size=(n, d))
        bound = n * k * d * 8 / 2
        tracemalloc.start()
        try:
            model = fit_kmeans(points, k, seed=0)
            fit_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            model.assign(points)
            assign_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit_peak < bound and assign_peak < bound, (fit_peak, assign_peak, bound)


class TestInertia:
    def test_history_is_non_increasing(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            points = rng.normal(size=(120, 3))
            model = fit_kmeans(points, 5, seed=trial)
            hist = model.inertia_history
            assert len(hist) >= 1
            for a, b in zip(hist, hist[1:]):
                assert b <= a + 1e-12

    def test_final_inertia_matches_brute_force(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(80, 2))
        model = fit_kmeans(points, 4, seed=0)
        np.testing.assert_allclose(
            model.inertia_history[-1], brute_force_inertia(points, model.centroids),
            rtol=1e-12,
        )

    def test_identical_points_reach_zero_inertia(self):
        points = np.ones((30, 2))
        points[:15] *= 4.0
        model = fit_kmeans(points, 2, seed=0)
        assert model.inertia_history[-1] == 0.0


class TestExactSolutions:
    def test_two_far_pairs_recover_pair_means(self):
        points = np.array([
            [0.0, 0.0], [0.0, 2.0],      # mean (0, 1)
            [100.0, 0.0], [100.0, 6.0],  # mean (100, 3)
        ])
        model = fit_kmeans(points, 2, seed=0)
        got = sorted(model.centroids.tolist())
        np.testing.assert_array_equal(got, [[0.0, 1.0], [100.0, 3.0]])

    def test_single_cluster_is_global_mean(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(50, 4))
        model = fit_kmeans(points, 1, seed=0)
        np.testing.assert_allclose(
            model.centroids[0], points.mean(axis=0), rtol=0, atol=1e-12
        )

    def test_k_equals_n_gives_zero_inertia(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(6, 2))
        model = fit_kmeans(points, 6, seed=0)
        assert model.inertia_history[-1] == 0.0
        got = sorted(model.centroids.tolist())
        np.testing.assert_allclose(got, sorted(points.tolist()), rtol=0, atol=0)


class TestDeterminism:
    def test_same_seed_reproduces_centroids_bitwise(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(200, 3))
        a = fit_kmeans(points, 7, seed=42)
        b = fit_kmeans(points, 7, seed=42)
        assert a.centroids.tobytes() == b.centroids.tobytes()
        assert a.inertia_history == b.inertia_history
        assert a.n_iter == b.n_iter

    def test_different_seeds_may_start_differently(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(60, 2))
        first = [fit_kmeans(points, 8, seed=s).inertia_history[0] for s in range(6)]
        assert len(set(first)) > 1


class TestAssignment:
    def test_assign_picks_nearest_centroid(self):
        rng = np.random.default_rng(6)
        points = rng.normal(size=(40, 2))
        model = fit_kmeans(points, 3, seed=0)
        labels = model.assign(points)
        d = ((points[:, None, :] - model.centroids[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(labels, d.argmin(axis=1))

    def test_tie_breaks_to_lowest_cluster(self):
        points = np.array([[0.0], [2.0]])
        model = fit_kmeans(points, 2, seed=0)
        midpoint = np.array([[1.0]])
        assert model.assign(midpoint)[0] == 0

    def test_every_cluster_gets_points(self):
        rng = np.random.default_rng(7)
        points = rng.normal(size=(100, 2))
        model = fit_kmeans(points, 9, seed=1)
        assert set(model.assign(points).tolist()) == set(range(9))


class TestValidation:
    def test_non_finite_points_raise(self):
        points = np.array([[1.0, 2.0], [np.nan, 0.0]])
        with pytest.raises(NonFiniteInput):
            fit_kmeans(points, 1, seed=0)

    def test_too_few_distinct_points_raise(self):
        points = np.array([[1.0, 1.0]] * 10 + [[2.0, 2.0]] * 10)
        with pytest.raises(TooFewDistinctPoints):
            fit_kmeans(points, 3, seed=0)

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ValueError):
            fit_kmeans(np.arange(10.0), 2, seed=0)

    def test_zero_clusters_rejected(self):
        with pytest.raises(ValueError):
            fit_kmeans(np.ones((5, 2)) * np.arange(5)[:, None], 0, seed=0)
