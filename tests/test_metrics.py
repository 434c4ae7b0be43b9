"""Metrics: Fréchet distance, k-NN precision/recall, fidelity, summaries."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from guidelab import data as gd
from guidelab import metrics as gmet
from guidelab import models as gm
from guidelab import schedule as gs
from guidelab._blas import rows_per_block
from guidelab.forward import rng_stream


class TestFrechet:
    def test_identity_zero(self):
        x = rng_stream(0, 0).standard_normal((200, 8))
        assert gmet.frechet_distance(x, x) < 1e-8

    def test_mean_shift_gaussians(self):
        rng = rng_stream(0, 1)
        a = rng.standard_normal((10_000, 8))
        b = rng.standard_normal((10_000, 8))
        b[:, 0] += 3.0
        # closed form: squared mean distance = 9
        assert gmet.frechet_distance(a, b) == pytest.approx(9.0, rel=0.05)

    def test_scalar_variance_case(self):
        rng = rng_stream(0, 2)
        a = rng.standard_normal((50_000, 1))
        b = 2.0 * rng.standard_normal((50_000, 1))
        # (sigma_1 - sigma_2)^2 = 1
        assert gmet.frechet_distance(a, b) == pytest.approx(1.0, rel=0.05)

    def test_symmetry(self):
        rng = rng_stream(0, 3)
        a = rng.standard_normal((300, 5))
        b = rng.standard_normal((300, 5)) * 1.5 + 0.3
        assert gmet.frechet_distance(a, b) == pytest.approx(
            gmet.frechet_distance(b, a), abs=1e-8)

    def test_rank_requirement_without_regularizer(self):
        x = rng_stream(0, 4).standard_normal((5, 8))
        with pytest.raises(ValueError):
            gmet.frechet_distance(x, x, regularize=False)


class TestKnnPrecisionRecall:
    def test_identical_sets(self):
        x = rng_stream(1, 0).standard_normal((100, 4))
        p, r = gmet.knn_precision_recall(x, x, k=3)
        assert p == 1.0 and r == 1.0

    def test_disjoint_supports(self):
        rng = rng_stream(1, 1)
        reference = rng.standard_normal((100, 4))
        generated = np.full((100, 4), 1000.0) + 0.001 * rng.standard_normal((100, 4))
        p, r = gmet.knn_precision_recall(generated, reference, k=3)
        assert p == 0.0
        assert r < 0.05

    def test_half_mode_coverage(self, bench_descriptor):
        rng = rng_stream(1, 2)
        ref = gd.generate(bench_descriptor, 2000, seed=3).points
        gen_all = gd.generate(bench_descriptor, 4000, seed=4)
        keep = gen_all.labels < 4   # modes 0-3 only
        gen = gen_all.points[keep]
        p, r = gmet.knn_precision_recall(gen, ref, k=3)
        assert p > 0.95
        assert r == pytest.approx(0.5, abs=0.05)

    def test_swap_exchanges_roles(self):
        rng = rng_stream(1, 3)
        a = rng.standard_normal((150, 3))
        b = rng.standard_normal((150, 3)) + 0.5
        p1, r1 = gmet.knn_precision_recall(a, b, k=3)
        p2, r2 = gmet.knn_precision_recall(b, a, k=3)
        assert p1 == r2 and r1 == p2

    def test_k_too_large(self):
        x = rng_stream(1, 4).standard_normal((5, 2))
        with pytest.raises(ValueError):
            gmet.knn_precision_recall(x, x, k=5)


# The unblocked k-NN kernel that the row-blocked one replaced, kept as the
# reference: full distance matrices, (n, n) for the radii and (g, r) for the
# cross term.  Its radii are clamped at 0 as the blocked ones are.
def _dense_pairwise_sq(a, b):
    return (np.sum(a * a, axis=1)[:, None] - 2.0 * a @ b.T
            + np.sum(b * b, axis=1)[None, :])


def _dense_radius(points, k):
    d2 = _dense_pairwise_sq(points, points)
    np.fill_diagonal(d2, np.inf)
    return np.sqrt(np.maximum(np.partition(d2, k - 1, axis=1)[:, k - 1], 0.0))


def _dense_precision_recall(g, r, k):
    d = np.sqrt(np.maximum(_dense_pairwise_sq(g, r), 0.0))
    precision = float(np.mean(np.any(d <= _dense_radius(r, k)[None, :], axis=1)))
    recall = float(np.mean(np.any(d <= _dense_radius(g, k)[:, None], axis=0)))
    return precision, recall


def _grid(n, seed, dim=3):
    """Integer points on a small grid: many duplicates and tied distances, and
    every distance is exact, whatever rows a BLAS call sees."""
    return rng_stream(seed, 9).integers(-3, 4, size=(n, dim)).astype(np.float64)


class TestBlockedKnn:
    """The row-blocked k-NN equals the dense kernel exactly."""

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("n_gen, n_ref", [
        (1500, 1000),   # several blocks each way, none a multiple of the block
        (100, 1000),    # the generated set is smaller than one block
        (525, 1000),    # a one-row last block of the cross term
        (1000, 100),
    ])
    def test_grid_points_match_dense(self, n_gen, n_ref, k):
        assert n_gen % rows_per_block(n_ref) and n_ref % rows_per_block(n_ref)
        g, r = _grid(n_gen, 1), _grid(n_ref, 2)
        np.testing.assert_array_equal(gmet.kth_nn_radius(r, k), _dense_radius(r, k))
        np.testing.assert_array_equal(gmet.kth_nn_radius(g, k), _dense_radius(g, k))
        assert gmet.knn_precision_recall(g, r, k) == _dense_precision_recall(g, r, k)

    @pytest.mark.parametrize("k", [1, 5])
    def test_duplicated_points(self, k):
        # exact copies: zero distances tie with each other and with the
        # masked-out self distance of each copy
        base = _grid(400, 3, dim=8)
        g = np.concatenate([base, base[:150], base[:150]])
        r = np.concatenate([base[200:], base[200:260]])
        radius = gmet.kth_nn_radius(g, k)
        np.testing.assert_array_equal(radius, _dense_radius(g, k))
        if k == 1:  # each of the 450 copies has an exact twin
            assert np.count_nonzero(radius == 0.0) >= 450
        assert gmet.knn_precision_recall(g, r, k) == _dense_precision_recall(g, r, k)

    @pytest.mark.parametrize("dim", [3, 64])
    def test_exact_copies_of_real_points(self, dim):
        # GEMM rounding can leave the zero distance between a point and its
        # exact copy slightly negative; unclamped, its square root was NaN
        # (796 of these 3000 radii at D = 64, 236 at D = 3), and a NaN ball
        # held not even the twin (self precision 0.805 and 0.946)
        x = rng_stream(7, dim).standard_normal((2000, dim))
        p = np.concatenate([x, x[:1000]])
        assert not np.isnan(gmet.kth_nn_radius(p, 1)).any()
        precision, recall = gmet.knn_precision_recall(p, p, 1)
        assert precision >= 0.99 and recall >= 0.99

    @pytest.mark.parametrize("k", [1, 5])
    def test_generated_is_reference(self, k):
        x = _grid(700, 4)
        assert gmet.knn_precision_recall(x, x, k) == _dense_precision_recall(x, x, k)

    def test_gaussian_points_match_dense(self):
        # real-valued data: a BLAS call may round a row's dot products
        # differently with other rows around it (micro-kernel edges), so the
        # radii agree to a few units in the last place; no such difference
        # moves a point across a ball boundary here
        rng = rng_stream(5, 0)
        g, r = rng.standard_normal((1500, 64)), rng.standard_normal((1000, 64)) + 0.3
        np.testing.assert_allclose(gmet.kth_nn_radius(r, 3), _dense_radius(r, 3),
                                   rtol=1e-13, atol=0)
        assert gmet.knn_precision_recall(g, r, 3) == _dense_precision_recall(g, r, 3)

    def test_reference_radius_reused(self):
        g, r = _grid(600, 5), _grid(900, 6)
        radius = gmet.kth_nn_radius(r, 3)
        assert (gmet.knn_precision_recall(g, r, 3, reference_radius=radius)
                == gmet.knn_precision_recall(g, r, 3))
        with pytest.raises(ValueError, match="reference_radius"):
            gmet.knn_precision_recall(g, r, 3, reference_radius=radius[:-1])

    def test_peak_memory_bounded(self):
        # the dense kernel peaked at about 977 MB here (8000 x 8000 and
        # 4096 x 8000 matrices); the blocks hold 4 MiB each
        rng = rng_stream(6, 0)
        g, r = rng.standard_normal((4096, 64)), rng.standard_normal((8000, 64))
        tracemalloc.start()
        try:
            gmet.knn_precision_recall(g, r, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestClassFidelity:
    @pytest.fixture(scope="class")
    def oracle(self, bench_descriptor, linb_1000):
        return gm.AnalyticClassifier(bench_descriptor, linb_1000)

    def test_training_points_score_one(self, bench_dataset, oracle):
        fid = gmet.class_fidelity(bench_dataset.points, bench_dataset.labels,
                                  oracle)
        assert fid > 0.99

    def test_uniform_baseline(self, bench_descriptor, oracle):
        pts = gd.generate(bench_descriptor, 10_000, seed=8).points
        fid = gmet.class_fidelity(pts, np.zeros(10_000, dtype=int), oracle)
        assert fid == pytest.approx(1.0 / 8.0, abs=0.02)

    def test_forced_wrong_mode(self, bench_descriptor, bench_dataset, oracle):
        pts = bench_dataset.points[bench_dataset.labels == 0]
        wrong = np.full(len(pts), 4)   # antipodal mode
        assert gmet.class_fidelity(pts, wrong, oracle) == 0.0


class TestNormCurveSummary:
    def test_constant_curve(self):
        out = gmet.norm_curve_summary(np.full((4, 100), 0.032))
        assert out["ratio"] == pytest.approx(1.0, abs=1e-9)
        assert not out["degenerate"]

    def test_decaying_curve(self):
        out = gmet.norm_curve_summary(np.linspace(1.0, 0.0, 100)[None, :])
        assert out["ratio"] < 0.2

    def test_flat_zero_flagged(self):
        out = gmet.norm_curve_summary(np.zeros((1, 60)))
        assert out["ratio"] == 1.0
        assert out["degenerate"]

    def test_empty_rejected(self):
        for norms in ([], np.zeros((0, 10)), np.zeros(10)):
            with pytest.raises(ValueError):
                gmet.norm_curve_summary(norms)


class TestDistanceLawFit:
    def test_perfect_traces(self):
        # sqrt((1 - 0.5) * 8) = 2
        out = gmet.distance_law_fit([10, 20], [0.5, 0.5], np.full((1, 2), 2.0), 8)
        assert out["aggregate_median"] == 0.0

    def test_low_noise_excluded(self):
        # t = 10: exact; t = 1: 1 - abar = 0.01, far off the law
        out = gmet.distance_law_fit([10, 1], [0.5, 0.99], np.array([[2.0, 5.0]]), 8)
        # the noisy low-t entry appears in the table but not the aggregate
        assert out["aggregate_median"] == 0.0
        assert [row["t"] for row in out["per_t"]] == [1, 10]
        assert out["per_t"][0]["median_rel_error"] > 1.0

    def test_chi_concentration_at_full_noise(self, bench_descriptor, lina_1000):
        from guidelab import sampler as gsam
        ds = gd.generate(bench_descriptor, 500, seed=2)
        _, _, d_hat = gsam.forward_manifold_traces(ds, lina_1000, n_draws=100, seed=4)
        ratios = d_hat[:, -1] / np.sqrt(64)
        assert np.median(ratios) == pytest.approx(1.0, abs=0.1)


class TestReportSerialization:
    def test_csv_roundtrip(self, tmp_path):
        rep = gmet.MetricsReport(frechet=1.25, precision=0.5, recall=0.75,
                                 class_accuracy=0.875, n_generated=10,
                                 n_reference=20, config="test")
        path = tmp_path / "m.csv"
        gmet.write_metrics_csv([rep], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",") == gmet.METRICS_CSV_HEADER
        vals = lines[1].split(",")
        assert float(vals[0]) == 1.25
        assert vals[-1] == "test"

    def test_validation(self):
        with pytest.raises(ValueError):
            gmet.MetricsReport(frechet=-1.0, precision=0.5, recall=0.5,
                               class_accuracy=0.5, n_generated=1, n_reference=1)
        with pytest.raises(ValueError):
            gmet.MetricsReport(frechet=1.0, precision=1.5, recall=0.5,
                               class_accuracy=0.5, n_generated=1, n_reference=1)

    def test_text_block_mentions_fidelity(self):
        rep = gmet.MetricsReport(frechet=0.0, precision=1.0, recall=1.0,
                                 class_accuracy=1.0, n_generated=1, n_reference=1)
        assert "class_fidelity" in rep.text_block()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_metrics_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((60, 3))
    b = rng.standard_normal((80, 3))
    perm_a = rng.permutation(a)
    perm_b = rng.permutation(b)
    assert gmet.frechet_distance(a, b) == pytest.approx(
        gmet.frechet_distance(perm_a, perm_b), abs=1e-10)
    assert gmet.knn_precision_recall(a, b) == gmet.knn_precision_recall(perm_a, perm_b)
