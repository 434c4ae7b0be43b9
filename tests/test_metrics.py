"""Metrics: Fréchet distance, k-NN precision/recall, fidelity, summaries,
rank correlation."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import spearmanr

from guidelab import cli
from guidelab import data as gd
from guidelab import metrics as gmet
from guidelab import models as gm
from guidelab import schedule as gs
from guidelab import _blas
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

    def test_fewer_points_than_dimensions(self):
        # the regularized covariances stay well defined below D + 1 points
        x = rng_stream(0, 4).standard_normal((5, 8))
        assert gmet.frechet_distance(x, x) == pytest.approx(0.0, abs=1e-9)


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


def _kth_nn_radius(points, k):
    """Distance from each point to its k-th nearest other point, from the
    radius pass over a fresh ``Reference``'s grouping, in the points' order."""
    ref = gmet.Reference(points)
    out = np.empty(len(points))
    with _blas.threads(1):
        out[ref.groups.order] = gmet._radius(ref.groups, ref.cols, ref.pivots, k)
    return out


def _grid(n, seed, dim=3):
    """Integer points on a small grid: many duplicates and tied distances, and
    every distance is exact, whatever rows a BLAS call sees."""
    return rng_stream(seed, 9).integers(-3, 4, size=(n, dim)).astype(np.float64)


class TestBlockedKnn:
    """The tiled k-NN equals the dense kernel exactly."""

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
        np.testing.assert_array_equal(_kth_nn_radius(r, k), _dense_radius(r, k))
        np.testing.assert_array_equal(_kth_nn_radius(g, k), _dense_radius(g, k))
        assert gmet.knn_precision_recall(g, r, k) == _dense_precision_recall(g, r, k)

    @pytest.mark.parametrize("k", [1, 5])
    def test_duplicated_points(self, k):
        # exact copies: zero distances tie with each other and with the
        # masked-out self distance of each copy
        base = _grid(400, 3, dim=8)
        g = np.concatenate([base, base[:150], base[:150]])
        r = np.concatenate([base[200:], base[200:260]])
        radius = _kth_nn_radius(g, k)
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
        assert not np.isnan(_kth_nn_radius(p, 1)).any()
        precision, recall = gmet.knn_precision_recall(p, p, 1)
        assert precision >= 0.99 and recall >= 0.99

    @pytest.mark.parametrize("k", [1, 5])
    def test_generated_is_reference(self, k):
        x = _grid(700, 4)
        assert gmet.knn_precision_recall(x, x, k) == _dense_precision_recall(x, x, k)

    def test_gaussian_points_match_dense(self, tile_pairs):
        # real-valued data: a BLAS call may round a row's dot products
        # differently with other rows around it (micro-kernel edges), so the
        # radii agree to a few units in the last place; no such difference
        # moves a point across a ball boundary here.  In one overlapping blob
        # in D = 64 no tile can be skipped: every pair is computed.
        rng = rng_stream(5, 0)
        g, r = rng.standard_normal((1500, 64)), rng.standard_normal((1000, 64)) + 0.3
        np.testing.assert_allclose(_kth_nn_radius(r, 3), _dense_radius(r, 3),
                                   rtol=1e-13, atol=0)
        assert sum(tile_pairs) == len(r) ** 2
        tile_pairs.clear()
        ref = gmet.Reference(r)
        assert ref.precision_recall(g, 3) == _dense_precision_recall(g, r, 3)
        assert sum(tile_pairs) == len(r) ** 2 + len(g) * len(r) + len(g) ** 2
        tile_pairs.clear()
        # the reference's radii are those kept from the call above
        assert ref.precision_recall(g, 3) == _dense_precision_recall(g, r, 3)
        assert sum(tile_pairs) == len(g) * len(r) + len(g) ** 2

    @pytest.mark.parametrize("k", [1, 3])
    def test_mixture_points_match_dense(self, bench_descriptor, k):
        # ||p||^2 is about 100 and the k-NN distances about 0.1, so both
        # kernels cancel most of each squared distance.  Each d2 is within
        # (D + 2) u (||p||^2 + ||q||^2), about 1.6e-12, of the exact value
        # in either kernel, which bounds the radii's relative difference by
        # 2 * 1.6e-12 / (2 r^2) < 1e-9 at r > 0.08 (seen: up to 5e-13)
        g = gd.generate(bench_descriptor, 1500, seed=3).points
        r = gd.generate(bench_descriptor, 1000, seed=4).points
        for points in (g, r):
            np.testing.assert_allclose(_kth_nn_radius(points, k),
                                       _dense_radius(points, k), rtol=1e-9, atol=0)
        assert gmet.knn_precision_recall(g, r, k) == _dense_precision_recall(g, r, k)

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


class TestPrunedKnn:
    """The k-NN passes skip a tile only where it can change no radius and no
    verdict, so they equal the dense kernel wherever they skip."""

    def test_pruning_at_bench_geometry(self, bench_descriptor, bench_dataset, tile_pairs):
        # 8 components at least 7.6 apart, k-NN radii about 0.12: the pairs
        # between components are skipped (16.5 M of 113.5 M pairs computed)
        g = gd.generate(bench_descriptor, 4096, seed=1000).points
        r = bench_dataset.points
        precision, recall = gmet.knn_precision_recall(g, r, 3)
        assert precision > 0.9 and recall > 0.9
        dense = len(g) * len(r) + len(g) ** 2 + len(r) ** 2
        assert 0 < sum(tile_pairs) <= 0.2 * dense

    @pytest.mark.parametrize("k", [1, 3])
    def test_nan_row_matches_dense(self, bench_descriptor, k):
        # the NaN row's group is computed against every group; the NaN row
        # has a NaN radius (inf at k = 1: only its masked self distance is
        # not NaN), and lies in no ball
        g = gd.generate(bench_descriptor, 1500, seed=3).points
        r = gd.generate(bench_descriptor, 1000, seed=4).points
        g[17, 5] = np.nan
        r[5] = np.nan
        with np.errstate(invalid="ignore"):
            for points in (g, r):
                radius, dense = _kth_nn_radius(points, k), _dense_radius(points, k)
                np.testing.assert_allclose(radius, dense, rtol=1e-9, atol=0)
                assert not np.isfinite(radius[np.isnan(points).any(axis=1)]).any()
            assert gmet.knn_precision_recall(g, r, k) == _dense_precision_recall(g, r, k)

    @pytest.mark.parametrize("k", [1, 5])
    def test_small_blocks_grid_bit_identical(self, monkeypatch, tile_pairs, k):
        # 1000-entry blocks split every tile into row chunks; the grid's
        # distances are exact, so any chunking gives the dense result
        monkeypatch.setattr(_blas, "BLOCK_ENTRIES", 1000)
        g, r = _grid(1500, 7), _grid(1000, 8)
        for points in (g, r):
            np.testing.assert_array_equal(_kth_nn_radius(points, k), _dense_radius(points, k))
        assert max(tile_pairs) <= 1000
        assert gmet.knn_precision_recall(g, r, k) == _dense_precision_recall(g, r, k)


class TestReferenceMemo:
    """A ``Reference`` groups its points once and keeps the grouping and its
    radii for each k for as long as it is kept, whichever of the k-NN and the
    nearest-point search asks; ``knn_precision_recall`` keeps none."""

    @pytest.fixture()
    def grouped(self, monkeypatch):
        """The size of each set grouped: ``_pivots`` runs once a grouping."""
        sizes = []
        pivots = gmet._pivots

        def counted(rows):
            sizes.append(len(rows))
            return pivots(rows)

        monkeypatch.setattr(gmet, "_pivots", counted)
        return sizes

    @pytest.fixture()
    def radii(self, monkeypatch):
        """(set size, k) of each radius pass: ``_radius`` runs once a pass."""
        passes = []
        radius = gmet._radius

        def counted(s, cols, pivots, k):
            passes.append((len(s.order), k))
            return radius(s, cols, pivots, k)

        monkeypatch.setattr(gmet, "_radius", counted)
        return passes

    def test_sweep_groups_reference_once(self, bench_descriptor, grouped):
        r = gd.generate(bench_descriptor, 1000, seed=4).points
        gens = [gd.generate(bench_descriptor, 300, seed=s).points for s in (5, 6, 7)]
        ref = gmet.Reference(r)
        sweep = [(g, k, ref.precision_recall(g, k)) for k in (3, 1, 3) for g in gens]
        assert grouped == [len(r)]
        for g, k, result in sweep:
            assert result == gmet.knn_precision_recall(g, r, k)
        # each call without a kept Reference groups the reference again
        assert grouped == [len(r)] * (1 + len(sweep))

    def test_radii_computed_once_per_k(self, bench_descriptor, radii):
        r = gd.generate(bench_descriptor, 1000, seed=4).points
        gens = [gd.generate(bench_descriptor, 300, seed=s).points for s in (5, 6)]
        ref = gmet.Reference(r)
        sweep = [ref.precision_recall(g, k) for k in (3, 1, 3) for g in gens]
        assert [c for c in radii if c[0] == len(r)] == [(len(r), 3), (len(r), 1)]
        assert len(radii) == 2 + len(sweep)  # the generated set's radii on every call
        np.testing.assert_array_equal(ref._radii[3], _kth_nn_radius(r, 3)[ref.groups.order])

    def test_traces_and_knn_share_one_grouping(self, bench_descriptor, grouped):
        P = gd.generate(bench_descriptor, 1000, seed=4).points
        g = gd.generate(bench_descriptor, 300, seed=5).points
        X = g[:20] * 0.9 + 0.1 * rng_stream(9, 0).standard_normal((20, 64))
        r = np.full(20, 0.9)
        ref = gmet.Reference(P)
        d = ref.nearest(X, r)
        precision_recall = ref.precision_recall(g, 3)
        np.testing.assert_array_equal(ref.nearest(X, r), d)
        assert grouped == [len(P)]
        assert precision_recall == gmet.knn_precision_recall(g, P, 3)
        np.testing.assert_array_equal(gmet.Reference(P).nearest(X, r), d)

    def test_equal_shape_other_array_grouped_again(self, bench_descriptor, grouped):
        r1 = gd.generate(bench_descriptor, 1000, seed=4).points
        r2 = gd.generate(bench_descriptor, 1000, seed=8).points
        g = gd.generate(bench_descriptor, 300, seed=5).points
        results = [gmet.knn_precision_recall(g, r, 3) for r in (r1, r2, r1, r1.copy())]
        assert grouped == [len(r1)] * 4
        assert results[0] == results[2] == results[3]
        assert results[1] == gmet.Reference(r2).precision_recall(g, 3)

    def test_knn_keeps_no_grouping(self, bench_descriptor, bench_dataset):
        # the 8000-point reference's column operand alone is 4.2 MiB
        g = gd.generate(bench_descriptor, 4096, seed=1000).points
        tracemalloc.start()
        try:
            gmet.knn_precision_recall(g, bench_dataset.points, 3)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 2**18


_SMALLEST_NORMAL = float(np.finfo(np.float64).smallest_normal)


class TestSquaredThreshold:
    """``d2 <= _sq_threshold(r)`` equals ``sqrt(max(d2, 0)) <= r`` for every
    d2, without a square root."""

    radii = st.one_of(
        st.just(0.0),
        st.floats(min_value=5e-324, max_value=_SMALLEST_NORMAL, exclude_max=True),
        st.floats(min_value=0.5, max_value=2.0),
        st.floats(min_value=1e150, allow_infinity=True),
        st.floats())  # also negative and NaN

    @settings(max_examples=300, deadline=None)
    @given(rs=st.lists(radii, min_size=1, max_size=8), other=st.floats())
    def test_equals_square_root_test(self, rs, other):
        r = np.array(rs)
        for ri, ti in zip(r, gmet._sq_threshold(r)):
            with np.errstate(over="ignore"):
                d2 = np.array([ti, np.nextafter(ti, -np.inf), np.nextafter(ti, np.inf),
                               ri * ri, np.nextafter(ri * ri, -np.inf),
                               np.nextafter(ri * ri, np.inf), 0.0, -0.0, -ti, -1.0,
                               -np.inf, np.inf, np.nan, other])
            np.testing.assert_array_equal(d2 <= ti, np.sqrt(np.maximum(d2, 0.0)) <= ri)

    def test_largest_such_value(self):
        # r * r alone is off by an ulp for some radii; the threshold is not
        r = rng_stream(8, 0).uniform(0.0, 3.0, 10_000)
        t = gmet._sq_threshold(r)
        assert np.all(np.sqrt(t) <= r)
        assert np.all(np.sqrt(np.nextafter(t, np.inf)) > r)
        assert np.any(t != r * r)


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

    def test_decaying_curve(self):
        out = gmet.norm_curve_summary(np.linspace(1.0, 0.0, 100)[None, :])
        assert out["ratio"] < 0.2

    def test_flat_zero_flagged(self):
        # no guidance: ratio 1, not 0 / 0
        out = gmet.norm_curve_summary(np.zeros((1, 60)))
        assert out["ratio"] == 1.0
        np.testing.assert_array_equal(out["per_step_mean"], 0.0)

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


_TIED = st.sampled_from([-2.0, 0.0, 0.5, 1.0, 3.0])
_UNTIED = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def _vector_pairs(draw):
    n = draw(st.integers(2, 11))
    values = draw(st.sampled_from([_TIED, _UNTIED]))
    return (draw(st.lists(values, min_size=n, max_size=n)),
            draw(st.lists(values, min_size=n, max_size=n)))


class TestSpearman:
    @settings(max_examples=300, deadline=None)
    @given(pair=_vector_pairs())
    def test_equals_scipy(self, pair):
        a, b = pair
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy warns on a constant input
            ref = spearmanr(a, b).statistic
        rho = gmet.spearman(a, b)
        if np.isnan(ref):
            assert np.isnan(rho)
        else:
            assert rho == ref

    def test_constant_input_is_nan(self):
        assert np.isnan(gmet.spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))
        assert np.isnan(gmet.spearman([1.0, 2.0, 3.0], [4.0, 4.0, 4.0]))

    def test_length_one_is_nan(self):
        assert np.isnan(gmet.spearman([1.0], [2.0]))

    def test_reversed_sweep_grid(self):
        assert gmet.spearman(cli.SWEEP_GRID, cli.SWEEP_GRID[::-1]) == -1.0

    def test_threshold_case_matches_scipy(self):
        # sum d^2 = 216 on 9 points: rho is -0.8 in exact arithmetic, and the
        # scale_sweep check `rho <= -0.8` sees scipy's rounding of it
        ranks = [5, 8, 9, 6, 7, 4, 3, 2, 1]
        rho = gmet.spearman(range(1, 10), ranks)
        assert rho == spearmanr(range(1, 10), ranks).statistic
        assert rho == -0.7999999999999999

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            gmet.spearman([1.0, 2.0], [1.0, 2.0, 3.0])


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
