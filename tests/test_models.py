"""Analytic oracles, learned backends, training, and checkpoints."""

import re

import numpy as np
import pytest

from guidelab import data as gd
from guidelab import models as gm
from guidelab import schedule as gs
from guidelab.forward import rng_stream
from oracles import mixture_log_density, mixture_log_joint, row_kernel


@pytest.fixture(scope="module")
def single_gaussian_8():
    return gd.ManifoldDescriptor(kind="gaussian_mixture", dim=8,
                                 weights=np.array([1.0]),
                                 means=np.zeros((1, 8)),
                                 variances=np.array([1.0]))


@pytest.fixture(scope="module")
def two_gmm_8(small_descriptor):
    return small_descriptor


@pytest.fixture(scope="module")
def gmm8_d8():
    """Eight-class benchmark geometry shrunk to D=8 for cheap oracle probes."""
    return gd.eight_gaussians(dim=8)


class TestAnalyticDenoiser:
    def test_single_standard_gaussian(self, single_gaussian_8, linb_50):
        # q_t = N(0, I) at every t, so eps* = sqrt(1 - abar_t) x
        den = gm.AnalyticDenoiser(single_gaussian_8, linb_50)
        x = rng_stream(0, 0).standard_normal((10, 8))
        for t in (1, 20, 50):
            ab = linb_50.alpha_bars[t - 1]
            np.testing.assert_allclose(den.predict_eps(x, t),
                                       np.sqrt(1 - ab) * x, rtol=1e-12)

    def test_symmetric_midpoint_zero(self, two_gmm_8, linb_50):
        den = gm.AnalyticDenoiser(two_gmm_8, linb_50)
        np.testing.assert_allclose(den.predict_eps(np.zeros((1, 8)), 25), 0.0,
                                   atol=1e-12)

    def test_matches_finite_difference_score(self, gmm8_d8, linb_50):
        den = gm.AnalyticDenoiser(gmm8_d8, linb_50)
        rng = rng_stream(1, 0)
        t, h = 25, 1e-5
        ab = linb_50.alpha_bars[t - 1]
        x = rng.standard_normal((100, 8)) * 4.0
        eps = den.predict_eps(x, t)
        fd = np.empty_like(x)
        for j in range(8):
            e = np.zeros(8)
            e[j] = h
            fd[:, j] = (mixture_log_density(gmm8_d8, linb_50, x + e, t)
                        - mixture_log_density(gmm8_d8, linb_50, x - e, t)) / (2 * h)
        expected = -np.sqrt(1 - ab) * fd
        rel = np.abs(eps - expected) / np.maximum(np.abs(expected), 1e-8)
        assert rel.max() < 1e-4

    def test_matches_quadrature_density(self, linb_50):
        """Independent oracle: q_t and its gradient built by numerically
        integrating the noising kernel against q_0 on a D=2 grid.  The
        denoiser's eps is -sqrt(1 - abar_t) grad q_t / q_t, and the
        per-component log-density of ``oracles`` is log q_t."""
        desc = gd.ManifoldDescriptor(kind="gaussian_mixture", dim=2,
                                     weights=np.array([0.3, 0.7]),
                                     means=np.array([[2.0, 0.0], [-1.0, 1.0]]),
                                     variances=np.array([0.5, 1.5]))
        den = gm.AnalyticDenoiser(desc, linb_50)
        t = 30
        ab = linb_50.alpha_bars[t - 1]
        # quadrature nodes covering q_0's mass
        g = np.linspace(-8, 8, 401)
        xx, yy = np.meshgrid(g, g, indexing="ij")
        nodes = np.column_stack([xx.ravel(), yy.ravel()])
        dA = (g[1] - g[0]) ** 2
        log_q0 = np.full(len(nodes), -np.inf)
        for w, mu, var in zip(desc.weights, desc.means, desc.variances):
            lp = (-0.5 * np.sum((nodes - mu) ** 2 / var + np.log(var)
                                + np.log(2 * np.pi), axis=1))
            log_q0 = np.logaddexp(log_q0, np.log(w) + lp)
        q0 = np.exp(log_q0)

        def quad(x):
            """(log q_t(x), grad log q_t(x)) by quadrature."""
            d = x - np.sqrt(ab) * nodes
            kernel = np.exp(-0.5 * np.sum(d * d, axis=1) / (1 - ab)) / (2 * np.pi * (1 - ab))
            w = q0 * kernel * dA
            return np.log(np.sum(w)), -(w @ d) / ((1 - ab) * np.sum(w))

        probes = rng_stream(2, 0).standard_normal((20, 2)) * 2.0
        eps = den.predict_eps(probes, t)
        log_q = mixture_log_density(desc, linb_50, probes, t)
        for x, e, lq in zip(probes, eps, log_q):
            want_lq, score = quad(x)
            assert lq == pytest.approx(want_lq, abs=1e-6)
            np.testing.assert_allclose(e, -np.sqrt(1 - ab) * score, rtol=0, atol=1e-6)


class TestMuFromEps:
    def test_zero_eps(self, linb_50):
        x = rng_stream(3, 0).standard_normal(4)
        t = 10
        np.testing.assert_allclose(gm.mu_from_eps(x, t, np.zeros(4), linb_50),
                                   x / np.sqrt(linb_50.alphas[t - 1]), rtol=1e-15)

    def test_scalar_hand_case(self):
        # alpha_t = 0.99 and abar_t = 0.5 at t = 2
        betas = np.array([1.0 - 0.5 / 0.99, 0.01])
        sch = gs._from_betas(betas, "lower", np.array([1, 2]), 2)
        assert sch.alphas[1] == pytest.approx(0.99)
        assert sch.alpha_bars[1] == pytest.approx(0.5)
        mu = gm.mu_from_eps(np.array([1.0]), 2, np.array([1.0]), sch)
        assert mu[0] == pytest.approx((1.0 - 0.01 / np.sqrt(0.5)) / np.sqrt(0.99),
                                      rel=1e-12)

    def test_recovers_posterior_mean(self, linb_50):
        # exact eps: mu_from_eps equals the posterior mean mu_tilde(x_t, x_0)
        from guidelab.forward import q_sample
        from oracles import posterior_mean_var
        x0 = rng_stream(3, 1).standard_normal(8)
        for t in (2, 10, 40):
            ns = q_sample(x0, t, linb_50, rng_stream(3, t))
            mu = gm.mu_from_eps(ns.x_t, t, ns.eps, linb_50)
            expected, _ = posterior_mean_var(ns.x_t, x0, t, linb_50)
            np.testing.assert_allclose(mu, expected, atol=1e-9)


class TestAnalyticClassifier:
    def test_single_class_degenerate(self, single_gaussian_8, linb_50):
        clf = gm.AnalyticClassifier(single_gaussian_8, linb_50)
        x = rng_stream(4, 0).standard_normal((1, 8))
        assert clf.class_logprobs(x, 10) == pytest.approx(0.0, abs=1e-12)
        logp, grad = clf.class_grad(x, 10, 0)
        assert logp == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)
        np.testing.assert_allclose(clf.class_grad_direction(x, 10, 0), 0.0)

    def test_symmetric_bisector(self, two_gmm_8, linb_50):
        clf = gm.AnalyticClassifier(two_gmm_8, linb_50)
        x = np.zeros((1, 8))
        x[0, 1] = 1.7   # on the perpendicular bisector of the two means
        lp = clf.class_logprobs(x, 20)
        np.testing.assert_allclose(np.exp(lp), 0.5, atol=1e-12)
        grad = clf.class_grad(x, 20, 0)[1][0]
        direction = two_gmm_8.means[0] - two_gmm_8.means[1]
        cos = grad @ direction / (np.linalg.norm(grad) * np.linalg.norm(direction))
        assert cos == pytest.approx(1.0, abs=1e-12)

    def test_matches_finite_difference(self, gmm8_d8, linb_50):
        clf = gm.AnalyticClassifier(gmm8_d8, linb_50)
        rng = rng_stream(5, 0)
        t, h = 25, 1e-5
        x = rng.standard_normal((100, 8)) * 4.0
        y = rng.integers(0, 8, size=100)
        _, grad = clf.class_grad(x, t, y)
        fd = np.empty_like(x)
        for j in range(8):
            e = np.zeros(8)
            e[j] = h
            lp_plus = clf.class_logprobs(x + e, t)[np.arange(100), y]
            lp_minus = clf.class_logprobs(x - e, t)[np.arange(100), y]
            fd[:, j] = (lp_plus - lp_minus) / (2 * h)
        assert np.abs(grad - fd).max() < 1e-5

    def test_logprobs_normalized(self, gmm8_d8, linb_50):
        clf = gm.AnalyticClassifier(gmm8_d8, linb_50)
        x = rng_stream(5, 1).standard_normal((50, 8)) * 5.0
        lp = clf.class_logprobs(x, 40)
        lse = np.log(np.sum(np.exp(lp), axis=1))
        np.testing.assert_allclose(lse, 0.0, atol=1e-9)

    def test_prob_gradients_sum_to_zero(self, gmm8_d8, linb_50):
        # sum_y grad p(y|x) = grad 1 = 0
        clf = gm.AnalyticClassifier(gmm8_d8, linb_50)
        x = rng_stream(5, 2).standard_normal((20, 8)) * 3.0
        total = np.zeros_like(x)
        for y in range(8):
            logp, grad = clf.class_grad(x, 30, np.full(20, y))
            total += np.exp(logp)[:, None] * grad
        np.testing.assert_allclose(total, 0.0, atol=1e-8)

    def test_direction_matches_normalized_grad(self, gmm8_d8, linb_50):
        # agreement is only meaningful away from saturation, where the raw
        # gradient still carries the direction
        clf = gm.AnalyticClassifier(gmm8_d8, linb_50)
        x = rng_stream(5, 3).standard_normal((30, 8))
        y = rng_stream(5, 4).integers(0, 8, size=30)
        logp, grad = clf.class_grad(x, 30, y)
        unit = clf.class_grad_direction(x, 30, y)
        keep = np.exp(logp) < 0.99
        assert keep.sum() >= 10
        norms = np.linalg.norm(grad[keep], axis=1, keepdims=True)
        np.testing.assert_allclose(unit[keep], grad[keep] / norms, atol=1e-9)

    def test_direction_survives_saturation(self, linb_50):
        """Deep inside a class's territory p(y|x) saturates to 1 and the raw
        log-probability gradient underflows to 0, but the unit direction must
        stay well defined and unit-norm."""
        desc = gd.eight_gaussians(dim=8, radius=200.0, sigma=0.5)
        clf = gm.AnalyticClassifier(desc, linb_50)
        x = desc.means[3:4] + 0.1
        _, raw = clf.class_grad(x, 1, 3)
        assert np.linalg.norm(raw) == 0.0          # saturated: underflowed
        unit = clf.class_grad_direction(x, 1, 3)
        assert np.linalg.norm(unit) == pytest.approx(1.0, rel=1e-12)

    def test_direction_weights_vanish_only_without_competitors(self):
        # (C, N) logits, one column a case: competitors all at -inf (a zero
        # direction), or an own logit or a competitor that is not finite
        z = np.array([[0.0, 1.0, -np.inf, np.nan, 2.0],
                      [-np.inf, 0.5, 0.0, 0.0, np.nan],
                      [-np.inf, -2.0, 1.0, 1.0, 0.0]])
        with np.errstate(invalid="ignore"):
            w = gm._direction_weights(z.copy(), np.zeros(5, dtype=np.int64))
        np.testing.assert_array_equal(w[:, 0], 0.0)
        assert np.isfinite(w[:, 1]).all() and w[0, 1] == pytest.approx(1.0)
        assert np.isnan(w[:, 2:]).all()

    def test_label_out_of_range(self, gmm8_d8, linb_50):
        clf = gm.AnalyticClassifier(gmm8_d8, linb_50)
        with pytest.raises(gm.ModelError):
            clf.class_grad(np.zeros((1, 8)), 1, 8)

    def test_predict_at_zero_noise(self, gmm8_d8, linb_50):
        clf = gm.AnalyticClassifier(gmm8_d8, linb_50)
        preds = clf.predict(gmm8_d8.means, 0)
        np.testing.assert_array_equal(preds, np.arange(8))


@pytest.fixture(scope="module")
def backends(gmm8_d8, linb_50):
    """One model of each class, analytic and learned, on D = 8 and C = 8; the
    learned ones untrained."""
    def mlp(seed):
        return gm.MLP((8 + 8, 16, 8), rng=rng_stream(10, seed))
    return {"AnalyticDenoiser": gm.AnalyticDenoiser(gmm8_d8, linb_50),
            "AnalyticClassifier": gm.AnalyticClassifier(gmm8_d8, linb_50),
            "LearnedDenoiser": gm.LearnedDenoiser(mlp(0), linb_50, 8, 8),
            "LearnedClassifier": gm.LearnedClassifier(mlp(1), linb_50, 8, 8, 8)}


class TestInputShape:
    """Every public model method takes an (N, D) batch only: any other shape,
    a single point (D,) among them, is a ModelError that names (N, D)."""

    METHODS = [("AnalyticDenoiser", "predict_eps"), ("LearnedDenoiser", "predict_eps")] + [
        (backend, method) for backend in ("AnalyticClassifier", "LearnedClassifier")
        for method in ("class_logprobs", "class_grad", "class_grad_direction", "predict")]

    @staticmethod
    def _call(model, method, x):
        args = (x, 3, 2) if method in ("class_grad", "class_grad_direction") else (x, 3)
        return getattr(model, method)(*args)

    @pytest.mark.parametrize("backend, method", METHODS)
    @pytest.mark.parametrize("shape", [(8,), (4, 5), (4, 9), (2, 4, 8)],
                             ids=["point", "fewer_dims", "more_dims", "stacked"])
    def test_other_shapes_refused(self, backends, backend, method, shape):
        with pytest.raises(gm.ModelError, match=rf"expected an \(N, 8\) batch, got shape "
                                                rf"{re.escape(str(shape))}$"):
            self._call(backends[backend], method, np.zeros(shape))

    @pytest.mark.parametrize("backend, method", METHODS)
    def test_rows_are_one_row_batches(self, backends, backend, method):
        # equal up to the rounding of the GEMMs, which depends on N
        x = rng_stream(10, 0).standard_normal((5, 8)) * 3.0
        batch = self._call(backends[backend], method, x)
        for i in range(len(x)):
            row = self._call(backends[backend], method, x[i:i + 1])
            for got, want in zip(*(out if method == "class_grad" else (out,)
                                   for out in (batch, row))):
                np.testing.assert_allclose(got[i:i + 1], want, rtol=0,
                                           atol=1e-12 * np.max(np.abs(want)))


def _direct_posterior(desc, sch, x, t, y):
    """Reference values from the per-component (N, C, D) form of q_t's
    mixture, independent of the GEMM-form kernel in ``models``."""
    ab = 1.0 if t == 0 else sch.alpha_bars[t - 1]
    m = np.sqrt(ab) * desc.means
    v = desc.variances if t == 0 else ab * desc.variances + (1.0 - ab)
    diff = x[:, None, :] - m[None]                                  # (N, C, D)
    lj = mixture_log_joint(desc, sch, x, t)
    lz = np.logaddexp.reduce(lj, axis=1)
    lp = lj - lz[:, None]
    pulls = -diff / v                                               # (N, C, D)
    score = np.einsum("nc,ncd->nd", np.exp(lp), pulls)
    rows = np.arange(len(x))
    pull_y = pulls[rows, y]
    comp = lj.copy()
    comp[rows, y] = -np.inf
    with np.errstate(invalid="ignore"):
        w = np.nan_to_num(np.exp(comp - comp.max(axis=1, keepdims=True)))
    vdir = np.sum(w[:, :, None] * (pull_y[:, None, :] - pulls), axis=1)
    norm = np.linalg.norm(vdir, axis=1, keepdims=True)
    return {"eps": -np.sqrt(1.0 - ab) * score, "logprobs": lp,
            "logp": lp[rows, y], "grad": pull_y - score,
            "unit": np.divide(vdir, norm, out=np.zeros_like(vdir), where=norm > 0),
            "grad_scale": (np.linalg.norm(x, axis=1) * np.max(1.0 / v)
                           + np.max(np.linalg.norm(m / v, axis=1)))}


class TestKernelEquivalence:
    """The GEMM-form kernel against the direct per-component form, on points
    within 4 sigma of q_t, at t = 0, at saturation (p_y -> 1) and for C = 1."""

    @pytest.mark.parametrize("case", ["eight_d8", "eight_d64", "far_d8", "one_class"])
    @pytest.mark.parametrize("t", [0, 1, 10, 250, 500, 1000])
    def test_matches_direct_form(self, case, t, linb_1000):
        desc = {"eight_d8": gd.eight_gaussians(dim=8),
                "eight_d64": gd.eight_gaussians(dim=64),
                "far_d8": gd.eight_gaussians(dim=8, radius=200.0),
                "one_class": gd.ManifoldDescriptor(
                    kind="gaussian_mixture", dim=8, weights=np.array([1.0]),
                    means=np.full((1, 8), 0.5), variances=np.array([0.3]))}[case]
        den = gm.AnalyticDenoiser(desc, linb_1000)
        clf = gm.AnalyticClassifier(desc, linb_1000)
        rng = rng_stream(11, t)
        n, C = 128, desc.n_classes
        ab = 1.0 if t == 0 else linb_1000.alpha_bars[t - 1]
        v = desc.variances if t == 0 else ab * desc.variances + (1.0 - ab)
        comp = rng.integers(0, C, size=n)
        z = np.clip(rng.standard_normal((n, desc.dim)), -4.0, 4.0)
        x = np.sqrt(ab) * desc.means[comp] + np.sqrt(v[comp]) * z
        y = rng.integers(0, C, size=n)
        y[: n // 4] = comp[: n // 4]   # a quarter targets its own component
        ref = _direct_posterior(desc, linb_1000, x, t, y)

        def close_rows(got, want, scale):
            err = np.linalg.norm(got - want, axis=1)
            assert np.all(err <= 1e-10 * scale), float(np.max(err / scale))

        def close_logs(got, want):
            assert np.all(np.abs(got - want) <= 1e-10 * (1.0 + np.abs(want)))

        eps = den.predict_eps(x, t)
        close_rows(eps, ref["eps"], np.linalg.norm(ref["eps"], axis=1))
        close_logs(clf.class_logprobs(x, t), ref["logprobs"])
        logp, grad = clf.class_grad(x, t, y)
        close_logs(logp, ref["logp"])
        close_rows(grad, ref["grad"], ref["grad_scale"])
        unit = clf.class_grad_direction(x, t, y)
        vanished = np.linalg.norm(ref["unit"], axis=1) == 0
        np.testing.assert_array_equal(np.linalg.norm(unit, axis=1) == 0, vanished)
        close_rows(unit, ref["unit"], 1.0)
        if C == 1:
            assert vanished.all()
        elif case == "far_d8" and t <= 10:
            # the raw gradient has underflowed where the direction has not
            saturated = ref["logp"] == 0.0
            assert saturated.sum() >= n // 8
            assert not vanished[saturated].any()

    def test_kept_table_follows_the_step(self, linb_1000):
        # a model keeps its last step's table; asked at steps in any order,
        # it answers as a fresh model does at each step
        desc = gd.eight_gaussians(dim=8)
        den, clf = gm.AnalyticDenoiser(desc, linb_1000), gm.AnalyticClassifier(desc, linb_1000)
        x = rng_stream(12, 0).standard_normal((16, 8))
        for t in (10, 10, 500, 0, 500, 10, 1000, 0):
            new_den = gm.AnalyticDenoiser(desc, linb_1000)
            new_clf = gm.AnalyticClassifier(desc, linb_1000)
            for got, want in ((den.predict_eps(x, t), new_den.predict_eps(x, t)),
                              (clf.class_logprobs(x, t), new_clf.class_logprobs(x, t)),
                              (clf.class_grad(x, t, 3)[1], new_clf.class_grad(x, t, 3)[1]),
                              (clf.class_grad_direction(x, t, 3),
                               new_clf.class_grad_direction(x, t, 3))):
                np.testing.assert_array_equal(got, want)


def _random_mixture(n_classes, dim, seed):
    rng = rng_stream(seed, 7)
    return gd.ManifoldDescriptor(kind="gaussian_mixture", dim=dim,
                                 weights=rng.dirichlet(np.ones(n_classes)),
                                 means=rng.standard_normal((n_classes, dim)) * 4.0,
                                 variances=rng.uniform(0.05, 2.0, (n_classes, dim)))


def _same_bits(got, want):
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


class TestComponentMajorKernel:
    """The analytic models keep the log-joint, the softmax and the weights as
    (C, N).  Their answers equal the row-layout kernel (``oracles.row_kernel``)
    bit for bit: at the bench geometry, at small class counts, at a D that is
    not a multiple of 8 and at row counts other than the block's."""

    GEOMETRIES = {
        "bench": (lambda: gd.eight_gaussians(), 256),
        "c1": (lambda: _random_mixture(1, 8, 1), 64),
        "c2": (lambda: _random_mixture(2, 8, 2), 64),
        "c3": (lambda: _random_mixture(3, 12, 3), 64),
        "d7": (lambda: gd.eight_gaussians(dim=7), 256),
        "d65_odd_rows": (lambda: gd.eight_gaussians(dim=65), 255),
        "c16_d9_odd_rows": (lambda: _random_mixture(16, 9, 4), 255),
        "one_row": (lambda: gd.eight_gaussians(dim=16), 1),
    }

    @pytest.mark.parametrize("geometry", list(GEOMETRIES))
    def test_bit_equal_to_row_form(self, geometry, lina_1000):
        make, n = self.GEOMETRIES[geometry]
        desc = make()
        den = gm.AnalyticDenoiser(desc, lina_1000)
        clf = gm.AnalyticClassifier(desc, lina_1000)
        rng = rng_stream(30, desc.n_classes)
        for trial, t in enumerate((0, 1, 40, 250, 700, 1000)):
            # points near q_t's components, far out (p_y saturates), and a mix
            scale = (0.5, 2.0, 12.0)[trial % 3]
            x = rng.standard_normal((n, desc.dim)) * scale
            x[: n // 2] += np.sqrt(lina_1000.alpha_bars[max(t, 1) - 1]) * desc.means[
                rng.integers(0, desc.n_classes, n // 2)]
            y = rng.integers(0, desc.n_classes, size=n)
            want = row_kernel(desc, lina_1000, x, t, y)
            _same_bits(den.predict_eps(x, t), want["eps"])
            _same_bits(clf.class_logprobs(x, t), want["logprobs"])
            logp, grad = clf.class_grad(x, t, y)
            _same_bits(logp, want["logp"])
            _same_bits(grad, want["grad"])
            _same_bits(clf.class_grad_direction(x, t, y), want["unit"])

    SPECIAL = {"neg_zero": -0.0, "pos_inf": np.inf, "neg_inf": -np.inf, "nan": np.nan}

    @pytest.mark.parametrize("n_classes", list(range(1, 41)) + [128, 129, 300])
    def test_component_sum_is_numpys_row_sum(self, n_classes):
        # numpy sums a contiguous row pairwise; the helper sums a column of
        # the transpose in that order, -0.0, infinities and NaN included
        rng = rng_stream(31, n_classes)
        rows = rng.standard_normal((64, n_classes)) * 10.0 ** rng.integers(-8, 9, (64, n_classes))
        rows[0] = -0.0
        rows[1, ::2] = -0.0
        rows[1, 1::2] = 0.0
        for i, value in enumerate(self.SPECIAL.values()):
            rows[2 + i, rng.integers(0, n_classes)] = value
        rows[6, 0], rows[6, -1] = np.inf, -np.inf
        rows[7, rng.integers(0, n_classes, 3)] = -0.0
        with np.errstate(invalid="ignore"):  # inf + -inf
            _same_bits(gm._component_sum(np.ascontiguousarray(rows.T)), np.sum(rows, axis=1))


@pytest.fixture(scope="module")
def trained_pair():
    """Denoiser and classifier trained briefly on a small 8-GMM benchmark."""
    desc = gd.eight_gaussians()
    ds = gd.generate(desc, 2048, seed=13)
    sch = gs.build_linear_alphabar(200)
    hyper = gm.Hyperparams(epochs=40)
    den, den_report = gm.train_denoiser(ds, sch, hyper, seed=21)
    clf, clf_report = gm.train_classifier(ds, sch, hyper, seed=22)
    return desc, ds, sch, den, den_report, clf, clf_report


class TestTraining:
    def test_denoiser_loss_halves(self, trained_pair):
        _, _, _, _, report, _, _ = trained_pair
        assert len(report.epoch_losses) == 40
        assert report.final_loss < 0.5 * report.epoch_losses[0]

    def test_denoiser_determinism(self):
        desc = gd.eight_gaussians(dim=8)
        ds = gd.generate(desc, 256, seed=2)
        sch = gs.build_linear_beta(50, 1e-4, 0.02)
        hyper = gm.Hyperparams(hidden=(32, 32), t_embed_dim=8, epochs=3)
        m1, _ = gm.train_denoiser(ds, sch, hyper, seed=9)
        m2, _ = gm.train_denoiser(ds, sch, hyper, seed=9)
        np.testing.assert_array_equal(m1.mlp.flat_params(), m2.mlp.flat_params())
        m3, _ = gm.train_denoiser(ds, sch, hyper, seed=10)
        assert not np.array_equal(m1.mlp.flat_params(), m3.mlp.flat_params())

    def test_classifier_determinism(self):
        desc = gd.eight_gaussians(dim=8)
        ds = gd.generate(desc, 256, seed=2)
        sch = gs.build_linear_beta(50, 1e-4, 0.02)
        hyper = gm.Hyperparams(hidden=(32, 32), t_embed_dim=8, epochs=3)
        m1, _ = gm.train_classifier(ds, sch, hyper, seed=9)
        m2, _ = gm.train_classifier(ds, sch, hyper, seed=9)
        np.testing.assert_array_equal(m1.mlp.flat_params(), m2.mlp.flat_params())

    def test_classifier_accuracy_by_noise(self, trained_pair):
        desc, _, sch, _, _, clf, _ = trained_pair
        test = gd.generate(desc, 2000, seed=99)
        rng = rng_stream(7, 0)
        # low noise: 1 - abar_t = 0.01 -> t = 2 under abar_t = 1 - t/200
        t_low = 2
        ab = sch.alpha_bars[t_low - 1]
        x_low = np.sqrt(ab) * test.points + np.sqrt(1 - ab) * rng.standard_normal(test.points.shape)
        acc_low = float(np.mean(clf.predict(x_low, t_low) == test.labels))
        assert acc_low >= 0.95
        # full noise: abar_T ~ 0, accuracy collapses to chance
        x_high = rng.standard_normal(test.points.shape)
        acc_high = float(np.mean(clf.predict(x_high, sch.T) == test.labels))
        assert acc_high == pytest.approx(1.0 / 8.0, abs=0.05)

    def test_memorization_limit(self):
        # single-point dataset: at heavy noise the optimum predicts the
        # injected eps itself; replayed training pairs reach near-zero loss
        desc = gd.ManifoldDescriptor(kind="gaussian_mixture", dim=4,
                                     weights=np.array([1.0]),
                                     means=np.zeros((1, 4)),
                                     variances=np.array([1e-8]))
        ds = gd.generate(desc, 64, seed=0)
        sch = gs.build_linear_beta(10, 0.3, 0.5)
        hyper = gm.Hyperparams(hidden=(64, 64), t_embed_dim=8, epochs=150,
                               batch_size=64)
        _, report = gm.train_denoiser(ds, sch, hyper, seed=5)
        assert report.final_loss < 0.1

    def test_nonfinite_loss_aborts(self):
        desc = gd.eight_gaussians(dim=8)
        ds = gd.generate(desc, 128, seed=2)
        sch = gs.build_linear_beta(50, 1e-4, 0.02)
        hyper = gm.Hyperparams(hidden=(16, 16), t_embed_dim=8, epochs=5, lr=1e80,
                               grad_clip=1e300)
        # lr = 1e80 blows the weights up on purpose, so numpy warns on the way
        with (pytest.warns(RuntimeWarning, match="overflow|invalid value"),
              pytest.raises(gm.TrainingError)):
            gm.train_denoiser(ds, sch, hyper, seed=0)

    def test_classifier_needs_two_classes(self, single_gaussian_8, linb_50):
        ds = gd.generate(single_gaussian_8, 64, seed=0)
        with pytest.raises(gm.ModelError):
            gm.train_classifier(ds, linb_50)


class TestLearnedGradients:
    def test_classifier_input_grad_fd(self, trained_pair):
        _, _, sch, _, _, clf, _ = trained_pair
        rng = rng_stream(8, 0)
        h, t = 1e-4, 17
        worst = 0.0
        for _ in range(50):
            x = rng.standard_normal((1, 64)) * 4.0
            y = int(rng.integers(0, 8))
            grad = clf.class_grad(x, t, y)[1][0]
            fd = np.empty(64)
            for j in range(64):
                e = np.zeros(64)
                e[j] = h
                fd[j] = (clf.class_grad(x + e, t, y)[0][0]
                         - clf.class_grad(x - e, t, y)[0][0]) / (2 * h)
            denom = max(np.linalg.norm(fd), 1e-12)
            worst = max(worst, np.linalg.norm(grad - fd) / denom)
        assert worst < 1e-3

    def test_denoiser_vjp_fd(self, trained_pair):
        _, _, sch, den, _, _, _ = trained_pair
        rng = rng_stream(8, 1)
        h, t = 1e-4, 17
        for _ in range(10):
            x = rng.standard_normal((1, 64))
            u = rng.standard_normal(64)
            # the gradient of u . eps_theta(x, t), by the net's own backward pass
            _, cache = den.mlp.forward(gm._net_input(x, t, den.t_embed_dim))
            g = den.mlp.backward(cache, u[None])[1][0, :64]
            fd = np.empty(64)
            for j in range(64):
                e = np.zeros(64)
                e[j] = h
                fd[j] = (u @ den.predict_eps(x + e, t)[0]
                         - u @ den.predict_eps(x - e, t)[0]) / (2 * h)
            assert np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12) < 1e-3

    def test_learned_direction_matches_grad(self, trained_pair):
        _, _, _, _, _, clf, _ = trained_pair
        x = rng_stream(8, 2).standard_normal((20, 64)) * 3.0
        y = rng_stream(8, 3).integers(0, 8, size=20)
        logp, grad = clf.class_grad(x, 30, y)
        unit = clf.class_grad_direction(x, 30, y)
        keep = np.exp(logp) < 0.99
        assert keep.sum() >= 5
        norms = np.linalg.norm(grad[keep], axis=1, keepdims=True)
        np.testing.assert_allclose(unit[keep], grad[keep] / norms, atol=1e-9)

    def test_learned_logprobs_normalized(self, trained_pair):
        _, _, _, _, _, clf, _ = trained_pair
        lp = clf.class_logprobs(rng_stream(8, 4).standard_normal((30, 64)), 5)
        np.testing.assert_allclose(np.log(np.sum(np.exp(lp), axis=1)), 0.0,
                                   atol=1e-9)


class TestCheckpoints:
    def test_learned_roundtrip(self, trained_pair, tmp_path):
        _, _, sch, den, _, clf, _ = trained_pair
        probes = rng_stream(9, 0).standard_normal((100, 64))
        for model, name in ((den, "den"), (clf, "clf")):
            path = tmp_path / f"{name}.gmod"
            gm.save_model(model, path)
            back = gm.load_model(path, sch)
            if name == "den":
                np.testing.assert_array_equal(back.predict_eps(probes, 7),
                                              model.predict_eps(probes, 7))
            else:
                np.testing.assert_array_equal(back.class_logprobs(probes, 7),
                                              model.class_logprobs(probes, 7))

    def test_analytic_model_not_saved(self, gmm8_d8, linb_50, tmp_path):
        # the config rebuilds analytic models; only trained ones are checkpoints
        path = tmp_path / "a.gmod"
        for model in (gm.AnalyticDenoiser(gmm8_d8, linb_50),
                      gm.AnalyticClassifier(gmm8_d8, linb_50)):
            with pytest.raises(gm.ModelError, match="only trained models"):
                gm.save_model(model, path)
        assert not path.exists()

    @staticmethod
    def _small_denoiser(schedule):
        return gm.LearnedDenoiser(gm.MLP((12, 16, 4), rng=np.random.default_rng(0)),
                                  schedule, 4, 8)

    def test_fingerprint_mismatch(self, linb_50, tmp_path):
        path = tmp_path / "m.gmod"
        gm.save_model(self._small_denoiser(linb_50), path)
        other = gs.build_linear_beta(50, 1e-4, 0.03)
        with pytest.raises(gm.ModelMismatchError):
            gm.load_model(path, other)

    def test_respaced_schedule_accepted(self, linb_50, tmp_path):
        # base fingerprint survives respacing, so checkpoints stay loadable
        den = self._small_denoiser(linb_50)
        path = tmp_path / "r.gmod"
        gm.save_model(den, path)
        probes = rng_stream(9, 1).standard_normal((20, 4))
        back = gm.load_model(path, gs.respace(linb_50, 10))
        np.testing.assert_array_equal(back.predict_eps(probes, 3), den.predict_eps(probes, 3))

    @pytest.mark.parametrize("cut", [20, "header"])
    def test_truncated_checkpoint(self, linb_50, tmp_path, cut):
        # a checkpoint cut short once read as a CRC mismatch
        path = tmp_path / "t.gmod"
        gm.save_model(self._small_denoiser(linb_50), path)
        raw = path.read_bytes()
        keep = len(raw) - 20 if cut == 20 else 30
        path.write_bytes(raw[:keep])
        with pytest.raises(gd.TruncatedFileError, match=f"got {keep}$"):
            gm.load_model(path, linb_50)

    def test_corrupted_checkpoint(self, linb_50, tmp_path):
        from guidelab.data import ChecksumError
        den = self._small_denoiser(linb_50)
        path = tmp_path / "c.gmod"
        gm.save_model(den, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            gm.load_model(path, linb_50)
        with pytest.raises(gm.ModelError):
            den.predict_eps(np.zeros(5), 1)
