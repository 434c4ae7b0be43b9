"""Guidance adjustments: the three rules, cut-off logic, and the guided step."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from guidelab import data as gd
from guidelab import models as gm
from guidelab import schedule as gs
from guidelab.forward import rng_stream
from guidelab.models import mu_from_eps
from guidelab.guidance import GuidanceError, GuidanceRule, adjustment, guided_reverse_step


@pytest.fixture(scope="module")
def setup(small_descriptor):
    sch = gs.build_linear_beta(50, 1e-4, 0.02)
    clf = gm.AnalyticClassifier(small_descriptor, sch)
    return sch, clf


class TestRuleValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            GuidanceRule(kind="magic")

    def test_rejects_negative_scale(self):
        with pytest.raises(ValueError):
            GuidanceRule(kind="adm_g", scale=-1.0)

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ValueError):
            GuidanceRule(kind="geoguide", scale=1.0, cutoff_fraction=1.5)

    @pytest.mark.parametrize("kwargs, named", [
        # a negative T_eff would reverse the guidance direction
        (dict(t_override=-5), "-5"),
        # 0 would silently stand for the executed step count
        (dict(t_override=0), "0"),
        (dict(t_override=2.5), "2.5"),
        (dict(t_override=True), "True"),
        # s = inf makes a vanished direction's s * 0 NaN
        (dict(scale=np.inf), "inf"),
        (dict(scale=np.nan), "nan"),
        (dict(scale=-1.0), "-1.0"),
        (dict(cutoff_fraction=np.nan), "nan"),
    ])
    def test_bad_values_named(self, kwargs, named):
        with pytest.raises(ValueError, match=f"got {named}$"):
            GuidanceRule(**{"kind": "geoguide", "scale": 1.0, **kwargs})

    def test_accepts_integer_overrides(self):
        assert GuidanceRule("geoguide", 1.0, t_override=1).t_override == 1
        assert GuidanceRule("geoguide", 1.0, t_override=np.int64(250)).t_override == 250


class TestRuleSteps:
    """``GuidanceRule.step_key`` decides whether a rule acts at a step and
    which rules share it."""

    def test_none_is_never_guided(self):
        rule = GuidanceRule("none", scale=2.0)
        assert [rule.step_key(k, 50) for k in range(50)] == [None] * 50
        assert not rule.active(np.arange(50), 50).any()

    def test_cutoff_counts_steps(self):
        rule = GuidanceRule("geoguide", 1.0, cutoff_fraction=0.3)
        total = 50
        keys = [rule.step_key(k, total) for k in range(total)]
        # exactly ceil(0.3 * 50) = 15 initial steps guided
        assert keys == [("geoguide", 1.0, None)] * 15 + [None] * 35
        np.testing.assert_array_equal(rule.active(np.arange(total), total),
                                      [key is not None for key in keys])

    def test_equal_keys_mean_equal_guidance(self):
        full, cut = (GuidanceRule("adm_g", 1.0, cutoff_fraction=c) for c in (1.0, 0.3))
        # the cut rule shares its twin's steps up to the cut-off
        assert full.step_key(14, 50) == cut.step_key(14, 50) is not None
        assert cut.step_key(15, 50) is None and full.step_key(15, 50) is not None
        # geoguide at s = 0 adds 0 * A_t but is guided, unlike none
        assert GuidanceRule("geoguide", 0.0).step_key(0, 50) is not None
        others = [GuidanceRule("geoguide", 1.0), GuidanceRule("geoguide", 2.0),
                  GuidanceRule("geoguide_scaled", 1.0),
                  GuidanceRule("geoguide", 1.0, t_override=1000), full]
        assert len({rule.step_key(0, 50) for rule in others}) == len(others)


class TestAdjustment:
    def test_geoguide_norm_exact(self, setup):
        sch, clf = setup
        rule = GuidanceRule("geoguide", scale=1.0)
        x = rng_stream(0, 1).standard_normal((1, 8))
        a = adjustment(rule, clf, x, 25, 0, sch, 10, 250)
        target = np.sqrt(8) / 250
        assert abs(np.linalg.norm(a) - target) / target < 1e-12

    def test_geoguide_d64_hand_value(self, linb_1000):
        # sqrt(64) / 250 = 0.032 exactly
        desc = gd.eight_gaussians()
        clf = gm.AnalyticClassifier(desc, linb_1000)
        sch = gs.respace(linb_1000, 250)
        x = rng_stream(0, 2).standard_normal((1, 64))
        a = adjustment(GuidanceRule("geoguide", 1.0), clf, x, 100, 2, sch, 5, sch.T)
        assert np.linalg.norm(a) == pytest.approx(0.032, rel=1e-12)

    def test_t_override(self, setup):
        sch, clf = setup
        x = rng_stream(0, 3).standard_normal((1, 8))
        rule = GuidanceRule("geoguide", 1.0, t_override=1000)
        a = adjustment(rule, clf, x, 25, 0, sch, 0, 50)
        assert np.linalg.norm(a) == pytest.approx(np.sqrt(8) / 1000, rel=1e-12)

    def test_scaled_variant_ratio(self, setup):
        sch, clf = setup
        x = rng_stream(0, 4).standard_normal((1, 8))
        for pos in (1, 10, 25, 50):
            base = adjustment(GuidanceRule("geoguide", 1.0), clf, x, pos, 0,
                              sch, 0, 50)
            scaled = adjustment(GuidanceRule("geoguide_scaled", 1.0), clf, x,
                                pos, 0, sch, 0, 50)
            expect = np.sqrt(1.0 - sch.alpha_bars[pos - 1])
            assert (np.linalg.norm(scaled) / np.linalg.norm(base)
                    == pytest.approx(expect, rel=1e-12))

    def test_adm_g_formula(self, setup):
        sch, clf = setup
        x = rng_stream(0, 5).standard_normal((1, 8))
        pos = 20
        a = adjustment(GuidanceRule("adm_g", 1.0), clf, x, pos, 1, sch, 0, 50)
        _, grad = clf.class_grad(x, int(sch.timesteps[pos - 1]), 1)
        np.testing.assert_allclose(a, sch.gammas[pos - 1] * grad, rtol=1e-12)

    def test_adm_g_identity_grad_p_over_p(self, setup):
        # gamma_t grad log p == (gamma_t / p) grad p via finite differences on p
        sch, clf = setup
        x = np.array([[0.3, 1.0, -0.2, 0.5, 0.0, 0.1, -0.4, 0.2]])
        pos, y, h = 20, 0, 1e-6
        t = int(sch.timesteps[pos - 1])
        a = adjustment(GuidanceRule("adm_g", 1.0), clf, x, pos, y, sch, 0, 50)
        p = np.exp(clf.class_logprobs(x, t)[0, y])
        grad_p = np.empty(8)
        for j in range(8):
            e = np.zeros(8)
            e[j] = h
            grad_p[j] = (np.exp(clf.class_logprobs(x + e, t)[0, y])
                         - np.exp(clf.class_logprobs(x - e, t)[0, y])) / (2 * h)
        np.testing.assert_allclose(a[0], sch.gammas[pos - 1] / p * grad_p, atol=1e-9)

    def test_adm_g_two_gmm_hand_gradient(self):
        """Closed-form gradient of the 2-component Bayes posterior in D=2:
        grad log p(0|x) = (1 - p(0|x)) (mu_0 - mu_1) / v at equal variances."""
        desc = gd.ManifoldDescriptor(kind="gaussian_mixture", dim=2,
                                     weights=np.array([0.5, 0.5]),
                                     means=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                                     variances=np.array([1.0, 1.0]))
        sch = gs.build_linear_beta(10, 1e-3, 1e-2)
        clf = gm.AnalyticClassifier(desc, sch)
        pos = 5
        t = int(sch.timesteps[pos - 1])
        ab = sch.alpha_bars[pos - 1]
        v = ab * 1.0 + (1 - ab)
        x = np.array([[0.0, 0.7]])   # on the bisector: p = 0.5
        a = adjustment(GuidanceRule("adm_g", 1.0), clf, x, pos, 0, sch, 0, 10)
        hand = 0.5 * (np.sqrt(ab) * (desc.means[0] - desc.means[1])) / v
        np.testing.assert_allclose(a[0], sch.gammas[pos - 1] * hand, rtol=1e-9,
                                   atol=1e-15)

    def test_batched_matches_single(self, setup):
        sch, clf = setup
        xb = rng_stream(0, 7).standard_normal((6, 8))
        ys = np.array([0, 1, 0, 1, 0, 1])
        for kind in ("adm_g", "geoguide", "geoguide_scaled"):
            ab = adjustment(GuidanceRule(kind, 1.0), clf, xb, 20, ys, sch, 0, 50)
            for i in range(6):
                ai = adjustment(GuidanceRule(kind, 1.0), clf, xb[i:i + 1], 20,
                                int(ys[i]), sch, 0, 50)
                np.testing.assert_allclose(ab[i:i + 1], ai, rtol=1e-12)

    def test_single_point_refused(self, setup):
        sch, clf = setup
        for kind in ("adm_g", "geoguide"):
            with pytest.raises(gm.ModelError, match=r"expected an \(N, 8\) batch"):
                adjustment(GuidanceRule(kind, 1.0), clf, np.zeros(8), 20, 0, sch, 0, 50)

    @pytest.mark.parametrize("rule, step", [
        (GuidanceRule("none", 2.0), 0),
        (GuidanceRule("geoguide", 1.0, cutoff_fraction=0.3), 15),
        (GuidanceRule("adm_g", 1.0, cutoff_fraction=0.3), 49)],
        ids=["none", "geoguide_at_cutoff", "adm_g_past_cutoff"])
    def test_inactive_rule_is_refused(self, setup, rule, step):
        # no A_t where step_key says the rule does not act, not even a zero one
        sch, clf = setup
        assert rule.step_key(step, 50) is None
        x = rng_stream(0, 1).standard_normal((1, 8))
        with pytest.raises(ValueError, match=rf"rule {rule.kind} .* at step {step} of 50"):
            adjustment(rule, clf, x, 20, 0, sch, step, 50)

    def test_nonfinite_gradient_aborts(self, setup):
        sch, clf = setup
        x = np.full((1, 8), np.nan)
        with pytest.raises(GuidanceError):
            adjustment(GuidanceRule("adm_g", 1.0), clf, x, 20, 0, sch, 0, 50)

    @pytest.mark.parametrize("kind", ["adm_g", "geoguide", "geoguide_scaled"])
    def test_overflowing_row_aborts(self, setup, kind):
        # x * x overflows in a row of 1e200, so its log-joint is -inf for every
        # class: the gradient there is NaN, and so is the direction, not zero
        sch, clf = setup
        x = rng_stream(5, 0).standard_normal((4, 8))
        x[2] = 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(clf.class_grad(x, 20, 1)[1][2]).all()
            direction = clf.class_grad_direction(x, 20, 1)
            assert np.isnan(direction[2]).all()
            assert np.isfinite(np.delete(direction, 2, axis=0)).all()
            with pytest.raises(GuidanceError, match=r"at t=20 in row 2 \(class 1\)$"):
                adjustment(GuidanceRule(kind, 1.0), clf, x, 20, 1, sch, 0, 50)


def _learned_classifier(sch, dim=8, n_classes=2, seed=0):
    """An untrained learned classifier: random weights suffice for checking
    the geometry of the guidance path."""
    mlp = gm.MLP((dim + 8, 32, 32, n_classes), rng=rng_stream(seed, 99))
    return gm.LearnedClassifier(mlp, sch, dim, 8, n_classes)


class TestGeoguideDirection:
    """geoguide's adjustment is the factor times grad log p / ||grad log p||,
    for both backends, wherever the raw gradient still carries the direction."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), pos=st.integers(1, 50))
    def test_equals_normalized_class_grad(self, setup, seed, pos):
        sch, analytic = setup
        x = rng_stream(seed, 0).standard_normal((16, 8)) * 3.0
        y = rng_stream(seed, 1).integers(0, 2, size=16)
        y[:8] = x[:8, 0] > 0   # the far class of the analytic mixture: p_y < 1/2
        t = int(sch.timesteps[pos - 1])
        factor = np.sqrt(8) / 50
        for clf in (analytic, _learned_classifier(sch, seed=seed)):
            a = adjustment(GuidanceRule("geoguide", 1.0), clf, x, pos, y, sch, 0, 50)
            logp, grad = clf.class_grad(x, t, y)
            keep = np.exp(logp) < 0.99
            assert keep.sum() >= 4
            norm = np.linalg.norm(grad[keep], axis=1, keepdims=True)
            np.testing.assert_allclose(a[keep], factor * grad[keep] / norm,
                                       rtol=0, atol=1e-10 * factor)

    def test_zero_direction_gives_zero_adjustment(self, linb_50):
        # with one class, p(y|x) = 1 everywhere and the direction vanishes
        desc = gd.ManifoldDescriptor(kind="gaussian_mixture", dim=8,
                                     weights=np.array([1.0]), means=np.zeros((1, 8)),
                                     variances=np.array([1.0]))
        clf = gm.AnalyticClassifier(desc, linb_50)
        x = rng_stream(1, 0).standard_normal((4, 8))
        for kind in ("geoguide", "geoguide_scaled"):
            a = adjustment(GuidanceRule(kind, 1.0), clf, x, 20, 0, linb_50, 0, 50)
            np.testing.assert_array_equal(a, 0.0)


class _ScaledGradClassifier:
    """Wrapper whose direction is the normalization of c times the wrapped
    classifier's raw gradient, for a constant c >= 0."""

    def __init__(self, clf, c):
        self.clf, self.c = clf, c
        self.base_fingerprint = clf.base_fingerprint
        self.n_classes = clf.n_classes

    def class_grad(self, x, t, y):
        logp, grad = self.clf.class_grad(x, t, y)
        return logp, self.c * grad

    def class_grad_direction(self, x, t, y):
        return gm._unit(self.class_grad(x, t, y)[1])


class TestDirectionInvariance:
    @settings(max_examples=20, deadline=None)
    @given(c=st.floats(1e-6, 1e6), seed=st.integers(0, 1000))
    def test_positive_rescale_invariant(self, setup, c, seed):
        sch, clf = setup
        x = rng_stream(seed, 0).standard_normal((1, 8))
        rule = GuidanceRule("geoguide", 1.0)
        base = adjustment(rule, _ScaledGradClassifier(clf, 1.0), x, 20, 0, sch, 0, 50)
        scaled = adjustment(rule, _ScaledGradClassifier(clf, c), x, 20, 0, sch, 0, 50)
        np.testing.assert_allclose(scaled, base, atol=1e-12)

    def test_zero_gradient_skipped(self, setup):
        sch, clf = setup
        wrapped = _ScaledGradClassifier(clf, 0.0)
        x = rng_stream(1, 0).standard_normal((1, 8))
        for kind in ("geoguide", "geoguide_scaled"):
            a = adjustment(GuidanceRule(kind, 1.0), wrapped, x, 20, 0, sch, 0, 50)
            np.testing.assert_array_equal(a, 0.0)


class TestGuidedStep:
    def test_deterministic_limit(self):
        mu = np.array([1.0, -2.0])
        out = guided_reverse_step(mu, 0.0, np.zeros(2), 0.0, eps=np.zeros(2))
        np.testing.assert_array_equal(out, mu)

    def test_linearity_with_injected_eps(self):
        rng = rng_stream(2, 0)
        mu = rng.standard_normal(8)
        a_t = rng.standard_normal(8)
        eps = rng.standard_normal(8)
        s, gamma = 1.7, 0.3
        out = guided_reverse_step(mu, gamma, a_t, s, eps=eps)
        np.testing.assert_allclose(out - (mu + np.sqrt(gamma) * eps), s * a_t,
                                   rtol=1e-12)

    def test_unguided_step_adds_nothing(self):
        # a_t = None adds no s * 0 term, which would turn -0.0 into +0.0
        mu = np.array([-0.0, 1.0, -2.0])
        eps = np.array([-0.0, 0.5, 3.0])
        out = guided_reverse_step(mu, 0.25, None, 2.0, eps=eps)
        assert out.tobytes() == (mu + np.sqrt(0.25) * eps).tobytes()
        assert np.signbit(out[0])
        with_zero = guided_reverse_step(mu, 0.25, np.zeros(3), 2.0, eps=eps)
        assert not np.signbit(with_zero[0])
        np.testing.assert_array_equal(with_zero, out)

    def test_final_step_noise_free(self):
        mu = np.array([0.5, 0.5])
        out = guided_reverse_step(mu, 0.8, np.zeros(2), 0.0, is_final=True)
        np.testing.assert_array_equal(out, mu)
        # an injected eps is ignored at the final step
        out = guided_reverse_step(mu, 0.8, np.zeros(2), 0.0, is_final=True,
                                  eps=np.ones(2))
        np.testing.assert_array_equal(out, mu)

    def test_eps_required_before_final_step(self):
        with pytest.raises(ValueError, match="eps"):
            guided_reverse_step(np.zeros(2), 0.8, np.zeros(2), 0.0)

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            guided_reverse_step(np.zeros(2), -0.1, np.zeros(2), 0.0, eps=np.zeros(2))


def _frozen(a):
    """A read-only copy of a."""
    a = np.array(a)
    a.setflags(write=False)
    return a


class TestReadOnlyInputs:
    """Every kernel of a step allocates its output and never writes an input:
    called with read-only inputs, where a write into one would raise, each
    answers bit for bit as with writable copies."""

    @staticmethod
    def _same(got, want):
        for g, w in zip(got, want):
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()

    def test_models(self, setup, small_descriptor):
        sch, clf = setup
        mlp = gm.MLP((8 + 8, 16, 8), rng=rng_stream(3, 0))
        models = [gm.AnalyticDenoiser(small_descriptor, sch), clf,
                  gm.LearnedDenoiser(mlp, sch, 8, 8), _learned_classifier(sch)]
        x = rng_stream(3, 1).standard_normal((16, 8)) * 3.0
        y = rng_stream(3, 2).integers(0, 2, size=16)
        for model in models:
            calls = (["predict_eps"] if hasattr(model, "predict_eps") else
                     ["class_logprobs", "class_grad", "class_grad_direction"])
            for name in calls:
                args = (20,) if name in ("predict_eps", "class_logprobs") else (20, y)
                frozen_args = (20,) if len(args) == 1 else (20, _frozen(y))
                want = getattr(model, name)(x.copy(), *args)
                got = getattr(model, name)(_frozen(x), *frozen_args)
                self._same(got if name == "class_grad" else [got],
                           want if name == "class_grad" else [want])

    def test_mean_and_adjustment(self, setup):
        sch, clf = setup
        x = rng_stream(4, 0).standard_normal((16, 8))
        eps = rng_stream(4, 1).standard_normal((16, 8))
        self._same([mu_from_eps(_frozen(x), 20, _frozen(eps), sch)],
                   [mu_from_eps(x.copy(), 20, eps.copy(), sch)])
        y = np.arange(16) % 2
        for classifier in (clf, _learned_classifier(sch)):
            for kind in ("adm_g", "geoguide", "geoguide_scaled"):
                rule = GuidanceRule(kind, 1.0)
                self._same([adjustment(rule, classifier, _frozen(x), 20, _frozen(y), sch, 0,
                                       50)],
                           [adjustment(rule, classifier, x.copy(), 20, y.copy(), sch, 0, 50)])

    def test_reverse_step_on_the_noise_window(self):
        # the sampler passes a step's noise as a slice of its block's window
        window = _frozen(rng_stream(4, 2).standard_normal((16, 5, 8)))
        mu = _frozen(rng_stream(4, 3).standard_normal((16, 8)))
        a_t = _frozen(rng_stream(4, 4).standard_normal((16, 8)))
        for a, final in ((a_t, False), (None, False), (a_t, True), (None, True)):
            eps = window[:, 3]
            got = guided_reverse_step(mu, 0.3, a, 1.5, is_final=final, eps=eps)
            want = guided_reverse_step(mu.copy(), 0.3, None if a is None else a.copy(), 1.5,
                                       is_final=final, eps=eps.copy())
            self._same([got], [want])
