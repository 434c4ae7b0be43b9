"""Forward process: single steps, closed-form jumps, exact posterior."""

import numpy as np
import pytest

from guidelab import schedule as gs
from guidelab.forward import NoisedSample, posterior_mean_var, q_sample, q_step, rng_stream


class TestRngStream:
    def test_reproducible_and_keyed(self):
        a = rng_stream(7, 3).standard_normal(16)
        b = rng_stream(7, 3).standard_normal(16)
        c = rng_stream(7, 4).standard_normal(16)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestQStep:
    def test_near_zero_beta_is_identity(self):
        sch = gs.build_linear_beta(10, 1e-12, 1e-12)
        x = rng_stream(0, 1).standard_normal(64)
        out = q_step(x, 1, sch, rng_stream(0, 2))
        assert np.linalg.norm(out - x) < 1e-5 * np.sqrt(64)

    def test_moments_from_zero(self, linb_50):
        t = 25
        rng = rng_stream(1, 0)
        draws = q_step(np.zeros((100_000, 4)), t, linb_50, rng)
        beta = linb_50.betas[t - 1]
        assert np.all(np.abs(draws.mean(axis=0)) < 0.05 * np.sqrt(beta))
        np.testing.assert_allclose(draws.var(axis=0), beta, rtol=0.05)

    def test_iterated_variance_telescopes(self, linb_50):
        # x_0 = 0: after t steps the per-coordinate variance is 1 - abar_t
        t, n = 20, 20_000
        rng = rng_stream(2, 0)
        x = np.zeros((n, 2))
        for step in range(1, t + 1):
            x = q_step(x, step, linb_50, rng)
        np.testing.assert_allclose(x.var(axis=0), 1.0 - linb_50.alpha_bars[t - 1],
                                   rtol=0.05)

    def test_out_of_range(self, linb_50):
        with pytest.raises(gs.ScheduleError):
            q_step(np.zeros(2), 0, linb_50, rng_stream(0, 0))
        with pytest.raises(gs.ScheduleError):
            q_step(np.zeros(2), 51, linb_50, rng_stream(0, 0))


class TestQSample:
    def test_t0_identity(self, linb_50):
        x0 = rng_stream(3, 0).standard_normal(8)
        ns = q_sample(x0, 0, linb_50, rng_stream(3, 1))
        np.testing.assert_array_equal(ns.x_t, x0)

    def test_zero_eps_injection(self, linb_50):
        x0 = rng_stream(3, 2).standard_normal(8)
        ns = q_sample(x0, 30, linb_50, rng_stream(3, 3), eps=np.zeros(8))
        np.testing.assert_allclose(ns.x_t, np.sqrt(linb_50.alpha_bars[29]) * x0,
                                   rtol=1e-15)

    def test_reconstruction_invariant(self, linb_50):
        x0 = rng_stream(3, 4).standard_normal(8)
        ns = q_sample(x0, 17, linb_50, rng_stream(3, 5))
        ab = linb_50.alpha_bars[16]
        np.testing.assert_allclose(
            ns.x_t, np.sqrt(ab) * x0 + np.sqrt(1 - ab) * ns.eps, rtol=1e-12)

    def test_per_row_steps(self, linb_50):
        # one step per row: each row is the scalar-t jump with its own eps,
        # and the eps is one draw of x_0's shape, as the training loops draw it
        x0 = rng_stream(3, 6).standard_normal((5, 4))
        t = np.array([1, 7, 7, 30, 50])
        ns = q_sample(x0, t, linb_50, rng_stream(3, 7))
        np.testing.assert_array_equal(ns.eps, rng_stream(3, 7).standard_normal((5, 4)))
        for i in range(5):
            np.testing.assert_array_equal(
                ns.x_t[i], q_sample(x0[i], int(t[i]), linb_50, None, eps=ns.eps[i]).x_t)

    @pytest.mark.parametrize("t", [[0, 1], [1, 51], [1, 2, 3]])
    def test_per_row_steps_out_of_range(self, linb_50, t):
        with pytest.raises(gs.ScheduleError):
            q_sample(np.zeros((2, 3)), np.array(t), linb_50, rng_stream(0, 0))

    def test_matches_iterated_q_step(self, linb_50):
        """Closed-form jump and t-fold iteration agree in distribution
        (two-sample energy-distance permutation test)."""
        t, n = 12, 1000
        x0 = np.array([1.5, -0.5])
        rng = rng_stream(4, 0)
        one_shot = np.stack([q_sample(x0, t, linb_50, rng).x_t for _ in range(n)])
        iterated = np.tile(x0, (n, 1))
        for step in range(1, t + 1):
            iterated = q_step(iterated, step, linb_50, rng)
        pooled = np.vstack([one_shot, iterated])
        d = np.linalg.norm(pooled[:, None, :] - pooled[None, :, :], axis=-1)

        def energy_stat(idx_a, idx_b):
            ab = d[np.ix_(idx_a, idx_b)].mean()
            aa = d[np.ix_(idx_a, idx_a)].mean()
            bb = d[np.ix_(idx_b, idx_b)].mean()
            return 2 * ab - aa - bb

        observed = energy_stat(np.arange(n), np.arange(n, 2 * n))
        perm_rng = rng_stream(4, 1)
        exceed = 0
        n_perm = 200
        for _ in range(n_perm):
            perm = perm_rng.permutation(2 * n)
            if energy_stat(perm[:n], perm[n:]) >= observed:
                exceed += 1
        p = (exceed + 1) / (n_perm + 1)
        assert p > 0.01


class TestPosterior:
    def test_zero_inputs(self, linb_50):
        mean, var = posterior_mean_var(np.zeros(4), np.zeros(4), 10, linb_50)
        np.testing.assert_array_equal(mean, 0.0)
        assert var == pytest.approx(linb_50.posterior_vars[9])

    def test_t1_collapses_to_x0(self, linb_50):
        x0 = rng_stream(5, 0).standard_normal(4)
        xt = rng_stream(5, 1).standard_normal(4)
        mean, var = posterior_mean_var(xt, x0, 1, linb_50)
        # coefficient of x_0 is beta_1 / (1 - abar_1) = 1; of x_t is 0
        np.testing.assert_allclose(mean, x0, rtol=1e-12)
        assert var == 0.0

    def test_consistency_identity(self, linb_50):
        # x_t = sqrt(abar_t) x_0  =>  mean = sqrt(abar_{t-1}) x_0
        x0 = rng_stream(5, 2).standard_normal(4)
        for t in (2, 10, 50):
            ab = linb_50.alpha_bars[t - 1]
            mean, _ = posterior_mean_var(np.sqrt(ab) * x0, x0, t, linb_50)
            np.testing.assert_allclose(mean, np.sqrt(linb_50.alpha_bar_prev(t)) * x0,
                                       atol=1e-10)

    def test_grid_quadrature_bayes(self):
        """Brute-force Bayes q(x_{t-1} | x_t, x_0) on a 1-D grid matches the
        closed-form affine mean and beta_tilde variance."""
        sch = gs.build_linear_beta(3, 0.2, 0.4)
        x0, xt, t = 0.7, -0.3, 2
        i = t - 1
        grid = np.linspace(-8, 8, 200_001)
        # prior q(x_{t-1} | x_0) = N(sqrt(abar_{t-1}) x0, 1 - abar_{t-1})
        ab_prev = sch.alpha_bar_prev(t)
        log_prior = -0.5 * (grid - np.sqrt(ab_prev) * x0) ** 2 / (1 - ab_prev)
        # likelihood q(x_t | x_{t-1}) = N(sqrt(alpha_t) x_{t-1}, beta_t)
        log_lik = -0.5 * (xt - np.sqrt(sch.alphas[i]) * grid) ** 2 / sch.betas[i]
        w = np.exp(log_prior + log_lik - np.max(log_prior + log_lik))
        w /= w.sum()
        mean_num = float(np.sum(w * grid))
        var_num = float(np.sum(w * (grid - mean_num) ** 2))
        mean, var = posterior_mean_var(np.array([xt]), np.array([x0]), t, sch)
        assert mean[0] == pytest.approx(mean_num, abs=1e-6)
        assert var == pytest.approx(var_num, abs=1e-6)

    def test_out_of_range(self, linb_50):
        with pytest.raises(gs.ScheduleError):
            posterior_mean_var(np.zeros(2), np.zeros(2), 0, linb_50)


def test_noised_sample_is_frozen(linb_50):
    ns = q_sample(np.zeros(2), 5, linb_50, rng_stream(9, 0))
    assert isinstance(ns, NoisedSample)
    with pytest.raises(AttributeError):
        ns.t = 3
