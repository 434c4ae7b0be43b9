"""Schedule construction, derived constants, and respacing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from guidelab import schedule as gs
from oracles import alpha_bar_prev


class TestLinearBeta:
    def test_endpoints_and_monotone(self):
        sch = gs.build_linear_beta(1000, 1e-4, 0.02)
        assert sch.betas[0] == 1e-4
        assert sch.betas[-1] == 0.02
        assert np.all(np.diff(sch.betas) > 0)

    def test_two_step_half_beta(self):
        # T=2 with beta = 0.5 everywhere: abar_2 = (1 - 0.5)^2
        sch = gs.build_linear_beta(2, 0.5, 0.5)
        assert sch.alpha_bars[-1] == pytest.approx(0.25, abs=1e-15)

    def test_default_terminal_alphabar_small(self):
        sch = gs.build_linear_beta(1000, 1e-4, 0.02)
        # oracle: direct product in extended precision
        direct = float(np.exp(np.sum(np.log1p(-np.linspace(1e-4, 0.02, 1000)))))
        assert sch.alpha_bars[-1] == pytest.approx(direct, rel=1e-10)
        assert sch.alpha_bars[-1] < 0.01

    def test_rejects_bad_endpoints(self):
        with pytest.raises(gs.ScheduleError):
            gs.build_linear_beta(10, 0.02, 1e-4)   # non-monotone
        with pytest.raises(gs.ScheduleError):
            gs.build_linear_beta(10, 0.0, 0.02)    # beta_start out of range
        with pytest.raises(gs.ScheduleError):
            gs.build_linear_beta(10, 1e-4, 1.0)
        with pytest.raises(gs.ScheduleError):
            gs.build_linear_beta(1, 1e-4, 0.02)


class TestLinearAlphabar:
    def test_halfway_point(self):
        sch = gs.build_linear_alphabar(1000)
        assert sch.alpha_bars[499] == pytest.approx(0.5, abs=1e-12)

    def test_terminal_clamped(self):
        sch = gs.build_linear_alphabar(1000)
        # abar_T would be 0; the clamped beta_T keeps it positive but tiny
        assert 0.0 < sch.alpha_bars[-1] < 1e-8
        assert sch.betas[-1] == gs.BETA_CLAMP

    def test_t4_backsolved_betas(self):
        sch = gs.build_linear_alphabar(4)
        expected = np.array([0.25, 1.0 / 3.0, 0.5, gs.BETA_CLAMP])
        np.testing.assert_allclose(sch.betas, expected, rtol=1e-12)


class TestDerivedConstants:
    def test_posterior_var_first_step_zero(self):
        sch = gs.build_linear_beta(100, 1e-3, 0.01)
        assert sch.posterior_vars[0] == 0.0

    def test_gamma_modes(self):
        lower = gs.build_linear_beta(100, 1e-3, 0.01, gamma_mode="lower")
        upper = gs.build_linear_beta(100, 1e-3, 0.01, gamma_mode="upper")
        np.testing.assert_array_equal(lower.gammas, lower.posterior_vars)
        np.testing.assert_array_equal(upper.gammas, upper.betas)

    def test_alpha_bar_prev_convention(self):
        sch = gs.build_linear_beta(10, 1e-3, 0.01)
        assert alpha_bar_prev(sch, 1) == 1.0
        assert alpha_bar_prev(sch, 5) == sch.alpha_bars[3]
        with pytest.raises(gs.ScheduleError):
            alpha_bar_prev(sch, 0)

    def test_immutable(self):
        sch = gs.build_linear_beta(10, 1e-3, 0.01)
        with pytest.raises(ValueError):
            sch.betas[0] = 0.5


class TestRespace:
    def test_identity(self, linb_1000):
        re = gs.respace(linb_1000, 1000)
        np.testing.assert_array_equal(re.alpha_bars, linb_1000.alpha_bars)
        np.testing.assert_array_equal(re.timesteps, linb_1000.timesteps)

    def test_linear_alphabar_preserved(self, lina_1000):
        re = gs.respace(lina_1000, 250)
        expected = 1.0 - re.timesteps / 1000.0
        # the clamped final step is the only deviation from 1 - t/T
        np.testing.assert_allclose(re.alpha_bars[:-1], expected[:-1], atol=1e-12)

    def test_telescoping(self, linb_1000):
        re = gs.respace(linb_1000, 50)
        parent = linb_1000.alpha_bars[re.timesteps - 1]
        np.testing.assert_allclose(re.alpha_bars, parent, rtol=1e-12)

    def test_keeps_base_fingerprint(self, linb_1000):
        re = gs.respace(linb_1000, 250)
        assert re.base_fingerprint == linb_1000.base_fingerprint
        # it is the parent's, not that of the respaced betas
        assert re.base_fingerprint != gs._fingerprint(re.betas, re.gamma_mode, re.base_T)

    def test_rejects_bad_steps(self, linb_1000):
        with pytest.raises(gs.ScheduleError):
            gs.respace(linb_1000, 1)
        with pytest.raises(gs.ScheduleError):
            gs.respace(linb_1000, 1001)


@settings(max_examples=40, deadline=None)
@given(T=st.integers(2, 400),
       b0=st.floats(1e-6, 0.05), b1=st.floats(1e-6, 0.4),
       mode=st.sampled_from(gs.GAMMA_MODES))
def test_schedule_invariants(T, b0, b1, mode):
    lo, hi = sorted((b0, b1))
    sch = gs.build_linear_beta(T, lo, hi, gamma_mode=mode)
    assert np.all((sch.betas > 0) & (sch.betas < 1))
    assert np.all(np.diff(sch.alpha_bars) < 0)
    # beta_tilde <= gamma <= beta
    assert np.all(sch.posterior_vars <= sch.gammas + 1e-15)
    assert np.all(sch.gammas <= sch.betas + 1e-15)
    # log-sum consistency of the cumulative product
    log_prod = float(np.sum(np.log(sch.alphas)))
    assert sch.alpha_bars[-1] == pytest.approx(np.exp(log_prod), rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(T=st.integers(4, 500), data=st.data())
def test_respace_roundtrip_alphabars(T, data):
    n = data.draw(st.integers(2, T))
    sch = gs.build_linear_alphabar(T)
    re = gs.respace(sch, n)
    parent = sch.alpha_bars[re.timesteps - 1]
    np.testing.assert_allclose(re.alpha_bars, parent, atol=1e-12)
