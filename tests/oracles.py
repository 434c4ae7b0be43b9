"""Reference formulas of the forward process that no command uses.

The single forward step and the exact posterior q(x_{t-1} | x_t, x_0) check
the closed-form jump (``forward.q_sample``) and the reverse mean
(``models.mu_from_eps``) from first principles.
"""

import numpy as np

from guidelab.forward import _check_t
from guidelab.schedule import NoiseSchedule


def alpha_bar_prev(schedule: NoiseSchedule, position: int) -> float:
    """alpha_bar at the position before `position` (1-based); 1.0 at the start."""
    i = _check_t(position, schedule)
    return 1.0 if i == 0 else float(schedule.alpha_bars[i - 1])


def q_step(x_prev, t: int, schedule: NoiseSchedule, rng: np.random.Generator,
           eps=None) -> np.ndarray:
    """One forward step: sqrt(1 - beta_t) x_{t-1} + sqrt(beta_t) eps."""
    i = _check_t(t, schedule)
    x_prev = np.asarray(x_prev, dtype=np.float64)
    if eps is None:
        eps = rng.standard_normal(x_prev.shape)
    return np.sqrt(schedule.alphas[i]) * x_prev + np.sqrt(schedule.betas[i]) * eps


def posterior_mean_var(x_t, x_0, t: int, schedule: NoiseSchedule):
    """Exact posterior q(x_{t-1} | x_t, x_0): affine mean and beta_tilde_t.

    mean = sqrt(abar_{t-1}) beta_t / (1 - abar_t) * x_0
         + sqrt(alpha_t) (1 - abar_{t-1}) / (1 - abar_t) * x_t
    """
    i = _check_t(t, schedule)
    ab = schedule.alpha_bars[i]
    ab_prev = alpha_bar_prev(schedule, t)
    beta = schedule.betas[i]
    coef0 = np.sqrt(ab_prev) * beta / (1.0 - ab)
    coeft = np.sqrt(schedule.alphas[i]) * (1.0 - ab_prev) / (1.0 - ab)
    mean = coef0 * np.asarray(x_0, dtype=np.float64) + coeft * np.asarray(x_t, dtype=np.float64)
    return mean, float(schedule.posterior_vars[i])
