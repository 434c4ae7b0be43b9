"""Forward (noising) diffusion process and the exact Gaussian posterior.

All operations are pure functions of immutable inputs plus an explicitly
passed RNG stream.  ``rng_stream`` builds named, reproducible streams from a
run seed and arbitrary integer subkeys, so parallel chains can draw noise
independently of execution order.
"""

from dataclasses import dataclass

import numpy as np

from .schedule import NoiseSchedule, ScheduleError


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator for the (seed, *key) stream."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class NoisedSample:
    """One-shot noised point with the epsilon actually drawn."""
    x_t: np.ndarray
    t: int  # or the per-row steps
    eps: np.ndarray


def _check_t(t: int, schedule: NoiseSchedule) -> int:
    if not 1 <= t <= schedule.T:
        raise ScheduleError(f"timestep {t} outside 1..{schedule.T}")
    return t - 1


def q_step(x_prev: np.ndarray, t: int, schedule: NoiseSchedule,
           rng: np.random.Generator, eps: np.ndarray = None) -> np.ndarray:
    """One forward step: sqrt(1 - beta_t) x_{t-1} + sqrt(beta_t) eps."""
    i = _check_t(t, schedule)
    x_prev = np.asarray(x_prev, dtype=np.float64)
    if eps is None:
        eps = rng.standard_normal(x_prev.shape)
    return np.sqrt(schedule.alphas[i]) * x_prev + np.sqrt(schedule.betas[i]) * eps


def q_sample(x_0: np.ndarray, t, schedule: NoiseSchedule,
             rng: np.random.Generator, eps: np.ndarray = None) -> NoisedSample:
    """Closed-form jump to step t: sqrt(abar_t) x_0 + sqrt(1 - abar_t) eps.

    ``t`` is one step for all of ``x_0``, or an integer array of one step in
    1..T per row of an (N, D) ``x_0``.  A scalar t = 0 is accepted as the
    identity (alpha_bar = 1, eps unused but drawn for stream stability if not
    injected).
    """
    x_0 = np.asarray(x_0, dtype=np.float64)
    if np.ndim(t):
        t = np.asarray(t)
        if (x_0.ndim != 2 or t.shape != x_0.shape[:1]
                or not np.all((1 <= t) & (t <= schedule.T))):
            raise ScheduleError(f"per-row timesteps of shape {t.shape} for x_0 of shape "
                                f"{x_0.shape}: need one step in 1..{schedule.T} per row")
        ab = schedule.alpha_bars[t - 1][:, None]
    elif t == 0:
        if eps is None:
            eps = np.zeros_like(x_0)
        return NoisedSample(x_t=x_0.copy(), t=0, eps=eps)
    else:
        ab = schedule.alpha_bars[_check_t(t, schedule)]
    if eps is None:
        eps = rng.standard_normal(x_0.shape)
    return NoisedSample(x_t=np.sqrt(ab) * x_0 + np.sqrt(1.0 - ab) * eps, t=t, eps=eps)


def posterior_mean_var(x_t: np.ndarray, x_0: np.ndarray, t: int,
                       schedule: NoiseSchedule):
    """Exact posterior q(x_{t-1} | x_t, x_0): affine mean and beta_tilde_t.

    mean = sqrt(abar_{t-1}) beta_t / (1 - abar_t) * x_0
         + sqrt(alpha_t) (1 - abar_{t-1}) / (1 - abar_t) * x_t
    """
    i = _check_t(t, schedule)
    ab = schedule.alpha_bars[i]
    ab_prev = schedule.alpha_bar_prev(t)
    beta = schedule.betas[i]
    coef0 = np.sqrt(ab_prev) * beta / (1.0 - ab)
    coeft = np.sqrt(schedule.alphas[i]) * (1.0 - ab_prev) / (1.0 - ab)
    mean = coef0 * np.asarray(x_0, dtype=np.float64) + coeft * np.asarray(x_t, dtype=np.float64)
    return mean, float(schedule.posterior_vars[i])
