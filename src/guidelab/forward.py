"""Forward (noising) diffusion process: keyed noise streams and the
closed-form jump from x_0 to step t.

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
    eps: np.ndarray


def _check_t(t: int, schedule: NoiseSchedule) -> int:
    if not 1 <= t <= schedule.T:
        raise ScheduleError(f"timestep {t} outside 1..{schedule.T}")
    return t - 1


def q_sample(x_0: np.ndarray, t, schedule: NoiseSchedule,
             rng: np.random.Generator) -> NoisedSample:
    """Closed-form jump to step t: sqrt(abar_t) x_0 + sqrt(1 - abar_t) eps.

    ``t`` is one step in 1..T for all of ``x_0``, or an integer array of one
    step per row of an (N, D) ``x_0``.  eps is one draw of ``x_0``'s shape.
    """
    x_0 = np.asarray(x_0, dtype=np.float64)
    if np.ndim(t):
        t = np.asarray(t)
        if (x_0.ndim != 2 or t.shape != x_0.shape[:1]
                or not np.all((1 <= t) & (t <= schedule.T))):
            raise ScheduleError(f"per-row timesteps of shape {t.shape} for x_0 of shape "
                                f"{x_0.shape}: need one step in 1..{schedule.T} per row")
        ab = schedule.alpha_bars[t - 1][:, None]
    else:
        ab = schedule.alpha_bars[_check_t(t, schedule)]
    eps = rng.standard_normal(x_0.shape)
    return NoisedSample(x_t=np.sqrt(ab) * x_0 + np.sqrt(1.0 - ab) * eps, eps=eps)
