"""Diffusion noise schedules and timestep respacing.

A schedule holds the per-step constants beta_t, alpha_t = 1 - beta_t,
alpha_bar_t = prod alpha_s, the posterior variance
beta_tilde_t = (1 - alpha_bar_{t-1}) / (1 - alpha_bar_t) * beta_t,
and gamma_t, the reverse-step variance actually used (either beta_t or
beta_tilde_t).

Convention: timesteps are labelled 1..T externally; arrays are 0-based, so
index t-1 holds the constants for step t.  alpha_bar at "t = 0" is 1.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

GAMMA_MODES = ("lower", "upper")  # lower -> beta_tilde, upper -> beta

# Clamp applied when a construction would yield beta_T = 1 (alpha_bar_T = 0).
BETA_CLAMP = 1.0 - 1e-6


class ScheduleError(ValueError):
    pass


@dataclass(frozen=True)
class NoiseSchedule:
    """Immutable per-step diffusion constants.

    ``timesteps`` carries the external 1..T labels of each position; after
    respacing it is the kept subsequence of the parent's labels.
    ``base_fingerprint`` survives respacing, so models trained against the
    parent schedule can be matched to a respaced one.
    """

    betas: np.ndarray
    alphas: np.ndarray
    alpha_bars: np.ndarray
    posterior_vars: np.ndarray
    gammas: np.ndarray
    gamma_mode: str
    timesteps: np.ndarray
    base_T: int
    base_fingerprint: str

    @property
    def T(self) -> int:
        return len(self.betas)


def _fingerprint(betas: np.ndarray, gamma_mode: str, base_T: int) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(betas, dtype=np.float64).tobytes())
    h.update(gamma_mode.encode())
    h.update(str(base_T).encode())
    return h.hexdigest()[:16]


def _from_betas(betas, gamma_mode, timesteps, base_T, base_fingerprint=None):
    betas = np.asarray(betas, dtype=np.float64)
    if betas.ndim != 1 or len(betas) < 1:
        raise ScheduleError("betas must be a non-empty vector")
    if np.any(betas <= 0.0) or np.any(betas >= 1.0):
        raise ScheduleError("every beta_t must lie in (0, 1)")
    if gamma_mode not in GAMMA_MODES:
        raise ScheduleError(f"gamma_mode must be one of {GAMMA_MODES}")
    alphas = 1.0 - betas
    alpha_bars = np.cumprod(alphas)
    if np.any(np.diff(alpha_bars) >= 0.0):
        raise ScheduleError("alpha_bar must be strictly decreasing")
    prev = np.concatenate(([1.0], alpha_bars[:-1]))
    posterior_vars = (1.0 - prev) / (1.0 - alpha_bars) * betas
    gammas = posterior_vars if gamma_mode == "lower" else betas
    timesteps = np.asarray(timesteps, dtype=np.int64)
    if base_fingerprint is None:
        base_fingerprint = _fingerprint(betas, gamma_mode, base_T)
    for arr in (betas, alphas, alpha_bars, posterior_vars, gammas, timesteps):
        arr.setflags(write=False)
    return NoiseSchedule(
        betas=betas,
        alphas=alphas,
        alpha_bars=alpha_bars,
        posterior_vars=posterior_vars,
        gammas=gammas,
        gamma_mode=gamma_mode,
        timesteps=timesteps,
        base_T=base_T,
        base_fingerprint=base_fingerprint,
    )


def build_linear_beta(T: int, beta_start: float = 1e-4, beta_end: float = 0.02,
                      gamma_mode: str = "lower") -> NoiseSchedule:
    """Linear beta schedule, endpoints inclusive (the standard DDPM default)."""
    if T < 2:
        raise ScheduleError("T must be at least 2")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ScheduleError("need 0 < beta_start <= beta_end < 1")
    betas = np.linspace(beta_start, beta_end, T)
    return _from_betas(betas, gamma_mode, np.arange(1, T + 1), T)


def build_linear_alphabar(T: int, gamma_mode: str = "lower") -> NoiseSchedule:
    """Schedule with alpha_bar_t = 1 - t/T.

    The final step would need beta_T = 1 (alpha_bar_T = 0); beta_T is clamped
    to keep every beta in (0, 1) and the posterior variance finite.
    """
    if T < 2:
        raise ScheduleError("T must be at least 2")
    t = np.arange(1, T + 1, dtype=np.float64)
    alpha_bars = 1.0 - t / T
    prev = np.concatenate(([1.0], alpha_bars[:-1]))
    betas = 1.0 - alpha_bars / prev
    betas[-1] = min(betas[-1], BETA_CLAMP)
    return _from_betas(betas, gamma_mode, np.arange(1, T + 1), T)


def respace(schedule: NoiseSchedule, n_steps: int) -> NoiseSchedule:
    """Evenly spaced subsequence of timesteps with alpha_bar preserved.

    Effective betas are recomputed as 1 - alpha_bar_{t_k} / alpha_bar_{t_{k-1}}
    so the respaced cumulative products equal the parent's at kept steps.
    """
    if n_steps < 2:
        raise ScheduleError("n_steps must be at least 2")
    if n_steps > schedule.T:
        raise ScheduleError(f"n_steps {n_steps} exceeds schedule length {schedule.T}")
    positions = np.unique(np.round(np.linspace(1, schedule.T, n_steps)).astype(np.int64))
    kept_bars = schedule.alpha_bars[positions - 1]
    prev = np.concatenate(([1.0], kept_bars[:-1]))
    betas = 1.0 - kept_bars / prev
    return _from_betas(
        betas,
        schedule.gamma_mode,
        schedule.timesteps[positions - 1],
        schedule.base_T,
        base_fingerprint=schedule.base_fingerprint,
    )
