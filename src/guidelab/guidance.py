"""Per-step guidance adjustments and the guided reverse update.

Rules:
  none             A_t = 0
  adm_g            A_t = gamma_t * grad log p(y | x_t)
  geoguide         A_t = (sqrt(D) / T_eff) * grad p / ||grad p||
  geoguide_scaled  the above times sqrt(1 - abar_t)

The unit direction is computed from grad log p (equal to grad p up to a
positive factor, which cancels in the normalization) for numerical
stability.  T_eff is the number of reverse steps actually executed, unless
overridden by ``t_override``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .schedule import NoiseSchedule

KINDS = ("none", "adm_g", "geoguide", "geoguide_scaled")


class GuidanceError(NumericalError):
    pass


@dataclass(frozen=True)
class GuidanceRule:
    kind: str = "none"
    scale: float = 0.0
    cutoff_fraction: float = 1.0  # fraction of initial reverse steps guided
    eps_norm: float = 1e-12       # below this gradient norm, skip the step
    t_override: int = None        # replaces T_eff in the sqrt(D)/T factor

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"guidance kind must be one of {KINDS}")
        if self.scale < 0:
            raise ValueError("scale must be nonnegative")
        if not 0.0 <= self.cutoff_fraction <= 1.0:
            raise ValueError("cutoff_fraction must lie in [0, 1]")


def adjustment(rule: GuidanceRule, classifier, x_t, position: int, y,
               schedule: NoiseSchedule, step_index: int, total_steps: int):
    """A_t for one reverse step (unscaled; the caller applies s).

    ``position`` is the 1-based index into the sampling schedule;
    ``step_index`` counts executed reverse steps from 0 (t = T downward).
    Accepts a single point (D,) or a batch (N, D); y may be scalar or per-row.
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    if rule.kind == "none" or step_index >= rule.cutoff_fraction * total_steps:
        return np.zeros_like(x_t)
    t_label = int(schedule.timesteps[position - 1])
    if rule.kind == "adm_g":
        _, grad = classifier.class_grad(x_t, t_label, y)
        if not np.all(np.isfinite(grad)):
            raise GuidanceError(f"non-finite classifier gradient at t={t_label}, y={y}")
        return schedule.gammas[position - 1] * grad
    # geoguide kinds: constant-norm unit direction.  Prefer the backend's
    # saturation-stable direction; fall back to normalizing the raw gradient.
    if hasattr(classifier, "class_grad_direction"):
        unit = classifier.class_grad_direction(x_t, t_label, y)
        if not np.all(np.isfinite(unit)):
            raise GuidanceError(f"non-finite classifier gradient at t={t_label}, y={y}")
    else:
        _, grad = classifier.class_grad(x_t, t_label, y)
        if not np.all(np.isfinite(grad)):
            raise GuidanceError(f"non-finite classifier gradient at t={t_label}, y={y}")
        norm = np.linalg.norm(grad, axis=-1, keepdims=x_t.ndim > 1)
        with np.errstate(invalid="ignore", divide="ignore"):
            unit = grad / norm
        small = np.asarray(norm) < rule.eps_norm
        if np.any(small):
            unit = np.where(np.broadcast_to(small, unit.shape), 0.0, unit)
    factor = np.sqrt(x_t.shape[-1]) / (rule.t_override or total_steps)
    if rule.kind == "geoguide_scaled":
        factor = factor * np.sqrt(1.0 - schedule.alpha_bars[position - 1])
    return factor * unit


def guided_reverse_step(mu, gamma_t: float, a_t, s: float,
                        rng: np.random.Generator, is_final: bool = False,
                        eps=None):
    """x_{t-1} = mu + sqrt(gamma_t) * eps + s * A_t.

    The final step is noise-free (eps = 0); ``eps`` may be injected for
    deterministic tests.
    """
    if gamma_t < 0:
        raise ValueError("gamma_t must be nonnegative")
    mu = np.asarray(mu, dtype=np.float64)
    if is_final:
        eps = np.zeros_like(mu)
    elif eps is None:
        eps = rng.standard_normal(mu.shape)
    return mu + np.sqrt(gamma_t) * eps + s * np.asarray(a_t)
