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

A classifier provides ``class_grad(x, t, y) -> (log p, grad log p)`` for
adm_g and ``class_grad_direction(x, t, y)``, the saturation-stable unit
vector along grad log p, for the geoguide kinds.  The direction is zero
where no class competes with y, and not finite where the row's own
log-joint is not, so that ``adjustment`` refuses it as it refuses a
non-finite gradient.  Both backends in ``models`` do, for a batch x of shape
(N, D) only, so ``adjustment`` takes and returns (N, D) batches.  Each
returns a fresh array, which ``adjustment`` scales in place; neither
function here writes an input.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .schedule import NoiseSchedule

KINDS = ("none", "adm_g", "geoguide", "geoguide_scaled")


class GuidanceError(NumericalError):
    """A non-finite classifier gradient at timestep ``t``, first in ``unit``
    ``index`` (a row of the batch, or a chain of the run), of class ``label``."""

    def __init__(self, t, index, label, unit="row"):
        super().__init__(f"non-finite classifier gradient at t={t} in {unit} {index} "
                         f"(class {label})")
        self.t, self.index, self.label = t, index, label


@dataclass(frozen=True)
class GuidanceRule:
    kind: str = "none"
    scale: float = 0.0
    cutoff_fraction: float = 1.0  # fraction of initial reverse steps guided
    t_override: int = None        # replaces T_eff in the sqrt(D)/T factor

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"guidance kind must be one of {KINDS}, got {self.kind!r}")
        # s = inf would turn a vanished direction's s * 0 into NaN
        if not (np.isfinite(self.scale) and self.scale >= 0):
            raise ValueError(f"scale must be finite and nonnegative, got {self.scale!r}")
        if not 0.0 <= self.cutoff_fraction <= 1.0:
            raise ValueError(f"cutoff_fraction must lie in [0, 1], got "
                             f"{self.cutoff_fraction!r}")
        # None means the executed step count; 0 is not a silent alias for it
        t = self.t_override
        if t is not None and not (isinstance(t, (int, np.integer))
                                  and not isinstance(t, bool) and t >= 1):
            raise ValueError(f"t_override must be None or a positive integer, got {t!r}")

    def active(self, step_index, total_steps: int):
        """Whether guidance acts at reverse step(s) ``step_index`` (0 at t = T)
        of ``total_steps``: any kind but none, before the cut-off."""
        return (self.kind != "none") & (np.asarray(step_index)
                                        < self.cutoff_fraction * total_steps)

    def step_key(self, step_index: int, total_steps: int):
        """None where the rule does not act at reverse step ``step_index`` of
        ``total_steps``, else a hashable key: rules with equal keys add the
        same s * A_t, so at one state they share the step."""
        active = self.active(step_index, total_steps)
        return (self.kind, self.scale, self.t_override) if active else None


def adjustment(rule: GuidanceRule, classifier, x_t, position: int, y,
               schedule: NoiseSchedule, step_index: int, total_steps: int):
    """A_t for one reverse step at which ``rule`` acts (see ``step_key``),
    unscaled: the caller applies s.

    ``position`` is the 1-based index into the sampling schedule;
    ``step_index`` counts executed reverse steps from 0 (t = T downward).
    A ValueError names the kind and the step where the rule does not act.
    ``x_t`` is an (N, D) batch; y may be scalar or per-row.
    """
    if rule.step_key(step_index, total_steps) is None:
        raise ValueError(f"rule {rule.kind} (s={rule.scale}, cutoff={rule.cutoff_fraction}) "
                         f"does not act at step {step_index} of {total_steps}")
    x_t = np.asarray(x_t, dtype=np.float64)
    t_label = int(schedule.timesteps[position - 1])
    if rule.kind == "adm_g":
        _, vec = classifier.class_grad(x_t, t_label, y)
        factor = schedule.gammas[position - 1]
    else:
        vec = classifier.class_grad_direction(x_t, t_label, y)
        factor = np.sqrt(x_t.shape[1]) / (rule.t_override or total_steps)
        if rule.kind == "geoguide_scaled":
            factor = factor * np.sqrt(1.0 - schedule.alpha_bars[position - 1])
    if not np.all(np.isfinite(vec)):
        # name the first bad row only: a block holds up to 256 labels
        rows = np.isfinite(vec).all(axis=1)
        row = int(np.argmin(rows))
        label = int(np.broadcast_to(y, rows.shape)[row])
        raise GuidanceError(t_label, row, label)
    vec *= factor  # the classifier's own fresh array
    return vec


def guided_reverse_step(mu, gamma_t: float, a_t, s: float, is_final: bool = False,
                        eps=None):
    """x_{t-1} = mu + sqrt(gamma_t) * eps + s * A_t, with eps of mu's shape.

    The caller supplies the noise ``eps``; the final step is noise-free
    (eps = 0) and needs none.  ``a_t = None`` is an unguided step: no
    adjustment term is added, not even s * 0.
    """
    if gamma_t < 0:
        raise ValueError("gamma_t must be nonnegative")
    if is_final:
        # noise-free: mu + sqrt(gamma_t) * 0, which turns a -0.0 of mu into +0.0
        x = np.add(mu, np.sqrt(gamma_t) * 0.0, dtype=np.float64)
    elif eps is None:
        raise ValueError("eps is required before the final step")
    else:
        x = np.multiply(eps, np.sqrt(gamma_t), dtype=np.float64)
        x += mu
    if a_t is not None:
        x += np.multiply(a_t, s)
    return x
