"""Reference formulas that no command uses.

The single forward step and the exact posterior q(x_{t-1} | x_t, x_0) check
the closed-form jump (``forward.q_sample``) and the reverse mean
(``models.mu_from_eps``) from first principles.  ``lockstep_counts`` gives
the work of a lockstep sampler call from the rules' active masks alone.
``mixture_draw`` is the dataset draw as the plain formula, which
``data.generate`` evaluates in place.  ``mixture_log_joint`` and
``mixture_log_density`` give the noised mixture q_t from every row's
difference to every component, not from the GEMM form of ``models``.
``row_kernel`` is that GEMM form as it stood in the row layout, (N, C), to
which the component-major kernel of ``models`` is held bit for bit.
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


def mixture_draw(descriptor, n: int, seed: int):
    """(points, labels) of ``data.generate(descriptor, n, seed)``: the labels,
    then means[labels] + sqrt(variances[labels]) * z, with temporaries."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    labels = rng.choice(descriptor.n_classes, size=n, p=descriptor.weights)
    std = np.sqrt(descriptor.variances[labels])
    return descriptor.means[labels] + std * rng.standard_normal((n, descriptor.dim)), labels


def lockstep_counts(rules, total_steps: int):
    """(denoiser calls, classifier calls, reverse updates) of one block of a
    ``sampler.sample`` call under ``rules``, from ``GuidanceRule.active``.

    All rules start at one state.  At each step every distinct state takes
    one denoiser call; its rules then split by the step they take, which is
    (kind, scale, t_override) while guided and one shared unguided step
    otherwise.  Each distinct step is one reverse update (and one adjustment
    and one classifier call if guided), and its rules share the next state.
    """
    groups = [list(rules)]
    eps = guided = updates = 0
    for k in range(total_steps):
        eps += len(groups)
        split = []
        for group in groups:
            steps = {}
            for rule in group:
                key = ((rule.kind, rule.scale, rule.t_override)
                       if rule.active(k, total_steps) else None)
                steps.setdefault(key, []).append(rule)
            guided += sum(key is not None for key in steps)
            split += steps.values()
        updates += len(split)
        groups = split
    return eps, guided, updates


def mixture_log_joint(descriptor, schedule: NoiseSchedule, x, t: int):
    """log w_c + log N(x; m_c, diag v_c) for every row of the (N, D) batch x
    and every component of q_t, (N, C), with m_c = sqrt(abar_t) mu_c and
    v_c = abar_t V_c + (1 - abar_t); t is a label of the unrespaced
    ``schedule``, and t = 0 leaves the components as they are."""
    ab = 1.0 if t == 0 else schedule.alpha_bars[t - 1]
    m = np.sqrt(ab) * descriptor.means
    v = descriptor.variances if t == 0 else ab * descriptor.variances + (1.0 - ab)
    diff = np.asarray(x, dtype=np.float64)[:, None, :] - m[None]      # (N, C, D)
    return np.log(descriptor.weights) - 0.5 * np.sum(diff * diff / v + np.log(v)
                                                     + np.log(2 * np.pi), axis=2)


def mixture_log_density(descriptor, schedule: NoiseSchedule, x, t: int):
    """log q_t(x) for every row of the (N, D) batch x, (N,)."""
    return np.logaddexp.reduce(mixture_log_joint(descriptor, schedule, x, t), axis=1)


def row_kernel(descriptor, schedule: NoiseSchedule, x, t: int, y):
    """The analytic models' answers at the (N, D) batch x, label t of the
    unrespaced ``schedule`` and class(es) y, from the row-layout kernel:
    {"eps", "logprobs", "logp", "grad", "unit"} of ``predict_eps``,
    ``class_logprobs``, ``class_grad`` and ``class_grad_direction``."""
    x = np.asarray(x, dtype=np.float64)
    ab = 1.0 if t == 0 else schedule.alpha_bars[t - 1]
    m = np.sqrt(ab) * descriptor.means
    v = descriptor.variances if t == 0 else ab * descriptor.variances + (1.0 - ab)
    inv_v = 1.0 / v
    m_v = m * inv_v
    const = np.log(descriptor.weights) - 0.5 * np.sum(m * m_v + np.log(v)
                                                      + np.log(2.0 * np.pi), axis=1)

    def log_softmax(z):
        top = np.max(z, axis=1, keepdims=True)
        return z - (top + np.log(np.sum(np.exp(z - top), axis=1, keepdims=True)))

    def pull(w):
        return w @ m_v - x * (w @ inv_v)

    rows = np.arange(len(x))
    y = np.broadcast_to(y, rows.shape)
    lj = const - 0.5 * ((x * x) @ inv_v.T) + x @ m_v.T
    lp = log_softmax(lj)
    grad_w = -np.exp(lp)
    grad_w[rows, y] += 1.0
    comp = lj.copy()
    comp[rows, y] = -np.inf
    with np.errstate(invalid="ignore"):
        dir_w = -np.nan_to_num(np.exp(log_softmax(comp)))
    dir_w[rows, y] = -dir_w.sum(axis=1)
    direction = pull(dir_w)
    norm = np.linalg.norm(direction, axis=1, keepdims=True)
    return {"eps": -np.sqrt(1.0 - ab) * pull(np.exp(lp)), "logprobs": lp,
            "logp": lp[rows, y], "grad": pull(grad_w),
            "unit": np.divide(direction, norm, out=np.zeros_like(direction),
                              where=norm > 0)}
