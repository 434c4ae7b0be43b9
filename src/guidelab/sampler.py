"""Reverse ancestral sampling with pluggable guidance and trajectory logging.

Chains are embarrassingly parallel: each chain's noise comes from its own
stream keyed by (seed, chain), and chains are processed in fixed-size blocks
so results are byte-identical regardless of thread count or execution order.
"""

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import NumericalError
from .forward import rng_stream
from .guidance import GuidanceRule, adjustment, guided_reverse_step
from .models import mu_from_eps
from .schedule import NoiseSchedule

BLOCK = 64  # chains per vectorized block; fixed so threading cannot change shapes

TRAJECTORY_CSV_HEADER = ["chain", "step", "t", "alpha_bar", "adjustment_norm",
                         "d_hat", "d_theory"]


class SamplerError(RuntimeError):
    """The models do not fit the schedule or the guidance rule."""


@dataclass
class TrajectoryLog:
    """Per-step diagnostics of one chain (x_t thinned to ``stored_steps``)."""
    ts: np.ndarray                # (steps,) timestep labels, descending
    alpha_bars: np.ndarray        # (steps,)
    adjustment_norms: np.ndarray  # (steps,) ||s * A_t||
    guidance_active: np.ndarray   # (steps,) bool
    stored_steps: np.ndarray      # indices into the step axis with x stored
    stored_x: np.ndarray          # (len(stored_steps), D), post-step states
    stored_ts: np.ndarray         # timestep label of each stored state
    stored_alpha_bars: np.ndarray # noise level (alpha_bar) of each stored state
    final_x: np.ndarray
    chain: int
    seed: int
    y: int


@dataclass
class SampleBatch:
    samples: np.ndarray           # (M, D)
    targets: np.ndarray           # (M,)
    logs: list
    metadata: dict = field(default_factory=dict)


def sample(denoiser, classifier, rule: GuidanceRule, schedule: NoiseSchedule,
           y, n_chains: int, seed: int, threads: int = 1,
           store_every: int = None, store_full: bool = False) -> SampleBatch:
    """Run n_chains guided reverse diffusions targeting class y.

    y may be a single label or one label per chain.  Each chain starts at
    x_T ~ N(0, I) and iterates mu_from_eps + guided_reverse_step over the
    (possibly respaced) schedule, noise-free at the final step.
    """
    if n_chains < 1:
        raise ValueError("n_chains must be at least 1")
    if denoiser.base_fingerprint != schedule.base_fingerprint:
        raise SamplerError("denoiser does not match the schedule fingerprint")
    if rule.kind != "none":
        if classifier is None:
            raise SamplerError(f"rule {rule.kind} requires a classifier")
        if classifier.base_fingerprint != schedule.base_fingerprint:
            raise SamplerError("classifier does not match the schedule fingerprint")
    D = denoiser.dim
    n_steps = schedule.T
    if store_full:
        store_every = 1
    elif store_every is None:
        store_every = math.ceil(n_steps / 50)
    ys = np.broadcast_to(np.asarray(y, dtype=np.int64), (n_chains,))

    blocks = [(start, min(start + BLOCK, n_chains)) for start in range(0, n_chains, BLOCK)]

    def run_block(bounds):
        lo, hi = bounds
        return _run_block(denoiser, classifier, rule, schedule, ys[lo:hi],
                          np.arange(lo, hi), seed, D, n_steps, store_every)

    if threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_block, blocks))
    else:
        results = [run_block(b) for b in blocks]

    samples = np.concatenate([r[0] for r in results])
    logs = [log for r in results for log in r[1]]
    meta = {"seed": seed, "rule": rule, "n_steps": n_steps,
            "schedule_fingerprint": schedule.fingerprint(),
            "base_fingerprint": schedule.base_fingerprint}
    return SampleBatch(samples=samples, targets=ys.copy(), logs=logs, metadata=meta)


def _run_block(denoiser, classifier, rule, schedule, ys, chains, seed, D,
               n_steps, store_every):
    n = len(chains)
    noise = np.empty((n, n_steps + 1, D))
    for j, c in enumerate(chains):
        noise[j] = rng_stream(seed, int(c)).standard_normal((n_steps + 1, D))
    x = noise[:, 0, :].copy()

    norms = np.zeros((n, n_steps))
    active = np.zeros(n_steps, dtype=bool)
    ts = np.zeros(n_steps, dtype=np.int64)
    abars = np.zeros(n_steps)
    stored_steps = []
    stored_x = []
    stored_ts = []
    stored_abars = []

    for k, pos in enumerate(range(n_steps, 0, -1)):
        t_label = int(schedule.timesteps[pos - 1])
        ts[k] = t_label
        abars[k] = schedule.alpha_bars[pos - 1]
        eps_hat = denoiser.predict_eps(x, t_label)
        mu = mu_from_eps(x, pos, eps_hat, schedule)
        a_t = adjustment(rule, classifier, x, pos, ys, schedule, k, n_steps)
        norms[:, k] = rule.scale * np.linalg.norm(a_t, axis=-1)
        active[k] = rule.kind != "none" and k < rule.cutoff_fraction * n_steps
        x = guided_reverse_step(mu, schedule.gammas[pos - 1], a_t, rule.scale,
                                is_final=(pos == 1), eps=noise[:, k + 1, :])
        if not np.all(np.isfinite(x)):
            bad = int(chains[np.argmax(~np.isfinite(x).all(axis=1))])
            raise NumericalError(f"non-finite state at step {k} (t={t_label}) in chain {bad}")
        if k % store_every == 0 or pos == 1:
            # the post-step state sits at the noise level of t - 1
            stored_steps.append(k)
            stored_x.append(x.copy())
            stored_ts.append(int(schedule.timesteps[pos - 2]) if pos >= 2 else 0)
            stored_abars.append(schedule.alpha_bars[pos - 2] if pos >= 2 else 1.0)

    stored_steps = np.array(stored_steps, dtype=np.int64)
    stored_x = np.stack(stored_x)  # (n_stored, n, D)
    stored_ts = np.array(stored_ts, dtype=np.int64)
    stored_abars = np.array(stored_abars)
    logs = [TrajectoryLog(ts=ts, alpha_bars=abars, adjustment_norms=norms[j],
                          guidance_active=active.copy(),
                          stored_steps=stored_steps, stored_x=stored_x[:, j, :],
                          stored_ts=stored_ts, stored_alpha_bars=stored_abars,
                          final_x=x[j].copy(), chain=int(chains[j]), seed=seed,
                          y=int(ys[j]))
            for j in range(n)]
    return x, logs


# Entries of one screen block (4 MiB of float64); 65 rows of the 8000-point
# dataset, so a 51-state trajectory is screened in a single block.
_SCREEN_ENTRIES = 1 << 19
_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny


def _nearest_distance(X, r, P):
    """min_i ||r_j p_i - x_j|| for each row x_j of X (n, D), with its own
    scale r_j, over the rows p_i of P (N, D).

    The result equals the exhaustive scan
    ``np.min(np.linalg.norm(r_j * P - x_j, axis=1))`` bit for bit, for any
    BLAS blocking or thread count.

    Screen.  Per block of rows, the GEMM form ``r^2 ||p||^2 - 2 r x.p`` (the
    squared distance less the row constant ``||x||^2``).  With unit roundoff
    u = eps/2 and S = ||x||^2 + r^2 max_i ||p_i||^2, any summation order of
    the length-D dot products keeps each screened value within (2D + 8) u S
    of its exact counterpart, and the exhaustive scan's own squared norm
    (before its monotone sqrt) within (2D + 7) u S of the exact squared
    distance.  The scan's argmin therefore screens within (4D + 16) eps S
    of the row minimum.

    Exact recheck.  The scan's exact norm is taken for the screened argmin,
    and for every other point whose screened value lies within
    ``32 (D + 2) (eps S + tiny)`` of the row minimum: more than four times
    that bound, with ``tiny`` covering underflow.  Such near-ties are rare;
    a row whose cut is not finite (non-finite input) rechecks every point.
    """
    n, D = X.shape
    pp = np.einsum("ij,ij->i", P, P)
    pp_max = pp.max()
    out = np.empty(n)
    rows_per_block = max(1, _SCREEN_ENTRIES // len(P))
    for lo in range(0, n, rows_per_block):
        x, rb = X[lo:lo + rows_per_block], r[lo:lo + rows_per_block]
        # overflow or non-finite input leaves a non-finite cut, handled below
        with np.errstate(invalid="ignore", over="ignore"):
            screen = (x * (-2.0 * rb)[:, None]) @ P.T
            screen += (rb * rb)[:, None] * pp
            size = np.einsum("ij,ij->i", x, x) + rb * rb * pp_max
        rows = np.arange(len(x))
        best = screen.argmin(axis=1)
        cut = screen[rows, best] + 32 * (D + 2) * (_EPS * size + _TINY)
        d = np.linalg.norm(rb[:, None] * P[best] - x, axis=1)
        screen[rows, best] = np.inf
        # NaN cuts compare False, so non-finite rows land here too
        for j in np.flatnonzero(~(screen.min(axis=1) > cut)):
            near = (np.flatnonzero(screen[j] <= cut[j]) if np.isfinite(cut[j])
                    else slice(None))
            d[j] = np.minimum(d[j], np.min(np.linalg.norm(rb[j] * P[near] - x[j], axis=1)))
        out[lo:lo + len(x)] = d
    return out


def trace_manifold_distance(trajectory: TrajectoryLog, dataset, schedule=None):
    """Per stored step: d_hat = min_i ||x_t - sqrt(abar_t) x_i|| over the
    dataset (exact, see ``_nearest_distance``) and
    d_theory = sqrt((1 - abar_t) D)."""
    pts = dataset.points
    if len(pts) == 0:
        raise ValueError("dataset is empty")
    D = pts.shape[1]
    abars = trajectory.stored_alpha_bars
    d_hat = _nearest_distance(trajectory.stored_x, np.sqrt(abars), pts)
    d_theory = np.sqrt((1.0 - abars) * D)
    return [{"t": t, "alpha_bar": ab, "d_hat": d, "d_theory": th}
            for t, ab, d, th in zip(trajectory.stored_ts.tolist(), abars.tolist(),
                                    d_hat.tolist(), d_theory.tolist())]


def forward_manifold_traces(dataset, schedule: NoiseSchedule, n_draws: int,
                            seed: int, store_every: int = None):
    """Distance traces of the forward process: noise training points to each
    (thinned) step and measure their distance to the rescaled dataset.

    Returns one trace per draw, each a list of {t, alpha_bar, d_hat, d_theory}.
    """
    pts = dataset.points
    n_steps = schedule.T
    if store_every is None:
        store_every = math.ceil(n_steps / 50)
    D = pts.shape[1]
    rng = rng_stream(seed, 0xF0)
    idx = rng.integers(0, len(pts), size=n_draws)
    x0 = pts[idx]
    positions = list(range(1, n_steps + 1, store_every))
    traces = [[] for _ in range(n_draws)]
    for pos in positions:
        ab = schedule.alpha_bars[pos - 1]
        t_label = int(schedule.timesteps[pos - 1])
        eps = rng.standard_normal((n_draws, D))
        xt = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
        d_hat = _nearest_distance(xt, np.full(n_draws, np.sqrt(ab)), pts)
        d_theory = float(np.sqrt((1.0 - ab) * D))
        for j in range(n_draws):
            traces[j].append({"t": t_label, "alpha_bar": float(ab),
                              "d_hat": float(d_hat[j]), "d_theory": d_theory})
    return traces


def export_trajectories_csv(batch: SampleBatch, path, dataset=None):
    """One row per (chain, step); d_hat/d_theory only at stored steps and
    only when a dataset is supplied."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_CSV_HEADER)
        for log in batch.logs:
            n_steps = len(log.ts)
            d_hat = [""] * n_steps
            d_theory = [""] * n_steps
            if dataset is not None:
                for rec, k in zip(trace_manifold_distance(log, dataset),
                                  log.stored_steps.tolist()):
                    d_hat[k] = rec["d_hat"]
                    d_theory[k] = rec["d_theory"]
            # csv writes a float as its repr
            writer.writerows(zip(repeat(log.chain, n_steps), range(n_steps),
                                 log.ts.tolist(), log.alpha_bars.tolist(),
                                 log.adjustment_norms.tolist(), d_hat, d_theory))
