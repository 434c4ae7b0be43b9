"""Reverse ancestral sampling with pluggable guidance and a columnar record.

Chains are independent: each chain's noise comes from its own stream keyed
by (seed, chain), and chains run in fixed blocks of ``BLOCK`` = 256, one block
after another.  The block size sets the array shapes, and so the rounding; it
is fixed, so a run's values depend on its arguments alone.  A block draws its
streams in windows of a few steps (``WINDOW_ENTRIES``, 1 MiB across the block)
rather than all at once; chunked draws continue a stream bit for bit, so the
window size does not change any value.  Several guidance rules may share one
run: a block steps them in groups of rules at one state, each noise value is
drawn once, and rules share every step until their guidance differs.  An
unguided step (after a cut-off, or under kind none) takes no adjustment.

A rule's record is one ``SampleBatch``: chain j is row j of every per-chain
array, and each block writes its own rows in place.  ``store`` names the
arrays a call keeps, and the work behind an array it does not keep is
skipped.  The traces of the record and of the forward process measure
distances with the dataset's ``metrics.Reference``, grouped once.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError
from .forward import q_sample, rng_stream
from .guidance import GuidanceError, GuidanceRule, adjustment, guided_reverse_step
from .models import mu_from_eps
from .schedule import NoiseSchedule

BLOCK = 256  # chains per vectorized block; fixed, as shapes set the rounding
WINDOW_ENTRIES = 1 << 17  # noise values per block window: 1 MiB of float64

TRAJECTORY_CSV_HEADER = ["chain", "step", "t", "alpha_bar", "adjustment_norm",
                         "d_hat", "d_theory"]


class SamplerError(RuntimeError):
    """The models do not fit the schedule or the guidance rule."""


@dataclass
class SampleBatch:
    """The record of one rule's run.  Chain j is row j of every per-chain array;
    the per-step arrays are shared by every chain.  x_t is kept at the K
    ``stored_steps`` only: thinned, every step, or none; the norms are None
    when the call kept samples only (see ``STORE``)."""
    samples: np.ndarray            # (M, D) final states
    targets: np.ndarray            # (M,) class labels
    ts: np.ndarray                 # (S,) timestep labels, descending
    alpha_bars: np.ndarray         # (S,)
    guidance_active: np.ndarray    # (S,) bool
    adjustment_norms: np.ndarray   # (M, S) ||s * A_t||, or None
    stored_steps: np.ndarray       # (K,) indices into the step axis with x stored
    stored_ts: np.ndarray          # (K,) timestep label of each stored state
    stored_alpha_bars: np.ndarray  # (K,) noise level (alpha_bar) of each stored state
    stored_x: np.ndarray           # (M, K, D) post-step states

    def chain(self, j: int) -> "SampleBatch":
        """Chain j as a one-chain batch of views into this one."""
        rows = slice(j, j + 1)
        norms = self.adjustment_norms
        return replace(self, samples=self.samples[rows], targets=self.targets[rows],
                       adjustment_norms=None if norms is None else norms[rows],
                       stored_x=self.stored_x[rows])

    @property
    def logs(self):
        """One one-chain batch per chain.  bench/spans.py counts the rows of
        ``trajectories.csv`` as the sum of ``len(log.ts)`` over these."""
        return [self.chain(j) for j in range(len(self.samples))]


# what a call keeps beside the final samples: nothing, the adjustment norms,
# or the norms and x_t at thinned or at all steps
STORE = ("samples", "norms", "thinned", "full")


def sample(denoiser, classifier, rule, schedule: NoiseSchedule, y, n_chains: int,
           seed: int, store: str = "thinned"):
    """Run n_chains guided reverse diffusions targeting class y.

    ``rule`` is one ``GuidanceRule``, which returns one ``SampleBatch``, or a
    tuple of rules, which returns a tuple of batches in the same order.  The
    rules of one call run in lockstep on the same chains: chain j starts at
    the same x_T and draws the same noise under every rule, each value drawn
    once, so each batch equals that of a one-rule call.  They share every
    step until their guidance differs, so work common to several rules (the
    prefix before a cut-off, a duplicate rule) is done once.

    y may be a single label or one label per chain.  Each chain starts at
    x_T ~ N(0, I) and iterates mu_from_eps + guided_reverse_step over the
    (possibly respaced) schedule, noise-free at the final step.  ``store``
    keeps the final samples only ("samples"), with the per-step adjustment
    norms ("norms"), and with x_t every ceil(S / 50) steps and at the last
    one ("thinned") or at every step ("full").  Under "samples" no norm is
    computed and ``adjustment_norms`` is None.
    """
    rules = rule if isinstance(rule, tuple) else (rule,)
    if not rules:
        raise ValueError(f"rule: expected a GuidanceRule or a non-empty tuple of "
                         f"them, got {rule!r}")
    for r in rules:
        if not isinstance(r, GuidanceRule):
            raise ValueError(f"rule: expected a GuidanceRule, got {r!r}")
    if store not in STORE:
        raise ValueError(f"store must be one of {STORE}, got {store!r}")
    if n_chains < 1:
        raise ValueError("n_chains must be at least 1")
    if denoiser.base_fingerprint != schedule.base_fingerprint:
        raise SamplerError("denoiser does not match the schedule fingerprint")
    guided = [r.kind for r in rules if r.kind != "none"]
    if guided:
        if classifier is None:
            raise SamplerError(f"rule {guided[0]} requires a classifier")
        if classifier.base_fingerprint != schedule.base_fingerprint:
            raise SamplerError("classifier does not match the schedule fingerprint")
    n_steps = schedule.T
    if store in ("samples", "norms"):
        stored = np.arange(0)
    else:
        store_every = 1 if store == "full" else math.ceil(n_steps / 50)
        stored = np.unique(np.append(np.arange(0, n_steps, store_every), n_steps - 1))
    # step k runs at position n_steps - k; its post-step state sits at the
    # noise level of the next step, or at t = 0 after the last one
    ts = schedule.timesteps[::-1].copy()
    alpha_bars = schedule.alpha_bars[::-1].copy()
    targets = np.broadcast_to(np.asarray(y, dtype=np.int64), (n_chains,)).copy()
    batches = tuple(SampleBatch(
        samples=np.empty((n_chains, denoiser.dim)), targets=targets,
        ts=ts, alpha_bars=alpha_bars,
        guidance_active=r.active(np.arange(n_steps), n_steps),
        adjustment_norms=None if store == "samples" else np.empty((n_chains, n_steps)),
        stored_steps=stored,
        stored_ts=np.append(ts[1:], 0)[stored],
        stored_alpha_bars=np.append(alpha_bars[1:], 1.0)[stored],
        stored_x=np.empty((n_chains, len(stored), denoiser.dim))) for r in rules)

    # an overflow surfaces as a non-finite guidance vector or state, which
    # the block names with its chain, not as a numpy warning before that
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n_chains, BLOCK):
            _run_block(denoiser, classifier, rules, schedule, batches, lo,
                       min(lo + BLOCK, n_chains), seed)
    return batches if isinstance(rule, tuple) else batches[0]


def _run_block(denoiser, classifier, rules, schedule, batches, lo, hi, seed):
    """Run chains lo..hi-1 under every rule, each rule's state over the same
    noise, and write their rows of ``batches`` in place.

    The rules run in groups, each a state and the indices of the rules at
    it; all start as one group at x_T.  A group makes one ``predict_eps`` and
    ``mu_from_eps`` call a step, and its rules split by ``step_key``: those
    of one key share the adjustment, reverse update and next state.  An
    unguided step takes no adjustment, and its norms are 0.  Groups run in
    the order of their first rule, so a step that turns non-finite names the
    first rule in tuple order that takes it."""
    n_steps = schedule.T
    ys = batches[0].targets[lo:hi]
    keep_norms = batches[0].adjustment_norms is not None
    slot = {k: i for i, k in enumerate(batches[0].stored_steps.tolist())}
    # each chain's stream holds n_steps + 1 rows: x_T, then the noise of
    # step k at row k + 1; a window holds the next `width` rows of every stream
    streams = [rng_stream(seed, c) for c in range(lo, hi)]
    n_rows = n_steps + 1
    window = np.empty((hi - lo, min(max(1, WINDOW_ENTRIES // ((hi - lo) * denoiser.dim)),
                                    n_rows), denoiser.dim))
    width = window.shape[1]

    def draw(first):
        rows = min(width, n_rows - first)
        for rng, out in zip(streams, window):
            rng.standard_normal(out=out[:rows])

    draw(0)
    groups = [(window[:, 0].copy(), list(range(len(rules))))]

    for k, pos in enumerate(range(n_steps, 0, -1)):
        row = (k + 1) % width
        if row == 0:
            draw(k + 1)
        t_label = int(batches[0].ts[k])
        split = []
        for x, members in groups:
            eps_hat = denoiser.predict_eps(x, t_label)
            mu = mu_from_eps(x, pos, eps_hat, schedule)
            steps = {}
            for i in members:
                steps.setdefault(rules[i].step_key(k, n_steps), []).append(i)
            for key, sharing in steps.items():
                rule = rules[sharing[0]]
                a_t = None
                if key is not None:
                    try:
                        a_t = adjustment(rule, classifier, x, pos, ys, schedule, k, n_steps)
                    except GuidanceError as exc:
                        raise GuidanceError(exc.t, lo + exc.index, exc.label,
                                            unit="chain") from None
                x_next = guided_reverse_step(mu, schedule.gammas[pos - 1], a_t,
                                             rule.scale, is_final=(pos == 1),
                                             eps=window[:, row])
                if not np.all(np.isfinite(x_next)):
                    bad = lo + int(np.argmax(~np.isfinite(x_next).all(axis=1)))
                    raise NumericalError(
                        f"non-finite state at step {k} (t={t_label}) in chain {bad} "
                        f"under rule {rule.kind} (s={rule.scale}, "
                        f"cutoff={rule.cutoff_fraction})")
                if keep_norms:
                    norms = 0.0 if a_t is None else rule.scale * np.linalg.norm(a_t, axis=-1)
                for i in sharing:
                    if keep_norms:
                        batches[i].adjustment_norms[lo:hi, k] = norms
                    if k in slot:
                        batches[i].stored_x[lo:hi, slot[k]] = x_next
                    if pos == 1:
                        batches[i].samples[lo:hi] = x_next
                split.append((x_next, sharing))
        # a split group's parts may follow groups with later first rules
        groups = sorted(split, key=lambda group: group[1][0])


def trace_manifold_distance(trajectory: SampleBatch, dataset):
    """d_hat (chains, K): at each stored step, min_i ||x_t - sqrt(abar_t) x_i||
    over the dataset, equal to the exhaustive scan bit for bit
    (``metrics.Reference.nearest``)."""
    n, K, D = trajectory.stored_x.shape
    r = np.tile(np.sqrt(trajectory.stored_alpha_bars), n)
    return dataset.reference.nearest(trajectory.stored_x.reshape(n * K, D), r).reshape(n, K)


def forward_manifold_traces(dataset, schedule: NoiseSchedule, n_draws: int, seed: int):
    """Distance traces of the forward process: noise training points to every
    ceil(T / 50)-th step and measure their distance to the rescaled dataset.

    Returns ``(ts, alpha_bars, d_hat)``: the steps' labels and noise levels
    (steps,) and d_hat (n_draws, steps).
    """
    pts = dataset.points
    rng = rng_stream(seed, 0xF0)
    x0 = pts[rng.integers(0, len(pts), size=n_draws)]
    positions = np.arange(1, schedule.T + 1, math.ceil(schedule.T / 50))
    alpha_bars = schedule.alpha_bars[positions - 1]
    d_hat = np.empty((n_draws, len(positions)))
    for k, pos in enumerate(positions.tolist()):
        xt = q_sample(x0, pos, schedule, rng).x_t
        d_hat[:, k] = dataset.reference.nearest(xt, np.full(n_draws, np.sqrt(alpha_bars[k])))
    return schedule.timesteps[positions - 1], alpha_bars, d_hat


def export_trajectories_csv(batch: SampleBatch, path, dataset):
    """One row per (chain, step); d_hat/d_theory, against ``dataset``, only
    at stored steps.

    The bytes are those of ``csv.writer``: each float is its repr and rows
    end in ``\r\n``.  The per-step cells are formatted once for all chains.
    The batch must keep its norms (any ``store`` but "samples").
    """
    if batch.adjustment_norms is None:
        raise ValueError("the batch keeps no adjustment norms: sample it with store "
                         "'norms', 'thinned' or 'full', not 'samples'")
    M, S = batch.adjustment_norms.shape
    lead = [f"{k},{t},{ab!r}," for k, (t, ab)
            in enumerate(zip(batch.ts.tolist(), batch.alpha_bars.tolist()))]
    blank = [",,\r\n"] * S
    tails = []
    D = dataset.points.shape[1]
    d_theory = np.sqrt((1.0 - batch.stored_alpha_bars) * D).tolist()
    # one trace per chain, as the benchmark counts distance evaluations
    for j in range(M):
        d_hat = trace_manifold_distance(batch.chain(j), dataset)[0].tolist()
        tail = blank.copy()
        for k, d, theory in zip(batch.stored_steps.tolist(), d_hat, d_theory):
            tail[k] = f",{d!r},{theory!r}\r\n"
        tails.append(tail)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRAJECTORY_CSV_HEADER) + "\r\n")
        for j, (norms, tail) in enumerate(zip(batch.adjustment_norms.tolist(), tails)):
            fh.write("".join([f"{j},{a}{n!r}{b}" for a, n, b in zip(lead, norms, tail)]))
