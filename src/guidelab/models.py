"""Denoiser and classifier backends.

Two interchangeable families:

* analytic — closed forms for Gaussian-mixture data.  Noising a mixture
  component N(mu_k, V_k) to step t gives N(sqrt(abar_t) mu_k,
  abar_t V_k + (1 - abar_t) I), so the marginal q_t, its score, and the
  Bayes class posterior are all exact.  The optimal epsilon predictor is
  -sqrt(1 - abar_t) * score(q_t).
* learned — multilayer perceptrons with SiLU activations and sinusoidal
  timestep embeddings, trained in float64 with hand-rolled reverse-mode
  gradients (which also yields exact input gradients for guidance).

Models are keyed by the external timestep label t against their *base*
schedule, so they can be reused unchanged under respaced sampling.  t = 0 is
the zero-noise level (abar = 1).

Every model method takes a batch x of shape (N, D) and answers per row: (N, D)
vectors, (N, C) log-probabilities, or (N,) log-probabilities or labels.  The
label y is one class or one per row.  Any other shape of x, a single point
(D,) among them, is a ModelError that names the (N, D) shape.

Inside a call the per-component arrays (the log-joint or logits, the
softmax, the weights) are component-major, (C, N): numpy reduces a short
last axis slowly, and C is 8 where N is up to 256.  ``_component_sum`` adds
the C rows in numpy's own pairwise order, and the GEMMs take the row-layout
operands, so each answer equals that of the row-layout kernel bit for bit.
Each per-step kernel allocates its output and finishes it in place, with the
operations and their order unchanged; none writes an input.
"""

import json
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import (ChecksumError, DataFormatError, ManifoldDescriptor, TruncatedFileError,
                   VersionError)
from .errors import NumericalError
from .forward import q_sample
from .schedule import NoiseSchedule, ScheduleError

MODEL_MAGIC = b"GMOD"
MODEL_VERSION = 1

LOG_2PI = np.log(2.0 * np.pi)


class ModelError(ValueError):
    pass


class ModelMismatchError(ModelError):
    """Checkpoint does not match the schedule or expected backend."""


class TrainingError(NumericalError):
    pass


def mu_from_eps(x_t, position, eps_hat, schedule: NoiseSchedule):
    """Reverse-step mean from an epsilon estimate of x_t's shape:
    (x_t - (1 - alpha_t) / sqrt(1 - abar_t) * eps_hat) / sqrt(alpha_t).

    ``position`` is the 1-based index into the sampling schedule, not a
    timestep label (the two differ after respacing)."""
    if position < 1 or position > schedule.T:
        raise ScheduleError(f"position {position} outside 1..{schedule.T}")
    i = position - 1
    a = schedule.alphas[i]
    ab = schedule.alpha_bars[i]
    mu = np.multiply(eps_hat, (1.0 - a) / np.sqrt(1.0 - ab))
    np.subtract(x_t, mu, out=mu)
    mu /= np.sqrt(a)
    return mu


def _batch(x, dim):
    """x as an (N, dim) float64 array; a ModelError names that shape if x has
    any other."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != dim:
        raise ModelError(f"expected an (N, {dim}) batch, got shape {x.shape}")
    return x


def _labels(y, n, n_classes):
    """y broadcast to n int64 labels, each in 0..n_classes-1."""
    yb = np.broadcast_to(np.asarray(y, dtype=np.int64), (n,))
    if np.any(yb < 0) or np.any(yb >= n_classes):
        raise ModelError(f"class label outside 0..{n_classes - 1}")
    return yb


def _transposed(a):
    """The transpose of the 2-d array a as a contiguous array: (N, C) network
    logits in as the (C, N) array the weight helpers take, their weights out
    as the (N, C) rows that backprop and the GEMMs take."""
    return np.ascontiguousarray(a.T)


def _component_sum(e):
    """The sum over the C rows of the (C, N) array e, (N,), bit for bit
    ``np.sum(r, axis=1)`` of the C-contiguous (N, C) array r that holds e.T:
    numpy's pairwise order along a contiguous row, then numpy's initial 0.0,
    which turns a -0.0 sum into +0.0."""
    total = _pairwise(e)
    total += 0.0
    return total


def _pairwise(e):
    """numpy's pairwise sum of the rows of e: in turn below 8 rows; up to 128,
    eight accumulators over blocks of 8 rows, summed as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the remaining
    rows in turn; above 128, the two halves, split at a multiple of 8."""
    c = len(e)
    if c > 128:
        half = c // 2 - (c // 2) % 8
        total = _pairwise(e[:half])
        total += _pairwise(e[half:])
        return total
    if c < 8:
        total = e[0].copy()
        for row in e[1:]:
            total += row
        return total
    end = c - c % 8
    acc = e[:8].copy()
    for i in range(8, end, 8):
        acc += e[i:i + 8]
    pairs = acc[0::2] + acc[1::2]
    quads = pairs[0::2] + pairs[1::2]
    total = quads[0] + quads[1]
    for row in e[end:]:
        total += row
    return total


def _log_softmax(z):
    """log softmax over the components of the (C, N) logits z, in z."""
    m = np.max(z, axis=0)
    e = np.subtract(z, m)
    np.exp(e, out=e)
    m += np.log(_component_sum(e))
    z -= m
    return z


def _grad_weights(z, y):
    """(log p_y, e_y - softmax) of the (C, N) logits z, the weights in z:
    grad log p(y|x) is the logits' gradient contracted with these weights."""
    cols = np.arange(z.shape[1])
    w = _log_softmax(z)
    logp = w[y, cols]
    np.exp(w, out=w)
    np.negative(w, out=w)
    w[y, cols] += 1.0
    return logp, w


def _direction_weights(z, y):
    """e_y - q of the (C, N) logits z, in z, with q the softmax over the
    classes other than y.

    This is (e_y - softmax) / (1 - p_y): a positive rescaling of the
    gradient weights that stays representable when p_y -> 1 and the
    competitors' probabilities underflow.  The weight of y is taken as
    sum(q).  A column with no competitor left (C = 1, or every other logit at
    -inf) is all zeros, so its direction vanishes; a column whose own logit
    is not finite is all NaN, so its direction is not finite either.
    """
    cols = np.arange(z.shape[1])
    own = z[y, cols]
    z[y, cols] = -np.inf
    alone = np.max(z, axis=0) == -np.inf
    with np.errstate(invalid="ignore"):
        w = np.exp(_log_softmax(z), out=z)
    w[:, alone] = 0.0
    w[:, ~np.isfinite(own)] = np.nan
    np.negative(w, out=w)
    w[y, cols] = -_component_sum(w)
    return w


def _unit(v):
    """The rows of v scaled to unit norm, in v.  A zero row is +0.0 and a
    row that is not finite stays so."""
    norm = np.linalg.norm(v, axis=1, keepdims=True)
    zero = norm == 0
    np.divide(v, norm, out=v, where=~zero)
    v[zero[:, 0]] = 0.0
    return v


# ---------------------------------------------------------------------------
# Analytic backends
# ---------------------------------------------------------------------------

def _log_joint(x, tab):
    """log w_c + log N(x; m_c, diag v_c) for every component and row, (C, N),
    from two GEMMs in the row form: const - 1/2 (x*x) @ (1/v).T + x @ (m/v).T,
    transposed."""
    inv_v, m_v, const = tab
    z = (x * x) @ inv_v.T
    z *= 0.5
    np.subtract(const, z, out=z)
    z += x @ m_v.T
    return _transposed(z)


def _pull(w, x, tab):
    """sum_c w_c (m_c - x) / v_c for every row, (N, D), of the (C, N) weights
    w, without an (N, C, D) temporary: w.T @ (m/v) - x * (w.T @ (1/v))."""
    inv_v, m_v, _ = tab
    w = _transposed(w)
    pull = w @ m_v
    inward = w @ inv_v
    inward *= x
    pull -= inward
    return pull


class _AnalyticBase:
    def __init__(self, descriptor: ManifoldDescriptor, schedule: NoiseSchedule):
        if getattr(descriptor, "kind", None) != "gaussian_mixture":
            raise ModelError("analytic backends require a gaussian_mixture descriptor")
        self.descriptor = descriptor
        self.schedule = schedule
        self.dim = descriptor.dim
        self.base_fingerprint = schedule.base_fingerprint
        self._abar = {int(lbl): float(ab)
                      for lbl, ab in zip(schedule.timesteps, schedule.alpha_bars)}
        self._log_w = np.log(descriptor.weights)
        self._memo = None  # (t, table) of the last step

    def _alpha_bar(self, t: int) -> float:
        if t == 0:
            return 1.0
        try:
            return self._abar[int(t)]
        except KeyError:
            raise ScheduleError(f"timestep {t} not in schedule") from None

    def _table(self, t: int):
        """(1/v, m/v, const) of the components noised to step t, with
        m = sqrt(abar) mu, v = abar V + (1 - abar) and
        const = log w - 1/2 sum_d (m^2/v + log v + log 2 pi).

        The last step's table is kept: the sampler asks for one step's table
        several times in a row, once per model call of that step."""
        memo = self._memo
        if memo is not None and memo[0] == t:
            return memo[1]
        ab = self._alpha_bar(t)
        m = np.sqrt(ab) * self.descriptor.means           # (C, D)
        var = self.descriptor.variances
        v = var if t == 0 else ab * var + (1.0 - ab)      # (C, D)
        inv_v = 1.0 / v
        m_v = m * inv_v
        const = self._log_w - 0.5 * np.sum(m * m_v + np.log(v) + LOG_2PI, axis=1)
        table = inv_v, m_v, const
        self._memo = (t, table)
        return table


class AnalyticDenoiser(_AnalyticBase):
    """Exact minimizer of the epsilon objective for mixture data."""

    def predict_eps(self, x, t):
        x = _batch(x, self.dim)
        tab = self._table(t)
        resp = _log_softmax(_log_joint(x, tab))
        np.exp(resp, out=resp)
        # the score of q_t is the responsibility-weighted pull
        eps = _pull(resp, x, tab)
        eps *= -np.sqrt(1.0 - self._alpha_bar(t))
        return eps


class AnalyticClassifier(_AnalyticBase):
    """Bayes posterior p(y | x_t, t) for mixture data."""

    @property
    def n_classes(self) -> int:
        return self.descriptor.n_classes

    def class_logprobs(self, x, t):
        return _transposed(_log_softmax(_log_joint(_batch(x, self.dim), self._table(t))))

    def class_grad(self, x, t, y):
        """(log p(y|x_t), gradient of log p(y|x_t) w.r.t. x_t)."""
        x = _batch(x, self.dim)
        y = _labels(y, len(x), self.n_classes)
        tab = self._table(t)
        logp, w = _grad_weights(_log_joint(x, tab), y)
        return logp, _pull(w, x, tab)

    def class_grad_direction(self, x, t, y):
        """Unit vector along grad log p(y|x_t), stable under saturation (see
        ``_direction_weights``); zero where even the direction vanishes."""
        x = _batch(x, self.dim)
        y = _labels(y, len(x), self.n_classes)
        tab = self._table(t)
        return _unit(_pull(_direction_weights(_log_joint(x, tab), y), x, tab))

    def predict(self, x, t=0):
        return np.argmax(self.class_logprobs(x, t), axis=1)


# ---------------------------------------------------------------------------
# Learned backends
# ---------------------------------------------------------------------------

def time_embedding(t, dim: int = 64, max_period: float = 10000.0):
    """Sinusoidal embedding of timestep labels, shape (..., dim)."""
    t = np.asarray(t, dtype=np.float64)
    half = dim // 2
    freqs = np.exp(-np.log(max_period) * np.arange(half) / half)
    args = t[..., None] * freqs
    return np.concatenate([np.sin(args), np.cos(args)], axis=-1)


def _net_input(x, t, t_embed_dim):
    """The network input: each row of x beside the embedding of its timestep
    label (t scalar or one label per row)."""
    emb = time_embedding(np.broadcast_to(np.asarray(t, float), (len(x),)), t_embed_dim)
    return np.concatenate([x, emb], axis=1)


def _silu(a):
    with np.errstate(over="ignore"):  # exp(-a) = inf gives s = 0, its limit
        s = 1.0 / (1.0 + np.exp(-a))
    return a * s, s


class MLP:
    """Fully connected net with SiLU hidden activations, linear output."""

    def __init__(self, sizes, rng: np.random.Generator = None, params=None):
        self.sizes = tuple(int(s) for s in sizes)
        if params is not None:
            self.params = params
        else:
            self.params = []
            for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
                w = rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
                self.params.append([w, np.zeros(fan_out)])

    def forward(self, h):
        cache = []
        for k, (w, b) in enumerate(self.params):
            a = h @ w + b
            if k < len(self.params) - 1:
                out, sig = _silu(a)
                cache.append((h, a, sig))
                h = out
            else:
                cache.append((h, a, None))
                h = a
        return h, cache

    def backward(self, cache, g_out):
        """Returns (per-layer [gW, gb], gradient w.r.t. the input)."""
        grads = [None] * len(self.params)
        g = g_out
        for k in reversed(range(len(self.params))):
            h, a, sig = cache[k]
            if sig is not None:
                g = g * (sig * (1.0 + a * (1.0 - sig)))
            grads[k] = [h.T @ g, g.sum(axis=0)]
            g = g @ self.params[k][0].T
        return grads, g

    def flat_params(self):
        return np.concatenate([p.ravel() for layer in self.params for p in layer])


@dataclass(frozen=True)
class Hyperparams:
    hidden: tuple = (256, 256, 256)
    t_embed_dim: int = 64
    lr: float = 1e-3
    batch_size: int = 256
    epochs: int = 200
    grad_clip: float = 10.0


@dataclass(frozen=True)
class TrainReport:
    epoch_losses: np.ndarray
    final_loss: float
    wall_time: float
    seed: int


class _LearnedBase:
    def __init__(self, mlp: MLP, schedule: NoiseSchedule, dim: int, t_embed_dim: int):
        self.mlp = mlp
        self.schedule = schedule
        self.dim = dim
        self.t_embed_dim = t_embed_dim
        self.base_fingerprint = schedule.base_fingerprint


class LearnedDenoiser(_LearnedBase):
    def predict_eps(self, x, t):
        return self.mlp.forward(_net_input(_batch(x, self.dim), t, self.t_embed_dim))[0]


class LearnedClassifier(_LearnedBase):
    def __init__(self, mlp, schedule, dim, t_embed_dim, n_classes):
        super().__init__(mlp, schedule, dim, t_embed_dim)
        self.n_classes = n_classes

    def class_logprobs(self, x, t):
        logits, _ = self.mlp.forward(_net_input(_batch(x, self.dim), t, self.t_embed_dim))
        return _transposed(_log_softmax(_transposed(logits)))

    def class_grad(self, x, t, y):
        x = _batch(x, self.dim)
        y = _labels(y, len(x), self.n_classes)
        logits, cache = self.mlp.forward(_net_input(x, t, self.t_embed_dim))
        logp, w = _grad_weights(_transposed(logits), y)
        return logp, self.mlp.backward(cache, _transposed(w))[1][:, :self.dim]

    def class_grad_direction(self, x, t, y):
        """Unit vector along grad log p(y|x_t), stable under saturation:
        backprop is linear in the upstream, so ``_direction_weights``'
        rescaling keeps the input gradient's direction."""
        x = _batch(x, self.dim)
        y = _labels(y, len(x), self.n_classes)
        logits, cache = self.mlp.forward(_net_input(x, t, self.t_embed_dim))
        w = _transposed(_direction_weights(_transposed(logits), y))
        return _unit(self.mlp.backward(cache, w)[1][:, :self.dim])

    def predict(self, x, t=0):
        return np.argmax(self.class_logprobs(x, t), axis=1)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

class _Adam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.m = [[np.zeros_like(p) for p in layer] for layer in params]
        self.v = [[np.zeros_like(p) for p in layer] for layer in params]
        self.t = 0

    def step(self, grads):
        self.t += 1
        c1 = 1.0 - self.b1 ** self.t
        c2 = 1.0 - self.b2 ** self.t
        for layer, g_layer, m_l, v_l in zip(self.params, grads, self.m, self.v):
            for p, g, m, v in zip(layer, g_layer, m_l, v_l):
                m *= self.b1
                m += (1.0 - self.b1) * g
                v *= self.b2
                v += (1.0 - self.b2) * g * g
                p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def _clip_grads(grads, max_norm):
    total = np.sqrt(sum(float(np.sum(g * g)) for layer in grads for g in layer))
    if total > max_norm:
        scale = max_norm / total
        for layer in grads:
            for g in layer:
                g *= scale
    return grads


def _train_loop(dataset, schedule, hyper, seed, out_dim, batch_fn):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    D = dataset.points.shape[1]
    sizes = (D + hyper.t_embed_dim,) + tuple(hyper.hidden) + (out_dim,)
    mlp = MLP(sizes, rng=rng)
    opt = _Adam(mlp.params, hyper.lr)
    n = len(dataset.points)
    losses = []
    t0 = time.perf_counter()
    for _ in range(hyper.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, hyper.batch_size):
            idx = order[start:start + hyper.batch_size]
            loss, grads = batch_fn(mlp, idx, rng)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss {loss} at step {opt.t}")
            opt.step(_clip_grads(grads, hyper.grad_clip))
            epoch_loss += loss
            n_batches += 1
        losses.append(epoch_loss / n_batches)
    # a finite loss can still diverge.  The bar is the first epoch's loss, not a
    # running peak, which a converging run can pass on its way down
    if losses[-1] > losses[0]:
        raise TrainingError(f"training diverged: last epoch's loss {losses[-1]:.6g} is "
                            f"above the first epoch's {losses[0]:.6g}")
    report = TrainReport(epoch_losses=np.array(losses), final_loss=losses[-1],
                         wall_time=time.perf_counter() - t0, seed=seed)
    return mlp, report


def train_denoiser(dataset, schedule: NoiseSchedule, hyper: Hyperparams = None,
                   seed: int = 0):
    """Minimize the epsilon-prediction objective
    E_{t, x_0, eps} || eps - eps_theta(x_t, t) ||^2 with Adam."""
    hyper = hyper or Hyperparams()
    D = dataset.points.shape[1]

    def batch_fn(mlp, idx, rng):
        x0 = dataset.points[idx]
        t = rng.integers(1, schedule.T + 1, size=len(idx))
        noised = q_sample(x0, t, schedule, rng)
        out, cache = mlp.forward(_net_input(noised.x_t, t, hyper.t_embed_dim))
        resid = out - noised.eps
        loss = float(np.mean(resid * resid))
        grads, _ = mlp.backward(cache, 2.0 * resid / resid.size)
        return loss, grads

    mlp, report = _train_loop(dataset, schedule, hyper, seed, D, batch_fn)
    return LearnedDenoiser(mlp, schedule, D, hyper.t_embed_dim), report


def train_classifier(dataset, schedule: NoiseSchedule, hyper: Hyperparams = None,
                     seed: int = 0):
    """Minimize cross-entropy on (x_t, t, y) triples, t uniform in [1, T]."""
    hyper = hyper or Hyperparams()
    C = dataset.n_classes
    if C < 2:
        raise ModelError("classifier training needs at least two classes")
    D = dataset.points.shape[1]

    def batch_fn(mlp, idx, rng):
        x0 = dataset.points[idx]
        y = dataset.labels[idx]
        t = rng.integers(1, schedule.T + 1, size=len(idx))
        xt = q_sample(x0, t, schedule, rng).x_t
        logits, cache = mlp.forward(_net_input(xt, t, hyper.t_embed_dim))
        logp, w = _grad_weights(_transposed(logits), y)
        grads, _ = mlp.backward(cache, -_transposed(w) / len(idx))
        return float(-np.mean(logp)), grads

    mlp, report = _train_loop(dataset, schedule, hyper, seed, C, batch_fn)
    return LearnedClassifier(mlp, schedule, D, hyper.t_embed_dim, C), report


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_model(model, path) -> None:
    """Write a trained model as a ``.gmod`` checkpoint.  Analytic models are
    not saved: the config rebuilds them from the data descriptor."""
    if not isinstance(model, (LearnedDenoiser, LearnedClassifier)):
        raise ModelError(f"only trained models are saved as checkpoints, "
                         f"not {type(model).__name__}")
    header = {"backend": ("learned_denoiser" if isinstance(model, LearnedDenoiser)
                          else "learned_classifier"),
              "fingerprint": model.base_fingerprint,
              "dim": model.dim,
              "sizes": list(model.mlp.sizes),
              "t_embed_dim": model.t_embed_dim}
    if isinstance(model, LearnedClassifier):
        header["n_classes"] = model.n_classes
    payload = model.mlp.flat_params().astype("<f8").tobytes()
    head = json.dumps(header, sort_keys=True).encode()
    buf = bytearray()
    buf += MODEL_MAGIC
    buf += MODEL_VERSION.to_bytes(2, "little")
    buf += len(head).to_bytes(4, "little")
    buf += head
    buf += payload
    buf += (zlib.crc32(buf) & 0xFFFFFFFF).to_bytes(4, "little")
    Path(path).write_bytes(bytes(buf))


def _claimed_size(raw, head_len):
    """The bytes a checkpoint's header says it has: the header's own end, and
    the payload its layer sizes need if the header reads as JSON."""
    size = 10 + head_len + 4
    try:
        sizes = json.loads(raw[10:10 + head_len])["sizes"]
        return size + 8 * sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))
    except (ValueError, LookupError, TypeError):
        return size


def load_model(path, schedule: NoiseSchedule):
    raw = Path(path).read_bytes()
    if len(raw) < 14:
        raise TruncatedFileError(f"{path}: file too short to be a model checkpoint")
    if raw[:4] != MODEL_MAGIC:
        raise ModelError(f"{path}: bad magic bytes")
    version = int.from_bytes(raw[4:6], "little")
    if version != MODEL_VERSION:
        raise VersionError(f"{path}: model format version {version}, expected {MODEL_VERSION}")
    head_len = int.from_bytes(raw[6:10], "little")
    # a memoryview, not a slice, so the file's bytes are never copied whole
    if (zlib.crc32(memoryview(raw)[:-4]) & 0xFFFFFFFF) != int.from_bytes(raw[-4:], "little"):
        if len(raw) < (expected := _claimed_size(raw, head_len)):
            raise TruncatedFileError(f"{path}: expected {expected} bytes, got {len(raw)}")
        raise ChecksumError(f"{path}: CRC32 mismatch")
    try:
        header = json.loads(raw[10:10 + head_len].decode())
    except ValueError as exc:
        raise DataFormatError(f"{path}: checkpoint header is not JSON ({exc})") from None

    def required(name, kind=int):
        """The header field ``name``: a ``kind``, and at least 1 if an int."""
        if not isinstance(header, dict) or name not in header:
            raise DataFormatError(f"{path}: checkpoint header lacks {name!r}")
        value = header[name]
        if not isinstance(value, kind) or isinstance(value, bool) or (kind is int and value < 1):
            raise DataFormatError(f"{path}: checkpoint header field {name!r} is {value!r}")
        return value

    fingerprint = required("fingerprint", str)
    if fingerprint != schedule.base_fingerprint:
        raise ModelMismatchError(
            f"{path}: checkpoint schedule fingerprint {fingerprint} "
            f"does not match {schedule.base_fingerprint}")
    backend = required("backend", str)
    if backend not in ("learned_denoiser", "learned_classifier"):
        raise DataFormatError(f"{path}: unknown checkpoint backend {backend!r}")
    sizes = required("sizes", list)
    dim, t_embed_dim = required("dim"), required("t_embed_dim")
    n_out = dim if backend == "learned_denoiser" else required("n_classes")
    # the input is x and its time embedding, of 2 * (t_embed_dim // 2) columns
    if (len(sizes) < 2 or not all(type(n) is int and n >= 1 for n in sizes)
            or sizes[0] != dim + 2 * (t_embed_dim // 2) or sizes[-1] != n_out):
        raise DataFormatError(f"{path}: layer sizes {sizes!r} do not lead, in positive "
                              f"integers, from {dim + 2 * (t_embed_dim // 2)} inputs to "
                              f"{n_out} outputs")
    payload = memoryview(raw)[10 + head_len:-4]
    n_params = sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))
    if len(payload) != 8 * n_params:
        raise DataFormatError(f"{path}: {len(payload)} payload bytes, layer sizes "
                              f"{sizes} need {8 * n_params}")
    flat = np.frombuffer(payload, dtype="<f8").copy()
    params, off = [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w = flat[off:off + fan_in * fan_out].reshape(fan_in, fan_out)
        off += fan_in * fan_out
        b = flat[off:off + fan_out]
        off += fan_out
        params.append([w, b])
    mlp = MLP(sizes, params=params)
    if backend == "learned_denoiser":
        return LearnedDenoiser(mlp, schedule, dim, t_embed_dim)
    return LearnedClassifier(mlp, schedule, dim, t_embed_dim, n_out)
