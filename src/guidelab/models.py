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
"""

import json
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import ManifoldDescriptor
from .errors import NumericalError
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


def mu_from_eps(x_t, t, eps_hat, schedule: NoiseSchedule):
    """Reverse-step mean from an epsilon estimate:
    (x_t - (1 - alpha_t) / sqrt(1 - abar_t) * eps_hat) / sqrt(alpha_t)."""
    if t < 1 or t > schedule.T:
        raise ScheduleError(f"timestep {t} outside 1..{schedule.T}")
    i = t - 1
    a = schedule.alphas[i]
    ab = schedule.alpha_bars[i]
    return (np.asarray(x_t) - (1.0 - a) / np.sqrt(1.0 - ab) * np.asarray(eps_hat)) / np.sqrt(a)


# ---------------------------------------------------------------------------
# Analytic backends
# ---------------------------------------------------------------------------

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

    def _alpha_bar(self, t: int) -> float:
        if t == 0:
            return 1.0
        try:
            return self._abar[int(t)]
        except KeyError:
            raise ScheduleError(f"timestep {t} not in schedule") from None

    def _moments(self, t: int):
        ab = self._alpha_bar(t)
        m = np.sqrt(ab) * self.descriptor.means           # (C, D)
        v = ab * self.descriptor.variances + (1.0 - ab)   # (C, D)
        if t == 0:
            v = self.descriptor.variances
        return ab, m, v

    def _component_logpdfs(self, x, m, v):
        # x: (N, D) -> (N, C)
        diff = x[:, None, :] - m[None, :, :]
        return -0.5 * np.sum(diff * diff / v[None] + np.log(v)[None] + LOG_2PI, axis=2)

    def _responsibilities(self, x, m, v):
        lj = self._log_w[None] + self._component_logpdfs(x, m, v)  # (N, C)
        lz = _logsumexp(lj, axis=1)
        return np.exp(lj - lz[:, None]), lj, lz

    def _score(self, x, m, v):
        """Gradient of log q_t at x, vectorized over rows."""
        r, _, _ = self._responsibilities(x, m, v)
        pulls = (m[None] - x[:, None, :]) / v[None]       # (N, C, D)
        return np.einsum("nc,ncd->nd", r, pulls)


class AnalyticDenoiser(_AnalyticBase):
    """Exact minimizer of the epsilon objective for mixture data."""

    def predict_eps(self, x, t):
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        xb = x[None] if single else x
        if xb.shape[-1] != self.dim:
            raise ModelError(f"expected dimension {self.dim}, got {xb.shape[-1]}")
        ab, m, v = self._moments(t)
        eps = -np.sqrt(1.0 - ab) * self._score(xb, m, v)
        return eps[0] if single else eps

    def log_density(self, x, t):
        """log q_t(x); used by finite-difference oracles."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        xb = x[None] if single else x
        _, m, v = self._moments(t)
        lz = _logsumexp(self._log_w[None] + self._component_logpdfs(xb, m, v), axis=1)
        return float(lz[0]) if single else lz


class AnalyticClassifier(_AnalyticBase):
    """Bayes posterior p(y | x_t, t) for mixture data."""

    @property
    def n_classes(self) -> int:
        return self.descriptor.n_classes

    def class_logprobs(self, x, t):
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        xb = x[None] if single else x
        _, m, v = self._moments(t)
        _, lj, lz = self._responsibilities(xb, m, v)
        out = lj - lz[:, None]
        return out[0] if single else out

    def class_grad(self, x, t, y):
        """(log p(y|x_t), gradient of log p(y|x_t) w.r.t. x_t)."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        xb = x[None] if single else x
        yb = np.broadcast_to(np.asarray(y, dtype=np.int64), (len(xb),))
        if np.any(yb < 0) or np.any(yb >= self.n_classes):
            raise ModelError(f"class label outside 0..{self.n_classes - 1}")
        _, m, v = self._moments(t)
        r, lj, lz = self._responsibilities(xb, m, v)
        rows = np.arange(len(xb))
        logp = lj[rows, yb] - lz
        pull_y = (m[yb] - xb) / v[yb]
        score = np.einsum("nc,ncd->nd", r, (m[None] - xb[:, None, :]) / v[None])
        grad = pull_y - score
        if single:
            return float(logp[0]), grad[0]
        return logp, grad

    def class_grad_direction(self, x, t, y):
        """Unit vector along grad log p(y|x_t), stable under saturation.

        grad log p_y = sum_{k != y} r_k (pull_y - pull_k); when p_y -> 1 the
        responsibilities r_k underflow even though the direction is well
        defined, so the competitor weights are renormalized in log space
        before the sum.  Returns zero where even the direction vanishes.
        """
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        xb = x[None] if single else x
        yb = np.broadcast_to(np.asarray(y, dtype=np.int64), (len(xb),))
        if np.any(yb < 0) or np.any(yb >= self.n_classes):
            raise ModelError(f"class label outside 0..{self.n_classes - 1}")
        _, m, v = self._moments(t)
        lj = self._log_w[None] + self._component_logpdfs(xb, m, v)  # (N, C)
        rows = np.arange(len(xb))
        lj_comp = lj.copy()
        lj_comp[rows, yb] = -np.inf
        with np.errstate(invalid="ignore"):
            w = np.exp(lj_comp - np.max(lj_comp, axis=1, keepdims=True))
        w = np.nan_to_num(w)  # all-(-inf) row (C = 1) -> zeros
        pulls = (m[None] - xb[:, None, :]) / v[None]
        pull_y = (m[yb] - xb) / v[yb]
        vdir = np.sum(w[:, :, None] * (pull_y[:, None, :] - pulls), axis=1)
        norm = np.linalg.norm(vdir, axis=1, keepdims=True)
        unit = np.divide(vdir, norm, out=np.zeros_like(vdir), where=norm > 0)
        return unit[0] if single else unit

    def predict(self, x, t=0):
        lp = self.class_logprobs(x, t)
        return np.argmax(lp, axis=-1)


def _logsumexp(a, axis=None):
    m = np.max(a, axis=axis, keepdims=True)
    return np.squeeze(m, axis=axis) + np.log(np.sum(np.exp(a - m), axis=axis))


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


def _silu(a):
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

    def _input(self, x, t):
        emb = time_embedding(np.broadcast_to(np.asarray(t, float), (len(x),)),
                             self.t_embed_dim)
        return np.concatenate([x, emb], axis=1)


class LearnedDenoiser(_LearnedBase):
    def predict_eps(self, x, t):
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        xb = x[None] if single else x
        if xb.shape[-1] != self.dim:
            raise ModelError(f"expected dimension {self.dim}, got {xb.shape[-1]}")
        out, _ = self.mlp.forward(self._input(xb, t))
        return out[0] if single else out

    def eps_vjp(self, x, t, u):
        """Gradient of u . eps_theta(x, t) w.r.t. x (for gradient checks)."""
        xb = np.asarray(x, dtype=np.float64)[None]
        out, cache = self.mlp.forward(self._input(xb, t))
        _, g_in = self.mlp.backward(cache, np.asarray(u, dtype=np.float64)[None])
        return g_in[0, :self.dim]


class LearnedClassifier(_LearnedBase):
    def __init__(self, mlp, schedule, dim, t_embed_dim, n_classes):
        super().__init__(mlp, schedule, dim, t_embed_dim)
        self.n_classes = n_classes

    def _logits(self, xb, t):
        out, cache = self.mlp.forward(self._input(xb, t))
        return out, cache

    def class_logprobs(self, x, t):
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        xb = x[None] if single else x
        logits, _ = self._logits(xb, t)
        lp = logits - _logsumexp(logits, axis=1)[:, None]
        return lp[0] if single else lp

    def class_grad(self, x, t, y):
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        xb = x[None] if single else x
        yb = np.broadcast_to(np.asarray(y, dtype=np.int64), (len(xb),))
        if np.any(yb < 0) or np.any(yb >= self.n_classes):
            raise ModelError(f"class label outside 0..{self.n_classes - 1}")
        logits, cache = self._logits(xb, t)
        lz = _logsumexp(logits, axis=1)
        rows = np.arange(len(xb))
        logp = logits[rows, yb] - lz
        g_logits = -np.exp(logits - lz[:, None])
        g_logits[rows, yb] += 1.0
        _, g_in = self.mlp.backward(cache, g_logits)
        grad = g_in[:, :self.dim]
        if single:
            return float(logp[0]), grad[0]
        return logp, grad

    def class_grad_direction(self, x, t, y):
        """Unit vector along grad log p(y|x_t), stable under saturation.

        Backprop is linear in the upstream vector, so dividing the upstream
        (e_y - softmax) by (1 - p_y) before the backward pass rescales the
        input gradient without changing its direction.  The rescaled upstream
        is e_y - q with q the softmax over the competitor classes, which
        stays representable when p_y -> 1.
        """
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        xb = x[None] if single else x
        yb = np.broadcast_to(np.asarray(y, dtype=np.int64), (len(xb),))
        if np.any(yb < 0) or np.any(yb >= self.n_classes):
            raise ModelError(f"class label outside 0..{self.n_classes - 1}")
        logits, cache = self._logits(xb, t)
        rows = np.arange(len(xb))
        comp = logits.copy()
        comp[rows, yb] = -np.inf
        lz_comp = _logsumexp(comp, axis=1)
        g = -np.exp(comp - lz_comp[:, None])
        g = np.nan_to_num(g)
        g[rows, yb] = 1.0
        _, g_in = self.mlp.backward(cache, g)
        vdir = g_in[:, :self.dim]
        norm = np.linalg.norm(vdir, axis=1, keepdims=True)
        unit = np.divide(vdir, norm, out=np.zeros_like(vdir), where=norm > 0)
        return unit[0] if single else unit

    def predict(self, x, t=0):
        return np.argmax(self.class_logprobs(x, t), axis=-1)


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
    report = TrainReport(epoch_losses=np.array(losses), final_loss=losses[-1],
                         wall_time=time.perf_counter() - t0, seed=seed)
    return mlp, report


def train_denoiser(dataset, schedule: NoiseSchedule, hyper: Hyperparams = None,
                   seed: int = 0):
    """Minimize the epsilon-prediction objective
    E_{t, x_0, eps} || eps - eps_theta(x_t, t) ||^2 with Adam."""
    hyper = hyper or Hyperparams()
    D = dataset.points.shape[1]
    abars = schedule.alpha_bars

    def batch_fn(mlp, idx, rng):
        x0 = dataset.points[idx]
        t = rng.integers(1, schedule.T + 1, size=len(idx))
        eps = rng.standard_normal(x0.shape)
        ab = abars[t - 1][:, None]
        xt = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
        inp = np.concatenate([xt, time_embedding(t, hyper.t_embed_dim)], axis=1)
        out, cache = mlp.forward(inp)
        resid = out - eps
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
    abars = schedule.alpha_bars

    def batch_fn(mlp, idx, rng):
        x0 = dataset.points[idx]
        y = dataset.labels[idx]
        t = rng.integers(1, schedule.T + 1, size=len(idx))
        eps = rng.standard_normal(x0.shape)
        ab = abars[t - 1][:, None]
        xt = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
        inp = np.concatenate([xt, time_embedding(t, hyper.t_embed_dim)], axis=1)
        logits, cache = mlp.forward(inp)
        lz = _logsumexp(logits, axis=1)
        rows = np.arange(len(idx))
        loss = float(np.mean(lz - logits[rows, y]))
        g = np.exp(logits - lz[:, None])
        g[rows, y] -= 1.0
        grads, _ = mlp.backward(cache, g / len(idx))
        return loss, grads

    mlp, report = _train_loop(dataset, schedule, hyper, seed, C, batch_fn)
    return LearnedClassifier(mlp, schedule, D, hyper.t_embed_dim, C), report


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def _backend_tag(model):
    return {
        AnalyticDenoiser: "analytic_denoiser",
        AnalyticClassifier: "analytic_classifier",
        LearnedDenoiser: "learned_denoiser",
        LearnedClassifier: "learned_classifier",
    }[type(model)]


def save_model(model, path) -> None:
    header = {"backend": _backend_tag(model),
              "fingerprint": model.base_fingerprint,
              "dim": model.dim}
    if isinstance(model, (AnalyticDenoiser, AnalyticClassifier)):
        header["descriptor"] = model.descriptor.to_text()
        payload = b""
    else:
        header["sizes"] = list(model.mlp.sizes)
        header["t_embed_dim"] = model.t_embed_dim
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


def load_model(path, schedule: NoiseSchedule):
    from .data import ChecksumError, TruncatedFileError, VersionError
    raw = Path(path).read_bytes()
    if len(raw) < 14:
        raise TruncatedFileError(f"{path}: file too short to be a model checkpoint")
    if raw[:4] != MODEL_MAGIC:
        raise ModelError(f"{path}: bad magic bytes")
    version = int.from_bytes(raw[4:6], "little")
    if version != MODEL_VERSION:
        raise VersionError(f"{path}: model format version {version}, expected {MODEL_VERSION}")
    if (zlib.crc32(raw[:-4]) & 0xFFFFFFFF) != int.from_bytes(raw[-4:], "little"):
        raise ChecksumError(f"{path}: CRC32 mismatch")
    head_len = int.from_bytes(raw[6:10], "little")
    header = json.loads(raw[10:10 + head_len].decode())
    if header["fingerprint"] != schedule.base_fingerprint:
        raise ModelMismatchError(
            f"{path}: checkpoint schedule fingerprint {header['fingerprint']} "
            f"does not match {schedule.base_fingerprint}")
    backend = header["backend"]
    if backend in ("analytic_denoiser", "analytic_classifier"):
        desc = ManifoldDescriptor.from_text(header["descriptor"])
        cls = AnalyticDenoiser if backend == "analytic_denoiser" else AnalyticClassifier
        return cls(desc, schedule)
    payload = raw[10 + head_len:-4]
    flat = np.frombuffer(payload, dtype="<f8").copy()
    sizes = header["sizes"]
    params, off = [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w = flat[off:off + fan_in * fan_out].reshape(fan_in, fan_out)
        off += fan_in * fan_out
        b = flat[off:off + fan_out]
        off += fan_out
        params.append([w, b])
    mlp = MLP(sizes, params=params)
    if backend == "learned_denoiser":
        return LearnedDenoiser(mlp, schedule, header["dim"], header["t_embed_dim"])
    return LearnedClassifier(mlp, schedule, header["dim"], header["t_embed_dim"],
                             header["n_classes"])
