"""Sample-quality and diagnostics metrics.

Fréchet distance is computed on raw coordinates (the desk-scale analog of
FID; not comparable to feature-space FID numbers).  Precision/recall use the
standard k-NN manifold estimate, computed over row blocks of squared
distances (``_blas.rows_per_block``), so memory stays bounded at any set size
(about 12.4 MB traced at 4096 vs 8000 points in D = 64), with BLAS held to
one thread inside (``_blas.threads``).  Each block is one GEMM of augmented
operands, rows [p, ||p||^2, 1] against columns [-2q, 1, ||q||^2]^T, built once
per point set.  The cross pass compares squared distances with
``_sq_threshold`` of the radii, which gives the verdict of comparing their
clamped square roots without taking one.  class_fidelity stands
in for a fidelity score: the fraction of samples a zero-noise oracle
classifier assigns to their target class.
"""

import csv
from dataclasses import dataclass

import numpy as np

from . import _blas

METRICS_CSV_HEADER = ["frechet", "precision", "recall", "class_accuracy",
                      "n_generated", "n_reference", "config"]
COV_REGULARIZER = 1e-10
MIN_NOISE = 0.1  # distance_law_fit pools the steps with 1 - abar_t >= MIN_NOISE


@dataclass(frozen=True)
class MetricsReport:
    frechet: float
    precision: float
    recall: float
    class_accuracy: float
    n_generated: int
    n_reference: int
    config: str = ""

    def __post_init__(self):
        for name in ("frechet", "precision", "recall", "class_accuracy"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} is not finite: {v}")
        if self.frechet < 0:
            raise ValueError("frechet must be nonnegative")
        for name in ("precision", "recall", "class_accuracy"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")

    def csv_row(self):
        return [repr(self.frechet), repr(self.precision), repr(self.recall),
                repr(self.class_accuracy), self.n_generated, self.n_reference,
                self.config]

    def text_block(self) -> str:
        return (f"frechet          {self.frechet:.6g}\n"
                f"precision        {self.precision:.4f}\n"
                f"recall           {self.recall:.4f}\n"
                f"class_fidelity   {self.class_accuracy:.4f}\n"
                f"n_generated      {self.n_generated}\n"
                f"n_reference      {self.n_reference}\n")


def _sqrtm_psd(c):
    vals, vecs = np.linalg.eigh(c)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def frechet_distance(generated, reference) -> float:
    """||mu_g - mu_r||^2 + Tr(C_g + C_r - 2 (C_g C_r)^{1/2}).

    Each covariance gets COV_REGULARIZER on its diagonal, so clouds of at
    most D points still give a finite distance.  The cross term uses the
    symmetrized form Tr sqrt(C_g^{1/2} C_r C_g^{1/2}) via eigendecompositions.
    """
    g = np.asarray(generated, dtype=np.float64)
    r = np.asarray(reference, dtype=np.float64)
    d = g.shape[1]
    mu_g, mu_r = g.mean(axis=0), r.mean(axis=0)
    eye = COV_REGULARIZER * np.eye(d)
    c_g = np.cov(g, rowvar=False).reshape(d, d) + eye
    c_r = np.cov(r, rowvar=False).reshape(d, d) + eye
    root_g = _sqrtm_psd(c_g)
    inner = root_g @ c_r @ root_g
    cross = np.sum(np.sqrt(np.clip(np.linalg.eigvalsh(inner), 0.0, None)))
    diff = mu_g - mu_r
    val = float(diff @ diff + np.trace(c_g) + np.trace(c_r) - 2.0 * cross)
    return max(val, 0.0)


def _row_operand(p, pp):
    """[p, ||p||^2, 1] (n, D + 2): with ``_column_operand`` of a set q, the
    product of a block of these rows is ||p||^2 - 2 p.q + ||q||^2 in one GEMM."""
    rows = np.empty((len(p), p.shape[1] + 2))
    rows[:, :-2] = p
    rows[:, -2] = pp
    rows[:, -1] = 1.0
    return rows


def _column_operand(p, pp):
    """[-2p, 1, ||p||^2]^T (D + 2, n), contiguous."""
    cols = np.empty((p.shape[1] + 2, len(p)))
    np.multiply(p.T, -2.0, out=cols[:-2])
    cols[-2] = 1.0
    cols[-1] = pp
    return cols


def _sq_threshold(radius):
    """The largest float64 t with sqrt(t) <= r, for each radius r (NaN where
    no t has it: r negative or NaN).

    sqrt is monotone and correctly rounded, so ``d2 <= t`` equals
    ``sqrt(max(d2, 0)) <= r`` for every d2, negative values and NaN included.
    r * r is within an ulp or two of t; each pass moves t one ulp toward it.
    """
    r = np.asarray(radius, dtype=np.float64)
    with np.errstate(over="ignore"):  # r * r beyond the float range is inf
        t = np.where(r >= 0, r * r, np.nan)
        while True:
            down = np.sqrt(t) > r
            up = np.nextafter(t, np.inf)
            grow = (up > t) & (np.sqrt(up) <= r)
            if not (down.any() or grow.any()):
                return t
            t = np.where(down, np.nextafter(t, -np.inf), np.where(grow, up, t))


def _check_k(n, k):
    if k < 1:
        raise ValueError("k must be at least 1")
    if n <= k:
        raise ValueError("each set needs more than k points")


def _radius(rows, cols, k):
    """kth_nn_radius of the set whose operands are ``rows`` and ``cols``."""
    out = np.empty(len(rows))
    # one output block for the pass: a fresh one per GEMM would be allocated
    # while the last is still held, two 4 MiB blocks at a time
    block = np.empty((min(len(rows), _blas.rows_per_block(len(rows))), len(rows)))
    with _blas.threads(1):
        for lo in range(0, len(rows), len(block)):
            d2 = np.matmul(rows[lo:lo + len(block)], cols, out=block[:len(rows) - lo])
            i = np.arange(len(d2))
            d2[i, lo + i] = np.inf
            d2.partition(k - 1, axis=1)
            # an exact duplicate's zero distance can round below 0
            out[lo:lo + len(d2)] = np.sqrt(np.maximum(d2[:, k - 1], 0.0))
    return out


def kth_nn_radius(points, k: int):
    """Distance from each point to its k-th nearest other point of ``points``
    (a point's own zero distance does not count; duplicates do)."""
    p = np.asarray(points, dtype=np.float64)
    _check_k(len(p), k)
    pp = np.sum(p * p, axis=1)
    return _radius(_row_operand(p, pp), _column_operand(p, pp), k)


def knn_precision_recall(generated, reference, k: int = 3, reference_radius=None):
    """Manifold-estimate precision/recall (Kynkäänniemi et al. 2019).

    precision: fraction of generated points inside the union of reference
    k-NN balls; recall: the same with the roles swapped.  ``reference_radius``
    may carry ``kth_nn_radius(reference, k)`` when it is already known, as in
    a sweep against one reference; by default it is computed here.
    """
    g = np.asarray(generated, dtype=np.float64)
    r = np.asarray(reference, dtype=np.float64)
    _check_k(min(len(g), len(r)), k)
    rr = np.sum(r * r, axis=1)
    r_cols = _column_operand(r, rr)
    if reference_radius is None:
        radius_r = _radius(_row_operand(r, rr), r_cols, k)
    else:
        radius_r = np.asarray(reference_radius, dtype=np.float64)
        if radius_r.shape != (len(r),):
            raise ValueError(f"reference_radius has shape {radius_r.shape}, "
                             f"expected ({len(r)},)")
    gg = np.sum(g * g, axis=1)
    g_rows = _row_operand(g, gg)
    t_r = _sq_threshold(radius_r)
    t_g = _sq_threshold(_radius(g_rows, _column_operand(g, gg), k))
    hit_g = np.empty(len(g), dtype=bool)
    hit_r = np.zeros(len(r), dtype=bool)
    block = np.empty((min(len(g), _blas.rows_per_block(len(r))), len(r)))
    with _blas.threads(1):
        for lo in range(0, len(g), len(block)):
            d2 = np.matmul(g_rows[lo:lo + len(block)], r_cols, out=block[:len(g) - lo])
            hit_g[lo:lo + len(d2)] = np.any(d2 <= t_r, axis=1)
            hit_r |= np.any(d2 <= t_g[lo:lo + len(d2), None], axis=0)
    return float(np.mean(hit_g)), float(np.mean(hit_r))


def class_fidelity(generated, targets, oracle_classifier) -> float:
    """Fraction of samples the zero-noise oracle classifies as their target."""
    predicted = oracle_classifier.predict(np.asarray(generated, dtype=np.float64), 0)
    return float(np.mean(predicted == np.asarray(targets)))


def norm_curve_summary(norms):
    """Mean ||s A_t|| per step across chains and the last/first-decile ratio
    of the (chains, steps) ``norms``.

    Returns {"per_step_mean", "ratio"}; a flat-zero curve (no guidance)
    reports ratio 1.
    """
    norms = np.asarray(norms, dtype=np.float64)
    if norms.ndim != 2 or norms.size == 0:
        raise ValueError("norms must be a non-empty (chains, steps) array")
    per_step = np.mean(norms, axis=0)
    n10 = max(1, len(per_step) // 10)
    first = float(np.mean(per_step[:n10]))
    last = float(np.mean(per_step[-n10:]))
    ratio = 1.0 if first == 0.0 else last / first
    return {"per_step_mean": per_step, "ratio": ratio}


def distance_law_fit(ts, alpha_bars, d_hat, dim: int):
    """Relative error of measured manifold distances d_hat (draws, steps)
    against sqrt((1 - abar_t) D), for distinct steps labelled ``ts`` at noise
    levels ``alpha_bars``.

    Returns per-t medians, in increasing t, plus the pooled median over the
    entries with 1 - abar_t >= MIN_NOISE.
    """
    alpha_bars = np.asarray(alpha_bars, dtype=np.float64)
    d_theory = np.sqrt((1.0 - alpha_bars) * dim)
    err = np.abs(np.asarray(d_hat, dtype=np.float64) - d_theory) / d_theory
    table = [{"t": int(ts[k]), "median_rel_error": float(np.median(err[:, k])),
              "n": len(err)} for k in np.argsort(ts)]
    pooled = err[:, 1.0 - alpha_bars >= MIN_NOISE]
    aggregate = float(np.median(pooled)) if pooled.size else float("nan")
    return {"aggregate_median": aggregate, "per_t": table}


def _average_ranks(v):
    """1-based ranks of ``v``, ties sharing the mean of their positions."""
    order = np.argsort(v)
    s = v[order]
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    ends = np.append(starts[1:], len(s))
    ranks = np.empty(len(v))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def spearman(a, b) -> float:
    """Spearman rank correlation of two equal-length vectors: the Pearson
    correlation of their average ranks; nan when either is constant, holds a
    nan or is shorter than 2.

    The ranks go through ``corrcoef`` as the columns of one matrix and the
    [1, 0] entry is taken (the matrix is not bit-symmetric), as in
    ``scipy.stats.spearmanr``, so the two agree bit for bit.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("spearman needs two vectors of one length")
    if (len(a) < 2 or np.all(a == a[0]) or np.all(b == b[0])
            or np.isnan(a).any() or np.isnan(b).any()):
        return float("nan")
    ranks = np.column_stack((_average_ranks(a), _average_ranks(b)))
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def write_metrics_csv(reports, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_CSV_HEADER)
        for report in reports:
            writer.writerow(report.csv_row())
