"""Sample-quality and diagnostics metrics.

Fréchet distance is computed on raw coordinates (the desk-scale analog of
FID; not comparable to feature-space FID numbers).  Precision/recall use the
standard k-NN manifold estimate, computed over row blocks of GEMM distances
(``_blas.rows_per_block``), so memory stays bounded at any set size, with
BLAS held to one thread inside (``_blas.threads``).  class_fidelity stands
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


def frechet_distance(generated, reference, regularize: bool = True) -> float:
    """||mu_g - mu_r||^2 + Tr(C_g + C_r - 2 (C_g C_r)^{1/2}).

    The cross term uses the symmetrized form
    Tr sqrt(C_g^{1/2} C_r C_g^{1/2}) via eigendecompositions.
    """
    g = np.asarray(generated, dtype=np.float64)
    r = np.asarray(reference, dtype=np.float64)
    d = g.shape[1]
    if not regularize and (len(g) < d + 1 or len(r) < d + 1):
        raise ValueError("need at least D + 1 points per cloud (or regularize)")
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


def _sq_distances(a, aa, b, bb):
    """Squared distances between the rows of ``a`` and ``b`` in the GEMM form
    ||a||^2 - 2 a.b + ||b||^2, given the squared row norms ``aa`` and ``bb``."""
    d2 = 2.0 * a @ b.T
    np.subtract(aa[:, None], d2, out=d2)
    d2 += bb
    return d2


def _check_k(n, k):
    if k < 1:
        raise ValueError("k must be at least 1")
    if n <= k:
        raise ValueError("each set needs more than k points")


def kth_nn_radius(points, k: int):
    """Distance from each point to its k-th nearest other point of ``points``
    (a point's own zero distance does not count; duplicates do)."""
    p = np.asarray(points, dtype=np.float64)
    _check_k(len(p), k)
    pp = np.sum(p * p, axis=1)
    out = np.empty(len(p))
    step = _blas.rows_per_block(len(p))
    with _blas.threads(1):
        for lo in range(0, len(p), step):
            d2 = _sq_distances(p[lo:lo + step], pp[lo:lo + step], p, pp)
            rows = np.arange(len(d2))
            d2[rows, lo + rows] = np.inf
            d2.partition(k - 1, axis=1)
            # an exact duplicate's zero distance can round below 0
            out[lo:lo + len(d2)] = np.sqrt(np.maximum(d2[:, k - 1], 0.0))
    return out


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
    if reference_radius is None:
        radius_r = kth_nn_radius(r, k)
    else:
        radius_r = np.asarray(reference_radius, dtype=np.float64)
        if radius_r.shape != (len(r),):
            raise ValueError(f"reference_radius has shape {radius_r.shape}, "
                             f"expected ({len(r)},)")
    radius_g = kth_nn_radius(g, k)
    gg, rr = np.sum(g * g, axis=1), np.sum(r * r, axis=1)
    hit_g = np.empty(len(g), dtype=bool)
    hit_r = np.zeros(len(r), dtype=bool)
    step = _blas.rows_per_block(len(r))
    with _blas.threads(1):
        for lo in range(0, len(g), step):
            d = _sq_distances(g[lo:lo + step], gg[lo:lo + step], r, rr)
            np.maximum(d, 0.0, out=d)
            np.sqrt(d, out=d)
            hit_g[lo:lo + len(d)] = np.any(d <= radius_r, axis=1)
            hit_r |= np.any(d <= radius_g[lo:lo + len(d), None], axis=0)
    return float(np.mean(hit_g)), float(np.mean(hit_r))


def class_fidelity(generated, targets, oracle_classifier) -> float:
    """Fraction of samples the zero-noise oracle classifies as their target."""
    predicted = oracle_classifier.predict(np.asarray(generated, dtype=np.float64), 0)
    return float(np.mean(predicted == np.asarray(targets)))


def norm_curve_summary(norms):
    """Mean ||s A_t|| per step across chains and the last/first-decile ratio
    of the (chains, steps) ``norms``.

    Returns {"per_step_mean", "ratio", "degenerate"}; a flat-zero curve
    (no guidance) reports ratio 1 with the degenerate flag set.
    """
    norms = np.asarray(norms, dtype=np.float64)
    if norms.ndim != 2 or norms.size == 0:
        raise ValueError("norms must be a non-empty (chains, steps) array")
    per_step = np.mean(norms, axis=0)
    n10 = max(1, len(per_step) // 10)
    first = float(np.mean(per_step[:n10]))
    last = float(np.mean(per_step[-n10:]))
    degenerate = first == 0.0
    ratio = 1.0 if degenerate else last / first
    return {"per_step_mean": per_step, "ratio": ratio, "degenerate": degenerate}


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


def write_metrics_csv(reports, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_CSV_HEADER)
        for report in reports:
            writer.writerow(report.csv_row())
