"""Sample-quality and diagnostics metrics.

Fréchet distance is computed on raw coordinates (the desk-scale analog of
FID; not comparable to feature-space FID numbers), with BLAS held to one
thread (``_blas.threads``).  class_fidelity stands in for a fidelity score:
the fraction of samples a zero-noise oracle classifier assigns to their
target class.

Precision/recall use the standard k-NN manifold estimate.  Its squared
distances are GEMMs of augmented operands, rows [p, ||p||^2, 1] against
columns [-2q, 1, ||q||^2]^T, in tiles of at most ``_blas.BLOCK_ENTRIES``
entries under ``_blas.threads(1)``, and only the tiles that can matter are
computed:

* Groups.  PIVOTS reference points are chosen by farthest-point sampling
  from row 0.  Each set is permuted once so that the points nearest one
  pivot c form a contiguous group, which keeps c, its covering radius rho
  (the largest ||x - c||) and its scale N (the largest norm of x and c).
* Order.  A radius pass keeps each row's k smallest d2 so far; it runs each
  group against its own group first, then against the others by pivot
  distance.
* Skip rule.  For groups A and B, every p in A and q in B have
  ||p - q|| >= ||c_A - c_B|| - rho_A - rho_B.  A GEMM entry is within
  g (||p|| + ||q||)^2 of the exact d2, g = 4 (D + 2) u: twice the rounding
  bound of a length-(D + 2) dot product whose ||p||^2 is itself rounded,
  in any summation order.  The pivot distances and radii come from the same
  GEMM form, and a square root moves each by at most sqrt(g) (||x|| +
  ||c||).  So with w = sqrt(g) (N_A + N_B) plus an underflow term, gap =
  ||c_A - c_B|| - rho_A - rho_B - 3 w, as computed, is at most the exact
  bound, and each computed d2 of the tile is at least gap^2 - w^2 when
  gap > 0.  A tile is skipped only when that floor exceeds the largest
  threshold the tile could decide: its rows' current k-th d2 in a radius
  pass (a larger entry cannot change the k smallest), max(t_r, t_g) in the
  cross pass (no test d2 <= t in it can hold).  A NaN bound or threshold
  never skips, so non-finite or overlapping data get the dense work and the
  dense result.

One Reference.  ``Reference(points)`` keeps a set's grouping and its radii
for each k while its owner keeps it: ``knn_precision_recall``'s for its call,
a dataset's for its life (``LabeledDataset.reference``).  It keeps the column
operand (4.2 MiB for 8000 points in D = 64); a pass rebuilds a group's rows
from it bit for bit (1 ms in all).

At 4096 generated points against the 8000-point reference (eight
components at least 7.6 apart, k-NN radii about 0.12), 14.20-14.42 M of the
113.5 M pairs of the dense kernel are computed.  Against that kernel,
precision and recall were equal at data seeds 1000-1031, 99 % of the radii
were bit-identical and the rest within 9e-12 relative.  The traced peak is
10.1 MiB.  The cross pass compares squared distances with ``_sq_threshold``
of the radii, which gives the verdict of comparing their clamped square
roots without taking one.

The sampler's manifold-distance traces ask the same nearest-point question
through ``Reference.nearest``, on the same grouping, operands, tiles and
BLAS pin; it rechecks its screened argmin with the exact norm, so it equals
the exhaustive scan bit for bit.

MAX_NORM.  For norms at most R = 2^254 and n >= 2 points, a covariance's
norm is at most its trace, n R^2 / (n - 1) <= 2 R^2, so each partial sum in
C_g^(1/2) C_r C_g^(1/2) is at most 4 R^4 = 2^1018, and a k-NN GEMM entry at
most 4 R^2.  Not tight: scaling the eight-Gaussian draw, the Fréchet
distance overflowed between 1e76 and 1e77, the k-NN between 1e150 and 1e155.
"""

import csv
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _blas

METRICS_CSV_HEADER = ["frechet", "precision", "recall", "class_accuracy",
                      "n_generated", "n_reference", "config"]
COV_REGULARIZER = 1e-10
MIN_NOISE = 0.1  # distance_law_fit pools the steps with 1 - abar_t >= MIN_NOISE
# Reference points that the k-NN passes group the points about (module docstring)
PIVOTS = 16
MAX_NORM = 2.0 ** 254  # largest point norm the metrics take (module docstring)
_EPS = np.finfo(np.float64).eps
_U = _EPS / 2  # unit roundoff
_TINY = np.finfo(np.float64).tiny
_MAX = np.finfo(np.float64).max


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
    with _blas.threads(1):
        c_g = np.cov(g, rowvar=False).reshape(d, d) + eye
        c_r = np.cov(r, rowvar=False).reshape(d, d) + eye
        root_g = _sqrtm_psd(c_g)
        inner = root_g @ c_r @ root_g
        cross = np.sum(np.sqrt(np.clip(np.linalg.eigvalsh(inner), 0.0, None)))
    diff = mu_g - mu_r
    val = float(diff @ diff + np.trace(c_g) + np.trace(c_r) - 2.0 * cross)
    return max(val, 0.0)


def _row_operand(p, scale=None):
    """[r p, ||p||^2, r^2] (n, D + 2), with r the per-row ``scale`` (1 when
    None): with ``_column_operand`` of a set q, the product of a block of
    these rows is ||r q - p||^2 = ||p||^2 - 2 r p.q + r^2 ||q||^2 in one GEMM."""
    r = np.ones(len(p)) if scale is None else scale
    rows = np.empty((len(p), p.shape[1] + 2))
    np.multiply(p, r[:, None], out=rows[:, :-2])
    rows[:, -2] = np.sum(p * p, axis=1)
    rows[:, -1] = r * r
    return rows


def _column_operand(rows):
    """[-2p, 1, ||p||^2]^T (D + 2, n), contiguous, from the row operand of p."""
    cols = np.empty(rows.shape[::-1])
    np.multiply(rows[:, :-2].T, -2.0, out=cols[:-2])
    cols[-2] = 1.0
    cols[-1] = rows[:, -2]
    return cols


def _unit_rows(cols):
    """The row operand [p, ||p||^2, 1] of ``cols``: -2p halves back to p."""
    rows = np.empty(cols.shape[::-1])
    np.multiply(cols[:-2].T, -0.5, out=rows[:, :-2])
    rows[:, -2] = cols[-1]
    rows[:, -1] = cols[-2]
    return rows


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


class _Pivots(NamedTuple):
    """At most PIVOTS points of a reference set, chosen by farthest-point
    sampling from its row 0 on the GEMM squared distances.  A row holding a
    NaN is never chosen after row 0."""
    cols: np.ndarray   # _column_operand of the pivots
    dist: np.ndarray   # (P, P) distances between them, from the GEMM
    norm: np.ndarray   # ||c|| of each pivot


def _pivots(rows):
    """The _Pivots of the set whose row operand is ``rows``."""
    chosen = [0]
    near = np.full(len(rows), np.inf)  # squared distance to the nearest pivot
    while True:
        # fmax drops a NaN row's distance to 0, so it is never chosen
        np.fmin(near, np.fmax(rows @ _column_operand(rows[chosen[-1:]])[:, 0], 0.0), out=near)
        j = int(np.argmax(near))
        if len(chosen) == PIVOTS or not near[j] > 0.0:  # or all are pivots' duplicates
            break
        chosen.append(j)
    cols = _column_operand(rows[chosen])
    dist = np.sqrt(np.maximum(rows[chosen] @ cols, 0.0))
    return _Pivots(cols, dist, np.sqrt(rows[chosen, -2]))


class _Groups(NamedTuple):
    """A point set permuted so that the points whose nearest pivot is the
    same form one contiguous group."""
    order: np.ndarray  # point i of the groups is point order[i] of the set
    edges: np.ndarray  # group a is points edges[a]:edges[a + 1]
    pivot: np.ndarray  # index of each group's pivot
    reach: np.ndarray  # covering radius of each group about its pivot
    scale: np.ndarray  # max ||x|| over each group and its pivot


def _groups(p, pivots=None):
    """(pivots, groups, column operand) of the point set p grouped about
    ``pivots``, by default its own.  Empty groups are left out; a row
    holding a NaN joins the first pivot's group."""
    rows = _row_operand(p)
    if pivots is None:
        pivots = _pivots(rows)
    d2 = rows @ pivots.cols
    label = np.argmin(d2, axis=1)
    order = np.argsort(label, kind="stable")
    label = label[order]
    counts = np.bincount(label, minlength=len(pivots.norm))
    pivot = np.flatnonzero(counts)
    edges = np.concatenate(([0], np.cumsum(counts[pivot])))
    # maximum.reduceat keeps a NaN, which then blocks every skip of the group
    reach = np.sqrt(np.maximum(np.maximum.reduceat(d2[order, label], edges[:-1]), 0.0))
    rows = rows[order]
    scale = np.maximum(np.sqrt(np.maximum.reduceat(rows[:, -2], edges[:-1])),
                       pivots.norm[pivot])
    return pivots, _Groups(order, edges, pivot, reach, scale), _column_operand(rows)


def _floors(s, t, pivots):
    """(groups of s, groups of t): a lower bound on every squared distance
    that a GEMM of their operands computes between the two groups, -inf
    where none is known (see the module docstring)."""
    dim = len(pivots.cols) - 2
    w = (np.sqrt(4 * (dim + 2) * _U) * (s.scale[:, None] + t.scale[None, :])
         + np.sqrt((dim + 2) * _TINY))
    with np.errstate(invalid="ignore", over="ignore"):
        gap = (pivots.dist[np.ix_(s.pivot, t.pivot)] - s.reach[:, None]
               - t.reach[None, :] - 3.0 * w)
        return np.where(gap > 0.0, gap * gap - w * w, -np.inf)  # NaN gap: -inf


def _chunks(lo, hi, n_columns):
    """Row ranges of rows lo:hi whose GEMM against n_columns columns stays
    within one block of ``_blas.BLOCK_ENTRIES`` entries."""
    step = _blas.rows_per_block(n_columns)
    return [(r, min(r + step, hi)) for r in range(lo, hi, step)]


def _tile(rows, cols, block):
    """rows @ cols, written into the front of the flat buffer ``block``."""
    return np.matmul(rows, cols, out=block[:len(rows) * cols.shape[1]].reshape(len(rows), -1))


def _block(s, t):
    """A flat buffer that holds the largest tile of s's groups against t's:
    one for the pass, as a fresh output per GEMM would be allocated while
    the last is still held."""
    longest = np.diff(s.edges).max()
    return np.empty(max(min(longest, _blas.rows_per_block(n)) * n for n in np.diff(t.edges)))


def _radius(s, cols, pivots, k):
    """Each point's distance to its k-th nearest other point of the grouped
    set s with column operand cols, in group order (duplicates count).

    Each group runs against its own group first and then against the others
    by pivot distance, so each row's k-th smallest d2 so far is soon tight.
    It starts as NaN, which sorts last as in the dense partition, so a row
    with fewer than k non-NaN distances ends NaN there too.  Callers hold
    BLAS to one thread.
    """
    floors = _floors(s, s, pivots)
    kth = np.full((len(s.order), k), np.nan)
    block = _block(s, s)
    for a, (lo, hi) in enumerate(zip(s.edges[:-1], s.edges[1:])):
        rows = _unit_rows(cols[:, lo:hi])
        by_distance = np.argsort(pivots.dist[s.pivot[a], s.pivot], kind="stable")
        for b in [a, *by_distance[by_distance != a]]:
            c0, c1 = s.edges[b], s.edges[b + 1]
            for r0, r1 in _chunks(lo, hi, c1 - c0):
                # a NaN threshold compares False: the tile is computed
                if floors[a, b] > kth[r0:r1, -1].max():
                    continue
                d2 = _tile(rows[r0 - lo:r1 - lo], cols[:, c0:c1], block)
                if a == b:
                    i = np.arange(r1 - r0)
                    d2[i, r0 - lo + i] = np.inf
                if d2.shape[1] > k:
                    d2.partition(k - 1, axis=1)
                merged = np.concatenate((kth[r0:r1], d2[:, :k]), axis=1)
                merged.partition(k - 1, axis=1)
                kth[r0:r1] = merged[:, :k]
    # an exact duplicate's zero distance can round below 0
    return np.sqrt(np.maximum(kth[:, -1], 0.0))


class Reference:
    """A point set grouped once for the k-NN and nearest-point passes: its
    pivots, groups and column operand, and its radii for each k asked for."""

    def __init__(self, points):
        self.points = np.asarray(points, dtype=np.float64)
        if len(self.points) == 0:
            raise ValueError("the reference set is empty")
        # the grouping GEMMs at 2 threads made a fresh process's first k-NN
        # 0.12-0.38 s against 0.08-0.13 s pinned (2 cores, OpenBLAS 0.3.31);
        # non-finite or overflowing points get the dense work in every pass
        with _blas.threads(1), np.errstate(invalid="ignore", over="ignore"):
            self.pivots, self.groups, self.cols = _groups(self.points)
        self._radii = {}  # k -> radii in group order

    def precision_recall(self, generated, k: int = 3):
        """Manifold-estimate precision/recall (Kynkäänniemi et al. 2019):
        the fraction of ``generated`` inside the union of this reference's
        k-NN balls, and the same with the roles swapped."""
        g = np.asarray(generated, dtype=np.float64)
        pivots, sr, r_cols = self.pivots, self.groups, self.cols
        if k < 1:
            raise ValueError("k must be at least 1")
        if min(len(g), len(self.points)) <= k:
            raise ValueError("each set needs more than k points")
        with _blas.threads(1):
            if k not in self._radii:
                self._radii[k] = _radius(sr, r_cols, pivots, k)
            t_r = _sq_threshold(self._radii[k])
            _, sg, g_cols = _groups(g, pivots)
            t_g = _sq_threshold(_radius(sg, g_cols, pivots, k))
            # reference rows, rebuilt one group at a time, against generated columns
            floors = _floors(sr, sg, pivots)
            t_g_max = np.maximum.reduceat(t_g, sg.edges[:-1])  # keeps a NaN
            hit_r = np.zeros(len(self.points), dtype=bool)
            hit_g = np.zeros(len(g), dtype=bool)
            block = _block(sr, sg)
            for a, (lo, hi) in enumerate(zip(sr.edges[:-1], sr.edges[1:])):
                rows = _unit_rows(r_cols[:, lo:hi])
                for b, (c0, c1) in enumerate(zip(sg.edges[:-1], sg.edges[1:])):
                    for r0, r1 in _chunks(lo, hi, c1 - c0):
                        if floors[a, b] > np.maximum(t_r[r0:r1].max(), t_g_max[b]):
                            continue
                        d2 = _tile(rows[r0 - lo:r1 - lo], g_cols[:, c0:c1], block)
                        hit_r[r0:r1] |= np.any(d2 <= t_g[c0:c1], axis=1)
                        hit_g[c0:c1] |= np.any(d2 <= t_r[r0:r1, None], axis=0)
        return float(np.mean(hit_g)), float(np.mean(hit_r))

    def nearest(self, X, r):
        """min_i ||r_j p_i - x_j|| for each row x_j of X (n, D), with its own
        scale r_j, over the rows p_i of the reference points P (N, D).

        The result equals the exhaustive scan
        ``np.min(np.linalg.norm(r_j * P - x_j, axis=1))`` bit for bit, for any
        BLAS blocking.  BLAS runs at one thread throughout (``_blas.threads``).

        Groups.  Group b, with pivot c_b and covering radius rho_b, is a
        slice of the kept column operand, as in the k-NN.

        Screen.  Row operands [r x, ||x||^2, r^2] make each GEMM entry the
        squared distance ||r p - x||^2.  With unit roundoff u = eps/2 and
        S = ||x||^2 + r^2 max_i ||p_i||^2, any summation order keeps an entry
        within (3D + 7) u S of the exact squared distance, and the exhaustive
        scan's own squared norm (before its monotone sqrt) within (2D + 7) u S.

        Skip rule.  A pivot is a point of P, so the row's smallest pivot
        distance U = min_b ||r c_b - x|| bounds its minimum from above, and every
        point of group b lies at least ||r c_b - x|| - r rho_b from x.  Let
        w = sqrt(32 (D + 2) (eps S + tiny)), the recheck cut below as a
        distance.  Four roundings part these computed values from the exact
        ones: the group's pivot distance and U, each a square root of a GEMM
        entry (within sqrt((3D + 7) u S)); r rho_b, within r times the module
        docstring's sqrt(g) (||p|| + ||c||) + sqrt((D + 2) tiny); and the excess
        of the scan's argmin over the exact minimum, within sqrt((2D + 7) eps S).
        Each is at most w / sqrt(2).  So a (row, group) pair is skipped only
        when ||r c_b - x|| - r rho_b - 2w > U + w: then no point of the group
        can be an argmin of the scan.  A NaN bound never skips, and w is inf
        where 4S overflows.  Against the 8000-point dataset, the 64-chain x
        51-state trace of the ``sample`` export computes 29.5-30.9 % of its
        26.1 M pairs (seeds 0 and 3), and the 200-draw x 50-step
        ``distance_law`` traces 40.0-40.3 % (seeds 0, 3 and 11).

        Exact recheck.  The scan's argmin then screens within (10D + 28) u S of
        the row's smallest computed entry.  The scan's exact norm is taken for
        every computed point within ``32 (D + 2) (eps S + tiny)`` of it: more
        than four times that bound, with ``tiny`` covering underflow.  Most
        rows recheck one point; a row whose cut is not finite (non-finite
        input) rechecks every point.
        """
        P, groups, cols = self.points, self.groups, self.cols
        n, D = X.shape
        out = np.empty(n)
        rows_per_block = _blas.rows_per_block(len(P))
        # non-finite or overflowing input skips nothing and takes the full scan
        with _blas.threads(1), np.errstate(invalid="ignore", over="ignore"):
            pivot_cols = self.pivots.cols[:, groups.pivot]
            pp_max = cols[-1].max()  # the largest ||p||^2
            spans = list(zip(groups.edges[:-1].tolist(), groups.edges[1:].tolist()))
            # the tiles of one row block share one output buffer
            block = np.empty(min(n, rows_per_block) * len(P))
            for lo in range(0, n, rows_per_block):
                x, rb = X[lo:lo + rows_per_block], r[lo:lo + rows_per_block]
                rows = _row_operand(x, rb)
                size = rows[:, -2] + rows[:, -1] * pp_max
                cut = 32 * (D + 2) * (_EPS * size + _TINY)
                w = np.where(size <= _MAX / 4, np.sqrt(cut), np.inf)[:, None]
                pivot = np.sqrt(np.maximum(rows @ pivot_cols, 0.0))
                skip = (pivot - rb[:, None] * groups.reach - 2 * w
                        > pivot.min(axis=1, keepdims=True) + w)
                best = np.full(len(x), np.inf)
                tiles, used = [], 0
                for b, (c0, c1) in enumerate(spans):
                    idx = np.flatnonzero(~skip[:, b])
                    if len(idx):
                        d2 = _tile(rows[idx], cols[:, c0:c1], block[used:])
                        low = d2.min(axis=1)
                        best[idx] = np.minimum(best[idx], low)
                        tiles.append((idx, c0, d2, low))
                        used += d2.size
                cut += best
                full = ~np.isfinite(cut)
                cut[full] = np.nan  # compares False: these rows take the full scan
                pairs = []  # (rows, points) to recheck: each row's entries within its cut
                for idx, c0, d2, low in tiles:
                    near = np.flatnonzero(low <= cut[idx])
                    i, c = np.nonzero(d2[near] <= cut[idx[near], None])
                    pairs.append((idx[near[i]], groups.order[c0 + c]))
                d = np.full(len(x), np.inf)
                _recheck(d, *map(np.concatenate, zip(*pairs)), x, rb, P)
                for j in np.flatnonzero(full):
                    d[j] = np.min(np.linalg.norm(rb[j] * P - x[j], axis=1))
                out[lo:lo + len(x)] = d
        return out


def knn_precision_recall(generated, reference, k: int = 3):
    """``Reference(reference).precision_recall(generated, k)``: the reference
    is grouped for this call alone and freed on return.  A caller that scores
    several sets against one reference keeps one ``Reference``."""
    return Reference(reference).precision_recall(generated, k)


def _recheck(d, j, i, x, rb, P):
    """d[j] = min(d[j], the scan's exact norm ||rb_j p_i - x_j||) for each
    pair (j, i), in chunks of ``_blas.BLOCK_ENTRIES`` entries."""
    step = _blas.rows_per_block(P.shape[1])
    for s in range(0, len(j), step):
        js, ps = j[s:s + step], i[s:s + step]
        np.minimum.at(d, js, np.linalg.norm(rb[js, None] * P[ps] - x[js], axis=1))


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
