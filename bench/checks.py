"""Correctness checks on the outputs of the benchmark's CLI commands.

Each ``check_<workload>`` reads one command's output directory and returns
``(summary, errors)``.  ``summary`` holds the values that ``reference.json``
records per seed; ``errors`` lists every failed invariant.  Invariants hold
for any seed; ``compare`` adds the tolerance checks against the recorded
values when the seed has a record.  Tolerances, not byte hashes, so that a
numerically equivalent kernel still passes.
"""

import csv
import math
from pathlib import Path

import numpy as np

# The default dataset of the CLI (data.n, data.seed), used as the reference
# cloud of sample_trace's distance scan and of eval_knn.
REFERENCE_N = 8000
REFERENCE_SEED = 1

SAMPLE_CHAINS = 64
SAMPLE_STEPS = 1000
SAMPLE_STORED = 51           # ceil(1000 / 50) stride, plus the final step
GEO_SCALE = 2.5
EVAL_GENERATED = 4096
CUTOFF_ARMS = (("adm_g", 1.0, 1.0), ("adm_g", 1.0, 0.3),
               ("geoguide", 2.5, 1.0), ("geoguide", 2.5, 0.3))
CUTOFF_CHAINS = 512

NORM_RTOL = 1e-12       # geoguide's constant adjustment norm
FINAL_D_RTOL = 1e-9     # final-step d_hat against a direct nearest-point scan
D_HAT_RTOL = 1e-9       # d_hat aggregates against the recorded seed values
FIDELITY_ATOL = 0.01    # about 5 of 512 chains
PR_ATOL = 1e-3          # about 4 of 4096 generated / 8 of 8000 reference points
FRECHET_RTOL = 1e-6
CLASS_ATOL = 1e-3


def _close(a, b, rtol=0.0, atol=0.0):
    return abs(a - b) <= atol + rtol * abs(b)


def reference_points(descriptor):
    """The CLI's default dataset, drawn again through the data layer."""
    from guidelab import data
    return data.generate(descriptor, REFERENCE_N, REFERENCE_SEED).points


def check_sample_trace(out):
    from guidelab import data
    errors = []
    with open(out / "trajectories.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    if header != ["chain", "step", "t", "alpha_bar", "adjustment_norm", "d_hat", "d_theory"]:
        errors.append(f"trajectories.csv header {header}")
        return {}, errors
    if len(body) != SAMPLE_CHAINS * SAMPLE_STEPS:
        errors.append(f"trajectories.csv has {len(body)} rows, "
                      f"expected {SAMPLE_CHAINS * SAMPLE_STEPS}")
    target = GEO_SCALE * math.sqrt(64) / SAMPLE_STEPS
    worst = max(abs(float(r[4]) - target) / target for r in body)
    if worst > NORM_RTOL:
        errors.append(f"geoguide adjustment_norm deviates {worst:.3e} relative "
                      f"from {target!r} (tolerance {NORM_RTOL})")
    d_hat = {}
    for r in body:
        if r[5]:
            value, theory = float(r[5]), float(r[6])
            if not (value >= 0.0 and math.isfinite(value) and theory >= 0.0):
                errors.append(f"bad distance row {r}")
            d_hat.setdefault(int(r[0]), []).append(value)
    if sorted(d_hat) != list(range(SAMPLE_CHAINS)) or any(
            len(v) != SAMPLE_STORED for v in d_hat.values()):
        errors.append("d_hat is not present at 51 stored steps of every chain")
        return {}, errors
    table = np.array([d_hat[c] for c in range(SAMPLE_CHAINS)])
    # the last stored step is the final sample itself (alpha_bar = 1)
    samples = data.load(out / "samples.glab")
    ref = reference_points(samples.descriptor)
    direct = np.array([np.min(np.linalg.norm(ref - x, axis=1)) for x in samples.points])
    bad = np.abs(table[:, -1] - direct) > FINAL_D_RTOL * direct
    if bad.any():
        errors.append(f"final-step d_hat differs from a direct scan in "
                      f"{int(bad.sum())} chains")
    summary = {"d_hat_chain_sums": table.sum(axis=1).tolist(),
               "d_hat_step_means": table.mean(axis=0).tolist()}
    return summary, errors


def check_guide_cutoff(out, exit_code):
    errors = []
    summary_text = (out / "summary.txt").read_text()
    verdict = "PASS" if "[PASS] cut-off direction" in summary_text else "FAIL"
    if verdict != "PASS" or exit_code != 0:
        errors.append(f"cutoff preset verdict {verdict}, exit code {exit_code}")
    with open(out / "cutoff.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    arms = [(r["rule"], float(r["s"]), float(r["cutoff_fraction"])) for r in rows]
    if arms != list(CUTOFF_ARMS):
        errors.append(f"cutoff.csv arms {arms}")
        return {}, errors
    fidelity = [float(r["class_fidelity"]) for r in rows]
    for arm, f in zip(arms, fidelity):
        if not 0.0 <= f <= 1.0 or abs(f * CUTOFF_CHAINS - round(f * CUTOFF_CHAINS)) > 1e-9:
            errors.append(f"fidelity {f!r} of arm {arm} is not a fraction of "
                          f"{CUTOFF_CHAINS} chains")
    return {"fidelity": fidelity, "verdict": verdict}, errors


def check_eval_knn(out):
    errors = []
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        errors.append(f"metrics.csv has {len(rows)} rows")
        return {}, errors
    row = rows[0]
    summary = {k: float(row[k]) for k in ("frechet", "precision", "recall",
                                          "class_accuracy")}
    if (int(row["n_generated"]), int(row["n_reference"])) != (EVAL_GENERATED, REFERENCE_N):
        errors.append(f"metrics.csv sizes {row['n_generated']}/{row['n_reference']}")
    if not (math.isfinite(summary["frechet"]) and summary["frechet"] >= 0.0):
        errors.append(f"frechet {summary['frechet']!r}")
    for k in ("precision", "recall", "class_accuracy"):
        if not 0.0 <= summary[k] <= 1.0:
            errors.append(f"{k} {summary[k]!r} outside [0, 1]")
    return summary, errors


# -- an independent evaluation of eval_knn's inputs ---------------------------

def _sq_dist(a, b):
    return np.maximum(np.sum(a * a, 1)[:, None] - 2.0 * a @ b.T + np.sum(b * b, 1)[None], 0.0)


def _kth_radius(points, k, block=1024):
    out = np.empty(len(points))
    for lo in range(0, len(points), block):
        d2 = _sq_dist(points[lo:lo + block], points)
        rows = np.arange(d2.shape[0])
        d2[rows, rows + lo] = np.inf
        out[lo:lo + block] = np.sqrt(np.partition(d2, k - 1, axis=1)[:, k - 1])
    return out


def _covered(queries, centres, radius, block=1024):
    hit = np.empty(len(queries), dtype=bool)
    for lo in range(0, len(queries), block):
        d = np.sqrt(_sq_dist(queries[lo:lo + block], centres))
        hit[lo:lo + block] = np.any(d <= radius[None, :], axis=1)
    return hit


def eval_oracle(generated_path, k=3):
    """Metrics of eval_knn recomputed in blocks, with scipy's matrix root for
    the Fréchet distance and the mixture posterior for class fidelity."""
    from scipy import linalg
    from guidelab import data
    gen = data.load(generated_path)
    desc = gen.descriptor
    g, r = gen.points, reference_points(desc)
    precision = float(np.mean(_covered(g, r, _kth_radius(r, k))))
    recall = float(np.mean(_covered(r, g, _kth_radius(g, k))))
    eye = 1e-10 * np.eye(g.shape[1])
    c_g, c_r = np.cov(g, rowvar=False) + eye, np.cov(r, rowvar=False) + eye
    diff = g.mean(0) - r.mean(0)
    cross = np.real(np.trace(linalg.sqrtm(c_g @ c_r)))
    frechet = max(float(diff @ diff + np.trace(c_g) + np.trace(c_r) - 2.0 * cross), 0.0)
    logp = np.log(desc.weights)[None] - 0.5 * np.sum(
        (g[:, None, :] - desc.means[None]) ** 2 / desc.variances[None]
        + np.log(desc.variances)[None], axis=2)
    accuracy = float(np.mean(np.argmax(logp, axis=1) == gen.labels))
    return {"frechet": frechet, "precision": precision, "recall": recall,
            "class_accuracy": accuracy}


def compare_eval(summary, expected, source):
    errors = []
    if not _close(summary["frechet"], expected["frechet"], rtol=FRECHET_RTOL):
        errors.append(f"frechet {summary['frechet']!r} vs {source} {expected['frechet']!r}")
    for k in ("precision", "recall"):
        if not _close(summary[k], expected[k], atol=PR_ATOL):
            errors.append(f"{k} {summary[k]!r} vs {source} {expected[k]!r}")
    if not _close(summary["class_accuracy"], expected["class_accuracy"], atol=CLASS_ATOL):
        errors.append(f"class_accuracy {summary['class_accuracy']!r} vs {source} "
                      f"{expected['class_accuracy']!r}")
    return errors


def compare(workload, summary, expected):
    """Tolerance comparison against the values recorded for this seed."""
    if not summary:
        return []
    if workload == "eval_knn":
        return compare_eval(summary, expected, "recorded")
    errors = []
    if workload == "guide_cutoff":
        if summary["verdict"] != expected["verdict"]:
            errors.append(f"verdict {summary['verdict']} vs recorded {expected['verdict']}")
        for arm, f, e in zip(CUTOFF_ARMS, summary["fidelity"], expected["fidelity"]):
            if not _close(f, e, atol=FIDELITY_ATOL):
                errors.append(f"fidelity of {arm} {f!r} vs recorded {e!r}")
        return errors
    for key in ("d_hat_chain_sums", "d_hat_step_means"):
        got, want = np.array(summary[key]), np.array(expected[key])
        bad = np.abs(got - want) > D_HAT_RTOL * np.abs(want)
        if bad.any():
            errors.append(f"{key}: {int(bad.sum())} values differ from the record "
                          f"by more than {D_HAT_RTOL} relative")
    return errors


def check(workload, out, exit_code):
    out = Path(out)
    if workload == "sample_trace":
        return check_sample_trace(out)
    if workload == "guide_cutoff":
        return check_guide_cutoff(out, exit_code)
    return check_eval_knn(out)
