"""Acceptance suite: eleven end-to-end checks on the 8-class benchmark.

Each test prints a single [PASS]/[FAIL] line on the real stdout so the
verdicts are visible in the captured log regardless of pytest's capture
mode, then asserts the same condition.
"""

import numpy as np
import pytest
from scipy.stats import spearmanr

from guidelab import cli
from guidelab import data as gd
from guidelab import metrics as gmet
from guidelab import models as gm
from guidelab import sampler as gsam
from guidelab import schedule as gs
from guidelab.forward import rng_stream
from guidelab.guidance import GuidanceRule
from oracles import mixture_log_density


@pytest.fixture
def report(capfd):
    """One [PASS]/[FAIL] line per criterion, emitted outside pytest capture."""
    def _report(num, name, ok, detail):
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line
    return _report


@pytest.fixture(scope="module")
def desc():
    return gd.eight_gaussians()


@pytest.fixture(scope="module")
def linb_250():
    return gs.respace(gs.build_linear_beta(1000, 1e-4, 0.02), 250)


@pytest.fixture(scope="module")
def lina_250():
    return gs.respace(gs.build_linear_alphabar(1000), 250)


@pytest.fixture(scope="module")
def linb_models(desc, linb_250):
    return gm.AnalyticDenoiser(desc, linb_250), gm.AnalyticClassifier(desc, linb_250)


@pytest.fixture(scope="module")
def lina_models(desc, lina_250):
    return gm.AnalyticDenoiser(desc, lina_250), gm.AnalyticClassifier(desc, lina_250)


@pytest.fixture(scope="module")
def reference(desc):
    return gd.generate(desc, 10_000, seed=1).points


def test_criterion_1_geoguide_norm_constancy(desc, linb_250, linb_models, report):
    den, clf = linb_models
    batch = gsam.sample(den, clf, GuidanceRule("geoguide", cli.TUNED_GEO), linb_250,
                        np.arange(16) % 8, 16, seed=0)
    target = cli.TUNED_GEO * np.sqrt(64) / linb_250.T
    norms = batch.adjustment_norms
    max_rel = float(np.max(np.abs(norms - target)) / target)
    ratio = gmet.norm_curve_summary(norms)["ratio"]
    report(1, "geoguide norm constancy",
           max_rel < 1e-12 and abs(ratio - 1.0) < 1e-9,
           f"max |norm - sqrt(D)/T| rel = {max_rel:.2e} (< 1e-12), "
           f"decile ratio = {ratio!r} (1 +/- 1e-9)")


def test_criterion_2_adm_norm_decay(desc, lina_250, lina_models, report):
    den, clf = lina_models
    batch = gsam.sample(den, clf, GuidanceRule("adm_g", cli.TUNED_ADM), lina_250,
                        np.arange(64) % 8, 64, seed=0)
    ratio = gmet.norm_curve_summary(batch.adjustment_norms)["ratio"]
    report(2, "adm_g norm decay", ratio < 0.2,
           f"last/first decile mean-norm ratio = {ratio:.4f} (< 0.2)")


def test_criterion_3_distance_law(desc, linb_250, report):
    ds = gd.generate(desc, 8000, seed=1)
    ts, alpha_bars, d_hat = gsam.forward_manifold_traces(ds, linb_250, n_draws=200, seed=0)
    fit = gmet.distance_law_fit(ts, alpha_bars, d_hat, ds.points.shape[1])
    med = fit["aggregate_median"]
    report(3, "distance law", med <= 0.15,
           f"median |d_hat/d_theory - 1| = {med:.4f} (<= 0.15, over 1-abar >= 0.1)")


def test_criterion_4_eps_norm(report):
    eps = rng_stream(0, 4).standard_normal((10_000, 64))
    mean = float(np.mean(np.linalg.norm(eps, axis=1)))
    rel = abs(mean - 8.0) / 8.0
    report(4, "||eps|| approx sqrt(D)", rel < 0.02,
           f"mean ||eps|| = {mean:.4f} vs 8 (rel {rel:.4f} < 0.02)")


def test_criterion_5_guidance_efficacy(desc, lina_250, lina_models, report):
    den, clf = lina_models
    fid = {}
    for kind, s, n in (("none", 0.0, 2048), ("geoguide", cli.TUNED_GEO, 512),
                       ("adm_g", cli.TUNED_ADM, 512)):
        batch = gsam.sample(den, clf, GuidanceRule(kind, s), lina_250,
                            np.arange(n) % 8, n, seed=0)
        fid[kind] = gmet.class_fidelity(batch.samples, batch.targets, clf)
    ok = (fid["geoguide"] >= 0.90 and fid["adm_g"] >= 0.80
          and abs(fid["none"] - 0.125) <= 0.02)
    report(5, "guidance efficacy", ok,
           f"geoguide(s={cli.TUNED_GEO}) = {fid['geoguide']:.4f} (>= 0.90), "
           f"adm_g(s={cli.TUNED_ADM}) = {fid['adm_g']:.4f} (>= 0.80), "
           f"unguided = {fid['none']:.4f} (0.125 +/- 0.02)")


def test_criterion_6_cutoff_direction(desc, lina_250, lina_models, report):
    den, clf = lina_models
    n = 512
    ys = np.arange(n) % 8
    rules = tuple(GuidanceRule(kind, s, cutoff_fraction=cut)
                  for kind, s in (("adm_g", cli.TUNED_ADM), ("geoguide", cli.TUNED_GEO))
                  for cut in (1.0, 0.3))
    batches = gsam.sample(den, clf, rules, lina_250, ys, n, seed=0, store="samples")
    fid = {(rule.kind, rule.cutoff_fraction):
           gmet.class_fidelity(batch.samples, batch.targets, clf)
           for rule, batch in zip(rules, batches)}
    drop_geo = fid[("geoguide", 1.0)] - fid[("geoguide", 0.3)]
    drop_adm = fid[("adm_g", 1.0)] - fid[("adm_g", 0.3)]
    report(6, "cut-off direction", drop_geo > drop_adm,
           f"geoguide fidelity drop {drop_geo:.4f} > adm_g drop {drop_adm:.4f}")


def test_criterion_7_tradeoff_monotonicity(desc, linb_250, linb_models, reference,
                                           report):
    den, clf = linb_models
    n = 1024
    ys = np.arange(n) % 8
    recall, fidelity = [], []
    rules = tuple(GuidanceRule("geoguide", s) for s in cli.SWEEP_GRID)
    batches = gsam.sample(den, clf, rules, linb_250, ys, n, seed=0, store="samples")
    ref = gmet.Reference(reference)  # grouped once for the sweep
    for batch in batches:
        _, r = ref.precision_recall(batch.samples, k=3)
        recall.append(r)
        fidelity.append(gmet.class_fidelity(batch.samples, batch.targets, clf))
    rho = float(spearmanr(cli.SWEEP_GRID, recall).statistic)
    plateau = next(i for i, f in enumerate(fidelity) if f >= 0.95 * max(fidelity))
    mono = all(fidelity[i + 1] >= fidelity[i] - 0.02 for i in range(plateau))
    report(7, "trade-off monotonicity", rho <= -0.8 and mono,
           f"Spearman(recall, s) = {rho:.3f} (<= -0.8); fidelity "
           f"{['%.3f' % f for f in fidelity]} non-decreasing to plateau "
           f"index {plateau}: {mono}")


def test_criterion_8_scaled_variant_report(desc, linb_250, linb_models,
                                           reference, tmp_path, report):
    den, clf = linb_models
    n = 512
    ys = np.arange(n) % 8
    frechet = {}
    for kind in ("geoguide", "geoguide_scaled"):
        batch = gsam.sample(den, clf, GuidanceRule(kind, cli.TUNED_GEO), linb_250,
                            ys, n, seed=0)
        frechet[kind] = gmet.frechet_distance(batch.samples, reference)
    path = tmp_path / "scaled_comparison.txt"
    direction = ("base better" if frechet["geoguide"] <= frechet["geoguide_scaled"]
                 else "scaled better")
    path.write_text(f"geoguide frechet         {frechet['geoguide']!r}\n"
                    f"geoguide_scaled frechet  {frechet['geoguide_scaled']!r}\n"
                    f"direction: {direction}\n")
    ok = path.exists() and all(np.isfinite(v) for v in frechet.values())
    report(8, "scaled-variant comparison", ok,
           f"geoguide frechet {frechet['geoguide']:.4f} vs scaled "
           f"{frechet['geoguide_scaled']:.4f} at s={cli.TUNED_GEO} "
           f"({direction}; direction recorded, not asserted)")


def test_criterion_9_respacing(desc, reference, report):
    base = gs.build_linear_beta(1000, 1e-4, 0.02)
    den_b = gm.AnalyticDenoiser(desc, base)
    clf_b = gm.AnalyticClassifier(desc, base)
    n = 4096
    ys = np.arange(n) % 8
    f = {}
    for steps in (50, 250, 1000):
        sch = gs.respace(base, steps)
        batch = gsam.sample(den_b, clf_b, GuidanceRule("geoguide_scaled", 2.0),
                            sch, ys, n, seed=31, store="samples")
        f[steps] = gmet.frechet_distance(batch.samples, reference)
    rel = abs(f[1000] - f[250]) / f[250]
    report(9, "respacing", f[50] >= f[250] and rel <= 0.25,
           f"frechet(50) = {f[50]:.4f} >= frechet(250) = {f[250]:.4f}; "
           f"|frechet(1000) - frechet(250)|/frechet(250) = {rel:.3f} (<= 0.25)")


def test_criterion_10_oracle_equivalence(report):
    desc8 = gd.ManifoldDescriptor(
        kind="gaussian_mixture", dim=8, weights=np.array([0.5, 0.5]),
        means=np.vstack([4.0 * np.eye(8)[0], -4.0 * np.eye(8)[0]]),
        variances=np.array([1.0, 1.0]))
    sch = gs.build_linear_beta(50, 1e-4, 0.02)
    den = gm.AnalyticDenoiser(desc8, sch)
    clf = gm.AnalyticClassifier(desc8, sch)
    rng = rng_stream(0, 10)
    probes = 3.0 * rng.standard_normal((100, 8))
    h = 1e-5
    worst_den, worst_clf = 0.0, 0.0
    for x in probes[:, None, :]:   # one-row batches
        t = int(rng.integers(1, 51))
        ab = sch.alpha_bars[t - 1]
        # denoiser oracle vs FD of the log marginal density (score identity),
        # taken from the per-component form, not from the models' kernel
        eps_hat = den.predict_eps(x, t)
        grad_fd = np.empty(8)
        for j in range(8):
            e = np.zeros(8)
            e[j] = h
            grad_fd[j] = (mixture_log_density(desc8, sch, x + e, t)[0]
                          - mixture_log_density(desc8, sch, x - e, t)[0]) / (2 * h)
        eps_fd = -np.sqrt(1.0 - ab) * grad_fd
        worst_den = max(worst_den,
                        float(np.max(np.abs(eps_hat - eps_fd)))
                        / max(float(np.linalg.norm(eps_hat)), 1e-12))
        # classifier gradient vs FD of the log posterior
        y = int(rng.integers(0, 2))
        _, grad = clf.class_grad(x, t, y)
        clf_fd = np.empty(8)
        for j in range(8):
            e = np.zeros(8)
            e[j] = h
            clf_fd[j] = (clf.class_logprobs(x + e, t)[0, y]
                         - clf.class_logprobs(x - e, t)[0, y]) / (2 * h)
        worst_clf = max(worst_clf, float(np.max(np.abs(grad - clf_fd))))
    # learned model: small denoiser trained briefly, the input gradient of
    # v . eps_theta by the net's own backward pass
    ds = gd.generate(desc8, 512, seed=3)
    net, _ = gm.train_denoiser(ds, sch, gm.Hyperparams(hidden=(32, 32), epochs=10),
                               seed=4)
    worst_learned = 0.0
    v = rng.standard_normal(8)
    for x in probes[:25, None, :]:
        t = 20
        _, cache = net.mlp.forward(gm._net_input(x, t, net.t_embed_dim))
        g = net.mlp.backward(cache, v[None])[1][0, :8]
        g_fd = np.empty(8)
        for j in range(8):
            e = np.zeros(8)
            e[j] = 1e-4
            g_fd[j] = float(v @ (net.predict_eps(x + e, t)
                                 - net.predict_eps(x - e, t))[0]) / 2e-4
        worst_learned = max(worst_learned,
                            float(np.linalg.norm(g - g_fd))
                            / max(float(np.linalg.norm(g)), 1e-12))
    ok = worst_den < 1e-4 and worst_clf < 1e-5 and worst_learned < 1e-3
    report(10, "oracle equivalence", ok,
           f"analytic denoiser rel {worst_den:.2e} (< 1e-4), analytic "
           f"classifier abs {worst_clf:.2e} (< 1e-5), learned rel "
           f"{worst_learned:.2e} (< 1e-3)")


def test_criterion_11_determinism(tmp_path, report):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("schedule.respace = 50\nsampling.n_chains = 130\n"
                   "guidance.kind = geoguide\nguidance.s = 2.0\n"
                   "data.n = 1000\n")
    blobs = []
    for threads in (1, 8):
        out = tmp_path / f"t{threads}"
        code = cli.main(["--config", str(cfg), "--out", str(out),
                         "--threads", str(threads), "sample"])
        assert code == 0
        blobs.append((out / "samples.glab").read_bytes())
    report(11, "determinism", blobs[0] == blobs[1],
           "samples.glab byte-identical for --threads 1 vs --threads 8")
