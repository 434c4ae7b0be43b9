"""Command-line entry point.

Subcommands: gen-data, train-denoiser, train-classifier, sample, eval,
experiment <preset>.  Runs are configured by a flat key = value text file
with dotted section prefixes (see ``KEYS``).  --seed N replaces
sampling.seed, and sets train.seed only where the config file leaves it
unset.  --threads must be at least 1 and changes nothing: sampling is one
serial loop, as its steps are short numpy calls that hold the interpreter
lock.

Every command takes one path.  ``RUNNERS`` names its runner and config
defaults; ``main`` loads the config over those defaults, which checks every
key against its ``KEYS`` row, and calls ``runner(cfg, make_out)``.  The
runner checks only conditions across keys and input files, and gets its
output directory only through ``make_out``, after those checks, so a config
error leaves no --out behind.  It returns (ok, the files it
wrote, the text to print).  ``main`` alone then writes an experiment's text
as summary.txt and the manifest (config echo plus SHA-256 content hashes of
those files), prints the text and exits 0 if ok, else 1.  Rerunning with the
same config reproduces the outputs byte for byte.

Exit codes: 0 success, 2 config error, 3 model/schedule mismatch,
4 numerical error (a non-finite sampler state, guidance gradient or training
loss), 1 other (among them an OS error, such as an --out that is a file).
"""

import argparse
import functools
import hashlib
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import data as data_mod
from . import metrics as metrics_mod
from . import models as models_mod
from . import sampler as sampler_mod
from . import schedule as schedule_mod
from .errors import NumericalError
from .guidance import KINDS as GUIDANCE_KINDS, GuidanceRule
from .svgplot import LinePlot

EXIT_CONFIG = 2
EXIT_MISMATCH = 3
EXIT_NUMERICAL = 4

INF = math.inf


class Key(NamedTuple):
    """A config key's row in ``KEYS``: its default text, the inclusive (low,
    high) bounds of a number (an integer if ``low`` is an int) and the values
    it may take instead.  A key with neither is free text, such as a path."""
    default: str
    bounds: tuple = None
    choices: tuple = ()


KEYS = {
    "data.dim": Key("64", (2, INF)),
    "data.radius": Key("10.0", (-INF, INF)),
    "data.sigma": Key("0.5", (-INF, INF)),
    "data.ambient_jitter": Key("0.01", (-INF, INF)),
    "data.n": Key("8000", (1, INF)),
    "data.seed": Key("1", (0, INF)),
    "data.path": Key(""),
    "schedule.type": Key("linear_beta", choices=("linear_beta", "linear_alphabar")),
    "schedule.T": Key("1000", (2, INF)),
    "schedule.beta_start": Key("1e-4", (-INF, INF)),
    "schedule.beta_end": Key("0.02", (-INF, INF)),
    "schedule.gamma_mode": Key("lower", choices=schedule_mod.GAMMA_MODES),
    "schedule.respace": Key("0", (0, INF)),             # 0 = no respacing
    "models.denoiser": Key("analytic"),                 # "analytic" or a checkpoint path
    "models.classifier": Key("analytic"),
    "guidance.kind": Key("none", choices=GUIDANCE_KINDS),
    "guidance.s": Key("0.0", (0.0, INF)),
    "guidance.cutoff": Key("1.0", (0.0, 1.0)),
    "guidance.geoguide_T": Key("0", (0, INF)),          # 0 = executed sampling steps
    "sampling.n_chains": Key("64", (1, INF)),
    "sampling.target": Key("cycle", (0, INF), ("cycle",)),  # a class, or cycle over them
    "sampling.seed": Key("0", (0, INF)),
    "sampling.store_full": Key("0", (0, 1)),
    "train.epochs": Key("200", (1, INF)),
    "train.batch_size": Key("256", (1, INF)),
    "train.lr": Key("1e-3", (math.ulp(0.0), INF)),      # 0 trains nothing, < 0 uphill
    "train.seed": Key("0", (0, INF)),
    "eval.k": Key("3", (1, INF)),
    "eval.generated": Key(""),
    "eval.reference": Key(""),
}


class ConfigError(Exception):
    pass


def parse_config_file(path):
    cfg = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        cfg[key] = value
    return cfg


def _parse(key, text):
    """``text`` as the value of config ``key``: one of its row's choices, a
    number within its bounds, or, in a row with neither, the text itself; a
    ConfigError naming the key if it is none of those."""
    _, bounds, choices = KEYS[key]
    if text in choices or not (bounds or choices):
        return text
    expected = [f"one of {choices}"] if choices else []
    if bounds:
        low, high = bounds
        kind = int if isinstance(low, int) else float
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if low <= value <= high and abs(value) != INF:  # NaN fails too
            return value
        expected.append(f"{'an integer' if kind is int else 'a finite number'} "
                        f"in [{low}, {high}]")
    raise ConfigError(f"key {key!r}: expected {' or '.join(expected)}, got {text!r}")


class RunConfig:
    """A run's config: the text of each key, over its ``KEYS`` default, and
    its value, parsed and checked against the key's row once, here.
    ``cfg[key]`` is that value."""

    def __init__(self, overrides=None):
        self.text = {key: row.default for key, row in KEYS.items()}
        self.text.update(overrides or {})
        self.values = {key: _parse(key, text) for key, text in self.text.items()}

    def __getitem__(self, key):
        return self.values[key]

    def lines(self):
        return [f"{k} = {v}" for k, v in sorted(self.text.items())]

    # -- construction of the run's objects ---------------------------------

    def descriptor(self):
        try:
            return data_mod.eight_gaussians(
                dim=self["data.dim"], radius=self["data.radius"], sigma=self["data.sigma"],
                ambient_jitter=self["data.ambient_jitter"])
        except data_mod.DescriptorError as exc:
            # a zero data.sigma or data.ambient_jitter gives a zero variance
            raise ConfigError(f"data.sigma and data.ambient_jitter: {exc}") from None

    def dataset(self):
        if self["data.path"]:
            return data_mod.load(_input_file(self, "data.path"))
        return data_mod.generate(self.descriptor(), self["data.n"], self["data.seed"])

    def base_schedule(self):
        T, mode = self["schedule.T"], self["schedule.gamma_mode"]
        if self["schedule.type"] == "linear_alphabar":
            return schedule_mod.build_linear_alphabar(T, gamma_mode=mode)
        start, end = self["schedule.beta_start"], self["schedule.beta_end"]
        if not 0.0 < start <= end < 1.0:
            raise ConfigError(f"schedule.beta_start = {start!r}, schedule.beta_end = "
                              f"{end!r}: need 0 < beta_start <= beta_end < 1")
        return schedule_mod.build_linear_beta(T, start, end, gamma_mode=mode)

    def sampling_schedule(self, base=None):
        base = base or self.base_schedule()
        n = self["schedule.respace"]
        if n == 0:
            return base
        if not 2 <= n <= base.T:
            raise ConfigError(f"schedule.respace: expected 0 (no respacing) or a step "
                              f"count in [2, {base.T}], got {n}")
        return schedule_mod.respace(base, n)

    def models(self, base, ds):
        """The denoiser and the classifier that models.* name, for the
        dataset ds: each analytic on its descriptor, or a checkpoint."""
        den = (self.analytic(models_mod.AnalyticDenoiser, "models.denoiser", base, ds)
               if self["models.denoiser"] == "analytic"
               else self._checkpoint("models.denoiser", base, ds))
        clf = (self.analytic(models_mod.AnalyticClassifier, "models.classifier", base, ds)
               if self["models.classifier"] == "analytic"
               else self._checkpoint("models.classifier", base, ds))
        return den, clf

    def analytic(self, backend, user, base, ds):
        """The analytic ``backend`` on the descriptor of the dataset ds; a
        ConfigError naming ``user`` (a models.* key, or the presets' oracle)
        and data.path if ds, read from that file, carries no descriptor."""
        if ds.descriptor is None:
            raise ConfigError(f"{user} is analytic and needs a gaussian_mixture descriptor, "
                              f"but data.path ({self['data.path']}) carries none")
        return backend(ds.descriptor, base)

    def _checkpoint(self, key, base, ds):
        """The checkpoint that ``key`` names; a ModelMismatchError that names
        the key and the path if it is not of the key's kind (a denoiser or a
        classifier), not of the dimension of the dataset ds's points or, for
        a classifier, not of ds's class count."""
        path = _input_file(self, key)
        model = models_mod.load_model(path, base)
        kind = "denoiser" if isinstance(model, models_mod.LearnedDenoiser) else "classifier"
        if key != f"models.{kind}":
            raise models_mod.ModelMismatchError(f"{key}: {path} is a {kind} checkpoint")
        dim = ds.points.shape[1]
        if model.dim != dim:
            raise models_mod.ModelMismatchError(
                f"{key}: {path} has dimension {model.dim}, the data {dim}")
        if kind == "classifier" and model.n_classes != ds.n_classes:
            raise models_mod.ModelMismatchError(
                f"{key}: {path} has {model.n_classes} classes, the data {ds.n_classes}")
        return model

    def rule(self):
        return GuidanceRule(kind=self["guidance.kind"], scale=self["guidance.s"],
                            cutoff_fraction=self["guidance.cutoff"],
                            t_override=self["guidance.geoguide_T"] or None)

    def targets(self, n_chains, n_classes):
        y = self["sampling.target"]
        if y == "cycle":
            return np.arange(n_chains) % n_classes
        if y >= n_classes:
            raise ConfigError(f"sampling.target: class {y} outside 0..{n_classes - 1}")
        return np.full(n_chains, y, dtype=np.int64)


def _input_file(cfg, key):
    """The input file that config ``key`` names; a ConfigError naming the key
    and the path if there is no such file."""
    path = cfg[key]
    if not Path(path).is_file():
        raise ConfigError(f"{key}: no such file {path!r}")
    return path


def out_dir(args) -> Path:
    path = args.out or os.environ.get("GUIDELAB_OUT") or "."
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p


def write_manifest(out: Path, cfg: RunConfig, files):
    lines = ["[config]"] + cfg.lines() + ["", "[outputs]"]
    for f in sorted(files):
        digest = hashlib.sha256(Path(f).read_bytes()).hexdigest()
        lines.append(f"{Path(f).name} sha256={digest}")
    (out / "manifest.txt").write_text("\n".join(lines) + "\n")


def _write_table(path, header, rows):
    """A comma-separated table with "\\n" line ends: a float cell (numpy's
    too) as the repr of the Python float, any other cell as its str."""
    def cell(v):
        return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
    lines = [",".join(header)] + [",".join(map(cell, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def load_cfg(args, extra=None):
    overrides = dict(extra or {})
    if args.config:
        overrides.update(parse_config_file(args.config))
    if args.seed is not None:
        overrides["sampling.seed"] = str(args.seed)
        overrides.setdefault("train.seed", str(args.seed))
    return RunConfig(overrides)


class RunEnv(NamedTuple):
    """What a sampling run is built from: the dataset, the base and sampling
    schedules, the two models, and the seed, chain count and targets."""
    ds: data_mod.LabeledDataset
    base: schedule_mod.NoiseSchedule
    sch: schedule_mod.NoiseSchedule
    den: object
    clf: object
    seed: int
    n: int
    ys: np.ndarray

    def sample(self, rule, sch=None, **kwargs):
        """``sampler.sample`` of this run under ``rule`` (one rule or a tuple),
        on ``sch`` if given."""
        return sampler_mod.sample(self.den, self.clf, rule, self.sch if sch is None else sch,
                                  self.ys, self.n, seed=self.seed, **kwargs)


def _run_env(cfg):
    ds = cfg.dataset()
    base = cfg.base_schedule()
    sch = cfg.sampling_schedule(base)
    den, clf = cfg.models(base, ds)
    n = cfg["sampling.n_chains"]
    return RunEnv(ds, base, sch, den, clf, cfg["sampling.seed"], n,
                  cfg.targets(n, ds.n_classes))


# ---------------------------------------------------------------------------
# Subcommands.  Each runs as the experiment presets below do (see RUNNERS).
# ---------------------------------------------------------------------------

def run_gen_data(cfg, make_out):
    desc, n, seed = cfg.descriptor(), cfg["data.n"], cfg["data.seed"]
    out = make_out()
    ds = data_mod.generate(desc, n, seed)
    path = out / "dataset.glab"
    data_mod.save(ds, path)
    return True, [path], f"wrote {path} ({len(ds.points)} points, D={ds.points.shape[1]})\n"


def run_train(which, cfg, make_out):
    ds = cfg.dataset()
    base = cfg.base_schedule()
    hyper = models_mod.Hyperparams(epochs=cfg["train.epochs"], lr=cfg["train.lr"],
                                   batch_size=cfg["train.batch_size"])
    out = make_out()
    train = models_mod.train_denoiser if which == "denoiser" else models_mod.train_classifier
    model, report = train(ds, base, hyper, seed=cfg["train.seed"])
    path = out / f"{which}.gmod"
    models_mod.save_model(model, path)
    loss_csv = out / f"{which}_loss.csv"
    _write_table(loss_csv, ["epoch", "loss"], enumerate(report.epoch_losses))
    return True, [path, loss_csv], (f"wrote {path} (final loss {report.final_loss:.6g}, "
                                    f"{report.wall_time:.1f}s)\n")


def run_sample(cfg, make_out):
    store = "full" if cfg["sampling.store_full"] else "thinned"
    rule = cfg.rule()
    env = _run_env(cfg)
    out = make_out()
    batch = env.sample(rule, store=store)
    samples_path = out / "samples.glab"
    data_mod.save(data_mod.LabeledDataset(points=batch.samples, labels=batch.targets,
                                          descriptor=env.ds.descriptor, seed=env.seed),
                  samples_path)
    traj_path = out / "trajectories.csv"
    sampler_mod.export_trajectories_csv(batch, traj_path, dataset=env.ds)
    return True, [samples_path, traj_path], (f"wrote {samples_path} ({env.n} samples, "
                                             f"rule={rule.kind}, s={rule.scale})\n")


def run_eval(cfg, make_out):
    gen_path = cfg["eval.generated"]
    if not gen_path:
        raise ConfigError("eval.generated must point to a samples file")
    generated = data_mod.load(_input_file(cfg, "eval.generated"))
    _check_points(generated.points, f"eval.generated: {gen_path}")
    ref_key = "eval.reference" if cfg["eval.reference"] else "data.path"
    ref_path = cfg[ref_key]
    reference = data_mod.load(_input_file(cfg, ref_key)) if ref_path else cfg.dataset()
    ref_name = f"{ref_key} ({ref_path})" if ref_path else "the reference generated from data.*"
    _check_points(reference.points, f"{ref_key}: {ref_path}" if ref_path else ref_name)
    dims = generated.points.shape[1], reference.points.shape[1]
    if dims[0] != dims[1]:
        raise data_mod.DataFormatError(f"eval.generated ({gen_path}) holds {dims[0]}-D points "
                                       f"but {ref_name} holds {dims[1]}-D points")
    base = cfg.base_schedule()
    desc = generated.descriptor or reference.descriptor
    if desc is None:
        raise ConfigError(f"neither eval.generated ({gen_path}) nor eval.reference "
                          f"or data.path ({ref_path}) carries the manifold descriptor "
                          "that the class-fidelity oracle needs")
    oracle = models_mod.AnalyticClassifier(desc, base)
    k = _eval_k(cfg, len(generated.points), len(reference.points))
    out = make_out()
    report = _evaluate(generated.points, generated.labels, reference.points, oracle,
                       metrics_mod.knn_precision_recall(generated.points, reference.points, k),
                       config=cfg["guidance.kind"])
    csv_path = out / "metrics.csv"
    metrics_mod.write_metrics_csv([report], csv_path)
    txt_path = out / "metrics.txt"
    text = report.text_block()
    txt_path.write_text(text)
    return True, [csv_path, txt_path], text


def _check_points(points, where):
    """A DataFormatError naming ``where`` and the first row of ``points`` that
    is not finite or lies farther than ``metrics.MAX_NORM`` from the origin."""
    with np.errstate(over="ignore"):  # a squared norm past the float range is inf
        bad = ~(np.einsum("ij,ij->i", points, points) <= metrics_mod.MAX_NORM ** 2)
    if bad.any():
        i = int(np.argmax(bad))
        why = ("holds a non-finite value" if not np.isfinite(points[i]).all() else
               f"lies farther than {metrics_mod.MAX_NORM:.3g} from the origin")
        raise data_mod.DataFormatError(f"{where}: row {i} {why}")


def _eval_k(cfg, n_generated, n_reference):
    """eval.k; a ConfigError naming it and both set sizes unless each set
    holds more than k points."""
    k = cfg["eval.k"]
    if k >= min(n_generated, n_reference):
        raise ConfigError(f"eval.k = {k}: each set needs more than k points, got "
                          f"{n_generated} generated and {n_reference} reference")
    return k


def _evaluate(samples, targets, reference, oracle, precision_recall, config=""):
    precision, recall = precision_recall
    return metrics_mod.MetricsReport(
        frechet=metrics_mod.frechet_distance(samples, reference),
        precision=precision, recall=recall,
        class_accuracy=metrics_mod.class_fidelity(samples, targets, oracle),
        n_generated=len(samples), n_reference=len(reference), config=config)


# ---------------------------------------------------------------------------
# Experiment presets
# ---------------------------------------------------------------------------

# Scales re-tuned for the desk-scale benchmark (the paper's ImageNet scales
# do not transfer); see the scale_sweep preset for the tuning evidence.
TUNED_GEO = 2.5
TUNED_ADM = 1.0
SWEEP_GRID = (0.0, 0.1, 0.2, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0)
RESPACE_STEPS = (50, 250, 1000)

# Guidance-geometry presets use the 1 - t/T schedule; quality presets keep
# the linear-beta default.
GEOMETRY_SCHEDULE = {"schedule.type": "linear_alphabar", "schedule.respace": "250"}


def _oracle(cfg, env):
    """The analytic classifier that grades the class fidelity of a preset's
    samples, on the run's base schedule."""
    return cfg.analytic(models_mod.AnalyticClassifier, "the class-fidelity oracle",
                        env.base, env.ds)


def _check(lines, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    lines.append(f"[{status}] {name}: {detail}\n")
    return ok


def preset_norm_curves(cfg, make_out):
    env = _run_env(cfg)
    out = make_out()
    summary = []
    plot = LinePlot(title="guidance adjustment norm per reverse step",
                    xlabel="reverse step", ylabel="mean ||s A_t||")
    results = {}
    arms = (("adm_g", TUNED_ADM), ("geoguide", TUNED_GEO))
    batches = env.sample(tuple(GuidanceRule(kind, s) for kind, s in arms), store="norms")
    for (kind, s), batch in zip(arms, batches):
        curve = metrics_mod.norm_curve_summary(batch.adjustment_norms)
        results[kind] = (batch, curve)
        _write_table(out / f"norms_{kind}.csv", ["step", "mean_norm"],
                     enumerate(curve["per_step_mean"]))
        plot.add(range(len(curve["per_step_mean"])), curve["per_step_mean"],
                 label=f"{kind} (s={s})")
    plot.write(out / "norm_curves.svg")

    geo_batch, geo_curve = results["geoguide"]
    target = TUNED_GEO * np.sqrt(env.ds.points.shape[1]) / env.sch.T
    norms = geo_batch.adjustment_norms
    max_rel = float(np.max(np.abs(norms - target)) / target)
    ok = _check(summary, "geoguide norm constancy", max_rel < 1e-12,
                f"max relative deviation {max_rel:.3e} (target < 1e-12)")
    ok &= _check(summary, "geoguide decile ratio",
                 abs(geo_curve["ratio"] - 1.0) < 1e-9,
                 f"ratio {geo_curve['ratio']!r} (target 1 +/- 1e-9)")
    adm_ratio = results["adm_g"][1]["ratio"]
    ok &= _check(summary, "adm_g norm decay", adm_ratio < 0.2,
                 f"last/first decile ratio {adm_ratio:.4f} (target < 0.2)")
    return ok, [out / "norms_adm_g.csv", out / "norms_geoguide.csv",
                out / "norm_curves.svg"], "".join(summary)


def preset_distance_law(cfg, make_out):
    ds = cfg.dataset()
    sch = cfg.sampling_schedule()
    out = make_out()
    D = ds.points.shape[1]
    ts, alpha_bars, d_hat = sampler_mod.forward_manifold_traces(ds, sch, n_draws=200,
                                                                seed=cfg["sampling.seed"])
    fit = metrics_mod.distance_law_fit(ts, alpha_bars, d_hat, D)
    _write_table(out / "distance_law.csv", ["t", "median_rel_error", "n"],
                 ((row["t"], row["median_rel_error"], row["n"]) for row in fit["per_t"]))
    plot = LinePlot(title="manifold distance vs theory",
                    xlabel="timestep t", ylabel="distance")
    plot.add(ts, d_hat[0], label="measured")
    plot.add(ts, np.sqrt((1.0 - alpha_bars) * D), label="sqrt((1-abar)D)")
    plot.write(out / "distance_law.svg")
    summary = []
    ok = _check(summary, "distance law", fit["aggregate_median"] <= 0.15,
                f"median relative error {fit['aggregate_median']:.4f} "
                f"(target <= 0.15 where 1-abar >= 0.1)")
    return ok, [out / "distance_law.csv", out / "distance_law.svg"], "".join(summary)


def preset_cutoff(cfg, make_out):
    env = _run_env(cfg)
    oracle = _oracle(cfg, env)
    out = make_out()
    rows = []
    fid = {}
    arms = [(kind, s, cut) for kind, s in (("adm_g", TUNED_ADM), ("geoguide", TUNED_GEO))
            for cut in (1.0, 0.3)]
    batches = env.sample(tuple(GuidanceRule(kind, s, cutoff_fraction=cut)
                               for kind, s, cut in arms), store="samples")
    for (kind, s, cut), batch in zip(arms, batches):
        f = metrics_mod.class_fidelity(batch.samples, batch.targets, oracle)
        fid[(kind, cut)] = f
        rows.append((kind, s, cut, f))
    _write_table(out / "cutoff.csv", ["rule", "s", "cutoff_fraction", "class_fidelity"],
                 rows)
    plot = LinePlot(title="class fidelity: full guidance vs 30% cut-off",
                    xlabel="cutoff fraction", ylabel="class fidelity")
    for kind in ("adm_g", "geoguide"):
        plot.add([0.3, 1.0], [fid[(kind, 0.3)], fid[(kind, 1.0)]], label=kind)
    plot.write(out / "cutoff.svg")
    drop_adm = fid[("adm_g", 1.0)] - fid[("adm_g", 0.3)]
    drop_geo = fid[("geoguide", 1.0)] - fid[("geoguide", 0.3)]
    summary = []
    ok = _check(summary, "cut-off direction", drop_geo > drop_adm,
                f"geoguide drop {drop_geo:.4f} vs adm_g drop {drop_adm:.4f}")
    return ok, [out / "cutoff.csv", out / "cutoff.svg"], "".join(summary)


def preset_scale_sweep(cfg, make_out):
    env = _run_env(cfg)
    oracle = _oracle(cfg, env)
    k = _eval_k(cfg, env.n, len(env.ds.points))
    out = make_out()
    files = []
    arms = {}
    for kind in ("adm_g", "geoguide", "geoguide_scaled"):
        batches = env.sample(tuple(GuidanceRule(kind, s) for s in SWEEP_GRID),
                             store="samples")
        rows = [(s, _evaluate(batch.samples, batch.targets, env.ds.points, oracle,
                              env.ds.reference.precision_recall(batch.samples, k),
                              config=f"{kind} s={s}"))
                for s, batch in zip(SWEEP_GRID, batches)]
        arms[kind] = rows
        _write_table(out / f"sweep_{kind}.csv", ["s", *metrics_mod.METRICS_CSV_HEADER],
                     ((s, *rep.csv_row()) for s, rep in rows))
        files.append(out / f"sweep_{kind}.csv")
    for field, fname in (("class_accuracy", "sweep_fidelity.svg"),
                         ("recall", "sweep_recall.svg"),
                         ("frechet", "sweep_frechet.svg")):
        plot = LinePlot(title=f"{field} vs guidance scale", xlabel="scale s",
                        ylabel=field)
        for kind, rows in arms.items():
            plot.add([s for s, _ in rows], [getattr(r, field) for _, r in rows],
                     label=kind)
        plot.write(out / fname)
        files.append(out / fname)

    summary = []
    geo = arms["geoguide"]
    svals = [s for s, _ in geo]
    recall = [r.recall for _, r in geo]
    fidelity = [r.class_accuracy for _, r in geo]
    rho = metrics_mod.spearman(svals, recall)
    ok = _check(summary, "recall decreases with scale", rho <= -0.8,
                f"Spearman(recall, s) = {rho:.3f} (target <= -0.8)")
    plateau = next((i for i, f in enumerate(fidelity) if f >= 0.95 * max(fidelity)),
                   len(fidelity) - 1)
    mono = all(fidelity[i + 1] >= fidelity[i] - 0.02 for i in range(plateau))
    ok &= _check(summary, "fidelity non-decreasing up to plateau", mono,
                 f"fidelity {['%.3f' % f for f in fidelity]}, plateau index {plateau}")

    # scaled-variant comparison at the grid point nearest TUNED_GEO, ties to the
    # first: s = 2.0 on SWEEP_GRID (Table-2 style report; recorded, not asserted)
    idx = min(range(len(svals)), key=lambda i: abs(svals[i] - TUNED_GEO))
    base_f = geo[idx][1].frechet
    scaled_f = arms["geoguide_scaled"][idx][1].frechet
    cmp_path = out / "scaled_comparison.txt"
    cmp_path.write_text(
        f"scale s = {svals[idx]}\n"
        f"geoguide frechet         {base_f!r}\n"
        f"geoguide_scaled frechet  {scaled_f!r}\n"
        f"direction: {'base better' if base_f <= scaled_f else 'scaled better'}\n")
    files.append(cmp_path)
    _check(summary, "scaled-variant report emitted", True,
           f"geoguide {base_f:.4f} vs scaled {scaled_f:.4f} at s={svals[idx]}")
    return ok, files, "".join(summary)


def preset_respace_study(cfg, make_out):
    env = _run_env(cfg)
    oracle = _oracle(cfg, env)
    s = cfg["guidance.s"]
    k = _eval_k(cfg, env.n, len(env.ds.points))
    if env.base.T < max(RESPACE_STEPS):
        raise ConfigError(f"schedule.T = {env.base.T}: respace_study respaces it to "
                          f"{RESPACE_STEPS} steps, so it needs at least {max(RESPACE_STEPS)}")
    out = make_out()
    kinds = ("geoguide", "geoguide_scaled")
    reports = {}
    for steps in RESPACE_STEPS:
        batches = env.sample(tuple(GuidanceRule(kind, s) for kind in kinds),
                             sch=schedule_mod.respace(env.base, steps), store="samples")
        for kind, batch in zip(kinds, batches):
            reports[(kind, steps)] = _evaluate(
                batch.samples, batch.targets, env.ds.points, oracle,
                env.ds.reference.precision_recall(batch.samples, k),
                config=f"{kind} steps={steps}")
    rows = [(kind, steps, reports[(kind, steps)]) for kind in kinds
            for steps in RESPACE_STEPS]
    _write_table(out / "respace.csv", ["rule", "steps", *metrics_mod.METRICS_CSV_HEADER],
                 ((kind, steps, *rep.csv_row()) for kind, steps, rep in rows))
    plot = LinePlot(title="sample quality vs sampling steps",
                    xlabel="sampling steps", ylabel="frechet")
    for kind in kinds:
        pts = [(steps, rep.frechet) for k2, steps, rep in rows if k2 == kind]
        plot.add([p[0] for p in pts], [p[1] for p in pts], label=kind)
    plot.write(out / "respace.svg")
    # the step-count claim is asserted on the scaled variant, whose quality
    # floor is step-independent at desk scale; the base rule is reported
    f = {steps: rep.frechet for kind, steps, rep in rows
         if kind == "geoguide_scaled"}
    summary = []
    ok = _check(summary, "fewer steps are worse", f[50] >= f[250],
                f"frechet(50) = {f[50]:.4f} >= frechet(250) = {f[250]:.4f}")
    rel = abs(f[1000] - f[250]) / f[250]
    ok &= _check(summary, "1000 steps close to 250", rel <= 0.25,
                 f"|f(1000) - f(250)| / f(250) = {rel:.3f} (target <= 0.25)")
    return ok, [out / "respace.csv", out / "respace.svg"], "".join(summary)


# command -> (runner, config defaults).  runner(cfg, make_out) checks the
# conditions across keys and input files first, only then calls make_out()
# for the output directory, and returns (ok, the files it wrote, the text to
# print).
RUNNERS = {
    "gen-data": (run_gen_data, {}),
    "train-denoiser": (functools.partial(run_train, "denoiser"), {}),
    "train-classifier": (functools.partial(run_train, "classifier"), {}),
    "sample": (run_sample, {}),
    "eval": (run_eval, {}),
    "experiment norm_curves": (preset_norm_curves,
                               {**GEOMETRY_SCHEDULE, "sampling.n_chains": "64"}),
    "experiment distance_law": (preset_distance_law, {"schedule.respace": "250"}),
    "experiment cutoff": (preset_cutoff, {**GEOMETRY_SCHEDULE, "sampling.n_chains": "512"}),
    "experiment scale_sweep": (preset_scale_sweep,
                               {"schedule.respace": "250", "sampling.n_chains": "1024"}),
    "experiment respace_study": (preset_respace_study,
                                 {"guidance.s": "2.0", "sampling.n_chains": "4096"}),
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="guidelab",
                                     description="desk-scale diffusion guidance lab")
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--out", help="output directory (or $GUIDELAB_OUT)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=1)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        if " " not in name:
            sub.add_parser(name)
    sub.add_parser("experiment").add_argument(
        "preset", choices=[name.split()[1] for name in RUNNERS if " " in name])
    args = parser.parse_args(argv)
    experiment = args.command == "experiment"
    runner, defaults = RUNNERS[f"experiment {args.preset}" if experiment else args.command]
    if args.threads < 1:
        print(f"config error: --threads must be at least 1, got {args.threads}",
              file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = load_cfg(args, extra=defaults)
        ok, files, text = runner(cfg, lambda: out_dir(args))
        out = out_dir(args)
        if experiment:
            (out / "summary.txt").write_text(text)
            files = [*files, out / "summary.txt"]
        write_manifest(out, cfg, files)
        print(text, end="")
        return 0 if ok else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (models_mod.ModelMismatchError, sampler_mod.SamplerError) as exc:
        print(f"model/schedule mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (data_mod.DataFormatError, models_mod.ModelError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
