"""CLI: config parsing, subcommand wiring, manifests, exit codes."""

import ast
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guidelab import cli
from guidelab import data as gd
from guidelab import metrics as gmet
from guidelab import models as gm
from guidelab import sampler as gsam
from guidelab.guidance import GuidanceRule
from oracles import lockstep_counts

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def run(args):
    return cli.main([str(a) for a in args])


@pytest.fixture()
def small_cfg(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(
        "data.n = 400\n"
        "schedule.T = 50\n"
        "schedule.respace = 10\n"
        "sampling.n_chains = 8\n"
        "guidance.kind = geoguide\n"
        "guidance.s = 1.0\n")
    return path


class TestConfigParsing:
    def test_unknown_key_reports_line(self, tmp_path, capsys):
        # output.dir and data.preset were keys once; nothing read the one,
        # and the other had a single legal value
        bad = tmp_path / "bad.txt"
        for key, value in (("mystery.key", "1"), ("output.dir", tmp_path / "elsewhere"),
                           ("data.preset", "eight_gaussians")):
            bad.write_text(f"data.n = 10\n{key} = {value}\n")
            assert run(["--config", bad, "--out", tmp_path, "gen-data"]) == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert "bad.txt:2" in err and key in err

    def test_malformed_line_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("data.n 10\n")
        assert run(["--config", bad, "--out", tmp_path, "gen-data"]) == cli.EXIT_CONFIG
        assert "bad.txt:1" in capsys.readouterr().err

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("# comment\n\ndata.n = 25  # trailing\n")
        assert cli.parse_config_file(cfg) == {"data.n": "25"}

    @pytest.mark.parametrize("lines, train_seed", [("", 9), ("train.seed = 5\n", 5)],
                             ids=["train_seed_unset", "train_seed_set"])
    def test_seed_option(self, tmp_path, monkeypatch, lines, train_seed):
        # --seed replaces sampling.seed, sets train.seed only where the config
        # file leaves it unset, and leaves data.seed alone
        cfg = tmp_path / "c.txt"
        cfg.write_text("sampling.seed = 4\ndata.seed = 3\n" + lines)
        loaded = []
        monkeypatch.setitem(cli.RUNNERS, "gen-data",
                            (lambda cfg, make_out: loaded.append(cfg) or (True, [], ""), {}))
        assert run(["--config", cfg, "--out", tmp_path, "--seed", 9, "gen-data"]) == 0
        assert [loaded[0][key] for key in ("sampling.seed", "train.seed",
                                           "data.seed")] == [9, train_seed, 3]

    def test_non_numeric_value(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("data.n = lots\n")
        assert run(["--config", cfg, "--out", tmp_path, "gen-data"]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("key, value", [
        ("sampling.n_chains", "0"), ("sampling.target", "9"), ("sampling.target", "-1"),
        ("sampling.seed", "-1"), ("guidance.kind", "magic"), ("guidance.s", "-1"),
        ("guidance.s", "nan"), ("guidance.cutoff", "2"), ("schedule.respace", "5000"),
        ("schedule.respace", "1"), ("schedule.T", "0"), ("schedule.gamma_mode", "foo"),
        ("schedule.beta_end", "2"), ("data.n", "0"), ("data.dim", "1"), ("data.sigma", "0"),
        ("data.radius", "nan"), ("guidance.s", "inf"), ("sampling.store_full", "2"),
        ("sampling.store_full", "-1")])
    def test_out_of_range_value(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "c.txt"
        cfg.write_text("data.n = 20\ndata.dim = 4\nschedule.T = 20\n"
                       f"sampling.n_chains = 2\n{key} = {value}\n")
        assert run(["--config", cfg, "--out", tmp_path, "sample"]) == cli.EXIT_CONFIG
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("argv, key, value", [
        (["gen-data"], "data.seed", "-1"),
        (["gen-data"], "guidance.kind", "magic"),
        (["train-denoiser"], "train.seed", "-1"),
        (["train-denoiser"], "train.lr", "-1"),
        (["train-denoiser"], "train.lr", "0"),
        (["train-classifier"], "train.lr", "nan"),
        (["sample"], "sampling.store_full", "7"),
        (["eval"], "eval.k", "0"),
        (["experiment", "norm_curves"], "sampling.target", "9"),
        (["experiment", "distance_law"], "sampling.seed", "-1"),
        (["experiment", "cutoff"], "sampling.target", "9"),
        (["experiment", "scale_sweep"], "eval.k", "0"),
        (["experiment", "respace_study"], "eval.k", "0"),
    ], ids=lambda v: "_".join(v) if isinstance(v, list) else None)
    def test_config_error_leaves_no_out(self, tmp_path, capsys, argv, key, value):
        # each key is among the last its command reads, or one it never reads
        # (every key is checked at load)
        cfg = tmp_path / "c.txt"
        cfg.write_text("data.n = 20\ndata.dim = 4\nschedule.T = 20\nschedule.respace = 10\n"
                       f"sampling.n_chains = 2\neval.generated = {tmp_path / 'gen' / 'dataset.glab'}\n")
        assert run(["--config", cfg, "--out", tmp_path / "gen", "gen-data"]) == 0
        with cfg.open("a") as fh:
            fh.write(f"{key} = {value}\n")
        out = tmp_path / "out"
        assert run(["--config", cfg, "--out", out, *argv]) == cli.EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_respace_study_needs_its_longest_schedule(self, tmp_path, capsys):
        # the study respaces schedule.T to each of RESPACE_STEPS
        cfg = tmp_path / "c.txt"
        cfg.write_text("data.n = 20\ndata.dim = 4\nschedule.T = 100\nsampling.n_chains = 8\n")
        out = tmp_path / "out"
        assert run(["--config", cfg, "--out", out, "experiment",
                    "respace_study"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "schedule.T = 100" in err and str(max(cli.RESPACE_STEPS)) in err
        assert not out.exists()

    def test_store_full_checked_before_the_run_is_built(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("sampling.store_full = 7\n")
        monkeypatch.setattr(cli, "_run_env", None)
        assert run(["--config", cfg, "--out", tmp_path / "out", "sample"]) == cli.EXIT_CONFIG
        assert "sampling.store_full" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", [0, -1])
    def test_non_positive_threads(self, tmp_path, small_cfg, capsys, threads):
        out = tmp_path / "out"
        assert run(["--config", small_cfg, "--out", out, "--threads", threads,
                    "sample"]) == cli.EXIT_CONFIG
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()


# values that no key but a free-text one may take unchecked
HOSTILE = ["", "text", "nan", "inf", "-inf", "-1", "1e18"]


class TestKeysTable:
    @pytest.mark.parametrize("key", cli.KEYS)
    def test_hostile_values(self, key):
        # each value loads as one of the row's choices, a number within its
        # bounds or free text, or is refused naming the key; nothing runs
        _, bounds, choices = cli.KEYS[key]
        for text in HOSTILE:
            try:
                value = cli.RunConfig({key: text})[key]
            except cli.ConfigError as exc:
                assert repr(key) in str(exc)
                continue
            if value in choices or not (bounds or choices):
                assert value == text
            else:
                low, high = bounds
                assert type(value) is type(low) and low <= value <= high, (text, value)
                assert math.isfinite(value)

    def test_one_table_of_keys(self):
        # every key cli.py reads by name has a KEYS row, and every row is
        # read, so a typo or a stale key fails here, not in a run
        tree = ast.parse(Path(cli.__file__).read_text())
        read = {node.slice.value for node in ast.walk(tree)
                if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id in ("cfg", "self") and isinstance(node.slice, ast.Constant)}
        assert read <= set(cli.KEYS), read - set(cli.KEYS)
        assert set(cli.KEYS) <= read, set(cli.KEYS) - read


class TestGenData:
    def test_writes_dataset_and_manifest(self, tmp_path, small_cfg):
        out = tmp_path / "out"
        assert run(["--config", small_cfg, "--out", out, "gen-data"]) == 0
        ds = gd.load(out / "dataset.glab")
        assert len(ds.points) == 400
        manifest = (out / "manifest.txt").read_text()
        assert "dataset.glab sha256=" in manifest
        assert "data.n = 400" in manifest

    def test_rerun_identical(self, tmp_path, small_cfg):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(["--config", small_cfg, "--out", out1, "gen-data"])
        run(["--config", small_cfg, "--out", out2, "gen-data"])
        assert ((out1 / "dataset.glab").read_bytes()
                == (out2 / "dataset.glab").read_bytes())
        assert ((out1 / "manifest.txt").read_text()
                == (out2 / "manifest.txt").read_text())

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
    def test_out_at_a_file_is_os_error(self, tmp_path, capsys, under):
        # an --out that is a file, or lies under one, is no directory
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "x" if under else blocker
        assert run(["--out", out, "gen-data"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_env_fallback_out_dir(self, tmp_path, small_cfg, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("GUIDELAB_OUT", str(target))
        assert run(["--config", small_cfg, "gen-data"]) == 0
        assert (target / "dataset.glab").exists()


# argv, config lines beyond the small base, exit code; the presets at this
# size: norm_curves passes, distance_law at D = 2 fails its law
ONE_PATH_CASES = {
    "gen-data": (["gen-data"], "", 0),
    "train-denoiser": (["train-denoiser"], "train.epochs = 1\n", 0),
    "train-classifier": (["train-classifier"], "train.epochs = 1\n", 0),
    "sample": (["sample"], "guidance.kind = geoguide\nguidance.s = 2.5\n", 0),
    "sample_full": (["sample"], "sampling.store_full = 1\n", 0),
    "eval": (["eval"], "", 0),
    "norm_curves": (["experiment", "norm_curves"], "", 0),
    "distance_law_fails": (["experiment", "distance_law"], "data.dim = 2\n", 1),
}


def _manifest_outputs(path):
    """{file name: sha256} of a manifest's [outputs] section."""
    lines = path.read_text().split("[outputs]\n", 1)[1].splitlines()
    return dict(line.split(" sha256=") for line in lines)


@pytest.mark.parametrize("case", ONE_PATH_CASES)
def test_one_command_path(tmp_path, capsys, case):
    # main alone writes the manifest: it lists every other file the command
    # created, each with the sha256 of its bytes, also for a [FAIL] preset
    argv, lines, code = ONE_PATH_CASES[case]
    cfg = tmp_path / "c.txt"
    cfg.write_text("data.n = 200\ndata.dim = 4\nschedule.T = 20\nschedule.respace = 10\n"
                   "sampling.n_chains = 4\n"
                   f"eval.generated = {tmp_path / 'gen' / 'dataset.glab'}\n" + lines)
    assert run(["--config", cfg, "--out", tmp_path / "gen", "gen-data"]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", out, *argv]) == code
    created = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in out.iterdir() if path.name != "manifest.txt"}
    assert created and _manifest_outputs(out / "manifest.txt") == created
    if argv[0] == "experiment":
        summary = (out / "summary.txt").read_text()
        assert capsys.readouterr().out == summary
        assert summary.count("[FAIL]") == code


class TestSampleAndEval:
    def test_geoguide_s0_matches_none(self, tmp_path):
        base = ("data.n = 200\nschedule.T = 50\nsampling.n_chains = 6\n")
        outs = {}
        for kind in ("none", "geoguide"):
            cfg = tmp_path / f"{kind}.txt"
            cfg.write_text(base + f"guidance.kind = {kind}\nguidance.s = 0.0\n")
            out = tmp_path / kind
            assert run(["--config", cfg, "--out", out, "sample"]) == 0
            outs[kind] = (out / "samples.glab").read_bytes()
        assert outs["none"] == outs["geoguide"]

    def test_threads_byte_identical(self, tmp_path, small_cfg):
        outs = []
        for threads, name in ((1, "t1"), (8, "t8")):
            out = tmp_path / name
            assert run(["--config", small_cfg, "--out", out,
                        "--threads", threads, "sample"]) == 0
            outs.append((out / "samples.glab").read_bytes())
        assert outs[0] == outs[1]

    def test_eval_self_distance_small(self, tmp_path):
        # samples evaluated against their own source dataset
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("data.n = 2000\n")
        out = tmp_path / "ds"
        run(["--config", cfg, "--out", out, "gen-data"])
        ev_cfg = tmp_path / "ev.txt"
        ev_cfg.write_text(f"eval.generated = {out / 'dataset.glab'}\n"
                          "data.n = 2000\n"
                          "data.seed = 2\n")
        ev_out = tmp_path / "ev"
        assert run(["--config", ev_cfg, "--out", ev_out, "eval"]) == 0
        text = (ev_out / "metrics.txt").read_text()
        frechet = float(text.splitlines()[0].split()[-1])
        assert frechet < 0.25   # finite-sample floor at 2000 vs 2000 points

    def test_eval_without_descriptor_is_config_error(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        for name in ("gen", "ref"):
            gd.save(gd.LabeledDataset(points=rng.standard_normal((40, 4)),
                                      labels=np.zeros(40, dtype=np.int64)),
                    tmp_path / f"{name}.glab")
        cfg = tmp_path / "ev.txt"
        cfg.write_text(f"eval.generated = {tmp_path / 'gen.glab'}\n"
                       f"eval.reference = {tmp_path / 'ref.glab'}\n")
        assert run(["--config", cfg, "--out", tmp_path / "ev", "eval"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "eval.generated" in err and "eval.reference" in err

    def test_eval_k_too_large_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("data.n = 50\n")
        run(["--config", cfg, "--out", tmp_path / "ds", "gen-data"])
        ev_cfg = tmp_path / "ev.txt"
        ev_cfg.write_text(f"eval.generated = {tmp_path / 'ds' / 'dataset.glab'}\n"
                          "data.n = 100\neval.k = 60\n")
        assert run(["--config", ev_cfg, "--out", tmp_path / "ev", "eval"]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: eval.k = 60: each set needs more than k points, "
            "got 50 generated and 100 reference\n")
        assert not (tmp_path / "ev" / "metrics.csv").exists()

    @pytest.mark.parametrize("preset", ["scale_sweep", "respace_study"])
    def test_preset_eval_k_too_large_is_config_error(self, tmp_path, capsys, preset):
        # checked before sampling, not only in the evaluation
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("data.n = 3\nsampling.n_chains = 8\n")
        assert run(["--config", cfg, "--out", tmp_path, "experiment", preset]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: eval.k = 3: each set needs more than k points, "
            "got 8 generated and 3 reference\n")

    @pytest.mark.parametrize("key", ["eval.generated", "eval.reference"])
    def test_eval_non_finite_point_is_format_error(self, tmp_path, capsys, monkeypatch, key):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("data.n = 50\n")
        run(["--config", cfg, "--out", tmp_path / "ds", "gen-data"])
        ds = gd.load(tmp_path / "ds" / "dataset.glab")
        points = ds.points.copy()
        points[7, 1] = np.nan
        points[9, 0] = np.inf
        bad = tmp_path / "bad.glab"
        gd.save(gd.LabeledDataset(points=points, labels=ds.labels,
                                  descriptor=ds.descriptor, seed=ds.seed), bad)
        paths = {"eval.generated": tmp_path / "ds" / "dataset.glab",
                 "eval.reference": tmp_path / "ds" / "dataset.glab", key: bad}
        ev_cfg = tmp_path / "ev.txt"
        ev_cfg.write_text("".join(f"{k} = {v}\n" for k, v in paths.items()))
        # the check comes before any metric
        monkeypatch.setattr(gmet, "knn_precision_recall", None)
        assert run(["--config", ev_cfg, "--out", tmp_path / "ev", "eval"]) == 1
        assert capsys.readouterr().err == (
            f"error: {key}: {bad}: row 7 holds a non-finite value\n")

    @pytest.mark.parametrize("key", ["eval.generated", "eval.reference", "data.radius"])
    def test_eval_overflowing_cloud_is_format_error(self, tmp_path, capsys, key):
        # the eight-Gaussian draw times 1e200 used to print five numpy
        # warnings and end "error: Eigenvalues did not converge", after
        # --out was made
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("data.n = 50\n")
        assert run(["--config", cfg, "--out", tmp_path / "ds", "gen-data"]) == 0
        plain = tmp_path / "ds" / "dataset.glab"
        ds = gd.load(plain)
        big = tmp_path / "big.glab"
        gd.save(gd.LabeledDataset(points=ds.points * 1e200, labels=ds.labels,
                                  descriptor=ds.descriptor, seed=ds.seed), big)
        lines = {"eval.generated": f"eval.generated = {big}\ndata.n = 100\n",
                 "eval.reference": f"eval.generated = {plain}\neval.reference = {big}\n",
                 "data.radius": f"eval.generated = {plain}\ndata.n = 100\n"
                                "data.radius = 1e200\n"}
        where = {"eval.generated": f"eval.generated: {big}",
                 "eval.reference": f"eval.reference: {big}",
                 "data.radius": "the reference generated from data.*"}
        ev_cfg = tmp_path / "ev.txt"
        ev_cfg.write_text(lines[key])
        assert run(["--config", ev_cfg, "--out", tmp_path / "ev", "eval"]) == 1
        assert capsys.readouterr().err == (
            f"error: {where[key]}: row 0 lies farther than 2.89e+76 from the origin\n")
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("reference", [False, True])
    def test_eval_dimension_mismatch_is_format_error(self, tmp_path, capsys, reference):
        # numpy's matmul error used to end the run, after --out was made
        for name, dim in (("gen", 8), ("ref", 64)):
            cfg = tmp_path / f"{name}.txt"
            cfg.write_text(f"data.n = 50\ndata.dim = {dim}\n")
            assert run(["--config", cfg, "--out", tmp_path / name, "gen-data"]) == 0
        gen, ref = tmp_path / "gen" / "dataset.glab", tmp_path / "ref" / "dataset.glab"
        ev_cfg = tmp_path / "ev.txt"
        ev_cfg.write_text(f"eval.generated = {gen}\ndata.n = 100\n"
                          + (f"eval.reference = {ref}\n" if reference else ""))
        assert run(["--config", ev_cfg, "--out", tmp_path / "ev", "eval"]) == 1
        ref_name = (f"eval.reference ({ref})" if reference
                    else "the reference generated from data.*")
        assert capsys.readouterr().err == (
            f"error: eval.generated ({gen}) holds 8-D points but {ref_name} holds 64-D points\n")
        assert not (tmp_path / "ev").exists()

    def test_blas_and_sampler_threads_byte_identical(self, tmp_path):
        # BLAS does the distance screen and the k-NN distances; neither its
        # thread count nor --threads may change a byte of the outputs
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("data.n = 2000\nschedule.T = 50\nsampling.n_chains = 8\n"
                       "guidance.kind = geoguide\nguidance.s = 1.0\n")
        ev_cfg = tmp_path / "ev.txt"
        ev_cfg.write_text(f"eval.generated = {tmp_path / 'blas1_t1' / 'samples.glab'}\n"
                          "data.n = 2000\n")
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

        def manifest(blas, name, config, threads, command):
            out = tmp_path / name
            run_env = dict(env, **({"OPENBLAS_NUM_THREADS": blas} if blas else {}))
            subprocess.run([sys.executable, "-m", "guidelab.cli", "--config", str(config),
                            "--out", str(out), "--threads", threads, command],
                           env=run_env, check=True, capture_output=True, timeout=300)
            return (out / "manifest.txt").read_text()

        samples = {manifest(blas, f"blas{blas}_t{threads}", cfg, threads, "sample")
                   for blas in ("1", None) for threads in ("1", "2")}
        assert len(samples) == 1
        evals = {manifest(blas, f"eval_blas{blas}", ev_cfg, "1", "eval")
                 for blas in ("1", None)}
        assert len(evals) == 1

    def test_sample_writes_trajectory_csv(self, tmp_path, small_cfg):
        out = tmp_path / "s"
        run(["--config", small_cfg, "--out", out, "sample"])
        header = (out / "trajectories.csv").read_text().splitlines()[0]
        assert header == "chain,step,t,alpha_bar,adjustment_norm,d_hat,d_theory"

    @staticmethod
    def _recorded(tmp_path, cfg_text, argv, workload):
        """The per-layer metrics of bench/spans.py's full recorder around one
        CLI command (its argv tokens after the options) in a fresh
        interpreter, with bench/run.py's ``LAYER_METRICS`` under ``"listed"``.

        Every time the benchmark lists for ``workload`` must read > 0, so a
        stale list fails here before it stops a traced benchmark run;
        ``trace.*`` is the benchmark's own clock, not a layer."""
        script = (
            "import json, sys\n"
            f"sys.path[:0] = [{str(ROOT / 'bench')!r}, {str(SRC)!r}]\n"
            "import spans\n"
            "recorder = spans.install('full')\n"
            "from guidelab import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "import run\n"
            "print(json.dumps({'code': code,\n"
            "                  'metrics': dict(spans.summarize(recorder.dump(), 0.0),\n"
            "                                  listed=run.LAYER_METRICS)}))\n")
        name = "_".join(argv)
        cfg = tmp_path / f"{name}.txt"
        cfg.write_text(cfg_text)
        done = subprocess.run([sys.executable, "-c", script, "--config", str(cfg),
                               "--out", str(tmp_path / name), *argv],
                              check=True, capture_output=True, text=True, timeout=300)
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["code"] == 0
        metrics = result["metrics"]
        for name in metrics["listed"][workload]:
            if name.endswith("_s") and not name.startswith("trace."):
                assert metrics[name] > 0, name
        return metrics

    def test_benchmark_recorder_counts(self, tmp_path):
        # bench/spans.py binds guidelab names (batch.logs, log.ts,
        # trajectory.stored_ts, ...); its full recorder must still count
        metrics = self._recorded(
            tmp_path, "data.n = 300\nschedule.respace = 10\nsampling.n_chains = 2\n"
            "guidance.kind = geoguide\nguidance.s = 1.0\n", ["sample"], "sample_trace")
        M, S, K, N = 2, 10, 10, 300   # ceil(10 / 50) = 1: every step stored
        assert metrics["sampler.trace_distance_s"] > 0
        assert metrics["sampler.export_csv_s"] > 0
        assert metrics["sampler.csv_rows"] == M * S
        assert metrics["sampler.distance_evals"] == M * K * N

    def test_benchmark_recorder_counts_eval(self, tmp_path):
        # bench/spans.py binds knn_precision_recall's generated/reference
        G, R = 300, 500
        gen_cfg = tmp_path / "gen.txt"
        gen_cfg.write_text(f"data.n = {G}\ndata.seed = 7\n")
        assert run(["--config", gen_cfg, "--out", tmp_path / "gen", "gen-data"]) == 0
        metrics = self._recorded(
            tmp_path, f"eval.generated = {tmp_path / 'gen' / 'dataset.glab'}\n"
            f"data.n = {R}\n", ["eval"], "eval_knn")
        assert metrics["metrics.knn_s"] > 0
        assert metrics["metrics.knn_pairs"] == G * R + G * G + R * R

    def test_benchmark_recorder_counts_cutoff(self, tmp_path):
        # every model and guidance layer that bench/run.py lists for
        # guide_cutoff must read, and its arms must share their steps
        M, S = 64, 50   # enough for the preset's [PASS], so the command exits 0
        metrics = self._recorded(
            tmp_path, f"data.n = 300\nschedule.respace = {S}\nsampling.n_chains = {M}\n",
            ["experiment", "cutoff"], "guide_cutoff")
        listed = [n for n in metrics["listed"]["guide_cutoff"]
                  if n.split(".")[0] in ("models", "guidance")]
        assert "guidance.calls" in listed and "models.rows" in listed
        for name in listed:
            # peak allocations come from the benchmark's allocation-traced command
            if not name.endswith("peak_alloc_mb"):
                assert metrics[name] > 0, name
        rules = tuple(GuidanceRule(kind, s, cutoff_fraction=cut) for kind, s in
                      (("adm_g", cli.TUNED_ADM), ("geoguide", cli.TUNED_GEO))
                      for cut in (1.0, 0.3))
        eps, guided, updates = lockstep_counts(rules, S)
        # an unguided update makes no adjustment call
        assert metrics["guidance.calls"] == guided < updates
        # class_fidelity reads each arm's M samples once
        assert metrics["models.rows"] == M * (eps + guided + len(rules))


def _table_cells(path):
    """The cells of a comma-separated table after its header row."""
    return [cell for line in path.read_text().splitlines()[1:] for cell in line.split(",")]


def _is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def test_tables_hold_plain_numbers(tmp_path):
    # the loss and norm-curve tables once held numpy reprs: np.float64(...)
    train, curves = tmp_path / "train.txt", tmp_path / "curves.txt"
    train.write_text("data.n = 200\nschedule.T = 20\ntrain.epochs = 2\n")
    curves.write_text("data.n = 200\nsampling.n_chains = 8\nschedule.respace = 25\n")
    assert run(["--config", train, "--out", tmp_path / "train", "train-denoiser"]) == 0
    assert run(["--config", curves, "--out", tmp_path / "nc", "experiment", "norm_curves"]) == 0
    for path in (tmp_path / "train" / "denoiser_loss.csv",
                 tmp_path / "nc" / "norms_adm_g.csv", tmp_path / "nc" / "norms_geoguide.csv"):
        cells = _table_cells(path)
        assert cells and all(_is_number(c) for c in cells), path.name


class TestTraining:
    def test_train_and_reuse_checkpoint(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("data.n = 200\nschedule.T = 20\ntrain.epochs = 2\n")
        out = tmp_path / "train"
        assert run(["--config", cfg, "--out", out, "train-denoiser"]) == 0
        assert (out / "denoiser.gmod").exists()
        assert (out / "denoiser_loss.csv").read_text().startswith("epoch,loss")
        # sample with the learned checkpoint
        s_cfg = tmp_path / "s.txt"
        s_cfg.write_text("data.n = 200\nschedule.T = 20\nsampling.n_chains = 2\n"
                         f"models.denoiser = {out / 'denoiser.gmod'}\n")
        assert run(["--config", s_cfg, "--out", tmp_path / "s", "sample"]) == 0

    def test_mismatched_checkpoint_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("data.n = 200\nschedule.T = 20\ntrain.epochs = 1\n")
        out = tmp_path / "train"
        run(["--config", cfg, "--out", out, "train-denoiser"])
        bad = tmp_path / "bad.txt"
        bad.write_text("data.n = 200\nschedule.T = 30\nsampling.n_chains = 2\n"
                       f"models.denoiser = {out / 'denoiser.gmod'}\n")
        assert run(["--config", bad, "--out", tmp_path / "x",
                    "sample"]) == cli.EXIT_MISMATCH


class TestCheckpointKind:
    """A checkpoint of the other kind than its key, of another dimension
    than the data or, for a classifier, of another class count, is a model
    mismatch that names the key and the path, found before --out is made."""

    # the schedule of the experiment presets, at T = 20
    SCHEDULE = "schedule.type = linear_alphabar\nschedule.T = 20\n"

    @staticmethod
    def _checkpoint(tmp_path, kind, dim, n_classes=8):
        base = cli.RunConfig({"schedule.type": "linear_alphabar",
                              "schedule.T": "20"}).base_schedule()
        n_out = dim if kind == "denoiser" else n_classes
        mlp = gm.MLP((dim + 8, 16, n_out), rng=np.random.default_rng(0))
        model = (gm.LearnedDenoiser(mlp, base, dim, 8) if kind == "denoiser"
                 else gm.LearnedClassifier(mlp, base, dim, 8, n_out))
        path = tmp_path / f"{kind}.gmod"
        gm.save_model(model, path)
        return path

    @pytest.mark.parametrize("key, kind, dim", [
        ("models.denoiser", "classifier", 4), ("models.classifier", "denoiser", 4),
        ("models.denoiser", "denoiser", 6), ("models.classifier", "classifier", 6)])
    def test_mismatch_exit_code(self, tmp_path, capsys, key, kind, dim):
        path = self._checkpoint(tmp_path, kind, dim)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"data.n = 20\ndata.dim = 4\n{self.SCHEDULE}sampling.n_chains = 2\n"
                       f"guidance.kind = geoguide\nguidance.s = 1.0\n{key} = {path}\n")
        out = tmp_path / "out"
        assert run(["--config", cfg, "--out", out, "sample"]) == cli.EXIT_MISMATCH
        err = capsys.readouterr().err
        assert err.startswith(f"model/schedule mismatch: {key}: {path} ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_class_count_mismatch_exit_code(self, tmp_path, capsys):
        # a 4-class classifier for the 8-class data: refused before sampling,
        # where the targets 4..7 would be labels the model does not have
        path = self._checkpoint(tmp_path, "classifier", 4, n_classes=4)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"data.n = 20\ndata.dim = 4\n{self.SCHEDULE}sampling.n_chains = 8\n"
                       f"guidance.kind = geoguide\nguidance.s = 1.0\n"
                       f"models.classifier = {path}\n")
        out = tmp_path / "out"
        assert run(["--config", cfg, "--out", out, "sample"]) == cli.EXIT_MISMATCH
        err = capsys.readouterr().err
        assert err == (f"model/schedule mismatch: models.classifier: {path} has 4 classes, "
                       f"the data 8\n")
        assert not out.exists()

    def test_cutoff_grades_with_the_oracle(self, tmp_path):
        # a checkpoint classifier guides the arms; the analytic oracle grades them
        path = self._checkpoint(tmp_path, "classifier", 4)
        text = (f"data.n = 64\ndata.dim = 4\n{self.SCHEDULE}schedule.respace = 10\n"
                f"sampling.n_chains = 16\nmodels.classifier = {path}\n")
        (tmp_path / "cfg.txt").write_text(text)
        out = tmp_path / "out"
        assert run(["--config", tmp_path / "cfg.txt", "--out", out,
                    "experiment", "cutoff"]) in (0, 1)
        _, defaults = cli.RUNNERS["experiment cutoff"]
        env = cli._run_env(cli.RunConfig(dict(defaults,
                                              **cli.parse_config_file(tmp_path / "cfg.txt"))))
        oracle = gm.AnalyticClassifier(env.ds.descriptor, env.base)
        graded = {"oracle": [], "checkpoint": []}
        for kind, s in (("adm_g", cli.TUNED_ADM), ("geoguide", cli.TUNED_GEO)):
            for cut in (1.0, 0.3):
                batch = env.sample(GuidanceRule(kind, s, cutoff_fraction=cut))
                graded["oracle"].append(
                    float(gmet.class_fidelity(batch.samples, batch.targets, oracle)))
                logits = env.clf.mlp.forward(gm._net_input(batch.samples, 0,
                                                           env.clf.t_embed_dim))[0]
                graded["checkpoint"].append(
                    float(np.mean(np.argmax(logits, axis=1) == batch.targets)))
        assert graded["oracle"] != graded["checkpoint"]
        rows = (out / "cutoff.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[3]) for row in rows] == graded["oracle"]


class TestDataWithoutDescriptor:
    """A data.path file saved without a descriptor: checkpoints fit it by its
    points' dimension and its class count, and an analytic model or a
    preset's class-fidelity oracle on it is a config error that names the
    model and the path, found before --out is made."""

    SCHEDULE = "schedule.type = linear_alphabar\nschedule.T = 20\nschedule.respace = 10\n"

    @pytest.fixture()
    def plain(self, tmp_path):
        """(the 300 x 8, 3-class file, the denoiser and the classifier
        checkpoints for it)"""
        path = tmp_path / "plain.glab"
        rng = np.random.default_rng(0)
        gd.save(gd.LabeledDataset(points=rng.standard_normal((300, 8)),
                                  labels=np.arange(300) % 3), path)
        return (path, TestCheckpointKind._checkpoint(tmp_path, "denoiser", 8),
                TestCheckpointKind._checkpoint(tmp_path, "classifier", 8, n_classes=3))

    def _run(self, tmp_path, command, lines):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{self.SCHEDULE}sampling.n_chains = 6\nguidance.kind = geoguide\n"
                       "guidance.s = 1.0\n" + "".join(f"{k} = {v}\n" for k, v in lines.items()))
        return run(["--config", cfg, "--out", tmp_path / "out", *command.split()])

    def test_checkpoints_sample(self, tmp_path, plain):
        data, den, clf = plain
        assert self._run(tmp_path, "sample", {"data.path": data, "models.denoiser": den,
                                              "models.classifier": clf}) == 0
        samples = gd.load(tmp_path / "out" / "samples.glab")
        assert samples.descriptor is None
        assert samples.labels.tolist() == [0, 1, 2, 0, 1, 2]

    def test_class_count_mismatch(self, tmp_path, capsys, plain):
        data, den, _ = plain
        clf = TestCheckpointKind._checkpoint(tmp_path, "classifier", 8, n_classes=8)
        assert self._run(tmp_path, "sample", {"data.path": data, "models.denoiser": den,
                                              "models.classifier": clf}) == cli.EXIT_MISMATCH
        assert capsys.readouterr().err == (
            f"model/schedule mismatch: models.classifier: {clf} has 8 classes, the data 3\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, checkpoints, user", [
        ("sample", "", "models.denoiser"),
        ("sample", "models.denoiser", "models.classifier"),
        ("experiment norm_curves", "", "models.denoiser"),
        ("experiment cutoff", "", "models.denoiser"),
        ("experiment cutoff", "both", "the class-fidelity oracle"),
        ("experiment scale_sweep", "both", "the class-fidelity oracle"),
        ("experiment respace_study", "both", "the class-fidelity oracle"),
    ], ids=["sample", "sample_classifier", "norm_curves", "cutoff", "cutoff_oracle",
            "scale_sweep_oracle", "respace_study_oracle"])
    def test_analytic_refused(self, tmp_path, capsys, plain, command, checkpoints, user):
        data, den, clf = plain
        lines = {"data.path": data}
        if checkpoints:
            lines["models.denoiser"] = den
        if checkpoints == "both":
            lines["models.classifier"] = clf
        assert self._run(tmp_path, command, lines) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: {user} is analytic and needs a gaussian_mixture descriptor, "
            f"but data.path ({data}) carries none\n")
        assert not (tmp_path / "out").exists()


class TestInputFiles:
    """A missing input file or a malformed checkpoint is a precise error with
    its exit code, never a traceback."""

    @pytest.mark.parametrize("key, command", [
        ("data.path", "sample"), ("eval.generated", "eval"),
        ("eval.reference", "eval"), ("models.denoiser", "sample"),
        ("models.classifier", "sample")])
    def test_missing_file_is_config_error(self, tmp_path, capsys, key, command):
        present = tmp_path / "present.glab"
        gd.save(gd.generate(gd.eight_gaussians(dim=4), 20, seed=0), present)
        missing = tmp_path / "nope.glab"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("data.n = 20\ndata.dim = 4\nschedule.T = 20\n"
                       "sampling.n_chains = 2\n"
                       + (f"eval.generated = {present}\n" if command == "eval" else "")
                       + f"{key} = {missing}\n")
        assert run(["--config", cfg, "--out", tmp_path / "out", command]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert key in err and str(missing) in err

    @staticmethod
    def _edit_header(path, edit):
        """Rewrite a checkpoint with ``edit`` applied to its header, CRC kept
        valid."""
        raw = path.read_bytes()
        head_len = int.from_bytes(raw[6:10], "little")
        header = json.loads(raw[10:10 + head_len])
        edit(header)
        head = json.dumps(header).encode()
        body = raw[:6] + len(head).to_bytes(4, "little") + head + raw[10 + head_len:-4]
        path.write_bytes(body + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(4, "little"))

    @staticmethod
    def _sample_with(tmp_path, backend, edit):
        """Exit code of ``sample`` with a classifier checkpoint whose header
        ``edit`` changed.  An "analytic" one is a trained checkpoint tagged
        ``analytic_classifier``, a backend that no longer loads."""
        base = cli.RunConfig({"schedule.T": "20"}).base_schedule()
        model = gm.LearnedClassifier(gm.MLP((12, 16, 8), rng=np.random.default_rng(0)),
                                     base, 4, 8, 8)
        path = tmp_path / "edited.gmod"
        gm.save_model(model, path)
        if backend == "analytic":
            TestInputFiles._edit_header(path, TestInputFiles._set("backend",
                                                                  "analytic_classifier"))
        TestInputFiles._edit_header(path, edit)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("data.n = 20\ndata.dim = 4\nschedule.T = 20\n"
                       f"sampling.n_chains = 2\nmodels.classifier = {path}\n")
        return run(["--config", cfg, "--out", tmp_path / "out", "sample"])

    @staticmethod
    def _set(field, value):
        """An edit that sets a header field to ``value``."""
        def edit(header):
            header[field] = value
        return edit

    def test_analytic_checkpoint_is_unknown_backend(self, tmp_path, capsys):
        assert self._sample_with(tmp_path, "analytic", lambda header: None) == 1
        err = capsys.readouterr().err
        assert "unknown checkpoint backend 'analytic_classifier'" in err

    # the header's fingerprint and backend are read before its backend is known
    @pytest.mark.parametrize("backend, name", [
        ("analytic", "fingerprint"), ("analytic", "backend"),
        ("learned", "fingerprint"), ("learned", "sizes"), ("learned", "dim"),
        ("learned", "t_embed_dim"), ("learned", "n_classes")])
    def test_header_without_field(self, tmp_path, capsys, backend, name):
        assert self._sample_with(tmp_path, backend, lambda header: header.pop(name)) == 1
        err = capsys.readouterr().err
        assert "lacks" in err and repr(name) in err

    @pytest.mark.parametrize("extra", [b"", b"\0" * 16], ids=["short", "long"])
    def test_payload_not_matching_sizes(self, tmp_path, capsys, extra):
        base = cli.RunConfig({"schedule.T": "20"}).base_schedule()
        model = gm.LearnedDenoiser(gm.MLP((12, 16, 4), rng=np.random.default_rng(0)),
                                   base, 4, 8)
        path = tmp_path / "bad.gmod"
        gm.save_model(model, path)
        raw = path.read_bytes()
        # one float64 of the payload cut off, or one float64 too many
        body = raw[:-12] + extra
        path.write_bytes(body + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(4, "little"))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("data.n = 20\ndata.dim = 4\nschedule.T = 20\n"
                       f"sampling.n_chains = 2\nmodels.denoiser = {path}\n")
        assert run(["--config", cfg, "--out", tmp_path / "out", "sample"]) == 1
        assert "payload bytes" in capsys.readouterr().err

    @pytest.mark.parametrize("backend, field, value", [
        ("learned", "backend", 7), ("learned", "backend", ""), ("learned", "sizes", "abc"),
        ("learned", "sizes", [12, -8, 8]), ("learned", "dim", "x"), ("learned", "t_embed_dim", "q"),
        ("learned", "n_classes", True), ("learned", "n_classes", 9)])
    def test_header_field_with_bad_value(self, tmp_path, capsys, backend, field, value):
        assert self._sample_with(tmp_path, backend, self._set(field, value)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "need -" not in err

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_header_field_of_another_json_type(self, tmp_path_factory, data):
        backend, field, original = data.draw(st.sampled_from(HEADER_FIELDS))
        value = data.draw(JSON_VALUES.filter(
            lambda v: _json_type(v) != _json_type(original)))
        code = self._sample_with(tmp_path_factory.mktemp("gmod"), backend,
                                 self._set(field, value))
        assert code == 1


class TestCorruptContainers:
    """A truncated or byte-flipped dataset or checkpoint exits 1 with an
    "error:" line, never a traceback."""

    @staticmethod
    def _containers(tmp_path):
        base = cli.RunConfig({"schedule.T": "20"}).base_schedule()
        glab, gmod = tmp_path / "data.glab", tmp_path / "denoiser.gmod"
        gd.save(gd.generate(gd.eight_gaussians(dim=4), 20, seed=0), glab)
        gm.save_model(gm.LearnedDenoiser(gm.MLP((12, 16, 4), rng=np.random.default_rng(0)),
                                         base, 4, 8), gmod)
        return {"data.path": glab, "models.denoiser": gmod}

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_truncated_or_flipped(self, tmp_path_factory, data):
        tmp_path = tmp_path_factory.mktemp("corrupt")
        key = data.draw(st.sampled_from(["data.path", "models.denoiser"]), label="key")
        path = self._containers(tmp_path)[key]
        raw = bytearray(path.read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            del raw[data.draw(st.integers(0, len(raw) - 1), label="length"):]
        else:
            raw[data.draw(st.integers(0, len(raw) - 1), label="at")] ^= data.draw(
                st.integers(1, 255), label="xor")
        path.write_bytes(raw)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("data.n = 20\ndata.dim = 4\nschedule.T = 20\n"
                       f"sampling.n_chains = 2\n{key} = {path}\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(["--config", cfg, "--out", tmp_path / "out", "sample"])
        assert code == 1 and err.getvalue().startswith("error: "), err.getvalue()


def test_cut_short_checkpoint_is_one_line(tmp_path, capsys):
    # a checkpoint cut 20 bytes short once read as a CRC mismatch
    path = TestCorruptContainers._containers(tmp_path)["models.denoiser"]
    raw = path.read_bytes()
    path.write_bytes(raw[:-20])
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("data.n = 20\ndata.dim = 4\nschedule.T = 20\n"
                   f"sampling.n_chains = 2\nmodels.denoiser = {path}\n")
    assert run(["--config", cfg, "--out", tmp_path / "out", "sample"]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: expected {len(raw)} bytes, got {len(raw) - 20}\n")


# Every header field of a classifier checkpoint of each backend (D = 4, 8
# classes, T = 20), and each field of the analytic descriptor, with a value
# of its type.
HEADER_FIELDS = [
    ("analytic", "fingerprint", "f"), ("analytic", "backend", "b"), ("analytic", "dim", 4),
    ("learned", "fingerprint", "f"), ("learned", "backend", "b"), ("learned", "dim", 4),
    ("learned", "sizes", []), ("learned", "t_embed_dim", 8), ("learned", "n_classes", 8)]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**40, 2**40)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


def _json_type(value):
    """The JSON type of a decoded JSON value."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    return {int: "number", float: "number", str: "string", list: "array",
            dict: "object"}[type(value)]


def nan_like(model, x, *args):
    """Stands in for a model method that returns NaN."""
    return np.full(np.shape(x), np.nan)


class TestNumericalErrors:
    """Non-finite values exit with EXIT_NUMERICAL, not as a mismatch or a
    traceback."""

    def test_non_finite_sampler_state(self, tmp_path, small_cfg, monkeypatch, capsys):
        monkeypatch.setattr(gm.AnalyticDenoiser, "predict_eps", nan_like)
        assert run(["--config", small_cfg, "--out", tmp_path, "sample"]) == cli.EXIT_NUMERICAL
        assert "non-finite state" in capsys.readouterr().err

    def test_non_finite_state_names_the_rule(self, tmp_path, monkeypatch, capsys):
        # the cutoff preset runs its four rules in one call; chain 3 turns
        # non-finite under the geoguide rules only
        step = gsam.guided_reverse_step

        def nan_under_geoguide(mu, gamma_t, a_t, s, **kwargs):
            x = step(mu, gamma_t, a_t, s, **kwargs)
            if s == cli.TUNED_GEO:
                x[3] = np.nan
            return x

        monkeypatch.setattr(gsam, "guided_reverse_step", nan_under_geoguide)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("data.n = 400\nschedule.respace = 10\nsampling.n_chains = 8\n")
        assert run(["--config", cfg, "--out", tmp_path, "experiment",
                    "cutoff"]) == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert ("non-finite state at step 0 (t=1000) in chain 3 under rule geoguide "
                "(s=2.5, cutoff=1.0)") in err

    def test_non_finite_state_after_the_split_names_the_cut_rule(self, tmp_path, monkeypatch,
                                                                 capsys):
        # chain 3 turns non-finite only in an unguided step: after the split,
        # the cut rules each take theirs alone, adm_g's first in tuple order
        step = gsam.guided_reverse_step

        def nan_when_unguided(mu, gamma_t, a_t, s, **kwargs):
            x = step(mu, gamma_t, a_t, s, **kwargs)
            if not np.any(a_t):
                x[3] = np.nan
            return x

        monkeypatch.setattr(gsam, "guided_reverse_step", nan_when_unguided)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("data.n = 400\nschedule.respace = 10\nsampling.n_chains = 8\n")
        assert run(["--config", cfg, "--out", tmp_path, "experiment",
                    "cutoff"]) == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        split = int(GuidanceRule("adm_g", 1.0, cutoff_fraction=0.3).active(
            np.arange(10), 10).sum())
        assert f"non-finite state at step {split} (t=" in err
        assert "in chain 3 under rule adm_g (s=1.0, cutoff=0.3)" in err

    def test_non_finite_guidance_gradient(self, tmp_path, small_cfg, monkeypatch, capsys):
        monkeypatch.setattr(gm.AnalyticClassifier, "class_grad_direction", nan_like)
        assert run(["--config", small_cfg, "--out", tmp_path, "sample"]) == cli.EXIT_NUMERICAL
        assert "non-finite classifier gradient" in capsys.readouterr().err

    @staticmethod
    def _gradient_error(tmp_path, monkeypatch, capsys, n_chains):
        """stderr of a geoguide `sample` whose classifier direction turns
        NaN from row 5 on, in blocks shorter than BLOCK only."""
        direction = gm.AnalyticClassifier.class_grad_direction

        def nan_from_row_5(model, x, t, y):
            out = direction(model, x, t, y)
            if len(out) < gsam.BLOCK:
                out[5:] = np.nan
            return out

        monkeypatch.setattr(gm.AnalyticClassifier, "class_grad_direction", nan_from_row_5)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("data.n = 400\nschedule.T = 50\nschedule.respace = 10\n"
                       f"sampling.n_chains = {n_chains}\nguidance.kind = geoguide\n"
                       "guidance.s = 1.0\n")
        assert run(["--config", cfg, "--out", tmp_path, "sample"]) == cli.EXIT_NUMERICAL
        return capsys.readouterr().err

    def test_non_finite_guidance_gradient_names_one_row(self, tmp_path, monkeypatch, capsys):
        # 64 chains' labels would fill several lines; the first bad chain is named
        assert self._gradient_error(tmp_path, monkeypatch, capsys, 64) == (
            "numerical error: non-finite classifier gradient at t=50 in chain 5 (class 5)\n")

    def test_non_finite_guidance_gradient_names_the_chain(self, tmp_path, monkeypatch,
                                                          capsys):
        # row 5 of the second block is chain 261 of the run, not "row 5"
        assert self._gradient_error(tmp_path, monkeypatch, capsys, 300) == (
            "numerical error: non-finite classifier gradient at t=50 in chain 261 "
            "(class 5)\n")

    @pytest.mark.parametrize("kind, scale, message", [
        ("adm_g", "1e308", "numerical error: non-finite classifier gradient at t=19 "
                           "in chain 0 (class 0)\n"),
        ("geoguide", "1e300", "numerical error: non-finite classifier gradient at t=19 "
                              "in chain 0 (class 0)\n"),
    ], ids=["adm_g", "geoguide"])
    def test_real_overflow_is_one_line(self, tmp_path, capsys, kind, scale, message):
        # a scale this large overflows the models' own arithmetic: the
        # sampler's finiteness checks report it, with no numpy warning first
        # (a warning is an error under this suite's filterwarnings).  Under
        # geoguide the first step leaves states near 1e300, whose log-joint
        # is -inf: the direction there is not finite, as adm_g's gradient
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"schedule.T = 20\nsampling.n_chains = 3\nguidance.kind = {kind}\n"
                       f"guidance.s = {scale}\n")
        assert run(["--config", cfg, "--out", tmp_path / "out", "sample"]) == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err == message

    def test_non_finite_training_loss(self, tmp_path, monkeypatch, capsys):
        forward = gm.MLP.forward

        def nan_forward(mlp, h):
            out, cache = forward(mlp, h)
            return np.full_like(out, np.nan), cache

        monkeypatch.setattr(gm.MLP, "forward", nan_forward)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("data.n = 200\nschedule.T = 20\ntrain.epochs = 1\n")
        assert run(["--config", cfg, "--out", tmp_path, "train-denoiser"]) == cli.EXIT_NUMERICAL
        assert "non-finite loss" in capsys.readouterr().err

    @pytest.mark.parametrize("lr", ["0.1", "1", "1e6"])
    def test_diverging_training(self, tmp_path, capsys, lr):
        # the loss stays finite as it grows (3 epochs end at 5.5e4, 2.4e13
        # and 3.3e61 against 2.85 for the first); an overflow warning on the
        # way would fail this test under the suite's filterwarnings
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("data.n = 200\ndata.dim = 4\nschedule.T = 20\ntrain.epochs = 3\n"
                       f"train.lr = {lr}\n")
        out = tmp_path / "out"
        assert run(["--config", cfg, "--out", out, "train-denoiser"]) == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical error: training diverged: last epoch's loss ")
        assert err.count("\n") == 1
        assert not list(out.glob("*.gmod"))


class TestExperimentPresets:
    def test_cutoff_preset_equals_single_rule_runs(self, tmp_path):
        # 300 chains cross a block boundary; the preset's one four-rule call
        # gives the table of four one-rule calls, at any --threads
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("sampling.n_chains = 300\n")
        manifests = []
        for threads in (1, 2):
            out = tmp_path / f"t{threads}"
            assert run(["--config", cfg, "--out", out, "--threads", threads,
                        "experiment", "cutoff"]) == 0
            manifests.append((out / "manifest.txt").read_bytes())
        assert manifests[0] == manifests[1]
        _, defaults = cli.RUNNERS["experiment cutoff"]
        env = cli._run_env(cli.RunConfig(dict(defaults, **{"sampling.n_chains": "300"})))
        lines = ["rule,s,cutoff_fraction,class_fidelity"]
        for kind, s in (("adm_g", cli.TUNED_ADM), ("geoguide", cli.TUNED_GEO)):
            for cut in (1.0, 0.3):
                batch = env.sample(GuidanceRule(kind, s, cutoff_fraction=cut))
                f = gmet.class_fidelity(batch.samples, batch.targets, env.clf)
                lines.append(f"{kind},{s!r},{cut!r},{float(f)!r}")
        assert (tmp_path / "t1" / "cutoff.csv").read_text() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("scale", [None, "0"])
    def test_respace_study_manifest_echoes_scale(self, tmp_path, monkeypatch, scale):
        # the preset's default scale is 2.0, and a configured 0 stays 0
        used = set()
        sample = gsam.sample

        def recording(den, clf, rules, *args, **kwargs):
            used.update(rule.scale for rule in rules)
            return sample(den, clf, rules, *args, **kwargs)

        monkeypatch.setattr(gsam, "sample", recording)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("data.n = 400\nsampling.n_chains = 8\n"
                       + (f"guidance.s = {scale}\n" if scale else ""))
        assert run(["--config", cfg, "--out", tmp_path, "experiment",
                    "respace_study"]) in (0, 1)
        manifest = (tmp_path / "manifest.txt").read_text().splitlines()
        echoed = [line for line in manifest if line.startswith("guidance.s = ")]
        assert echoed == [f"guidance.s = {scale or '2.0'}"]
        assert used == {float(scale or 2.0)}

    def test_distance_law_preset(self, tmp_path):
        out = tmp_path / "dl"
        assert run(["--out", out, "experiment", "distance_law"]) == 0
        summary = (out / "summary.txt").read_text()
        assert "[PASS]" in summary
        assert (out / "distance_law.csv").exists()
        assert (out / "distance_law.svg").read_text().startswith("<svg")

    def test_norm_curves_preset_small(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("sampling.n_chains = 8\nschedule.respace = 25\n")
        out = tmp_path / "nc"
        assert run(["--config", cfg, "--out", out, "experiment",
                    "norm_curves"]) == 0
        summary = (out / "summary.txt").read_text()
        assert summary.count("[PASS]") == 3
        assert (out / "norms_geoguide.csv").exists()
        assert (out / "norms_adm_g.csv").exists()
