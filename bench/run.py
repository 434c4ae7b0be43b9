"""guidelab benchmark: three CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload sample_trace --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --workload all

Each command of a workload is a real ``guidelab`` CLI invocation in a fresh
interpreter (``bench/child.py``), started one at a time from this
single-threaded runner.  With ``--trace 0`` the run reports the end-to-end
metrics (``wall_s``, ``cpu_s``, ``peak_rss_mb``, ``setup_s``) of the chosen
workload; with ``--trace 1`` it reports the per-layer metrics of every
workload (``LAYER_METRICS``), whichever workload is named.  Every
command's outputs are checked (``bench/checks.py``); a command that exits
non-zero or fails a check counts as failed.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See bench/README.md for the metric definitions.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"

WORKLOADS = ("sample_trace", "guide_cutoff", "eval_knn")
SETUP_PROBES = 2        # set-up-only children per run, after one warm-up
RUN_LIMIT = 165.0       # seconds per run; a child still running then is killed
TRACE_LIMIT = RUN_LIMIT / 3  # seconds per workload of a traced run, which traces all three
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
THREADS_N = max(2, NPROC)

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer metrics of each workload (bench/spans.py).  Only the layers a
# workload reaches are listed: a layer it never calls would read 0 on every
# run.  The self.<layer>_s listed for a workload, plus trace.remainder_s, add
# up to its trace.wall_s; a traced run stops with an error if they do not, if
# an unlisted layer has self time, or if a listed time reads 0.
_TRACE = ("trace.wall_s", "trace.remainder_s", "trace.overhead_ratio")
LAYER_METRICS = {
    "sample_trace": (
        "models.predict_eps_s", "models.class_grad_direction_s", "models.mu_from_eps_s",
        "models.rows", "guidance.adjustment_s", "guidance.reverse_step_s", "guidance.calls",
        "forward.noise_draw_s", "forward.noise_values", "sampler.sample_s", "sampler.self_s",
        "sampler.chain_steps", "sampler.trace_distance_s", "sampler.distance_evals",
        "sampler.export_csv_s", "sampler.csv_rows", "data.generate_s", "data.save_s",
        "data.bytes", "schedule.build_s", "cli.write_manifest_s", "cli.bytes_hashed",
        "self.cli_s", "self.data_s", "self.schedule_s", "self.forward_s", "self.models_s",
        "self.guidance_s", "self.sampler_s") + _TRACE,
    "guide_cutoff": (
        "models.predict_eps_s", "models.class_grad_s", "models.class_grad_direction_s",
        "models.mu_from_eps_s", "models.class_logprobs_s", "models.rows",
        "models.peak_alloc_mb", "guidance.adjustment_s", "guidance.reverse_step_s",
        "guidance.calls", "guidance.active_ratio", "guidance.vanished_rows",
        "forward.noise_draw_s", "forward.noise_values", "sampler.sample_s", "sampler.self_s",
        "sampler.chain_steps", "sampler.threads_speedup", "metrics.class_fidelity_s",
        "data.generate_s", "schedule.build_s", "cli.write_manifest_s", "svgplot.write_s",
        "self.cli_s", "self.data_s", "self.schedule_s", "self.forward_s", "self.models_s",
        "self.guidance_s", "self.sampler_s", "self.metrics_s", "self.svgplot_s") + _TRACE,
    "eval_knn": (
        "metrics.knn_s", "metrics.knn_pairs", "metrics.knn_peak_alloc_mb",
        "metrics.frechet_s", "metrics.class_fidelity_s", "models.class_logprobs_s",
        "models.rows", "models.peak_alloc_mb", "data.generate_s", "data.load_s",
        "data.bytes", "schedule.build_s", "cli.write_manifest_s", "cli.bytes_hashed",
        "self.cli_s", "self.data_s", "self.schedule_s", "self.models_s",
        "self.metrics_s") + _TRACE,
}

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import spans  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (not a failed command)."""


def command_spec(workload, seed, threads):
    """Input files, input-preparing commands and the timed CLI argv of one
    command, with paths relative to the command's own directory."""
    files, prepare = {}, []
    if workload == "sample_trace":
        files["in/sample.cfg"] = "guidance.kind = geoguide\nguidance.s = 2.5\n"
        argv = ["--config", "in/sample.cfg", "--out", "out", "--seed", str(seed),
                "--threads", str(threads), "sample"]
    elif workload == "guide_cutoff":
        argv = ["--out", "out", "--seed", str(seed), "--threads", str(threads),
                "experiment", "cutoff"]
    elif workload == "eval_knn":
        # the generated cloud: a fresh draw with a data seed distinct from the
        # reference's (data.seed = 1), so eval does not depend on the sampler
        files["in/generate.cfg"] = (f"data.n = {checks.EVAL_GENERATED}\n"
                                    f"data.seed = {1000 + seed}\n")
        files["in/eval.cfg"] = "eval.generated = in/dataset.glab\n"
        prepare.append(["--config", "in/generate.cfg", "--out", "in", "gen-data"])
        argv = ["--config", "in/eval.cfg", "--out", "out", "--threads", str(threads), "eval"]
    else:
        raise BenchError(f"unknown workload {workload!r}")
    return {"files": files, "prepare": prepare, "argv": argv}


class Run:
    """The commands of one workload run, their checks and failure counts."""

    def __init__(self, workload, seed, workdir, deadline, reference=None):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.first_manifest = None
        self.first_summary = None
        self.oracle = None
        self._n = 0

    def _child(self, spec):
        self._n += 1
        rep = self.workdir / f"cmd{self._n:03d}"
        (rep / "in").mkdir(parents=True)
        spec = dict(spec, result="result.json")
        (rep / "spec.json").write_text(json.dumps(spec))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        with open(rep / "stdout.log", "w") as out, open(rep / "stderr.log", "w") as err:
            t_spawn = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), "spec.json"],
                                    cwd=rep, stdout=out, stderr=err, env=env)
            try:
                proc.wait(timeout=max(self.deadline - t_spawn, 0.1))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                return rep, {"error": "killed at the run's time limit"}, t_spawn
        try:
            result = json.loads((rep / "result.json").read_text())
        except (OSError, ValueError):
            result = {"error": f"child exited {proc.returncode} without a result"}
        return rep, result, t_spawn

    def probe(self):
        """Set-up only: interpreter start, import guidelab, write inputs."""
        spec = dict(command_spec(self.workload, self.seed, 1), argv=None, trace=None)
        rep, result, t_spawn = self._child(spec)
        if "error" in result:
            raise BenchError(f"set-up failed: {result['error']}\n"
                             + (rep / "stderr.log").read_text()[-2000:])
        shutil.rmtree(rep)
        return result["t_inputs"] - t_spawn

    def command(self, threads=1, trace=None):
        """Run, time and check one CLI command; count it as attempted."""
        spec = dict(command_spec(self.workload, self.seed, threads), trace=trace)
        rep, result, t_spawn = self._child(spec)
        self.attempted += 1
        errors = []
        if "error" in result:
            errors.append(result["error"])
        else:
            result["setup_s"] = result["t_cmd"] - t_spawn
            result["wall_s"] = result["t_end"] - result["t_cmd"]
            errors += self._check(rep, result["exit_code"], threads)
        result["peak_rss_mb"] = result.get("peak_rss_kib", 0) / 1024.0
        result["errors"] = errors
        if errors:
            self.failed += 1
            print(f"FAILED {self.workload} command {self._n} (threads {threads}, "
                  f"trace {trace}):", *errors, sep="\n  ", file=sys.stderr)
            print((rep / "stderr.log").read_text()[-2000:], file=sys.stderr)
        shutil.rmtree(rep)
        return result

    def _check(self, rep, exit_code, threads):
        out = rep / "out"
        if exit_code != 0 and self.workload != "guide_cutoff":
            return [f"exit code {exit_code}"]
        try:
            manifest = (out / "manifest.txt").read_text()
            summary, errors = checks.check(self.workload, out, exit_code)
            if self.workload == "eval_knn" and summary:
                if self.oracle is None:
                    self.oracle = checks.eval_oracle(rep / "in" / "dataset.glab")
                errors += checks.compare_eval(summary, self.oracle, "oracle")
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"unreadable outputs: {exc!r}"]
        if self.first_manifest is None:
            self.first_manifest = manifest
            self.first_summary = summary
            if self.reference is not None:
                errors += checks.compare(self.workload, summary, self.reference)
        elif manifest != self.first_manifest:
            errors.append(f"manifest at --threads {threads} differs from the first "
                          "command's (outputs are not reproducible)")
        return errors


def new_run(workload, seed, deadline):
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    recorded = load_reference().get(workload, {}).get(str(seed))
    if recorded is None:
        print(f"{workload}: no values recorded for seed {seed}; "
              "invariant and oracle checks only")
    return Run(workload, seed, workdir, deadline, recorded)


def end_to_end(workload, seed, seconds, deadline):
    """Repeat the workload's command for ``seconds``; medians per metric."""
    run = new_run(workload, seed, deadline)
    run.probe()  # warm-up: byte-compile, fill the page cache
    setups = [run.probe() for _ in range(SETUP_PROBES)]
    results = []
    t0 = time.perf_counter()
    while True:
        results.append(run.command())
        now = time.perf_counter()
        per_command = (now - t0) / len(results)
        if now - t0 + per_command > seconds:
            break
    timed = [r for r in results if "wall_s" in r]
    if not timed:
        raise BenchError(f"{workload}: no command produced a timing")
    setups += [r["setup_s"] for r in timed]
    values = {"wall_s": [r["wall_s"] for r in timed],
              "cpu_s": [r["cpu_s"] for r in timed],
              "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
              "setup_s": setups}
    metrics = {k: {"value": statistics.median(v), "unit": END_TO_END_UNITS[k]}
               for k, v in values.items()}
    return run, metrics, values


def per_layer(seed):
    """Trace every workload, each within its own TRACE_LIMIT; metrics of
    LAYER_METRICS."""
    runs, metrics = [], {}
    for workload in WORKLOADS:
        t0 = time.perf_counter()
        run = new_run(workload, seed, t0 + TRACE_LIMIT)
        runs.append(run)
        layer = trace_workload(run)
        print(f"{workload}: traced in {time.perf_counter() - t0:.1f} s")
        for name in LAYER_METRICS[workload]:
            if name not in layer:
                raise BenchError(f"{workload}: no value for {name}")
            if name.endswith("_s") and not name.startswith("trace.") and layer[name] <= 0:
                raise BenchError(f"{workload}: {name} is 0, so the workload no longer "
                                 "reaches that layer; LAYER_METRICS is stale")
            metrics[f"{workload}.{name}"] = {"value": layer[name], "unit": layer_unit(name)}
    return runs, metrics


def trace_workload(run):
    """A baseline command that wraps ``sampler.sample`` alone, the threaded
    command (sampler workloads), one fully traced command and one
    allocation-traced command (not sample_trace); their per-layer metrics."""
    workload = run.workload
    if workload == "sample_trace":
        run.probe()  # warm-up
    base = run.command(trace="sample_only")
    threaded = None
    if workload != "eval_knn":
        # thread invariance (same manifest) and the threaded leg of threads_speedup
        threaded = run.command(threads=THREADS_N, trace="sample_only")
    traced = run.command(trace="full")
    for name, result in (("baseline", base), ("threaded", threaded), ("traced", traced)):
        if result is not None and ("trace" not in result or "wall_s" not in result):
            raise BenchError(f"{workload}: the {name} command produced no trace")
    layer = spans.summarize(traced["trace"], traced["wall_s"])
    listed = {n for n in LAYER_METRICS[workload] if n.startswith("self.")}
    stray = sorted(k for k, v in layer.items()
                   if k.startswith("self.") and k not in listed and v > 0)
    if stray:
        raise BenchError(f"{workload}: {', '.join(stray)} not in LAYER_METRICS but "
                         "the traced command spent time there")
    covered = sum(layer[n] for n in listed)
    if abs(covered + layer["trace.remainder_s"] - layer["trace.wall_s"]) > 1e-6:
        raise BenchError(f"{workload}: the listed self times and trace.remainder_s do "
                         "not add up to the traced wall time")
    layer["trace.overhead_ratio"] = traced["wall_s"] / base["wall_s"]
    if threaded is not None:
        layer["sampler.threads_speedup"] = (spans.sample_seconds(base["trace"])
                                            / spans.sample_seconds(threaded["trace"]))
    if workload != "sample_trace":
        alloc = run.command(trace="alloc")
        if "trace" not in alloc:
            raise BenchError(f"{workload}: the allocation-traced command produced no trace")
        peaks = alloc["trace"]["peak_alloc"]
        model_peaks = [v for k, v in peaks.items() if k.startswith("models.")]
        if model_peaks:
            layer["models.peak_alloc_mb"] = max(model_peaks) / spans.MB
        if "metrics.knn_precision_recall" in peaks:
            layer["metrics.knn_peak_alloc_mb"] = peaks["metrics.knn_precision_recall"] / spans.MB
    (run.workdir / "spans.json").write_text(json.dumps(traced["trace"]))
    return layer


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_speedup")):
        return "ratio"
    if name.endswith(("bytes", "bytes_hashed")):
        return "bytes"
    return "count"


def machine_facts():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {"nproc": NPROC, "cpu_count": os.cpu_count(),
             "python": platform.python_version(), "numpy": numpy.__version__,
             "scipy": scipy.__version__, "blas": blas.get("name"),
             "blas_version": blas.get("version"), "blas_threads": _blas_threads(),
             "machine": platform.machine(), "git_sha": _git_sha(),
             "src_sha256": _src_digest()}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if var in os.environ:
            facts[var] = os.environ[var]
    return facts


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "guidelab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def load_reference():
    try:
        return json.loads(REFERENCE.read_text())["values"]
    except FileNotFoundError:
        return {}


def report(runs, metrics, values, started):
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print(f"{', '.join(r.workload for r in runs)}: seed {runs[0].seed}, "
          f"{attempted} commands, {failed} failed, {time.perf_counter() - started:.1f} s")
    for name, m in metrics.items():
        samples = values.get(name, [])
        spread = (f"  (median of {len(samples)}, min {min(samples):.6g}, "
                  f"max {max(samples):.6g})") if len(samples) > 1 else ""
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}{spread}")
    for r in runs:
        name = f"{r.workload}.fail_ratio" if len(runs) > 1 else "fail_ratio"
        print(f"  {name:<44} {r.failed / r.attempted:>14.6g} ratio  "
              f"({r.failed}/{r.attempted})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "guidelab" / "cli.py").is_file():
        print(f"bench: no guidelab sources under {SRC}; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    facts = machine_facts()
    print("machine " + json.dumps(facts))
    started = time.perf_counter()
    runs, metrics, values = [], {}, {}
    try:
        if args.trace:
            runs, metrics = per_layer(args.seed)
        else:
            names = WORKLOADS if args.workload == "all" else (args.workload,)
            for name in names:
                run, m, v = end_to_end(name, args.seed, args.seconds,
                                       time.perf_counter() + RUN_LIMIT)
                prefix = f"{name}." if args.workload == "all" else ""
                runs.append(run)
                metrics.update({prefix + k: x for k, x in m.items()})
                values.update({prefix + k: x for k, x in v.items()})
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    report(runs, metrics, values, started)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    (WORK / "result.json").write_text(json.dumps(
        {"args": vars(args), "machine": facts, "metrics": metrics, "samples": values,
         "attempted": attempted, "failed": failed}, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
