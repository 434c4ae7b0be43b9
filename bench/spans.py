"""Span recorder for the traced benchmark runs.

The recorder wraps public functions and methods of the ``guidelab`` modules
from outside the package: the library itself carries no timers.  Every
wrapped call becomes one span ``[name, start, end, parent]`` (``parent`` is
the index of the enclosing span, -1 for a root), and the counters are updated
at the same call boundary.  Spans stay in memory; the child process writes
them out once its command has finished, and ``summarize`` derives the
per-layer metrics from them.

Traced runs are single-threaded (``--threads 1``), so one span stack per
recorder is enough.  The ``sample_only`` mode wraps ``sampler.sample`` alone,
which is always entered from the main thread; it is the only mode used at
more than one thread.
"""

import functools
import inspect
import os
import sys
import time
import tracemalloc

import numpy as np

MODULES = ("cli", "data", "schedule", "forward", "models", "guidance",
           "sampler", "metrics", "svgplot")
MB = float(1 << 20)


class SpanRecorder:
    """Spans and counters of one traced command, held in memory.

    With ``track_alloc`` set, spans marked ``alloc`` run under tracemalloc and
    record the peak traced allocation of each outermost such call.
    """

    def __init__(self, track_alloc=False):
        self.spans = []
        self.counts = {}
        self.peak_alloc = {}
        self.track_alloc = track_alloc
        self._stack = []

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name, fn, count=None, alloc=False):
        signature = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            own_trace = alloc and self.track_alloc and not tracemalloc.is_tracing()
            if own_trace:
                tracemalloc.start()
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[1], span[2] = start, time.perf_counter()
                self._stack.pop()
                if own_trace:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_alloc[name] = max(self.peak_alloc.get(name, 0), peak)
            if count is not None:
                count(self, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def dump(self):
        return {"spans": self.spans, "counts": self.counts,
                "peak_alloc": self.peak_alloc}


# -- counters, each called as count(recorder, bound arguments, result) ------

def _rows(rec, a, result):
    rec.add("models.rows", len(np.atleast_2d(a["x"])))


def _adjustment(rec, a, result):
    rec.add("guidance.calls", 1)
    nonzero_rows = np.any(np.atleast_2d(result) != 0, axis=1)
    if nonzero_rows.any():
        rec.add("guidance.active_calls", 1)
    rule = a["rule"]
    if rule.kind != "none" and a["step_index"] < rule.cutoff_fraction * a["total_steps"]:
        rec.add("guidance.vanished_rows", int(np.count_nonzero(~nonzero_rows)))


def _chain_steps(rec, a, result):
    rec.add("sampler.chain_steps", int(a["n_chains"]) * a["schedule"].T)


def _distance_evals(rec, a, result):
    rec.add("sampler.distance_evals",
            len(a["trajectory"].stored_ts) * len(a["dataset"].points))


def _csv_rows(rec, a, result):
    rec.add("sampler.csv_rows", sum(len(log.ts) for log in a["batch"].logs))


def _knn_pairs(rec, a, result):
    g, r = len(a["generated"]), len(a["reference"])
    rec.add("metrics.knn_pairs", g * r + g * g + r * r)


def _file_bytes(rec, a, result):
    rec.add("data.bytes", os.path.getsize(a["path"]))


def _bytes_hashed(rec, a, result):
    rec.add("cli.bytes_hashed", sum(os.path.getsize(f) for f in a["files"]))


# (module, attribute, span name, counter, tracemalloc peak)
FUNCTIONS = (
    ("cli", "main", "cli.main", None, False),
    ("cli", "write_manifest", "cli.write_manifest", _bytes_hashed, False),
    ("data", "generate", "data.generate", None, False),
    ("data", "save", "data.save", _file_bytes, False),
    ("data", "load", "data.load", _file_bytes, False),
    ("schedule", "build_linear_beta", "schedule.build_linear_beta", None, False),
    ("schedule", "build_linear_alphabar", "schedule.build_linear_alphabar", None, False),
    ("schedule", "respace", "schedule.respace", None, False),
    ("models", "mu_from_eps", "models.mu_from_eps", None, False),
    ("guidance", "adjustment", "guidance.adjustment", _adjustment, False),
    ("guidance", "guided_reverse_step", "guidance.guided_reverse_step", None, False),
    ("sampler", "sample", "sampler.sample", _chain_steps, False),
    ("sampler", "trace_manifold_distance", "sampler.trace_manifold_distance",
     _distance_evals, False),
    ("sampler", "export_trajectories_csv", "sampler.export_trajectories_csv",
     _csv_rows, False),
    ("metrics", "knn_precision_recall", "metrics.knn_precision_recall", _knn_pairs, True),
    ("metrics", "frechet_distance", "metrics.frechet_distance", None, False),
    ("metrics", "class_fidelity", "metrics.class_fidelity", None, False),
    ("metrics", "write_metrics_csv", "metrics.write_metrics_csv", None, False),
)

# (module, class, method, span name, counter, tracemalloc peak); the
# workloads use the analytic backends only
METHODS = (
    ("models", "AnalyticDenoiser", "predict_eps", "models.predict_eps", _rows, True),
    ("models", "AnalyticClassifier", "class_grad", "models.class_grad", _rows, True),
    ("models", "AnalyticClassifier", "class_grad_direction",
     "models.class_grad_direction", _rows, True),
    ("models", "AnalyticClassifier", "class_logprobs", "models.class_logprobs", _rows, True),
    ("svgplot", "LinePlot", "write", "svgplot.write", None, False),
)


class _TimedGenerator:
    """Stands in for the sampler's noise generator; draws go through a
    wrapped function so that they become ``forward.standard_normal`` spans."""

    def __init__(self, draw, generator):
        self._draw = draw
        self._generator = generator

    def standard_normal(self, *args, **kwargs):
        return self._draw(self._generator, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._generator, name)


def _standard_normal(generator, *args, **kwargs):
    return generator.standard_normal(*args, **kwargs)


def _noise_values(rec, a, result):
    rec.add("forward.noise_values", int(np.size(result)))


def _replace_everywhere(original, wrapped):
    """Point every guidelab module attribute bound to ``original`` at
    ``wrapped`` (modules import functions by name from each other)."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "guidelab" or mod_name.startswith("guidelab."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)


def install(mode):
    """Wrap the guidelab public functions for one traced command.

    ``full`` wraps everything in FUNCTIONS and METHODS plus the sampler's
    noise streams; ``alloc`` does the same with tracemalloc peaks;
    ``sample_only`` wraps ``sampler.sample`` alone.
    """
    import guidelab.cli  # noqa: F401  (loads every module that gets wrapped)
    modules = {name: sys.modules[f"guidelab.{name}"] for name in MODULES}
    recorder = SpanRecorder(track_alloc=(mode == "alloc"))
    if mode == "sample_only":
        original = modules["sampler"].sample
        _replace_everywhere(original, recorder.wrap("sampler.sample", original))
        return recorder
    for module, attr, name, count, alloc in FUNCTIONS:
        original = getattr(modules[module], attr)
        _replace_everywhere(original, recorder.wrap(name, original, count, alloc))
    for module, cls_name, method, name, count, alloc in METHODS:
        cls = getattr(modules[module], cls_name)
        setattr(cls, method, recorder.wrap(name, cls.__dict__[method], count, alloc))
    # only the sampler's noise streams are forward-process draws
    sampler = modules["sampler"]
    stream = recorder.wrap("forward.rng_stream", sampler.rng_stream)
    draw = recorder.wrap("forward.standard_normal", _standard_normal, count=_noise_values)
    sampler.rng_stream = lambda *key: _TimedGenerator(draw, stream(*key))
    return recorder


# -- derived metrics ---------------------------------------------------------

def _self_times(spans):
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [end - start - child_time[i] for i, (_, start, end, _) in enumerate(spans)]


def summarize(dump, wall_s):
    """Per-layer metrics of one full traced command (the allocation peaks
    come from a separate ``alloc`` command).

    ``self.<module>_s`` partitions the traced command: those self times plus
    ``trace.remainder_s`` (time outside every span) equal ``trace.wall_s``.
    """
    spans, counts = dump["spans"], dump["counts"]
    self_s = _self_times(spans)

    def total(*names):
        # outermost spans of the named set, so nested calls count once
        chosen = [i for i, s in enumerate(spans) if s[0] in names]
        inside = set(chosen)
        return sum(spans[i][2] - spans[i][1] for i in chosen
                   if spans[i][3] not in inside)

    def own(name):
        return sum(t for t, s in zip(self_s, spans) if s[0] == name)

    calls = counts.get("guidance.calls", 0)
    out = {
        "models.predict_eps_s": total("models.predict_eps"),
        "models.class_grad_s": total("models.class_grad"),
        "models.class_grad_direction_s": total("models.class_grad_direction"),
        "models.mu_from_eps_s": total("models.mu_from_eps"),
        "models.class_logprobs_s": total("models.class_logprobs"),
        "models.rows": counts.get("models.rows", 0),
        "guidance.adjustment_s": own("guidance.adjustment"),
        "guidance.reverse_step_s": total("guidance.guided_reverse_step"),
        "guidance.calls": calls,
        "guidance.active_ratio": counts.get("guidance.active_calls", 0) / calls if calls else 0.0,
        "guidance.vanished_rows": counts.get("guidance.vanished_rows", 0),
        "forward.noise_draw_s": total("forward.rng_stream", "forward.standard_normal"),
        "forward.noise_values": counts.get("forward.noise_values", 0),
        "sampler.sample_s": total("sampler.sample"),
        "sampler.self_s": own("sampler.sample"),
        "sampler.chain_steps": counts.get("sampler.chain_steps", 0),
        "sampler.trace_distance_s": total("sampler.trace_manifold_distance"),
        "sampler.distance_evals": counts.get("sampler.distance_evals", 0),
        "sampler.export_csv_s": own("sampler.export_trajectories_csv"),
        "sampler.csv_rows": counts.get("sampler.csv_rows", 0),
        "metrics.knn_s": total("metrics.knn_precision_recall"),
        "metrics.knn_pairs": counts.get("metrics.knn_pairs", 0),
        "metrics.frechet_s": total("metrics.frechet_distance"),
        "metrics.class_fidelity_s": total("metrics.class_fidelity"),
        "data.generate_s": total("data.generate"),
        "data.save_s": total("data.save"),
        "data.load_s": total("data.load"),
        "data.bytes": counts.get("data.bytes", 0),
        "schedule.build_s": total("schedule.build_linear_beta",
                                  "schedule.build_linear_alphabar", "schedule.respace"),
        "cli.write_manifest_s": total("cli.write_manifest"),
        "cli.bytes_hashed": counts.get("cli.bytes_hashed", 0),
        "svgplot.write_s": total("svgplot.write"),
    }
    for module in MODULES:
        out[f"self.{module}_s"] = sum(t for t, s in zip(self_s, spans)
                                      if s[0].split(".", 1)[0] == module)
    roots = sum(end - start for _, start, end, parent in spans if parent < 0)
    out["trace.wall_s"] = wall_s
    out["trace.remainder_s"] = wall_s - roots
    return out


def sample_seconds(dump):
    """Total ``sampler.sample`` time of a ``sample_only`` traced command."""
    return sum(end - start for name, start, end, _ in dump["spans"]
               if name == "sampler.sample")
