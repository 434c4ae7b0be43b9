"""The names that bench/spans.py binds stay in the package.

The recorder wraps functions and methods by name and its counters read
call arguments by parameter name, so a rename there breaks the benchmark,
not the library.  Likewise every command line the benchmark runs must parse.
These checks catch both without running a command."""

import ast
import inspect
import sys
from pathlib import Path

import pytest

import guidelab.cli  # loads every module the recorder wraps

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import run as bench_run  # noqa: E402
import spans  # noqa: E402


def _module(name):
    return sys.modules[f"guidelab.{name}"]


def _bound_parameters(counter):
    """The argument names ``counter`` reads, as ``a["<name>"]``."""
    tree = ast.parse(inspect.getsource(counter))
    return {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "a" and isinstance(node.slice, ast.Constant)}


def _check_wrappable(fn, count):
    """``fn`` is callable and has every parameter its counter reads."""
    assert callable(fn)
    if count is not None:
        missing = _bound_parameters(count) - set(inspect.signature(fn).parameters)
        assert not missing, f"{fn.__qualname__} lacks parameters {sorted(missing)}"


@pytest.mark.parametrize("module, attr, count",
                         [(m, a, c) for m, a, _, c, _ in spans.FUNCTIONS],
                         ids=[name for _, _, name, _, _ in spans.FUNCTIONS])
def test_functions_resolve(module, attr, count):
    _check_wrappable(getattr(_module(module), attr), count)


@pytest.mark.parametrize("module, cls, method, count",
                         [(m, c, f, n) for m, c, f, _, n, _ in spans.METHODS],
                         ids=[name for _, _, _, name, _, _ in spans.METHODS])
def test_methods_resolve(module, cls, method, count):
    # the recorder replaces the class's own attribute, not an inherited one
    _check_wrappable(vars(getattr(_module(module), cls))[method], count)


def test_every_counted_parameter_is_checked():
    counters = ([c for *_, c, _ in spans.FUNCTIONS] + [c for *_, c, _ in spans.METHODS])
    bound = set().union(*(_bound_parameters(c) for c in counters if c is not None))
    assert bound == {"x", "rule", "step_index", "total_steps", "n_chains", "schedule",
                     "trajectory", "dataset", "batch", "generated", "reference", "path",
                     "files"}


def test_sampler_names_the_recorder_reads():
    sampler = _module("sampler")
    assert callable(sampler.rng_stream)
    assert isinstance(inspect.getattr_static(sampler.SampleBatch, "logs"), property)
    assert "ts" in sampler.SampleBatch.__dataclass_fields__


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_bench_command_lines_parse(workload, monkeypatch, tmp_path):
    # the config load only records its arguments and each runner returns at
    # once, so no command runs; main writes only the empty manifests
    cli = guidelab.cli
    called, ran = [], []
    monkeypatch.setattr(cli, "load_cfg",
                        lambda args, extra=None: called.append(args) or cli.RunConfig(extra))
    for name, (_, defaults) in list(cli.RUNNERS.items()):
        monkeypatch.setitem(cli.RUNNERS, name, (
            lambda cfg, make_out, name=name: ran.append(name) or (True, [], ""), defaults))
    monkeypatch.chdir(tmp_path)  # the benchmark's --out paths are relative
    spec = bench_run.command_spec(workload, 0, bench_run.THREADS_N)
    for argv in spec["prepare"] + [spec["argv"]]:
        assert cli.main(argv) == 0
    assert len(called) == len(ran) == len(spec["prepare"]) + 1
    assert called[-1].threads == bench_run.THREADS_N
