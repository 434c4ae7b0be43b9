"""Every function defined in src/guidelab runs in some command.

``_commands`` runs ``cli.main`` in-process under the stdlib ``trace`` module
at small sizes: every ``cli.RUNNERS`` entry, both model backends (analytic,
and checkpoints trained by the set itself), every guidance kind, both
schedule types, ``sampling.store_full`` 0 and 1, ``eval`` with each source of
its reference, and failing commands whose error bodies are functions of
their own.  A function that no command runs is listed in ``UNREACHED`` with
its reason; any other is code that no backend or command can reach.
"""

import ast
import shutil
import sys
import trace
from pathlib import Path

import pytest

from guidelab import _blas, cli
from guidelab import models as gm

SRC = Path(cli.__file__).resolve().parent

# "module.qualified.name": why no command runs it
UNREACHED = {
    "sampler.SampleBatch.logs": "bench/spans.py binds it to count the rows of "
                                "trajectories.csv",
}

# lines of every config: small data, a short schedule and few chains
SMALL = {"data.n": "300", "data.dim": "4", "schedule.T": "20", "schedule.respace": "10",
         "sampling.n_chains": "8", "train.epochs": "2"}


def _functions():
    """{"module.qualified.name": (path, the line numbers of its body)} for
    every function in src/guidelab, nested ones and methods included; a
    docstring is not part of the body."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = child.body[1:] if ast.get_docstring(child) is not None else child.body
                found[prefix + child.name] = (path, range(body[0].lineno,
                                                          child.end_lineno + 1))
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, f"{path.stem}.")
    return found


def _commands(work):
    """(argv, expected exit code, None for a preset) of each command of the
    set, in order; the later ones read what the earlier ones wrote under
    ``work``."""
    def cfg(name, **lines):
        path = work / f"{name}.txt"
        path.write_text("".join(f"{k} = {v}\n" for k, v in {**SMALL, **lines}.items()))
        return ["--config", path, "--out", work / name]

    data = work / "gen" / "dataset.glab"
    den, clf = work / "den" / "denoiser.gmod", work / "clf" / "classifier.gmod"
    learned = {"data.path": data, "models.denoiser": den, "models.classifier": clf}
    samples = work / "none" / "samples.glab"
    # a checkpoint's magic and version, an empty header and a CRC that fails
    corrupt = work / "corrupt.gmod"
    corrupt.write_bytes(gm.MODEL_MAGIC + gm.MODEL_VERSION.to_bytes(2, "little") + bytes(12))
    return [
        (cfg("gen") + ["gen-data"], 0),
        (cfg("den", **{"data.path": data}) + ["train-denoiser"], 0),
        (cfg("clf", **{"data.path": data}) + ["train-classifier"], 0),
        (cfg("none") + ["sample"], 0),
        (cfg("adm", **{"schedule.type": "linear_alphabar", "guidance.kind": "adm_g",
                       "guidance.s": "1.0", "sampling.store_full": "1",
                       "sampling.target": "2"}) + ["sample"], 0),
        (cfg("geo", **learned, **{"guidance.kind": "geoguide", "guidance.s": "1.0",
                                  "sampling.store_full": "1"}) + ["sample"], 0),
        (cfg("scaled", **learned, **{"guidance.kind": "geoguide_scaled", "guidance.s": "1.0",
                                     "guidance.cutoff": "0.5"}) + ["sample"], 0),
        (cfg("learned_adm", **learned, **{"guidance.kind": "adm_g",
                                          "guidance.s": "1.0"}) + ["sample"], 0),
        (cfg("eval_ref", **{"eval.generated": samples, "eval.reference": data}) + ["eval"], 0),
        (cfg("eval_data", **{"eval.generated": samples, "data.path": data}) + ["eval"], 0),
        (cfg("eval_gen", **{"eval.generated": samples}) + ["eval"], 0),
        (cfg("norm_curves") + ["experiment", "norm_curves"], None),
        (cfg("distance_law") + ["experiment", "distance_law"], None),
        (cfg("cutoff") + ["experiment", "cutoff"], None),
        (cfg("scale_sweep") + ["experiment", "scale_sweep"], None),
        (cfg("respace_study", **{"schedule.T": "1000", "schedule.respace": "0",
                                 "sampling.n_chains": "4"})
         + ["experiment", "respace_study"], None),
        # failing commands: a guidance gradient that overflows, a corrupt checkpoint
        (cfg("overflow", **{"guidance.kind": "adm_g", "guidance.s": "1e308"}) + ["sample"],
         cli.EXIT_NUMERICAL),
        (cfg("corrupt", **{"models.denoiser": corrupt}) + ["sample"], 1),
    ]


@pytest.fixture(scope="module")
def executed(tmp_path_factory):
    """The (resolved path, line) pairs that the command set ran outside the
    Python installation, and the commands' names."""
    work = tmp_path_factory.mktemp("reach")
    commands = _commands(work)
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    # the bundled BLAS is looked up once per process, perhaps by an earlier test
    _blas._openblas.cache_clear()
    names = set()
    for argv, code in commands:
        got = tracer.runfunc(cli.main, [str(a) for a in argv])
        # a preset at these sizes may fail its checks (exit 1)
        assert got in ((0, 1) if code is None else (code,)), argv
        names.add(" ".join(argv[argv.index("--out") + 2:]))
    shutil.rmtree(work)
    return {(Path(filename).resolve(), n) for filename, n in tracer.results().counts}, names


def test_every_runner_runs(executed):
    _, names = executed
    assert names == set(cli.RUNNERS)


def test_every_function_runs(executed):
    lines, _ = executed
    unreached = {name for name, (path, body) in _functions().items()
                 if not any((path, n) in lines for n in body)}
    assert unreached - set(UNREACHED) == set(), "functions that no command runs"
    assert set(UNREACHED) - unreached == set(), "listed functions that a command runs"
