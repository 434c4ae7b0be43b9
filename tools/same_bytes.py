"""Check that a fixed set of guidelab commands writes the same bytes at a git
revision as in the working tree.

Usage (from anywhere in the repository):

    python3 tools/same_bytes.py [--rev REV]

REV (default HEAD) is checked out with ``git worktree add --detach`` in a
temporary directory, which is removed at the end.  Every command of
``command_set()`` runs through ``guidelab.cli.main`` in a fresh interpreter
and a directory of its own, once against that tree and once against the
working tree, the two sides at once.  Every file a command leaves is
compared byte for byte after ``normalise`` has replaced the side's
directories with fixed names; a differing exit code counts as a differing
file.  One line is printed: the files compared, the files that differ, the
first difference and the working tree's commands that exited non-zero.  The
exit code is 1 on any difference, 0 otherwise.

The set: the command lines of ``bench/run.py``'s workloads at bench seeds
0-31, read from its ``command_spec``; every experiment preset at ``--seed
0`` and ``distance_law`` at seed 3; a small training run of each model; a
``sample`` with both trained models under ``geoguide`` and under ``adm_g``.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import run as bench_run  # noqa: E402

BENCH_SEEDS = range(32)
PRESETS = ("norm_curves", "distance_law", "cutoff", "scale_sweep", "respace_study")
TRAIN_CFG = "data.n = 200\ndata.dim = 4\nschedule.T = 20\ntrain.epochs = 3\n"
LEARNED_CFG = TRAIN_CFG + ("models.denoiser = models/denoiser.gmod\n"
                           "models.classifier = models/classifier.gmod\n"
                           "sampling.n_chains = 16\nguidance.s = 2.0\n")
CHILD = "import sys, guidelab.cli; sys.exit(guidelab.cli.main(sys.argv[1:]))"
EXIT_CODES = "exit codes"  # the pseudo-file of a command's exit codes


class Command(NamedTuple):
    """One guidelab command: the input files to write (relative path ->
    text), the argv lists that prepare its inputs, and its own argv."""
    name: str
    files: dict
    prepare: list
    argv: list


def command_set():
    """Every command the check runs, each with a distinct name."""
    commands = []
    for workload in bench_run.WORKLOADS:
        for seed in BENCH_SEEDS:
            spec = bench_run.command_spec(workload, seed, bench_run.THREADS_N)
            commands.append(Command(f"{workload}-{seed:02d}", spec["files"],
                                    spec["prepare"], spec["argv"]))
    for preset, seed in [(p, 0) for p in PRESETS] + [("distance_law", 3)]:
        commands.append(Command(f"{preset}-{seed:02d}", {}, [],
                                ["--out", "out", "--seed", str(seed), "experiment", preset]))
    for model in ("denoiser", "classifier"):
        commands.append(Command(f"train-{model}", {"in/train.cfg": TRAIN_CFG}, [],
                                ["--config", "in/train.cfg", "--out", "out",
                                 f"train-{model}"]))
    train = [["--config", "in/train.cfg", "--out", "models", f"train-{model}"]
             for model in ("denoiser", "classifier")]
    for kind in ("geoguide", "adm_g"):
        commands.append(Command(f"sample-learned-{kind}",
                                {"in/train.cfg": TRAIN_CFG,
                                 "in/sample.cfg": LEARNED_CFG + f"guidance.kind = {kind}\n"},
                                train, ["--config", "in/sample.cfg", "--out", "out", "sample"]))
    return commands


def normalise(data: bytes, dirs) -> bytes:
    """``data`` with each directory of ``dirs`` (name -> path) written as
    <name>, so that runs in different directories compare equal."""
    # the longest first, so that a directory inside another keeps its own name
    for name, path in sorted(dirs.items(), key=lambda item: -len(str(item[1]))):
        data = data.replace(str(path).encode(), f"<{name}>".encode())
    return data


def run_side(tree, runs, commands):
    """Run ``commands`` against the package in ``tree``, each in its own
    directory under ``runs``; returns {relative path: normalised bytes}."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"))
    outputs = {}
    for cmd in commands:
        where = Path(runs) / cmd.name
        for rel, text in cmd.files.items():
            (where / rel).parent.mkdir(parents=True, exist_ok=True)
            (where / rel).write_text(text)
        where.mkdir(parents=True, exist_ok=True)
        codes = []
        for argv in [*cmd.prepare, cmd.argv]:
            done = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=where, env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            codes.append(str(done.returncode))
        outputs[f"{cmd.name}/{EXIT_CODES}"] = " ".join(codes).encode()
        dirs = {"tree": Path(tree), "run": where}
        for path in sorted(where.rglob("*")):
            if path.is_file():
                outputs[str(path.relative_to(runs))] = normalise(path.read_bytes(), dirs)
    return outputs


def compare(base, work):
    """(files compared, files differing, the first difference or None)."""
    names = sorted(set(base) | set(work))
    differ = [n for n in names if base.get(n) != work.get(n)]
    first = None
    if differ:
        n = differ[0]
        if n not in base or n not in work:
            first = f"{n} only {'in the working tree' if n in work else 'at the revision'}"
        else:
            a, b = base[n], work[n]
            at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            first = f"{n} at byte {at}"
    return len(names), len(differ), first


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="git revision to compare with")
    args = parser.parse_args(argv)
    commands = command_set()
    with tempfile.TemporaryDirectory(prefix="same_bytes-") as tmp:
        tree = Path(tmp) / "tree"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(tree), args.rev], check=True)
        try:
            with ThreadPoolExecutor(2) as pool:
                base = pool.submit(run_side, tree, Path(tmp) / "base", commands)
                work = pool.submit(run_side, ROOT, Path(tmp) / "work", commands)
                base, work = base.result(), work.result()
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(tree)], check=False)
    n, n_differ, first = compare(base, work)
    failed = sum(code != b"0" for name, codes in work.items()
                 if name.endswith(EXIT_CODES) for code in codes.split())
    print(f"same_bytes {args.rev}: {n} files compared, {n_differ} differ; first difference: "
          f"{first or 'none'}; {failed} working-tree commands exited non-zero")
    return 1 if n_differ else 0


if __name__ == "__main__":
    sys.exit(main())
