"""tools/same_bytes.py: its command set and its path normaliser, checked
without running a command."""

import sys
from pathlib import Path

from guidelab import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import same_bytes  # noqa: E402

bench_run = same_bytes.bench_run


def _runner(argv):
    """The ``cli.RUNNERS`` entry that ``argv`` runs: the subcommand ends it."""
    return " ".join(argv[-2:]) if argv[-2] == "experiment" else argv[-1]


def test_set_covers_every_runner_and_workload():
    commands = same_bytes.command_set()
    names = [cmd.name for cmd in commands]
    assert len(set(names)) == len(names)  # each runs in a directory of its own
    ran = {_runner(argv) for cmd in commands for argv in [*cmd.prepare, cmd.argv]}
    assert ran == set(cli.RUNNERS)
    for workload in bench_run.WORKLOADS:
        assert {f"{workload}-{seed:02d}" for seed in range(32)} <= set(names)


def test_normaliser_maps_two_run_directories_to_equal_text(tmp_path):
    texts = []
    for side in ("base", "work"):
        tree, run = tmp_path / side / "tree", tmp_path / side / "runs" / "eval_knn-00"
        text = (f"eval.generated = {run}/in/dataset.glab\n"
                f"written by {tree}/src/guidelab/cli.py in {run}\n")
        texts.append(same_bytes.normalise(text.encode(), {"tree": tree, "run": run}))
    assert texts[0] == texts[1]
    assert str(tmp_path).encode() not in texts[0]
