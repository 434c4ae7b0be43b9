"""Run the benchmark at a git revision and in the working tree in alternating
pairs, and judge each end-to-end metric by the claim rule.

Usage (from anywhere in the repository):

    python3 tools/bench_pairs.py [--rev REV] --workload W --pairs N --seed S

REV (default HEAD) is checked out with ``git worktree add --detach`` in a
temporary directory (``same_bytes.worktree``), which is removed at the end.
Pair i runs ``bench/run.py --workload W --seed S+i`` (its default run length)
once in that tree and once in the working tree, one after the other: the
revision first in even pairs, the working tree first in odd ones.  A run
whose exit code is non-zero, or whose last line does not parse, counts as
failed and gives no values.

For each end-to-end metric of ``BENCHMARK.json`` one line is printed: the
median and quartiles of both sides, the change in the median, in how many
pairs the working tree read better, the revision's interquartile range,
whether the change stays within the metric's bound, and whether the claim
rule holds.  The rule: the working tree is better in at least 9 of 10 pairs
(the same share of N), and its median is better by more than the revision's
IQR.  The last line is one JSON object with every run's values and the
summaries.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import same_bytes

ROOT = same_bytes.ROOT
WIN_SHARE = 0.9  # of the pairs, that the working tree must win for a claim


def quartiles(values):
    """(Q1, median, Q3) of ``values``, by linear interpolation between the
    order statistics (numpy's default percentile)."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarise(base, work, better="lower", bound=None):
    """The claim-rule summary of one metric from per-pair values: ``base[i]``
    and ``work[i]`` are pair i's values at the revision and in the working
    tree.  ``better`` is "lower" or "higher"; ``bound`` is the largest
    relative worsening of the median allowed, or None."""
    if len(base) != len(work) or not base:
        raise ValueError(f"expected as many values on each side, at least one; got "
                         f"{len(base)} and {len(work)}")
    sign = 1.0 if better == "lower" else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    w_q1, w_med, w_q3 = quartiles(work)
    wins = sum(sign * (w - b) < 0 for b, w in zip(base, work))
    iqr = b_q3 - b_q1
    gain = sign * (b_med - w_med)  # > 0 when the working tree is better
    rel = (w_med - b_med) / b_med if b_med else math.nan
    return {"pairs": len(base), "base": [b_med, b_q1, b_q3], "work": [w_med, w_q1, w_q3],
            "rel": rel, "wins": wins, "base_iqr": iqr,
            "within_bound": None if bound is None else -gain <= bound * abs(b_med),
            "claim": wins >= math.ceil(WIN_SHARE * len(base)) and gain > iqr}


def describe(name, s):
    """One line for ``summarise``'s result ``s`` of metric ``name``."""
    bound = {None: "", True: "; within its bound", False: "; BEYOND its bound"}
    return (f"{name}: rev {s['base'][0]:.4g} [{s['base'][1]:.4g}, {s['base'][2]:.4g}], "
            f"work {s['work'][0]:.4g} [{s['work'][1]:.4g}, {s['work'][2]:.4g}]; "
            f"{100 * s['rel']:+.1f} %; work better in {s['wins']}/{s['pairs']} pairs; "
            f"rev IQR {s['base_iqr']:.4g}{bound[s['within_bound']]}; claim "
            f"{'holds' if s['claim'] else 'does not hold'}")


def run_bench(tree, workload, seed):
    """The end-to-end values {metric: value} of one ``bench/run.py`` run in
    ``tree``, or None if it failed."""
    done = subprocess.run([sys.executable, str(Path(tree) / "bench" / "run.py"),
                           "--workload", workload, "--seed", str(seed)],
                          cwd=tree, capture_output=True, text=True)
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None
    if done.returncode != 0 or result.get("failed"):
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="git revision to compare with")
    parser.add_argument("--workload", required=True, help="a workload of bench/run.py")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"rev": [], "work": []}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp, \
            same_bytes.worktree(args.rev, tmp) as tree:
        for i in range(args.pairs):
            sides = [("rev", tree), ("work", ROOT)]
            for side, where in sides if i % 2 == 0 else sides[::-1]:
                runs[side].append(run_bench(where, args.workload, args.seed + i))
    ok = [i for i in range(args.pairs) if runs["rev"][i] and runs["work"][i]]
    print(f"bench_pairs {args.rev} vs the working tree: {args.workload}, seeds "
          f"{args.seed}-{args.seed + args.pairs - 1}; {len(ok)} of {args.pairs} pairs "
          f"with no failed run")
    summaries = {}
    for m in metrics:
        name = m["name"]
        if ok:
            summaries[name] = summarise([runs["rev"][i][name] for i in ok],
                                        [runs["work"][i][name] for i in ok],
                                        m["better"], m.get("bound"))
            print(describe(name, summaries[name]))
    print(json.dumps({"rev": args.rev, "workload": args.workload, "seeds": [
        args.seed + i for i in range(args.pairs)], "runs": runs, "summaries": summaries}))
    return 0 if len(ok) == args.pairs else 1


if __name__ == "__main__":
    sys.exit(main())
