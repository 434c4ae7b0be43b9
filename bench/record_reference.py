"""Record the per-seed reference values that the benchmark's checks compare
against (bench/reference.json).

Usage (from the repository root, on the commit whose outputs are the
reference):

    python3 bench/record_reference.py

Runs one untraced command per workload and seed (0 to SEEDS - 1), keeps the
values that ``checks.check`` extracts, and fails if any command fails its
invariant or oracle checks.
"""

import json
import shutil
import sys
import time

import run

SEEDS = 32


def main():
    values = {}
    for workload in run.WORKLOADS:
        for seed in range(SEEDS):
            workdir = run.WORK / "record" / workload
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            cmd = run.Run(workload, seed, workdir, time.perf_counter() + run.RUN_LIMIT)
            cmd.command()
            if cmd.failed:
                print(f"{workload} seed {seed} failed; nothing recorded", file=sys.stderr)
                return 1
            values.setdefault(workload, {})[str(seed)] = cmd.first_summary
            print(f"{workload} seed {seed}: recorded", flush=True)
    shutil.rmtree(run.WORK / "record")
    facts = run.machine_facts()
    run.REFERENCE.write_text(json.dumps(
        {"recorded_from": {k: facts[k] for k in ("git_sha", "src_sha256")},
         "values": values}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
