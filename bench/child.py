"""One benchmark command in a fresh interpreter.

Usage: python3 bench/child.py SPEC.json

The spec (written by run.py) names the input files to write, the guidelab
CLI commands that prepare inputs, the timed CLI command and the trace mode.
The child imports guidelab, writes the inputs, runs the timed command through
``guidelab.cli.main`` and writes a result JSON with its clock stamps
(``time.perf_counter``, CLOCK_MONOTONIC, so the parent can compare them with
its own), CPU seconds of the command, peak RSS and, when traced, the spans.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run(spec):
    import guidelab.cli
    t_import = time.perf_counter()
    for path, text in spec["files"].items():
        Path(path).write_text(text)
    for argv in spec["prepare"]:
        code = guidelab.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"input preparation {argv} exited {code}")
    t_inputs = time.perf_counter()
    result = {"t_start": T_START, "t_import": t_import, "t_inputs": t_inputs}
    if spec["argv"] is None:
        return result
    recorder = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import spans
        recorder = spans.install(spec["trace"])
    cpu0 = _cpu_seconds()
    t_cmd = time.perf_counter()
    code = guidelab.cli.main(spec["argv"])
    t_end = time.perf_counter()
    result.update(t_cmd=t_cmd, t_end=t_end, exit_code=code,
                  cpu_s=_cpu_seconds() - cpu0)
    if recorder is not None:
        result["trace"] = recorder.dump()
    return result


def main():
    spec = json.loads(Path(sys.argv[1]).read_text())
    try:
        result = run(spec)
    except Exception:
        traceback.print_exc()
        result = {"error": traceback.format_exc(limit=3)}
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(spec["result"]).write_text(json.dumps(result))
    return 0 if "error" not in result else 1


if __name__ == "__main__":
    sys.exit(main())
