"""One timed pass of a benchmark workload, in a fresh process.

    python3 perfbench/worker.py JOB.json RESULT.json

`run.py` writes the job (workload, sizes, directories, whether to trace) and
reads the result.  The worker imports trot, warms up on the job's tiny
inputs, runs the workload's `trot` commands once through `trot.cli.main`,
inspects what they wrote and reports times, checks and peak RSS, plus the
spans when traced.  A fresh process per pass is what a user's CLI call is,
and it spreads the per-process speed differences of a shared machine over
the passes instead of fixing one for the whole run.
"""

import time

START = time.perf_counter()

import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402


def run_cli(argv: list[str]) -> str | None:
    """Run `trot <argv>` in this process; return why it failed, or None."""
    from trot import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a crash is a failed task, not a crashed benchmark
        return f"trot {argv[0]} raised:\n{traceback.format_exc()}"
    if code != 0:
        return f"trot {argv[0]} exited {code}: {err.getvalue().strip()}"
    return None


def run_pass(job: dict) -> dict:
    """Warm up, then time one pass of the job's workload."""
    import tracer as tracing
    from workloads import SIZES, WORKLOADS

    workload = WORKLOADS[job["workload"]](SIZES[job["sizes"]])
    inputs, outputs, warmup = Path(job["inputs"]), Path(job["outputs"]), Path(job["warmup"])
    start = time.perf_counter()
    warm = WORKLOADS[job["workload"]](SIZES["tiny"])
    (warmup / "out").mkdir(exist_ok=True)
    for command in warm.commands(warmup, warmup / "out", cheap=True):
        failure = run_cli(command.argv)
        if failure is not None:
            raise RuntimeError(f"warm-up failed: {failure}")
    warm_s = time.perf_counter() - start

    outputs.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer(job["run"]) if job["trace"] else None
    seconds, window_stage_s, failures = [], 0.0, []
    if tracer is not None:
        tracer.install()
    try:
        for command in workload.commands(inputs, outputs):
            scope = tracer.span(f"cli.{command.argv[0]}") if tracer is not None else nullcontext()
            t0 = time.perf_counter()
            with scope:
                failure = run_cli(command.argv)
            seconds.append(time.perf_counter() - t0)
            if command.window_stage:
                window_stage_s += seconds[-1]
            if failure is not None:
                failures.append(failure)
    finally:
        if tracer is not None:
            tracer.remove()
    outcome = workload.inspect(inputs, outputs)
    result = {
        "warm_s": warm_s,
        "seconds": seconds,
        "window_stage_s": window_stage_s,
        "tasks": outcome.tasks,
        "failures": failures + outcome.failures,
        "accuracies": outcome.accuracies,
        "windows": outcome.windows,
        "digest": outcome.digest,
    }
    if tracer is not None:
        result["spans"] = [s.to_dict() for s in tracer.spans]
        result["wrappers_left"] = tracing.traced_bindings()
    return result


def main(argv: list[str]) -> int:
    job = json.loads(Path(argv[0]).read_text())
    sys.path.insert(0, job["src"])
    import trot.cli  # noqa: F401  (import time is set-up time)

    import_s = time.perf_counter() - START
    result = run_pass(job)
    result["import_s"] = import_s
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(argv[1]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
