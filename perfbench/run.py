"""Benchmark of the trot pipeline, driven through its command line.

Run from the repository root:

    python3 perfbench/run.py --workload trot_adapt --seed 1 --seconds 30 --trace 0

The run writes the workload's inputs from `--seed` several times (the median
is part of `setup_s`), then starts one worker process after another
(`worker.py`), each of which warms up and runs one timed pass of the
workload's `trot` commands: a closed loop, one task at a time, until
`--seconds` have passed.  Every pass is checked.  With `--trace 1` the first
half of the time runs untraced workers and the second half traced ones, and
the per-layer metrics come from the traced passes.  The last line of
standard output is one JSON object; `perfbench/work/` keeps the details and,
for traced runs, the spans.
"""

import os

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:  # before numpy is imported here or in a worker
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 150
WORKLOAD_NAMES = ("trot_adapt", "window_ot", "raw_to_matrix")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("windows_per_s", "1/s"),
    ("test_acc_mean", "fraction"),
    ("peak_rss_mb", "MiB"),
)


def write_inputs(name: str, seed: int, work: Path, sizes: str) -> float:
    """Write the run's inputs and the tiny warm-up inputs; return seconds."""
    from workloads import SIZES, WORKLOADS

    start = time.perf_counter()
    WORKLOADS[name](SIZES[sizes]).setup(work / "inputs", seed)
    WORKLOADS[name](SIZES["tiny"]).setup(work / "warmup", seed)
    return time.perf_counter() - start


def run_worker(job: dict, work: Path) -> dict:
    """One pass in a fresh worker process; a failure comes back as {"error": ...}."""
    job_path, result_path = work / "job.json", work / "pass.json"
    result_path.unlink(missing_ok=True)
    job_path.write_text(json.dumps(job))
    shutil.rmtree(job["outputs"], ignore_errors=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {WORKER_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result_path.is_file():
        return {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(result_path.read_text())


def run_passes(job: dict, work: Path, seconds: float) -> tuple[list[dict], list[str]]:
    """Workers back to back until `seconds` have elapsed (at least one)."""
    passes, errors = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        result = run_worker({**job, "run": f"{job['run']}-pass{len(passes)}"}, work)
        if "error" in result:
            errors.append(result["error"])
            break
        passes.append(result)
    return passes, errors


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
    }


def run(name: str, seed: int, seconds: float, trace: bool, sizes: str = "full") -> dict:
    """One benchmark run; returns the result line plus details."""
    import tracer as tracing

    label = f"{name}-seed{seed}-trace{int(trace)}" + ("" if sizes == "full" else f"-{sizes}")
    work = WORK / label
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    writes = [write_inputs(name, seed, work, sizes) for _ in range(SETUP_REPEATS)]
    job = {
        "workload": name, "sizes": sizes, "src": str(SRC), "run": label, "trace": False,
        "inputs": str(work / "inputs"), "outputs": str(work / "outputs"),
        "warmup": str(work / "warmup"),
    }
    checks: dict[str, bool] = {}
    if trace:
        plain, errors = run_passes(job, work, seconds / 2)
        traced, more = run_passes({**job, "run": f"{label}-traced", "trace": True}, work, seconds / 2)
        errors += more
        if not (plain and traced):
            raise RuntimeError("no untraced or no traced pass completed: " + "; ".join(errors))
        passes = plain + traced
        spans = [tracing.Span.from_dict(s) for p in traced for s in p["spans"]]
        by_pass = defaultdict(list)
        for s in spans:
            by_pass[s.run].append(s)
        counts = [
            {k: v for k, v in tracing.layer_values(group, 1).items() if k.endswith((".calls", ".iters"))}
            for group in by_pass.values()
        ]
        checks["per-layer counts repeat on every traced pass"] = all(c == counts[0] for c in counts)
        checks["no wrapper left after a traced pass"] = not any(p["wrappers_left"] for p in traced)
        checks["traced report digest equals untraced"] = traced[0]["digest"] == plain[0]["digest"]
        layers = tracing.layer_values(spans, len(traced))
        if sizes == "full":  # tiny inputs solve smaller couplings than the listed shapes
            checks["every Sinkhorn solve has a listed shape and entropy weight"] = (
                layers["ot_core.sinkhorn.unlisted.calls"] == 0
            )
    else:
        passes, errors = run_passes(job, work, seconds)
        if not passes:
            raise RuntimeError("no pass completed: " + "; ".join(errors))
    checks["report digest equal on every pass"] = len({p["digest"] for p in passes}) == 1

    # A pass's failed tasks are its failure messages, capped at its task count.
    failed = sum(min(len(p["failures"]), p["tasks"]) for p in passes)
    failed += sum(not ok for ok in checks.values()) + len(errors)
    attempted = sum(p["tasks"] for p in passes) + len(checks) + len(errors)
    failures = errors + [f for p in passes for f in p["failures"]]
    failures += [f"check failed: {c}" for c, ok in checks.items() if not ok]
    accuracies = [a for p in passes for a in p["accuracies"]]
    end_to_end = {
        "setup_s": statistics.median(writes)
        + statistics.median(p["import_s"] + p["warm_s"] for p in passes),
        "wall_s": statistics.median(sum(p["seconds"]) for p in passes),
        "windows_per_s": statistics.median(p["windows"] / p["window_stage_s"] for p in passes),
        "test_acc_mean": statistics.fmean(accuracies) if accuracies else 0.0,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    details = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_info(),
        "input_writes_s": writes,
        "passes": [{k: p[k] for k in ("import_s", "warm_s", "seconds", "rss_mb", "digest")}
                   for p in passes],
        "failed_frac": failed / attempted,
        "failures": failures,
        "checks": checks,
        "end_to_end": end_to_end,
    }
    if trace:
        layers["trace.overhead_s"] = (
            statistics.median(sum(p["seconds"]) for p in traced)
            - statistics.median(sum(p["seconds"]) for p in plain)
        )
        metrics = {n: {"value": layers[n], "unit": u} for n, u, _ in tracing.per_layer_metrics()}
        details["per_layer"] = layers
        details["traced_passes"] = len(traced)
        with open(work / "spans.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(s.to_dict()) + "\n")
    else:
        metrics = {n: {"value": end_to_end[n], "unit": u} for n, u in END_TO_END}
    (work / "result.json").write_text(json.dumps(details, indent=2))
    for sub in ("inputs", "outputs", "warmup"):
        shutil.rmtree(work / sub, ignore_errors=True)
    for leftover in ("job.json", "pass.json"):
        (work / leftover).unlink(missing_ok=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return {"result": result, "details": details, "work": work}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "trot" / "cli.py").is_file():
        print(f"error: trot sources not found in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    details, result = out["details"], out["result"]
    print(f"machine: {json.dumps(details['machine'], sort_keys=True)}")
    print(f"passes: {len(details['passes'])}, digest {details['passes'][0]['digest'][:16]}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, "
          f"failed_frac {details['failed_frac']:.4f}")
    for failure in details["failures"][:20]:
        print(f"FAILED: {failure}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"details: {out['work'].relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
