"""Self-test of the benchmark at tiny input sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_selftest.py

It checks that every metric named in BENCHMARK.json is emitted with its unit,
that outputs pass their checks, that same-seed runs give the same report
digest, that the tracer's wrappers are gone after a traced pass, and how the
per-layer values treat calls that raised and Sinkhorn shapes.
"""

import importlib
import json
import re
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import trot.cli  # noqa: E402,F401  (so its bindings are in every snapshot)
import worker  # noqa: E402
from trot import ot_core  # noqa: E402
from trot.errors import NumericalFailureError  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _bindings() -> dict:
    """Every binding of a traced function in the loaded trot modules."""
    originals = {
        id(getattr(importlib.import_module(f"trot.{m}"), f)) for m, fs in tracer.TRACED.items() for f in fs
    }
    return {
        (module.__name__, attr): value
        for module in tracer.trot_modules()
        for attr, value in vars(module).items()
        if id(value) in originals
    }


@pytest.fixture(scope="module", params=run.WORKLOAD_NAMES)
def runs(request):
    traced = run.run(request.param, 2, 0, True, "tiny")
    plain = [run.run(request.param, 2, 0, False, "tiny") for _ in range(2)]
    return {"traced": traced, "plain": plain}


def test_benchmark_file_is_well_formed():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOAD_NAMES)
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics + BENCH["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in BENCH["end_to_end"]
    assert 2 <= len(BENCH["workloads"]) <= 8 and 1 <= BENCH["run_seconds"] <= 60
    assert all(len(w["why"]) <= 200 for w in BENCH["workloads"])


def test_every_end_to_end_metric_emitted_with_unit(runs):
    for out in runs["plain"]:
        assert out["result"]["correct"], out["details"]["failures"]
        emitted = {n: m["unit"] for n, m in out["result"]["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        assert all(m["value"] > 0 for m in out["result"]["metrics"].values())


def test_every_per_layer_metric_emitted_with_unit(runs):
    out = runs["traced"]
    assert out["result"]["correct"], out["details"]["failures"]
    emitted = {n: m["unit"] for n, m in out["result"]["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert (out["work"] / "spans.jsonl").stat().st_size > 0


def test_report_digest_repeats(runs):
    digests = {p["digest"] for out in [runs["traced"], *runs["plain"]] for p in out["details"]["passes"]}
    assert len(digests) == 1


@pytest.fixture
def window_ot_job():
    """A traced tiny `window_ot` pass, run in this process by `worker.run_pass`."""
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    run.write_inputs("window_ot", 2, work, "tiny")
    yield {
        "workload": "window_ot", "sizes": "tiny", "run": "selftest", "trace": True,
        "inputs": str(work / "inputs"), "outputs": str(work / "outputs"),
        "warmup": str(work / "warmup"),
    }
    shutil.rmtree(work)


def test_wrappers_removed_after_traced_pass(window_ot_job):
    job = window_ot_job
    before = _bindings()
    traced = worker.run_pass(job)
    after = _bindings()
    plain = worker.run_pass({**job, "trace": False})
    assert {s["name"] for s in traced["spans"]} >= {"ot_core.sinkhorn", "harness.run_task"}
    assert traced["wrappers_left"] == [] and tracer.traced_bindings() == []
    assert all(after[k] is v for k, v in before.items()) and after.keys() == before.keys()
    assert "spans" not in plain and plain["digest"] == traced["digest"]


def test_swallowed_grid_point_error_is_counted(window_ot_job, monkeypatch):
    """A Sinkhorn solve that raises inside `run_task` is one grid-point error,
    and the per-layer values still compute."""
    original, raised = ot_core.sinkhorn, []

    def failing_once(*args, **kwargs):
        # entropy weight 0.01 is only in the timed pass, not in the warm-up
        if not raised and tracer._arg(args, kwargs, 3, "entropy_weight") == 0.01:
            raised.append(True)
            raise NumericalFailureError("injected")
        return original(*args, **kwargs)

    for module in tracer.trot_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, failing_once)
    traced = worker.run_pass(window_ot_job)
    spans = [tracer.Span.from_dict(s) for s in traced["spans"]]
    values = tracer.layer_values(spans, 1)
    assert raised and traced["failures"] == []
    assert sum(s.error == "NumericalFailureError" for s in spans) == 1
    assert values["harness.grid_point_errors"] == 1


def _solve(i: int, shape: str, lam: float, converged: bool, parent=None, error=None) -> tracer.Span:
    attrs = {} if error else {"shape": shape, "lam": lam, "iters": 10, "converged": converged}
    return tracer.Span(f"r/{i}", "ot_core.sinkhorn", parent, "r", float(i), i + 0.5, error,
                       error is not None, attrs)


def test_layer_values_by_shape_and_lambda():
    spans = [
        tracer.Span("r/0", "ot_core.gcg_solve", "r/9", "r", 0.0, 10.0, attrs={"iters": 2}),
        _solve(1, "200x100", 0.01, False, parent="r/0"),
        _solve(2, "200x100", 0.01, True, parent="r/0"),
        tracer.Span("r/3", "ot_core.gcg_solve", "r/9", "r", 3.0, 4.0, attrs={"iters": 1}),
        _solve(4, "16x16", 1.0, True, parent="r/3"),
        _solve(5, "40x20", 0.01, True),
        _solve(6, "16x16", 0.5, True),
        _solve(7, "", 0.0, False, parent="r/9", error="NumericalFailureError"),
        tracer.Span("r/9", "harness.run_task", None, "r", 0.0, 20.0),
    ]
    values = tracer.layer_values(spans, 1)
    assert values["ot_core.sinkhorn.200x100.lam0.01.calls"] == 2
    assert values["ot_core.sinkhorn.200x100.lam0.01.iters"] == 20
    assert values["ot_core.sinkhorn.200x100.lam0.01.s"] == 1.0
    assert values["ot_core.sinkhorn.200x100.lam0.01.unconverged_frac"] == 0.5
    assert values["ot_core.sinkhorn.200x100.ns_per_cell_iter"] == pytest.approx(1e9 / (20 * 200 * 100))
    assert values["ot_core.sinkhorn.16x16.lam1.calls"] == 1
    assert values["ot_core.sinkhorn.unlisted.calls"] == 2
    assert values["ot_core.gcg_solve.iters"] == 3
    assert values["ot_core.gcg_solve.sinkhorn_per_call"] == 1.5
    assert values["ot_core.gcg_solve.inner_unconverged_frac"] == 0.5
    assert values["harness.grid_point_errors"] == 1
