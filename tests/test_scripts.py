"""The measurement scripts still run against the trot API.

`scripts/bench_knn.py`, `scripts/bench_sinkhorn.py`,
`scripts/bench_atlas.py` and `scripts/bench_preprocess.py` write the
`BENCH_*.json` files that speed claims cite.  Each script is loaded by path, at tiny sizes; importing their shared
`_bench` module (on pytest's `pythonpath`) sets the BLAS thread variables,
so the environment is restored afterwards, and `_bench` is reached only
through a loaded script.
"""

import importlib.util
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from trot import ot_core

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_knn():
    return load_script("bench_knn")


@pytest.fixture(scope="module")
def bench_sinkhorn():
    return load_script("bench_sinkhorn")


@pytest.fixture(scope="module")
def bench_atlas():
    return load_script("bench_atlas")


@pytest.fixture(scope="module")
def bench_preprocess():
    return load_script("bench_preprocess")


def test_bench_knn_measures(bench_knn, monkeypatch):
    monkeypatch.setattr(bench_knn, "CALLS", 2)
    record = bench_knn.measure(*bench_knn.datasets(10, 20, 2))
    assert set(record) == {"ms_per_call", "minflt_per_call", "labels_sha1"}
    assert record["ms_per_call"] >= 0 and len(record["labels_sha1"]) == 40


def test_bench_sinkhorn_splits_iterations(bench_sinkhorn, monkeypatch):
    monkeypatch.setattr(bench_sinkhorn, "REPEATS", 1)
    a, b, cost = bench_sinkhorn.atlas_problem(20, 1)
    solved = ot_core.sinkhorn(a, b, cost, 0.01)
    record = bench_sinkhorn.solve(a, b, cost, 0.01)
    assert set(record) == {"scaling_iters", "newton_steps", "seconds", "converged", "violation"}
    assert record["scaling_iters"] + record["newton_steps"] == solved.iterations
    # the scaling form alone runs 2 iterations here, and Newton steps finish in 3
    assert record["scaling_iters"] == ot_core._scaling_sinkhorn(-cost / 0.01, a, b, 10_000, 1e-9)[2]
    assert record["newton_steps"] > 0
    assert record["converged"] is solved.converged


@pytest.mark.parametrize("mode", ["deterministic", "em"])
def test_bench_atlas_measures(bench_atlas, monkeypatch, mode):
    monkeypatch.setattr(bench_atlas, "REPEATS", 1)
    dataset = bench_atlas._bench.adversarial_pair(20, 0.5, 11)[0]
    record = bench_atlas.measure(dataset, 2, mode)
    assert set(record) == {"build_atlas_s", "assign_dataset_states_s", "sha1"}
    assert min(record["build_atlas_s"], record["assign_dataset_states_s"]) >= 0
    assert len(record["sha1"]) == 40


def test_bench_preprocess_call_writes_what_the_layers_write(bench_preprocess, monkeypatch):
    monkeypatch.setattr(bench_preprocess, "REPEATS", 1)
    monkeypatch.setattr(bench_preprocess, "MINUTES", 1.0)
    monkeypatch.setattr(sys, "path", list(sys.path))
    *layers, call = bench_preprocess.records()
    assert [r["input"] for r in layers] == ["user0", "user1", "user2"]
    assert all(min(r["load_recording_s"], r["build_features_s"], r["save_features_s"]) >= 0 for r in layers)
    assert call["recordings"] == 3 and call["seconds"] > 0
    assert call["windows"] == sum(r["windows"] for r in layers) > 0
    assert call["sha1"] == {r["input"]: r["sha1"] for r in layers}


TINY = {  # each script's inputs cut to one small problem
    "bench_knn": lambda script: {"SIZES": (("tiny", 10, 20, 2),), "CALLS": 2},
    "bench_sinkhorn": lambda script: {
        "REPEATS": 1, "problems": lambda: [("benchmark", "atlas", 1, script.atlas_problem(20, 1))],
    },
    "bench_atlas": lambda script: {
        "REPEATS": 1,
        "inputs": lambda: [("benchmark", 1, script._bench.adversarial_pair(20, 0.1, 1)[0], 2, "em")],
    },
    "bench_preprocess": lambda script: {"REPEATS": 1, "MINUTES": 1.0},
}
RECORDS = {"bench_sinkhorn": 3, "bench_preprocess": 4}  # per label; the others make 1


@pytest.mark.parametrize("name", sorted(TINY))
def test_main_merges_labels(name, request, monkeypatch, tmp_path, capsys):
    script = request.getfixturevalue(name)
    for attr, value in TINY[name](script).items():
        monkeypatch.setattr(script, attr, value)
    monkeypatch.setattr(sys, "path", list(sys.path))
    out, src = tmp_path / "bench.json", SCRIPTS.parent / "src"
    for label in ("parent", "change"):
        script.main(["--src", str(src), "--label", label, "--out", str(out)])
    assert sys.path[0] == str(src.resolve())  # the tree to measure comes first
    results = json.loads(out.read_text())
    assert sorted(results) == ["change", "parent"]
    committed = json.loads((SCRIPTS.parent / f"BENCH_{name.removeprefix('bench_')}.json").read_text())
    layouts = {tuple(sorted(entry)) for entry in committed.values()}
    assert {tuple(sorted(entry)) for entry in results.values()} == layouts
    key = "solves" if name == "bench_sinkhorn" else "records"
    printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert printed == results["parent"][key] + results["change"][key]
    assert len(printed) == 2 * RECORDS.get(name, 1)
