"""The benchmark's tracer still fits the trot API.

`perfbench/tracer.py` patches trot functions by name and its observers read
some arguments by position, so a renamed function or a moved parameter
would only show up in a `--trace 1` run.  The tracer is loaded by path and
not changed.
"""

import importlib
import importlib.util
import inspect
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from trot import harness
from trot.ot_core import TrotHyperparams, gcg_solve

from .test_harness import tiny_pair

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_traced_name_resolves(tracer):
    for module, names in tracer.TRACED.items():
        namespace = importlib.import_module(f"trot.{module}")
        for name in names:
            assert callable(getattr(namespace, name, None)), f"trot.{module}.{name}"
    for key in tracer.OBSERVERS:
        module, name = key.split(".")
        assert name in tracer.TRACED[module], key


@pytest.mark.parametrize(
    "module, name, positions",
    [
        ("ot_core", "sinkhorn", {3: "entropy_weight"}),
        ("hmm", "build_atlas", {0: "dataset", 1: "n_states", 2: "mode"}),
        ("hmm", "assign_dataset_states", {0: "dataset", 1: "n_states", 2: "mode"}),
        ("preprocess", "segment", {0: "recording", 1: "window_seconds", 2: "overlap_fraction"}),
    ],
)
def test_observed_arguments_keep_their_positions(module, name, positions):
    fn = getattr(importlib.import_module(f"trot.{module}"), name)
    params = list(inspect.signature(fn).parameters.values())
    assert {i: params[i].name for i in positions} == positions
    if module == "hmm":
        # the tracer digests an omitted mode as "deterministic"
        assert params[2].default == "deterministic"


def test_gcg_observer_reads_the_solver_result(tracer):
    args = (
        np.full(2, 0.5),
        np.full(2, 0.5),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        TrotHyperparams(group_weight=0.1, order_weight=0.1),
        np.array([0, 1]),  # source classes
        np.eye(2, dtype=bool),  # same-order mask
    )
    result = gcg_solve(*args)
    assert result[0].iterations >= 1
    assert tracer._observe_gcg(args, {}, result) == {"iters": result[0].iterations}


def test_traced_run_task_prepares_atlases_once_per_n_states(tracer):
    source, target = tiny_pair()
    grid = tuple(TrotHyperparams(entropy_weight=1.0, order_weight=tau, n_states=2) for tau in (0.0, 1.0))
    trace = tracer.Tracer("test")
    trace.install()
    try:
        harness.run_task(harness.TaskSpec("s", "t", "trot", grid), source, target)
    finally:
        trace.remove()
    (task,) = [span for span in trace.spans if span.name == "harness.run_task"]
    watched = ("hmm.build_atlas", "ot_core.gcg_solve")
    spans = [span for span in trace.spans if span.name in watched]
    # both atlases (the source's with its rows) once for the shared n_states, one solve per point
    assert Counter(span.name for span in spans) == dict(zip(watched, (2, 2)))
    assert {span.parent for span in spans} == {task.id}
