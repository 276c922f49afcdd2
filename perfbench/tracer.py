"""Out-of-program tracing of the trot pipeline.

`Tracer.install` replaces each public function named in `TRACED` at every
place it is bound inside the loaded `trot` modules (for example both
`trot.ot_core.sinkhorn` and `trot.harness.sinkhorn`), so calls made through
any module's globals are seen.  Each call becomes a span kept in memory;
`Tracer.remove` restores the original objects.  Functions called more than
about 10^4 times per run (such as `_logsumexp`) are deliberately absent,
because a Python wrapper around them would dominate what it measures.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from trot.errors import TrotError

TRACED = {
    "preprocess": ("load_recording", "segment", "build_features", "save_features", "load_features"),
    "hmm": ("build_atlas", "assign_dataset_states"),
    "ot_core": ("sinkhorn", "gcg_solve", "cost_matrix"),
    "adapt": ("transform_samples", "barycentric_map", "barycentric_project", "coral_align"),
    "harness": ("run_task", "run_matrix", "knn1_classify"),
}


@dataclass
class Span:
    """One call at a layer boundary; times are `time.perf_counter()` readings."""

    id: str
    name: str
    parent: str | None
    run: str
    start: float
    end: float = 0.0
    error: str | None = None
    trot_error: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        out = {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "run": self.run,
            "start": self.start,
            "end": self.end,
        }
        if self.error is not None:
            out["error"] = self.error
            out["trot_error"] = self.trot_error
        if self.attrs:
            out["attrs"] = self.attrs
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(**data)


def _dataset_digest(dataset, *extra) -> str:
    h = hashlib.sha1()
    h.update(dataset.features.tobytes())
    h.update(dataset.window_index.tobytes())
    if dataset.labels is not None:
        h.update(dataset.labels.tobytes())
    h.update(repr(extra).encode())
    return h.hexdigest()


def _arg(args, kwargs, position, name, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _observe_sinkhorn(args, kwargs, result):
    ks, kt = result.values.shape
    return {
        "shape": f"{ks}x{kt}",
        "lam": float(_arg(args, kwargs, 3, "entropy_weight")),
        "iters": int(result.iterations),
        "converged": bool(result.converged),
    }


def _observe_gcg(args, kwargs, result):
    return {"iters": int(result[0].iterations)}


def _observe_atlas_input(args, kwargs, result):
    dataset = _arg(args, kwargs, 0, "dataset")
    n_states = _arg(args, kwargs, 1, "n_states")
    mode = _arg(args, kwargs, 2, "mode", "deterministic")
    return {"input": _dataset_digest(dataset, n_states, mode)}


def _observe_segment(args, kwargs, result):
    recording = _arg(args, kwargs, 0, "recording")
    w = int(round(_arg(args, kwargs, 1, "window_seconds") * recording.sample_rate))
    step = int(round(w * (1.0 - _arg(args, kwargs, 2, "overlap_fraction"))))
    return {"candidates": (len(recording) - w) // step + 1, "kept": len(result)}


def _observe_build_features(args, kwargs, result):
    return {"windows": len(result)}


OBSERVERS = {
    "ot_core.sinkhorn": _observe_sinkhorn,
    "ot_core.gcg_solve": _observe_gcg,
    "hmm.build_atlas": _observe_atlas_input,
    "hmm.assign_dataset_states": _observe_atlas_input,
    "preprocess.segment": _observe_segment,
    "preprocess.build_features": _observe_build_features,
}


class Tracer:
    """Span recorder that patches the functions in `TRACED` while installed."""

    def __init__(self, run: str):
        self.spans: list[Span] = []
        self.run = run
        self._ids = itertools.count()
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Record a span around a block, under the innermost open span."""
        parent = self._stack[-1].id if self._stack else None
        current = Span(f"{self.run}/{next(self._ids)}", name, parent, self.run, time.perf_counter())
        self._stack.append(current)
        try:
            yield current
        except Exception as exc:
            current.error = type(exc).__name__
            current.trot_error = isinstance(exc, TrotError)
            raise
        finally:
            current.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(current)

    def _wrap(self, fn, name: str):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as current:
                result = fn(*args, **kwargs)
            if observe is not None:
                current.attrs = observe(args, kwargs, result)
            return result

        traced.perfbench_traced = True
        return traced

    def install(self) -> None:
        """Patch every binding of every traced function in loaded trot modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module, names in TRACED.items():
            namespace = importlib.import_module(f"trot.{module}")
            for name in names:
                fn = getattr(namespace, name)
                wrappers[id(fn)] = self._wrap(fn, f"{module}.{name}")
        for module in trot_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def remove(self) -> None:
        """Restore the original functions at every patched binding."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def trot_modules() -> list:
    """The loaded `trot` package and its submodules."""
    return [m for name, m in sorted(sys.modules.items()) if name == "trot" or name.startswith("trot.")]


def traced_bindings() -> list[str]:
    """Bindings in loaded trot modules that currently hold a tracer wrapper."""
    return [
        f"{module.__name__}.{attr}"
        for module in trot_modules()
        for attr, value in vars(module).items()
        if getattr(value, "perfbench_traced", False)
    ]


SINKHORN_SHAPES = ("16x16", "200x100")
SINKHORN_LAMBDAS = (0.01, 0.1, 1.0)
FRACTION = "fraction"


def _lam_label(lam: float) -> str:
    return f"lam{lam:g}"


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in emission order."""
    out = [(f"preprocess.{f}.s", "s", "lower") for f in TRACED["preprocess"]]
    out += [
        ("preprocess.build_features.windows_per_s", "1/s", "higher"),
        ("preprocess.segment.dropped_frac", FRACTION, "lower"),
    ]
    for f in TRACED["hmm"]:
        out += [
            (f"hmm.{f}.calls", "count", "lower"),
            (f"hmm.{f}.s", "s", "lower"),
            (f"hmm.{f}.distinct_frac", FRACTION, "higher"),
        ]
    for shape in SINKHORN_SHAPES:
        for lam in SINKHORN_LAMBDAS:
            key = f"ot_core.sinkhorn.{shape}.{_lam_label(lam)}"
            out += [
                (f"{key}.calls", "count", "lower"),
                (f"{key}.iters", "count", "lower"),
                (f"{key}.s", "s", "lower"),
                (f"{key}.unconverged_frac", FRACTION, "lower"),
            ]
        out.append((f"ot_core.sinkhorn.{shape}.ns_per_cell_iter", "ns", "lower"))
    out.append(("ot_core.sinkhorn.unlisted.calls", "count", "lower"))
    out += [
        ("ot_core.gcg_solve.calls", "count", "lower"),
        ("ot_core.gcg_solve.iters", "count", "lower"),
        ("ot_core.gcg_solve.s", "s", "lower"),
        ("ot_core.gcg_solve.self_s", "s", "lower"),
        ("ot_core.gcg_solve.sinkhorn_per_call", "count", "lower"),
        ("ot_core.gcg_solve.inner_unconverged_frac", FRACTION, "lower"),
        ("ot_core.cost_matrix.s", "s", "lower"),
    ]
    out += [(f"adapt.{f}.s", "s", "lower") for f in TRACED["adapt"]]
    out += [
        ("harness.run_task.s", "s", "lower"),
        ("harness.run_task.self_s", "s", "lower"),
        ("harness.run_matrix.s", "s", "lower"),
        ("harness.run_matrix.self_s", "s", "lower"),
        ("harness.knn1_classify.calls", "count", "lower"),
        ("harness.knn1_classify.s", "s", "lower"),
        ("harness.grid_point_errors", "count", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-pass per-layer values from the spans of `passes` identical passes.

    Spans of one pass share their `run`.

    Counts and times are divided by `passes`; fractions and rates are taken
    over all spans.  Metrics of layers the workload never calls read 0.
    Attributes exist only on calls that returned, so a call that raised
    counts in its layer's `.calls` and `.s` and in `harness.grid_point_errors`
    but not in the attribute-based values (a raising Sinkhorn solve counts as
    unconverged in `gcg_solve.inner_unconverged_frac`).  Successful solves of
    a shape or entropy weight outside `SINKHORN_SHAPES` and `SINKHORN_LAMBDAS`
    are counted in `ot_core.sinkhorn.unlisted.calls`.
    """
    by_id = {s.id: s for s in spans}
    child_time: dict[str, float] = defaultdict(float)
    children: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
            children[s.parent].append(s)
    by_name: dict[str, list[Span]] = defaultdict(list)
    returned: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.error is None:
            returned[s.name].append(s)

    def total(name):
        return sum(s.duration for s in by_name[name]) / passes

    def self_time(name):
        return sum(s.duration - child_time[s.id] for s in by_name[name]) / passes

    values = {f"preprocess.{f}.s": total(f"preprocess.{f}") for f in TRACED["preprocess"]}
    built = returned["preprocess.build_features"]
    values["preprocess.build_features.windows_per_s"] = _ratio(
        sum(s.attrs["windows"] for s in built), sum(s.duration for s in built)
    )
    cut = returned["preprocess.segment"]
    values["preprocess.segment.dropped_frac"] = 1.0 - _ratio(
        sum(s.attrs["kept"] for s in cut), sum(s.attrs["candidates"] for s in cut)
    ) if cut else 0.0
    for f in TRACED["hmm"]:
        calls = returned[f"hmm.{f}"]
        distinct = sum(len({s.attrs["input"] for s in calls if s.run == run})
                       for run in {s.run for s in calls})
        values[f"hmm.{f}.calls"] = len(by_name[f"hmm.{f}"]) / passes
        values[f"hmm.{f}.s"] = total(f"hmm.{f}")
        values[f"hmm.{f}.distinct_frac"] = _ratio(distinct, len(calls))

    solves = returned["ot_core.sinkhorn"]
    values["ot_core.sinkhorn.unlisted.calls"] = sum(
        s.attrs["shape"] not in SINKHORN_SHAPES or s.attrs["lam"] not in SINKHORN_LAMBDAS
        for s in solves
    ) / passes
    for shape in SINKHORN_SHAPES:
        ks, kt = (int(v) for v in shape.split("x"))
        of_shape = [s for s in solves if s.attrs["shape"] == shape]
        for lam in SINKHORN_LAMBDAS:
            key = f"ot_core.sinkhorn.{shape}.{_lam_label(lam)}"
            group = [s for s in of_shape if s.attrs["lam"] == lam]
            values[f"{key}.calls"] = len(group) / passes
            values[f"{key}.iters"] = sum(s.attrs["iters"] for s in group) / passes
            values[f"{key}.s"] = sum(s.duration for s in group) / passes
            values[f"{key}.unconverged_frac"] = _ratio(
                sum(not s.attrs["converged"] for s in group), len(group)
            )
        values[f"ot_core.sinkhorn.{shape}.ns_per_cell_iter"] = 1e9 * _ratio(
            sum(s.duration for s in of_shape), sum(s.attrs["iters"] for s in of_shape) * ks * kt
        )

    gcg = by_name["ot_core.gcg_solve"]
    inner = [[c for c in children[g.id] if c.name == "ot_core.sinkhorn"] for g in gcg]
    values["ot_core.gcg_solve.calls"] = len(gcg) / passes
    values["ot_core.gcg_solve.iters"] = sum(g.attrs.get("iters", 0) for g in gcg) / passes
    values["ot_core.gcg_solve.s"] = total("ot_core.gcg_solve")
    values["ot_core.gcg_solve.self_s"] = self_time("ot_core.gcg_solve")
    values["ot_core.gcg_solve.sinkhorn_per_call"] = _ratio(sum(map(len, inner)), len(gcg))
    values["ot_core.gcg_solve.inner_unconverged_frac"] = _ratio(
        sum(any(c.error is not None or not c.attrs["converged"] for c in group) for group in inner),
        len(gcg),
    )
    values["ot_core.cost_matrix.s"] = total("ot_core.cost_matrix")
    for f in TRACED["adapt"]:
        values[f"adapt.{f}.s"] = total(f"adapt.{f}")

    for f in ("run_task", "run_matrix"):
        values[f"harness.{f}.s"] = total(f"harness.{f}")
        values[f"harness.{f}.self_s"] = self_time(f"harness.{f}")
    values["harness.knn1_classify.calls"] = len(by_name["harness.knn1_classify"]) / passes
    values["harness.knn1_classify.s"] = total("harness.knn1_classify")
    values["harness.grid_point_errors"] = _swallowed_errors(spans, by_id) / passes
    values["trace.spans"] = len(spans) / passes
    return values


def _swallowed_errors(spans: list[Span], by_id: dict[str, Span]) -> int:
    """TrotErrors raised by a traced call under a `run_task` that returned
    normally; an error passing up through several traced calls counts once."""
    count = 0
    for s in spans:
        parent = by_id.get(s.parent)
        if not s.trot_error or (parent is not None and parent.trot_error):
            continue
        while parent is not None and parent.name != "harness.run_task":
            parent = by_id.get(parent.parent)
        if parent is not None and parent.error is None:
            count += 1
    return count
