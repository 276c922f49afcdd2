"""End-to-end pipeline orchestration and the cross-user evaluation protocol.

For every task the max-abs scaler is fit on the source user and applied to
both users, the target stream is split into a first-half validation set and
a second-half test set, hyperparameters are selected by validation accuracy
only, and the test half is touched exactly once with the selected setting.
Each task prepares once what its grid points share (ot/otda's subsamples and
cost, trot's pseudo labels; trot's atlases once per `n_states`); see `_solver`.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from dataclasses import asdict, dataclass, fields, replace
from itertools import product
from pathlib import Path

import numpy as np

from .adapt import barycentric_map, barycentric_project, coral_align, transform_samples
from .errors import InsufficientDataError, TrotError
from .hmm import build_atlas
from .ot_core import (
    TrotHyperparams,
    cost_matrix,
    gcg_solve,
    nearest_rows,
    pairwise_sq_dists,
    same_order_mask,
    sinkhorn,
)
from .preprocess import FeatureDataset, fit_maxabs, load_features, maxabs_fit_apply

METHODS = ("na", "td", "ot", "otda", "coral", "trot")
MAX_COUPLING_WINDOWS = 500  # window-level baselines subsample beyond this

# The methods that search a TrotHyperparams grid, each with the fields it reads
# and the values its default grid searches, outermost first.  A field left out
# is one the method never reads: its grid entries must keep the field's default.
DEFAULT_GRIDS = {
    "ot": {"entropy_weight": (0.01, 0.1, 1.0)},
    "otda": {"entropy_weight": (0.01, 0.1, 1.0), "group_weight": (0.0, 0.1, 1.0)},
    "trot": {"n_states": (2, 4), "entropy_weight": (0.01, 0.1, 1.0), "group_weight": (0.0, 0.1, 1.0),
             "order_weight": (0.0, 0.1, 1.0, 10.0), "order_mode": ("mismatched",)},
}


@dataclass(frozen=True)
class TaskSpec:
    """One directed cross-user task for one method."""

    source_user: str
    target_user: str
    method: str
    hyper_grid: tuple[TrotHyperparams, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        method = self.method.lower()
        object.__setattr__(self, "method", method)
        if method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if method != "td" and self.source_user == self.target_user:
            raise ValueError("source and target user must differ (except for td)")
        if self.hyper_grid is not None:
            grid = tuple(self.hyper_grid)
            object.__setattr__(self, "hyper_grid", grid)
            searched = DEFAULT_GRIDS.get(method)
            if searched is None and any(hyper is not None for hyper in grid):
                raise ValueError(f"{method} takes no hyperparameters: its grid entries must be None")
            if searched is not None and not all(isinstance(hyper, TrotHyperparams) for hyper in grid):
                raise ValueError(f"{method} grid entries must be TrotHyperparams")
            for field in fields(TrotHyperparams) if searched is not None else ():
                if field.name not in searched and any(
                    getattr(hyper, field.name) != field.default for hyper in grid
                ):
                    raise ValueError(f"{method} does not take {field.name} != {field.default!r}")
        # checked here so a matrix fails before any task, not at its first ot task
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")


@dataclass
class AdaptReport:
    """Outcome of one task: selected setting, accuracies, per-window dump."""

    task: TaskSpec
    chosen_hyper: TrotHyperparams | None = None
    validation_accuracy: float | None = None
    test_accuracy: float | None = None
    objective_trace: np.ndarray | None = None
    converged: bool | None = None  # the selected solve's flag; None for na/td/coral
    timing: float = 0.0
    predictions: dict | None = None
    error: str | None = None

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "source": self.task.source_user,
            "target": self.task.target_user,
            "method": self.task.method,
            "status": "ok" if self.error is None else "failed",
            "error": self.error,
            "chosen_hyper": None if self.chosen_hyper is None else asdict(self.chosen_hyper),
            "validation_accuracy": self.validation_accuracy,
            "test_accuracy": self.test_accuracy,
            "objective_trace": None
            if self.objective_trace is None
            else self.objective_trace.tolist(),
            "converged": self.converged,
            "predictions": self.predictions,
        }
        if include_timing:
            out["timing_seconds"] = self.timing
        return out


def default_grid(method: str) -> tuple[TrotHyperparams | None, ...]:
    """Hyperparameter grid searched on the validation half for one method:
    the product of its `DEFAULT_GRIDS` entry, or `(None,)` for na, td, coral."""
    searched = DEFAULT_GRIDS.get(method.lower())
    if searched is None:
        return (None,)
    return tuple(
        TrotHyperparams(**dict(zip(searched, values))) for values in product(*searched.values())
    )


def knn1_classify(train: FeatureDataset, query: FeatureDataset) -> np.ndarray:
    """Label of the Euclidean-nearest training window per query window.

    `ot_core.nearest_rows` scores a block of query windows against every
    training window by one matrix product; exact distance ties resolve to
    the lowest training index.
    """
    if len(train) == 0:
        raise InsufficientDataError("insufficient data: empty training set")
    if train.labels is None:
        raise TrotError("training dataset has no labels")
    return train.labels[nearest_rows(query.features, train.features)]


def temporal_split(target: FeatureDataset) -> tuple[FeatureDataset, FeatureDataset]:
    """First half of the windows (by position) for validation, rest for test."""
    if len(target) < 2:
        raise InsufficientDataError("insufficient data: need at least 2 windows to split")
    half = len(target) // 2
    return target.subset(np.arange(half)), target.subset(np.arange(half, len(target)))


def _accuracy(predicted: np.ndarray, truth: np.ndarray) -> float:
    return float(np.mean(predicted == truth))


def _subsample(dataset: FeatureDataset, rng: np.random.Generator) -> FeatureDataset:
    if len(dataset) <= MAX_COUPLING_WINDOWS:
        return dataset
    keep = np.sort(rng.choice(len(dataset), MAX_COUPLING_WINDOWS, replace=False))
    return dataset.subset(keep)


def _solver(method: str, source: FeatureDataset, validation: FeatureDataset, seed: int):
    """One task's `hyper -> (1-NN training set, objective trace, converged)`.

    `converged` is the transport solve's flag for ot/otda/trot and None for
    the methods that solve none.

    ot/otda prepare their subsamples, cost and marginals here, once per task.
    trot prepares its pseudo labels once per task and its atlases, cost, mask
    and the source windows' atlas rows once per `n_states`, on first use;
    one that raises is not cached, so every grid point that needs it fails
    alike.  A trot grid point is then one solve, one displacement per source
    state and one gather of those displacements by row.
    """
    if method in ("na", "td"):
        return lambda hyper: (source if method == "na" else validation, None, None)
    if method == "coral":
        return lambda hyper: (coral_align(source, validation), None, None)
    if method in ("ot", "otda"):
        rng = np.random.default_rng(seed)
        src_sub, tgt_sub = _subsample(source, rng), _subsample(validation, rng)
        cost = pairwise_sq_dists(src_sub.features, tgt_sub.features)
        a = np.full(len(src_sub), 1.0 / len(src_sub))
        b = np.full(len(tgt_sub), 1.0 / len(tgt_sub))

        def solve_ot(hyper):
            if method == "ot":
                coupling, trace = sinkhorn(a, b, cost, hyper.entropy_weight), None
            else:
                coupling, trace = gcg_solve(a, b, cost, hyper, src_sub.labels)
            transported = barycentric_project(coupling.values, tgt_sub.features)
            return replace(src_sub, features=transported), trace, coupling.converged

        return solve_ot

    pseudo_labels = functools.cache(lambda: knn1_classify(source, validation))

    @functools.cache
    def atlases(n_states):
        src_atlas, rows = build_atlas(source, n_states)
        tgt_atlas, _ = build_atlas(validation.with_labels(pseudo_labels()), n_states)
        cost, same_order = cost_matrix(src_atlas, tgt_atlas), same_order_mask(src_atlas, tgt_atlas)
        return src_atlas, tgt_atlas, cost, same_order, rows

    def solve_trot(hyper):
        src_atlas, tgt_atlas, cost, same_order, rows = atlases(hyper.n_states)
        coupling, trace = gcg_solve(
            src_atlas.weights, tgt_atlas.weights, cost, hyper, src_atlas.classes, same_order
        )
        displacement = barycentric_map(coupling, src_atlas, tgt_atlas)
        return transform_samples(source, rows, displacement), trace, coupling.converged

    return solve_trot


def run_task(
    spec: TaskSpec, source_data: FeatureDataset, target_data: FeatureDataset
) -> AdaptReport:
    """Run one method on one directed user pair under the evaluation protocol.

    Grid search sees only the validation half; the reported test accuracy is
    computed once with the selected hyperparameters.  No `TrotError` escapes:
    a task's is the report's `error`, and a grid point's is recorded in the
    joined message that is the `error` when every point fails.  A bad
    argument (`ValueError`) still raises.
    """
    start = time.perf_counter()
    try:
        scaler = fit_maxabs(source_data)
        source = maxabs_fit_apply(source_data, scaler)
        target = maxabs_fit_apply(target_data, scaler)
        validation, test = temporal_split(target)
        if validation.labels is None or test.labels is None:
            raise TrotError("target labels required for evaluation")
        if source.labels is None and spec.method != "td":
            raise TrotError(f"source labels required for {spec.method}")

        grid = spec.hyper_grid if spec.hyper_grid is not None else default_grid(spec.method)
        solve = _solver(spec.method, source, validation, spec.seed)
        best = None
        failures = []
        for hyper in grid:
            try:
                train, trace, converged = solve(hyper)
                val_acc = _accuracy(knn1_classify(train, validation), validation.labels)
            except TrotError as exc:
                failures.append(str(exc))
                continue
            if best is None or val_acc > best[0]:
                best = (val_acc, hyper, train, trace, converged)
        if best is None:
            raise TrotError(_join_failures(failures) or "no hyperparameters evaluated")

        val_acc, hyper, train, trace, converged = best
        predicted = knn1_classify(train, test)
    except TrotError as exc:
        return AdaptReport(spec, error=str(exc), timing=time.perf_counter() - start)
    return AdaptReport(
        task=spec,
        chosen_hyper=hyper,
        validation_accuracy=val_acc,
        test_accuracy=_accuracy(predicted, test.labels),
        objective_trace=trace,
        converged=converged,
        timing=time.perf_counter() - start,
        predictions={
            "window_index": test.window_index.tolist(),
            "true": test.labels.tolist(),
            "predicted": predicted.tolist(),
        },
    )


def _join_failures(messages: list[str]) -> str:
    """Distinct messages in first-seen order, a repeated one with its count."""
    counts = Counter(messages)
    return "; ".join(msg if n == 1 else f"{msg} (\u00d7{n})" for msg, n in counts.items())


def run_matrix(
    data,
    users: list[str] | None = None,
    methods=METHODS,
    grids: dict | None = None,
    seed: int = 0,
) -> dict:
    """Every ordered user pair x method, as a deterministic report dict.

    `data` is either a directory of per-user feature CSVs (`<user>.csv`) or a
    mapping {user: FeatureDataset}.  `grids` optionally overrides the default
    hyperparameter grid per method.  Users without data are listed as skipped.
    The method list, the `grids` keys and the user list (neither list may
    name anything twice) are checked before any data is loaded.  A task that
    fails is a failed entry: `run_task` records a grid point's `TrotError` in
    its joined message and a task's `TrotError` as the report's `error`.
    """
    methods = [m.lower() for m in methods]
    if not methods:
        raise TrotError(f"no methods given; choose from {', '.join(METHODS)}")
    unknown = [m for m in [*methods, *(grids or ())] if m not in METHODS]
    if unknown:
        raise TrotError(f"unknown methods: {', '.join(map(str, unknown))}")
    for kind, names in (("methods", methods), ("users", users or ())):
        repeated = [name for name, count in Counter(names).items() if count > 1]
        if repeated:
            raise TrotError(f"repeated {kind}: {', '.join(map(str, repeated))}")
    if isinstance(data, (str, Path)):
        directory = Path(data)
        if users is None:
            users = sorted(p.stem for p in directory.glob("*.csv"))
        paths = {user: directory / f"{user}.csv" for user in users}
        datasets = {user: load_features(path, user) for user, path in paths.items() if path.exists()}
    else:
        datasets = dict(data)
    if users is None:
        users = sorted(datasets)
    skipped = [u for u in users if u not in datasets]
    users = sorted(u for u in users if u in datasets)
    if len(users) < 2:
        raise InsufficientDataError("insufficient data: need at least 2 users")

    # every spec is built first, so a grid a method cannot take fails before any task runs
    specs = [
        TaskSpec(src, tgt, method, None if grids is None else grids.get(method), seed)
        for method in methods for src in users for tgt in users if src != tgt
    ]
    tasks = []
    table: dict[str, dict[str, float | None]] = {method: {} for method in methods}
    for spec in specs:
        report = run_task(spec, datasets[spec.source_user], datasets[spec.target_user])
        tasks.append(report.to_dict())
        table[spec.method][f"{spec.source_user}->{spec.target_user}"] = report.test_accuracy
    return {
        "users": users,
        "methods": methods,
        "seed": int(seed),  # checked by TaskSpec; plain, so a numpy seed serializes
        "skipped": sorted(skipped),
        "tasks": tasks,
        "table": table,
    }


def matrix_to_json(report: dict) -> str:
    """Canonical JSON for a matrix report; deterministic for fixed inputs."""
    return json.dumps(report, sort_keys=True, indent=2)


def render_table(report: dict) -> str:
    """Aligned-text accuracy table, methods as rows and directed pairs as columns."""
    pairs = sorted({pair for row in report["table"].values() for pair in row})
    width = max(8, *(len(p) for p in pairs)) + 2
    head = "method".ljust(10) + "".join(p.rjust(width) for p in pairs)
    lines = [head, "-" * len(head)]
    for method in report["methods"]:
        row = report["table"][method]
        cells = "".join(
            ("  failed" if row.get(p) is None else f"{row[p]:.4f}").rjust(width) for p in pairs
        )
        lines.append(method.ljust(10) + cells)
    return "\n".join(lines)
