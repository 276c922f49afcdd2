import functools
import json
from dataclasses import asdict, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trot import harness, ot_core
from trot.adapt import barycentric_map, barycentric_project, coral_align, transform_samples
from trot.errors import DimensionMismatchError, InsufficientDataError, InvalidSampleError, TrotError
from trot.harness import (
    DEFAULT_GRIDS,
    AdaptReport,
    TaskSpec,
    default_grid,
    knn1_classify,
    matrix_to_json,
    render_table,
    run_matrix,
    run_task,
    temporal_split,
)
from trot.hmm import assign_dataset_states, build_atlas
from trot.ot_core import (
    TrotHyperparams,
    cost_matrix,
    gcg_solve,
    pairwise_sq_dists,
    same_order_mask,
    sinkhorn,
)
from trot.synth import SynthSpec, adversarial_user_shift, generate_pair, generate_user

from .conftest import make_dataset

TINY = SynthSpec(
    n_classes=2, n_states=2, windows_per_class=40, feature_dim=2,
    noise_std=0.1, seed=5, rounds=2,
)
TROT_GRID = tuple(
    TrotHyperparams(entropy_weight=lam, order_weight=tau, n_states=2)
    for lam in (0.01, 0.1)
    for tau in (0.0, 10.0)
)


def tiny_pair(seed=5):
    spec = SynthSpec(**{**TINY.__dict__, "seed": seed, "user_shift": None})
    spec.user_shift = adversarial_user_shift(spec)
    source, target, _ = generate_pair(spec)
    return source, target


def with_third_feature(dataset):
    """`dataset` with its first feature column repeated as a third column."""
    return replace(dataset, features=np.hstack([dataset.features, dataset.features[:, :1]]))


def reference_fit_method(method, hyper, source, validation, seed):
    """One grid point computed from scratch, with nothing shared between points."""
    if method == "na":
        return source, None, None
    if method == "td":
        return validation, None, None
    if method == "coral":
        return coral_align(source, validation), None, None
    if method in ("ot", "otda"):
        rng = np.random.default_rng(seed)
        src_sub = harness._subsample(source, rng)
        tgt_sub = harness._subsample(validation, rng)
        cost = pairwise_sq_dists(src_sub.features, tgt_sub.features)
        a = np.full(len(src_sub), 1.0 / len(src_sub))
        b = np.full(len(tgt_sub), 1.0 / len(tgt_sub))
        if method == "ot":
            coupling = sinkhorn(a, b, cost, hyper.entropy_weight)
            trace = None
        else:
            coupling, trace = gcg_solve(a, b, cost, hyper, src_sub.labels)
        transported = barycentric_project(coupling.values, tgt_sub.features)
        return replace(src_sub, features=transported), trace, coupling.converged
    src_atlas, _ = build_atlas(source, hyper.n_states)
    pseudo_labels = knn1_classify(source, validation)
    tgt_atlas, _ = build_atlas(validation.with_labels(pseudo_labels), hyper.n_states)
    cost = cost_matrix(src_atlas, tgt_atlas)
    coupling, trace = gcg_solve(
        src_atlas.weights, tgt_atlas.weights, cost, hyper,
        src_atlas.classes, same_order_mask(src_atlas, tgt_atlas),
    )
    mapped = barycentric_map(coupling, src_atlas, tgt_atlas)
    assignment = assign_dataset_states(source, hyper.n_states)
    return transform_samples(source, assignment, mapped), trace, coupling.converged


def mixed_grid(method, points):
    """(n_states, lambda, eta, tau) points, keeping only the fields `method`'s
    `DEFAULT_GRIDS` entry searches (the rest stay at their defaults)."""
    names = ("n_states", "entropy_weight", "group_weight", "order_weight")
    return tuple(
        TrotHyperparams(**{name: v for name, v in zip(names, point) if name in DEFAULT_GRIDS[method]})
        for point in points
    )


class TestKnn:
    def test_self_match(self):
        train = make_dataset([[1.0], [2.0]], labels=[7, 8])
        assert knn1_classify(train, train).tolist() == [7, 8]

    def test_nearer_prototype(self):
        train = make_dataset([[0.0], [10.0]], labels=[0, 1])
        assert knn1_classify(train, make_dataset([[1.0]])).tolist() == [0]

    def test_tie_breaks_to_lowest_index(self):
        train = make_dataset([[0.0], [10.0]], labels=[0, 1])
        assert knn1_classify(train, make_dataset([[5.0]])).tolist() == [0]

    def test_dimension_mismatch(self):
        train = make_dataset([[0.0, 1.0]], labels=[0])
        with pytest.raises(DimensionMismatchError):
            knn1_classify(train, make_dataset([[0.0]]))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        cells=st.integers(1, 40),
        n_train=st.integers(1, 12),
        dim=st.integers(1, 3),
        blocks=st.integers(0, 3),
        offset=st.sampled_from((-1, 0, 1)),
        data=st.data(),
    )
    def test_blocked_matches_full_matrix(self, cells, n_train, dim, blocks, offset, data):
        """Labels equal the argmin of the full distance matrix, for block
        sizes from one row up, queries at a multiple of the block height
        and one row either side of it (an empty query included), and
        training sets from one row to wider than a block.  Features lie on
        a small integer grid: every distance is exact, so ties between
        duplicated training rows are exact too, and go to the lowest index."""
        rows = max(1, cells // n_train)
        n_query = max(0, blocks * rows + offset)
        grid = st.integers(-2, 2)
        train = np.array(data.draw(st.lists(st.lists(grid, min_size=dim, max_size=dim),
                                            min_size=n_train, max_size=n_train)), dtype=float)
        query = np.array(data.draw(st.lists(st.lists(grid, min_size=dim, max_size=dim),
                                            min_size=n_query, max_size=n_query)), dtype=float)
        query = query.reshape(n_query, dim)
        with mock.patch.object(ot_core, "NEAREST_BLOCK_CELLS", cells):
            labels = knn1_classify(make_dataset(train, labels=np.arange(n_train)), make_dataset(query))
        assert labels.shape == (n_query,)
        assert labels.tolist() == pairwise_sq_dists(query, train).argmin(axis=1).tolist()
        assert labels.tolist() == [int((train == train[i]).all(axis=1).argmax()) for i in labels]

    def test_far_from_the_origin(self):
        # the unshifted expansion put the query at distance 0 from both rows
        train = make_dataset([[1e8], [1e8 + 1]], labels=[3, 4])
        assert knn1_classify(train, make_dataset([[1e8 + 0.9]])).tolist() == [4]

    def test_empty_query(self):
        train = make_dataset([[0.0, 1.0], [1.0, 0.0]], labels=[3, 4])
        labels = knn1_classify(train, make_dataset(np.zeros((0, 2))))
        assert labels.shape == (0,) and labels.dtype == train.labels.dtype

    def test_default_block_size_matches_full_matrix(self, rng):
        # 800 training rows: 81-row blocks, the last of 400 query rows 76 high
        train = make_dataset(rng.uniform(-1, 1, (800, 2)), labels=np.arange(800))
        query = make_dataset(rng.uniform(-1, 1, (400, 2)))
        expected = pairwise_sq_dists(query.features, train.features).argmin(axis=1)
        assert np.array_equal(knn1_classify(train, query), expected)


class TestTemporalSplit:
    def test_even_split(self):
        val, test = temporal_split(make_dataset(np.zeros((10, 1))))
        assert len(val) == 5 and len(test) == 5

    def test_odd_split_validation_gets_floor(self):
        val, test = temporal_split(make_dataset(np.zeros((11, 1))))
        assert len(val) == 5 and len(test) == 6

    def test_order_preserved(self):
        ds = make_dataset(np.zeros((9, 1)), start=3)
        val, test = temporal_split(ds)
        assert np.all(np.diff(val.window_index) > 0)
        assert np.all(np.diff(test.window_index) > 0)
        assert val.window_index.max() < test.window_index.min()

    def test_too_small(self):
        with pytest.raises(InsufficientDataError):
            temporal_split(make_dataset(np.zeros((1, 1))))


class TestRunTask:
    def test_td_hits_ceiling(self):
        # distinct per-class clusters: target-domain 1-NN is the oracle bound
        source, target = tiny_pair()
        report = run_task(TaskSpec("s", "t", "td"), source, target)
        assert report.test_accuracy == 1.0

    def test_na_fooled_by_adversarial_shift(self):
        source, target = tiny_pair()
        report = run_task(TaskSpec("s", "t", "na"), source, target)
        assert report.test_accuracy <= 0.5

    def test_trot_recovers_adversarial_shift(self):
        source, target = tiny_pair()
        report = run_task(TaskSpec("s", "t", "trot", TROT_GRID), source, target)
        assert report.test_accuracy >= 0.95
        assert report.chosen_hyper.order_weight > 0
        assert np.all(np.diff(report.objective_trace) <= 1e-12)

    @pytest.mark.parametrize(
        "method, grid, converged",
        [
            ("na", None, None),
            ("coral", None, None),
            ("td", None, None),
            ("ot", (TrotHyperparams(entropy_weight=0.1),), True),
            ("otda", (TrotHyperparams(entropy_weight=0.1, group_weight=0.1),), True),
            ("trot", TROT_GRID, True),
            ("ot", (TrotHyperparams(entropy_weight=1e-4),), False),
            ("otda", (TrotHyperparams(entropy_weight=1e-4, group_weight=0.1),), False),
        ],
    )
    def test_report_carries_selected_solve_converged(self, monkeypatch, method, grid, converged):
        # an unconverged transport solve once gave a report like a converged one
        if converged is False:  # starve every Sinkhorn solve of its budget
            starved = functools.partial(sinkhorn, max_iters=3)
            monkeypatch.setattr(ot_core, "sinkhorn", starved)
            monkeypatch.setattr(harness, "sinkhorn", starved)
        source, target = tiny_pair()
        spec = TaskSpec("t" if method == "td" else "s", "t", method, grid)
        report = run_task(spec, source, target)
        assert report.error is None
        assert report.converged is converged
        assert report.to_dict()["converged"] is converged

    @pytest.mark.parametrize("method", ["ot", "otda", "trot"])
    def test_report_holds_the_whole_grid_point(self, method):
        # the report once left out two fields of the setting it ran
        source, target = tiny_pair()
        grid = mixed_grid(method, [(2, 1.0, 0.1, 1.0)])
        report = run_task(TaskSpec("s", "t", method, grid), source, target)
        assert report.to_dict()["chosen_hyper"] == asdict(report.chosen_hyper)

    def test_same_user_rejected_except_td(self):
        with pytest.raises(ValueError):
            TaskSpec("u", "u", "na")
        TaskSpec("u", "u", "td")  # allowed

    def test_coral_on_one_window_validation_half_reports_insufficient_data(self):
        # a 3-window target leaves 1 validation window: np.cov once gave NaN
        # with RuntimeWarnings and the task failed as a non-finite feature
        source, target = tiny_pair()
        report = run_task(TaskSpec("s", "t", "coral"), source, target.subset(np.arange(3)))
        assert report.error == "insufficient data: coral needs 2 windows a side, got 80 and 1"
        assert report.test_accuracy is None

    def test_failed_grid_point_recorded_not_raised(self):
        source, target = tiny_pair()
        bad = (TrotHyperparams(entropy_weight=0.1, n_states=50),)  # more states than windows
        report = run_task(TaskSpec("s", "t", "trot", bad), source, target)
        assert report.error is not None
        assert "insufficient class data" in report.error

    @pytest.mark.parametrize("states", [(50, 50, 60), (50, 60, 50)])
    def test_repeated_grid_failures_reported_once_with_count(self, states):
        # (50, 60, 50): a failed preparation is not cached, so both 50s fail alike
        source, target = tiny_pair()
        grid = tuple(
            TrotHyperparams(entropy_weight=lam, n_states=n) for lam, n in zip((0.1, 0.01, 0.1), states)
        )
        report = run_task(TaskSpec("s", "t", "trot", grid), source, target)
        first, second = report.error.split("; ")
        assert first.endswith("< 50 states (\u00d72)")
        assert second.endswith("< 60 states")

    def test_non_finite_source_feature_fails_the_task(self):
        # a NaN cell once scaled its column to NaN for both users, and na
        # still reported accuracy 0.5
        source, target = tiny_pair()
        source.features[3, 0] = np.nan
        report = run_task(TaskSpec("s", "t", "na"), source, target)
        assert report.error == "invalid sample: non-finite feature"
        matrix = run_matrix({"s": source, "t": target}, methods=["na", "coral", "td"])
        assert all(task["status"] == "failed" for task in matrix["tasks"])

    @pytest.mark.parametrize(
        "case, message",
        [
            ("three features", "scaler mismatch: (2,) vs 3 features"),
            ("one window", "insufficient data: need at least 2 windows to split"),
        ],
    )
    @pytest.mark.parametrize("method", ["na", "trot"])
    def test_task_level_error_is_a_failed_report(self, case, message, method):
        # each once raised out of run_task, so `trot adapt --report` wrote nothing
        source, target = tiny_pair()
        if case == "three features":
            target = with_third_feature(target)
        else:
            target = target.subset(np.arange(1))
        report = run_task(TaskSpec("s", "t", method), source, target)
        assert report.to_dict() == {**AdaptReport(report.task).to_dict(), "status": "failed",
                                    "error": message}
        assert report.timing > 0

    @pytest.mark.parametrize(
        "method, points",
        [
            (method, ((2, 1.0, 0.0, 0.0), (4, 1.0, 0.0, 10.0), (50, 1.0, 0.0, 0.0),
                      (2, 1.0, 0.1, 1.0), (4, 1.0, 0.1, 1.0)))
            for method in ("ot", "otda", "trot")
        ] + [("trot", ((50, 1.0, 0.0, 0.0), (60, 1.0, 0.0, 0.0), (50, 1.0, 0.0, 10.0)))],
    )
    def test_report_matches_per_point_reference(self, monkeypatch, method, points):
        source, target = tiny_pair()
        spec = TaskSpec("s", "t", method, mixed_grid(method, points), seed=4)
        prepared = run_task(spec, source, target).to_dict()
        monkeypatch.setattr(
            harness, "_solver",
            lambda method, source, validation, seed:
                lambda hyper: reference_fit_method(method, hyper, source, validation, seed),
        )
        assert prepared == run_task(spec, source, target).to_dict()

    def test_preparation_runs_once_per_task_or_n_states(self, monkeypatch):
        source, target = tiny_pair()
        counts = dict.fromkeys(("build_atlas", "_subsample"), 0)
        for name in counts:
            def spy(*args, _name=name, _fn=getattr(harness, name)):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(harness, name, spy)
        points = [(2, 1.0, 0.0, 0.0), (4, 1.0, 0.0, 0.0), (2, 1.0, 0.1, 1.0), (4, 1.0, 0.0, 10.0)]
        run_task(TaskSpec("s", "t", "trot", mixed_grid("trot", points)), source, target)
        assert counts == {"build_atlas": 4, "_subsample": 0}
        counts.update(build_atlas=0)
        points = [(4, 1.0, eta, 0.0) for eta in (0.0, 0.1, 1.0)]
        run_task(TaskSpec("s", "t", "otda", mixed_grid("otda", points)), source, target)
        assert counts == {"build_atlas": 0, "_subsample": 2}

    @pytest.mark.parametrize(
        "method, weights, name",
        [("ot", {"group_weight": 1.0}, "group_weight"), ("ot", {"order_weight": 0.1}, "order_weight"),
         ("otda", {"order_weight": 1.0}, "order_weight")],
    )
    def test_spec_rejects_weights_the_method_ignores(self, method, weights, name):
        # ot once ran plain OT and reported the weight; otda died inside gcg_solve
        grid = (TrotHyperparams(), TrotHyperparams(**weights))
        with pytest.raises(ValueError, match=f"{method} does not take {name} != 0.0"):
            TaskSpec("s", "t", method, grid)

    @pytest.mark.parametrize("method", ["ot", "otda", "trot"])
    def test_spec_rejects_grid_entries_that_are_not_hyperparams(self, method):
        with pytest.raises(ValueError, match=f"{method} grid entries must be TrotHyperparams"):
            TaskSpec("s", "t", method, (TrotHyperparams(), None))
        TaskSpec("s", "t", "na", (None,))  # na, td and coral take no hyperparameters

    @pytest.mark.parametrize("method", ["na", "td", "coral"])
    @pytest.mark.parametrize("entry", [1, TrotHyperparams()])
    def test_spec_rejects_a_grid_for_gridless_methods(self, method, entry):
        # an na grid of (1,) once ran every task of a matrix, then lost it to a
        # TypeError; a TrotHyperparams entry was reported as na's chosen_hyper
        with pytest.raises(ValueError, match=f"{method} takes no hyperparameters"):
            TaskSpec("s", "s" if method == "td" else "t", method, (None, entry))

    @pytest.mark.parametrize("method", ["na", "ot", "otda", "coral", "trot"])
    def test_unlabeled_source_fails_before_any_grid_point(self, monkeypatch, method):
        source, target = tiny_pair()
        monkeypatch.setattr(harness, "_solver", lambda *args: pytest.fail("a grid point ran"))
        report = run_task(TaskSpec("s", "t", method), replace(source, labels=None), target)
        assert report.error == f"source labels required for {method}"
        assert report.test_accuracy is None

    def test_source_labelled_minus_one_refused_before_run_task(self):
        # every 7th label -1 once failed all 72 trot grid points with
        # "some states received no windows", which does not mention -1
        source, _ = tiny_pair()
        labels = source.labels.copy()
        labels[::7] = -1
        with pytest.raises(InvalidSampleError, match="label -1 marks unlabelled windows.*labels=None"):
            source.with_labels(labels)

    def test_predictions_cover_test_half_only(self):
        source, target = tiny_pair()
        report = run_task(TaskSpec("s", "t", "na"), source, target)
        _, test = temporal_split(target)
        assert report.predictions["window_index"] == [int(i) for i in test.window_index]
        recomputed = np.mean(
            np.array(report.predictions["true"]) == np.array(report.predictions["predicted"])
        )
        assert report.test_accuracy == pytest.approx(float(recomputed))


class TestRunMatrix:
    def _three_users(self):
        rng = np.random.default_rng(TINY.seed)
        users = {}
        for i in range(3):
            shift = None if i == 0 else adversarial_user_shift(TINY, scale=float(i))
            ds, _ = generate_user(TINY, shift, f"u{i}", rng)
            users[f"u{i}"] = ds
        return users

    def test_pair_and_row_counts(self):
        users = self._three_users()
        report = run_matrix(users, methods=["na", "td"], seed=1)
        assert len(report["tasks"]) == 12  # 6 directed pairs x 2 methods
        for method in ("na", "td"):
            assert len(report["table"][method]) == 6

    def test_accuracies_in_range_and_recomputable(self):
        report = run_matrix(self._three_users(), methods=["na", "coral"], seed=1)
        for task in report["tasks"]:
            assert 0.0 <= task["test_accuracy"] <= 1.0
            dump = task["predictions"]
            recomputed = float(
                np.mean(np.array(dump["true"]) == np.array(dump["predicted"]))
            )
            assert task["test_accuracy"] == pytest.approx(recomputed)

    def test_deterministic_json(self):
        users = self._three_users()
        grids = {"trot": TROT_GRID}
        r1 = run_matrix(users, methods=["na", "trot"], grids=grids, seed=3)
        r2 = run_matrix(users, methods=["na", "trot"], grids=grids, seed=3)
        assert matrix_to_json(r1) == matrix_to_json(r2)

    def test_numpy_grid_serializes(self):
        # an n_states from np.arange once ran the whole matrix, then failed
        # in matrix_to_json: "Object of type int64 is not JSON serializable"
        grid = tuple(TrotHyperparams(entropy_weight=1.0, n_states=n) for n in np.arange(2, 3))
        report = run_matrix(dict(zip("st", tiny_pair())), methods=["trot"], grids={"trot": grid})
        tasks = json.loads(matrix_to_json(report))["tasks"]
        assert [(t["status"], t["chosen_hyper"]["n_states"]) for t in tasks] == [("ok", 2)] * 2

    def test_missing_user_skipped(self, tmp_path):
        from trot.preprocess import save_features

        users = self._three_users()
        for name in ("u0", "u1"):
            save_features(users[name], tmp_path / f"{name}.csv")
        report = run_matrix(tmp_path, users=["u0", "u1", "ghost"], methods=["na"])
        assert report["skipped"] == ["ghost"]
        assert report["users"] == ["u0", "u1"]

    def test_render_table_lists_all_methods(self):
        report = run_matrix(self._three_users(), methods=["na", "td"], seed=1)
        text = render_table(report)
        assert "na" in text and "td" in text and "u0->u1" in text

    @pytest.mark.parametrize(
        "methods, message",
        [([], "no methods given; choose from na, td"), (["na", "magic"], "unknown methods: magic")],
    )
    def test_rejects_bad_method_list_before_any_task(self, monkeypatch, methods, message):
        # an empty list once gave a report with no tasks, which render_table could not print
        ran = []
        monkeypatch.setattr(harness, "run_task", lambda *args: ran.append(args))
        with pytest.raises(TrotError, match=message):
            run_matrix(self._three_users(), methods=methods)
        assert ran == []

    @pytest.mark.parametrize(
        "users, methods, message",
        [
            (["u0", "u0", "u1"], ["na"], "repeated users: u0"),
            (["u2", "u1", "u2", "u1"], ["na"], "repeated users: u2, u1"),
            (None, ["na", "NA", "coral"], "repeated methods: na"),
        ],
    )
    def test_rejects_repeats_before_any_task(self, monkeypatch, users, methods, message):
        # a repeated user once ran each of its pairs twice and was listed twice
        # in "users"; na, NA once ran na twice with one "table" row
        ran = []
        monkeypatch.setattr(harness, "run_task", lambda *args: ran.append(args))
        with pytest.raises(TrotError, match=f"^{message}$"):
            run_matrix(self._three_users(), users=users, methods=methods)
        assert ran == []

    def test_rejects_repeated_users_before_loading(self, tmp_path):
        with mock.patch.object(harness, "load_features") as load:
            with pytest.raises(TrotError, match="^repeated users: a$"):
                run_matrix(tmp_path, users=["a", "a", "b"], methods=["na"])
        load.assert_not_called()

    @pytest.mark.parametrize("seed", [-1, 1.5, "3"])
    def test_rejects_bad_seed_before_any_task(self, monkeypatch, seed):
        # -1 once ran the na tasks, then raised numpy's ValueError at the
        # first ot task and lost the matrix (1.5 and "3": TypeError)
        ran = []
        monkeypatch.setattr(harness, "run_task", lambda *args: ran.append(args))
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            run_matrix(dict(zip("st", tiny_pair())), methods=["na", "ot"], seed=seed)
        assert ran == []

    def test_numpy_seed_serializes(self):
        report = run_matrix(dict(zip("st", tiny_pair())), methods=["na"], seed=np.int64(3))
        assert json.loads(matrix_to_json(report))["seed"] == 3

    def test_rejects_bad_grid_before_any_task(self, monkeypatch):
        # otda at a nonzero order weight once raised ValueError mid-matrix, and
        # a None ot grid entry raised AttributeError mid-matrix
        ran = []
        monkeypatch.setattr(harness, "run_task", lambda *args: ran.append(args))
        for method, grid, message in [
            ("otda", (TrotHyperparams(order_weight=1.0),), "otda does not take order_weight"),
            ("ot", (None,), "ot grid entries must be TrotHyperparams"),
        ]:
            with pytest.raises(ValueError, match=message):
                run_matrix(self._three_users(), methods=["na", method], grids={method: grid})
        assert ran == []

    def test_rejects_grids_for_unknown_methods_before_any_task(self, monkeypatch):
        # a "tort" grid was once silently ignored
        ran = []
        monkeypatch.setattr(harness, "run_task", lambda *args: ran.append(args))
        with pytest.raises(TrotError, match="unknown methods: tort"):
            run_matrix(self._three_users(), methods=["trot"], grids={"tort": default_grid("trot")})
        assert ran == []

    def test_mismatched_features_fail_each_task_as_before(self):
        source, target = tiny_pair()
        target = with_third_feature(target)
        report = run_matrix({"s": source, "t": target}, methods=["na", "coral", "trot"])
        empty = dict.fromkeys(
            ("chosen_hyper", "validation_accuracy", "test_accuracy", "objective_trace",
             "converged", "predictions")
        )
        assert report["tasks"] == [
            {"source": src, "target": tgt, "method": method, "status": "failed",
             "error": f"scaler mismatch: ({fit},) vs {applied} features", **empty}
            for method in ("na", "coral", "trot")
            for src, tgt, fit, applied in (("s", "t", 2, 3), ("t", "s", 3, 2))
        ]

    def test_unlabeled_source_fails_its_tasks_not_the_matrix(self):
        # otda's eta > 0 grid points once raised ValueError from gcg_solve and
        # lost every task of the matrix, na's too
        source, target = tiny_pair()
        report = run_matrix(
            {"s": replace(source, labels=None), "t": target}, methods=["na", "td", "otda"]
        )
        status = {(t["source"], t["method"]): (t["status"], t["error"]) for t in report["tasks"]}
        assert len(status) == 6
        assert status[("s", "na")] == ("failed", "source labels required for na")
        assert status[("s", "otda")] == ("failed", "source labels required for otda")
        assert status[("s", "td")][0] == "ok"  # td trains on the target's validation half
        for method in ("na", "td", "otda"):
            assert status[("t", method)] == ("failed", "target labels required for evaluation")


# each field a method may leave out of its DEFAULT_GRIDS entry: an off-default value and its flag
OFF_DEFAULT = {"n_states": (2, "--states"), "order_mode": ("matched", "--order-mode"),
               "group_weight": (1.0, "--eta"), "order_weight": (1.0, "--tau")}


class TestDefaultGrids:
    def test_grids_point_by_point_in_search_order(self):
        # validation ties go to the earliest point, so the order is part of every report
        lams, etas, taus = (0.01, 0.1, 1.0), (0.0, 0.1, 1.0), (0.0, 0.1, 1.0, 10.0)
        assert default_grid("ot") == tuple(TrotHyperparams(entropy_weight=lam) for lam in lams)
        assert default_grid("otda") == tuple(
            TrotHyperparams(entropy_weight=lam, group_weight=eta) for lam in lams for eta in etas
        )
        assert default_grid("trot") == tuple(
            TrotHyperparams(entropy_weight=lam, group_weight=eta, order_weight=tau, n_states=n)
            for n in (2, 4) for lam in lams for eta in etas for tau in taus
        )
        for method in ("na", "td", "coral"):
            assert default_grid(method) == (None,)

    @pytest.mark.parametrize(
        "method, name",
        [(m, name) for m, entry in DEFAULT_GRIDS.items() for name in OFF_DEFAULT if name not in entry],
    )
    def test_fields_a_method_does_not_search_are_refused(self, tmp_path, capsys, method, name):
        # ot and otda once ran with any n_states or order_mode and reported it as chosen
        from trot.cli import main
        from trot.preprocess import save_features

        value, flag = OFF_DEFAULT[name]
        with pytest.raises(ValueError, match=f"{method} does not take {name}"):
            TaskSpec("s", "t", method, (TrotHyperparams(entropy_weight=1.0, **{name: value}),))
        for user, dataset in zip("st", tiny_pair()):
            save_features(dataset, tmp_path / f"{user}.csv")
        argv = ["adapt", "--source", str(tmp_path / "s.csv"), "--target", str(tmp_path / "t.csv"),
                "--method", method, "--lambda", "1", flag, str(value)]
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "ValueError"
