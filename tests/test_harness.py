import numpy as np
import pytest

from trot import harness
from trot.errors import DimensionMismatchError, InsufficientDataError, InvalidSampleError, TrotError
from trot.harness import (
    TaskSpec,
    default_grid,
    knn1_classify,
    matrix_to_json,
    render_table,
    run_matrix,
    run_task,
    temporal_split,
)
from trot.ot_core import TrotHyperparams
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

    def test_same_user_rejected_except_td(self):
        with pytest.raises(ValueError):
            TaskSpec("u", "u", "na")
        TaskSpec("u", "u", "td")  # allowed

    def test_failed_grid_point_recorded_not_raised(self):
        source, target = tiny_pair()
        bad = (TrotHyperparams(entropy_weight=0.1, n_states=50),)  # more states than windows
        report = run_task(TaskSpec("s", "t", "trot", bad), source, target)
        assert report.error is not None
        assert "insufficient class data" in report.error

    def test_repeated_grid_failures_reported_once_with_count(self):
        source, target = tiny_pair()
        grid = (
            TrotHyperparams(entropy_weight=0.1, n_states=50),
            TrotHyperparams(entropy_weight=0.01, n_states=50),
            TrotHyperparams(entropy_weight=0.1, n_states=60),
        )
        report = run_task(TaskSpec("s", "t", "trot", grid), source, target)
        first, second = report.error.split("; ")
        assert first.endswith("< 50 states (\u00d72)")
        assert second.endswith("< 60 states")

    def test_non_finite_source_feature_raises(self):
        # a NaN cell once scaled its column to NaN for both users, and na
        # still reported accuracy 0.5
        source, target = tiny_pair()
        source.features[3, 0] = np.nan
        with pytest.raises(InvalidSampleError, match="non-finite"):
            run_task(TaskSpec("s", "t", "na"), source, target)
        matrix = run_matrix({"s": source, "t": target}, methods=["na", "coral", "td"])
        assert all(task["status"] == "failed" for task in matrix["tasks"])

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


class TestDefaultGrids:
    def test_sizes(self):
        assert len(default_grid("trot")) == 72
        assert len(default_grid("otda")) == 9
        assert len(default_grid("ot")) == 3
        assert default_grid("na") == (None,)

    def test_otda_has_no_order_weight(self):
        assert all(h.order_weight == 0.0 for h in default_grid("otda"))
