import numpy as np
import pytest

from trot.errors import ClassAbsentError, InsufficientDataError
from trot.hmm import (
    VARIANCE_FLOOR,
    assign_dataset_states,
    assign_states,
    build_atlas,
    contiguous_runs,
    fit_activity_hmm,
)
from trot.synth import SynthSpec, generate_pair

from .conftest import make_dataset


class TestAssignStates:
    def test_cyclic_two_states(self):
        ds = make_dataset([[0.0]] * 4)
        assert assign_states(ds, 2).tolist() == [0, 1, 0, 1]

    def test_one_full_cycle(self):
        ds = make_dataset([[0.0]] * 4)
        assert assign_states(ds, 4).tolist() == [0, 1, 2, 3]

    def test_too_few_windows(self):
        ds = make_dataset([[0.0]] * 2)
        with pytest.raises(InsufficientDataError, match="insufficient class data"):
            assign_states(ds, 3)

    def test_restart_at_index_gap(self):
        feats = np.zeros((6, 1))
        ds = make_dataset(feats)
        ds.window_index = np.array([0, 1, 2, 10, 11, 12])  # two runs of 3
        assert assign_states(ds, 2).tolist() == [0, 1, 0, 0, 1, 0]

    def test_uncovered_state_raises(self):
        ds = make_dataset(np.zeros((4, 1)))
        ds.window_index = np.array([0, 2, 4, 6])  # four runs of length 1
        with pytest.raises(InsufficientDataError):
            assign_states(ds, 2)

    def test_contiguous_runs(self):
        runs = contiguous_runs(np.array([3, 4, 5, 9, 10]))
        assert [r.tolist() for r in runs] == [[0, 1, 2], [3, 4]]


class TestFitDeterministic:
    def test_alternating_point_masses(self):
        ds = make_dataset([[0.0], [10.0], [0.0], [10.0]])
        model = fit_activity_hmm(ds, 2)
        assert model.states[0].mean[0] == 0.0
        assert model.states[1].mean[0] == 10.0
        assert model.states[0].var[0] == VARIANCE_FLOOR
        assert model.transition.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_single_state_is_global_gaussian(self, rng):
        x = rng.normal(3.0, 2.0, (50, 2))
        model = fit_activity_hmm(make_dataset(x), 1)
        assert model.states[0].mean == pytest.approx(x.mean(axis=0))
        assert model.states[0].var == pytest.approx(x.var(axis=0))
        assert model.transition.tolist() == [[1.0]]

    def test_matches_parity_mle_oracle(self, rng):
        # windows alternate between N(0,1) and N(5,1); the deterministic fit
        # must equal the independent group-by-parity estimate exactly
        x = np.empty((200, 1))
        x[0::2, 0] = rng.normal(0.0, 1.0, 100)
        x[1::2, 0] = rng.normal(5.0, 1.0, 100)
        model = fit_activity_hmm(make_dataset(x), 2)
        for k in (0, 1):
            members = x[np.arange(200) % 2 == k]
            assert model.states[k].mean[0] == members.mean()
            assert model.states[k].var[0] == max(members.var(), VARIANCE_FLOOR)
        assert abs(model.states[0].mean[0] - 0.0) < 0.3
        assert abs(model.states[1].mean[0] - 5.0) < 0.3

    def test_row_stochastic_on_chain_support(self):
        model = fit_activity_hmm(make_dataset(np.zeros((8, 1))), 4)
        a = model.transition
        assert np.allclose(a.sum(axis=1), 1.0, atol=1e-9)
        idx = np.arange(4)
        off_support = np.ones((4, 4), dtype=bool)
        off_support[idx, idx] = False
        off_support[idx, (idx + 1) % 4] = False
        assert np.all(a[off_support] == 0.0)


class TestFitEM:
    def _noisy_alternating(self, rng, n=120, gap=6.0):
        x = np.empty((n, 1))
        x[0::2, 0] = rng.normal(0.0, 0.7, n // 2)
        x[1::2, 0] = rng.normal(gap, 0.7, n // 2)
        return make_dataset(x)

    def test_loglik_non_decreasing(self, rng):
        model = fit_activity_hmm(self._noisy_alternating(rng), 2, mode="em")
        trace = model.log_likelihood_trace
        assert len(trace) >= 2
        assert np.all(np.diff(trace) >= -1e-9)

    def test_recovers_separated_means(self, rng):
        model = fit_activity_hmm(self._noisy_alternating(rng), 2, mode="em")
        means = sorted(s.mean[0] for s in model.states)
        assert abs(means[0] - 0.0) < 0.5
        assert abs(means[1] - 6.0) < 0.5

    def test_transitions_stay_on_support(self, rng):
        model = fit_activity_hmm(self._noisy_alternating(rng), 3, mode="em")
        a = model.transition
        assert np.allclose(a.sum(axis=1), 1.0, atol=1e-9)
        idx = np.arange(3)
        allowed = np.zeros((3, 3), dtype=bool)
        allowed[idx, idx] = True
        allowed[idx, (idx + 1) % 3] = True
        assert np.all(a[~allowed] == 0.0)

    def test_viterbi_assignment_covers_states(self, rng):
        ds = self._noisy_alternating(rng)
        path = assign_states(ds, 2, mode="em")
        assert set(path.tolist()) == {0, 1}
        # on well separated data the Viterbi path matches the parity pattern
        assert path.tolist() == [t % 2 for t in range(len(ds))]


class TestBuildAtlas:
    def test_uniform_weights_and_count(self, rng):
        feats = rng.normal(0, 1, (40, 3))
        labels = np.repeat([0, 1], 20)
        atlas = build_atlas(make_dataset(feats, labels), 4)
        assert len(atlas) == 8
        assert atlas.weights.tolist() == [0.125] * 8
        assert abs(atlas.weights.sum() - 1.0) < 1e-12

    def test_degenerate_single_state(self, rng):
        feats = rng.normal(2, 1, (10, 2))
        atlas = build_atlas(make_dataset(feats, np.zeros(10, dtype=int)), 1)
        assert len(atlas) == 1
        assert atlas.weights.tolist() == [1.0]
        assert atlas.states[0].mean == pytest.approx(feats.mean(axis=0))

    def test_canonical_ordering(self, rng):
        feats = rng.normal(0, 1, (60, 2))
        labels = np.tile(np.repeat([2, 0, 1], 10), 2)
        atlas = build_atlas(make_dataset(feats, labels), 2)
        assert [(s.class_id, s.order) for s in atlas.states] == [
            (0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)
        ]

    def test_missing_class_raises(self, rng):
        ds = make_dataset(rng.normal(0, 1, (10, 2)))
        with pytest.raises(ClassAbsentError, match="class absent"):
            build_atlas(ds, 2)

    def test_recovers_synthetic_means(self):
        spec = SynthSpec(4, 4, 200, 4, noise_std=0.3, seed=9)
        source, _, (true_atlas, _) = generate_pair(spec)
        atlas = build_atlas(source, 4)
        tol = 4 * spec.noise_std / np.sqrt(spec.windows_per_class / spec.n_states)
        for got, want in zip(atlas.states, true_atlas.states):
            assert (got.class_id, got.order) == (want.class_id, want.order)
            assert np.all(np.abs(got.mean - want.mean) < tol)

    def test_deterministic_given_inputs(self, rng):
        feats = rng.normal(0, 1, (30, 2))
        labels = np.repeat([0, 1, 2], 10)
        a1 = build_atlas(make_dataset(feats, labels), 2)
        a2 = build_atlas(make_dataset(feats, labels), 2)
        assert np.array_equal(a1.means, a2.means)
        assert np.array_equal([s.var for s in a1.states], [s.var for s in a2.states])
        assert np.array_equal(a1.classes, a2.classes)
        assert np.array_equal(a1.orders, a2.orders)

    def test_assign_dataset_states_matches_atlas(self, rng):
        feats = rng.normal(0, 1, (24, 2))
        labels = np.repeat([0, 1], 12)
        ds = make_dataset(feats, labels)
        classes, orders = assign_dataset_states(ds, 3)
        assert set(zip(classes.tolist(), orders.tolist())) == {
            (c, o) for c in (0, 1) for o in (1, 2, 3)
        }
        assert orders.min() == 1 and orders.max() == 3
