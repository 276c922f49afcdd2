from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trot import hmm
from trot.errors import ClassAbsentError, InsufficientDataError, NumericalFailureError, TrotError
from trot.hmm import (
    EM_MAX_ITER,
    EM_TOL,
    VARIANCE_FLOOR,
    ActivityHMM,
    TemporalAtlas,
    _viterbi,
    assign_dataset_states,
    build_atlas,
    fit_activity_hmm,
    run_steps,
)
from trot.ot_core import _logsumexp
from trot.preprocess import FeatureDataset
from trot.synth import SynthSpec, generate_pair

from .conftest import make_dataset


@dataclass(frozen=True)
class ListState:
    """One state of the list-based reference atlas, tagged (class, order)."""

    mean: np.ndarray
    var: np.ndarray
    class_id: int
    order: int


def reference_runs(window_index):
    """Positions split into maximal runs of consecutive window indices."""
    breaks = np.nonzero(np.diff(window_index) != 1)[0] + 1
    return np.split(np.arange(len(window_index)), breaks)


def reference_forward_backward(log_b, log_a):
    """Per-window log-space forward-backward on a dense (N, N) transition for
    one sequence starting in state 0: (log-likelihood, state posteriors,
    expected transition counts)."""
    t_len, n = log_b.shape
    log_alpha = np.empty((t_len, n))
    log_alpha[0] = np.where(np.arange(n) == 0, log_b[0], -np.inf)
    for t in range(1, t_len):
        log_alpha[t] = log_b[t] + _logsumexp(log_alpha[t - 1][:, None] + log_a, axis=0)
    ll = _logsumexp(log_alpha[-1], axis=0)
    log_beta = np.zeros((t_len, n))
    for t in range(t_len - 2, -1, -1):
        log_beta[t] = _logsumexp(log_a + (log_b[t + 1] + log_beta[t + 1])[None, :], axis=1)
    gamma = np.exp(log_alpha + log_beta - ll)
    xi = np.zeros((n, n))
    for t in range(t_len - 1):
        xi += np.exp(
            log_alpha[t][:, None] + log_a + (log_b[t + 1] + log_beta[t + 1])[None, :] - ll
        )
    return ll, gamma, xi


def reference_viterbi(log_b, log_a):
    """Per-window Viterbi path of one sequence on a dense (N, N) transition."""
    t_len, n = log_b.shape
    score = np.where(np.arange(n) == 0, log_b[0], -np.inf)
    back = np.zeros((t_len, n), dtype=int)
    for t in range(1, t_len):
        cand = score[:, None] + log_a
        back[t] = np.argmax(cand, axis=0)
        score = log_b[t] + np.max(cand, axis=0)
    path = np.empty(t_len, dtype=int)
    path[-1] = int(np.argmax(score))
    for t in range(t_len - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return path


def dense_transition(stay):
    """The (N, N) transition matrix of a stay/advance chain."""
    return np.diag(stay) + np.roll(np.diag(1.0 - stay), 1, axis=1)


def reference_log_emissions(features, states):
    means = np.array([s.mean for s in states])
    var = np.array([s.var for s in states])
    diff = features[:, None, :] - means[None, :, :]
    return -0.5 * (np.log(2 * np.pi * var).sum(axis=1)[None, :] + (diff**2 / var).sum(axis=2))


def reference_fit_em(class_windows, states):
    """Baum-Welch on the dense transition that updates the state list one
    state at a time, run by run; returns (states, transition, trace)."""
    n_states = len(states)
    sequences = [class_windows.features[r] for r in reference_runs(class_windows.window_index)]
    support = np.eye(n_states) + np.roll(np.eye(n_states), 1, axis=1) > 0
    trans = support / support.sum(axis=1, keepdims=True)
    states = list(states)
    trace = []
    with np.errstate(divide="ignore"):
        for _ in range(EM_MAX_ITER):
            log_a = np.where(support, np.log(np.where(trans > 0, trans, 1.0)), -np.inf)
            log_a[support & (trans <= 0)] = -745.0
            total_ll = 0.0
            gamma_sum = np.zeros(n_states)
            mean_acc = np.zeros((n_states, class_windows.dim))
            xi_sum = np.zeros((n_states, n_states))
            gammas = []
            for seq in sequences:
                log_b = reference_log_emissions(seq, states)
                ll, gamma, xi = reference_forward_backward(log_b, log_a)
                total_ll += ll
                gamma_sum += gamma.sum(axis=0)
                mean_acc += gamma.T @ seq
                xi_sum += xi
                gammas.append(gamma)
            if not np.isfinite(total_ll):
                raise NumericalFailureError("numerical failure: non-finite likelihood")
            trace.append(total_ll)
            if len(trace) > 1 and trace[-1] - trace[-2] < EM_TOL:
                break
            for k in range(n_states):
                if gamma_sum[k] < 1e-12:
                    continue
                mean = mean_acc[k] / gamma_sum[k]
                sq = sum(g[:, k] @ (seq - mean) ** 2 for g, seq in zip(gammas, sequences))
                var = np.maximum(sq / gamma_sum[k], VARIANCE_FLOOR)
                states[k] = replace(states[k], mean=mean, var=var)
            xi_sup = np.where(support, xi_sum, 0.0)
            rows = xi_sup.sum(axis=1, keepdims=True)
            trans = np.where(rows > 0, xi_sup / np.where(rows > 0, rows, 1.0), trans)
    return states, trans, np.array(trace)


def reference_assign_states(class_windows, n_states, mode):
    runs = reference_runs(class_windows.window_index)
    if mode == "deterministic":
        if len(class_windows) < n_states:
            raise InsufficientDataError(
                f"insufficient class data: {len(class_windows)} windows < {n_states} states"
            )
        path = np.concatenate([np.arange(len(r)) for r in runs]) % n_states
    else:
        states, trans, _ = reference_fit(class_windows, n_states, mode, class_id=-1)
        with np.errstate(divide="ignore"):
            log_a = np.log(trans)
        path = np.concatenate([
            reference_viterbi(reference_log_emissions(class_windows.features[r], states), log_a)
            for r in runs
        ])
    if len(np.unique(path)) < n_states:
        raise InsufficientDataError("insufficient class data: some states received no windows")
    return path


def reference_fit(class_windows, n_states, mode, class_id):
    """(state list, transition, trace) of one activity, one state object per
    order; the deterministic fit has no trace."""
    path = reference_assign_states(class_windows, n_states, "deterministic")
    states = []
    for k in range(n_states):
        members = class_windows.features[path == k]
        var = np.maximum(members.var(axis=0), VARIANCE_FLOOR)
        states.append(ListState(members.mean(axis=0), var, class_id, k + 1))
    if mode == "deterministic":
        return states, np.roll(np.eye(n_states), 1, axis=1), None
    return reference_fit_em(class_windows, states)


def reference_build_atlas(dataset, n_states, mode):
    """(means, classes, orders) rebuilt from the list of state objects."""
    if dataset.labels is None:
        raise ClassAbsentError("class absent: dataset has no labels")
    states = []
    for c in np.unique(dataset.labels):
        subset = dataset.subset(np.nonzero(dataset.labels == c)[0])
        states.extend(reference_fit(subset, n_states, mode, class_id=int(c))[0])
    return (
        np.array([s.mean for s in states]),
        np.array([s.class_id for s in states]),
        np.array([s.order for s in states]),
    )


def reference_assign_dataset_states(dataset, n_states, mode):
    if dataset.labels is None:
        raise ClassAbsentError("class absent: dataset has no labels")
    orders = np.zeros(len(dataset), dtype=int)
    for c in np.unique(dataset.labels):
        idx = np.nonzero(dataset.labels == c)[0]
        orders[idx] = reference_assign_states(dataset.subset(idx), n_states, mode) + 1
    return dataset.labels.copy(), orders


def reference_atlas_rows(dataset, n_states, mode):
    """Each window's atlas row, found by matching its (class, order) pair
    against the reference atlas's."""
    window_classes, window_orders = reference_assign_dataset_states(dataset, n_states, mode)
    _, classes, orders = reference_build_atlas(dataset, n_states, mode)
    match = (window_classes[:, None] == classes) & (window_orders[:, None] == orders)
    assert match.sum(axis=1).tolist() == [1] * len(dataset)
    return match.argmax(axis=1)


@st.composite
def labelled_streams(draw):
    """Small labelled streams: 1-4 classes of 1-12 windows each, laid out in
    blocks, round robin or shuffled, with optional gaps in `window_index`, or
    in blocks that each hold one long run among one-window runs."""
    n_classes = draw(st.integers(1, 4))
    # -1 marks an unlabelled window, which FeatureDataset refuses as a label
    values = draw(st.lists(st.integers(-3, 9).filter(lambda v: v != -1),
                           min_size=n_classes, max_size=n_classes, unique=True))
    sizes = draw(st.lists(st.integers(1, 12), min_size=n_classes, max_size=n_classes))
    layout = draw(st.sampled_from(["blocks", "round_robin", "shuffled", "long_run"]))
    gap_rate = draw(st.sampled_from([0.0, 0.1, 0.4]))
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = np.repeat(values, sizes)
    if layout == "round_robin":
        labels = labels[np.argsort(np.concatenate([np.arange(n) for n in sizes]), kind="stable")]
    elif layout == "shuffled":
        labels = rng.permutation(labels)
    steps = np.where(rng.uniform(size=len(labels)) < gap_rate, rng.integers(2, 5, len(labels)), 1)
    if layout == "long_run":
        # in each class block, windows first..first + length - 1 form one run
        # and every other window is a run of its own
        length = [draw(st.integers(1, n)) for n in sizes]
        first = np.repeat([draw(st.integers(0, n - m)) for n, m in zip(sizes, length)], sizes)
        within = np.concatenate([np.arange(n) for n in sizes]) - first
        steps = np.where((within > 0) & (within < np.repeat(length, sizes)), 1, 2)
    features = rng.normal(0.0, 1.0, (len(labels), dim)) + 3.0 * labels[:, None]
    return FeatureDataset(features, labels, np.cumsum(steps), "u")


# one class in runs of 2, 4 and 1 windows, which the batched passes take
# longest first
SHORT_RUN_FIRST = FeatureDataset(
    np.random.default_rng(5).normal(0.0, 1.0, (7, 2)), np.zeros(7, dtype=int),
    np.array([0, 1, 3, 4, 5, 6, 8]), "u",
)

# one class whose em chain of 3 states has a Viterbi path through the first 2 only
EM_EMPTY_STATE = FeatureDataset(
    np.array([[5.2], [3.8], [4.8], [5.4], [-1.2], [0.8], [-0.1], [-1.0]]), np.zeros(8, dtype=int),
    np.arange(8), "u",
)


def outcome(fn, *args):
    """The arrays `fn` returns (an atlas as its three fields, a chain as its
    means, variances, dense transition and trace), or what it raises."""
    try:
        result = fn(*args)
    except Exception as exc:  # compared, not swallowed
        return exc
    if isinstance(result, tuple) and isinstance(result[0], TemporalAtlas):
        result = result[0]  # build_atlas's rows are compared through assign_dataset_states
    if isinstance(result, TemporalAtlas):
        return result.means, result.classes, result.orders
    if isinstance(result, ActivityHMM):
        trace = result.log_likelihood_trace
        return result.means, result.var, dense_transition(result.stay), trace
    return result


def reference_fit_outcome(class_windows, n_states, mode):
    try:
        states, trans, trace = reference_fit(class_windows, n_states, mode, class_id=-1)
    except Exception as exc:  # compared, not swallowed
        return exc
    return np.array([s.mean for s in states]), np.array([s.var for s in states]), trans, trace


def assert_same_outcome(got, want, exact=True):
    """Same error, or arrays of the same dtype whose values are equal, or
    (unless `exact`) floats within 1e-10 and integers equal."""
    if isinstance(got, Exception) or isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
            continue
        assert g.dtype == w.dtype
        if exact or g.dtype.kind != "f":
            assert np.array_equal(g, w)
        else:
            assert g.shape == w.shape
            assert np.allclose(g, w, rtol=1e-10, atol=1e-10)


def one_class(features):
    """A labelled dataset of one class, whose atlas rows are its chain states."""
    return make_dataset(features, np.zeros(len(features), dtype=int))


class TestAssignStates:
    def test_cyclic_two_states(self):
        ds = one_class([[0.0]] * 4)
        assert assign_dataset_states(ds, 2).tolist() == [0, 1, 0, 1]

    def test_one_full_cycle(self):
        ds = one_class([[0.0]] * 4)
        assert assign_dataset_states(ds, 4).tolist() == [0, 1, 2, 3]

    def test_too_few_windows(self):
        ds = one_class([[0.0]] * 2)
        with pytest.raises(InsufficientDataError, match="insufficient class data"):
            assign_dataset_states(ds, 3)

    def test_restart_at_index_gap(self):
        feats = np.zeros((6, 1))
        ds = one_class(feats)
        ds.window_index = np.array([0, 1, 2, 10, 11, 12])  # two runs of 3
        assert assign_dataset_states(ds, 2).tolist() == [0, 1, 0, 0, 1, 0]

    def test_uncovered_state_raises(self):
        ds = one_class(np.zeros((4, 1)))
        ds.window_index = np.array([0, 2, 4, 6])  # four runs of length 1
        with pytest.raises(InsufficientDataError):
            assign_dataset_states(ds, 2)

    def test_run_steps(self):
        steps = run_steps(np.array([3, 4, 5, 9, 10, 12]))
        assert steps.tolist() == [0, 1, 2, 0, 1, 0]


class TestFitDeterministic:
    def test_alternating_point_masses(self):
        ds = make_dataset([[0.0], [10.0], [0.0], [10.0]])
        model = fit_activity_hmm(ds, 2)
        assert model.means[0][0] == 0.0
        assert model.means[1][0] == 10.0
        assert model.var[0][0] == VARIANCE_FLOOR
        assert model.stay.tolist() == [0.0, 0.0]

    def test_single_state_is_global_gaussian(self, rng):
        x = rng.normal(3.0, 2.0, (50, 2))
        model = fit_activity_hmm(make_dataset(x), 1)
        assert model.means[0] == pytest.approx(x.mean(axis=0))
        assert model.var[0] == pytest.approx(x.var(axis=0))
        assert model.stay.tolist() == [0.0]

    def test_matches_parity_mle_oracle(self, rng):
        # windows alternate between N(0,1) and N(5,1); the deterministic fit
        # must equal the independent group-by-parity estimate exactly
        x = np.empty((200, 1))
        x[0::2, 0] = rng.normal(0.0, 1.0, 100)
        x[1::2, 0] = rng.normal(5.0, 1.0, 100)
        model = fit_activity_hmm(make_dataset(x), 2)
        for k in (0, 1):
            members = x[np.arange(200) % 2 == k]
            assert model.means[k][0] == members.mean()
            assert model.var[k][0] == max(members.var(), VARIANCE_FLOOR)
        assert abs(model.means[0][0] - 0.0) < 0.3
        assert abs(model.means[1][0] - 5.0) < 0.3

    def test_chain_always_advances(self):
        model = fit_activity_hmm(make_dataset(np.zeros((8, 1))), 4)
        assert model.stay.tolist() == [0.0] * 4


class TestFitEM:
    def _noisy_alternating(self, rng, n=120, gap=6.0):
        x = np.empty((n, 1))
        x[0::2, 0] = rng.normal(0.0, 0.7, n // 2)
        x[1::2, 0] = rng.normal(gap, 0.7, n // 2)
        return one_class(x)

    def test_loglik_non_decreasing(self, rng):
        model = fit_activity_hmm(self._noisy_alternating(rng), 2, mode="em")
        trace = model.log_likelihood_trace
        assert len(trace) >= 2
        assert np.all(np.diff(trace) >= -1e-9)

    def test_recovers_separated_means(self, rng):
        model = fit_activity_hmm(self._noisy_alternating(rng), 2, mode="em")
        means = sorted(m[0] for m in model.means)
        assert abs(means[0] - 0.0) < 0.5
        assert abs(means[1] - 6.0) < 0.5

    def test_stay_probabilities_in_unit_interval(self, rng):
        model = fit_activity_hmm(self._noisy_alternating(rng), 3, mode="em")
        assert model.stay.shape == (3,)
        assert np.all((model.stay >= 0.0) & (model.stay <= 1.0))

    def test_viterbi_assignment_covers_states(self, rng):
        ds = self._noisy_alternating(rng)
        path = assign_dataset_states(ds, 2, mode="em")
        assert set(path.tolist()) == {0, 1}
        # on well separated data the Viterbi path matches the parity pattern
        assert path.tolist() == [t % 2 for t in range(len(ds))]

    def test_viterbi_ties_go_to_lower_predecessor(self):
        # at 0.5 both states emit alike and staying costs what advancing does,
        # so each step ties; as argmax over the dense transition's rows did,
        # state 0 stays rather than arriving from 1, and state 1 arrives from 0
        model = ActivityHMM(np.array([[0.0], [1.0]]), np.ones((2, 1)), np.array([0.5, 0.5]))
        ds = make_dataset([[0.5], [0.5], [0.5], [1.0]])
        path = _viterbi(ds, model)
        assert path.tolist() == [0, 0, 0, 1]
        states = [ListState(m, v, 0, k + 1) for k, (m, v) in enumerate(zip(model.means, model.var))]
        log_b = reference_log_emissions(ds.features, states)
        assert np.array_equal(path, reference_viterbi(log_b, np.log(dense_transition(model.stay))))


class TestBuildAtlas:
    def test_uniform_weights_and_count(self, rng):
        feats = rng.normal(0, 1, (40, 3))
        labels = np.repeat([0, 1], 20)
        atlas, _ = build_atlas(make_dataset(feats, labels), 4)
        assert len(atlas) == 8
        assert atlas.weights.tolist() == [0.125] * 8
        assert abs(atlas.weights.sum() - 1.0) < 1e-12

    def test_degenerate_single_state(self, rng):
        feats = rng.normal(2, 1, (10, 2))
        atlas, _ = build_atlas(make_dataset(feats, np.zeros(10, dtype=int)), 1)
        assert len(atlas) == 1
        assert atlas.weights.tolist() == [1.0]
        assert atlas.means[0] == pytest.approx(feats.mean(axis=0))

    @pytest.mark.parametrize("values", [[2, 0, 1], [9, 3, 7]])
    def test_canonical_ordering(self, rng, values):
        feats = rng.normal(0, 1, (60, 2))
        labels = np.tile(np.repeat(values, 10), 2)
        atlas, _ = build_atlas(make_dataset(feats, labels), 2)
        low, mid, high = sorted(values)
        assert list(zip(atlas.classes.tolist(), atlas.orders.tolist())) == [
            (low, 1), (low, 2), (mid, 1), (mid, 2), (high, 1), (high, 2)
        ]

    def test_missing_class_raises(self, rng):
        ds = make_dataset(rng.normal(0, 1, (10, 2)))
        with pytest.raises(ClassAbsentError, match="class absent"):
            build_atlas(ds, 2)

    def test_recovers_synthetic_means(self):
        spec = SynthSpec(4, 4, 200, 4, noise_std=0.3, seed=9)
        source, _, (true_atlas, _) = generate_pair(spec)
        atlas, _ = build_atlas(source, 4)
        tol = 4 * spec.noise_std / np.sqrt(spec.windows_per_class / spec.n_states)
        assert np.array_equal(atlas.classes, true_atlas.classes)
        assert np.array_equal(atlas.orders, true_atlas.orders)
        for got, want in zip(atlas.means, true_atlas.means):
            assert np.all(np.abs(got - want) < tol)

    def test_deterministic_given_inputs(self, rng):
        feats = rng.normal(0, 1, (30, 2))
        labels = np.repeat([0, 1, 2], 10)
        a1, _ = build_atlas(make_dataset(feats, labels), 2)
        a2, _ = build_atlas(make_dataset(feats, labels), 2)
        assert np.array_equal(a1.means, a2.means)
        assert np.array_equal(a1.classes, a2.classes)
        assert np.array_equal(a1.orders, a2.orders)

    def test_assign_dataset_states_matches_atlas(self, rng):
        feats = rng.normal(0, 1, (24, 2))
        labels = np.repeat([0, 1], 12)
        ds = make_dataset(feats, labels)
        atlas, _ = build_atlas(ds, 3)
        rows = assign_dataset_states(ds, 3)
        assert rows.tolist() == [0, 1, 2] * 4 + [3, 4, 5] * 4
        assert np.array_equal(atlas.classes[rows], labels)
        assert np.array_equal(atlas.orders[rows], np.arange(24) % 3 + 1)


class TestOneFitPerClass:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @example(dataset=EM_EMPTY_STATE, n_states=3, mode="em")
    @given(dataset=labelled_streams(), n_states=st.integers(1, 4),
           mode=st.sampled_from(["deterministic", "em"]))
    def test_rows_are_the_assignment(self, dataset, n_states, mode):
        try:
            atlas, rows = build_atlas(dataset, n_states, mode)
        except TrotError:
            return  # failures are compared with the reference's below
        assert np.array_equal(atlas.classes[rows], dataset.labels)
        assigned = outcome(assign_dataset_states, dataset, n_states, mode)
        if isinstance(assigned, Exception):
            # only an em path can leave a state of a fitted chain empty
            assert mode == "em" and np.bincount(rows, minlength=len(atlas)).min() == 0
        else:
            assert np.array_equal(rows, assigned)

    def test_em_fits_each_class_once_and_returns_its_viterbi_rows(self, monkeypatch, rng):
        labels = np.repeat([4, 1, 7], 12)
        ds = make_dataset(rng.normal(0, 1, (36, 2)) + 3.0 * labels[:, None], labels)
        fit_em, fitted = hmm._fit_em, []

        def spy(class_windows, means, var):
            fitted.append(len(class_windows))
            return fit_em(class_windows, means, var)

        monkeypatch.setattr(hmm, "_fit_em", spy)
        atlas, rows = build_atlas(ds, 2, "em")
        assert fitted == [12, 12, 12]
        assert np.array_equal(assign_dataset_states(ds, 2, "em"), rows)
        assert len(fitted) == 6
        monkeypatch.undo()
        for position, c in enumerate([1, 4, 7]):
            idx = np.nonzero(labels == c)[0]
            subset = ds.subset(idx)
            path = _viterbi(subset, fit_activity_hmm(subset, 2, "em"))
            assert np.array_equal(rows[idx], 2 * position + path)
        assert np.array_equal(atlas.classes[rows], labels)


class TestMatchesListReference:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @example(dataset=SHORT_RUN_FIRST, n_states=2, mode="em")
    @example(dataset=SHORT_RUN_FIRST, n_states=3, mode="em")
    @example(dataset=EM_EMPTY_STATE, n_states=3, mode="em")
    @given(dataset=labelled_streams(), n_states=st.integers(1, 4),
           mode=st.sampled_from(["deterministic", "em"]))
    def test_matches_per_state_list(self, dataset, n_states, mode):
        # the atlas was once a list of per-state objects fitted with a dense
        # transition matrix, one window at a time; the arrays must hold what
        # that list held (exactly in deterministic mode, within rounding in
        # em mode), give the same state paths and fail the same way
        exact = mode == "deterministic"
        for c in np.unique(dataset.labels):
            subset = dataset.subset(np.nonzero(dataset.labels == c)[0])
            assert_same_outcome(
                outcome(fit_activity_hmm, subset, n_states, mode),
                reference_fit_outcome(subset, n_states, mode),
                exact,
            )
        assert_same_outcome(
            outcome(build_atlas, dataset, n_states, mode),
            outcome(reference_build_atlas, dataset, n_states, mode),
            exact,
        )
        assert_same_outcome(
            outcome(assign_dataset_states, dataset, n_states, mode),
            outcome(reference_atlas_rows, dataset, n_states, mode),
        )
