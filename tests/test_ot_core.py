import functools
import tracemalloc
from dataclasses import asdict
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trot import ot_core
from trot.errors import DimensionMismatchError, NumericalFailureError
from trot.harness import knn1_classify, temporal_split
from trot.hmm import build_atlas
from trot.ot_core import (
    Coupling,
    TrotHyperparams,
    cost_matrix,
    entropy,
    gcg_solve,
    group_sparse,
    pairwise_sq_dists,
    same_order_mask,
    sinkhorn,
    temporal_reg,
    _violation,
)
from trot.preprocess import fit_maxabs, maxabs_fit_apply
from trot.synth import SynthSpec, adversarial_user_shift, generate_pair

from .conftest import make_atlas


def exact_ot_cost(a, b, cost):
    """Brute-force optimum over permutation couplings (uniform marginals)."""
    n = len(a)
    best = np.inf
    for perm in permutations(range(n)):
        best = min(best, sum(cost[i, perm[i]] for i in range(n)) / n)
    return best


class TestCostMatrix:
    def test_direct_arithmetic(self):
        src = make_atlas([[0, 0], [1, 0]], [0, 0], [1, 2])
        tgt = make_atlas([[0, 0], [0, 2]], [0, 0], [1, 2])
        assert cost_matrix(src, tgt).tolist() == [[0.0, 4.0], [1.0, 5.0]]

    def test_identity_zero_diagonal(self, rng):
        atlas = make_atlas(rng.normal(0, 1, (4, 3)), [0] * 4, [1, 2, 3, 4])
        assert np.allclose(np.diag(cost_matrix(atlas, atlas)), 0.0)

    def test_homogeneous_scaling(self, rng):
        m = rng.normal(0, 1, (3, 2))
        a1 = make_atlas(m, [0] * 3, [1, 2, 3])
        a2 = make_atlas(2 * m, [0] * 3, [1, 2, 3])
        b1 = make_atlas(m + 1, [0] * 3, [1, 2, 3])
        b2 = make_atlas(2 * (m + 1), [0] * 3, [1, 2, 3])
        assert np.allclose(cost_matrix(a2, b2), 4 * cost_matrix(a1, b1))


class TestEntropy:
    def test_uniform_two_by_two(self):
        value, _ = entropy(np.full((2, 2), 0.25))
        assert value == pytest.approx(np.log(0.25) - 1, abs=1e-12)

    def test_one_hot_zero_log_zero(self):
        value, grad = entropy(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert value == pytest.approx(-1.0)
        assert grad[0, 1] == -745.0

    def test_gradient_at_uniform(self):
        _, grad = entropy(np.full((2, 2), 0.25))
        assert np.allclose(grad, np.log(0.25))


class TestGroupSparse:
    def test_singleton_groups_reduce_to_l1(self):
        gamma = np.array([[0.5, 0.0], [0.0, 0.5]])
        value, _ = group_sparse(gamma, np.array([0, 1]))
        assert value == pytest.approx(1.0)

    def test_zero_coupling(self):
        value, sub = group_sparse(np.zeros((2, 2)), np.array([0, 0]))
        assert value == 0.0
        assert np.all(sub == 0.0)

    def test_three_four_five(self):
        gamma = np.array([[0.3], [0.4]])
        value, sub = group_sparse(gamma, np.array([0, 0]))
        assert value == pytest.approx(0.5)
        assert sub[:, 0] == pytest.approx([0.6, 0.8])


class TestTemporalReg:
    def _groups(self):
        # single class, orders 1,2 on both sides
        src = make_atlas([[0, 0], [0, 1]], [0, 0], [1, 2])
        tgt = make_atlas([[1, 0], [1, 1]], [0, 0], [1, 2])
        return same_order_mask(src, tgt)

    def test_no_order_violating_mass(self):
        gamma = np.array([[0.5, 0.0], [0.0, 0.5]])
        value, _ = temporal_reg(gamma, self._groups(), "mismatched")
        assert value == 0.0

    def test_all_mass_mismatched(self):
        gamma = np.array([[0.0, 0.5], [0.5, 0.0]])
        value, _ = temporal_reg(gamma, self._groups(), "mismatched")
        assert value == pytest.approx(1.0)

    def test_matched_mode_is_literal_formula(self):
        gamma = np.array([[0.5, 0.0], [0.0, 0.5]])
        value, _ = temporal_reg(gamma, self._groups(), "matched")
        assert value == pytest.approx(1.0)
        with pytest.raises(ValueError, match="unknown mode 'Matched'"):
            temporal_reg(gamma, self._groups(), "Matched")

    @pytest.mark.parametrize("dtype", [int, float])
    def test_mask_must_be_boolean(self, dtype):
        # ~ of an int 0/1 mask is a bitwise not (-1, -2: both true), so every
        # entry was once penalized; a float mask raised numpy's raw TypeError
        gamma = np.array([[0.5, 0.0], [0.0, 0.5]])
        mask = self._groups().astype(dtype)
        message = f"boolean mask, got dtype {np.dtype(dtype)}"
        with pytest.raises(ValueError, match=message):
            temporal_reg(gamma, mask, "mismatched")
        hyper = TrotHyperparams(entropy_weight=1.0, order_weight=1.0)
        with pytest.raises(ValueError, match=message):
            gcg_solve(np.full(2, 0.5), np.full(2, 0.5), np.ones((2, 2)), hyper, same_order=mask)

    def test_matched_sets_one_column_per_target_class(self):
        src = make_atlas(np.zeros((4, 2)), [0, 0, 1, 1], [1, 2, 1, 2])
        tgt = make_atlas(np.ones((4, 2)), [0, 0, 1, 1], [1, 2, 1, 2])
        same_order = same_order_mask(src, tgt)
        assert same_order.shape == (4, 4) and same_order.dtype == bool
        for row in same_order:
            assert sorted(tgt.classes[row]) == [0, 1]  # one per target class


def reference_group_sparse(gamma, class_groups):
    """Omega on index lists, one `np.ix_` block per class group: the
    reference that `group_sparse` is compared against."""
    value = 0.0
    sub = np.zeros_like(gamma)
    for rows in class_groups:
        block = gamma[rows]
        norms = np.sqrt((block**2).sum(axis=0))
        value += norms.sum()
        nz = norms > 0
        sub[np.ix_(rows, np.nonzero(nz)[0])] = block[:, nz] / norms[nz]
    return float(value), sub


def reference_temporal_reg(gamma, cols):
    """T on index lists, `cols[i]` holding row i's penalized columns: the
    reference that `temporal_reg` is compared against."""
    value = 0.0
    sub = np.zeros_like(gamma)
    for i, sel in enumerate(cols):
        v = gamma[i, sel]
        n = np.sqrt((v**2).sum())
        value += n
        if n > 0:
            sub[i, sel] = v / n
    return float(value), sub


def reference_index_lists(classes, src_orders, tgt_orders):
    """Source class groups and per-row matched / mismatched target columns."""
    class_groups = [np.nonzero(classes == c)[0] for c in np.unique(classes)]
    matched = [np.nonzero(tgt_orders == k)[0] for k in src_orders]
    all_cols = np.arange(len(tgt_orders))
    mismatched = [np.setdiff1d(all_cols, m, assume_unique=True) for m in matched]
    return class_groups, {"matched": matched, "mismatched": mismatched}


class TestPenaltiesMatchIndexLists:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
        n_classes=st.integers(1, 5),
        n_orders=st.integers(1, 5),
        sparsity=st.sampled_from([0.0, 0.5, 0.9, 0.99, 1.0]),
        mode=st.sampled_from(["matched", "mismatched"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_grouped_problems(self, shape, n_classes, n_orders, sparsity, mode, seed):
        # a sparse plan leaves whole class groups and masked rows at zero norm;
        # the plan's scale (1e-8 to 1) is log-uniform from the seed
        rng = np.random.default_rng(seed)
        classes = rng.integers(0, n_classes, shape[0])
        src_orders = rng.integers(1, n_orders + 1, shape[0])
        tgt_orders = rng.integers(1, n_orders + 1, shape[1])
        scale = 10 ** rng.uniform(-8, 0)
        gamma = scale * rng.uniform(size=shape) * (rng.uniform(size=shape) >= sparsity)
        class_groups, cols = reference_index_lists(classes, src_orders, tgt_orders)
        same_order = src_orders[:, None] == tgt_orders[None, :]
        for got, want in (
            (group_sparse(gamma, classes), reference_group_sparse(gamma, class_groups)),
            (temporal_reg(gamma, same_order, mode), reference_temporal_reg(gamma, cols[mode])),
        ):
            assert abs(got[0] - want[0]) <= 1e-12
            assert np.abs(got[1] - want[1]).max() <= 1e-12


def reference_sinkhorn(
    a, b, cost, entropy_weight, max_iters=10_000, tol=1e-9, check_every=None, trace=None
):
    """Plain log-domain Sinkhorn, two log-sum-exps and a full plan per
    checked iteration: the reference that `sinkhorn`'s iterates and plans
    are compared against.  By default it checks on `sinkhorn`'s cadence;
    the violation at each check is appended to `trace` if given."""
    log_k = -cost / entropy_weight
    log_a, log_b = np.log(a), np.log(b)
    u = np.zeros(len(a))
    v = np.zeros(len(b))
    if check_every is None:
        check_every = 1 if log_k.size <= 10_000 else 10
    it = 0
    for it in range(1, max_iters + 1):
        v = log_b - _reference_logsumexp(log_k + u[:, None], axis=0)
        u = log_a - _reference_logsumexp(log_k + v[None, :], axis=1)
        if it % check_every == 0 or it == max_iters:
            plan = np.exp(log_k + u[:, None] + v[None, :])
            violation = _violation(plan, a, b)
            if not np.isfinite(violation):
                raise NumericalFailureError("numerical failure: NaN in sinkhorn iterates")
            if trace is not None:
                trace.append(violation)
            if violation <= tol:
                break
    plan = np.exp(log_k + u[:, None] + v[None, :])
    violation = _violation(plan, a, b)
    return Coupling(plan, violation, it, violation <= tol)


def _reference_logsumexp(m, axis):
    mx = np.max(m, axis=axis, keepdims=True)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    with np.errstate(divide="ignore"):
        return np.squeeze(mx, axis) + np.log(np.exp(m - mx).sum(axis=axis))


def assert_same_iterates(a, b, cost, entropy_weight, max_iters=10_000, tol=1e-9):
    """`sinkhorn` against the reference up to the handover to Newton steps.

    A solve the scaling form finishes has the reference's counts, flags and
    plan; a solve it hands over hands over after as many iterations as the
    reference runs unconverged, with the reference's plan.  The reference
    rounds each exponent log_k + u + v at the magnitude of
    log_k = -cost / entropy_weight, so its plan carries a relative error of
    about eps * max|log_k|; the plans may differ by that much on top of
    1e-12.  Returns the coupling and the number of scaling-form iterations.
    """
    got = sinkhorn(a, b, cost, entropy_weight, max_iters, tol)
    log_k = -cost / entropy_weight
    u, v, handover = ot_core._scaling_sinkhorn(log_k, a, b, max_iters, tol)
    assert handover == got.iterations - got.newton_steps
    atol = 1e-12 + np.finfo(float).eps * np.abs(cost).max() / entropy_weight
    if got.newton_steps:
        ref = reference_sinkhorn(a, b, cost, entropy_weight, handover, tol)
        assert ref.iterations == handover and not ref.converged
        assert np.abs(np.exp(log_k + u[:, None] + v[None, :]) - ref.values).max() <= atol
        return got, handover
    ref = reference_sinkhorn(a, b, cost, entropy_weight, max_iters, tol)
    assert got.iterations == ref.iterations
    assert got.converged == ref.converged
    assert np.abs(got.values - ref.values).max() <= atol
    # a violation is a row or column sum, so it carries up to max(shape) plan errors
    assert abs(got.marginal_violation - ref.marginal_violation) <= max(cost.shape) * atol
    return got, got.iterations


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(ot_core, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(ot_core, name, counted)
    return calls


def random_problem(shape, seed):
    """Marginals, cost and entropy weight drawn from the seed.

    The entropy weight (1e-4 to 3), cost scale (0.01 to 30) and Dirichlet
    concentration are log-uniform: hypothesis' own floats crowd around
    simple values such as 1 and never reach the slow, small-weight solves.
    """
    rng = np.random.default_rng(seed)
    entropy_weight = 10 ** rng.uniform(-4, np.log10(3))
    cost = 10 ** rng.uniform(-2, np.log10(30)) * rng.uniform(size=shape)
    alpha = 10 ** rng.uniform(-0.5, 1)
    return rng.dirichlet(np.full(shape[0], alpha)), rng.dirichlet(np.full(shape[1], alpha)), cost, entropy_weight


def crawl_checks(a, b, cost, entropy_weight, tol=1e-9):
    """Replay `sinkhorn`'s handover rule on the reference's violations.

    Returns, per check up to the handover, whether the drop in violation
    since the previous check, continued geometrically, needs more than
    min(shape) iterations to reach `tol`; whether `sinkhorn` handed over;
    and how far, relatively, the closest call was from the threshold.
    """
    got = sinkhorn(a, b, cost, entropy_weight, tol=tol)
    handover = got.iterations - got.newton_steps
    check_every = 1 if cost.size <= 10_000 else 10
    violations = []
    reference_sinkhorn(a, b, cost, entropy_weight, handover, 0.0, trace=violations)
    previous, crawled, margin = np.inf, [], np.inf
    for violation in violations:
        margin = min(margin, abs(violation / tol - 1))
        crawls = False
        if violation > tol:
            drop = violation / previous
            needed = (tol / violation) ** (check_every / min(cost.shape))
            margin = min(margin, abs(drop / needed - 1))
            crawls = drop > needed
        crawled.append(crawls)
        previous = violation
    return crawled, got.newton_steps > 0, margin


class TestSinkhornMatchesLogDomain:
    """Up to the handover to Newton steps `sinkhorn` gives log-domain
    iterates, and it hands over at the first check where they crawl."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
        max_iters=st.sampled_from([1, 2, 3, 50]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_problems(self, shape, max_iters, seed):
        assert_same_iterates(*random_problem(shape, seed), max_iters)

    @pytest.mark.parametrize("seed, scaling_iters", [(2, 50), (8, 20), (24, 110), (35, 90)])
    def test_window_sized_problems(self, seed, scaling_iters):
        # checked every 10 iterations; seed 8 hands over at its second check,
        # the others converge in the scaling form
        _, got = assert_same_iterates(*random_problem((140, 135), seed))
        assert got == scaling_iters

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(shape=st.tuples(st.integers(2, 40), st.integers(2, 40)), seed=st.integers(0, 2**32 - 1))
    def test_hands_over_at_the_first_crawling_check(self, shape, seed):
        crawled, handed_over, margin = crawl_checks(*random_problem(shape, seed))
        assume(margin > 1e-6)  # clear of rounding
        assert crawled[-1] == handed_over
        assert not any(crawled[:-1])

    @pytest.mark.parametrize("seed", [1, 2])
    def test_window_ot_hands_over_where_it_crawls(self, seed):
        crawled, handed_over, margin = crawl_checks(*window_ot_problem(seed), 0.01)
        assert margin > 1e-6
        assert crawled == [False, True] and handed_over

    @pytest.mark.parametrize("entropy_weight", [0.1, 1.0])
    def test_fast_solves_finish_in_scaling_form(self, entropy_weight):
        # 60 and 10 iterations: a Newton step on 200x100 costs about 90
        c = sinkhorn(*window_ot_problem(1), entropy_weight)
        assert c.newton_steps == 0
        assert c.converged and c.iterations <= 60

    def test_scaling_out_of_range_hands_over(self, monkeypatch):
        # a window-sized block copy of a 3x3 cost at entropy weight 1e-3; the
        # crawl rule hands it over after 20 iterations, before its scalings
        # leave [1e-150, 1e150], so the range is narrowed to [1e-3, 1e3]:
        # iteration 11 would leave it, so the handover comes after 10
        cost = np.kron(
            [[4.0, 1.3, 0.7], [3.5, 3.2, 2.7], [3.8, 3.7, 3.0]], np.ones((43, 43))
        )
        uniform = np.full(len(cost), 1 / len(cost))
        monkeypatch.setattr(ot_core, "SCALING_MIN", 1e-3)
        monkeypatch.setattr(ot_core, "SCALING_MAX", 1e3)
        coupling, handover = assert_same_iterates(uniform, uniform, cost, 1e-3)
        assert handover == 10
        assert coupling.converged and coupling.iterations == 32

    def test_column_mass_underflow_hands_over(self):
        # column 0 carries 1e-200 and sits in row 0, which row scaling shrinks
        # by another 1e-200: its column mass would underflow to 0 at iteration 2
        cost = np.array([[0.0, 0.0, 0.0], [10.0, 1.0, 1.5], [10.0, 1.2, 1.0]])
        marginal = np.array([1e-200, 0.5, 0.5])
        coupling, handover = assert_same_iterates(marginal, marginal, cost, 0.01)
        assert handover == 1
        assert coupling.converged and coupling.iterations == 2
        assert np.all(np.isfinite(coupling.values))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(shape=st.tuples(st.integers(2, 40), st.integers(2, 40)), seed=st.integers(0, 2**32 - 1))
    def test_narrowed_range_converges_to_the_same_plan(self, shape, seed):
        # at the default range no pipeline or random problem leaves it; at
        # [1e-3, 1e3] about one in 25 of these stops on the range, mostly
        # after iteration 1 where the crawl rule would stop after 2
        a, b, cost, entropy_weight = random_problem(shape, seed)
        want = sinkhorn(a, b, cost, entropy_weight)
        with mock.patch.multiple(ot_core, SCALING_MIN=1e-3, SCALING_MAX=1e3):
            got = sinkhorn(a, b, cost, entropy_weight)
        assert want.converged and got.converged
        assert np.abs(got.values - want.values).max() <= 1e-8

    def test_nan_cost_raises(self):
        cost = np.array([[0.0, np.nan], [1.0, 0.0]])
        with pytest.raises(NumericalFailureError):
            sinkhorn(np.full(2, 0.5), np.full(2, 0.5), cost, 0.1)

    @pytest.mark.parametrize(
        "cost", [np.full((2, 2), np.inf), [[0.0, -np.inf], [1.0, 0.0]], [[0.0, 1.0], [np.inf, np.inf]]]
    )
    def test_unusable_cost_raises_before_iterating(self, cost):
        # an all-inf cost once warned "invalid value encountered in add" on
        # its first iteration, which tier-1 turns into an error
        with pytest.raises(NumericalFailureError, match="cost"):
            sinkhorn(np.full(2, 0.5), np.full(2, 0.5), np.asarray(cost), 0.1)


def scaled_pair(windows_per_class, seed):
    """The acceptance-criterion-7 construction (seed 11 gives that pair) as
    `run_task` sees it: the max-abs scaled source and the validation half."""
    spec = SynthSpec(
        n_classes=4, n_states=4, windows_per_class=windows_per_class, feature_dim=2,
        noise_std=0.1, seed=seed,
    )
    spec.user_shift = adversarial_user_shift(spec)
    source, target, _ = generate_pair(spec)
    scaler = fit_maxabs(source)
    validation, _ = temporal_split(maxabs_fit_apply(target, scaler))
    return maxabs_fit_apply(source, scaler), validation


def criterion_7_atlases(n_states):
    """Marginals, cost and masks of trot's atlases on the acceptance-criterion-7
    pair (task seed aside, the default-grid preparation of `harness._solver`)."""
    source, validation = scaled_pair(200, 11)
    src, _ = build_atlas(source, n_states)
    tgt, _ = build_atlas(validation.with_labels(knn1_classify(source, validation)), n_states)
    return src.weights, tgt.weights, cost_matrix(src, tgt), src.classes, same_order_mask(src, tgt)


def window_ot_problem(seed):
    """Marginals and cost of `window_ot`'s ot/otda solves: 50 windows per
    class, 200 source by 100 validation windows."""
    source, validation = scaled_pair(50, seed)
    cost = pairwise_sq_dists(source.features, validation.features)
    return np.full(len(cost), 1 / len(cost)), np.full(cost.shape[1], 1 / cost.shape[1]), cost


class TestNewtonFinish:
    """Solves not yet at `tol` when the scaling form hands over are finished by Newton steps."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        shape=st.one_of(
            st.tuples(st.integers(2, 20), st.integers(2, 20)),
            st.tuples(st.integers(65, 220), st.integers(65, 150)),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_long_run_reference(self, shape, seed):
        # entropy weights 0.005 to 0.05 on unit costs: slow for the scaling
        # form, and the reference reaches 1e-12 within its budget
        rng = np.random.default_rng(seed)
        entropy_weight = 10 ** rng.uniform(np.log10(0.005), np.log10(0.05))
        cost = rng.uniform(size=shape)
        alpha = 10 ** rng.uniform(-0.3, 1)
        a = rng.dirichlet(np.full(shape[0], alpha))
        b = rng.dirichlet(np.full(shape[1], alpha))
        got = sinkhorn(a, b, cost, entropy_weight)
        assume(got.newton_steps > 0)
        ref = reference_sinkhorn(a, b, cost, entropy_weight, 5_000, tol=1e-12, check_every=10)
        assume(ref.converged)
        assert got.converged
        assert got.marginal_violation <= 1e-9
        assert np.abs(got.values - ref.values).max() <= 1e-8

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_window_ot_solves_converge(self, seed):
        # the scaling form alone ran these into the 10,000-iteration cap,
        # unconverged at violations 6e-9 to 1e-7; they crawl from iteration
        # 20 on and take 10 Newton steps from there
        c = sinkhorn(*window_ot_problem(seed), 0.01)
        assert c.values.shape == (200, 100)
        assert c.converged
        assert c.marginal_violation <= 1e-9
        assert c.iterations < 1_000
        assert c.iterations - c.newton_steps == 20
        assert c.newton_steps <= 12

    @pytest.mark.parametrize("entropy_weight, newton_steps", [(1e-3, 40), (1e-4, 120)])
    def test_window_ot_at_small_entropy_weights(self, entropy_weight, newton_steps):
        # the scaling form alone stopped at the cap at violation 1e-6 (1e-3)
        # and 9e-4 (1e-4); Newton steps from iteration 20 take 25-27 and
        # 72-96 steps on seeds 1-5.  The plan is exp(log_k + u + v), so
        # converged marginals make it the entropic optimum.
        c = sinkhorn(*window_ot_problem(1), entropy_weight)
        assert c.converged
        assert c.marginal_violation <= 1e-9
        assert c.iterations <= 20 + newton_steps

    @pytest.mark.parametrize(
        "seed, shape", [(5047, (9, 4)), (5061, (8, 6)), (5078, (3, 3)), (5130, (19, 2))]
    )
    def test_small_entropy_weights_converge_in_few_steps(self, seed, shape):
        # cost.max() / entropy_weight of 2e4 to 1.2e5: with a Hessian shift of
        # the whole violation these once spent 10,000 iterations unconverged
        a, b, cost, entropy_weight = random_problem(shape, seed)
        assert cost.max() / entropy_weight > 1e4
        c = sinkhorn(a, b, cost, entropy_weight)
        assert c.converged
        assert c.iterations < 300

    def test_near_permutation_needs_the_shift(self):
        # a criterion-2 problem (n = 3, entropy weight 1e-3): without the
        # diagonal shift its Newton system is singular
        cost = np.array([[0.704, 0.723, 0.732], [0.517, 0.177, 0.878], [0.88, 0.71, 0.933]])
        uniform = np.full(3, 1 / 3)
        c = sinkhorn(uniform, uniform, cost, 1e-3)
        assert c.newton_steps > 0
        assert c.converged
        exact = exact_ot_cost(uniform, uniform, cost)
        assert (c.values * cost).sum() == pytest.approx(exact, rel=0.01)

    def test_underflowed_plan_needs_the_sweep(self):
        # at entropy weight 5e-4, Newton steps alone were still at violation
        # 0.05 after 2000 iterations: where the plan has underflowed a step
        # moves a dual by O(1)
        c = sinkhorn(*random_problem((8, 8), 32), max_iters=2000)
        assert c.newton_steps > 0
        assert c.converged

    @pytest.mark.parametrize("n_states", [2, 4])
    def test_gcg_on_criterion_7_atlases_converges(self, n_states):
        # at entropy weight 0.01 the scaling form ran these subproblems into
        # the 10,000-iteration cap
        a, b, cost, classes, same_order = criterion_7_atlases(n_states)
        for eta, tau in ((0.0, 0.1), (0.0, 10.0), (1.0, 1.0)):
            hyper = TrotHyperparams(entropy_weight=0.01, group_weight=eta, order_weight=tau, n_states=n_states)
            coupling, _ = gcg_solve(a, b, cost, hyper, classes, same_order)
            assert coupling.converged
            assert coupling.marginal_violation <= 1e-9


class TestNewtonStep:
    """One Newton step: the shifted, pinned Newton system and the sweep after it."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(shape=st.tuples(st.integers(2, 25), st.integers(2, 25)), seed=st.integers(0, 2**32 - 1))
    def test_direction_solves_the_shifted_pinned_system(self, shape, seed):
        # the Schur complement route against the dense (k_s + k_t) system,
        # in both orientations: the last dual of the shorter side is pinned
        # (the last v when k_s >= k_t, the last u when k_s < k_t)
        rng = np.random.default_rng(seed)
        a, b = rng.dirichlet(np.ones(shape[0])), rng.dirichlet(np.ones(shape[1]))
        plan = np.outer(a, b) * np.exp(rng.normal(size=shape))
        rows, cols = plan.sum(axis=1), plan.sum(axis=0)
        gradient = np.concatenate([rows - a, cols - b])
        shift = ot_core.NEWTON_SHIFT * np.abs(gradient).max()
        du, dv = ot_core._newton_direction(plan, rows, cols, rows - a, cols - b, shift)
        hessian = np.block([[np.diag(rows), plan], [plan.T, np.diag(cols)]])
        hessian += shift * np.eye(len(gradient))
        step = np.concatenate([du, dv])
        pinned = len(step) - 1 if shape[0] >= shape[1] else shape[0] - 1
        assert step[pinned] == 0.0
        residual = np.delete(hessian @ step + gradient, pinned)
        scale = np.delete(np.abs(hessian) @ np.abs(step) + np.abs(gradient), pinned)
        assert np.all(np.abs(residual) <= 1e-12 * scale)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(shape=st.tuples(st.integers(1, 30), st.integers(1, 30)), seed=st.integers(0, 2**32 - 1))
    def test_plan_sweep_matches_log_domain_sweep(self, shape, seed):
        # unit costs at entropy weights 0.05 to 3 and duals near log a, log b:
        # every scaling stays in range, so the scaling form must serve the sweep
        rng = np.random.default_rng(seed)
        a, b = rng.dirichlet(np.ones(shape[0])), rng.dirichlet(np.ones(shape[1]))
        log_k = -rng.uniform(size=shape) / 10 ** rng.uniform(np.log10(0.05), np.log10(3))
        u = np.log(a) + rng.normal(size=shape[0])
        v = np.log(b) + rng.normal(size=shape[1])
        want = ot_core._sweep(log_k, np.log(a), np.log(b), u)
        with mock.patch.object(ot_core, "_sweep", wraps=ot_core._sweep) as fallback:
            got = ot_core._plan_sweep(log_k, a, b, np.exp(log_k + u[:, None] + v[None, :]), u, v)
        assert not fallback.called
        # both round log_k + u + v, so the duals agree to eps at its magnitude
        atol = 16 * np.finfo(float).eps * (1 + np.abs(log_k).max() + np.abs(u).max() + np.abs(v).max())
        assert np.abs(got[0] - want[0]).max() <= atol
        assert np.abs(got[1] - want[1]).max() <= atol

    def test_narrowed_range_falls_back_to_the_log_domain(self, monkeypatch):
        # at [1e-3, 1e3] this problem hands over after 2 iterations and 10 of
        # its Newton steps' sweeps would leave the range; at the default range
        # none does, and both solves end on the same plan
        a, b, cost, entropy_weight = random_problem((8, 9), 243)
        with monkeypatch.context() as patched:
            calls = count_calls(patched, "_sweep")
            want = sinkhorn(a, b, cost, entropy_weight)
        assert len(calls) == 1  # the scaling form's first iteration
        monkeypatch.setattr(ot_core, "SCALING_MIN", 1e-3)
        monkeypatch.setattr(ot_core, "SCALING_MAX", 1e3)
        calls = count_calls(monkeypatch, "_sweep")
        got = sinkhorn(a, b, cost, entropy_weight)
        assert got.newton_steps > 0
        assert len(calls) > 1
        assert want.converged and got.converged
        assert np.abs(got.values - want.values).max() <= 1e-8


class TestSinkhorn:
    def test_zero_cost_uniform(self):
        c = sinkhorn(np.full(2, 0.5), np.full(2, 0.5), np.zeros((2, 2)), 1.0)
        assert np.allclose(c.values, 0.25)

    def test_near_permutation_at_small_entropy(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        c = sinkhorn(np.full(2, 0.5), np.full(2, 0.5), cost, 1e-3)
        assert c.values[0, 1] < 1e-3 and c.values[1, 0] < 1e-3
        exact = exact_ot_cost(np.full(2, 0.5), np.full(2, 0.5), cost)
        assert (c.values * cost).sum() == pytest.approx(exact, rel=0.01)

    def test_marginals_satisfied(self, rng):
        a = np.full(12, 1 / 12)
        b = np.full(12, 1 / 12)
        c = sinkhorn(a, b, rng.uniform(size=(12, 12)), 0.05)
        assert np.abs(c.values.sum(axis=1) - a).max() <= 1e-8
        assert np.abs(c.values.sum(axis=0) - b).max() <= 1e-8
        assert c.converged

    def test_rejects_bad_marginals(self):
        with pytest.raises(ValueError):
            sinkhorn(np.array([0.5, 0.0]), np.array([0.5, 0.5]), np.zeros((2, 2)), 0.1)
        with pytest.raises(ValueError):
            sinkhorn(np.array([0.7, 0.5]), np.array([0.5, 0.5]), np.zeros((2, 2)), 0.1)
        # NaN compares false against both checks above, so it once reached the loop
        with pytest.raises(ValueError, match="marginals"):
            sinkhorn(np.array([np.nan, 0.5]), np.array([0.5, 0.5]), np.zeros((2, 2)), 0.1)

    def test_rejects_marginals_that_are_not_1d(self):
        # a (2, 1) marginal once broadcast into a (2, 2, 2) "plan" flagged converged
        for a, b in ((np.full((2, 1), 0.5), np.full(2, 0.5)), (np.full(2, 0.5), np.full((1, 2), 0.5))):
            with pytest.raises(DimensionMismatchError, match="1-D"):
                sinkhorn(a, b, np.zeros((2, 2)), 1.0)
            with pytest.raises(DimensionMismatchError, match="1-D"):
                gcg_solve(a, b, np.zeros((2, 2)), TrotHyperparams())

    def test_rejects_cost_of_wrong_shape(self):
        a, b = np.full(2, 0.5), np.full(3, 1 / 3)
        for cost in (np.zeros((3, 2)), np.zeros((2, 1)), np.zeros(6)):
            with pytest.raises(DimensionMismatchError):
                sinkhorn(a, b, cost, 0.1)
            with pytest.raises(DimensionMismatchError):
                gcg_solve(a, b, cost, TrotHyperparams())

    def test_rejects_empty_budget(self):
        # 2.5 once ran 5 iterations flagged converged: the scaling stage's
        # `it == max_iters` was never true; NaN and inf passed `< 1`
        cost = np.random.default_rng(0).uniform(size=(8, 8))
        for max_iters in (0, 2.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="max_iters"):
                sinkhorn(np.full(8, 1 / 8), np.full(8, 1 / 8), cost, 1.0, max_iters=max_iters)

    @pytest.mark.parametrize("entropy_weight", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_entropy_weight(self, entropy_weight):
        # NaN once failed as a NaN cost and inf was accepted
        with pytest.raises(ValueError, match="entropy_weight"):
            sinkhorn(np.full(2, 0.5), np.full(2, 0.5), np.zeros((2, 2)), entropy_weight)

    @pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
    def test_rejects_bad_tol(self, tol):
        # this problem's violation is exactly 0, so the crawl test's
        # tol / violation once raised ZeroDivisionError
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="tol"):
            sinkhorn(np.full(2, 0.5), np.full(2, 0.5), cost, 0.1, tol=tol)

    def test_zero_tol_is_met_exactly(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        c = sinkhorn(np.full(2, 0.5), np.full(2, 0.5), cost, 0.1, tol=0.0)
        assert c.converged and c.marginal_violation == 0.0

    def test_unconverged_is_flagged(self, rng):
        c = sinkhorn(np.full(8, 1 / 8), np.full(8, 1 / 8), rng.uniform(size=(8, 8)), 1e-4,
                     max_iters=3)
        assert not c.converged
        assert c.marginal_violation > 1e-9


class TestSubgradients:
    def finite_difference(self, fn, gamma, eps=1e-7):
        grad = np.zeros_like(gamma)
        for idx in np.ndindex(gamma.shape):
            up, down = gamma.copy(), gamma.copy()
            up[idx] += eps
            down[idx] -= eps
            grad[idx] = (fn(up) - fn(down)) / (2 * eps)
        return grad

    def test_group_sparse_gradient(self, rng):
        classes = np.array([0, 0, 1])
        gamma = rng.uniform(0.1, 1.0, (3, 4))
        _, sub = group_sparse(gamma, classes)
        fd = self.finite_difference(lambda g: group_sparse(g, classes)[0], gamma)
        assert np.abs(sub - fd).max() / np.abs(fd).max() < 1e-5

    def test_temporal_reg_gradient(self, rng):
        src = make_atlas(np.zeros((4, 2)), [0, 0, 1, 1], [1, 2, 1, 2])
        tgt = make_atlas(np.ones((4, 2)), [0, 0, 1, 1], [1, 2, 1, 2])
        same_order = same_order_mask(src, tgt)
        gamma = rng.uniform(0.1, 1.0, (4, 4))
        for mode in ("matched", "mismatched"):
            _, sub = temporal_reg(gamma, same_order, mode)
            fd = self.finite_difference(lambda g: temporal_reg(g, same_order, mode)[0], gamma)
            assert np.abs(sub - fd).max() / np.abs(fd).max() < 1e-5

    def test_convexity(self, rng):
        classes = np.array([0, 0, 1, 1])
        src = make_atlas(np.zeros((4, 2)), [0, 0, 1, 1], [1, 2, 1, 2])
        tgt = make_atlas(np.ones((4, 2)), [0, 0, 1, 1], [1, 2, 1, 2])
        same_order = same_order_mask(src, tgt)
        for _ in range(50):
            g1 = rng.uniform(0, 1, (4, 4))
            g2 = rng.uniform(0, 1, (4, 4))
            t = rng.uniform()
            mix = t * g1 + (1 - t) * g2
            for fn in (
                lambda g: group_sparse(g, classes)[0],
                lambda g: temporal_reg(g, same_order, "mismatched")[0],
            ):
                assert fn(mix) <= t * fn(g1) + (1 - t) * fn(g2) + 1e-12


class TestGcg:
    def test_reduces_to_sinkhorn(self, rng):
        a, b = np.full(4, 0.25), np.full(5, 0.2)
        cost = rng.uniform(size=(4, 5))
        plain = sinkhorn(a, b, cost, 0.1)
        coup, _ = gcg_solve(a, b, cost, TrotHyperparams(entropy_weight=0.1))
        assert np.abs(coup.values - plain.values).max() <= 1e-8

    def test_trace_non_increasing_and_feasible(self, rng):
        # means kept within a unit box so the entropic subproblems stay in
        # Sinkhorn's fast linear-convergence regime
        src = make_atlas(rng.uniform(0, 0.5, (4, 2)), [0, 0, 1, 1], [1, 2, 1, 2])
        tgt = make_atlas(rng.uniform(0, 0.5, (4, 2)), [0, 0, 1, 1], [1, 2, 1, 2])
        a = b = np.full(4, 0.25)
        hyper = TrotHyperparams(entropy_weight=0.1, group_weight=0.5, order_weight=0.5)
        coup, trace = gcg_solve(
            a, b, cost_matrix(src, tgt), hyper, src.classes, same_order_mask(src, tgt)
        )
        assert np.all(np.diff(trace) <= 1e-12)
        assert coup.marginal_violation <= 1e-6

    def test_unconverged_directions_flagged(self, rng, monkeypatch):
        monkeypatch.setattr(ot_core, "sinkhorn", functools.partial(sinkhorn, max_iters=3))
        cost = rng.uniform(size=(8, 8))
        hyper = TrotHyperparams(entropy_weight=1e-4)
        coup, _ = gcg_solve(np.full(8, 1 / 8), np.full(8, 1 / 8), cost, hyper)
        assert not coup.converged

    def test_stops_after_max_iters(self, rng, monkeypatch):
        cost = rng.uniform(size=(8, 8))
        hyper = TrotHyperparams(entropy_weight=0.1, group_weight=1.0)
        classes = np.repeat([0, 1], 4)
        full, full_trace = gcg_solve(np.full(8, 1 / 8), np.full(8, 1 / 8), cost, hyper, classes)
        assert full.iterations > 2
        monkeypatch.setattr(ot_core, "GCG_MAX_ITERS", 2)
        short, trace = gcg_solve(np.full(8, 1 / 8), np.full(8, 1 / 8), cost, hyper, classes)
        assert short.iterations == 2 and np.array_equal(trace, full_trace[:3])

    def test_converged_directions_flagged(self, rng):
        # the construction of acceptance criterion 3
        src = make_atlas(rng.uniform(0, 0.5, (8, 2)), [0] * 4 + [1] * 4, [1, 2, 3, 4] * 2)
        tgt = make_atlas(rng.uniform(0, 0.5, (8, 2)), [0] * 4 + [1] * 4, [1, 2, 3, 4] * 2)
        hyper = TrotHyperparams(entropy_weight=0.1, group_weight=0.1, order_weight=1.0)
        coup, trace = gcg_solve(
            src.weights, tgt.weights, cost_matrix(src, tgt), hyper,
            src.classes, same_order_mask(src, tgt),
        )
        assert len(trace) > 1
        assert coup.converged

    def test_penalty_free_solves_its_direction_once(self, monkeypatch):
        # on window_ot's otda construction GCG takes two directions; without
        # penalties both are the same solve.  A zero-valued order penalty
        # (every pair same-order, so no mismatched mass to norm) forces the
        # re-solve with the same arithmetic.
        a, b, cost = window_ot_problem(1)
        hyper = TrotHyperparams(entropy_weight=0.01)
        forced_hyper = TrotHyperparams(entropy_weight=0.01, order_weight=1.0)
        calls = count_calls(monkeypatch, "sinkhorn")
        once, once_trace = gcg_solve(a, b, cost, hyper)
        assert len(calls) == 1
        resolved, resolved_trace = gcg_solve(
            a, b, cost, forced_hyper, same_order=np.ones(cost.shape, dtype=bool)
        )
        assert len(calls) == 1 + 2
        assert np.array_equal(once.values, resolved.values)
        assert np.array_equal(once_trace, resolved_trace)
        assert (once.iterations, once.converged, once.marginal_violation) == (
            resolved.iterations, resolved.converged, resolved.marginal_violation
        )
        # each direction solve the forced path runs is counted
        assert resolved.newton_steps == 2 * once.newton_steps > 0

    def test_evaluates_each_plan_once(self, monkeypatch, rng):
        # entropy is taken at the start and at each line-search trial, and
        # the accepted trial's evaluation is kept for the next linearization:
        # 1 + (trials) calls, none of them at a plan already evaluated
        src = make_atlas(rng.uniform(0, 0.5, (8, 2)), [0] * 4 + [1] * 4, [1, 2, 3, 4] * 2)
        tgt = make_atlas(rng.uniform(0, 0.5, (8, 2)), [0] * 4 + [1] * 4, [1, 2, 3, 4] * 2)
        hyper = TrotHyperparams(entropy_weight=0.1, group_weight=0.1, order_weight=1.0)
        plans = []
        original = ot_core.entropy

        def recorded(gamma):
            plans.append(np.array(gamma))
            return original(gamma)

        monkeypatch.setattr(ot_core, "entropy", recorded)
        coup, trace = gcg_solve(
            src.weights, tgt.weights, cost_matrix(src, tgt), hyper,
            src.classes, same_order_mask(src, tgt),
        )
        assert len(trace) > 2
        assert np.array_equal(plans[0], np.outer(src.weights, tgt.weights))
        assert len({plan.tobytes() for plan in plans}) == len(plans)
        assert sum(np.array_equal(plan, coup.values) for plan in plans) == 1

    @pytest.mark.parametrize(
        "classes, same_order",
        [
            (np.zeros((1, 3)), None),  # once accepted
            (np.zeros(4), None),  # once numpy's matmul ValueError
            (None, np.ones((1, 4), dtype=bool)),  # once broadcast, solved as converged
            (None, np.ones(4, dtype=bool)),  # likewise
        ],
    )
    def test_rejects_mis_shaped_groups(self, rng, classes, same_order):
        a, b = np.full(3, 1 / 3), np.full(4, 1 / 4)
        hyper = TrotHyperparams(group_weight=1.0, order_weight=1.0)
        bad = "classes" if classes is not None else "same_order"
        classes = np.zeros(3) if classes is None else classes
        same_order = np.ones((3, 4), dtype=bool) if same_order is None else same_order
        with pytest.raises(DimensionMismatchError, match=f"{bad} "):
            gcg_solve(a, b, rng.uniform(size=(3, 4)), hyper, classes, same_order)

    def test_requires_groups_for_weights(self):
        a = b = np.full(2, 0.5)
        with pytest.raises(ValueError):
            gcg_solve(a, b, np.zeros((2, 2)), TrotHyperparams(group_weight=1.0))
        with pytest.raises(ValueError):
            gcg_solve(a, b, np.zeros((2, 2)), TrotHyperparams(order_weight=1.0))

    def test_order_decoy_mass_concentrates(self):
        # one source activity; target has an honest same-order class far away
        # and a reversed-order decoy nearby
        src = make_atlas([[0, 0], [0, 2]], [0, 0], [1, 2])
        tgt = make_atlas(
            [[3, 0.9], [3, 1.1], [0.5, 2.0], [0.5, 0.0]], [1, 1, 2, 2], [1, 2, 1, 2]
        )
        same_order = same_order_mask(src, tgt)
        cost = cost_matrix(src, tgt)
        a, b = src.weights, tgt.weights

        def matched_mass(values):
            return min(
                values[i, row].sum() / values[i].sum() for i, row in enumerate(same_order)
            )

        free, _ = gcg_solve(
            a, b, cost, TrotHyperparams(entropy_weight=0.25), src.classes, same_order
        )
        pinned, _ = gcg_solve(
            a, b, cost, TrotHyperparams(entropy_weight=0.25, order_weight=10.0),
            src.classes, same_order,
        )
        assert matched_mass(free.values) < 0.5
        assert matched_mass(pinned.values) >= 0.9


class TestHyperparams:
    def test_entropy_weight_positive(self):
        with pytest.raises(ValueError):
            TrotHyperparams(entropy_weight=0.0)

    def test_order_mode_validated(self):
        with pytest.raises(ValueError):
            TrotHyperparams(order_mode="sideways")

    @pytest.mark.parametrize(
        "weights",
        [{"entropy_weight": np.inf}, {"entropy_weight": np.nan},
         {"group_weight": np.nan}, {"order_weight": np.inf}],
    )
    def test_weights_finite(self, weights):
        # nan <= 0 is false, so NaN and inf weights once passed
        with pytest.raises(ValueError, match="finite"):
            TrotHyperparams(**weights)

    @pytest.mark.parametrize("n_states", [0, -1])
    def test_n_states_positive(self, n_states):
        # 0 once died in pairwise_sq_dists, -1 in numpy's array constructor
        with pytest.raises(ValueError, match="n_states must be >= 1"):
            TrotHyperparams(n_states=n_states)

    def test_stores_plain_numbers(self):
        hyper = TrotHyperparams(
            entropy_weight=np.float32(0.5), group_weight=np.int64(1),
            order_weight=np.float64(0.1), n_states=np.int64(2),
        )
        assert [type(v) for v in asdict(hyper).values()] == [float, float, float, str, int]
        assert asdict(hyper)["entropy_weight"] == 0.5 and hyper.n_states == 2

    @pytest.mark.parametrize("n_states", [2.5, np.float64(3.5), float("inf"), float("nan")])
    def test_n_states_integral(self, n_states):
        # 2.5 once escaped run_task as a TypeError
        with pytest.raises(ValueError, match="n_states must be an integer"):
            TrotHyperparams(n_states=n_states)


def test_pairwise_sq_dists_matches_direct(rng):
    x, y = rng.normal(0, 1, (6, 3)), rng.normal(0, 1, (4, 3))
    direct = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
    assert np.allclose(pairwise_sq_dists(x, y), direct, atol=1e-12)


@pytest.mark.parametrize("fn", [pairwise_sq_dists, ot_core.nearest_rows])
@pytest.mark.parametrize("x, y", [(np.arange(3.0), np.zeros((2, 1))), (np.zeros((3, 1)), np.arange(2.0))])
def test_rows_must_be_2d(fn, x, y):
    # 1-D rows once raised IndexError: tuple index out of range
    with pytest.raises(DimensionMismatchError, match="2-D"):
        fn(x, y)


def test_distances_far_from_the_origin():
    # the unshifted expansion |x|^2 + |y|^2 - 2 x.y gave [[0, 0]] and row 0
    x, y = np.array([[1e8 + 0.9]]), np.array([[1e8], [1e8 + 1]])
    assert np.allclose(pairwise_sq_dists(x, y), [[0.81, 0.01]], atol=1e-6)
    assert ot_core.nearest_rows(x, y).tolist() == [1]


def direct_nearest(x, y):
    """Argmin of the directly summed (x - y)**2, one query row at a time."""
    return np.array([((y - row) ** 2).sum(axis=1).argmin() for row in x], dtype=np.intp)


@pytest.mark.parametrize("offset", [0.0, 1e3])
def test_nearest_rows_at_feature_width(rng, offset):
    # 38 continuous features, as the pipeline's windows have; 600 training
    # rows make blocks of 109 query rows
    x, y = (rng.uniform(-1, 1, (n, 38)) + offset for n in (300, 600))
    assert np.array_equal(ot_core.nearest_rows(x, y), direct_nearest(x, y))


@pytest.mark.parametrize("dim", [2, 38])
def test_duplicated_row_resolves_to_lowest_index(rng, dim):
    for _ in range(20):
        y = rng.uniform(-1, 1, (rng.integers(2, 400), dim))
        copies = rng.choice(len(y), rng.integers(2, min(len(y), 6) + 1), replace=False)
        y[copies] = rng.uniform(-1, 1, dim)
        x = np.vstack([y[copies], rng.uniform(-1, 1, (5, dim))])
        nearest = ot_core.nearest_rows(x, y)
        assert (nearest[: len(copies)] == copies.min()).all()
        assert np.array_equal(nearest, direct_nearest(x, y))


@pytest.mark.parametrize("scale", [10.0, 1e3, 1e6])
def test_queries_far_outside_the_training_box(rng, scale):
    y = rng.uniform(-1, 1, (300, 38))
    directions = rng.normal(0, 1, (50, 38))
    x = scale * directions / np.linalg.norm(directions, axis=1, keepdims=True)
    assert np.array_equal(ot_core.nearest_rows(x, y), direct_nearest(x, y))


@pytest.mark.parametrize("cells", [ot_core.NEAREST_BLOCK_CELLS, 1 << 12, 1 << 18])
def test_nearest_rows_memory_bound(rng, cells):
    # a (1179, 2355) distance matrix, one raw_to_matrix task's, would take 22 MB;
    # the bound holds the score buffer, both factors and one y-sized temporary
    x, y = rng.uniform(-1, 1, (1179, 38)), rng.uniform(-1, 1, (2355, 38))
    with mock.patch.object(ot_core, "NEAREST_BLOCK_CELLS", cells):
        tracemalloc.start()
        try:
            ot_core.nearest_rows(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 8 * (cells + 3 * y.size + len(x))
