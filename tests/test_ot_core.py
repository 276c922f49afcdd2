from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trot import ot_core
from trot.errors import NumericalFailureError
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


def reference_sinkhorn(a, b, cost, entropy_weight, max_iters=10_000, tol=1e-9):
    """Plain log-domain Sinkhorn, two log-sum-exps and a full plan per
    iteration: the reference that `sinkhorn`'s iterates are compared against."""
    log_k = -cost / entropy_weight
    log_a, log_b = np.log(a), np.log(b)
    u = np.zeros(len(a))
    v = np.zeros(len(b))
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


def assert_same_iterates(a, b, cost, entropy_weight, max_iters=10_000):
    """`sinkhorn` against the reference: same counts and flags, same plan.

    The reference rounds each exponent log_k + u + v at the magnitude of
    log_k = -cost / entropy_weight, so its plan carries a relative error of
    about eps * max|log_k|; the plans may differ by that much on top of 1e-12.
    """
    got = sinkhorn(a, b, cost, entropy_weight, max_iters)
    ref = reference_sinkhorn(a, b, cost, entropy_weight, max_iters)
    atol = 1e-12 + np.finfo(float).eps * np.abs(cost).max() / entropy_weight
    assert got.iterations == ref.iterations
    assert got.converged == ref.converged
    assert np.abs(got.values - ref.values).max() <= atol
    # a violation is a row or column sum, so it carries up to max(shape) plan errors
    assert abs(got.marginal_violation - ref.marginal_violation) <= max(cost.shape) * atol
    return got


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(ot_core, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(ot_core, name, counted)
    return calls


class TestSinkhornMatchesLogDomain:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
        max_iters=st.sampled_from([1, 2, 3, 100, 2000]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_problems(self, shape, max_iters, seed):
        # the entropy weight (1e-4 to 3), cost scale (0.01 to 30) and Dirichlet
        # concentration are log-uniform from the seed: hypothesis' own floats
        # crowd around simple values such as 1 and never reach the slow,
        # small-weight solves
        rng = np.random.default_rng(seed)
        entropy_weight = 10 ** rng.uniform(-4, np.log10(3))
        cost = 10 ** rng.uniform(-2, np.log10(30)) * rng.uniform(size=shape)
        alpha = 10 ** rng.uniform(-0.5, 1)
        a = rng.dirichlet(np.full(shape[0], alpha))
        b = rng.dirichlet(np.full(shape[1], alpha))
        assert_same_iterates(a, b, cost, entropy_weight, max_iters)

    def test_scaling_out_of_range_is_absorbed(self, monkeypatch):
        # at entropy weight 1e-3 the scalings drift past 1e150 within 2000
        # iterations while every column keeps a normal mass
        cost = np.array([[4.0, 1.3, 0.7], [3.5, 3.2, 2.7], [3.8, 3.7, 3.0]])
        absorbs = count_calls(monkeypatch, "_absorb")
        log_steps = count_calls(monkeypatch, "_logsumexp")
        assert_same_iterates(np.full(3, 1 / 3), np.full(3, 1 / 3), cost, 1e-3, 2000)
        assert len(log_steps) == 2  # the first iteration only
        assert len(absorbs) > 1  # more than the final plan

    def test_column_mass_underflow_runs_in_log_domain(self, monkeypatch):
        # column 0 carries 1e-200 and sits in row 0, which row scaling shrinks
        # by another 1e-200: its column mass underflows to 0 at iteration 2
        cost = np.array([[0.0, 0.0, 0.0], [10.0, 1.0, 1.5], [10.0, 1.2, 1.0]])
        marginal = np.array([1e-200, 0.5, 0.5])
        log_steps = count_calls(monkeypatch, "_logsumexp")
        coupling = assert_same_iterates(marginal, marginal, cost, 0.01, 50)
        assert len(log_steps) > 2
        assert np.all(np.isfinite(coupling.values))

    def test_nan_cost_raises(self):
        cost = np.array([[0.0, np.nan], [1.0, 0.0]])
        with pytest.raises(NumericalFailureError):
            sinkhorn(np.full(2, 0.5), np.full(2, 0.5), cost, 0.1)


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

    def test_unconverged_directions_flagged(self, rng):
        cost = rng.uniform(size=(8, 8))
        hyper = TrotHyperparams(entropy_weight=1e-4, sinkhorn_iters=3)
        coup, _ = gcg_solve(np.full(8, 1 / 8), np.full(8, 1 / 8), cost, hyper)
        assert not coup.converged

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


def test_pairwise_sq_dists_matches_direct(rng):
    x, y = rng.normal(0, 1, (6, 3)), rng.normal(0, 1, (4, 3))
    direct = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
    assert np.allclose(pairwise_sq_dists(x, y), direct, atol=1e-12)
