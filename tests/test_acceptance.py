"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run `pytest -v -s tests/test_acceptance.py` to see the lines; `pytest -v`
reports the same verdicts as test outcomes.
"""

import os
import time
from itertools import permutations, product

import numpy as np
import pytest

from trot.harness import TaskSpec, run_matrix, run_task, matrix_to_json, temporal_split
from trot.hmm import VARIANCE_FLOOR, fit_activity_hmm
from trot.ot_core import (
    TrotHyperparams,
    cost_matrix,
    entropy,
    gcg_solve,
    group_sparse,
    same_order_mask,
    sinkhorn,
    temporal_reg,
)
from trot.synth import SynthSpec, adversarial_user_shift, generate_pair, generate_user

from .conftest import make_atlas, make_dataset


def report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE criterion {criterion}: {status} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_sinkhorn_feasibility():
    rng = np.random.default_rng(101)
    a = b = np.full(12, 1.0 / 12)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        coupling = sinkhorn(a, b, rng.uniform(size=(12, 12)), 0.05, max_iters=10_000)
        worst = max(worst, coupling.marginal_violation)
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-8 and elapsed < 10.0,
        f"50 random 12x12 problems, worst violation {worst:.2e} (<=1e-8), "
        f"runtime {elapsed:.2f}s (<10s)",
    )


def test_criterion_2_ot_oracle_equivalence():
    rng = np.random.default_rng(12345)
    worst_gap = 0.0
    for n in (2, 3, 4):
        marg = np.full(n, 1.0 / n)
        for _ in range(20):
            cost = rng.uniform(size=(n, n))
            coupling = sinkhorn(marg, marg, cost, 1e-3)
            got = float((coupling.values * cost).sum())
            exact = min(
                sum(cost[i, p[i]] for i in range(n)) / n for p in permutations(range(n))
            )
            worst_gap = max(worst_gap, (got - exact) / exact)
    report(
        2,
        worst_gap <= 0.01,
        f"60 problems (n=2,3,4), worst relative gap to brute-force optimum "
        f"{worst_gap:.2e} (<=1%)",
    )


def _random_grouped_problem(rng):
    src = make_atlas(rng.uniform(0, 0.5, (8, 2)), [0] * 4 + [1] * 4, [1, 2, 3, 4] * 2)
    tgt = make_atlas(rng.uniform(0, 0.5, (8, 2)), [0] * 4 + [1] * 4, [1, 2, 3, 4] * 2)
    groups = (src.classes, same_order_mask(src, tgt))
    return cost_matrix(src, tgt), groups, src.weights, tgt.weights


def test_criterion_3_gcg_correctness():
    rng = np.random.default_rng(77)
    # reduction: eta = tau = 0 must reproduce plain sinkhorn elementwise
    max_diff = 0.0
    for _ in range(5):
        cost, groups, a, b = _random_grouped_problem(rng)
        plain = sinkhorn(a, b, cost, 0.1)
        coupling, _ = gcg_solve(a, b, cost, TrotHyperparams(entropy_weight=0.1), *groups)
        max_diff = max(max_diff, float(np.abs(coupling.values - plain.values).max()))
    # full default (eta, tau) grid: monotone trace, feasible iterates
    worst_violation, trace_ok = 0.0, True
    cost, groups, a, b = _random_grouped_problem(rng)
    for eta, tau in product((0.0, 0.1, 1.0), (0.0, 0.1, 1.0, 10.0)):
        hyper = TrotHyperparams(entropy_weight=0.1, group_weight=eta, order_weight=tau)
        coupling, trace = gcg_solve(a, b, cost, hyper, *groups)
        trace_ok = trace_ok and bool(np.all(np.diff(trace) <= 1e-12))
        worst_violation = max(worst_violation, coupling.marginal_violation)
    report(
        3,
        max_diff <= 1e-8 and trace_ok and worst_violation <= 1e-6,
        f"eta=tau=0 vs sinkhorn max diff {max_diff:.2e} (<=1e-8); "
        f"12 (eta,tau) combos: traces non-increasing={trace_ok}, "
        f"worst iterate violation {worst_violation:.2e} (<=1e-6)",
    )


def test_criterion_4_regularizer_gradients():
    rng = np.random.default_rng(55)
    src = make_atlas(np.zeros((8, 2)), [0] * 4 + [1] * 4, [1, 2, 3, 4] * 2)
    tgt = make_atlas(np.ones((8, 2)), [0] * 4 + [1] * 4, [1, 2, 3, 4] * 2)
    same_order = same_order_mask(src, tgt)
    functions = {
        "group_sparse": lambda g: group_sparse(g, src.classes),
        "temporal_matched": lambda g: temporal_reg(g, same_order, "matched"),
        "temporal_mismatched": lambda g: temporal_reg(g, same_order, "mismatched"),
    }
    eps, worst_rel = 1e-6, 0.0
    for _ in range(20):
        gamma = rng.uniform(0.05, 1.0, (8, 8))
        for fn in functions.values():
            _, sub = fn(gamma)
            fd = np.zeros_like(gamma)
            for idx in np.ndindex(gamma.shape):
                up, down = gamma.copy(), gamma.copy()
                up[idx] += eps
                down[idx] -= eps
                fd[idx] = (fn(up)[0] - fn(down)[0]) / (2 * eps)
            worst_rel = max(worst_rel, float(np.abs(sub - fd).max() / np.abs(fd).max()))
    convex_ok = True
    for _ in range(100):
        g1, g2 = rng.uniform(0, 1, (8, 8)), rng.uniform(0, 1, (8, 8))
        t = rng.uniform()
        mix = t * g1 + (1 - t) * g2
        for fn in functions.values():
            convex_ok = convex_ok and fn(mix)[0] <= t * fn(g1)[0] + (1 - t) * fn(g2)[0] + 1e-12
    report(
        4,
        worst_rel <= 1e-5 and convex_ok,
        f"20 couplings x 3 functions: worst subgradient-vs-FD relative error "
        f"{worst_rel:.2e} (<=1e-5); 100 convexity checks passed={convex_ok}",
    )


def test_criterion_5_hmm_oracle():
    rng = np.random.default_rng(33)
    exact_ok = True
    for _ in range(10):
        n_states = int(rng.integers(2, 5))
        n = int(rng.integers(4 * n_states, 80))
        x = rng.normal(0, 1, (n, 3)) + rng.uniform(-3, 3, 3)
        ds = make_dataset(x)
        model = fit_activity_hmm(ds, n_states)
        for k in range(n_states):
            members = x[np.arange(n) % n_states == k]  # independent grouping
            exact_ok = exact_ok and bool(
                np.array_equal(model.means[k], members.mean(axis=0))
                and np.array_equal(
                    model.var[k], np.maximum(members.var(axis=0), VARIANCE_FLOOR)
                )
            )
    monotone_ok, min_gain = True, np.inf
    for _ in range(10):
        n_states = int(rng.integers(2, 4))
        centers = rng.uniform(-5, 5, n_states)
        states = np.arange(120) % n_states
        x = (centers[states] + rng.normal(0, 0.8, 120))[:, None]
        model = fit_activity_hmm(make_dataset(x), n_states, mode="em")
        gains = np.diff(model.log_likelihood_trace)
        monotone_ok = monotone_ok and bool(np.all(gains >= -1e-9))
        if len(gains):
            min_gain = min(min_gain, float(gains.min()))
    report(
        5,
        exact_ok and monotone_ok,
        f"deterministic fit == per-(t mod N) MLE exactly on 10 datasets: {exact_ok}; "
        f"EM log-likelihood non-decreasing on 10 sequences (min step {min_gain:.2e} "
        f">= -1e-9): {monotone_ok}",
    )


def _decoy_problem():
    """One source activity (2 far-apart states); target = honest class far
    away with a small within-pair gap + reversed-order decoy class nearby."""
    src = make_atlas([[0, 0], [0, 2]], [0, 0], [1, 2])
    tgt = make_atlas(
        [[3, 0.9], [3, 1.1], [0.5, 2.0], [0.5, 0.0]], [1, 1, 2, 2], [1, 2, 1, 2]
    )
    return src, tgt


def _decoy_oracle(cost, same_order, lam, tau, steps=80):
    """Exhaustive grid over the 3-dof feasible polytope (rows 1/2, columns 1/4)."""
    g = np.linspace(0.0, 0.25, steps + 1)
    x0, x1, x2 = (m.ravel() for m in np.meshgrid(g, g, g, indexing="ij"))
    x3 = 0.5 - x0 - x1 - x2
    keep = (x3 >= -1e-12) & (x3 <= 0.25 + 1e-12)
    row0 = np.stack([x0[keep], x1[keep], x2[keep], np.clip(x3[keep], 0, None)], axis=1)
    row1 = 0.25 - row0
    keep = (row1 >= -1e-12).all(axis=1)
    gamma = np.stack([row0[keep], np.clip(row1[keep], 0, None)], axis=1)  # (m, 2, 4)
    lin = (gamma * cost[None]).sum(axis=(1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = (
            np.where(gamma > 0, gamma * np.log(np.where(gamma > 0, gamma, 1.0)), 0.0)
        ).sum(axis=(1, 2)) - gamma.sum(axis=(1, 2))
    t_term = np.zeros(len(gamma))
    for i, row in enumerate(same_order):
        t_term += np.sqrt((gamma[:, i, ~row] ** 2).sum(axis=1))
    objective = lin + lam * ent + tau * t_term
    best = int(objective.argmin())
    return float(objective[best]), gamma[best]


def test_criterion_6_temporal_order_effect():
    src, tgt = _decoy_problem()
    cost = cost_matrix(src, tgt)
    same_order = same_order_mask(src, tgt)
    lam = 0.25

    def matched_fraction(values):
        return min(
            float(values[i, row].sum() / values[i].sum())
            for i, row in enumerate(same_order)
        )

    results, oracle_results, oracle_ok = {}, {}, True
    for tau in (0.0, 10.0):
        hyper = TrotHyperparams(entropy_weight=lam, order_weight=tau)
        coupling, trace = gcg_solve(
            src.weights, tgt.weights, cost, hyper, src.classes, same_order
        )
        results[tau] = matched_fraction(coupling.values)
        oracle_obj, oracle_gamma = _decoy_oracle(cost, same_order, lam, tau)
        oracle_results[tau] = matched_fraction(oracle_gamma)
        # solver and exhaustive optimum agree up to grid resolution
        oracle_ok = (
            oracle_ok
            and abs(trace[-1] - oracle_obj) <= 0.02
            and abs(oracle_results[tau] - results[tau]) < 0.05
        )
    bounds_ok = (
        results[10.0] >= 0.9
        and results[0.0] < 0.5
        and oracle_results[10.0] >= 0.9
        and oracle_results[0.0] < 0.5
    )
    report(
        6,
        bounds_ok and oracle_ok,
        f"matched-order mass per row: tau=10 -> solver {results[10.0]:.3f} / "
        f"oracle {oracle_results[10.0]:.3f} (>=0.9), tau=0 -> solver "
        f"{results[0.0]:.3f} / oracle {oracle_results[0.0]:.3f} (<0.5); "
        f"solver-vs-oracle objective agreement: {oracle_ok}",
    )


CEILING_GRID = tuple(
    TrotHyperparams(entropy_weight=lam, group_weight=eta, order_weight=tau, n_states=4)
    for lam in (0.01, 0.1)
    for eta in (0.0, 0.1)
    for tau in (0.0, 10.0)
)


def test_criterion_7_end_to_end_synthetic_ceiling():
    start = time.perf_counter()
    spec = SynthSpec(
        n_classes=4, n_states=4, windows_per_class=200, feature_dim=2,
        noise_std=0.1, seed=11,
    )
    spec.user_shift = adversarial_user_shift(spec)
    source, target, _ = generate_pair(spec)
    na = run_task(TaskSpec("source", "target", "na", seed=3), source, target)
    trot = run_task(
        TaskSpec("source", "target", "trot", hyper_grid=CEILING_GRID, seed=3),
        source, target,
    )
    elapsed = time.perf_counter() - start
    report(
        7,
        trot.test_accuracy >= 0.95 and na.test_accuracy <= 0.5 and elapsed < 60.0,
        f"adversarial shift (C=4, N=4, T=200): TROT test accuracy "
        f"{trot.test_accuracy:.3f} (>=0.95), NA {na.test_accuracy:.3f} (<=0.5), "
        f"runtime {elapsed:.1f}s (<60s)",
    )


def test_criterion_8_protocol_integrity():
    spec = SynthSpec(
        n_classes=2, n_states=2, windows_per_class=40, feature_dim=2,
        noise_std=0.1, seed=5, rounds=2,
    )
    rng = np.random.default_rng(spec.seed)
    users = {}
    for i in range(3):
        shift = None if i == 0 else adversarial_user_shift(spec, scale=float(i))
        users[f"u{i}"], _ = generate_user(spec, shift, f"u{i}", rng)
    grids = {
        "trot": tuple(
            TrotHyperparams(entropy_weight=lam, order_weight=tau, n_states=2)
            for lam in (0.01, 0.1) for tau in (0.0, 10.0)
        ),
        "otda": tuple(
            TrotHyperparams(entropy_weight=0.1, group_weight=eta) for eta in (0.0, 0.1)
        ),
        "ot": (TrotHyperparams(entropy_weight=0.1),),
    }
    methods = ["na", "td", "ot", "otda", "coral", "trot"]
    first = run_matrix(users, methods=methods, grids=grids, seed=9)
    second = run_matrix(users, methods=methods, grids=grids, seed=9)
    pairs_ok = all(len(first["table"][m]) == 6 for m in methods)
    recompute_ok = all(
        task["test_accuracy"]
        == pytest.approx(
            float(
                np.mean(
                    np.array(task["predictions"]["true"])
                    == np.array(task["predictions"]["predicted"])
                )
            )
        )
        for task in first["tasks"]
        if task["status"] == "ok"
    )
    identical = matrix_to_json(first) == matrix_to_json(second)
    report(
        8,
        pairs_ok and recompute_ok and identical,
        f"6 directed pairs for each of {len(methods)} methods: {pairs_ok}; "
        f"accuracies recompute from prediction dumps: {recompute_ok}; "
        f"same-seed reports byte-identical: {identical}",
    )


@pytest.mark.skipif(
    not os.environ.get("TROT_OPPT_DIR"),
    reason="optional: set TROT_OPPT_DIR to a directory of preprocessed "
    "S1/S2/S3 feature CSVs",
)
def test_criterion_9_oppt_improvement():
    data_dir = os.environ["TROT_OPPT_DIR"]
    result = run_matrix(data_dir, methods=["na", "trot"], seed=0)
    wins, details = [], []
    for pair, na_acc in result["table"]["na"].items():
        trot_acc = result["table"]["trot"][pair]
        wins.append(trot_acc is not None and na_acc is not None and trot_acc > na_acc)
        details.append(f"{pair}: trot {trot_acc} vs na {na_acc}")
    report(9, len(wins) == 6 and all(wins), "; ".join(details))
