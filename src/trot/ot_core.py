"""Regularized optimal transport between state atlases.

The solver minimizes, over couplings with fixed marginals,

    <gamma, cost> + entropy_weight * H(gamma)
                  + group_weight * Omega(gamma)
                  + order_weight * T(gamma)

where H is the entropy term, Omega the per-column norm over source class
groups and T the per-row norm over same-temporal-order (or order-violating)
columns.  Both group structures are plain arrays: the source class label of
each row, and a (k_s, k_t) boolean mask of same-order pairs.  The
non-entropic terms are linearized at each iterate so the direction-finding
subproblem stays an entropic transport problem solved by Sinkhorn
iterations; an Armijo backtracking search on the full objective keeps the
trace non-increasing.

Sinkhorn runs in scaling form on a stabilized kernel (Schmitzer 2019,
"Stabilized sparse scaling algorithms for entropy regularized transport
problems"): the iterates of log-domain Sinkhorn, with matrix-vector products
instead of an `exp` per iteration; `sinkhorn` describes its two stabilizing
paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatchError, NumericalFailureError

if TYPE_CHECKING:
    from .hmm import TemporalAtlas

ENTROPY_GRAD_FLOOR = -745.0  # log of the smallest positive double
SCALING_MIN, SCALING_MAX = 1e-150, 1e150  # sinkhorn scalings kept in range
_TINY = np.finfo(float).tiny  # a column mass below this has underflowed
GCG_TOL = 1e-7  # relative objective decrease below which gcg_solve stops


@dataclass
class TrotHyperparams:
    """Solver weights and iteration budgets.

    `order_mode` picks which column set the temporal penalty norms: "mismatched"
    (default) penalizes mass on order-violating columns, "matched" applies the
    group norm to same-order columns instead.
    """

    entropy_weight: float = 0.1
    group_weight: float = 0.0
    order_weight: float = 0.0
    order_mode: str = "mismatched"
    n_states: int = 4
    sinkhorn_iters: int = 10_000
    gcg_iters: int = 20

    def __post_init__(self):
        if not 0 < self.entropy_weight < np.inf:
            raise ValueError("entropy_weight must be finite and > 0")
        if not (0 <= self.group_weight < np.inf and 0 <= self.order_weight < np.inf):
            raise ValueError("regularizer weights must be finite and >= 0")
        if self.order_mode not in ("matched", "mismatched"):
            raise ValueError(f"unknown order_mode {self.order_mode!r}")
        if self.n_states < 1:
            raise ValueError("n_states must be >= 1")

    def to_dict(self) -> dict:
        return {
            "entropy_weight": self.entropy_weight,
            "group_weight": self.group_weight,
            "order_weight": self.order_weight,
            "order_mode": self.order_mode,
            "n_states": self.n_states,
        }


@dataclass
class Coupling:
    """Transport plan with its solve diagnostics."""

    values: np.ndarray  # (k_s, k_t), non-negative
    marginal_violation: float = 0.0
    iterations: int = 0
    converged: bool = True


def same_order_mask(src_atlas: TemporalAtlas, tgt_atlas: TemporalAtlas) -> np.ndarray:
    """(k_s, k_t) mask: target state j has the temporal order of source state i."""
    return src_atlas.orders[:, None] == tgt_atlas.orders[None, :]


def pairwise_sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between rows of x and rows of y."""
    if x.shape[1] != y.shape[1]:
        raise DimensionMismatchError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
    d2 = (x**2).sum(axis=1)[:, None] + (y**2).sum(axis=1)[None, :] - 2.0 * (x @ y.T)
    return np.maximum(d2, 0.0)


def cost_matrix(src_atlas: TemporalAtlas, tgt_atlas: TemporalAtlas) -> np.ndarray:
    """Squared Euclidean distances between source and target state means."""
    return pairwise_sq_dists(src_atlas.means, tgt_atlas.means)


def entropy(gamma: np.ndarray):
    """Entropy term sum g*(log g - 1) with 0 log 0 = 0, and its gradient.

    Gradient entries at zero mass are clamped to a large negative finite
    value instead of -inf.
    """
    g = np.asarray(gamma, dtype=float)
    positive = g > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_g = np.where(positive, np.log(np.where(positive, g, 1.0)), ENTROPY_GRAD_FLOOR)
    value = float((np.where(positive, g * log_g, 0.0)).sum() - g.sum())
    return value, log_g


def group_sparse(gamma: np.ndarray, classes: np.ndarray) -> tuple[float, np.ndarray]:
    """Per-target-column sum of L2 norms over source class groups.

    `classes` is the class label of each source row.  With M the (G, k_s)
    one-hot class membership, the group norms are sqrt(M @ gamma**2).
    Subgradient: gamma over its own group's norm; zero-norm groups get 0.
    """
    gamma = np.asarray(gamma, dtype=float)
    members = (np.unique(classes)[:, None] == np.asarray(classes)).astype(float)
    norms = np.sqrt(members @ gamma**2)  # (G, k_t)
    denom = members.T @ norms  # each row's own group norm, per column
    return float(norms.sum()), np.divide(gamma, denom, out=np.zeros_like(gamma), where=denom > 0)


def temporal_reg(
    gamma: np.ndarray, same_order: np.ndarray, mode: str = "mismatched"
) -> tuple[float, np.ndarray]:
    """Row-wise L2 norms of gamma masked by temporal order.

    `same_order` is the (k_s, k_t) mask of same-order pairs.  "matched"
    norms each row's same-order entries (the literal group definition);
    "mismatched" norms the complement so order-violating mass is what gets
    penalized.  Subgradient: masked row over its norm; zero rows get 0.
    """
    gamma = np.asarray(gamma, dtype=float)
    masked = np.where(same_order if mode == "matched" else ~same_order, gamma, 0.0)
    norms = np.sqrt((masked**2).sum(axis=1, keepdims=True))
    return float(norms.sum()), np.divide(masked, norms, out=np.zeros_like(gamma), where=norms > 0)


def _check_marginals(a: np.ndarray, b: np.ndarray):
    if np.any(a <= 0) or np.any(b <= 0):
        raise ValueError("marginals must be strictly positive")
    if abs(a.sum() - 1.0) > 1e-9 or abs(b.sum() - 1.0) > 1e-9:
        raise ValueError("marginals must each sum to 1")


def _violation(plan: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    return float(
        max(np.abs(plan.sum(axis=1) - a).max(), np.abs(plan.sum(axis=0) - b).max())
    )


def sinkhorn(
    a: np.ndarray,
    b: np.ndarray,
    cost: np.ndarray,
    entropy_weight: float,
    max_iters: int = 10_000,
    tol: float = 1e-9,
) -> Coupling:
    """Entropic transport plan via stabilized Sinkhorn iterations.

    Each iteration fits the column marginals, then the row marginals; the
    iterates are those of log-domain Sinkhorn from zero duals.  The first
    iteration runs in the log domain and yields duals u, v and the kernel
    K = exp(-cost / entropy_weight + u + v), the current plan.  Later
    iterations keep the plan as su * K * sv and update the scalings by
    sv = b / (su @ K), then su = a / (K @ sv), so rows are exact after each
    iteration and the stopping check reads the column sums, which the next
    column update reuses.  Two paths keep this stable:

    - a scaling outside [SCALING_MIN, SCALING_MAX] is absorbed into u, v
      and K is rebuilt from them (one `exp`);
    - when a column mass su @ K underflows, the iteration runs in the log
      domain from the absorbed duals.

    Iterates until the worst marginal deviation falls below `tol` or the
    budget runs out (then the achieved violation is reported with
    `converged=False`).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_marginals(a, b)
    if entropy_weight <= 0:
        raise ValueError("entropy_weight must be > 0")
    log_k = -np.asarray(cost, dtype=float) / entropy_weight
    log_a, log_b = np.log(a), np.log(b)
    u = np.zeros(len(a))
    v = np.zeros(len(b))
    ones_a, ones_b = np.ones(len(a)), np.ones(len(b))
    su, sv = ones_a, ones_b  # the plan is su[:, None] * kernel * sv
    check_every = 1 if log_k.size <= 10_000 else 10
    it = 0
    with np.errstate(divide="ignore"):
        for it in range(1, max_iters + 1):
            log_domain = it == 1
            if not log_domain:
                sv = b / col_mass
                if not _in_range(sv):
                    log_domain = col_mass.min() < _TINY
                    if not log_domain:
                        u, v, kernel = _absorb(log_k, u, v, su, sv)
                        su, sv = ones_a, ones_b
            if log_domain:
                u = u + np.log(su)
                v = log_b - _logsumexp(log_k + u[:, None], axis=0)
                u = log_a - _logsumexp(log_k + v[None, :], axis=1)
                kernel, su, sv = np.exp(log_k + u[:, None] + v[None, :]), ones_a, ones_b
            else:
                su = a / (kernel @ sv)
                if not _in_range(su):
                    u, v, kernel = _absorb(log_k, u, v, su, sv)
                    su, sv = ones_a, ones_b
            col_mass = su @ kernel
            if it % check_every == 0 or it == max_iters:
                # rows are exact after the row update, so only columns can miss
                violation = float(np.abs(sv * col_mass - b).max())
                if not np.isfinite(violation):
                    raise NumericalFailureError("numerical failure: NaN in sinkhorn iterates")
                if violation <= tol:
                    break
    _, _, plan = _absorb(log_k, u, v, su, sv)
    violation = _violation(plan, a, b)
    if not np.all(np.isfinite(plan)):
        raise NumericalFailureError("numerical failure: non-finite transport plan")
    return Coupling(plan, violation, it, violation <= tol)


def _in_range(scaling: np.ndarray) -> bool:
    return SCALING_MIN <= scaling.min() and scaling.max() <= SCALING_MAX


def _absorb(log_k, u, v, su, sv):
    """Fold scalings into the duals; return them and the plan they give."""
    u = u + np.log(su)
    v = v + np.log(sv)
    return u, v, np.exp(log_k + u[:, None] + v[None, :])


def _logsumexp(m: np.ndarray, axis: int) -> np.ndarray:
    mx = np.max(m, axis=axis, keepdims=True)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    with np.errstate(divide="ignore"):
        return np.squeeze(mx, axis) + np.log(np.exp(m - mx).sum(axis=axis))


def gcg_solve(
    a: np.ndarray,
    b: np.ndarray,
    cost: np.ndarray,
    hyper: TrotHyperparams,
    classes: np.ndarray | None = None,
    same_order: np.ndarray | None = None,
) -> tuple[Coupling, np.ndarray]:
    """Solve the fully regularized problem by conditional gradient.

    `classes` (the source class label per row) is required when
    `hyper.group_weight > 0`, and `same_order` (the (k_s, k_t) same-order
    mask) when `hyper.order_weight > 0`.

    Each iteration linearizes the group penalties at the current plan, solves
    the entropic subproblem on the shifted cost, then backtracks (Armijo,
    sufficient decrease 1e-4, factor 0.5, up to 30 halvings) along the
    feasible segment.  Stops when the relative objective decrease drops
    below `GCG_TOL` or no descent direction remains.

    Returns the final coupling and the objective value per accepted iterate.
    The coupling is flagged `converged` only when every Sinkhorn direction
    solved along the way converged.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cost = np.asarray(cost, dtype=float)
    _check_marginals(a, b)
    eta, tau = hyper.group_weight, hyper.order_weight
    if eta > 0 and classes is None:
        raise ValueError("group_weight > 0 requires class groups")
    if tau > 0 and same_order is None:
        raise ValueError("order_weight > 0 requires order groups")

    def penalties(g):
        val, sub = 0.0, np.zeros_like(g)
        if eta > 0:
            v, s = group_sparse(g, classes)
            val += eta * v
            sub += eta * s
        if tau > 0:
            v, s = temporal_reg(g, same_order, hyper.order_mode)
            val += tau * v
            sub += tau * s
        return val, sub

    def objective(g):
        h, _ = entropy(g)
        return float((g * cost).sum()) + hyper.entropy_weight * h + penalties(g)[0]

    gamma = np.outer(a, b)
    obj = objective(gamma)
    trace = [obj]
    worst_violation = _violation(gamma, a, b)
    converged = True

    for _ in range(hyper.gcg_iters):
        _, pen_sub = penalties(gamma)
        direction = sinkhorn(a, b, cost + pen_sub, hyper.entropy_weight, hyper.sinkhorn_iters)
        worst_violation = max(worst_violation, direction.marginal_violation)
        converged = converged and direction.converged
        delta = direction.values - gamma
        _, ent_grad = entropy(gamma)
        slope = float(((cost + hyper.entropy_weight * ent_grad + pen_sub) * delta).sum())
        if slope >= -1e-15:
            break
        alpha, accepted = 1.0, False
        for _ in range(30):
            candidate_obj = objective(gamma + alpha * delta)
            if candidate_obj <= obj + 1e-4 * alpha * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
        gamma = gamma + alpha * delta
        previous, obj = obj, candidate_obj
        trace.append(obj)
        if previous - obj < GCG_TOL * max(abs(previous), 1e-30):
            break

    # every iterate is a convex combination of feasible endpoints, so the
    # worst direction violation bounds the violation along the whole path
    worst_violation = max(worst_violation, _violation(gamma, a, b))
    return (
        Coupling(gamma, worst_violation, len(trace) - 1, converged),
        np.asarray(trace),
    )
