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

Sinkhorn runs in two stages.  The first is the scaling form on a
stabilized kernel (Schmitzer 2019, "Stabilized sparse scaling algorithms
for entropy regularized transport problems"): the iterates of log-domain
Sinkhorn, with matrix-vector products instead of an `exp` per iteration.
It stops when its violation stops dropping fast, as it soon does at small
entropy weights, or before a scaling would leave its range.  The second,
damped Newton steps on the Sinkhorn dual (Brauer, Clason, Lorenz & Wirth
2017, "A Sinkhorn-Newton method for entropic optimal transport"), finishes
the solve in a few steps; `sinkhorn` states the rules.  Each step is
followed by a Sinkhorn sweep, in scaling form on the plan its line search
already holds, and in the log domain only where a scaling would leave its
range.
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
GCG_TOL = 1e-7  # relative objective decrease below which gcg_solve stops
GCG_MAX_ITERS = 20  # conditional-gradient steps gcg_solve takes at most
NEWTON_SHIFT = 1e-3  # Newton's Hessian shift per unit of marginal violation
NEAREST_BLOCK_CELLS = 1 << 16  # cells of the score buffer each nearest_rows block reuses


@dataclass
class TrotHyperparams:
    """One grid point: the solver weights and the HMM chain length.

    `order_mode` picks which column set the temporal penalty norms: "mismatched"
    (default) penalizes mass on order-violating columns, "matched" applies the
    group norm to same-order columns instead.  Iteration budgets belong to
    the solvers: `sinkhorn`'s `max_iters` default and `GCG_MAX_ITERS`.
    """

    entropy_weight: float = 0.1
    group_weight: float = 0.0
    order_weight: float = 0.0
    order_mode: str = "mismatched"
    n_states: int = 4

    def __post_init__(self):
        if not float(self.n_states).is_integer():
            raise ValueError("n_states must be an integer")
        # plain Python numbers, so a grid built from numpy values serializes
        self.n_states = int(self.n_states)
        for name in ("entropy_weight", "group_weight", "order_weight"):
            setattr(self, name, float(getattr(self, name)))
        if not 0 < self.entropy_weight < np.inf:
            raise ValueError("entropy_weight must be finite and > 0")
        if not (0 <= self.group_weight < np.inf and 0 <= self.order_weight < np.inf):
            raise ValueError("regularizer weights must be finite and >= 0")
        if self.order_mode not in ("matched", "mismatched"):
            raise ValueError(f"unknown order_mode {self.order_mode!r}")
        if self.n_states < 1:
            raise ValueError("n_states must be >= 1")


@dataclass
class Coupling:
    """Transport plan with its solve diagnostics.

    `iterations` counts the solver's own steps: scaling-form iterations plus
    Newton steps for `sinkhorn`, accepted conditional-gradient steps for
    `gcg_solve`.  `newton_steps` counts the Sinkhorn iterations that were
    Newton steps: those of the solve after the scaling form handed over
    (`sinkhorn`), or the sum over the direction solves a `gcg_solve` ran.
    So `iterations - newton_steps` counts scaling iterations only for a
    `sinkhorn` coupling.
    """

    values: np.ndarray  # (k_s, k_t), non-negative
    marginal_violation: float = 0.0
    iterations: int = 0
    converged: bool = True
    newton_steps: int = 0


def same_order_mask(src_atlas: TemporalAtlas, tgt_atlas: TemporalAtlas) -> np.ndarray:
    """(k_s, k_t) mask: target state j has the temporal order of source state i."""
    return src_atlas.orders[:, None] == tgt_atlas.orders[None, :]


def pairwise_sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between rows of x and rows of y, as
    (|x|^2 + |y|^2) - 2 x.y^T clamped at 0, both sides centred on
    `_centre(y)` so the expansion does not cancel far from 0."""
    x, y = _checked_rows(x, y)
    centre = _centre(y)
    x, y = x - centre, y - centre
    return np.maximum((x**2).sum(axis=1)[:, None] + (y**2).sum(axis=1) - 2.0 * (x @ y.T), 0.0)


def nearest_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Index of the Euclidean-nearest row of y for every row of x.

    Exact ties resolve to the lowest index.  With c = `_centre(y)`, a block
    of x's rows is scored against y by one matrix product,
    [x - c, 1] @ [-2 (y - c)^T; |y - c|^2]: the squared distance less
    |x - c|^2, which is the same for every row of y, so the lowest score
    is the nearest row.  Every block reuses one score buffer of about
    `NEAREST_BLOCK_CELLS` cells, so no (len(x), len(y)) matrix is built.
    """
    x, y = _checked_rows(x, y)
    (n, dim), centre = y.shape, _centre(y)
    rows = max(1, min(NEAREST_BLOCK_CELLS // max(n, 1), len(x)))
    # One allocation for both factors and the scores: as several, glibc
    # returned them to the system after every call (its trim threshold
    # adapts to the largest single block freed).
    buffer = np.empty((dim + 1) * (n + rows) + rows * n)
    right = buffer[: (dim + 1) * n].reshape(dim + 1, n)
    left = buffer[(dim + 1) * n : (dim + 1) * (n + rows)].reshape(rows, dim + 1)
    scores = buffer[(dim + 1) * (n + rows) :].reshape(rows, n)
    y = y - centre
    np.multiply(y.T, -2.0, out=right[:dim])
    y *= y
    right[dim] = y.sum(axis=1)
    left[:, dim] = 1.0
    nearest = np.empty(len(x), dtype=np.intp)
    for start in range(0, len(x), rows):
        block = slice(start, min(start + rows, len(x)))
        k = block.stop - start
        np.subtract(x[block], centre, out=left[:k, :dim])
        np.matmul(left[:k], right, out=scores[:k]).argmin(axis=1, out=nearest[block])
    return nearest


def _centre(y):
    """Centre of y's bounding box (zeros for no rows): data on a grid of
    spacing h stays on one of spacing h / 2, so exact distance ties stay exact."""
    if len(y) == 0:
        return np.zeros(y.shape[1])
    return (y.min(axis=0) + y.max(axis=0)) / 2


def _checked_rows(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 2:
        raise DimensionMismatchError(
            f"dimension mismatch: rows must be 2-D, got {x.shape} and {y.shape}"
        )
    if x.shape[1] != y.shape[1]:
        raise DimensionMismatchError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
    return x, y


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
    values, groups = np.unique(classes, return_inverse=True)
    members = (np.arange(len(values))[:, None] == groups).astype(float)
    norms = np.sqrt(members @ gamma**2)  # (G, k_t)
    denom = members.T @ norms  # each row's own group norm, per column
    return float(norms.sum()), np.divide(gamma, denom, out=np.zeros_like(gamma), where=denom > 0)


def temporal_reg(
    gamma: np.ndarray, same_order: np.ndarray, mode: str = "mismatched"
) -> tuple[float, np.ndarray]:
    """Row-wise L2 norms of gamma masked by temporal order.

    `same_order` is the (k_s, k_t) boolean mask of same-order pairs.  "matched"
    norms each row's same-order entries (the literal group definition);
    "mismatched" norms the complement so order-violating mass is what gets
    penalized; any other mode, or a mask of another dtype, raises
    `ValueError`.  Subgradient: masked row over its norm; zero rows get 0.
    """
    if mode not in ("matched", "mismatched"):
        raise ValueError(f"unknown mode {mode!r}")
    same_order = np.asarray(same_order)
    if same_order.dtype != bool:  # ~ of an int mask is a bitwise not: every entry nonzero
        raise ValueError(f"same_order must be a boolean mask, got dtype {same_order.dtype}")
    gamma = np.asarray(gamma, dtype=float)
    masked = np.where(same_order if mode == "matched" else ~same_order, gamma, 0.0)
    norms = np.sqrt((masked**2).sum(axis=1, keepdims=True))
    return float(norms.sum()), np.divide(masked, norms, out=np.zeros_like(gamma), where=norms > 0)


def _check_marginals(a: np.ndarray, b: np.ndarray):
    if a.ndim != 1 or b.ndim != 1:
        raise DimensionMismatchError(
            f"dimension mismatch: marginals must be 1-D, got {a.shape} and {b.shape}"
        )
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("marginals must be finite")
    if np.any(a <= 0) or np.any(b <= 0):
        raise ValueError("marginals must be strictly positive")
    if abs(a.sum() - 1.0) > 1e-9 or abs(b.sum() - 1.0) > 1e-9:
        raise ValueError("marginals must each sum to 1")


def _checked_cost(cost, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    cost = np.asarray(cost, dtype=float)
    if cost.shape != (len(a), len(b)):
        raise DimensionMismatchError(
            f"dimension mismatch: cost {cost.shape} vs marginals ({len(a)}, {len(b)})"
        )
    return cost


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
    """Entropic transport plan: stabilized Sinkhorn, finished by Newton steps.

    Two stages run in order on every shape.  `_scaling_sinkhorn`, the
    iterates of log-domain Sinkhorn in scaling form, runs until the
    marginal violation reaches `tol`, crawls (the drop since its last
    check, continued geometrically, would take more than min(k_s, k_t)
    further iterations to reach `tol`, about what one or two Newton steps
    cost) or its next scaling would leave [SCALING_MIN, SCALING_MAX].
    `_newton_sinkhorn` then takes Newton steps from its duals, each
    counting as one iteration, until the violation reaches `tol`; a solve
    the scaling form finished takes none.  The plan is
    exp(-cost / entropy_weight + u + v) at the final duals u, v.

    Iterates until the worst marginal deviation falls below `tol` (finite,
    >= 0) or the `max_iters` budget (an integer >= 1) runs out (then the
    achieved violation is reported with `converged=False`).
    `entropy_weight` must be finite and > 0.  A cost of the wrong shape
    raises `DimensionMismatchError`; a NaN or -inf cost, or a row or column
    with no finite cost, raises `NumericalFailureError` before any iteration.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_marginals(a, b)
    if not 0 < entropy_weight < np.inf:
        raise ValueError("entropy_weight must be finite and > 0")
    if not 0 <= tol < np.inf:
        raise ValueError("tol must be finite and >= 0")
    if not (float(max_iters).is_integer() and max_iters >= 1):
        raise ValueError("max_iters must be an integer >= 1")
    log_k = -_checked_cost(cost, a, b) / entropy_weight
    finite = np.isfinite(log_k)
    if not finite.all():
        if np.isnan(log_k).any() or np.isposinf(log_k).any():
            raise NumericalFailureError("numerical failure: NaN or -inf in sinkhorn cost")
        if not (finite.any(axis=1).all() and finite.any(axis=0).all()):
            raise NumericalFailureError("numerical failure: a cost row or column has no finite entry")
    u, v, scaling_iters = _scaling_sinkhorn(log_k, a, b, max_iters, tol)
    plan, violation, it = _newton_sinkhorn(log_k, a, b, u, v, scaling_iters, max_iters, tol)
    if not np.all(np.isfinite(plan)):
        raise NumericalFailureError("numerical failure: non-finite transport plan")
    return Coupling(plan, violation, it, violation <= tol, it - scaling_iters)


def _scaling_sinkhorn(log_k, a, b, max_iters, tol):
    """Log-domain Sinkhorn iterates in scaling form; returns (u, v, iterations).

    Stops at violation `tol`, at the first check where the violation
    crawls (as `sinkhorn` defines it), at the budget, or before an
    iteration whose scaling would leave [SCALING_MIN, SCALING_MAX] (a
    column mass that underflows to 0 gives an infinite one).  That last
    iteration is not taken: the duals are those of the last in-range
    iterate and the count holds only completed iterations.

    Each iteration fits the column marginals, then the row marginals.  The
    first is a log-domain sweep and yields duals u, v and the kernel
    K = exp(log_k + u + v), the current plan (Schmitzer 2019).  Later ones
    keep the plan as su * K * sv and update the scalings by sv = b / (su @ K),
    then su = a / (K @ sv), so rows are exact after each iteration and the
    stopping check reads the column sums, which the next column update
    reuses.
    """
    u, v = _sweep(log_k, np.log(a), np.log(b), np.zeros(len(a)))
    kernel = np.exp(log_k + u[:, None] + v[None, :])
    su, sv = np.ones(len(a)), np.ones(len(b))  # the plan is su[:, None] * kernel * sv
    check_every = 1 if log_k.size <= 10_000 else 10
    it, violation = 1, np.inf
    # crawling: violation / previous > (tol / violation) ** crawl
    crawl = check_every / min(log_k.shape)
    with np.errstate(divide="ignore"):
        while True:
            col_mass = su @ kernel
            if it % check_every == 0:
                # rows are exact after the row update, so only columns can miss
                previous, violation = violation, float(np.abs(sv * col_mass - b).max())
                if not np.isfinite(violation):
                    raise NumericalFailureError("numerical failure: NaN in sinkhorn iterates")
                if violation <= tol or violation > previous * (tol / violation) ** crawl:
                    break
            next_sv = b / col_mass
            if it == max_iters or not _in_range(next_sv):
                break
            next_su = a / (kernel @ next_sv)
            if not _in_range(next_su):
                break
            su, sv, it = next_su, next_sv, it + 1
        return u + np.log(su), v + np.log(sv), it


def _newton_sinkhorn(log_k, a, b, u, v, it, max_iters, tol):
    """Damped Newton steps on the Sinkhorn dual from (u, v), up to `max_iters` in all.

    The dual objective is f(u, v) = sum P - a.u - b.v with
    P = exp(log_k + u + v) (Brauer, Clason, Lorenz & Wirth 2017, "A
    Sinkhorn-Newton method for entropic optimal transport").  Its gradient
    is the marginal residual (P1 - a, P'1 - b) and its Hessian
    [[diag(P1), P], [P', diag(P'1)]]; one dual is pinned to fix the gauge
    u + c, v - c, and the Hessian is shifted by `NEWTON_SHIFT` times the
    current violation, which keeps near-permutation plans (rows of P that
    are almost one-hot) solvable; a shift of the whole violation swamps the
    Hessian's small eigenvalues at small entropy weights and turns the
    steps into slow gradient-like ones.  An Armijo search (sufficient
    decrease 1e-4, up to 30 halvings, else no step) backtracks on f, whose
    change along a step is summed as P * expm1 so it does not cancel
    against a.u + b.v; the accepted change is added to P, which gives the
    plan at the new duals without another `exp`.  A Sinkhorn sweep follows
    each step (`_plan_sweep`): in scaling form on that plan, in the log
    domain only where a scaling would leave [SCALING_MIN, SCALING_MAX].
    Where the plan has underflowed, Newton moves a dual by O(1) per step
    and a sweep moves it in one go.

    Returns (plan, violation, iterations) at the last check, which comes
    before any step when (u, v) already meet `tol` or the budget is spent.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while True:
            plan = np.exp(log_k + u[:, None] + v[None, :])
            rows, cols = plan.sum(axis=1), plan.sum(axis=0)
            row_res, col_res = rows - a, cols - b
            violation = float(max(np.abs(row_res).max(), np.abs(col_res).max()))
            if not np.isfinite(violation):
                raise NumericalFailureError("numerical failure: NaN in sinkhorn iterates")
            if violation <= tol or it >= max_iters:
                return plan, violation, it
            it += 1
            shift = NEWTON_SHIFT * violation
            du, dv = _newton_direction(plan, rows, cols, row_res, col_res, shift)
            slope, along = row_res @ du + col_res @ dv, du[:, None] + dv[None, :]
            t, change = 1.0, np.empty_like(plan)
            for _ in range(30):
                # change = plan * expm1(t * along), the plan's change along the step
                np.expm1(np.multiply(t, along, out=change), out=change)
                change *= plan
                if change.sum() - t * (a @ du + b @ dv) <= 1e-4 * t * slope:
                    plan += change
                    u, v = u + t * du, v + t * dv
                    break
                t *= 0.5
            u, v = _plan_sweep(log_k, a, b, plan, u, v)


def _newton_direction(plan, rows, cols, row_res, col_res, shift):
    """(du, dv) solving the shifted Newton system, the last dual of the shorter side pinned.

    For k_s >= k_t, with the last v pinned, Q = plan[:, :-1] and
    D_r = diag(rows) + shift, du = -D_r^-1 (row_res + Q dv) and dv solves
    the Schur complement system
    (diag(cols) + shift - Q' D_r^-1 Q) dv = Q' D_r^-1 row_res - col_res,
    so the dense solve is min(k_s, k_t) - 1 wide.  Q' D_r^-1 Q is built as
    W'W with W = D_r^-1/2 Q.  k_s < k_t is solved transposed.
    """
    if plan.shape[0] < plan.shape[1]:
        dv, du = _newton_direction(plan.T, cols, rows, col_res, row_res, shift)
        return du, dv
    q, d_r = plan[:, :-1], rows + shift
    w = q / np.sqrt(d_r)[:, None]
    schur = -(w.T @ w)  # numpy hands a symmetric product to BLAS syrk
    schur.flat[:: len(schur) + 1] += cols[:-1] + shift
    dv = np.append(np.linalg.solve(schur, q.T @ (row_res / d_r) - col_res[:-1]), 0.0)
    return -(row_res + plan @ dv) / d_r, dv


def _in_range(scaling: np.ndarray) -> bool:
    return SCALING_MIN <= scaling.min() and scaling.max() <= SCALING_MAX


def _plan_sweep(log_k, a, b, plan, u, v):
    """`_sweep` from duals (u, v) whose plan exp(log_k + u + v) is `plan`.

    The same column-then-row fit in scaling form: sv = b / (plan' 1), then
    su = a / (plan sv), added to the duals as logs, with no `exp`.  Where sv
    or su would leave [SCALING_MIN, SCALING_MAX] (a column of `plan` that
    has underflowed gives an infinite sv) it runs `_sweep` from u instead.
    """
    sv = b / plan.sum(axis=0)
    if _in_range(sv):
        su = a / (plan @ sv)
        if _in_range(su):
            return u + np.log(su), v + np.log(sv)
    return _sweep(log_k, np.log(a), np.log(b), u)


def _sweep(log_k, log_a, log_b, u):
    """One log-domain Sinkhorn iteration from u: fit the columns, then the rows."""
    v = log_b - _logsumexp(log_k + u[:, None], axis=0)
    return log_a - _logsumexp(log_k + v[None, :], axis=1), v


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

    `classes` (the source class label per row, shape (k_s,)) is required
    when `hyper.group_weight > 0`, and `same_order` (the (k_s, k_t)
    same-order mask) when `hyper.order_weight > 0`; either one of another
    shape raises `DimensionMismatchError`.

    Each iteration linearizes the group penalties at the current plan, solves
    the entropic subproblem on the shifted cost (`sinkhorn` on its default
    budget), then backtracks (Armijo, sufficient decrease 1e-4, factor 0.5,
    up to 30 halvings) along the feasible segment.  Stops when the relative
    objective decrease drops below `GCG_TOL`, when no descent direction
    remains, or after `GCG_MAX_ITERS` steps.  Without penalties (both
    weights 0) every subproblem has the same cost, so its Sinkhorn solve is
    done once and reused.  Each trial point is evaluated once, and the
    accepted one's gradients are what the next iteration linearizes.

    Returns the final coupling and the objective value per accepted iterate.
    The coupling is flagged `converged` only when every Sinkhorn direction
    solved along the way converged.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_marginals(a, b)
    cost = _checked_cost(cost, a, b)
    eta, tau = hyper.group_weight, hyper.order_weight
    if eta > 0 and classes is None:
        raise ValueError("group_weight > 0 requires class groups")
    if tau > 0 and same_order is None:
        raise ValueError("order_weight > 0 requires order groups")
    for name, groups, shape in (("classes", classes, a.shape), ("same_order", same_order, cost.shape)):
        if groups is not None and np.shape(groups) != shape:
            raise DimensionMismatchError(f"dimension mismatch: {name} {np.shape(groups)} vs {shape}")

    def evaluate(g):
        """(objective, penalty subgradient, entropy gradient) at plan g."""
        h, ent_grad = entropy(g)
        pen, pen_sub = 0.0, np.zeros_like(g)
        if eta > 0:
            v, sub = group_sparse(g, classes)
            pen += eta * v
            pen_sub += eta * sub
        if tau > 0:
            v, sub = temporal_reg(g, same_order, hyper.order_mode)
            pen += tau * v
            pen_sub += tau * sub
        return float((g * cost).sum()) + hyper.entropy_weight * h + pen, pen_sub, ent_grad

    gamma = np.outer(a, b)
    obj, pen_sub, ent_grad = evaluate(gamma)
    trace = [obj]
    worst_violation = _violation(gamma, a, b)
    converged = True
    newton_steps = 0

    direction = None
    for _ in range(GCG_MAX_ITERS):
        if direction is None or eta > 0 or tau > 0:  # penalty-free: one cost, one solve
            direction = sinkhorn(a, b, cost + pen_sub, hyper.entropy_weight)
            newton_steps += direction.newton_steps
        worst_violation = max(worst_violation, direction.marginal_violation)
        converged = converged and direction.converged
        delta = direction.values - gamma
        slope = float(((cost + hyper.entropy_weight * ent_grad + pen_sub) * delta).sum())
        if slope >= -1e-15:
            break
        for alpha in 0.5 ** np.arange(30.0):
            candidate = gamma + alpha * delta
            evaluation = evaluate(candidate)
            if evaluation[0] <= obj + 1e-4 * alpha * slope:
                break
        else:
            break
        gamma, (obj, pen_sub, ent_grad) = candidate, evaluation
        trace.append(obj)
        if trace[-2] - obj < GCG_TOL * max(abs(trace[-2]), 1e-30):
            break

    # every iterate is a convex combination of feasible endpoints, so the
    # worst direction violation bounds the violation along the whole path
    worst_violation = max(worst_violation, _violation(gamma, a, b))
    return (
        Coupling(gamma, worst_violation, len(trace) - 1, converged, newton_steps),
        np.asarray(trace),
    )
