"""Per-activity temporal sub-state models.

Each activity is modeled as a cyclic chain of N diagonal-Gaussian states.
In the default deterministic mode the chain advances one state per window,
so the state path is fixed by window position and fitting reduces to
per-state maximum likelihood.  The `em` mode learns self-transition
probabilities with Baum-Welch restricted to the chain support.  The per-user
bank of all C x N states forms the atlas: (C*N, d) mean and variance arrays
whose rows are tagged by class and 1-based order, and whose uniform-weighted
means feed the transport solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ClassAbsentError, InsufficientDataError, NumericalFailureError
from .ot_core import _logsumexp
from .preprocess import FeatureDataset

VARIANCE_FLOOR = 1e-6
EM_MAX_ITER = 100
EM_TOL = 1e-6


@dataclass
class ActivityHMM:
    """Chain of N diagonal Gaussians for one activity; row k is the state of
    order k + 1, and the chain always starts in the first state."""

    means: np.ndarray  # (N, d)
    var: np.ndarray  # (N, d)
    transition: np.ndarray  # (N, N) row-stochastic, chain support only
    log_likelihood_trace: np.ndarray | None = field(default=None, repr=False)


@dataclass
class TemporalAtlas:
    """All C x N states of one user with uniform probability masses.

    Row i is state i in the canonical (class ascending, order ascending)
    layout; `orders` are 1-based positions within the activity's chain.
    """

    means: np.ndarray  # (C*N, d)
    var: np.ndarray  # (C*N, d)
    classes: np.ndarray  # (C*N,) int
    orders: np.ndarray  # (C*N,) int

    @property
    def weights(self) -> np.ndarray:
        return np.full(len(self), 1.0 / len(self))

    def __len__(self):
        return len(self.classes)


def contiguous_runs(window_index: np.ndarray) -> list[np.ndarray]:
    """Split positions into maximal runs of consecutive window indices."""
    breaks = np.nonzero(np.diff(window_index) != 1)[0] + 1
    return np.split(np.arange(len(window_index)), breaks)


def _log_emissions(features: np.ndarray, means: np.ndarray, var: np.ndarray) -> np.ndarray:
    diff = features[:, None, :] - means[None, :, :]
    return -0.5 * (np.log(2 * np.pi * var).sum(axis=1)[None, :] + (diff**2 / var).sum(axis=2))


def _forward_backward(log_b: np.ndarray, log_a: np.ndarray):
    """Log-space forward-backward for one sequence starting in state 0.

    Returns (log-likelihood, state posteriors, expected transition counts).
    """
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


def _viterbi(log_b: np.ndarray, log_a: np.ndarray) -> np.ndarray:
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


def _fit_em(class_windows: FeatureDataset, means: np.ndarray, var: np.ndarray) -> ActivityHMM:
    """Baum-Welch on the chain with self-transitions, started from the
    (N, d) `means` and `var`."""
    n_states = len(means)
    sequences = [class_windows.features[r] for r in contiguous_runs(class_windows.window_index)]
    support = np.eye(n_states) + np.roll(np.eye(n_states), 1, axis=1) > 0
    trans = support / support.sum(axis=1, keepdims=True)

    trace = []
    with np.errstate(divide="ignore"):
        for _ in range(EM_MAX_ITER):
            log_a = np.where(support, np.log(np.where(trans > 0, trans, 1.0)), -np.inf)
            log_a[support & (trans <= 0)] = -745.0
            total_ll = 0.0
            gamma_sum = np.zeros(n_states)
            mean_acc = np.zeros((n_states, class_windows.dim))
            sq_acc = np.zeros((n_states, class_windows.dim))
            xi_sum = np.zeros((n_states, n_states))
            for seq in sequences:
                log_b = _log_emissions(seq, means, var)
                ll, gamma, xi = _forward_backward(log_b, log_a)
                total_ll += ll
                gamma_sum += gamma.sum(axis=0)
                mean_acc += gamma.T @ seq
                sq_acc += gamma.T @ (seq**2)
                xi_sum += xi
            if not np.isfinite(total_ll):
                raise NumericalFailureError("numerical failure: non-finite likelihood")
            trace.append(total_ll)
            if len(trace) > 1 and trace[-1] - trace[-2] < EM_TOL:
                break
            # M-step; states with no responsibility keep their parameters
            live = gamma_sum[:, None] >= 1e-12
            weight = np.where(live, gamma_sum[:, None], 1.0)
            fitted = mean_acc / weight
            var = np.where(live, np.maximum(sq_acc / weight - fitted**2, VARIANCE_FLOOR), var)
            means = np.where(live, fitted, means)
            xi_sup = np.where(support, xi_sum, 0.0)
            rows = xi_sup.sum(axis=1, keepdims=True)
            trans = np.where(rows > 0, xi_sup / np.where(rows > 0, rows, 1.0), trans)
    return ActivityHMM(means, var, trans, log_likelihood_trace=np.array(trace))


def assign_states(
    class_windows: FeatureDataset, n_states: int, mode: str = "deterministic"
) -> np.ndarray:
    """State index (0..N-1) per window of a single-class dataset.

    Deterministic mode advances the chain one state per window, restarting
    at every gap in `window_index`; em mode returns the Viterbi path of the
    fitted model.  Every state must receive at least one window.
    """
    runs = contiguous_runs(class_windows.window_index)
    if mode == "deterministic":
        if len(class_windows) < n_states:
            raise InsufficientDataError(
                f"insufficient class data: {len(class_windows)} windows < {n_states} states"
            )
        path = np.concatenate([np.arange(len(r)) for r in runs]) % n_states
    elif mode == "em":
        model = fit_activity_hmm(class_windows, n_states, mode)
        with np.errstate(divide="ignore"):
            log_a = np.log(model.transition)
        emissions = (_log_emissions(class_windows.features[r], model.means, model.var) for r in runs)
        path = np.concatenate([_viterbi(log_b, log_a) for log_b in emissions])
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if len(np.unique(path)) < n_states:
        raise InsufficientDataError(
            "insufficient class data: some states received no windows"
        )
    return path


def fit_activity_hmm(
    class_windows: FeatureDataset, n_states: int, mode: str = "deterministic"
) -> ActivityHMM:
    """Fit one activity's chain of N Gaussian states.

    Deterministic mode is the collapsed-EM solution under the always-advance
    chain: per-state sample means and diagonal variances of the windows the
    fixed path assigns.  em mode runs Baum-Welch with self-transitions
    allowed, initialized from the deterministic fit.
    """
    path = assign_states(class_windows, n_states)
    members = [class_windows.features[path == k] for k in range(n_states)]
    means = np.array([m.mean(axis=0) for m in members])
    var = np.maximum(np.array([m.var(axis=0) for m in members]), VARIANCE_FLOOR)
    if mode == "deterministic":
        return ActivityHMM(means, var, np.roll(np.eye(n_states), 1, axis=1))
    if mode == "em":
        return _fit_em(class_windows, means, var)
    raise ValueError(f"unknown mode {mode!r}")


def build_atlas(
    dataset: FeatureDataset, n_states: int, mode: str = "deterministic"
) -> TemporalAtlas:
    """Fit every activity's chain and assemble the user's state bank.

    States are ordered (class ascending, order ascending); downstream index
    sets rely on this canonical layout.
    """
    if dataset.labels is None:
        raise ClassAbsentError("class absent: dataset has no labels")
    classes = np.unique(dataset.labels)
    models = [
        fit_activity_hmm(dataset.subset(np.nonzero(dataset.labels == c)[0]), n_states, mode)
        for c in classes
    ]
    return TemporalAtlas(
        np.concatenate([m.means for m in models]),
        np.concatenate([m.var for m in models]),
        np.repeat(classes, n_states),
        np.tile(np.arange(1, n_states + 1), len(classes)),
    )


def assign_dataset_states(
    dataset: FeatureDataset, n_states: int, mode: str = "deterministic"
):
    """Per-window (class, order) assignment matching the `build_atlas` rows.

    Orders are 1-based, as in `TemporalAtlas.orders`.
    """
    if dataset.labels is None:
        raise ClassAbsentError("class absent: dataset has no labels")
    orders = np.zeros(len(dataset), dtype=int)
    for c in np.unique(dataset.labels):
        idx = np.nonzero(dataset.labels == c)[0]
        orders[idx] = assign_states(dataset.subset(idx), n_states, mode) + 1
    return dataset.labels.copy(), orders
