"""Per-activity temporal sub-state models.

Each activity is modeled as a cyclic chain of N diagonal-Gaussian states.
In the default deterministic mode the chain advances one state per window,
so the state path is fixed by window position and fitting reduces to
per-state maximum likelihood.  The `em` mode learns self-transition
probabilities with Baum-Welch restricted to the chain support.  The per-user
bank of all C x N states forms the atlas whose uniform-weighted state means
feed the transport solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ClassAbsentError, InsufficientDataError, NumericalFailureError
from .ot_core import _logsumexp
from .preprocess import FeatureDataset

VARIANCE_FLOOR = 1e-6
EM_MAX_ITER = 100
EM_TOL = 1e-6


@dataclass(frozen=True)
class GaussianState:
    """One temporal sub-state: diagonal Gaussian tagged (class, order).

    `order` is the 1-based temporal position within the activity's chain.
    """

    mean: np.ndarray
    var: np.ndarray
    class_id: int
    order: int


@dataclass
class ActivityHMM:
    """Chain of N states for one activity; start is always the first state."""

    states: list[GaussianState]
    transition: np.ndarray  # (N, N) row-stochastic, chain support only
    log_likelihood_trace: np.ndarray | None = field(default=None, repr=False)


@dataclass
class TemporalAtlas:
    """All C x N states of one user with uniform probability masses."""

    states: list[GaussianState]

    @property
    def weights(self) -> np.ndarray:
        return np.full(len(self.states), 1.0 / len(self.states))

    @property
    def means(self) -> np.ndarray:
        return np.array([s.mean for s in self.states])

    @property
    def classes(self) -> np.ndarray:
        return np.array([s.class_id for s in self.states])

    @property
    def orders(self) -> np.ndarray:
        return np.array([s.order for s in self.states])

    def __len__(self):
        return len(self.states)


def contiguous_runs(window_index: np.ndarray) -> list[np.ndarray]:
    """Split positions into maximal runs of consecutive window indices."""
    breaks = np.nonzero(np.diff(window_index) != 1)[0] + 1
    return np.split(np.arange(len(window_index)), breaks)


def _state_mle(features: np.ndarray, path: np.ndarray, n_states: int, class_id: int):
    states = []
    for k in range(n_states):
        members = features[path == k]
        mean = members.mean(axis=0)
        var = np.maximum(members.var(axis=0), VARIANCE_FLOOR)
        states.append(GaussianState(mean, var, class_id, k + 1))
    return states


def _log_emissions(features: np.ndarray, states: list[GaussianState]) -> np.ndarray:
    means = np.array([s.mean for s in states])
    var = np.array([s.var for s in states])
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


def _fit_em(class_windows: FeatureDataset, states: list[GaussianState]) -> ActivityHMM:
    """Baum-Welch on the chain with self-transitions, started from `states`."""
    n_states = len(states)
    sequences = [class_windows.features[r] for r in contiguous_runs(class_windows.window_index)]
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
            sq_acc = np.zeros((n_states, class_windows.dim))
            xi_sum = np.zeros((n_states, n_states))
            for seq in sequences:
                log_b = _log_emissions(seq, states)
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
            for k in range(n_states):
                if gamma_sum[k] < 1e-12:
                    continue
                mean = mean_acc[k] / gamma_sum[k]
                var = np.maximum(sq_acc[k] / gamma_sum[k] - mean**2, VARIANCE_FLOOR)
                states[k] = replace(states[k], mean=mean, var=var)
            xi_sup = np.where(support, xi_sum, 0.0)
            rows = xi_sup.sum(axis=1, keepdims=True)
            trans = np.where(rows > 0, xi_sup / np.where(rows > 0, rows, 1.0), trans)
    return ActivityHMM(states, trans, log_likelihood_trace=np.array(trace))


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
        model = fit_activity_hmm(class_windows, n_states, mode, class_id=-1)
        with np.errstate(divide="ignore"):
            log_a = np.log(model.transition)
        path = np.concatenate(
            [_viterbi(_log_emissions(class_windows.features[r], model.states), log_a) for r in runs]
        )
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if len(np.unique(path)) < n_states:
        raise InsufficientDataError(
            "insufficient class data: some states received no windows"
        )
    return path


def fit_activity_hmm(
    class_windows: FeatureDataset, n_states: int, mode: str = "deterministic", class_id: int = 0
) -> ActivityHMM:
    """Fit one activity's chain of N Gaussian states.

    Deterministic mode is the collapsed-EM solution under the always-advance
    chain: per-state sample means and diagonal variances of the windows the
    fixed path assigns.  em mode runs Baum-Welch with self-transitions
    allowed, initialized from the deterministic fit.
    """
    path = assign_states(class_windows, n_states)
    states = _state_mle(class_windows.features, path, n_states, class_id)
    if mode == "deterministic":
        return ActivityHMM(states, np.roll(np.eye(n_states), 1, axis=1))
    if mode == "em":
        return _fit_em(class_windows, states)
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
    states: list[GaussianState] = []
    for c in np.unique(dataset.labels):
        subset = dataset.subset(np.nonzero(dataset.labels == c)[0])
        states.extend(fit_activity_hmm(subset, n_states, mode, class_id=int(c)).states)
    return TemporalAtlas(states)


def assign_dataset_states(
    dataset: FeatureDataset, n_states: int, mode: str = "deterministic"
):
    """Per-window (class, order) assignment matching `build_atlas` states.

    Orders are 1-based to match `GaussianState.order`.
    """
    if dataset.labels is None:
        raise ClassAbsentError("class absent: dataset has no labels")
    orders = np.zeros(len(dataset), dtype=int)
    for c in np.unique(dataset.labels):
        idx = np.nonzero(dataset.labels == c)[0]
        orders[idx] = assign_states(dataset.subset(idx), n_states, mode) + 1
    return dataset.labels.copy(), orders
