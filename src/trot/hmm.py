"""Per-activity temporal sub-state models.

Each activity is modeled as a left-to-right (optionally cyclic) chain of N
diagonal-Gaussian states.  In the default deterministic mode the chain
advances one state per window, so the state path is fixed by window position
and fitting reduces to per-state maximum likelihood.  The `em` mode learns
self-transition probabilities with Baum-Welch restricted to the chain
support.  The per-user bank of all C x N states forms the atlas whose
uniform-weighted state means feed the transport solver.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ClassAbsentError, InsufficientDataError, NumericalFailureError
from .preprocess import FeatureDataset

VARIANCE_FLOOR = 1e-6


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
    cyclic: bool = True
    log_likelihood_trace: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_states(self) -> int:
        return len(self.states)


@dataclass
class TemporalAtlas:
    """All C x N states of one user with uniform probability masses."""

    states: list[GaussianState]
    weights: np.ndarray
    user_id: str = ""
    n_states: int = 0
    mode: str = "deterministic"

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
    if len(window_index) == 0:
        return []
    breaks = np.nonzero(np.diff(window_index) != 1)[0] + 1
    return np.split(np.arange(len(window_index)), breaks)


def _deterministic_path(run_lengths, n_states: int, cyclic: bool) -> np.ndarray:
    parts = []
    for length in run_lengths:
        t = np.arange(length)
        parts.append(t % n_states if cyclic else np.minimum(t, n_states - 1))
    return np.concatenate(parts)


def _chain_support(n_states: int, cyclic: bool) -> np.ndarray:
    support = np.zeros((n_states, n_states), dtype=bool)
    idx = np.arange(n_states)
    support[idx, idx] = True
    if cyclic:
        support[idx, (idx + 1) % n_states] = True
    else:
        support[idx[:-1], idx[:-1] + 1] = True
    return support


def _literal_transition(n_states: int, cyclic: bool) -> np.ndarray:
    """Always-advance chain: probability 1 on the next state."""
    a = np.zeros((n_states, n_states))
    if n_states == 1:
        a[0, 0] = 1.0
        return a
    idx = np.arange(n_states - 1)
    a[idx, idx + 1] = 1.0
    if cyclic:
        a[-1, 0] = 1.0
    else:
        a[-1, -1] = 1.0
    return a


def _state_mle(features: np.ndarray, path: np.ndarray, n_states: int, class_id: int):
    states = []
    for k in range(n_states):
        members = features[path == k]
        if len(members) == 0:
            raise InsufficientDataError(
                f"insufficient class data: state {k} of class {class_id} has no windows"
            )
        mean = members.mean(axis=0)
        var = np.maximum(members.var(axis=0), VARIANCE_FLOOR)
        states.append(GaussianState(mean, var, class_id, k + 1))
    return states


def _log_emissions(features: np.ndarray, states: list[GaussianState]) -> np.ndarray:
    means = np.array([s.mean for s in states])
    var = np.array([s.var for s in states])
    diff = features[:, None, :] - means[None, :, :]
    return -0.5 * (np.log(2 * np.pi * var).sum(axis=1)[None, :] + (diff**2 / var).sum(axis=2))


def _lse(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        return np.squeeze(m, axis) + np.log(np.exp(a - m).sum(axis=axis))


def _forward_backward(log_b: np.ndarray, log_a: np.ndarray, log_pi: np.ndarray):
    """Log-space forward-backward for one sequence.

    Returns (log-likelihood, state posteriors, expected transition counts).
    """
    t_len, n = log_b.shape
    log_alpha = np.empty((t_len, n))
    log_alpha[0] = log_pi + log_b[0]
    for t in range(1, t_len):
        log_alpha[t] = log_b[t] + _lse(log_alpha[t - 1][:, None] + log_a, axis=0)
    ll = _lse(log_alpha[-1], axis=0)
    log_beta = np.zeros((t_len, n))
    for t in range(t_len - 2, -1, -1):
        log_beta[t] = _lse(log_a + (log_b[t + 1] + log_beta[t + 1])[None, :], axis=1)
    gamma = np.exp(log_alpha + log_beta - ll)
    xi = np.zeros((n, n))
    for t in range(t_len - 1):
        xi += np.exp(
            log_alpha[t][:, None] + log_a + (log_b[t + 1] + log_beta[t + 1])[None, :] - ll
        )
    return ll, gamma, xi


def _viterbi(log_b: np.ndarray, log_a: np.ndarray, log_pi: np.ndarray) -> np.ndarray:
    t_len, n = log_b.shape
    score = log_pi + log_b[0]
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


def _split_by_runs(class_windows: FeatureDataset) -> list[np.ndarray]:
    return [class_windows.features[idx] for idx in contiguous_runs(class_windows.window_index)]


def _fit_em(class_windows: FeatureDataset, n_states: int, class_id: int, cyclic: bool,
            max_iter: int = 100, tol: float = 1e-6) -> ActivityHMM:
    sequences = _split_by_runs(class_windows)
    det_path = _deterministic_path([len(s) for s in sequences], n_states, cyclic)
    states = _state_mle(class_windows.features, det_path, n_states, class_id)

    support = _chain_support(n_states, cyclic)
    trans = support.astype(float)
    trans /= trans.sum(axis=1, keepdims=True)

    log_pi = np.full(n_states, -np.inf)
    log_pi[0] = 0.0

    trace = []
    with np.errstate(divide="ignore"):
        for _ in range(max_iter):
            log_a = np.where(support, np.log(np.where(trans > 0, trans, 1.0)), -np.inf)
            log_a[support & (trans <= 0)] = -745.0
            total_ll = 0.0
            gamma_sum = np.zeros(n_states)
            mean_acc = np.zeros((n_states, class_windows.dim))
            sq_acc = np.zeros((n_states, class_windows.dim))
            xi_sum = np.zeros((n_states, n_states))
            for seq in sequences:
                log_b = _log_emissions(seq, states)
                ll, gamma, xi = _forward_backward(log_b, log_a, log_pi)
                total_ll += ll
                gamma_sum += gamma.sum(axis=0)
                mean_acc += gamma.T @ seq
                sq_acc += gamma.T @ (seq**2)
                xi_sum += xi
            if not np.isfinite(total_ll):
                raise NumericalFailureError("numerical failure: non-finite likelihood")
            trace.append(total_ll)
            if len(trace) > 1 and trace[-1] - trace[-2] < tol:
                break
            # M-step; states with no responsibility keep their parameters
            new_states = []
            for k in range(n_states):
                if gamma_sum[k] < 1e-12:
                    new_states.append(states[k])
                    continue
                mean = mean_acc[k] / gamma_sum[k]
                var = np.maximum(sq_acc[k] / gamma_sum[k] - mean**2, VARIANCE_FLOOR)
                new_states.append(GaussianState(mean, var, class_id, k + 1))
            states = new_states
            xi_sup = np.where(support, xi_sum, 0.0)
            rows = xi_sup.sum(axis=1, keepdims=True)
            trans = np.where(rows > 0, xi_sup / np.where(rows > 0, rows, 1.0), trans)
    return ActivityHMM(states, trans, cyclic, log_likelihood_trace=np.array(trace))


def assign_states(
    class_windows: FeatureDataset, n_states: int, mode: str = "deterministic", cyclic: bool = True
) -> np.ndarray:
    """State index (0..N-1) per window of a single-class dataset.

    Deterministic mode advances the chain one state per window, restarting
    at every gap in `window_index`; em mode returns the Viterbi path of the
    fitted model.  Every state must receive at least one window.
    """
    if len(class_windows) < n_states:
        raise InsufficientDataError(
            f"insufficient class data: {len(class_windows)} windows < {n_states} states"
        )
    if mode == "deterministic":
        runs = contiguous_runs(class_windows.window_index)
        path = _deterministic_path([len(r) for r in runs], n_states, cyclic)
    elif mode == "em":
        model = _fit_em(class_windows, n_states, class_id=-1, cyclic=cyclic)
        log_pi = np.full(n_states, -np.inf)
        log_pi[0] = 0.0
        with np.errstate(divide="ignore"):
            log_a = np.log(model.transition)
        parts = [
            _viterbi(_log_emissions(seq, model.states), log_a, log_pi)
            for seq in _split_by_runs(class_windows)
        ]
        path = np.concatenate(parts)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if len(np.unique(path)) < n_states:
        raise InsufficientDataError(
            "insufficient class data: some states received no windows"
        )
    return path


def fit_activity_hmm(
    class_windows: FeatureDataset, n_states: int, mode: str = "deterministic", cyclic: bool = True,
    class_id: int = 0,
) -> ActivityHMM:
    """Fit one activity's chain of N Gaussian states.

    Deterministic mode is the collapsed-EM solution under the always-advance
    chain: per-state sample means and diagonal variances of the windows the
    fixed path assigns.  em mode runs Baum-Welch with self-transitions
    allowed, initialized from the deterministic assignment.
    """
    if mode == "deterministic":
        path = assign_states(class_windows, n_states, mode, cyclic)
        states = _state_mle(class_windows.features, path, n_states, class_id)
        return ActivityHMM(states, _literal_transition(n_states, cyclic), cyclic)
    if mode == "em":
        if len(class_windows) < n_states:
            raise InsufficientDataError(
                f"insufficient class data: {len(class_windows)} windows < {n_states} states"
            )
        return _fit_em(class_windows, n_states, class_id, cyclic)
    raise ValueError(f"unknown mode {mode!r}")


def build_atlas(
    dataset: FeatureDataset,
    n_states: int,
    mode: str = "deterministic",
    classes=None,
    cyclic=True,
) -> TemporalAtlas:
    """Fit every activity's chain and assemble the user's state bank.

    States are ordered (class ascending, order ascending); downstream index
    sets rely on this canonical layout.  Weights are uniform 1/(C*N).
    `cyclic` may be a per-class {class_id: bool} mapping for activities whose
    chain should not wrap around.
    """
    if dataset.labels is None:
        raise ClassAbsentError("class absent: dataset has no labels")
    present = np.unique(dataset.labels)
    if classes is None:
        classes = present
    states: list[GaussianState] = []
    for c in sorted(int(c) for c in classes):
        if c not in present:
            raise ClassAbsentError(f"class absent: {c}")
        wrap = cyclic.get(c, True) if isinstance(cyclic, dict) else cyclic
        model = fit_activity_hmm(
            dataset.subset(np.nonzero(dataset.labels == c)[0]), n_states, mode, wrap, class_id=c
        )
        states.extend(model.states)
    weights = np.full(len(states), 1.0 / len(states))
    return TemporalAtlas(states, weights, dataset.user_id, n_states, mode)


def assign_dataset_states(
    dataset: FeatureDataset, n_states: int, mode: str = "deterministic", cyclic: bool = True
):
    """Per-window (class, order) assignment matching `build_atlas` states.

    Orders are 1-based to match `GaussianState.order`.
    """
    if dataset.labels is None:
        raise ClassAbsentError("class absent: dataset has no labels")
    orders = np.zeros(len(dataset), dtype=int)
    for c in np.unique(dataset.labels):
        idx = np.nonzero(dataset.labels == c)[0]
        orders[idx] = assign_states(dataset.subset(idx), n_states, mode, cyclic) + 1
    return dataset.labels.copy(), orders


def atlas_to_json(atlas: TemporalAtlas) -> str:
    payload = {
        "user_id": atlas.user_id,
        "n_states": atlas.n_states,
        "mode": atlas.mode,
        "states": [
            {
                "class": s.class_id,
                "order": s.order,
                "mean": s.mean.tolist(),
                "var": s.var.tolist(),
            }
            for s in atlas.states
        ],
    }
    return json.dumps(payload, sort_keys=True)


def atlas_from_json(text: str) -> TemporalAtlas:
    payload = json.loads(text)
    states = [
        GaussianState(
            np.asarray(s["mean"], dtype=float),
            np.asarray(s["var"], dtype=float),
            int(s["class"]),
            int(s["order"]),
        )
        for s in payload["states"]
    ]
    weights = np.full(len(states), 1.0 / len(states))
    return TemporalAtlas(states, weights, payload["user_id"], payload["n_states"], payload["mode"])
