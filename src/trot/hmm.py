"""Per-activity temporal sub-state models.

Each activity is modeled as a cyclic chain of N diagonal-Gaussian states in
which state k stays in k or advances to (k + 1) mod N.  In the default
deterministic mode the chain always advances, so the state path is fixed by
window position and fitting reduces to per-state maximum likelihood.  The
`em` mode learns each state's stay probability with Baum-Welch and decodes
with Viterbi, both stepping through all runs of a class at once.  The
per-user bank of all C x N states forms the atlas: (C*N, d) mean and
variance arrays tagged by class and 1-based order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ClassAbsentError, InsufficientDataError, NumericalFailureError
from .preprocess import FeatureDataset

VARIANCE_FLOOR = 1e-6
EM_MAX_ITER = 100
EM_TOL = 1e-6
LOG_ZERO = -745.0  # the fit's log of a zero probability, below that of any positive double


@dataclass
class ActivityHMM:
    """Chain of N diagonal Gaussians for one activity; row k is the state of
    order k + 1.  The chain starts in the first state; state k stays with
    probability `stay[k]` and otherwise advances to state (k + 1) mod N."""

    means: np.ndarray  # (N, d)
    var: np.ndarray  # (N, d)
    stay: np.ndarray  # (N,)
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


def run_steps(window_index: np.ndarray) -> np.ndarray:
    """Position of each window within its maximal run of consecutive indices."""
    pos = np.arange(len(window_index))
    starts = np.diff(window_index, prepend=np.nan) != 1
    return pos - np.maximum.accumulate(np.where(starts, pos, 0))


def _packing(window_index: np.ndarray):
    """Step-major packing, longest run first: block t holds the t-th window of
    every run longer than t, a prefix of block t - 1's runs.  Returns the packed
    order, the number of runs, the (previous, current) slices of every later
    block and each later window's packed predecessor."""
    steps = run_steps(window_index)
    run = np.cumsum(steps == 0) - 1
    sizes = np.bincount(steps)
    start = np.cumsum(sizes) - sizes
    blocks = [(slice(p, p + n), slice(s, s + n)) for p, s, n in zip(start, start[1:], sizes[1:])]
    prev = np.arange(sizes[0], len(steps)) - np.repeat(sizes[:-1], sizes[1:])
    return np.lexsort((run, -np.bincount(run)[run], steps)), sizes[0], blocks, prev


def _log_emissions(features: np.ndarray, means: np.ndarray, var: np.ndarray) -> np.ndarray:
    diff = features[:, None, :] - means[None, :, :]
    return -0.5 * (np.log(2 * np.pi * var).sum(axis=1)[None, :] + (diff**2 / var).sum(axis=2))


def _forward(log_b, blocks, log_stay, log_adv, combine) -> np.ndarray:
    """Forward pass from the first state at every run's start, combining the
    stay and advance arrivals with np.logaddexp (Baum-Welch) or np.maximum
    (Viterbi)."""
    out = np.where(np.arange(log_b.shape[1]) == 0, log_b, -np.inf)
    for prev, cur in blocks:
        out[cur] = log_b[cur] + combine(out[prev] + log_stay, np.roll(out[prev] + log_adv, 1, axis=1))
    return out


def _fit_em(class_windows: FeatureDataset, means: np.ndarray, var: np.ndarray) -> ActivityHMM:
    """Baum-Welch on the stay/advance chain, started from the (N, d) `means`
    and `var` with every stay probability at 1/2."""
    order, n_runs, blocks, prev = _packing(class_windows.window_index)
    x = class_windows.features[order]
    stay = np.full(len(means), 0.5)
    trace = []
    for _ in range(EM_MAX_ITER):
        with np.errstate(divide="ignore"):
            log_stay, log_adv = (np.maximum(np.log(p), LOG_ZERO) for p in (stay, 1 - stay))
        log_b = _log_emissions(x, means, var)
        log_alpha = _forward(log_b, blocks, log_stay, log_adv, np.logaddexp)
        log_beta = np.zeros_like(log_b)
        for before, cur in reversed(blocks):
            ahead = log_b[cur] + log_beta[cur]
            log_beta[before] = np.logaddexp(ahead + log_stay, np.roll(ahead, -1, axis=1) + log_adv)
        ll = np.logaddexp.reduce(log_alpha + log_beta, axis=1)  # its run's, at every window
        trace.append(ll[:n_runs].sum())
        if not np.isfinite(trace[-1]):
            raise NumericalFailureError("numerical failure: non-finite likelihood")
        if len(trace) > 1 and trace[-1] - trace[-2] < EM_TOL:
            break
        gamma = np.exp(log_alpha + log_beta - ll[:, None])
        ahead = (log_b + log_beta - ll[:, None])[n_runs:]
        stays = np.exp(log_alpha[prev] + log_stay + ahead).sum(axis=0)
        advances = np.exp(log_alpha[prev] + log_adv + np.roll(ahead, -1, axis=1)).sum(axis=0)
        # M-step; states with no responsibility or no moves keep their parameters
        mass = gamma.sum(axis=0)[:, None]
        live = mass >= 1e-12
        weight = np.where(live, mass, 1.0)
        fitted = gamma.T @ x / weight
        spread = np.einsum("wk,wkd->kd", gamma, (x[:, None, :] - fitted) ** 2) / weight
        var = np.where(live, np.maximum(spread, VARIANCE_FLOOR), var)
        means = np.where(live, fitted, means)
        moves = stays + advances
        stay = np.divide(stays, moves, out=stay, where=moves > 0)
    return ActivityHMM(means, var, stay, log_likelihood_trace=np.array(trace))


def _viterbi(class_windows: FeatureDataset, model: ActivityHMM) -> np.ndarray:
    """Most likely state of every window, each run decoded from the first state."""
    order, n_runs, blocks, prev = _packing(class_windows.window_index)
    log_b = _log_emissions(class_windows.features[order], model.means, model.var)
    with np.errstate(divide="ignore"):
        log_stay, log_adv = np.log(model.stay), np.log(1 - model.stay)
    score = _forward(log_b, blocks, log_stay, log_adv, np.maximum)
    stayed, advanced = score[prev] + log_stay, np.roll(score[prev] + log_adv, 1, axis=1)
    # ties go to the lower-numbered predecessor: the state before, except for state 0
    back = np.zeros(score.shape, dtype=bool)
    back[n_runs:] = np.where(np.arange(len(model.stay)) > 0, advanced >= stayed, advanced > stayed)
    path = np.argmax(score, axis=1)  # kept where a run ends
    for before, cur in reversed(blocks):
        arrived = path[cur, None]
        path[before] = (arrived - np.take_along_axis(back[cur], arrived, 1))[:, 0] % len(model.stay)
    return path[np.argsort(order)]


def assign_states(
    class_windows: FeatureDataset, n_states: int, mode: str = "deterministic"
) -> np.ndarray:
    """State index (0..N-1) per window of a single-class dataset.

    Deterministic mode advances the chain one state per window, restarting
    at every gap in `window_index`; em mode returns the Viterbi path of the
    fitted model.  Every state must receive at least one window.
    """
    if mode == "deterministic":
        if len(class_windows) < n_states:
            raise InsufficientDataError(
                f"insufficient class data: {len(class_windows)} windows < {n_states} states"
            )
        path = run_steps(class_windows.window_index) % n_states
    elif mode == "em":
        path = _viterbi(class_windows, fit_activity_hmm(class_windows, n_states, mode))
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
    chain (every `stay` is 0): per-state sample means and diagonal variances
    of the windows the fixed path assigns.  em mode runs Baum-Welch with
    self-transitions allowed, initialized from the deterministic fit.
    """
    path = assign_states(class_windows, n_states)
    members = [class_windows.features[path == k] for k in range(n_states)]
    means = np.array([m.mean(axis=0) for m in members])
    var = np.maximum(np.array([m.var(axis=0) for m in members]), VARIANCE_FLOOR)
    if mode == "deterministic":
        return ActivityHMM(means, var, np.zeros(n_states))
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
