"""Ground-truth generator for cross-user benchmarks.

Each class gets N Gaussian state centers laid out on a grid: classes are
spaced along axis 0 and temporal states along axis 1.  Adjacent classes run
their states in opposite directions along the state axis (zigzag), so
spatial proximity alone cannot reveal temporal order and order information
stays informative.  Windows are emitted in a round-robin class schedule so
any temporal half of the stream contains every class, and states cycle
0..N-1 restarting at every run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hmm import TemporalAtlas
from .preprocess import FeatureDataset


@dataclass
class SynthSpec:
    """Parameters of one synthetic cross-user pair."""

    n_classes: int = 4
    n_states: int = 4
    windows_per_class: int = 200
    feature_dim: int = 8
    class_separation: float = 4.0
    state_separation: float = 4.0
    user_shift: np.ndarray | None = None  # (C, N, d) target translation
    noise_std: float = 0.25
    seed: int = 0
    rounds: int = 4  # class schedule repeats; keeps all classes in each half

    def __post_init__(self):
        if min(self.n_classes, self.n_states, self.windows_per_class, self.feature_dim) < 1:
            raise ValueError("counts and dimensions must be >= 1")
        if self.noise_std <= 0:
            raise ValueError("noise_std must be > 0")
        if self.feature_dim < 2 and (self.n_classes > 1 or self.n_states > 1):
            raise ValueError("feature_dim must be >= 2 for the state grid")
        if self.user_shift is not None:
            self.user_shift = np.asarray(self.user_shift, dtype=float)
            expected = (self.n_classes, self.n_states, self.feature_dim)
            if self.user_shift.shape != expected:
                raise ValueError(f"user_shift must have shape {expected}")


def state_grid(spec: SynthSpec) -> np.ndarray:
    """True state centers, shape (C, N, d): classes along axis 0 of feature
    space, states along axis 1, zigzagging direction per class parity."""
    c, k = np.arange(spec.n_classes)[:, None], np.arange(spec.n_states)
    mu = np.zeros((spec.n_classes, spec.n_states, spec.feature_dim))
    mu[..., 0] = c * spec.class_separation
    if spec.feature_dim > 1:
        mu[..., 1] = np.where(c % 2 == 1, spec.n_states - 1 - k, k) * spec.state_separation
    return mu


def adversarial_user_shift(spec: SynthSpec, scale: float = 1.0) -> np.ndarray:
    """Per-class translation that drops each shifted class nearest to a
    neighboring class of the source grid (alternating +/- 0.7 class
    separations along the class axis), constant across temporal states."""
    sign = np.where(np.arange(spec.n_classes) % 2 == 0, 1.0, -1.0)
    shift = np.zeros((spec.n_classes, spec.n_states, spec.feature_dim))
    shift[..., 0] = (sign * 0.7 * spec.class_separation * scale)[:, None]
    return shift


def _schedule(spec: SynthSpec) -> tuple[np.ndarray, np.ndarray]:
    """Each window's class and chain state: `rounds` round-robin passes over
    the classes, every run long enough for one full state cycle, and states
    cycling 0..N-1 from each run's start."""
    rounds = max(1, min(spec.rounds, spec.windows_per_class // spec.n_states))
    base, extra = divmod(spec.windows_per_class, rounds)
    lengths = np.repeat(base + (np.arange(rounds) < extra), spec.n_classes)
    step = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return np.tile(np.arange(spec.n_classes), rounds).repeat(lengths), step % spec.n_states


def generate_user(
    spec: SynthSpec, shift: np.ndarray | None, user_id: str, rng: np.random.Generator
) -> tuple[FeatureDataset, TemporalAtlas]:
    """Draw one user's stream around the (optionally shifted) state grid."""
    mu = state_grid(spec)
    if shift is not None:
        mu = mu + shift
    classes, states = _schedule(spec)
    noise = rng.normal(0.0, spec.noise_std, (len(classes), spec.feature_dim))
    dataset = FeatureDataset(mu[classes, states] + noise, classes, np.arange(len(classes)), user_id)
    return dataset, TemporalAtlas.from_chains(mu, np.arange(spec.n_classes))


def generate_pair(spec: SynthSpec):
    """Source/target datasets plus their ground-truth atlases.

    The target user is the same construction translated by `spec.user_shift`;
    all randomness flows from `spec.seed`.
    """
    rng = np.random.default_rng(spec.seed)
    source, src_atlas = generate_user(spec, None, "source", rng)
    target, tgt_atlas = generate_user(spec, spec.user_shift, "target", rng)
    return source, target, (src_atlas, tgt_atlas)
