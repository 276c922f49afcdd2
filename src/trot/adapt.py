"""Turning an optimal coupling into transported source data, plus the
correlation-alignment baseline."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateCouplingError,
    DegenerateCovarianceError,
    DimensionMismatchError,
    InsufficientDataError,
    TrotError,
)
from .hmm import TemporalAtlas
from .ot_core import Coupling
from .preprocess import FeatureDataset


@dataclass
class MappedAtlas:
    """Transported source state centers and their per-state displacements.

    Row i is source state i, tagged by the source atlas's `classes[i]` and
    `orders[i]`, so samples can be shifted by the displacement of the state
    they belong to.
    """

    mapped_means: np.ndarray  # (k_s, d)
    displacement: np.ndarray  # (k_s, d), mapped - original mean
    classes: np.ndarray  # (k_s,)
    orders: np.ndarray  # (k_s,)


def barycentric_project(coupling_values: np.ndarray, locations: np.ndarray) -> np.ndarray:
    """Row-normalized coupling times target locations: each source point moves
    to the coupling-weighted average of where its mass lands."""
    row_sums = coupling_values.sum(axis=1)
    if np.any(row_sums <= 0):
        raise DegenerateCouplingError("degenerate coupling row: zero mass")
    return (coupling_values / row_sums[:, None]) @ locations


def barycentric_map(
    coupling: Coupling, src_atlas: TemporalAtlas, tgt_atlas: TemporalAtlas
) -> MappedAtlas:
    """Map each source state mean onto the target atlas via the coupling."""
    mapped = barycentric_project(coupling.values, tgt_atlas.means)
    return MappedAtlas(mapped, mapped - src_atlas.means, src_atlas.classes, src_atlas.orders)


def transform_samples(
    src_dataset: FeatureDataset,
    state_assignment: tuple[np.ndarray, np.ndarray],
    mapped: MappedAtlas,
) -> FeatureDataset:
    """Shift every source window by its state's displacement vector.

    `state_assignment` is the per-window (classes, orders) pair as returned
    by `assign_dataset_states`.  Window order, indices and labels are kept.
    """
    classes, orders = state_assignment
    match = (classes[:, None] == mapped.classes) & (orders[:, None] == mapped.orders)
    known = match.any(axis=1)
    if not known.all():
        i = int(np.argmin(known))
        raise TrotError(f"window {i} assigned to unknown state ({classes[i]}, {orders[i]})")
    rows = match.argmax(axis=1)
    return replace(src_dataset, features=src_dataset.features + mapped.displacement[rows])


def coral_align(
    src: FeatureDataset, tgt: FeatureDataset, ridge: float = 1e-3
) -> FeatureDataset:
    """Recolor source features so their covariance matches the target's.

    Whitens by the (ridge-regularized) source covariance and recolors by the
    target covariance via Cholesky factors.  Each side needs at least 2
    windows for a covariance.
    """
    if len(src) < 2 or len(tgt) < 2:
        raise InsufficientDataError(
            f"insufficient data: coral needs 2 windows a side, got {len(src)} and {len(tgt)}"
        )
    if src.dim != tgt.dim:
        raise DimensionMismatchError(f"dimension mismatch: {src.dim} vs {tgt.dim}")
    d = src.dim
    cov_s = np.cov(src.features, rowvar=False) + ridge * np.eye(d)
    cov_t = np.cov(tgt.features, rowvar=False) + ridge * np.eye(d)
    try:
        l_s = np.linalg.cholesky(cov_s)
        l_t = np.linalg.cholesky(cov_t)
    except np.linalg.LinAlgError as exc:
        raise DegenerateCovarianceError(f"degenerate covariance: {exc}") from exc
    transform = np.linalg.inv(l_s).T @ l_t.T
    return replace(src, features=src.features @ transform)
