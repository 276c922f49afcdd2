"""Turning an optimal coupling into transported source data, plus the
correlation-alignment baseline."""

from __future__ import annotations

from dataclasses import replace

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

CORAL_RIDGE = 1e-3  # added to both covariance diagonals so a flat feature still factors


def barycentric_project(coupling_values: np.ndarray, locations: np.ndarray) -> np.ndarray:
    """Row-normalized coupling times target locations: each source point moves
    to the coupling-weighted average of where its mass lands."""
    row_sums = coupling_values.sum(axis=1)
    if np.any(row_sums <= 0):
        raise DegenerateCouplingError("degenerate coupling row: zero mass")
    return (coupling_values / row_sums[:, None]) @ locations


def barycentric_map(
    coupling: Coupling, src_atlas: TemporalAtlas, tgt_atlas: TemporalAtlas
) -> np.ndarray:
    """(k_s, d) displacement of each source state mean onto its barycentric
    image in the target atlas; row i is source atlas row i."""
    return barycentric_project(coupling.values, tgt_atlas.means) - src_atlas.means


def transform_samples(
    src_dataset: FeatureDataset, rows: np.ndarray, displacement: np.ndarray
) -> FeatureDataset:
    """Shift every source window by the displacement of its atlas row.

    `rows` holds each window's row of the source atlas, as `build_atlas`
    returns them, and `displacement` is `barycentric_map`'s (k_s, d)
    output.  Window order, indices and labels are kept.
    """
    rows = np.asarray(rows)
    if rows.shape != (len(src_dataset),) or displacement.shape[1:] != (src_dataset.dim,):
        raise DimensionMismatchError(
            f"dimension mismatch: rows {rows.shape} and displacement {displacement.shape} "
            f"for {len(src_dataset)} windows of dimension {src_dataset.dim}"
        )
    outside = np.flatnonzero((rows < 0) | (rows >= len(displacement)))
    if len(outside):
        i = outside[0]
        raise TrotError(f"window {i} assigned to row {rows[i]} of a {len(displacement)}-state atlas")
    return replace(src_dataset, features=src_dataset.features + displacement[rows])


def coral_align(src: FeatureDataset, tgt: FeatureDataset) -> FeatureDataset:
    """Recolor source features so their covariance matches the target's.

    Whitens by the source covariance and recolors by the target covariance
    via Cholesky factors, both with `CORAL_RIDGE` added to the diagonal.
    Each side needs at least 2 windows for a covariance.
    """
    if len(src) < 2 or len(tgt) < 2:
        raise InsufficientDataError(
            f"insufficient data: coral needs 2 windows a side, got {len(src)} and {len(tgt)}"
        )
    if src.dim != tgt.dim:
        raise DimensionMismatchError(f"dimension mismatch: {src.dim} vs {tgt.dim}")
    d = src.dim
    cov_s = np.cov(src.features, rowvar=False) + CORAL_RIDGE * np.eye(d)
    cov_t = np.cov(tgt.features, rowvar=False) + CORAL_RIDGE * np.eye(d)
    try:
        l_s = np.linalg.cholesky(cov_s)
        l_t = np.linalg.cholesky(cov_t)
    except np.linalg.LinAlgError as exc:
        raise DegenerateCovarianceError(f"degenerate covariance: {exc}") from exc
    transform = np.linalg.inv(l_s).T @ l_t.T
    return replace(src, features=src.features @ transform)
