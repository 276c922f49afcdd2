"""Sliding-window segmentation, per-window features and max-abs scaling.

Raw recordings carry six channels (3-axis accelerometer + 3-axis gyroscope).
Each sensor triple is combined into a magnitude series and 19 statistical
features are extracted per sensor, giving 38 features per window.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatchError,
    InsufficientDataError,
    InvalidOverlapError,
    InvalidSampleError,
    ScalerMismatchError,
)

CHANNEL_NAMES = ("acc_x", "acc_y", "acc_z", "gyro_x", "gyro_y", "gyro_z")
FEATURES_PER_SENSOR = 19
FEATURE_DIM = 2 * FEATURES_PER_SENSOR


@dataclass(frozen=True)
class Recording:
    """One user's chronologically ordered sensor stream with per-sample labels."""

    sample_rate: float
    channels: np.ndarray  # (n_samples, 6), column order CHANNEL_NAMES
    labels: np.ndarray  # (n_samples,) int
    user_id: str = ""

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.channels.ndim != 2 or self.channels.shape[1] != len(CHANNEL_NAMES):
            raise ValueError("channels must be (n_samples, 6)")
        if len(self.labels) != len(self.channels) or len(self.labels) < 1:
            raise ValueError("labels must match channel length (>= 1)")

    def __len__(self):
        return len(self.channels)


@dataclass(frozen=True)
class RawWindow:
    """Fixed-length slice of a recording with its majority activity label."""

    start: int
    samples: np.ndarray  # (w, 6)
    label: int


@dataclass(frozen=True)
class FeatureWindow:
    features: np.ndarray
    label: int | None
    window_index: int
    user_id: str = ""


@dataclass
class FeatureDataset:
    """Chronologically ordered windowed feature vectors for one user.

    `window_index` keeps the position each window had in the segmented
    stream, so gaps mark discarded windows and temporal contiguity can be
    recovered downstream.
    """

    features: np.ndarray  # (n, d) float
    labels: np.ndarray | None  # (n,) int, or None when unlabeled
    window_index: np.ndarray  # (n,) int, strictly increasing
    user_id: str = ""
    scaler: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.window_index = np.asarray(self.window_index, dtype=int)
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=int)
            if len(self.labels) != len(self.features):
                raise ValueError("labels length mismatch")
        if len(self.window_index) != len(self.features):
            raise ValueError("window_index length mismatch")
        if len(self.window_index) > 1 and np.any(np.diff(self.window_index) <= 0):
            raise ValueError("window_index must be strictly increasing")

    def __len__(self):
        return len(self.features)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def window(self, i: int) -> FeatureWindow:
        label = None if self.labels is None else int(self.labels[i])
        return FeatureWindow(self.features[i], label, int(self.window_index[i]), self.user_id)

    def subset(self, indices) -> "FeatureDataset":
        indices = np.asarray(indices)
        labels = None if self.labels is None else self.labels[indices]
        return FeatureDataset(
            self.features[indices], labels, self.window_index[indices], self.user_id, self.scaler
        )

    def with_labels(self, labels) -> "FeatureDataset":
        return replace(self, labels=np.asarray(labels, dtype=int))


def magnitude(x, y, z):
    """Euclidean norm combining the three axes of one sensor."""
    return np.sqrt(np.asarray(x) ** 2 + np.asarray(y) ** 2 + np.asarray(z) ** 2)


def segment(recording: Recording, window_seconds: float, overlap_fraction: float) -> list[RawWindow]:
    """Cut a recording into fixed-duration windows with fractional overlap.

    Windows start at offsets 0, s, 2s, ... with step
    s = round(w * (1 - overlap_fraction)); the trailing partial window is
    discarded.  Each window gets the most frequent label of its samples;
    windows whose top label count is tied are dropped.
    """
    if not 0 <= overlap_fraction < 1:
        raise InvalidOverlapError("invalid overlap: fraction must be in [0, 1)")
    w = int(round(window_seconds * recording.sample_rate))
    if w < 2:
        raise InsufficientDataError("insufficient data: window shorter than 2 samples")
    if len(recording) < w:
        raise InsufficientDataError(
            f"insufficient data: {len(recording)} samples < window of {w}"
        )
    step = int(round(w * (1.0 - overlap_fraction)))
    if step == 0:
        raise InvalidOverlapError("invalid overlap: step rounds to 0 samples")

    windows = []
    for start in range(0, len(recording) - w + 1, step):
        labels = recording.labels[start : start + w]
        values, counts = np.unique(labels, return_counts=True)
        top = counts.max()
        if np.count_nonzero(counts == top) > 1:
            continue  # ambiguous label, drop the window
        windows.append(
            RawWindow(start, recording.channels[start : start + w], int(values[np.argmax(counts)]))
        )
    return windows


def _moments(x: np.ndarray):
    """Population mean/var/std/skewness/excess kurtosis; zero-variance series
    get skewness and kurtosis 0 so every feature stays finite."""
    mean = x.mean()
    var = x.var()
    std = np.sqrt(var)
    if std == 0.0:
        return mean, var, std, 0.0, 0.0
    z = (x - mean) / std
    return mean, var, std, (z**3).mean(), (z**4).mean() - 3.0


def _mode(x: np.ndarray) -> float:
    """Midpoint of the most populated of 10 equal-width bins over [min, max];
    ties resolve toward the lower bin.  A constant series is its own mode."""
    lo, hi = x.min(), x.max()
    if lo == hi:
        return float(lo)
    counts, edges = np.histogram(x, bins=10, range=(lo, hi))
    b = int(np.argmax(counts))
    return float((edges[b] + edges[b + 1]) / 2.0)


def _mean_crossing_rate(x: np.ndarray) -> float:
    """Sign changes of (x - mean), zeros skipped, divided by (len - 1)."""
    s = np.sign(x - x.mean())
    s = s[s != 0]
    if len(s) < 2:
        return 0.0
    return float(np.count_nonzero(s[1:] != s[:-1])) / (len(x) - 1)


_dft_cache: dict[int, np.ndarray] = {}


def _dft_magnitude(x: np.ndarray) -> np.ndarray:
    """Magnitudes of DFT bins 1..n//2 (single-sided, DC excluded), computed
    from the definition so no transform library is pinned."""
    n = len(x)
    rows = _dft_cache.get(n)
    if rows is None:
        k = np.arange(1, n // 2 + 1)[:, None]
        t = np.arange(n)[None, :]
        rows = np.exp(-2j * np.pi * k * t / n)
        _dft_cache[n] = rows
    return np.abs(rows @ x)


def sensor_features(x: np.ndarray) -> np.ndarray:
    """19 features of one combined-sensor series.

    Order: mean, variance, std, mode, max, min, mean crossing rate, range,
    DC (window mean), then mean/var/std/skew/kurtosis of the rectified
    mean-removed signal, then the same five statistics of the single-sided
    DFT magnitude spectrum (bin 0 excluded).
    """
    x = np.asarray(x, dtype=float)
    if len(x) < 2:
        raise InsufficientDataError("insufficient data: window shorter than 2 samples")
    if not np.all(np.isfinite(x)):
        raise InvalidSampleError("invalid sample: non-finite value in window")
    mean, var, std, _, _ = _moments(x)
    amplitude = np.abs(x - mean)
    spectrum = _dft_magnitude(x)
    return np.array(
        [
            mean,
            var,
            std,
            _mode(x),
            x.max(),
            x.min(),
            _mean_crossing_rate(x),
            x.max() - x.min(),
            mean,  # DC component = zero-frequency bin / n
            *_moments(amplitude),
            *_moments(spectrum),
        ]
    )


def extract_features(*sensor_series: np.ndarray) -> np.ndarray:
    """Concatenated per-sensor features (19 each) for the given series."""
    return np.concatenate([sensor_features(x) for x in sensor_series])


def window_features(window: RawWindow) -> np.ndarray:
    """38-vector for one raw window: accelerometer then gyroscope magnitude."""
    acc = magnitude(window.samples[:, 0], window.samples[:, 1], window.samples[:, 2])
    gyro = magnitude(window.samples[:, 3], window.samples[:, 4], window.samples[:, 5])
    return extract_features(acc, gyro)


def build_features(
    recording: Recording, window_seconds: float = 3.0, overlap_fraction: float = 0.5
) -> FeatureDataset:
    """Segment a recording and extract the 38-dim feature vector per window.

    Windows keep their position in the segmented stream as `window_index`,
    so label-ambiguous windows that were dropped leave gaps.
    """
    raw = segment(recording, window_seconds, overlap_fraction)
    w = int(round(window_seconds * recording.sample_rate))
    step = int(round(w * (1.0 - overlap_fraction)))
    feats = np.array([window_features(win) for win in raw])
    labels = np.array([win.label for win in raw], dtype=int)
    index = np.array([win.start // step for win in raw], dtype=int)
    return FeatureDataset(feats, labels, index, recording.user_id)


def fit_maxabs(dataset: FeatureDataset) -> np.ndarray:
    """Per-feature max absolute value; all-zero columns get scale 1."""
    if len(dataset) == 0:
        raise InsufficientDataError("insufficient data: empty dataset")
    scale = np.abs(dataset.features).max(axis=0)
    scale[scale == 0] = 1.0
    return scale


def maxabs_fit_apply(dataset: FeatureDataset, reference_scaler=None) -> FeatureDataset:
    """Scale features into [-1, 1] by max absolute value.

    With `reference_scaler` the given factors are applied unchanged (values
    may then leave [-1, 1]); otherwise factors are fit on the dataset.
    """
    if reference_scaler is None:
        scale = fit_maxabs(dataset)
    else:
        scale = np.asarray(reference_scaler, dtype=float)
        if scale.shape != (dataset.dim,):
            raise ScalerMismatchError(
                f"scaler mismatch: {scale.shape} vs {dataset.dim} features"
            )
    return replace(dataset, features=dataset.features / scale, scaler=scale)


def load_recording(path, sample_rate: float, user_id: str | None = None) -> Recording:
    """Read a `timestamp,acc_*,gyro_*,label` CSV into a Recording."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        expected = ["timestamp", *CHANNEL_NAMES, "label"]
        if [h.strip() for h in header] != expected:
            raise InvalidSampleError(f"invalid sample: bad header in {path.name}")
        rows = [[float(v) for v in row] for row in reader if row]
    data = np.asarray(rows)
    if len(data) == 0:
        raise InsufficientDataError(f"insufficient data: {path.name} is empty")
    if np.any(np.diff(data[:, 0]) < 0):
        raise InvalidSampleError(f"invalid sample: timestamps decrease in {path.name}")
    return Recording(
        sample_rate=sample_rate,
        channels=data[:, 1:7],
        labels=data[:, 7].astype(int),
        user_id=user_id if user_id is not None else path.stem,
    )


def save_features(dataset: FeatureDataset, path) -> None:
    """Write `window_index,label,f0..f{d-1}` CSV (label -1 when unlabeled)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window_index", "label", *(f"f{i}" for i in range(dataset.dim))])
        labels = dataset.labels if dataset.labels is not None else np.full(len(dataset), -1)
        for i in range(len(dataset)):
            writer.writerow(
                [
                    int(dataset.window_index[i]),
                    int(labels[i]),
                    *(repr(float(v)) for v in dataset.features[i]),
                ]
            )


def load_features(path, user_id: str | None = None) -> FeatureDataset:
    """Read a feature CSV written by `save_features`."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:2] != ["window_index", "label"]:
            raise InvalidSampleError(f"invalid sample: bad header in {path.name}")
        rows = [row for row in reader if row]
    if not rows:
        raise InsufficientDataError(f"insufficient data: {path.name} is empty")
    index = np.array([int(r[0]) for r in rows])
    labels = np.array([int(r[1]) for r in rows])
    feats = np.array([[float(v) for v in r[2:]] for r in rows])
    if not np.all(np.isfinite(feats)):
        raise InvalidSampleError(f"invalid sample: non-finite feature in {path.name}")
    return FeatureDataset(
        feats,
        None if np.all(labels == -1) else labels,
        index,
        user_id if user_id is not None else path.stem,
    )
