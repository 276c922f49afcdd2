"""Sliding-window segmentation, per-window features, max-abs scaling, CSV I/O.

Raw recordings carry six channels (3-axis accelerometer + 3-axis gyroscope).
Each sensor triple is combined into a magnitude series and 19 statistical
features are extracted per sensor, giving 38 features per window.  Every
feature is a reduction over the last axis, so one series and a
`(n_windows, w)` stack of windows go through the same code; the majority
vote of `segment` is one `np.bincount` over all windows.  CSV bodies are
parsed by `np.loadtxt` and written by `np.savetxt`, with no Python loop
over rows or cells.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InsufficientDataError, InvalidOverlapError, InvalidSampleError, ScalerMismatchError

CHANNEL_NAMES = ("acc_x", "acc_y", "acc_z", "gyro_x", "gyro_y", "gyro_z")


@dataclass(frozen=True)
class Recording:
    """One user's chronologically ordered sensor stream with per-sample labels."""

    sample_rate: float
    channels: np.ndarray  # (n_samples, 6), column order CHANNEL_NAMES
    labels: np.ndarray  # (n_samples,) int
    user_id: str = ""

    def __post_init__(self):
        if not 0 < self.sample_rate < np.inf:
            raise ValueError("sample_rate must be finite and positive")
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

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        if not np.all(np.isfinite(self.features)):
            raise InvalidSampleError("invalid sample: non-finite feature")
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

    def subset(self, indices) -> "FeatureDataset":
        indices = np.asarray(indices)
        labels = None if self.labels is None else self.labels[indices]
        return FeatureDataset(
            self.features[indices], labels, self.window_index[indices], self.user_id
        )

    def with_labels(self, labels) -> "FeatureDataset":
        return replace(self, labels=np.asarray(labels, dtype=int))


def magnitude(x, y, z):
    """Euclidean norm combining the three axes of one sensor."""
    return np.sqrt(np.asarray(x) ** 2 + np.asarray(y) ** 2 + np.asarray(z) ** 2)


def _window_geometry(recording: Recording, window_seconds: float, overlap_fraction: float):
    """(w, s): the window length and step s = round(w * (1 - overlap_fraction))
    in samples, checked against each other and the recording's length."""
    if not 0 <= overlap_fraction < 1:
        raise InvalidOverlapError("invalid overlap: fraction must be in [0, 1)")
    if not np.isfinite(window_seconds):
        raise ValueError("window_seconds must be finite")
    w = int(round(window_seconds * recording.sample_rate))
    if w < 2:
        raise InsufficientDataError("insufficient data: window shorter than 2 samples")
    if len(recording) < w:
        raise InsufficientDataError(f"insufficient data: {len(recording)} samples < window of {w}")
    step = int(round(w * (1.0 - overlap_fraction)))
    if step == 0:
        raise InvalidOverlapError("invalid overlap: step rounds to 0 samples")
    return w, step


def segment(recording: Recording, window_seconds: float, overlap_fraction: float) -> list[RawWindow]:
    """Cut a recording into fixed-duration windows with fractional overlap.

    Windows start at offsets 0, s, 2s, ... with step
    s = round(w * (1 - overlap_fraction)); the trailing partial window is
    discarded.  Each window gets the most frequent label of its samples;
    windows whose top label count is tied are dropped.
    """
    w, step = _window_geometry(recording, window_seconds, overlap_fraction)
    values, codes = np.unique(recording.labels, return_inverse=True)
    windows = sliding_window_view(codes, w)[::step]
    n, k = len(windows), len(values)
    # one bincount over (window, label code) pairs: row i counts window i's labels
    pairs = windows + k * np.arange(n)[:, None]
    counts = np.bincount(pairs.ravel(), minlength=n * k).reshape(n, k)
    top = counts.max(axis=1, keepdims=True)
    kept = np.flatnonzero(np.count_nonzero(counts == top, axis=1) == 1)  # ties are dropped
    labels = values[counts[kept].argmax(axis=1)].astype(int)
    return [
        RawWindow(start, recording.channels[start : start + w], label)
        for start, label in zip((kept * step).tolist(), labels.tolist())
    ]


def _moments(x: np.ndarray):
    """Population mean/var/std/skewness/excess kurtosis over the last axis.

    A series whose std is at most 1e-9 of its mean is flat up to rounding:
    its skewness and kurtosis would standardize rounding noise, so they are 0.
    """
    mean = x.mean(axis=-1)
    var = x.var(axis=-1)
    std = np.sqrt(var)
    flat = std <= 1e-9 * np.abs(mean)
    z = (x - mean[..., None]) / np.where(flat, 1.0, std)[..., None]
    z2 = z * z
    skew = np.where(flat, 0.0, (z2 * z).mean(axis=-1))
    kurt = np.where(flat, 0.0, (z2 * z2).mean(axis=-1) - 3.0)
    return mean, var, std, skew, kurt


def _mode(x: np.ndarray) -> np.ndarray:
    """Midpoint of the most populated of 10 equal-width bins over [min, max];
    ties resolve toward the lower bin.  A constant series is its own mode.

    Bins follow `np.histogram(x, 10, (min, max))`: floor of the scaled
    offset, then a one-step correction where that lands across a rounded edge.
    """
    lo, hi = x.min(axis=-1), x.max(axis=-1)
    flat = lo == hi
    # constant series are binned as zeros over [0, 1] and discarded, so no
    # edge step is 0 (linspace rounds every row differently when one is)
    xb = np.where(flat[..., None], 0.0, x)
    lo_b, hi_b = np.where(flat, 0.0, lo), np.where(flat, 1.0, hi)
    edges = np.linspace(lo_b, hi_b, 11, axis=-1)
    b = ((xb - lo_b[..., None]) / (hi_b - lo_b)[..., None] * 10).astype(np.intp)
    b[b == 10] = 9
    b -= xb < np.take_along_axis(edges, b, axis=-1)
    b += (xb >= np.take_along_axis(edges, b + 1, axis=-1)) & (b != 9)
    counts = (b[..., None] == np.arange(10)).sum(axis=-2)
    top = counts.argmax(axis=-1)[..., None]
    mid = (np.take_along_axis(edges, top, -1) + np.take_along_axis(edges, top + 1, -1)) / 2.0
    return np.where(flat, lo, mid[..., 0])


def _mean_crossing_rate(x: np.ndarray) -> np.ndarray:
    """Sign changes of (x - mean), zeros skipped, divided by (len - 1).

    A zero takes the sign of the last non-zero before it, so it neither
    starts nor ends a crossing."""
    s = np.sign(x - x.mean(axis=-1, keepdims=True))
    last = np.maximum.accumulate(np.where(s != 0, np.arange(s.shape[-1]), 0), axis=-1)
    s = np.take_along_axis(s, last, axis=-1)
    changes = np.count_nonzero((s[..., 1:] != s[..., :-1]) & (s[..., :-1] != 0), axis=-1)
    return changes / (x.shape[-1] - 1)


def sensor_features(x: np.ndarray) -> np.ndarray:
    """19 features of each combined-sensor series along the last axis.

    `x` is one series `(w,)` or a stack `(..., w)`; the result is `(19,)` or
    `(..., 19)`.  Order: mean, variance, std, mode, max, min, mean crossing
    rate, range, DC (window mean), then mean/var/std/skew/kurtosis of the
    rectified mean-removed signal, then the same five statistics of the
    single-sided DFT magnitude spectrum (bins 1..w//2).  The spectrum is
    taken of the series minus its first sample, which changes only bin 0,
    so a constant series has an exactly zero spectrum.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] < 2:
        raise InsufficientDataError("insufficient data: window shorter than 2 samples")
    if not np.all(np.isfinite(x)):
        raise InvalidSampleError("invalid sample: non-finite value in window")
    mean, var, std, _, _ = _moments(x)
    lo, hi = x.min(axis=-1), x.max(axis=-1)
    amplitude = np.abs(x - mean[..., None])
    spectrum = np.abs(np.fft.rfft(x - x[..., :1], axis=-1))[..., 1:]
    # the last of the nine is the DC component: zero-frequency bin / n = mean
    signal = [mean, var, std, _mode(x), hi, lo, _mean_crossing_rate(x), hi - lo, mean]
    return np.stack([*signal, *_moments(amplitude), *_moments(spectrum)], axis=-1)


def extract_features(*sensor_series: np.ndarray) -> np.ndarray:
    """Concatenated per-sensor features (19 each) along the last axis."""
    return np.concatenate([sensor_features(x) for x in sensor_series], axis=-1)


def build_features(
    recording: Recording, window_seconds: float = 3.0, overlap_fraction: float = 0.5
) -> FeatureDataset:
    """Segment a recording and extract the 38-dim feature vector per window.

    Windows keep their position in the segmented stream as `window_index`,
    so label-ambiguous windows that were dropped leave gaps.  The magnitude
    series are computed once per recording and the kept windows gathered
    from them as one `(n_windows, w)` stack per sensor.
    """
    w, step = _window_geometry(recording, window_seconds, overlap_fraction)
    raw = segment(recording, window_seconds, overlap_fraction)
    starts = np.array([win.start for win in raw], dtype=int)
    c = recording.channels
    sensors = (magnitude(c[:, 0], c[:, 1], c[:, 2]), magnitude(c[:, 3], c[:, 4], c[:, 5]))
    feats = extract_features(*(sliding_window_view(m, w)[starts] for m in sensors))
    labels = np.array([win.label for win in raw], dtype=int)
    return FeatureDataset(feats, labels, starts // step, recording.user_id)


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
    return replace(dataset, features=dataset.features / scale)


def _read_csv(path: Path, header_ok) -> np.ndarray:
    """The numeric body of a CSV whose header passes `header_ok`, every row as
    wide as the header; a `#` is a bad value, not a comment."""
    with open(path, newline="") as fh:
        header = next(csv.reader([fh.readline()]), [])
        if not header_ok(header):
            raise InvalidSampleError(f"invalid sample: bad header in {path.name}")
        body = fh.tell()
        if not any(line.strip() for line in fh):  # stops at the first row with content
            raise InsufficientDataError(f"insufficient data: {path.name} is empty")
        fh.seek(body)
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None, quotechar='"')
        except ValueError as exc:
            raise InvalidSampleError(f"invalid sample: {exc} in {path.name}") from exc
    if data.shape[1] != len(header):
        width = f"{data.shape[1]} values under {len(header)} columns"
        raise InvalidSampleError(f"invalid sample: {width} in {path.name}")
    return data


def _integral(x: np.ndarray) -> bool:
    """True when every value is a finite integer that fits in int64."""
    return bool(np.all((np.trunc(x) == x) & (np.abs(x) < 2.0**63)))


def load_recording(path, sample_rate: float, user_id: str | None = None) -> Recording:
    """Read a `timestamp,acc_*,gyro_*,label` CSV into a Recording."""
    path = Path(path)
    header = ["timestamp", *CHANNEL_NAMES, "label"]
    data = _read_csv(path, lambda found: [h.strip() for h in found] == header)
    if not np.all(np.isfinite(data[:, 0])):
        raise InvalidSampleError(f"invalid sample: non-finite timestamp in {path.name}")
    if np.any(np.diff(data[:, 0]) < 0):
        raise InvalidSampleError(f"invalid sample: timestamps decrease in {path.name}")
    if not _integral(data[:, 7]):
        raise InvalidSampleError(f"invalid sample: non-integral label in {path.name}")
    user_id = user_id if user_id is not None else path.stem
    return Recording(sample_rate, data[:, 1:7], data[:, 7].astype(int), user_id)


def save_features(dataset: FeatureDataset, path) -> None:
    """Write `window_index,label,f0..f{d-1}` CSV (label -1 when unlabeled).

    Features go out as Python floats, whose `%s` is `repr(float)`, and rows
    end in CRLF, so the bytes are those a `csv.writer` row loop gives."""
    labels = dataset.labels if dataset.labels is not None else np.full(len(dataset), -1)
    header = ",".join(["window_index", "label", *(f"f{i}" for i in range(dataset.dim))])
    with open(path, "w", newline="") as fh:
        np.savetxt(
            fh, np.column_stack([dataset.window_index, labels, dataset.features.astype(object)]),
            fmt=["%d", "%d"] + ["%s"] * dataset.dim, delimiter=",", newline="\r\n",
            header=header, comments="",
        )


def load_features(path, user_id: str | None = None) -> FeatureDataset:
    """Read a feature CSV written by `save_features`."""
    path = Path(path)
    data = _read_csv(path, lambda header: header[:2] == ["window_index", "label"])
    if not _integral(data[:, :2]):
        raise InvalidSampleError(f"invalid sample: non-integral window_index or label in {path.name}")
    if not np.all(np.isfinite(data[:, 2:])):
        raise InvalidSampleError(f"invalid sample: non-finite feature in {path.name}")
    index, labels = data[:, :2].astype(int).T
    user_id = user_id if user_id is not None else path.stem
    return FeatureDataset(data[:, 2:], None if np.all(labels == -1) else labels, index, user_id)
