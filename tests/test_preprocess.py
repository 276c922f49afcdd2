import csv
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trot.errors import (
    DimensionMismatchError,
    InsufficientDataError,
    InvalidOverlapError,
    InvalidSampleError,
    ScalerMismatchError,
    TrotError,
)
from trot.preprocess import (
    FeatureDataset,
    RawWindow,
    Recording,
    build_features,
    extract_features,
    fit_maxabs,
    load_features,
    load_recording,
    magnitude,
    maxabs_fit_apply,
    save_features,
    segment,
    sensor_features,
)

from .conftest import make_dataset, make_recording


def reference_sensor_features(x):
    """The 19 features of one series, one statistic at a time, with the DFT
    written out from its definition: the per-window extractor that the
    vectorized `sensor_features` is compared against."""
    x = np.asarray(x, dtype=float)
    if len(x) < 2:
        raise InsufficientDataError("insufficient data: window shorter than 2 samples")
    if not np.all(np.isfinite(x)):
        raise InvalidSampleError("invalid sample: non-finite value in window")
    mean, var, std, _, _ = _reference_moments(x)
    lo, hi = x.min(), x.max()
    if lo == hi:
        mode = float(lo)
    else:
        counts, edges = np.histogram(x, bins=10, range=(lo, hi))
        b = int(np.argmax(counts))
        mode = float((edges[b] + edges[b + 1]) / 2.0)
    signs = np.sign(x - mean)
    signs = signs[signs != 0]
    crossings = np.count_nonzero(signs[1:] != signs[:-1]) if len(signs) >= 2 else 0
    n = len(x)
    k = np.arange(1, n // 2 + 1)[:, None]
    spectrum = np.abs(np.exp(-2j * np.pi * k * np.arange(n)[None, :] / n) @ x)
    return np.array(
        [
            mean, var, std, mode, hi, lo, crossings / (n - 1), hi - lo, mean,
            *_reference_moments(np.abs(x - mean)),
            *_reference_moments(spectrum),
        ]
    )


def _reference_moments(x):
    mean, var = x.mean(), x.var()
    std = np.sqrt(var)
    if std == 0.0:
        return mean, var, std, 0.0, 0.0
    z = (x - mean) / std
    return mean, var, std, (z**3).mean(), (z**4).mean() - 3.0


def reference_segment(recording, window_seconds, overlap_fraction):
    """The per-window majority vote, one `np.unique` per window: what the
    single-bincount `segment` is compared against."""
    w = int(round(window_seconds * recording.sample_rate))
    step = int(round(w * (1.0 - overlap_fraction)))
    windows = []
    for start in range(0, len(recording) - w + 1, step):
        values, counts = np.unique(recording.labels[start : start + w], return_counts=True)
        if np.count_nonzero(counts == counts.max()) > 1:
            continue  # ambiguous label, drop the window
        windows.append(
            RawWindow(start, recording.channels[start : start + w], int(values[np.argmax(counts)]))
        )
    return windows


def reference_save_features(dataset, path):
    """The `csv.writer` row loop whose bytes `save_features` reproduces."""
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


def reference_build_features(recording, window_seconds, overlap_fraction):
    """(features, labels, window_index) from a loop over the segmented windows."""
    w = int(round(window_seconds * recording.sample_rate))
    step = int(round(w * (1.0 - overlap_fraction)))
    rows, labels, index = [], [], []
    for win in reference_segment(recording, window_seconds, overlap_fraction):
        acc = magnitude(win.samples[:, 0], win.samples[:, 1], win.samples[:, 2])
        gyro = magnitude(win.samples[:, 3], win.samples[:, 4], win.samples[:, 5])
        rows.append(np.concatenate([reference_sensor_features(acc), reference_sensor_features(gyro)]))
        labels.append(win.label)
        index.append(win.start // step)
    return np.reshape(rows, (-1, 38)), np.array(labels, dtype=int), np.array(index, dtype=int)


RECORDING_HEADER = "timestamp,acc_x,acc_y,acc_z,gyro_x,gyro_y,gyro_z,label"
SPECTRUM = slice(14, 19)  # mean/var/std/skew/kurtosis of the magnitude spectrum


@st.composite
def recordings(draw):
    """A recording with its window length and overlap.

    Beyond normal noise the values may be quantized on one axis per sensor,
    so magnitudes repeat exactly: x - mean hits 0 and values land on
    histogram edges.  Constant runs give constant windows and windows with
    one odd sample; block or alternating labels give tied windows.  All but
    the rate, window and overlap come from the drawn seed: hypothesis' own
    integers and booleans crowd at their lower bounds.
    """
    rate = draw(st.sampled_from([10.0, 20.0, 25.0, 30.0, 50.0]))
    window_seconds = draw(st.sampled_from([0.2, 0.4, 1.0, 3.0]))
    overlap = draw(st.floats(0.0, 0.9))
    w = int(round(window_seconds * rate))
    step = int(round(w * (1.0 - overlap)))
    assume(w >= 2 and step >= 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = w + rng.integers(0, 25) * step + rng.integers(0, step)
    quantum = rng.choice([0.0, 1.0, 0.5, 0.1, 0.3])

    channels = rng.normal(0, 1, (n, 6))
    if quantum:
        channels[:] = 0.0
        channels[:, [0, 4]] = quantum * rng.integers(0, rng.integers(1, 11), (n, 2))
    for _ in range(rng.integers(0, 4)):
        start = rng.integers(0, n)
        channels[start : start + rng.integers(1, 3 * w)] = channels[start]
    if rng.uniform() < 0.15:
        labels = np.arange(n) % 2
    else:
        labels = np.repeat(rng.integers(0, 3, n), rng.integers(1, 4 * w, n))[:n]
    return Recording(rate, channels, labels, "u"), window_seconds, overlap


@st.composite
def labelled_recordings(draw):
    """A recording at 1 Hz with its window length and overlap, for the vote.

    Labels come from up to 20 distinct values, negative ones included, as
    long runs, alternation, short runs of two labels (many ties) or
    independent draws; channel values are the sample positions.
    """
    w = draw(st.integers(2, 150))
    overlap = draw(st.floats(0.0, 0.9))
    step = int(round(w * (1.0 - overlap)))
    assume(step >= 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = w + rng.integers(0, 40) * step + rng.integers(0, step)
    alphabet = rng.choice(np.arange(-30, 30), rng.integers(1, 21), replace=False)
    kind = rng.integers(4)
    if kind == 0:  # long runs
        labels = np.repeat(rng.choice(alphabet, n), rng.integers(1, 4 * w, n))[:n]
    elif kind == 1:  # alternating
        labels = alphabet[np.arange(n) % len(alphabet)]
    elif kind == 2:  # two labels in runs of 1, 2, w/4 or w/2: many tied windows
        runs = rng.choice([1, 2, max(1, w // 2), max(1, w // 4)], n)
        labels = np.repeat(alphabet[:2][np.arange(n) % min(2, len(alphabet))], runs)[:n]
    else:
        labels = rng.choice(alphabet, n)
    channels = np.arange(6 * n, dtype=float).reshape(n, 6)
    return Recording(1.0, channels, labels, "u"), float(w), overlap


class TestSegment:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(labelled_recordings())
    def test_matches_per_window_vote(self, drawn):
        recording, window_seconds, overlap = drawn
        got = segment(recording, window_seconds, overlap)
        want = reference_segment(recording, window_seconds, overlap)
        assert [win.start for win in got] == [win.start for win in want]
        assert [win.label for win in got] == [win.label for win in want]
        assert all(np.array_equal(g.samples, r.samples) for g, r in zip(got, want))

    def test_tie_between_negative_and_positive_label_drops_window(self):
        # 3 of label -2 and 3 of label 5 tie, so the lower label does not win;
        # then 4 of label 5 win over 2 of -2
        labels = np.array([-2] * 3 + [5] * 3 + [5] * 4 + [-2] * 2)
        recording = Recording(1.0, np.zeros((12, 6)), labels)
        assert [(win.start, win.label) for win in segment(recording, 6.0, 0.0)] == [(6, 5)]

    def test_offsets_and_count(self):
        rec = make_recording(300, sample_rate=30.0)
        windows = segment(rec, 3.0, 0.5)
        assert [w.start for w in windows] == [0, 45, 90, 135, 180]
        assert all(len(w.samples) == 90 for w in windows)

    def test_single_window_boundary(self):
        rec = make_recording(90, sample_rate=30.0)
        assert len(segment(rec, 3.0, 0.5)) == 1

    def test_too_short_raises(self):
        rec = make_recording(89, sample_rate=30.0)
        with pytest.raises(InsufficientDataError, match="insufficient data"):
            segment(rec, 3.0, 0.5)

    def test_zero_step_raises(self):
        rec = make_recording(300, sample_rate=30.0)
        with pytest.raises(InvalidOverlapError, match="invalid overlap"):
            segment(rec, 3.0, 0.999)

    def test_majority_label_and_tie_drop(self):
        labels = np.zeros(90, dtype=int)
        labels[:40] = 1  # 50 zeros vs 40 ones -> majority 0
        rec = make_recording(90, labels=labels)
        assert segment(rec, 3.0, 0.5)[0].label == 0
        labels[:45] = 1  # exact tie -> window dropped
        rec = make_recording(90, labels=labels)
        assert segment(rec, 3.0, 0.5) == []

    @given(
        n=st.integers(100, 400),
        rate=st.sampled_from([25.0, 30.0, 50.0]),
        overlap=st.floats(0.0, 0.75),
    )
    @settings(max_examples=30, deadline=None)
    def test_offsets_form_arithmetic_progression(self, n, rate, overlap):
        rec = make_recording(n, sample_rate=rate)
        w = round(3.0 * rate)
        if n < w:
            return
        step = round(w * (1 - overlap))
        starts = [win.start for win in segment(rec, 3.0, overlap)]
        assert starts == list(range(0, n - w + 1, step))


class TestMagnitude:
    def test_pythagorean(self):
        assert magnitude(3.0, 4.0, 0.0) == 5.0

    def test_zero(self):
        assert magnitude(0.0, 0.0, 0.0) == 0.0

    def test_symmetric(self):
        assert magnitude(1.0, 1.0, 1.0) == pytest.approx(np.sqrt(3), abs=1e-12)


# Frozen from an independent computation with numpy.fft and the textbook
# population-moment formulas on 0.5 + sin(2*pi*2*t/16), t = 0..15.
SINE16 = 0.5 + np.sin(2 * np.pi * 2 * np.arange(16) / 16)
SINE16_FEATURES = [
    0.5,
    0.5000000000000002,
    0.7071067811865477,
    -0.19999999999999998,
    1.5,
    -0.5,
    0.2,
    2.0,
    0.5,
    0.603553390593274,
    0.1357233047033631,
    0.3684064395519751,
    -0.7766296243186439,
    -0.8607099169690686,
    1.0000000000000013,
    7.0,
    2.6457513110645907,
    2.2677868380553625,
    3.1428571428571406,
]


class TestSensorFeatures:
    def test_constant_window(self):
        f = sensor_features(np.full(8, 2.0))
        # mean, var, std, mode, max, min, mcr, range, dc
        assert f[:9] == pytest.approx([2, 0, 0, 2, 2, 2, 0, 0, 2])
        assert np.all(np.isfinite(f))

    def test_mean_crossing_rate_convention(self):
        f = sensor_features(np.array([1.0, 3.0, 1.0, 3.0]))
        assert f[6] == pytest.approx(1.0)

    def test_symmetric_window_zero_skewness(self):
        # skewness vanishes for windows whose value distribution is symmetric
        from trot.preprocess import _moments

        _, _, _, skew, _ = _moments(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert abs(skew) < 1e-12

    @pytest.mark.parametrize(
        "x, moments",
        [
            ([1, 1, 1, 1, 2], slice(17, 19)),
            ([0.3, 0.5] * 3, slice(12, 14)),
            ([0.1, 0.7] * 2, slice(12, 14)),
        ],
        ids=["flat spectrum", "flat amplitude", "flat amplitude of 4"],
    )
    def test_flat_up_to_rounding_has_zero_skew_and_kurtosis(self, x, moments):
        # the std here is rounding noise: [0.885, -1.64], [-0.484, -1.895]
        # and [1.414, -1.0] before the flat rule
        assert sensor_features(np.array(x, dtype=float))[moments].tolist() == [0.0, 0.0]

    def test_sine_oracle_frozen(self):
        got = sensor_features(SINE16)
        assert got == pytest.approx(SINE16_FEATURES, abs=1e-12)

    def test_sine_oracle_recomputed(self):
        # independent route: the full complex FFT of the unshifted series
        spectrum = np.abs(np.fft.fft(SINE16))[1 : 16 // 2 + 1]
        got = sensor_features(SINE16)
        assert got[14] == pytest.approx(spectrum.mean(), abs=1e-12)
        assert got[15] == pytest.approx(((spectrum - spectrum.mean()) ** 2).mean(), abs=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidSampleError, match="invalid sample"):
            sensor_features(np.array([1.0, np.nan, 2.0]))

    @pytest.mark.parametrize(
        "x",
        [
            [0.3333333333333333, 3.333333333333333, 3.6666666666666665],
            [2.0999999999999996, 9.1, 8.399999999999999],
        ],
        ids=["below rounded lower edge", "on rounded upper edge"],
    )
    def test_mode_bins_like_histogram_at_rounded_edges(self, x):
        # the floored bin index of one value is off by one here, and the
        # correction decides which bin is most populated
        assert sensor_features(np.array(x))[3] == reference_sensor_features(x)[3]

    def test_mode_of_a_stack_bins_each_series_like_histogram(self):
        stack = np.array([
            [2.5, 2.5, 2.5],  # constant: its own mode
            [0.0, 10.0, 5.0],  # bins 0, 9 and 5 tie: the lowest wins
            [0.0, 0.2, 1.0],  # 0.2 lies on the edge of bins 1 and 2
            [0.3333333333333333, 3.333333333333333, 3.6666666666666665],
            [2.0999999999999996, 9.1, 8.399999999999999],
        ])
        want = [reference_sensor_features(row)[3] for row in stack]
        assert sensor_features(stack)[:, 3].tolist() == want
        assert sensor_features(stack[:4].reshape(2, 2, 3))[..., 3].ravel().tolist() == want[:4]

    def test_stack_matches_single_series(self, rng):
        stack = rng.normal(0, 1, (5, 16))
        assert np.array_equal(sensor_features(stack)[3], sensor_features(stack[3]))

    def test_feature_vector_length(self):
        f = extract_features(SINE16, SINE16[::-1])
        assert f.shape == (38,)

    @given(st.lists(st.floats(-10, 10), min_size=4, max_size=32))
    @settings(max_examples=50, deadline=None)
    def test_moment_features_permutation_invariant(self, values):
        x = np.asarray(values)
        shuffled = np.random.default_rng(0).permutation(x)
        f1, f2 = sensor_features(x), sensor_features(shuffled)
        # pure-moment features ignore order: mean, var, std, mode, max, min, range, dc
        for idx in (0, 1, 2, 3, 4, 5, 7, 8):
            assert f1[idx] == pytest.approx(f2[idx], rel=1e-9, abs=1e-9)


class TestBuildFeaturesMatchesReference:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(recordings())
    def test_random_recordings(self, drawn):
        recording, window_seconds, overlap = drawn
        got = build_features(recording, window_seconds, overlap)
        want, labels, index = reference_build_features(recording, window_seconds, overlap)
        assert np.array_equal(got.labels, labels)
        assert np.array_equal(got.window_index, index)
        assert got.features.shape == want.shape
        for sensor in (slice(0, 19), slice(19, 38)):
            g, r = got.features[:, sensor], want[:, sensor]
            close = np.abs(g - r) <= 1e-12 + 1e-9 * np.abs(r)
            # a constant window has an exactly zero spectrum; the reference's
            # DFT leaves rounding noise there
            constant = r[:, 7] == 0
            assert np.all(g[constant, SPECTRUM] == 0)
            close[constant, SPECTRUM] = True
            # a spectrum (a constant with one odd sample) or an amplitude (two
            # values, equally often) flat up to rounding has zero skewness and
            # kurtosis; the reference standardizes rounding noise there
            for std, mean, moments in ((16, 14, slice(17, 19)), (11, 9, slice(12, 14))):
                flat = r[:, std] <= 1e-9 * r[:, mean]
                assert np.all(g[flat, moments] == 0)
                close[flat, moments] = True
            assert np.all(close), np.argwhere(~close)

    @pytest.mark.parametrize("n", [4, 5, 90, 150])
    @pytest.mark.parametrize("value", [0.3, 1.0, 9.81])
    def test_constant_window_has_zero_spectrum(self, n, value):
        # the hand-written DFT gave bins of 1e-12 noise here, whose skewness
        # and kurtosis came out O(1): [4.00, 19.60] for 150 samples of 1.0
        channels = np.tile([value, 0.0, 0.0, 0.0, 2 * value, 0.0], (n, 1))
        recording = Recording(30.0, channels, np.zeros(n, dtype=int))
        features = build_features(recording, n / 30.0, 0.0).features
        assert features.shape == (1, 38)
        assert np.all(features[0, 14:19] == 0) and np.all(features[0, 33:38] == 0)

    def test_every_window_dropped_keeps_feature_width(self):
        # one 90-sample window with 45 samples of each label is a tie
        recording = make_recording(90, labels=np.arange(90) % 2)
        dataset = build_features(recording)
        assert dataset.features.shape == (0, 38)
        assert dataset.dim == 38

    @pytest.mark.parametrize(
        "where, raises",
        [(20, True), (120, False), (280, False)],
        ids=["kept window", "dropped tie window", "trailing partial window"],
    )
    def test_non_finite_sample_only_matters_in_kept_windows(self, where, raises):
        # 3 s windows at 30 Hz without overlap: [0, 90) kept, [90, 180) tied
        # and dropped, [180, 270) kept, [270, 300) never a window
        labels = np.zeros(300, dtype=int)
        labels[90:180:2] = 1
        recording = make_recording(300, labels=labels)
        recording.channels[where, 1] = np.nan
        if raises:
            with pytest.raises(InvalidSampleError, match="non-finite"):
                build_features(recording, 3.0, 0.0)
        else:
            assert build_features(recording, 3.0, 0.0).window_index.tolist() == [0, 2]


class TestMaxAbs:
    def test_scale_by_max_abs(self):
        ds = make_dataset([[-2.0], [1.0], [4.0]])
        out = maxabs_fit_apply(ds)
        assert out.features[:, 0].tolist() == [-0.5, 0.25, 1.0]

    def test_zero_column_unchanged(self):
        ds = make_dataset([[0.0], [0.0]])
        out = maxabs_fit_apply(ds)
        assert out.features.tolist() == [[0.0], [0.0]]
        assert fit_maxabs(ds)[0] == 1.0

    def test_already_scaled_unchanged(self):
        ds = make_dataset([[-1.0], [0.5]])
        assert maxabs_fit_apply(ds).features[:, 0].tolist() == [-1.0, 0.5]

    def test_idempotent(self, rng):
        # refitting on already-scaled data finds scale 1 everywhere
        ds = make_dataset(rng.normal(0, 3, (20, 4)))
        once = maxabs_fit_apply(ds)
        twice = maxabs_fit_apply(once)
        assert np.array_equal(once.features, twice.features)

    def test_values_bounded(self, rng):
        out = maxabs_fit_apply(make_dataset(rng.normal(0, 5, (50, 6))))
        assert np.abs(out.features).max() <= 1.0

    def test_reference_dimension_mismatch(self):
        ds = make_dataset([[1.0, 2.0]])
        with pytest.raises(ScalerMismatchError, match="scaler mismatch"):
            maxabs_fit_apply(ds, np.ones(3))


class TestPipelineAndIO:
    def test_build_features_shape_and_order(self):
        labels = np.repeat([0, 1], 150)
        rec = make_recording(300, labels=labels)
        ds = build_features(rec)
        assert ds.dim == 38
        assert np.all(np.diff(ds.window_index) > 0)
        assert set(np.unique(ds.labels)) <= {0, 1}

    def test_csv_roundtrip(self, tmp_path, rng):
        ds = make_dataset(rng.normal(0, 1, (7, 5)), labels=rng.integers(0, 3, 7), user_id="ua")
        path = tmp_path / "ua.csv"
        save_features(ds, path)
        back = load_features(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.window_index, ds.window_index)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_feature_rejected(self, tmp_path, value):
        # a NaN cell once loaded silently and turned na and coral into coin flips;
        # the file is written by hand since a FeatureDataset refuses the cell
        rows = [f"{i},{i % 2},1.0,{value if i == 2 else 1.0},1.0" for i in range(4)]
        path = tmp_path / "ub.csv"
        path.write_text("\n".join(["window_index,label,f0,f1,f2", *rows]))
        with pytest.raises(InvalidSampleError, match="ub.csv"):
            load_features(path)

    def test_recording_csv(self, tmp_path):
        lines = ["timestamp,acc_x,acc_y,acc_z,gyro_x,gyro_y,gyro_z,label"]
        for i in range(4):
            lines.append(f"{i/30},1,2,2,0.1,0.2,0.2,{i % 2}")
        path = tmp_path / "rec.csv"
        path.write_text("\n".join(lines))
        rec = load_recording(path, 30.0)
        assert len(rec) == 4 and rec.user_id == "rec"
        assert rec.labels.tolist() == [0, 1, 0, 1]

    @pytest.mark.parametrize(
        "features, labels",
        [
            ([[-0.0, 5e-324, 1e-5], [0.1 + 0.2, 1e16, 1e300]], [3, -2]),
            ([[-0.0, 5e-324, 1e-5], [0.1 + 0.2, -1e16, -1e300]], None),
            (np.zeros((0, 4)), None),
        ],
        ids=["edge values", "unlabeled", "no windows"],
    )
    def test_save_features_bytes_match_csv_writer(self, tmp_path, features, labels):
        ds = make_dataset(features, labels=labels)
        save_features(ds, tmp_path / "got.csv")
        reference_save_features(ds, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_save_features_random_bytes_match_csv_writer(self, tmp_path, rng):
        features = rng.normal(0, 1, (20, 38)) * 10.0 ** rng.integers(-320, 300, (20, 38))
        ds = make_dataset(features, labels=rng.integers(0, 5, 20), start=10**12)
        save_features(ds, tmp_path / "got.csv")
        reference_save_features(ds, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        back = load_features(tmp_path / "got.csv")
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.window_index, ds.window_index)

    @pytest.mark.parametrize("text", ["0,1,#,1.0", "# 0,1,1.0,1.0", "0,1,1.0,1.0 # note"])
    def test_hash_is_a_bad_value_not_a_comment(self, tmp_path, text):
        path = tmp_path / "uc.csv"
        path.write_text(f"window_index,label,f0,f1\n0,0,1.0,1.0\n{text}\n")
        with pytest.raises(InvalidSampleError, match="uc.csv"):
            load_features(path)

    @pytest.mark.parametrize(
        "row",
        [
            "nan,1,2,2,0.1,0.2,0.2,0",
            "inf,1,2,2,0.1,0.2,0.2,0",
            "0.05,1,2,2,0.1,0.2,0.2,nan",
            "0.05,1,2,2,0.1,0.2,0.2,inf",
            "0.05,1,2,2,0.1,0.2,0.2,2.7",
            "0.05,1,2,2,0.1,0.2,0.2,1e30",
            "0.05,1,2,2,0.1,0.2,0.2",
            "0.05,1,2,2,0.1,0.2,0.2,0,0",
            "0.05,1,2,2,0.1,#,0.2,0",
            "0.05,1,nan,2,0.1,0.2,0.2,0",
            "0.05,1,2,2,0.1,0.2,-inf,0",
        ],
        ids=[
            "nan timestamp", "inf timestamp", "nan label", "inf label", "fractional label",
            "label beyond int64", "short row", "long row", "hash cell", "nan channel", "inf channel",
        ],
    )
    def test_recording_bad_row_rejected(self, tmp_path, row):
        # a nan label once became class -9223372036854775808 and 2.7 became class 2
        path = tmp_path / "rec.csv"
        path.write_text(f"{RECORDING_HEADER}\n0.0,1,2,2,0.1,0.2,0.2,0\n{row}\n0.1,1,2,2,0.1,0.2,0.2,0\n")
        with pytest.raises(InvalidSampleError, match="rec.csv"):
            load_recording(path, 30.0)

    def test_recording_rows_wider_than_header_rejected(self, tmp_path):
        # every row agrees with every other, but not with the header
        path = tmp_path / "rec.csv"
        path.write_text(f"{RECORDING_HEADER}\n" + "0,1,2,2,0.1,0.2,0.2,0,9\n" * 3)
        with pytest.raises(InvalidSampleError, match="9 values under 8 columns in rec.csv"):
            load_recording(path, 30.0)

    def test_recording_integral_float_label_accepted(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text(f"{RECORDING_HEADER}\r\n0.0,1,2,2,0.1,0.2,0.2,2.0\r\n\r\n0.1,1,2,2,0.1,0.2,0.2,-3\r\n")
        assert load_recording(path, 30.0).labels.tolist() == [2, -3]

    @pytest.mark.parametrize(
        "rows",
        [
            ["0,0,1.0,1.0", "1.5,0,1.0,1.0"],
            ["0,0,1.0,1.0", "1,0.5,1.0,1.0"],
            ["0,0,1.0,1.0", "1,nan,1.0,1.0"],
            ["0,0,1.0,1.0", "1,0,1.0"],
            ["0,0,1.0,1.0,1.0", "1,0,1.0,1.0,1.0"],
        ],
        ids=["fractional window_index", "fractional label", "nan label", "short row", "rows wider than header"],
    )
    def test_feature_bad_row_rejected(self, tmp_path, rows):
        path = tmp_path / "ud.csv"
        path.write_text("\n".join(["window_index,label,f0,f1", *rows]))
        with pytest.raises(InvalidSampleError, match="ud.csv"):
            load_features(path)

    @pytest.mark.parametrize("loader", ["features", "recording"])
    @pytest.mark.parametrize("body", ["", "\r\n", "\n\n"])
    def test_empty_body_raises_without_warning(self, tmp_path, loader, body):
        header = "window_index,label,f0" if loader == "features" else RECORDING_HEADER
        path = tmp_path / "ue.csv"
        path.write_text(header + "\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InsufficientDataError, match="insufficient data: ue.csv is empty"):
                if loader == "features":
                    load_features(path)
                else:
                    load_recording(path, 30.0)

    def test_empty_file_is_a_bad_header(self, tmp_path):
        path = tmp_path / "uf.csv"
        path.write_text("")
        with pytest.raises(InvalidSampleError, match="bad header in uf.csv"):
            load_features(path)

    def test_recording_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InvalidSampleError):
            load_recording(path, 30.0)

    @pytest.mark.parametrize("features", [np.arange(6.0), np.zeros((6, 2, 1)), np.zeros((6, 0))])
    def test_features_must_be_2d(self, features):
        # 1-D features were once accepted, and run_task then raised a TypeError;
        # with no feature column na and coral once reported accuracy 1.0
        with pytest.raises(DimensionMismatchError, match=r"\(n, d\) with d >= 1"):
            FeatureDataset(features, np.zeros(6, dtype=int), np.arange(6))

    def test_feature_file_without_feature_column_rejected(self, tmp_path):
        path = tmp_path / "uz.csv"
        path.write_text("window_index,label\n0,0\n1,1\n2,0\n3,1\n")
        with pytest.raises(DimensionMismatchError, match=r"got shape \(4, 0\) in uz.csv"):
            load_features(path)

    def test_feature_file_window_index_out_of_order_names_the_file(self, tmp_path):
        # once refused with "window_index must be strictly increasing" and no file named,
        # then as a ValueError
        path = tmp_path / "ug.csv"
        path.write_text("window_index,label,f0\n0,0,1.0\n2,1,1.0\n1,0,1.0\n")
        with pytest.raises(InvalidSampleError, match="window_index must be strictly increasing in ug.csv"):
            load_features(path)

    def test_feature_file_mixing_unlabelled_and_labelled_rows_rejected(self, tmp_path):
        # labels 0, -1, 1 once loaded -1 as a third activity, which trot then fitted
        path = tmp_path / "uh.csv"
        path.write_text("window_index,label,f0\n0,0,1.0\n1,-1,1.0\n2,1,1.0\n")
        with pytest.raises(InvalidSampleError, match="label -1 marks unlabelled windows.* in uh.csv"):
            load_features(path)
        path.write_text("window_index,label,f0\n0,-1,1.0\n1,-1,1.0\n")
        assert load_features(path).labels is None

    def test_save_features_refuses_label_minus_one_in_a_labelled_dataset(self, tmp_path):
        # such a file once loaded back with -1 as an activity
        with pytest.raises(InvalidSampleError, match="label -1 marks unlabelled windows"):
            save_features(make_dataset(np.zeros((3, 2)), labels=[0, -1, 1]), tmp_path / "ui.csv")
        assert not (tmp_path / "ui.csv").exists()

    def test_labels_must_be_1d(self):
        # (n, 1) labels were once accepted; run_task then raised a TypeError for na
        with pytest.raises(DimensionMismatchError, match=r"label must be 1-D, got shape \(3, 1\)"):
            FeatureDataset(np.zeros((3, 2)), np.zeros((3, 1), dtype=int), np.arange(3))

    def test_window_index_must_be_1d(self):
        # an (n, 1) window_index once failed every trot grid point as "some states received no windows"
        with pytest.raises(DimensionMismatchError, match="window_index must be 1-D"):
            FeatureDataset(np.zeros((3, 2)), np.zeros(3, dtype=int), np.arange(3)[:, None])

    def test_window_index_must_increase(self):
        with pytest.raises(InvalidSampleError, match="window_index must be strictly increasing"):
            FeatureDataset(np.zeros((2, 3)), None, np.array([1, 1]))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: FeatureDataset(np.zeros((3, 2)), [0, 1], np.arange(3)),
            lambda: FeatureDataset(np.zeros((3, 2)), None, np.arange(4)),
            lambda: FeatureDataset(np.zeros((3, 2)), None, [0, 2, 1]),
            lambda: FeatureDataset(np.zeros((3, 2)), [0, -1, 1], np.arange(3)),
            lambda: Recording(30.0, np.zeros((3, 5)), np.zeros(3, dtype=int)),
            lambda: Recording(30.0, np.zeros(6), np.zeros(1, dtype=int)),
            lambda: Recording(30.0, np.zeros((0, 6)), np.zeros(0, dtype=int)),
            lambda: Recording(30.0, np.zeros((3, 6)), np.zeros(2, dtype=int)),
        ],
        ids=["labels length", "window_index length", "window_index order", "label -1",
             "channel columns", "1-D channels", "no samples", "recording labels length"],
    )
    def test_malformed_in_memory_contents_raise_trot_errors(self, make):
        # each but the -1 label was once a plain ValueError, which run_task does not record
        with pytest.raises(TrotError):
            make()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_in_memory_dataset_rejected(self, value):
        features = np.ones((4, 3))
        features[2, 1] = value
        with pytest.raises(InvalidSampleError, match="non-finite"):
            FeatureDataset(features, None, np.arange(4))

    @pytest.mark.parametrize("labels", [[0.5, 1.7, 2.2], [0.0, np.nan, 2.0]])
    def test_in_memory_labels_must_be_integral(self, labels):
        # [0.5, 1.7, 2.2] was once truncated to [0, 1, 2]; the CSV loader rejects such labels
        with pytest.raises(InvalidSampleError, match="non-integral label"):
            FeatureDataset(np.zeros((3, 2)), labels, np.arange(3))
        with pytest.raises(InvalidSampleError, match="non-integral label"):
            make_dataset(np.zeros((3, 2)), labels=[0, 1, 2]).with_labels(labels)

    def test_in_memory_window_index_must_be_integral(self):
        # [0.2, 1.9, 2.5] was once truncated to [0, 1, 2]
        with pytest.raises(InvalidSampleError, match="non-integral window_index"):
            FeatureDataset(np.zeros((3, 2)), [0, 1, 2], [0.2, 1.9, 2.5])

    def test_in_memory_integral_floats_accepted(self):
        dataset = FeatureDataset(np.zeros((2, 2)), [0.0, -3.0], np.array([1.0, 4.0]))
        assert dataset.labels.tolist() == [0, -3] and dataset.labels.dtype == int
        assert dataset.window_index.tolist() == [1, 4] and dataset.window_index.dtype == int

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_recording_rejects_non_finite_channels(self, value):
        # sample 395 lies after the last of the 7 windows, which were once built without an error
        channels = np.random.default_rng(0).normal(0, 1, (400, 6))
        channels[395, 2] = value
        with pytest.raises(InvalidSampleError, match="non-finite channel value"):
            Recording(30.0, channels, np.zeros(400, dtype=int))

    def test_recording_labels_must_be_1d(self):
        with pytest.raises(DimensionMismatchError, match="label must be 1-D"):
            Recording(30.0, np.zeros((2, 6)), np.zeros((2, 1), dtype=int))

    def test_recording_channels_stored_as_floats(self):
        recording = Recording(30.0, np.ones((2, 6), dtype=int), np.zeros(2, dtype=int))
        assert recording.channels.dtype == float

    def test_recording_labels_must_be_integral(self):
        # 0.2 and 0.5 were once both truncated to activity 0 by segment
        with pytest.raises(InvalidSampleError, match="non-integral label"):
            Recording(30.0, np.zeros((2, 6)), np.array([0.2, 0.5]))
        assert Recording(30.0, np.zeros((2, 6)), np.array([1.0, 0.0])).labels.tolist() == [1, 0]

    def test_fit_maxabs_empty(self):
        with pytest.raises(InsufficientDataError):
            fit_maxabs(make_dataset(np.zeros((0, 3))))
