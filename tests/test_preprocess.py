import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trot.errors import (
    InsufficientDataError,
    InvalidOverlapError,
    InvalidSampleError,
    ScalerMismatchError,
)
from trot.preprocess import (
    FeatureDataset,
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


class TestSegment:
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

    def test_sine_oracle_frozen(self):
        got = sensor_features(SINE16)
        assert got == pytest.approx(SINE16_FEATURES, abs=1e-12)

    def test_sine_oracle_recomputed(self):
        # independent route: numpy.fft instead of the direct transform
        spectrum = np.abs(np.fft.fft(SINE16))[1 : 16 // 2 + 1]
        got = sensor_features(SINE16)
        assert got[14] == pytest.approx(spectrum.mean(), abs=1e-12)
        assert got[15] == pytest.approx(((spectrum - spectrum.mean()) ** 2).mean(), abs=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidSampleError, match="invalid sample"):
            sensor_features(np.array([1.0, np.nan, 2.0]))

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


class TestMaxAbs:
    def test_scale_by_max_abs(self):
        ds = make_dataset([[-2.0], [1.0], [4.0]])
        out = maxabs_fit_apply(ds)
        assert out.features[:, 0].tolist() == [-0.5, 0.25, 1.0]

    def test_zero_column_unchanged(self):
        ds = make_dataset([[0.0], [0.0]])
        out = maxabs_fit_apply(ds)
        assert out.features.tolist() == [[0.0], [0.0]]
        assert out.scaler[0] == 1.0

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
        # a NaN cell once loaded silently and turned na and coral into coin flips
        features = np.ones((4, 3))
        features[2, 1] = value
        path = tmp_path / "ub.csv"
        save_features(make_dataset(features, labels=[0, 1, 0, 1]), path)
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

    def test_recording_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InvalidSampleError):
            load_recording(path, 30.0)

    def test_window_index_must_increase(self):
        with pytest.raises(ValueError):
            FeatureDataset(np.zeros((2, 3)), None, np.array([1, 1]))

    def test_fit_maxabs_empty(self):
        with pytest.raises(InsufficientDataError):
            fit_maxabs(make_dataset(np.zeros((0, 3))))
