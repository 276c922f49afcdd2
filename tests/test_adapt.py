import numpy as np
import pytest

from trot.adapt import barycentric_map, barycentric_project, coral_align, transform_samples
from trot.errors import (
    DegenerateCouplingError,
    DimensionMismatchError,
    InsufficientDataError,
    TrotError,
)
from trot.hmm import build_atlas
from trot.ot_core import Coupling

from .conftest import make_atlas, make_dataset


def coupling(values):
    return Coupling(np.asarray(values, dtype=float))


class TestBarycentricMap:
    def test_scaled_identity_recovers_targets(self):
        src = make_atlas([[5, 5], [6, 6]], [0, 0], [1, 2])
        tgt = make_atlas([[0, 0], [2, 2]], [0, 0], [1, 2])
        displacement = barycentric_map(coupling(0.5 * np.eye(2)), src, tgt)
        assert displacement.tolist() == [[-5, -5], [-4, -4]]

    def test_uniform_gives_barycenter(self):
        src = make_atlas([[0, 0], [1, 1]], [0, 0], [1, 2])
        tgt = make_atlas([[0, 0], [2, 2]], [0, 0], [1, 2])
        displacement = barycentric_map(coupling(np.full((2, 2), 0.25)), src, tgt)
        assert (src.means + displacement).tolist() == [[1, 1], [1, 1]]

    def test_weighted_average_row(self):
        out = barycentric_project(np.array([[0.25, 0.75]]), np.array([[0.0, 0.0], [4.0, 0.0]]))
        assert out.tolist() == [[3.0, 0.0]]

    def test_zero_row_raises(self):
        with pytest.raises(DegenerateCouplingError, match="degenerate coupling row"):
            barycentric_project(np.array([[0.0, 0.0], [0.5, 0.5]]), np.zeros((2, 2)))

    def test_rows_are_convex_combinations(self, rng):
        values = rng.uniform(0.01, 1.0, (3, 5))
        weights = values / values.sum(axis=1, keepdims=True)
        assert np.all(weights >= 0)
        assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-9)
        locations = rng.normal(0, 1, (5, 4))
        out = barycentric_project(values, locations)
        assert np.allclose(out, weights @ locations)
        # inside the bounding box of the targets, as any convex combination is
        assert np.all(out <= locations.max(axis=0) + 1e-12)
        assert np.all(out >= locations.min(axis=0) - 1e-12)

    def test_matched_block_coupling_lands_on_targets(self, rng):
        # mass only on matching (class, order) pairs -> exact recovery
        src = make_atlas(rng.normal(0, 1, (4, 2)), [0, 0, 1, 1], [1, 2, 1, 2])
        tgt = make_atlas(rng.normal(5, 1, (4, 2)), [0, 0, 1, 1], [1, 2, 1, 2])
        displacement = barycentric_map(coupling(np.eye(4) / 4), src, tgt)
        assert np.allclose(src.means + displacement, tgt.means)


class TestTransformSamples:
    def _setup(self, rng):
        feats = np.concatenate([rng.normal(0, 0.1, (6, 2)), rng.normal(4, 0.1, (6, 2))])
        ds = make_dataset(feats, labels=[0] * 6 + [1] * 6)
        atlas, rows = build_atlas(ds, 2)
        return ds, atlas, rows

    def test_zero_displacement_is_identity(self, rng):
        ds, atlas, rows = self._setup(rng)
        displacement = barycentric_map(coupling(np.eye(4) / 4), atlas, atlas)
        out = transform_samples(ds, rows, displacement)
        assert np.allclose(out.features, ds.features)

    def test_single_state_uniform_shift(self, rng):
        feats = rng.normal(0, 1, (5, 3))
        ds = make_dataset(feats, labels=[0] * 5)
        atlas, rows = build_atlas(ds, 1)
        shifted = make_atlas(atlas.means + [1.0, 0.0, 0.0], [0], [1])
        displacement = barycentric_map(coupling(np.array([[1.0]])), atlas, shifted)
        out = transform_samples(ds, rows, displacement)
        assert np.allclose(out.features, feats + [1.0, 0.0, 0.0])

    def test_per_state_shift_oracle(self, rng):
        # brute-force oracle: group windows by (class, chain position) and
        # compare group means before and after the transform
        ds, atlas, rows = self._setup(rng)
        tgt = make_atlas(
            atlas.means + np.array([[1, 0], [2, 0], [0, 3], [0, 4]], dtype=float),
            atlas.classes,
            atlas.orders,
        )
        displacement = barycentric_map(coupling(np.eye(4) / 4), atlas, tgt)
        out = transform_samples(ds, rows, displacement)
        orders = np.arange(12) % 6 % 2 + 1  # each class is one run of 6 windows
        for i, (c, o) in enumerate(zip(atlas.classes, atlas.orders)):
            members = (ds.labels == c) & (orders == o)
            before = ds.features[members].mean(axis=0)
            after = out.features[members].mean(axis=0)
            assert np.allclose(after - before, displacement[i], atol=1e-12)

    def test_preserves_count_order_labels(self, rng):
        ds, atlas, rows = self._setup(rng)
        displacement = barycentric_map(coupling(np.eye(4) / 4), atlas, atlas)
        out = transform_samples(ds, rows, displacement)
        assert len(out) == len(ds)
        assert np.array_equal(out.window_index, ds.window_index)
        assert np.array_equal(out.labels, ds.labels)

    @pytest.mark.parametrize("shift", [4, -1])
    def test_row_outside_atlas_raises(self, rng, shift):
        # numpy would wrap a row of -1 round to the last state
        ds, atlas, rows = self._setup(rng)
        displacement = barycentric_map(coupling(np.eye(4) / 4), atlas, atlas)
        with pytest.raises(TrotError, match=f"row {rows[0] + shift} of a 4-state atlas"):
            transform_samples(ds, rows + shift, displacement)

    def test_rows_of_another_length_raise(self, rng):
        # one row would otherwise broadcast to every window
        ds, atlas, rows = self._setup(rng)
        displacement = barycentric_map(coupling(np.eye(4) / 4), atlas, atlas)
        with pytest.raises(DimensionMismatchError, match=r"rows \(1,\)"):
            transform_samples(ds, rows[:1], displacement)

    def test_displacement_of_another_dimension_raises(self, rng):
        ds, _, rows = self._setup(rng)
        with pytest.raises(DimensionMismatchError, match=r"displacement \(4, 1\)"):
            transform_samples(ds, rows, np.ones((4, 1)))


class TestCoral:
    def test_identical_distributions_near_identity(self, rng):
        x = rng.normal(0, 1, (200, 4))
        ds = make_dataset(x)
        out = coral_align(ds, ds)
        assert np.abs(out.features - x).mean() <= 1e-6

    def test_recolors_to_target_covariance(self, rng):
        src = make_dataset(rng.normal(0, [2.0, 1.0], (1000, 2)))
        tgt = make_dataset(rng.normal(0, [1.0, 2.0], (1000, 2)))
        out = coral_align(src, tgt)
        cov = np.cov(out.features, rowvar=False)
        tgt_cov = np.cov(tgt.features, rowvar=False)
        assert abs(cov[0, 0] - tgt_cov[0, 0]) / tgt_cov[0, 0] < 0.05
        assert abs(cov[1, 1] - tgt_cov[1, 1]) / tgt_cov[1, 1] < 0.05

    def test_constant_column_unchanged(self, rng):
        feats = rng.normal(0, 1, (50, 3))
        feats[:, 1] = 7.0
        src = make_dataset(feats)
        tgt_feats = rng.normal(0, 1, (50, 3))
        tgt_feats[:, 1] = -2.0
        out = coral_align(src, make_dataset(tgt_feats))
        assert np.allclose(out.features[:, 1], 7.0, atol=1e-9)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            coral_align(make_dataset(np.zeros((3, 2))), make_dataset(np.zeros((3, 3))))

    @pytest.mark.parametrize("n_src, n_tgt", [(1, 5), (5, 1), (0, 5), (5, 0), (1, 1)])
    def test_fewer_than_two_windows_a_side(self, rng, n_src, n_tgt):
        # one window once gave np.cov a NaN covariance and RuntimeWarnings
        src, tgt = make_dataset(rng.normal(0, 1, (n_src, 2))), make_dataset(rng.normal(0, 1, (n_tgt, 2)))
        with pytest.raises(InsufficientDataError, match=f"got {n_src} and {n_tgt}"):
            coral_align(src, tgt)
