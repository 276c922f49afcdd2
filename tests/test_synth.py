import itertools

import numpy as np
import pytest

from trot.harness import TaskSpec, run_task, temporal_split
from trot.hmm import TemporalAtlas, assign_dataset_states, build_atlas
from trot.preprocess import FeatureDataset
from trot.synth import SynthSpec, adversarial_user_shift, generate_pair, generate_user, state_grid


def reference_state_grid(spec):
    """`state_grid` as one loop over classes."""
    mu = np.zeros((spec.n_classes, spec.n_states, spec.feature_dim))
    for c in range(spec.n_classes):
        mu[c, :, 0] = c * spec.class_separation
        pos = np.arange(spec.n_states)
        if c % 2 == 1:
            pos = pos[::-1]
        if spec.feature_dim > 1:
            mu[c, :, 1] = pos * spec.state_separation
    return mu


def reference_adversarial_user_shift(spec, scale=1.0):
    """`adversarial_user_shift` as one loop over classes."""
    shift = np.zeros((spec.n_classes, spec.n_states, spec.feature_dim))
    for c in range(spec.n_classes):
        sign = 1.0 if c % 2 == 0 else -1.0
        shift[c, :, 0] = sign * 0.7 * spec.class_separation * scale
    return shift


def reference_generate_user(spec, shift, user_id, rng):
    """`generate_user` as one loop over (class, run length) blocks, with one
    noise draw per block and the truth atlas laid out row by row."""
    mu = reference_state_grid(spec)
    if shift is not None:
        mu = mu + shift
    rounds = max(1, min(spec.rounds, spec.windows_per_class // spec.n_states))
    base, extra = divmod(spec.windows_per_class, rounds)
    feats, labels = [], []
    for r in range(rounds):
        length = base + (1 if r < extra else 0)
        for c in range(spec.n_classes):
            states = np.arange(length) % spec.n_states
            feats.append(mu[c, states] + rng.normal(0.0, spec.noise_std, (length, spec.feature_dim)))
            labels.append(np.full(length, c))
    features = np.concatenate(feats)
    dataset = FeatureDataset(features, np.concatenate(labels), np.arange(len(features)), user_id)
    c, n, d = mu.shape
    atlas = TemporalAtlas(
        mu.reshape(c * n, d), np.repeat(np.arange(c), n), np.tile(np.arange(1, n + 1), c)
    )
    return dataset, atlas


def arrays(dataset, atlas):
    return (dataset.features, dataset.labels, dataset.window_index,
            atlas.means, atlas.classes, atlas.orders)


class TestLoopReference:
    """The array forms against the loop forms above, bit for bit, including
    runs shorter than a chain (`windows_per_class < n_states`) and the
    one-state, one-feature grid."""

    SPECS = [
        dict(n_classes=c, n_states=n, windows_per_class=w, feature_dim=d, rounds=r, seed=seed,
             class_separation=3.7, state_separation=2.3, noise_std=0.3)
        for c, n, d, w, r, seed in itertools.product(
            range(1, 6), range(1, 5), (2, 3, 8), (1, 3, 7, 50), (1, 2, 4, 7), (0, 11)
        )
    ] + [dict(n_classes=1, n_states=1, windows_per_class=5, feature_dim=1)]

    def test_state_grid_and_shift(self):
        for kwargs in self.SPECS:
            spec = SynthSpec(**kwargs)
            assert np.array_equal(state_grid(spec), reference_state_grid(spec))
            for scale in (1.0, -0.35):
                want = reference_adversarial_user_shift(spec, scale)
                assert np.array_equal(adversarial_user_shift(spec, scale), want)

    def test_generate_user(self):
        for kwargs in self.SPECS:
            spec = SynthSpec(**kwargs)
            shift = reference_adversarial_user_shift(spec, 0.9)
            got_rng, want_rng = np.random.default_rng(spec.seed), np.random.default_rng(spec.seed)
            for user_shift in (None, shift):  # one generator for both users, as generate_pair
                got = arrays(*generate_user(spec, user_shift, "u", got_rng))
                want = arrays(*reference_generate_user(spec, user_shift, "u", want_rng))
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype and np.array_equal(g, w), kwargs
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestGeneratePair:
    def test_zero_shift_means_match(self):
        spec = SynthSpec(2, 2, 100, 3, noise_std=0.2, seed=1)
        source, target, _ = generate_pair(spec)
        tol = 4 * spec.noise_std / np.sqrt(spec.windows_per_class)
        for c in (0, 1):
            src_mean = source.features[source.labels == c].mean(axis=0)
            tgt_mean = target.features[target.labels == c].mean(axis=0)
            assert np.all(np.abs(src_mean - tgt_mean) < 2 * tol)

    def test_seed_reproducibility(self):
        spec = SynthSpec(3, 2, 30, 4, seed=9)
        s1, t1, _ = generate_pair(spec)
        s2, t2, _ = generate_pair(SynthSpec(3, 2, 30, 4, seed=9))
        assert np.array_equal(s1.features, s2.features)
        assert np.array_equal(t1.features, t2.features)

    def test_all_classes_in_both_halves(self):
        spec = SynthSpec(4, 4, 40, 2, seed=2)
        _, target, _ = generate_pair(spec)
        val, test = temporal_split(target)
        assert set(val.labels) == set(test.labels) == {0, 1, 2, 3}

    def test_state_labels_follow_cyclic_chain(self):
        # deterministic assignment must recover the generating schedule exactly
        spec = SynthSpec(2, 4, 40, 2, noise_std=0.05, seed=3)
        source, _, (truth, _) = generate_pair(spec)
        for c in (0, 1):
            idx = np.nonzero(source.labels == c)[0]
            path = assign_dataset_states(source.subset(idx), 4)  # one class: row = state
            runs = np.split(path, np.nonzero(np.diff(source.window_index[idx]) != 1)[0] + 1)
            for run in runs:
                assert run.tolist() == [t % 4 for t in range(len(run))]

    def test_atlas_recovery_within_tolerance(self):
        spec = SynthSpec(4, 4, 200, 4, noise_std=0.3, seed=4)
        source, _, (truth, _) = generate_pair(spec)
        atlas, _ = build_atlas(source, 4)
        tol = 4 * spec.noise_std / np.sqrt(spec.windows_per_class / spec.n_states)
        assert np.all(np.abs(atlas.means - truth.means) < tol)

    def test_adversarial_c2_fools_nearest_neighbor(self):
        spec = SynthSpec(2, 2, 60, 2, noise_std=0.1, seed=6, rounds=2)
        spec.user_shift = adversarial_user_shift(spec)
        source, target, _ = generate_pair(spec)
        report = run_task(TaskSpec("s", "t", "na"), source, target)
        assert report.test_accuracy <= 0.5

    def test_zigzag_grid_layout(self):
        spec = SynthSpec(2, 3, 30, 2, class_separation=10, state_separation=2)
        mu = state_grid(spec)
        assert mu[0, :, 1].tolist() == [0.0, 2.0, 4.0]   # ascending states
        assert mu[1, :, 1].tolist() == [4.0, 2.0, 0.0]   # reversed for odd class
        assert mu[1, 0, 0] == 10.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(noise_std=0.0)
        with pytest.raises(ValueError):
            SynthSpec(n_classes=0)
        with pytest.raises(ValueError):
            SynthSpec(feature_dim=1)
        with pytest.raises(ValueError):
            SynthSpec(user_shift=np.zeros((1, 1, 1)))
