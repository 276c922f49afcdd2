import numpy as np
import pytest

from trot.harness import TaskSpec, run_task, temporal_split
from trot.hmm import assign_dataset_states, build_atlas
from trot.synth import SynthSpec, adversarial_user_shift, generate_pair, state_grid


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
