import numpy as np
import pytest

from trot.hmm import TemporalAtlas
from trot.preprocess import FeatureDataset, Recording


def make_recording(n, sample_rate=30.0, labels=None, user_id="u", rng=None):
    if rng is None:
        rng = np.random.default_rng(0)
    channels = rng.normal(0, 1, (n, 6))
    if labels is None:
        labels = np.zeros(n, dtype=int)
    return Recording(sample_rate, channels, np.asarray(labels, dtype=int), user_id)


def make_dataset(features, labels=None, start=0, user_id="u"):
    features = np.atleast_2d(np.asarray(features, dtype=float))
    index = np.arange(start, start + len(features))
    if labels is not None:
        labels = np.asarray(labels, dtype=int)
    return FeatureDataset(features, labels, index, user_id)


def make_atlas(means, classes, orders):
    return TemporalAtlas(
        np.atleast_2d(np.asarray(means, dtype=float)), np.asarray(classes, dtype=int),
        np.asarray(orders, dtype=int),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(42)
