"""One 1-NN classification per query and training size the pipeline uses.

Times `trot.harness.knn1_classify` on the sizes (query windows x training
windows x features) of the three `perfbench` workloads:

- `trot_adapt` 400x800x2: the validation half against the transported
  source, 200 windows per class;
- `raw_to_matrix` 1179x2355x38: one matrix task's target half against its
  source, 38 features per window;
- `window_ot` 100x200x2: the validation half against the transported
  source, 50 windows per class.

Features are drawn uniformly from [-1, 1], the range max-abs scaling leaves
them in, and labels from 4 classes, with a fixed seed.  After `WARMUP`
calls, each size is classified `CALLS` times in a row.  A record holds the
median milliseconds per call, the minor page faults per call
(`resource.getrusage(RUSAGE_SELF).ru_minflt`) and a digest of the labels.
Flags, BLAS pin and output file are those of `_bench`.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import time

import _bench  # pins BLAS before numpy is imported
import numpy as np

SIZES = (
    ("trot_adapt", 400, 800, 2),
    ("raw_to_matrix", 1179, 2355, 38),
    ("window_ot", 100, 200, 2),
)
WARMUP = 3
CALLS = 200
SEED = 0


def datasets(n_query, n_train, dim):
    """(train, query) feature datasets with features in [-1, 1]."""
    from trot.preprocess import FeatureDataset

    rng = np.random.default_rng(SEED)
    train = FeatureDataset(rng.uniform(-1, 1, (n_train, dim)), rng.integers(0, 4, n_train),
                           np.arange(n_train))
    query = FeatureDataset(rng.uniform(-1, 1, (n_query, dim)), None, np.arange(n_query))
    return train, query


def measure(train, query):
    """One record: median ms per call, minor page faults per call, label digest."""
    from trot.harness import knn1_classify

    for _ in range(WARMUP):
        labels = knn1_classify(train, query)
    seconds = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(CALLS):
        start = time.perf_counter()
        knn1_classify(train, query)
        seconds.append(time.perf_counter() - start)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return {
        "ms_per_call": round(1e3 * statistics.median(seconds), 4),
        "minflt_per_call": faults / CALLS,
        "labels_sha1": hashlib.sha1(labels.tobytes()).hexdigest(),
    }


def records():
    """One record per size."""
    for workload, n_query, n_train, dim in SIZES:
        yield {
            "size": f"{n_query}x{n_train}x{dim}", "workload": workload,
            **measure(*datasets(n_query, n_train, dim)),
        }


def main(argv=None):
    _bench.main(argv, __doc__, "BENCH_knn.json", records, calls=CALLS)


if __name__ == "__main__":
    main()
