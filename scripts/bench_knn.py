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
The records go into a JSON file under `--label`, next to the records of
other labels already there, so two source trees can be measured on one
machine and kept side by side:

    python scripts/bench_knn.py --src /path/to/parent/src --label parent
    python scripts/bench_knn.py --label change

BLAS is pinned to one thread, as in `perfbench`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before numpy is imported

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the trot package to measure")
    parser.add_argument("--label", required=True, help="key of this run in the output file")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_knn.json")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    records = []
    for workload, n_query, n_train, dim in SIZES:
        record = {
            "size": f"{n_query}x{n_train}x{dim}", "workload": workload,
            **measure(*datasets(n_query, n_train, dim)),
        }
        records.append(record)
        print(json.dumps(record), flush=True)
    results = json.loads(args.out.read_text()) if args.out.is_file() else {}
    results[args.label] = {
        "machine": {
            "python": platform.python_version(), "numpy": np.__version__,
            "cpus": os.cpu_count(), "processor": platform.machine(), "blas_threads": 1,
        },
        "calls": CALLS,
        "records": records,
    }
    args.out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
