"""One source-side atlas preparation per input, mode and chain length.

Times `trot.hmm.build_atlas`, the whole source preparation trot needs (the
atlas plus each window's row in it), and `trot.hmm.assign_dataset_states`
on the max-abs scaled source user, as `harness._solver` sees it.  The inputs are the synthetic adversarial-shift sources (4 classes, 4 states,
2 features, 200 windows per class):

- `benchmark`: data seeds 1-5 of the `perfbench` `trot_adapt` runs (noise
  0.1), deterministic mode at 4 states, as that workload runs trot;
- `criterion7_noise0.5`: the acceptance-criterion-7 construction (data seed
  11) at noise 0.5, at 2 and 4 states in both modes.

A record holds the fastest of `REPEATS` calls of each, in seconds, and a
digest of the atlas's means, classes and orders and of the rows.  It
measures trees whose `build_atlas` returns `(atlas, rows)`.  Records made
before the atlas dropped its variances digested them too, so their `sha1`
differs.
The records go into a JSON file under `--label`, next to the records of
other labels already there, so two source trees can be measured on one
machine and kept side by side:

    python scripts/bench_atlas.py --src /path/to/parent/src --label parent
    python scripts/bench_atlas.py --label change

BLAS is pinned to one thread, as in `perfbench`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before numpy is imported

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_SEEDS = (1, 2, 3, 4, 5)
CRITERION_7_SEED = 11
REPEATS = 7


def source(windows_per_class, noise_std, seed):
    """The scaled source user of one adversarial-shift pair."""
    from trot.preprocess import maxabs_fit_apply
    from trot.synth import SynthSpec, adversarial_user_shift, generate_pair

    spec = SynthSpec(n_classes=4, n_states=4, windows_per_class=windows_per_class,
                     feature_dim=2, noise_std=noise_std, seed=seed)
    spec.user_shift = adversarial_user_shift(spec)
    return maxabs_fit_apply(generate_pair(spec)[0])


def inputs():
    """(input name, data seed, scaled source, n_states, mode) of every record."""
    for seed in BENCHMARK_SEEDS:
        yield "benchmark", seed, source(200, 0.1, seed), 4, "deterministic"
    noisy = source(200, 0.5, CRITERION_7_SEED)
    for n_states in (2, 4):
        for mode in ("deterministic", "em"):
            yield "criterion7_noise0.5", CRITERION_7_SEED, noisy, n_states, mode


def fastest(fn, *args):
    """(fastest of `REPEATS` calls in seconds, the last call's result)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return round(best, 6), result


def measure(dataset, n_states, mode):
    """One record: seconds of each call and a digest of the atlas and rows."""
    from trot.hmm import assign_dataset_states, build_atlas

    atlas_s, (atlas, rows) = fastest(build_atlas, dataset, n_states, mode)
    assign_s, _ = fastest(assign_dataset_states, dataset, n_states, mode)
    digest = hashlib.sha1()
    for values in (atlas.means, atlas.classes, atlas.orders, rows):
        digest.update(np.ascontiguousarray(values).tobytes())
    return {"build_atlas_s": atlas_s, "assign_dataset_states_s": assign_s, "sha1": digest.hexdigest()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the trot package to measure")
    parser.add_argument("--label", required=True, help="key of this run in the output file")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_atlas.json")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    records = []
    for name, seed, dataset, n_states, mode in inputs():
        record = {
            "input": name, "seed": seed, "windows": len(dataset), "n_states": n_states,
            "mode": mode, **measure(dataset, n_states, mode),
        }
        records.append(record)
        print(json.dumps(record), flush=True)
    results = json.loads(args.out.read_text()) if args.out.is_file() else {}
    results[args.label] = {
        "machine": {
            "python": platform.python_version(), "numpy": np.__version__,
            "cpus": os.cpu_count(), "processor": platform.machine(), "blas_threads": 1,
        },
        "repeats": REPEATS,
        "records": records,
    }
    args.out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
