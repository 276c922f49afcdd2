"""One source-side atlas preparation per input, mode and chain length.

Times `trot.hmm.build_atlas`, the whole source preparation trot needs (the
atlas plus each window's row in it), and `trot.hmm.assign_dataset_states`
on the max-abs scaled source user, as `harness._solver` sees it.  The
inputs are the synthetic adversarial-shift sources (4 classes, 4 states,
2 features, 200 windows per class):

- `benchmark`: data seeds 1-5 of the `perfbench` `trot_adapt` runs (noise
  0.1), deterministic mode at 4 states, as that workload runs trot;
- `criterion7_noise0.5`: the acceptance-criterion-7 construction (data seed
  11) at noise 0.5, at 2 and 4 states in both modes.

A record holds the fastest of `REPEATS` calls of each, in seconds, and a
digest of the atlas's means, classes and orders and of the rows.  It
measures trees whose `build_atlas` returns `(atlas, rows)`.  Records made
before the atlas dropped its variances digested them too, so their `sha1`
differs.  Flags, BLAS pin and output file are those of `_bench`.
"""

from __future__ import annotations

import hashlib

import _bench  # pins BLAS before numpy is imported
import numpy as np

BENCHMARK_SEEDS = (1, 2, 3, 4, 5)
CRITERION_7_SEED = 11
REPEATS = 7


def inputs():
    """(input name, data seed, scaled source, n_states, mode) of every record."""
    for seed in BENCHMARK_SEEDS:
        yield "benchmark", seed, _bench.adversarial_pair(200, 0.1, seed)[0], 4, "deterministic"
    noisy = _bench.adversarial_pair(200, 0.5, CRITERION_7_SEED)[0]
    for n_states in (2, 4):
        for mode in ("deterministic", "em"):
            yield "criterion7_noise0.5", CRITERION_7_SEED, noisy, n_states, mode


def measure(dataset, n_states, mode):
    """One record: seconds of each call and a digest of the atlas and rows."""
    from trot.hmm import assign_dataset_states, build_atlas

    atlas_s, (atlas, rows) = _bench.fastest(REPEATS, build_atlas, dataset, n_states, mode)
    assign_s, _ = _bench.fastest(REPEATS, assign_dataset_states, dataset, n_states, mode)
    digest = hashlib.sha1()
    for values in (atlas.means, atlas.classes, atlas.orders, rows):
        digest.update(np.ascontiguousarray(values).tobytes())
    return {"build_atlas_s": atlas_s, "assign_dataset_states_s": assign_s, "sha1": digest.hexdigest()}


def records():
    """One record per input, chain length and mode."""
    for name, seed, dataset, n_states, mode in inputs():
        yield {
            "input": name, "seed": seed, "windows": len(dataset), "n_states": n_states,
            "mode": mode, **measure(dataset, n_states, mode),
        }


def main(argv=None):
    _bench.main(argv, __doc__, "BENCH_atlas.json", records, repeats=REPEATS)


if __name__ == "__main__":
    main()
