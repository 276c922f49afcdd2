"""One Sinkhorn solve per cost shape and entropy weight.

Builds the transport problems the pipeline solves on its synthetic
adversarial-shift pairs (4 classes, 4 states, 2 features, noise 0.1):

- `atlas` 16x16: the source and pseudo-labelled target atlases at 4 states,
  as `harness._solver` prepares them for trot;
- `windows` 200x100: the ot/otda window cost at 50 windows per class;
- `windows` 500x400: the ot/otda window cost at 200 windows per class,
  subsampled as `harness._subsample` does with task seed 3.

`benchmark` problems use data seeds 1-5 of `perfbench` runs (the
`trot_adapt` and `window_ot` pairs); `criterion7` problems use data seed 11,
the pair of acceptance criterion 7.  Each problem is solved by
`trot.ot_core.sinkhorn` at entropy weights 0.01, 0.1 and 1 on its
default iteration budget and tolerance, which every pipeline solve
uses (gcg_solve's directions and ot's plan pass neither).  The coupling's
`newton_steps` splits its iterations into scaling-form iterations and
Newton steps, so the script measures trees whose `Coupling` has that field;
`seconds` is the fastest of `REPEATS` solves.
Flags, BLAS pin and output file are those of `_bench`.
"""

from __future__ import annotations

import _bench  # pins BLAS before numpy is imported
import numpy as np

ENTROPY_WEIGHTS = (0.01, 0.1, 1.0)
BENCHMARK_SEEDS = (1, 2, 3, 4, 5)
REPEATS = 3
TASK_SEED = 3  # the CLI seed of the benchmark's adapt calls
CRITERION_7_SEED = 11


def atlas_problem(windows_per_class, seed):
    from trot.harness import knn1_classify
    from trot.hmm import build_atlas
    from trot.ot_core import cost_matrix

    source, validation = _bench.adversarial_pair(windows_per_class, 0.1, seed)
    src, _ = build_atlas(source, 4)
    tgt, _ = build_atlas(validation.with_labels(knn1_classify(source, validation)), 4)
    return src.weights, tgt.weights, cost_matrix(src, tgt)


def window_problem(windows_per_class, seed):
    from trot.harness import _subsample
    from trot.ot_core import pairwise_sq_dists

    source, validation = _bench.adversarial_pair(windows_per_class, 0.1, seed)
    rng = np.random.default_rng(TASK_SEED)
    src, tgt = _subsample(source, rng), _subsample(validation, rng)
    a, b = np.full(len(src), 1 / len(src)), np.full(len(tgt), 1 / len(tgt))
    return a, b, pairwise_sq_dists(src.features, tgt.features)


def problems():
    """(construction, kind, data seed, (a, b, cost)) for every problem."""
    for seed in BENCHMARK_SEEDS:
        yield "benchmark", "atlas", seed, atlas_problem(200, seed)
    yield "criterion7", "atlas", CRITERION_7_SEED, atlas_problem(200, CRITERION_7_SEED)
    for seed in BENCHMARK_SEEDS:
        yield "benchmark", "windows", seed, window_problem(50, seed)
    yield "criterion7", "windows", CRITERION_7_SEED, window_problem(200, CRITERION_7_SEED)


def solve(a, b, cost, entropy_weight):
    """One record: scaling iterations, Newton steps, seconds, converged, violation."""
    from trot.ot_core import sinkhorn

    seconds, coupling = _bench.fastest(REPEATS, sinkhorn, a, b, cost, entropy_weight)
    return {
        "scaling_iters": coupling.iterations - coupling.newton_steps,
        "newton_steps": coupling.newton_steps,
        "seconds": seconds,
        "converged": bool(coupling.converged),
        "violation": float(coupling.marginal_violation),
    }


def records():
    """One record per problem and entropy weight."""
    for construction, kind, seed, (a, b, cost) in problems():
        for entropy_weight in ENTROPY_WEIGHTS:
            yield {
                "shape": f"{cost.shape[0]}x{cost.shape[1]}", "kind": kind,
                "construction": construction, "seed": seed, "entropy_weight": entropy_weight,
                **solve(a, b, cost, entropy_weight),
            }


def main(argv=None):
    _bench.main(argv, __doc__, "BENCH_sinkhorn.json", records, key="solves")


if __name__ == "__main__":
    main()
