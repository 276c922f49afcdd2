"""What the layer benchmarks in this directory share.

Importing this module pins BLAS to one thread, as `perfbench` does, so each
`bench_*.py` script imports it before numpy.  `main` gives every script the
same flags: `--label` names the run, `--out` is the JSON file it goes into,
next to the runs of other labels already there, and `--src` is the directory
whose `trot` package is measured.  Two source trees can so be measured on one
machine and kept side by side:

    python scripts/bench_knn.py --src /path/to/parent/src --label parent
    python scripts/bench_knn.py --label change

Nothing here imports `trot` at module level: `--src` must come first on
`sys.path` before the package is imported.
"""

import argparse
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


def main(argv, doc, out_name, records, key="records", **fields):
    """Parse the flags, print each record `records()` yields as it is made and
    write them under `key`, beside `fields` and the machine, as the `--label`
    entry of `--out` (default `out_name` at the repository root)."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the trot package to measure")
    parser.add_argument("--label", required=True, help="key of this run in the output file")
    parser.add_argument("--out", type=Path, default=ROOT / out_name)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    made = []
    for record in records():
        made.append(record)
        print(json.dumps(record), flush=True)
    results = json.loads(args.out.read_text()) if args.out.is_file() else {}
    results[args.label] = {
        "machine": {
            "python": platform.python_version(), "numpy": np.__version__,
            "cpus": os.cpu_count(), "processor": platform.machine(), "blas_threads": 1,
        },
        **fields,
        key: made,
    }
    args.out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")


def fastest(repeats, fn, *args):
    """(fastest of `repeats` calls of `fn(*args)` in seconds, the last call's result)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return round(best, 6), result


def adversarial_pair(windows_per_class, noise_std, seed):
    """(source, validation) of one synthetic adversarial-shift pair (4 classes,
    4 states, 2 features), scaled and split as `run_task` does: both users
    max-abs scaled on the source's factors, and the first half in time of the
    target kept for validation."""
    from trot.harness import temporal_split
    from trot.preprocess import fit_maxabs, maxabs_fit_apply
    from trot.synth import SynthSpec, adversarial_user_shift, generate_pair

    spec = SynthSpec(n_classes=4, n_states=4, windows_per_class=windows_per_class,
                     feature_dim=2, noise_std=noise_std, seed=seed)
    spec.user_shift = adversarial_user_shift(spec)
    source, target, _ = generate_pair(spec)
    scaler = fit_maxabs(source)
    validation, _ = temporal_split(maxabs_fit_apply(target, scaler))
    return maxabs_fit_apply(source, scaler), validation
