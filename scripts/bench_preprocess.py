"""One `trot preprocess` call on the `raw_to_matrix` recordings, and its layers.

The inputs are the `perfbench` `raw_to_matrix` users: one `MINUTES`-minute
30 Hz recording per gain of `USER_GAINS`, drawn from `default_rng(SEED)`
and written as `RawWorkload.setup` writes them, into a temporary directory.

- One record per recording holds the fastest of `REPEATS` calls, in this
  process, of `load_recording`, `build_features` and `save_features`, in
  seconds, with its window count and the sha1 of the CSV `save_features`
  wrote.
- The last record is the whole `trot.cli.main(["preprocess", ...])` call:
  the fastest of `REPEATS` calls in seconds, the windows written, the sha1
  of every CSV written and the peak resident set of the largest child
  process waited for (`getrusage(RUSAGE_CHILDREN).ru_maxrss`, in MiB; 0 for
  a tree that preprocesses in the calling process).

A traced `perfbench` run records no span made in a child process, so the
layers of a `trot preprocess` that forks are measured here.  Flags, BLAS pin
and output file are those of `_bench`.
"""

from __future__ import annotations

import hashlib
import resource
import sys
import tempfile
from pathlib import Path

import _bench  # pins BLAS before numpy is imported

MINUTES = 60.0
SEED = 1
REPEATS = 5


def sha1(path: Path) -> str:
    return hashlib.sha1(path.read_bytes()).hexdigest()


def records():
    """One record per recording, then one of the whole call."""
    sys.path.append(str(_bench.ROOT / "perfbench"))
    from workloads import OVERLAP, RATE_HZ, WINDOW_SEC, RawWorkload

    from trot.cli import main as trot
    from trot.preprocess import build_features, load_recording, save_features

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        RawWorkload(MINUTES).setup(tmp, SEED)
        raw = tmp / "raw"
        paths = sorted(raw.glob("*.csv"))
        for path in paths:
            load_s, recording = _bench.fastest(REPEATS, load_recording, path, RATE_HZ)
            build_s, dataset = _bench.fastest(REPEATS, build_features, recording, WINDOW_SEC, OVERLAP)
            save_s, _ = _bench.fastest(REPEATS, save_features, dataset, tmp / path.name)
            yield {
                "input": path.stem, "samples": len(recording), "windows": len(dataset),
                "load_recording_s": load_s, "build_features_s": build_s, "save_features_s": save_s,
                "sha1": sha1(tmp / path.name),
            }
        out = tmp / "features"
        argv = ["preprocess", "--input", str(raw), "--rate", str(RATE_HZ), "--out", str(out)]
        seconds, code = _bench.fastest(REPEATS, trot, argv)
        if code != 0:
            raise RuntimeError(f"trot preprocess exited {code}")
        written = sorted(out.glob("*.csv"))
        yield {
            "input": "trot preprocess", "recordings": len(paths), "seconds": seconds,
            "windows": sum(p.read_bytes().count(b"\n") - 1 for p in written),  # less the header
            "sha1": {p.stem: sha1(p) for p in written},
            "children_maxrss_mb": round(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, 1),
        }


def main(argv=None):
    _bench.main(argv, __doc__, "BENCH_preprocess.json", records, repeats=REPEATS, minutes=MINUTES)


if __name__ == "__main__":
    main()
