"""Inputs, timed commands and output checks of the benchmark workloads.

Each workload writes its inputs from a seed, names the `trot` CLI commands
that make up one timed pass, and inspects what a pass wrote.  The program
itself sees only the generated files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from trot.preprocess import CHANNEL_NAMES, save_features
from trot.synth import SynthSpec, adversarial_user_shift, generate_pair

CLI_SEED = "3"
TROT_FLOOR = 0.95  # acceptance criterion 7: TROT test accuracy on the adversarial pair
RATE_HZ = 30
WINDOW_SEC = 3.0  # `trot preprocess` defaults
OVERLAP = 0.5
# Fixed sensor gains, one per raw user: the seed moves noise and activity
# boundaries, not how far apart the users are, so accuracy stays comparable
# across seeds.
USER_GAINS = (0.9, 1.0, 1.12)
RAW_USERS = len(USER_GAINS)


@dataclass(frozen=True)
class Sizes:
    """Input sizes: the benchmark runs `FULL`; the warm-up and the self-test `TINY`."""

    adapt_windows_per_class: int = 200
    ot_windows_per_class: int = 50
    raw_minutes: float = 60.0


FULL = Sizes()
TINY = Sizes(adapt_windows_per_class=12, ot_windows_per_class=10, raw_minutes=4.0)
SIZES = {"full": FULL, "tiny": TINY}


@dataclass(frozen=True)
class Command:
    """One `trot` CLI call of a pass; `window_stage` calls count toward windows_per_s."""

    argv: list[str]
    window_stage: bool = True


@dataclass
class Outcome:
    """What one pass wrote, as the checks saw it."""

    tasks: int = 0
    failures: list[str] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)
    windows: int = 0
    digest: str = ""


def _accuracy_mismatch(task: dict) -> bool:
    """True when an ok task's test accuracy differs from its prediction dump."""
    truth = np.asarray(task["predictions"]["true"])
    predicted = np.asarray(task["predictions"]["predicted"])
    return not np.isclose(task["test_accuracy"], float(np.mean(truth == predicted)), rtol=0, atol=1e-12)


def _rows(path: Path) -> np.ndarray:
    """Numeric rows of a CSV with one header line."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _synth_pair(windows_per_class: int, seed: int):
    """The acceptance-criterion-7 construction (seed 11 gives that exact pair)."""
    spec = SynthSpec(
        n_classes=4, n_states=4, windows_per_class=windows_per_class, feature_dim=2,
        noise_std=0.1, seed=seed,
    )
    spec.user_shift = adversarial_user_shift(spec)
    source, target, _ = generate_pair(spec)
    return source, target


class AdaptWorkload:
    """`trot adapt` calls on one synthetic adversarial-shift pair.

    `settings` are the method and hyperparameter flags of each call; a call
    listed in `floor` must reach `TROT_FLOOR` test accuracy.
    """

    def __init__(self, windows_per_class: int, settings, floor=()):
        self.windows_per_class = windows_per_class
        self.settings = [list(s) for s in settings]
        self.floor = set(floor)

    def setup(self, directory: Path, seed: int) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        source, target = _synth_pair(self.windows_per_class, seed)
        save_features(source, directory / "source.csv")
        save_features(target, directory / "target.csv")

    def commands(self, inputs: Path, outputs: Path, cheap: bool = False) -> list[Command]:
        out = []
        for i, flags in enumerate(self.settings):
            if cheap:  # warm-up: one fast grid point touches the same code
                at = flags.index("--lambda") if "--lambda" in flags else len(flags)
                flags = [*flags[:at], "--lambda", "1", *flags[at + 2:]]
            out.append(Command([
                "adapt", "--source", str(inputs / "source.csv"), "--target", str(inputs / "target.csv"),
                *flags, "--seed", CLI_SEED, "--report", str(outputs / f"report{i}.json"),
            ]))
        return out

    def inspect(self, inputs: Path, outputs: Path) -> Outcome:
        read = sum(len(_rows(inputs / name)) for name in ("source.csv", "target.csv"))
        outcome = Outcome(tasks=len(self.settings), windows=read * len(self.settings))
        digest = hashlib.sha256()
        for i, flags in enumerate(self.settings):
            label = " ".join(flags)
            path = outputs / f"report{i}.json"
            if not path.is_file():
                outcome.failures.append(f"{label}: no report written")
                continue
            report = json.loads(path.read_text())
            report.pop("timing_seconds", None)
            digest.update(json.dumps(report, sort_keys=True).encode())
            if report["status"] != "ok":
                outcome.failures.append(f"{label}: {report['error']}")
                continue
            outcome.accuracies.append(report["test_accuracy"])
            if _accuracy_mismatch(report):
                outcome.failures.append(f"{label}: test_accuracy disagrees with its predictions")
            elif i in self.floor and report["test_accuracy"] < TROT_FLOOR:
                outcome.failures.append(
                    f"{label}: test accuracy {report['test_accuracy']:.4f} < {TROT_FLOOR}"
                )
        outcome.digest = digest.hexdigest()
        return outcome


def _recording(rng: np.random.Generator, minutes: float, gain: float, n_classes: int = 4) -> np.ndarray:
    """Rows of `timestamp, 6 channels, label` for one user at RATE_HZ.

    Each class has its own periodic accelerometer and gyroscope signal, the
    user scales the accelerometer by `gain` and the gyroscope by its
    reciprocal, a slow swing in intensity varies every class's windows, and
    noise is added.  Without the swing the 38 features are so nearly
    collinear that CORAL's accuracy jumps between 0.2 and 1.0 from seed to
    seed.  Half of the activity
    boundaries fall on a multiple of the window step, which makes the window
    straddling them a tied label and so a dropped window; the rest leave a
    majority label in the straddling windows.
    """
    n = int(minutes * 60 * RATE_HZ)
    step = int(round(WINDOW_SEC * RATE_HZ * (1 - OVERLAP)))
    labels = np.empty(n, dtype=int)
    start, slot, cls = 0, 0, int(rng.integers(n_classes))
    while start < n:
        slot += int(rng.integers(14, 41))
        end = min(n, slot * step + (0 if rng.random() < 0.5 else int(rng.integers(1, step))))
        labels[start:end] = cls
        start, cls = end, (cls + 1) % n_classes
    t = np.arange(n) / RATE_HZ
    acc_freq = np.array([0.5, 1.1, 1.9, 2.7])[labels]
    acc_amp = np.array([0.15, 0.5, 0.9, 1.4])[labels]
    gyro_freq = np.array([0.3, 0.8, 1.4, 2.1])[labels]
    gyro_amp = np.array([0.1, 0.4, 0.8, 1.2])[labels]
    swing = 1.0 + 0.3 * np.sin(2 * np.pi * t / 23.0 + rng.uniform(0, 2 * np.pi))
    acc_gain, gyro_gain = gain * swing, swing / gain
    phase = 2 * np.pi * acc_freq * t
    gphase = 2 * np.pi * gyro_freq * t
    channels = np.column_stack([
        acc_gain * acc_amp * np.sin(phase),
        acc_gain * 0.6 * acc_amp * np.sin(phase + 2.1),
        acc_gain * (1.0 + 0.3 * acc_amp * np.cos(phase)),
        gyro_gain * gyro_amp * np.sin(gphase),
        gyro_gain * 0.5 * gyro_amp * np.cos(gphase + 0.7),
        gyro_gain * 0.3 * gyro_amp * np.sin(2 * gphase),
    ]) + rng.normal(0.0, 0.05, size=(n, 6))
    return np.column_stack([t, channels, labels])


class RawWorkload:
    """Raw 6-channel recordings through `trot preprocess` and `trot matrix`."""

    methods = ("na", "coral")

    def __init__(self, minutes: float):
        self.minutes = minutes

    def setup(self, directory: Path, seed: int) -> None:
        raw = directory / "raw"
        raw.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        header = ",".join(["timestamp", *CHANNEL_NAMES, "label"])
        for u, gain in enumerate(USER_GAINS):
            rows = _recording(rng, self.minutes, gain)
            np.savetxt(raw / f"user{u}.csv", rows, delimiter=",", header=header, comments="",
                       fmt=["%.4f"] + ["%.6f"] * 6 + ["%d"])

    def commands(self, inputs: Path, outputs: Path, cheap: bool = False) -> list[Command]:
        features = outputs / "features"
        return [
            Command(["preprocess", "--input", str(inputs / "raw"), "--rate", str(RATE_HZ),
                     "--out", str(features)]),
            Command(["matrix", "--data", str(features), "--methods", ",".join(self.methods),
                     "--out", str(outputs / "matrix.json")], window_stage=False),
        ]

    def inspect(self, inputs: Path, outputs: Path) -> Outcome:
        expected = len(self.methods) * RAW_USERS * (RAW_USERS - 1)
        outcome = Outcome(tasks=expected + 1)  # the matrix tasks and the preprocess call
        digest = hashlib.sha256()
        paths = sorted((outputs / "features").glob("*.csv"))
        if len(paths) != RAW_USERS:
            outcome.failures.append(f"preprocess wrote {len(paths)} feature files, not {RAW_USERS}")
        for path in paths:
            text = path.read_bytes()
            digest.update(text)
            values = _rows(path)
            outcome.windows += len(values)
            if not np.all(np.isfinite(values)):
                outcome.failures.append(f"{path.name}: non-finite feature")
        matrix_path = outputs / "matrix.json"
        if not matrix_path.is_file():
            outcome.failures.append("matrix: no report written")
            outcome.failures.extend(["matrix: task missing"] * expected)
            return outcome
        text = matrix_path.read_text()
        digest.update(text.encode())
        outcome.digest = digest.hexdigest()
        tasks = json.loads(text)["tasks"]
        if len(tasks) != expected:
            outcome.failures.append(f"matrix: {len(tasks)} tasks, expected {expected}")
        for task in tasks:
            label = f"{task['method']} {task['source']}->{task['target']}"
            if task["status"] != "ok":
                outcome.failures.append(f"{label}: {task['error']}")
                continue
            outcome.accuracies.append(task["test_accuracy"])
            if _accuracy_mismatch(task):
                outcome.failures.append(f"{label}: test_accuracy disagrees with its predictions")
        return outcome


# The CLI runs either one pinned setting or a whole default grid, and a whole
# trot grid (36 points, about 45 s) or otda grid (9 points, about 25 s) would
# not fit several passes into one run, so the adapt workloads call single
# points of the default grids.  Entropy weight 0.01 is where those grids spend
# nearly all their time, so both keep it.  Points whose Sinkhorn iteration
# count moves with the data seed are left out: the point the full trot grid
# selects (lambda 0.01, eta 0, tau 0.1) stops GCG after 6 or 7 steps
# depending on the seed (60-70k iterations), and otda at eta 1 runs 22-46k,
# which would make run-to-run spread measure the seed instead of the code.
TROT_SETTINGS = [
    ("0.01", "0", "1"), ("0.01", "0", "10"), ("0.01", "0.1", "1"), ("0.01", "1", "1"),
    ("0.1", "0", "1"), ("1", "0", "1"),
]

WORKLOADS = {
    # 16x16 atlas solves, bound by per-call numpy overhead, with GCG (20 steps
    # at lambda 0.1) and both atlases rebuilt on every call.
    "trot_adapt": lambda sizes: AdaptWorkload(
        sizes.adapt_windows_per_class,
        [
            ["--method", "trot", "--states", "4", "--lambda", lam, "--eta", eta, "--tau", tau]
            for lam, eta, tau in TROT_SETTINGS
        ],
        floor=[i for i, (lam, _, _) in enumerate(TROT_SETTINGS) if lam == "0.01"],
    ),
    # The same ot_core layer on 200x100 window-level costs, bound by
    # arithmetic rather than dispatch, and no hmm at all.
    "window_ot": lambda sizes: AdaptWorkload(
        sizes.ot_windows_per_class,
        [["--method", "ot"], ["--method", "otda", "--lambda", "0.01", "--eta", "0"]],
    ),
    # preprocess, CSV I/O and a large 1-NN; neither hmm nor ot_core.
    "raw_to_matrix": lambda sizes: RawWorkload(sizes.raw_minutes),
}
