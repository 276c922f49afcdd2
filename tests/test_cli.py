import csv
import json
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from trot.cli import _adapt_grid, build_parser, main
from trot.harness import default_grid
from trot.ot_core import TrotHyperparams
from trot.preprocess import build_features, load_features, load_recording, save_features

SRC = Path(__file__).resolve().parents[1] / "src"


def write_recording(path, n, rng):
    """`n` samples at 30 Hz, two activities, as a recording CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "acc_x", "acc_y", "acc_z",
                         "gyro_x", "gyro_y", "gyro_z", "label"])
        for i in range(n):
            label = 0 if i < n // 2 else 1
            scale = 1.0 if label == 0 else 3.0
            row = scale * np.ones(6) + rng.normal(0, 0.1, 6)
            writer.writerow([i / 30.0, *np.round(row, 5), label])


@pytest.fixture
def recording_dir(tmp_path):
    raw = tmp_path / "raw"
    raw.mkdir()
    write_recording(raw / "userA.csv", 600, np.random.default_rng(0))  # 20 s
    return raw


def test_preprocess_verb(recording_dir, tmp_path):
    out = tmp_path / "feats"
    code = main(["preprocess", "--input", str(recording_dir), "--rate", "30",
                 "--out", str(out)])
    assert code == 0
    ds = load_features(out / "userA.csv")
    assert ds.dim == 38
    assert len(ds) > 0


def test_preprocess_recording_without_kept_windows(tmp_path, capsys):
    # every 3 s window whose labels alternate is a tie and is dropped; the
    # header-only file once written here made `load_features`, and so `trot matrix`, fail
    raw = tmp_path / "raw"
    raw.mkdir()
    lines = ["timestamp,acc_x,acc_y,acc_z,gyro_x,gyro_y,gyro_z,label"]
    lines += [f"{i / 30},1,2,2,0.1,0.2,0.2,{i % 2}" for i in range(180)]
    (raw / "userB.csv").write_text("\n".join(lines))
    out = tmp_path / "feats"
    assert main(["preprocess", "--input", str(raw), "--rate", "30", "--out", str(out)]) == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "InsufficientDataError" and "userB.csv" in payload["message"]
    assert not (out / "userB.csv").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--rate", "inf"], "sample_rate must be finite and positive"),
        (["--rate", "30", "--window-sec", "inf"], "window_seconds must be finite"),
    ],
)
def test_preprocess_rejects_non_finite_geometry(recording_dir, tmp_path, capsys, flags, message):
    # both once ended in an OverflowError traceback from int(round(inf))
    assert main(["preprocess", "--input", str(recording_dir), *flags,
                 "--out", str(tmp_path / "feats")]) == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "ValueError", "message": message}


@pytest.fixture
def recordings_dir(tmp_path):
    """Three recordings of different lengths, written out of sorted order."""
    raw = tmp_path / "raw"
    raw.mkdir()
    rng = np.random.default_rng(1)
    for name, n in (("userC", 1200), ("userA", 600), ("userB", 900)):
        write_recording(raw / f"{name}.csv", n, rng)
    return raw


def test_preprocess_several_recordings_match_one_at_a_time(recordings_dir, tmp_path, caplog):
    out, expected = tmp_path / "feats", tmp_path / "expected"
    expected.mkdir()
    with caplog.at_level("INFO", logger="trot"):
        assert main(["preprocess", "--input", str(recordings_dir), "--rate", "30",
                     "--out", str(out)]) == 0
    assert multiprocessing.active_children() == []
    paths = sorted(recordings_dir.glob("*.csv"))
    assert sorted(p.name for p in out.iterdir()) == [p.name for p in paths]
    windows = []
    for path in paths:
        dataset = build_features(load_recording(path, 30.0))
        save_features(dataset, expected / path.name)
        assert (out / path.name).read_bytes() == (expected / path.name).read_bytes()
        windows.append(len(dataset))
    assert len(set(windows)) == 3  # the lengths differ
    assert caplog.messages == [
        f"preprocessed {path.stem}: {n} windows" for path, n in zip(paths, windows)
    ]


def test_preprocess_reports_first_failing_recording(recordings_dir, tmp_path, capsys):
    # userAB fails in load_recording and userBB in the empty-dataset check;
    # userAB comes first in sorted order, so its error is the one reported
    lines = ["timestamp,acc_x,acc_y,acc_z,gyro_x,gyro_y,gyro_z,label"]
    tied = lines + [f"{i / 30},1,2,2,0.1,0.2,0.2,{i % 2}" for i in range(180)]
    (recordings_dir / "userBB.csv").write_text("\n".join(tied))
    bad = lines + [f"{i / 30},1,2,2,0.1,0.2,0.2,0" for i in range(180)] + ["nan,1,2,2,0.1,0.2,0.2,0"]
    (recordings_dir / "userAB.csv").write_text("\n".join(bad))
    out = tmp_path / "feats"
    assert main(["preprocess", "--input", str(recordings_dir), "--rate", "30",
                 "--out", str(out)]) == 1
    assert multiprocessing.active_children() == []
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {
        "error": "InvalidSampleError", "message": "invalid sample: non-finite timestamp in userAB.csv",
    }
    assert not (out / "userAB.csv").exists() and not (out / "userBB.csv").exists()


def test_preprocess_refuses_windows_labelled_minus_one(recording_dir, tmp_path, capsys):
    # -1 marks an unlabelled window in a feature file, so it cannot be written as an activity
    lines = ["timestamp,acc_x,acc_y,acc_z,gyro_x,gyro_y,gyro_z,label"]
    lines += [f"{i / 30},1,2,2,0.1,0.2,0.2,-1" for i in range(180)]
    (recording_dir / "userU.csv").write_text("\n".join(lines))
    out = tmp_path / "feats"
    assert main(["preprocess", "--input", str(recording_dir), "--rate", "30",
                 "--out", str(out)]) == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "InvalidSampleError"
    assert "label -1" in payload["message"] and "userU.csv" in payload["message"]
    assert not (out / "userU.csv").exists()


def test_adapt_loads_no_process_pool(tmp_path):
    # only `trot preprocess` needs a pool, and nothing needs `numpy.ma`, which
    # `np.unique` imports unless asked for inverse or counts; importing either
    # costs every other command's start-up
    script = f"""
import sys
from trot.cli import main
data = {str(tmp_path / "synth")!r}
assert main(["synth", "--classes", "2", "--states", "2", "--windows", "24", "--dim", "2",
             "--noise", "0.1", "--seed", "3", "--out", data]) == 0
assert main(["adapt", "--source", data + "/user0.csv", "--target", data + "/user1.csv",
             "--method", "trot", "--states", "2", "--lambda", "1", "--eta", "0.1", "--tau", "1"]) == 0
print(sorted(m for m in ("multiprocessing", "concurrent.futures", "numpy.ma") if m in sys.modules))
"""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def _adapt_grid_for(*flags):
    argv = ["adapt", "--source", "s.csv", "--target", "t.csv", *flags]
    return _adapt_grid(build_parser().parse_args(argv))


def test_default_trot_grid_follows_states_and_order_mode():
    default = _adapt_grid_for()
    assert default == tuple(h for h in default_grid("trot") if h.n_states == 4)
    # the same 36 (lambda, eta, tau) points, at the asked chain length and order mode
    grid = _adapt_grid_for("--states", "3", "--order-mode", "matched")
    assert grid == tuple(replace(h, n_states=3, order_mode="matched") for h in default)


def test_given_weights_pin_one_setting_on_the_other_defaults():
    assert _adapt_grid_for("--eta", "0.5") == (TrotHyperparams(group_weight=0.5, n_states=4),)
    assert _adapt_grid_for("--lambda", "1", "--states", "2") == (
        TrotHyperparams(entropy_weight=1.0, n_states=2),
    )
    assert _adapt_grid_for("--method", "ot", "--lambda", "1") == (TrotHyperparams(entropy_weight=1.0),)


@pytest.mark.parametrize("method", ["na", "td", "ot", "otda", "coral"])
def test_other_methods_keep_their_grids(method):
    assert _adapt_grid_for("--method", method) == default_grid(method)


def test_synth_adapt_matrix_roundtrip(tmp_path, capsys):
    data = tmp_path / "synth"
    assert main(["synth", "--classes", "2", "--states", "2", "--windows", "24",
                 "--dim", "2", "--noise", "0.1", "--users", "3",
                 "--seed", "3", "--out", str(data)]) == 0
    assert sorted(p.name for p in data.glob("*.csv")) == ["user0.csv", "user1.csv", "user2.csv"]

    report_path = tmp_path / "report.json"
    assert main(["adapt", "--source", str(data / "user0.csv"),
                 "--target", str(data / "user1.csv"), "--method", "trot",
                 "--states", "2", "--lambda", "0.01", "--tau", "10",
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["status"] == "ok"
    assert report["test_accuracy"] == 1.0
    assert "timing_seconds" in report

    matrix_path = tmp_path / "matrix.json"
    assert main(["matrix", "--data", str(data), "--methods", "na,td",
                 "--out", str(matrix_path)]) == 0
    table = capsys.readouterr().out
    assert "na" in table and "user0->user1" in table
    matrix = json.loads(matrix_path.read_text())
    assert len(matrix["tasks"]) == 12
    assert all("timing_seconds" not in task for task in matrix["tasks"])


def test_error_exit_emits_json(tmp_path, capsys):
    code = main(["adapt", "--source", str(tmp_path / "missing.csv"),
                 "--target", str(tmp_path / "also_missing.csv")])
    assert code == 1
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert set(payload) == {"error", "message"}


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--method", "ot", "--eta", "1"], "ot does not take group_weight != 0.0"),  # once ran plain OT
        (["--method", "otda", "--tau", "1"], "otda does not take order_weight != 0.0"),  # once died in GCG
        (["--states", "0", "--lambda", "0.1"], "n_states must be >= 1"),  # once an IndexError
        # once ran with eta = 0 and wrote "group_weight": NaN
        (["--method", "otda", "--lambda", "0.1", "--eta", "nan"],
         "regularizer weights must be finite and >= 0"),
        (["--lambda", "inf"], "entropy_weight must be finite and > 0"),  # once only warned
        (["--method", "na", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
        # each once exited 0 and ran the method as if the flag were not there
        (["--method", "na", "--lambda", "0.1"], "na takes no hyperparameters: its grid entries must be None"),
        (["--method", "td", "--eta", "1"], "td takes no hyperparameters: its grid entries must be None"),
        (["--method", "coral", "--tau", "1"], "coral takes no hyperparameters: its grid entries must be None"),
        # each once exited 0 with the flag ignored, otda's report saying n_states 4
        (["--method", "otda", "--states", "7"], "--states applies to trot only, not otda"),
        (["--method", "otda", "--order-mode", "matched"], "--order-mode applies to trot only, not otda"),
        (["--method", "ot", "--states", "2"], "--states applies to trot only, not ot"),
        (["--method", "na", "--order-mode", "mismatched"], "--order-mode applies to trot only, not na"),
        (["--method", "td", "--states", "4"], "--states applies to trot only, not td"),
        (["--method", "coral", "--order-mode", "matched"], "--order-mode applies to trot only, not coral"),
    ],
)
def test_adapt_rejects_unusable_setting(tmp_path, capsys, flags, message):
    data = tmp_path / "synth"
    assert main(["synth", "--classes", "2", "--states", "2", "--windows", "12", "--dim", "2",
                 "--out", str(data)]) == 0
    report = tmp_path / "report.json"
    assert main(["adapt", "--source", str(data / "user0.csv"), "--target", str(data / "user1.csv"),
                 *flags, "--report", str(report)]) == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "ValueError", "message": message}
    assert not report.exists()


def test_adapt_writes_the_report_of_a_failed_task(tmp_path, capsys):
    # a 2- versus 3-feature pair once raised ScalerMismatchError before any report was written
    data = tmp_path / "synth"
    assert main(["synth", "--classes", "2", "--states", "2", "--windows", "12", "--dim", "2",
                 "--out", str(data)]) == 0
    wide = load_features(data / "user1.csv")
    save_features(replace(wide, features=np.hstack([wide.features, wide.features[:, :1]])),
                  data / "wide.csv")
    report = tmp_path / "r.json"
    assert main(["adapt", "--source", str(data / "user0.csv"), "--target", str(data / "wide.csv"),
                 "--method", "na", "--report", str(report)]) == 1
    message = "scaler mismatch: (2,) vs 3 features"
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "TrotError", "message": message}
    written = json.loads(report.read_text())
    assert (written["status"], written["error"]) == ("failed", message)


def test_synth_defaults_are_synthspec_defaults(tmp_path):
    defaults, given = tmp_path / "defaults", tmp_path / "given"
    assert main(["synth", "--out", str(defaults)]) == 0
    assert main(["synth", "--classes", "4", "--states", "4", "--windows", "200", "--dim", "8",
                 "--class-sep", "4.0", "--state-sep", "4.0", "--noise", "0.25",
                 "--shift-scale", "1.0", "--users", "2", "--seed", "7", "--out", str(given)]) == 0
    names = sorted(p.name for p in defaults.iterdir())
    assert names == ["user0.csv", "user1.csv"] == sorted(p.name for p in given.iterdir())
    assert all((defaults / n).read_bytes() == (given / n).read_bytes() for n in names)


@pytest.mark.parametrize("users", ["0", "-2"])
def test_synth_rejects_user_count_below_one(tmp_path, capsys, users):
    # once exited 0 having written nothing
    data = tmp_path / "synth"
    assert main(["synth", "--users", users, "--out", str(data)]) == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "ValueError", "message": f"--users must be >= 1, got {users}"}
    assert not data.exists()


def test_matrix_rejects_unknown_method(tmp_path, capsys):
    assert main(["matrix", "--data", str(tmp_path), "--methods", "magic",
                 "--out", str(tmp_path / "m.json")]) == 1
    assert "magic" in capsys.readouterr().err


def test_matrix_rejects_repeated_method(tmp_path, capsys):
    # na,NA,coral once ran na twice: 6 tasks, with one na row in the table
    data, out = tmp_path / "synth", tmp_path / "m.json"
    assert main(["synth", "--classes", "2", "--states", "2", "--windows", "12", "--dim", "2",
                 "--out", str(data)]) == 0
    assert main(["matrix", "--data", str(data), "--methods", "na,NA,coral", "--out", str(out)]) == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "TrotError", "message": "repeated methods: na"}
    assert not out.exists()


@pytest.mark.parametrize("methods", [",", " , ", ""])
def test_matrix_rejects_empty_method_list(tmp_path, capsys, methods):
    # an empty list once wrote a report with no tasks, then crashed in render_table
    out = tmp_path / "m.json"
    assert main(["matrix", "--data", str(tmp_path), "--methods", methods, "--out", str(out)]) == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "TrotError" and "no methods" in payload["message"]
    assert not out.exists()
