import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from trot.cli import _adapt_grid, build_parser, main
from trot.harness import default_grid
from trot.ot_core import TrotHyperparams
from trot.preprocess import load_features


@pytest.fixture
def recording_dir(tmp_path):
    raw = tmp_path / "raw"
    raw.mkdir()
    rng = np.random.default_rng(0)
    n = 600  # 20 s at 30 Hz, two activities
    with open(raw / "userA.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "acc_x", "acc_y", "acc_z",
                         "gyro_x", "gyro_y", "gyro_z", "label"])
        for i in range(n):
            label = 0 if i < n // 2 else 1
            scale = 1.0 if label == 0 else 3.0
            row = scale * np.ones(6) + rng.normal(0, 0.1, 6)
            writer.writerow([i / 30.0, *np.round(row, 5), label])
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
    assert _adapt_grid_for("--method", "ot", "--lambda", "1", "--states", "2") == (
        TrotHyperparams(entropy_weight=1.0, n_states=2),
    )


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
        (["--method", "ot", "--eta", "1"], "ot does not take group_weight > 0"),  # once ran plain OT
        (["--method", "otda", "--tau", "1"], "otda does not take order_weight > 0"),  # once died in GCG
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
