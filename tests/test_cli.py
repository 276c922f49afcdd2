import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from trot.cli import _adapt_grid, build_parser, main
from trot.harness import default_grid
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


def test_preprocess_recording_without_kept_windows(tmp_path):
    # one 3 s window whose labels alternate is a tie and is dropped
    raw = tmp_path / "raw"
    raw.mkdir()
    lines = ["timestamp,acc_x,acc_y,acc_z,gyro_x,gyro_y,gyro_z,label"]
    lines += [f"{i / 30},1,2,2,0.1,0.2,0.2,{i % 2}" for i in range(90)]
    (raw / "userB.csv").write_text("\n".join(lines))
    out = tmp_path / "feats"
    assert main(["preprocess", "--input", str(raw), "--rate", "30", "--out", str(out)]) == 0
    header, *rows = (out / "userB.csv").read_text().splitlines()
    assert header.split(",")[-1] == "f37"
    assert rows == []


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


def test_matrix_rejects_unknown_method(tmp_path, capsys):
    assert main(["matrix", "--data", str(tmp_path), "--methods", "magic",
                 "--out", str(tmp_path / "m.json")]) == 1
    assert "magic" in capsys.readouterr().err


@pytest.mark.parametrize("methods", [",", " , ", ""])
def test_matrix_rejects_empty_method_list(tmp_path, capsys, methods):
    # an empty list once wrote a report with no tasks, then crashed in render_table
    out = tmp_path / "m.json"
    assert main(["matrix", "--data", str(tmp_path), "--methods", methods, "--out", str(out)]) == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "TrotError" and "no methods" in payload["message"]
    assert not out.exists()
