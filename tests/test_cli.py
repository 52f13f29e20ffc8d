import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from gftnn.cli import main
from gftnn.metrics import evaluate, write_histogram_csv, write_report_json
from gftnn.model import load_checkpoint, predict, predict_batch, truth_trajectory
from gftnn.scenario import load_archive
from helpers import (three_class_tracks, write_tracks_csv, write_v1_archive,
                     write_v1_checkpoint)


def run_ok(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


def run_fail(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    return err


def synth_archive(tmp_path, name="data", n=12, fps=10, extra=()):
    out = tmp_path / name
    argv = ["synth", "--n", str(n), "--fps", str(fps), "--out", str(out),
            "--seed", "0"] + list(extra)
    assert main(argv) == 0
    return out / "archive.json"


# ---------------------------------------------------------------- synth, prep

def test_synth_writes_deterministic_archive(tmp_path, capsys):
    out = run_ok(capsys, ["synth", "--n", "30", "--fps", "10",
                          "--out", str(tmp_path / "a"), "--seed", "2"])
    assert "generated 30 scenarios" in out
    assert "keep_lane=10, lane_change_left=10, lane_change_right=10" in out
    run_ok(capsys, ["synth", "--n", "30", "--fps", "10",
                    "--out", str(tmp_path / "b"), "--seed", "2"])
    a = (tmp_path / "a" / "archive.json").read_bytes()
    b = (tmp_path / "b" / "archive.json").read_bytes()
    assert a == b
    scenarios, fps = load_archive(tmp_path / "a" / "archive.json")
    assert fps == 10.0
    assert scenarios[0].t_obs == 30
    assert scenarios[0].t_pred == 50


def test_synth_requires_n(tmp_path, capsys):
    err = run_fail(capsys, ["synth", "--fps", "10", "--out", str(tmp_path)])
    assert "--n" in err


def test_prep_schemas_agree(tmp_path, capsys):
    tracks = three_class_tracks(fps=5)
    write_tracks_csv(tmp_path / "n.csv", tracks, schema="normalized")
    write_tracks_csv(tmp_path / "h.csv", tracks, schema="highd_like")
    out = run_ok(capsys, ["prep", "--input", str(tmp_path / "n.csv"),
                          "--fps", "5", "--out", str(tmp_path / "n"),
                          "--seed", "0"])
    assert out.startswith(f"read 120 rows of 3 vehicles from {tmp_path / 'n.csv'}\n"
                          "extracted 3 scenarios")
    assert "kept 3 after balancing" in out
    out = run_ok(capsys, ["prep", "--input", str(tmp_path / "h.csv"),
                          "--schema", "highd_like", "--fps", "5",
                          "--out", str(tmp_path / "h"), "--seed", "0"])
    assert out.startswith(f"read 120 rows of 3 vehicles from {tmp_path / 'h.csv'}\n")
    assert (tmp_path / "n" / "archive.json").read_bytes() == \
        (tmp_path / "h" / "archive.json").read_bytes()


def test_prep_reports_schema_problem(tmp_path, capsys):
    (tmp_path / "bad.csv").write_text(
        "frame,vehicle_id,x,y,vx,vy\n0,1,0.0,0.0,1.0,0.0\n")
    err = run_fail(capsys, ["prep", "--input", str(tmp_path / "bad.csv"),
                            "--fps", "5", "--out", str(tmp_path)])
    assert "lane_id" in err


def test_prep_reports_short_row_on_one_line(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("frame,vehicle_id,x,y,vx,vy,lane_id\n0,1,0.0,0.0,1.0,0.0,2\n\n1,1\n")
    err = run_fail(capsys, ["prep", "--input", str(path), "--fps", "5",
                            "--out", str(tmp_path)])
    assert err == f"error: {path}: row 4 has 2 columns, the header has 7\n"


# ------------------------------------------------------------------- spectrum

def test_spectrum_writes_tables(tmp_path, capsys):
    archive = synth_archive(tmp_path, n=3)
    out_dir = tmp_path / "spec"
    out = run_ok(capsys, ["spectrum", "--archive", str(archive),
                          "--out", str(out_dir)])
    assert "parseval drift" in out
    with open(out_dir / "eigenvalues.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["axis", "index", "eigenvalue"]
    assert len(rows) == 1 + 30 + 9
    with open(out_dir / "coefficients.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "l1", "l2", "value"]
    assert len(rows) == 1 + 4 * 30 * 9


def test_spectrum_reconstruction(tmp_path, capsys):
    archive = synth_archive(tmp_path, n=3)
    out_dir = tmp_path / "spec"
    out = run_ok(capsys, ["spectrum", "--archive", str(archive),
                          "--p", "30", "--out", str(out_dir)])
    assert "max reconstruction error" in out
    with open(out_dir / "reconstruction.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 4 * 30 * 9
    assert all(np.isfinite(float(r[3])) for r in rows[1:])
    # keeping every temporal mode reproduces the input
    assert "error 0.000000" in out


def test_spectrum_unknown_scenario(tmp_path, capsys):
    archive = synth_archive(tmp_path, n=3)
    err = run_fail(capsys, ["spectrum", "--archive", str(archive),
                            "--scenario-id", "nope", "--out", str(tmp_path)])
    assert "not found" in err


# ---------------------------------------------------------------------- train

def test_train_writes_checkpoint_and_log(tmp_path, capsys):
    archive = synth_archive(tmp_path)
    run = tmp_path / "run"
    out = run_ok(capsys, [
        "train", "--archive", str(archive), "--preset", "gftnn-rdcby15",
        "--hidden", "8", "--epochs", "2", "--batch-size", "4",
        "--out", str(run), "--seed", "0"])
    assert "preset=gftnn-rdcby15" in out
    assert "epoch 2:" in out
    ckpt = load_checkpoint(run / "checkpoint.json")
    assert ckpt.config.p == 2
    assert ckpt.config.hidden == 8
    assert ckpt.epochs_trained == 2
    lines = (run / "training_log.csv").read_text().strip().splitlines()
    assert len(lines) == 3


def test_train_resume_roundtrip(tmp_path, capsys):
    archive = synth_archive(tmp_path)
    run = tmp_path / "run"
    args = ["train", "--archive", str(archive), "--preset", "gftnn-rdcby15",
            "--hidden", "8", "--epochs", "2", "--batch-size", "4",
            "--out", str(run), "--seed", "0"]
    run_ok(capsys, args)
    out = run_ok(capsys, args + ["--resume", str(run / "checkpoint.json")])
    assert "epoch 4:" in out
    assert load_checkpoint(run / "checkpoint.json").epochs_trained == 4
    lines = (run / "training_log.csv").read_text().strip().splitlines()
    assert len(lines) == 5


def test_train_resume_mismatch(tmp_path, capsys):
    archive = synth_archive(tmp_path)
    run = tmp_path / "run"
    base = ["train", "--archive", str(archive), "--preset", "gftnn-rdcby15",
            "--epochs", "1", "--batch-size", "4", "--out", str(run),
            "--seed", "0"]
    run_ok(capsys, base + ["--hidden", "8"])
    err = run_fail(capsys, base + ["--hidden", "6",
                                   "--resume", str(run / "checkpoint.json")])
    assert "does not match" in err


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_train_rejects_non_finite_learning_rate(tmp_path, capsys, lr):
    archive = synth_archive(tmp_path)
    err = run_fail(capsys, ["train", "--archive", str(archive), "--lr", lr,
                            "--epochs", "1", "--out", str(tmp_path / "run")])
    assert err == f"error: learning rate must be finite and >= 0, got {lr}\n"
    assert not (tmp_path / "run").exists()


def test_train_named_preset_rejects_overrides(tmp_path, capsys):
    archive = synth_archive(tmp_path)
    base = ["train", "--archive", str(archive), "--out", str(tmp_path)]
    err = run_fail(capsys, base + ["--preset", "gftnn", "--p", "5"])
    assert "already fixes" in err and "p" in err
    err = run_fail(capsys, base + ["--preset", "gftnn-w", "--weighted"])
    assert "weighted" in err


def test_train_custom_preset(tmp_path, capsys):
    archive = synth_archive(tmp_path)
    run = tmp_path / "run"
    run_ok(capsys, ["train", "--archive", str(archive), "--preset", "custom",
                    "--p", "3", "--k", "2", "--hidden", "6", "--epochs", "1",
                    "--batch-size", "4", "--out", str(run), "--seed", "0"])
    cfg = load_checkpoint(run / "checkpoint.json").config
    assert (cfg.p, cfg.k, cfg.hidden) == (3, 2, 6)


def test_train_window_mismatch(tmp_path, capsys):
    archive = synth_archive(tmp_path, extra=["--t-obs", "2.0"])
    err = run_fail(capsys, ["train", "--archive", str(archive),
                            "--preset", "gftnn", "--out", str(tmp_path)])
    assert "windows" in err


# ----------------------------------------------------------------------- eval

def trained_checkpoint(tmp_path, capsys):
    archive = synth_archive(tmp_path)
    run = tmp_path / "run"
    run_ok(capsys, ["train", "--archive", str(archive),
                    "--preset", "gftnn-rdcby15", "--hidden", "8",
                    "--epochs", "1", "--batch-size", "4",
                    "--out", str(run), "--seed", "0"])
    return archive, run / "checkpoint.json"


def test_eval_writes_report(tmp_path, capsys):
    archive, ckpt = trained_checkpoint(tmp_path, capsys)
    out_dir = tmp_path / "eval"
    out = run_ok(capsys, ["eval", "--archive", str(archive),
                          "--checkpoint", str(ckpt), "--out", str(out_dir)])
    assert "n=12" in out
    report = json.loads((out_dir / "eval_report.json").read_text())
    assert report["n_scenarios"] == 12
    assert len(report["per_scenario_ade"]) == 12
    assert report["ade"] >= 0.0
    with open(out_dir / "histogram.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["bin_left", "bin_right", "count"]
    counts = [int(r[2]) for r in rows[1:]]
    assert sum(counts) == 12
    widths = {round(float(r[1]) - float(r[0]), 12) for r in rows[1:]}
    assert widths == {0.1}


def test_eval_self_test_scores_zero(tmp_path, capsys):
    archive, ckpt = trained_checkpoint(tmp_path, capsys)
    out = run_ok(capsys, ["eval", "--archive", str(archive),
                          "--checkpoint", str(ckpt), "--self-test",
                          "--out", str(tmp_path / "eval")])
    assert "ade=0.0000" in out
    report = json.loads((tmp_path / "eval" / "eval_report.json").read_text())
    assert report["ade"] == 0.0
    assert report["fde"] == 0.0


def test_eval_subset_uses_the_split(tmp_path, capsys):
    archive, ckpt = trained_checkpoint(tmp_path, capsys)
    out = run_ok(capsys, ["eval", "--archive", str(archive),
                          "--checkpoint", str(ckpt), "--subset", "test",
                          "--seed", "0", "--out", str(tmp_path / "eval")])
    assert "n=4" in out


def test_eval_weighted_matches_batched_predict(tmp_path, capsys):
    archive = synth_archive(tmp_path)
    run = tmp_path / "run"
    run_ok(capsys, ["train", "--archive", str(archive), "--preset", "gftnn-w",
                    "--hidden", "8", "--epochs", "1", "--batch-size", "4",
                    "--out", str(run), "--seed", "0"])
    run_ok(capsys, ["eval", "--archive", str(archive),
                    "--checkpoint", str(run / "checkpoint.json"),
                    "--out", str(tmp_path / "eval")])
    # oracle: one predict_batch call over the whole archive
    scenarios, _ = load_archive(archive)
    ckpt = load_checkpoint(run / "checkpoint.json")
    batched = predict_batch(scenarios, ckpt.basis, ckpt.params, ckpt.config)
    report = evaluate(batched, [truth_trajectory(s) for s in scenarios], 0.1)
    oracle = tmp_path / "oracle"
    oracle.mkdir()
    write_report_json(report, oracle / "eval_report.json")
    write_histogram_csv(report, oracle / "histogram.csv")
    for name in ("eval_report.json", "histogram.csv"):
        assert (tmp_path / "eval" / name).read_bytes() == (oracle / name).read_bytes()
    # a batch of one may round differently from a row of a larger batch
    for scenario, row in zip(scenarios, batched):
        single = predict(scenario, ckpt.basis, ckpt.params, ckpt.config)
        assert np.max(np.abs(single.x - row.x)) <= 1e-12
        assert np.max(np.abs(single.y - row.y)) <= 1e-12


def test_eval_and_predict_identical_from_version_1_checkpoint(tmp_path, capsys):
    archive, ckpt_v2 = trained_checkpoint(tmp_path, capsys)
    ckpt = load_checkpoint(ckpt_v2)
    ckpt_v1 = tmp_path / "checkpoint_v1.json"
    write_v1_checkpoint(ckpt_v1, ckpt.config, ckpt.basis, ckpt.params,
                        ckpt.epochs_trained, ckpt.optimizer)
    for tag, path in (("v1", ckpt_v1), ("v2", ckpt_v2)):
        run_ok(capsys, ["eval", "--archive", str(archive), "--checkpoint", str(path),
                        "--out", str(tmp_path / tag)])
        run_ok(capsys, ["predict", "--archive", str(archive),
                        "--checkpoint", str(path), "--scenario-id", "synth-00005",
                        "--out", str(tmp_path / tag)])
    for name in ("eval_report.json", "histogram.csv", "trajectory_synth-00005.csv"):
        assert (tmp_path / "v1" / name).read_bytes() == \
            (tmp_path / "v2" / name).read_bytes(), name


def test_train_eval_predict_identical_from_version_1_archive(tmp_path, capsys):
    archive_v2 = synth_archive(tmp_path)
    scenarios, fps = load_archive(archive_v2)
    archive_v1 = tmp_path / "archive_v1.json"
    write_v1_archive(archive_v1, scenarios, fps)
    for tag, archive in (("v1", archive_v1), ("v2", archive_v2)):
        out = str(tmp_path / tag)
        run_ok(capsys, ["train", "--archive", str(archive), "--preset", "gftnn-w",
                        "--hidden", "8", "--epochs", "2", "--batch-size", "4",
                        "--out", out, "--seed", "0"])
        ckpt = str(tmp_path / tag / "checkpoint.json")
        run_ok(capsys, ["eval", "--archive", str(archive), "--checkpoint", ckpt,
                        "--out", out])
        run_ok(capsys, ["predict", "--archive", str(archive), "--checkpoint", ckpt,
                        "--scenario-id", "synth-00005", "--out", out])
    for name in ("training_log.csv", "checkpoint.json", "eval_report.json",
                 "histogram.csv", "trajectory_synth-00005.csv"):
        assert (tmp_path / "v1" / name).read_bytes() == \
            (tmp_path / "v2" / name).read_bytes(), name


@pytest.mark.parametrize("document, edit", [
    ("archive", lambda text: text[:len(text) // 2]),
    ("checkpoint", lambda text: text.replace('"t_obs": 30', '"t_obs": "30"')),
])
def test_eval_reports_corrupt_document_on_one_line(tmp_path, capsys, document, edit):
    archive, ckpt = trained_checkpoint(tmp_path, capsys)
    path = {"archive": archive, "checkpoint": ckpt}[document]
    path.write_text(edit(path.read_text()))
    err = run_fail(capsys, ["eval", "--archive", str(archive), "--checkpoint", str(ckpt),
                            "--out", str(tmp_path / "eval")])
    assert err.startswith(f"error: {path}: {document} ")
    assert err.count("\n") == 1


def test_internal_errors_keep_their_traceback(tmp_path, monkeypatch):
    # Only bad input and failed runs become one "error:" line.
    def broken(path):
        raise KeyError("internal")
    monkeypatch.setattr("gftnn.cli.load_archive", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["eval", "--archive", str(tmp_path / "a.json"),
              "--checkpoint", str(tmp_path / "c.json"), "--out", str(tmp_path)])


def test_eval_rejects_rate_mismatch(tmp_path, capsys):
    _, ckpt = trained_checkpoint(tmp_path, capsys)
    other = synth_archive(tmp_path, name="fast", n=6, fps=25)
    err = run_fail(capsys, ["eval", "--archive", str(other),
                            "--checkpoint", str(ckpt),
                            "--out", str(tmp_path / "eval")])
    assert "fps" in err


# -------------------------------------------------------------------- predict

def test_predict_writes_trajectory(tmp_path, capsys):
    archive, ckpt = trained_checkpoint(tmp_path, capsys)
    out_dir = tmp_path / "pred"
    out = run_ok(capsys, ["predict", "--archive", str(archive),
                          "--checkpoint", str(ckpt),
                          "--scenario-id", "synth-00003",
                          "--out", str(out_dir)])
    assert "trajectory_synth-00003.csv" in out
    with open(out_dir / "trajectory_synth-00003.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "t", "x", "y"]
    assert len(rows) == 1 + 51
    # step 0 is the anchored origin (y can print as -0.0 for negative latents)
    assert rows[1][:2] == ["0", "0.0"]
    assert float(rows[1][2]) == 0.0 and float(rows[1][3]) == 0.0
    assert float(rows[2][2]) > 0.0  # the car moves forward


def test_predict_unknown_scenario(tmp_path, capsys):
    archive, ckpt = trained_checkpoint(tmp_path, capsys)
    err = run_fail(capsys, ["predict", "--archive", str(archive),
                            "--checkpoint", str(ckpt),
                            "--scenario-id", "nope", "--out", str(tmp_path)])
    assert "not found" in err


# ------------------------------------------------------------- config plumbing

def test_config_file_equivalent_to_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"n": 6, "fps": 10, "noise_std": 0.0, "seed": 3,
         "out": str(tmp_path / "a")}))
    run_ok(capsys, ["synth", "--config", str(cfg)])
    run_ok(capsys, ["synth", "--n", "6", "--fps", "10", "--noise-std", "0.0",
                    "--seed", "3", "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "archive.json").read_bytes() == \
        (tmp_path / "b" / "archive.json").read_bytes()


def test_cli_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 6, "fps": 10}))
    run_ok(capsys, ["synth", "--config", str(cfg), "--n", "9",
                    "--out", str(tmp_path / "a"), "--seed", "0"])
    scenarios, _ = load_archive(tmp_path / "a" / "archive.json")
    assert len(scenarios) == 9


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 6, "fps": 10, "frobnicate": 1}))
    err = run_fail(capsys, ["synth", "--config", str(cfg),
                            "--out", str(tmp_path)])
    assert "unknown config keys: frobnicate" in err


@pytest.mark.parametrize("command, config, message", [
    ("synth", {"n": "6", "fps": 10}, "n is a string, expected an integer"),
    ("synth", {"n": 6, "fps": 10, "seed": 1.5}, "seed is a number, expected an integer"),
    ("prep", {"input": "tracks.csv", "fps": "25"}, "fps is a string, expected a number"),
    ("eval", {"archive": "a.json", "checkpoint": "c.json", "self_test": 1},
     "self_test is an integer, expected a boolean"),
])
def test_config_file_values_have_their_option_type(tmp_path, capsys, command,
                                                   config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    err = run_fail(capsys, [command, "--config", str(cfg), "--out", str(tmp_path)])
    assert err == f"error: {cfg}: config file {message}\n"


def test_config_file_integer_reads_as_float(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 6, "fps": 10, "noise_std": 0, "seed": 3}))
    run_ok(capsys, ["synth", "--config", str(cfg), "--out", str(tmp_path / "a")])
    run_ok(capsys, ["synth", "--n", "6", "--fps", "10", "--noise-std", "0.0",
                    "--seed", "3", "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "archive.json").read_bytes() == \
        (tmp_path / "b" / "archive.json").read_bytes()


def test_config_file_must_be_json(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("not json at all {")
    err = run_fail(capsys, ["synth", "--config", str(cfg), "--n", "3",
                            "--fps", "10", "--out", str(tmp_path)])
    assert "JSON" in err


def test_unknown_preset_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--archive", "x.json", "--preset", "mlp"])
    assert exc.value.code == 2


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "gftnn.cli", "synth", "--n", "3", "--fps", "10",
         "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "archive.json").exists()
