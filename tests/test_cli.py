import argparse
import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gftnn
from gftnn import cli, model, store
from gftnn.cli import main
from gftnn.metrics import (BIN_WIDTH, HISTOGRAM_MAX_BINS, evaluate,
                           write_histogram_csv, write_report_json)
from gftnn.model import (GRAPH_KINDS, ModelConfig, build_basis, init_params,
                         load_checkpoint, predict, predict_batch, preset_config,
                         save_checkpoint, score)
from gftnn.scenario import (MAX_VEHICLE_SLOTS, MAX_WINDOW_STEPS, TrackBatch,
                            extract_scenarios, load_archive, open_archive, save_archive,
                            split, split_indices, synthesize)
from gftnn.store import write_document
from gftnn.training import TrainConfig
from helpers import multilane_scene, poked, three_class_tracks, write_tracks_csv


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


@pytest.mark.parametrize("seed, fps", [(0, 10), (1, 25)])
def test_prep_of_a_mirrored_recording_mirrors_the_archive(tmp_path, capsys, seed, fps):
    # y grows to the left, so a recording mirrored across its centre line
    # (y and vy negated, the lane order reversed) swaps left and right
    # lane changes and negates every lateral channel, and nothing else.
    tracks = multilane_scene(seed, fps, n_tracks=200)
    x, y, vx, vy = tracks.motion
    mirrored = TrackBatch(tracks.vehicle_ids, tracks.offsets, tracks.frame,
                          5 - tracks.lane_id, (x, -y, vx, -vy))
    out = {}
    for name, recording in (("plain", tracks), ("mirrored", mirrored)):
        write_tracks_csv(tmp_path / f"{name}.csv", recording)
        out[name] = run_ok(capsys, ["prep", "--input", str(tmp_path / f"{name}.csv"),
                                    "--fps", str(fps), "--out", str(tmp_path / name),
                                    "--seed", "0"]).splitlines()
    # The extracted and the kept counts, keep, left and right.
    counts = {name: [re.findall(r"=(\d+)", line) for line in lines[1:3]]
              for name, lines in out.items()}
    assert counts["mirrored"] == [[keep, right, left] for keep, left, right in counts["plain"]]
    (plain, _), (mirror, _) = (load_archive(tmp_path / name / "archive.json")
                               for name in ("plain", "mirrored"))
    assert len(plain) >= 12 and mirror.ids == plain.ids
    assert mirror.codes.tolist() == np.array([0, 2, 1])[plain.codes].tolist()
    assert mirror.v0.tobytes() == plain.v0.tobytes()
    assert np.array_equal(mirror.features, plain.features * [[[1]], [[-1]], [[1]], [[-1]]])
    assert np.array_equal(mirror.futures, plain.futures * [1, -1])


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


@pytest.mark.parametrize("argv, message", [
    (["synth", "--n", "3", "--fps", "inf"], "fps must be positive and finite, got inf"),
    (["synth", "--n", "3", "--fps", "nan"], "fps must be positive and finite, got nan"),
    (["synth", "--n", "3", "--fps", "1e308"],
     "t_obs must give a finite number of steps, got 3.0 s at fps=1e+308"),
    (["synth", "--n", "3", "--fps", "10", "--t-obs", "inf"],
     "t_obs must give a finite number of steps, got inf s at fps=10.0"),
    (["synth", "--n", "3", "--fps=-inf"], "fps must be positive and finite, got -inf"),
    (["synth", "--n", "3", "--fps", "0"], "fps must be positive and finite, got 0.0"),
    (["synth", "--n", "3", "--fps", "10", "--t-obs=-inf"],
     "t_obs must give a finite number of steps, got -inf s at fps=10.0"),
    (["synth", "--n", "3", "--fps", "10", "--t-pred", "nan"],
     "t_pred must give a finite number of steps, got nan s at fps=10.0"),
    (["synth", "--n", "3", "--fps", "10", "--noise-std", "nan"],
     "noise_std must be finite and non-negative, got nan"),
    (["synth", "--n", "3", "--fps", "10", "--noise-std", "inf"],
     "noise_std must be finite and non-negative, got inf"),
    (["synth", "--n", "3", "--fps", "10", "--noise-std=-inf"],
     "noise_std must be finite and non-negative, got -inf"),
    (["prep", "--fps", "inf"], "fps must be positive and finite, got inf"),
    (["prep", "--fps", "nan"], "fps must be positive and finite, got nan"),
    (["prep", "--fps=-inf"], "fps must be positive and finite, got -inf"),
    (["prep", "--fps", "5", "--t-obs", "nan"],
     "t_obs must give a finite number of steps, got nan s at fps=5.0"),
    (["prep", "--fps", "1e308"],
     "t_obs must give a finite number of steps, got 3.0 s at fps=1e+308"),
    (["prep", "--fps", "5", "--t-pred", "inf"],
     "t_pred must give a finite number of steps, got inf s at fps=5.0"),
])
def test_non_finite_options_fail_on_one_line(tmp_path, capsys, argv, message):
    # Each ends in one error line naming the value, with no archive written.
    if argv[0] == "prep":
        write_tracks_csv(tmp_path / "tracks.csv", three_class_tracks(fps=5))
        argv = argv + ["--input", str(tmp_path / "tracks.csv")]
    err = run_fail(capsys, argv + ["--out", str(tmp_path / "out")])
    assert err == f"error: {message}\n"
    assert not (tmp_path / "out" / "archive.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["synth", "--n", "3", "--fps", "10", "--t-obs", "1e9"],
     f"t_obs of 1000000000.0 s at fps=10.0 gives more than {MAX_WINDOW_STEPS} steps"),
    (["prep", "--fps", "5", "--t-pred", "1e9"],
     f"t_pred of 1000000000.0 s at fps=5.0 gives more than {MAX_WINDOW_STEPS} steps"),
    (["synth", "--n", "3", "--fps", "10", "--n-vehicles", "100000000"],
     f"need 2 to {MAX_VEHICLE_SLOTS} vehicle slots, got 100000000"),
    (["prep", "--fps", "5", "--n-vehicles", "100000000"],
     f"need 2 to {MAX_VEHICLE_SLOTS} vehicle slots, got 100000000"),
])
def test_windows_past_the_step_bound_fail_on_one_line(tmp_path, capsys, argv, message):
    # Refused before any frame is allocated: 1e10 steps, or 1e8 slots,
    # would take tens of GiB.
    if argv[0] == "prep":
        write_tracks_csv(tmp_path / "tracks.csv", three_class_tracks(fps=5))
        argv = argv + ["--input", str(tmp_path / "tracks.csv")]
    err = run_fail(capsys, argv + ["--out", str(tmp_path / "out")])
    assert err == f"error: {message}\n"
    assert not (tmp_path / "out" / "archive.json").exists()


@pytest.mark.parametrize("option, message", [
    (["--n-vehicles", "100000000"],
     f"need 2 to {MAX_VEHICLE_SLOTS} vehicle slots, got 100000000"),
    (["--t-obs", "1e9"],
     f"t_obs of 1000000000.0 s at fps=10.0 gives more than {MAX_WINDOW_STEPS} steps"),
])
def test_prep_refuses_its_grid_before_it_reads_the_input(tmp_path, capsys, monkeypatch,
                                                         option, message):
    path = tmp_path / "tracks.csv"
    path.write_text("frame,vehicle_id,x,y,vx,vy,lane_id\n"
                    "1,1,0.0,0.0,1.0,0.0,2\n2,1,0.1,0.0,1.0,0.0,2\n")
    read = []
    monkeypatch.setattr(cli, "ingest_tracks", lambda *args: read.append(args))
    assert main(["prep", "--input", str(path), "--fps", "10", *option,
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert read == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, config, message", [
    ("synth", {"n": 3, "fps": math.inf}, "fps must be positive and finite, got inf"),
    ("synth", {"n": 3, "fps": 10, "noise_std": math.nan},
     "noise_std must be finite and non-negative, got nan"),
    ("prep", {"input": "tracks.csv", "fps": 5, "t_pred": -math.inf},
     "t_pred must give a finite number of steps, got -inf s at fps=5.0"),
])
def test_non_finite_config_values_fail_on_one_line(tmp_path, capsys, command, config,
                                                   message):
    # A config file may spell non-finite numbers as JSON's NaN and Infinity;
    # they are refused as the same flags are.
    write_tracks_csv(tmp_path / "tracks.csv", three_class_tracks(fps=5))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: str(tmp_path / value) if key == "input" else value
                               for key, value in config.items()}))
    err = run_fail(capsys, [command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert err == f"error: {message}\n"
    assert not (tmp_path / "out" / "archive.json").exists()


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


@pytest.mark.parametrize("p", ["0", "31"])
def test_spectrum_refuses_p_out_of_range_before_writing(tmp_path, capsys, p):
    archive = synth_archive(tmp_path, n=3)
    out_dir = tmp_path / "spec"
    err = run_fail(capsys, ["spectrum", "--archive", str(archive), "--p", p,
                            "--out", str(out_dir)])
    assert err == f"error: p must be in [1, 30], got {p}\n"
    assert not out_dir.exists()


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


@pytest.mark.parametrize("bias, message", [
    (1e159, "loss is not finite"),
    (1e308, "non-finite values in decoder"),
], ids=["loss", "decode"])
def test_a_diverging_resume_ends_on_one_line_and_writes_no_log(tmp_path, capsys, bias,
                                                                message):
    # A checkpoint whose latent bias overflows the loss, or already the
    # decode: the run prints no numpy warning, only the one error line, and
    # a fresh --out is not made.
    archive = synth_archive(tmp_path)
    run, resumed = tmp_path / "run", tmp_path / "resumed"
    args = ["train", "--archive", str(archive), "--preset", "gftnn", "--hidden", "8",
            "--epochs", "1", "--seed", "0"]
    run_ok(capsys, args + ["--out", str(run)])
    ckpt = load_checkpoint(run / "checkpoint.json")
    params = ckpt.params.copy()
    params.b_h[0] = bias
    save_checkpoint(run / "checkpoint.json", ckpt.config, build_basis(ckpt.config), params,
                    ckpt.epochs_trained, ckpt.optimizer)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        err = run_fail(capsys, args + ["--resume", str(run / "checkpoint.json"),
                                       "--out", str(resumed)])
    assert [str(w.message) for w in caught] == []
    assert err == f"error: epoch 2, batch 0: {message}\n"
    assert not resumed.exists()


@pytest.mark.parametrize("options, differ", [
    (["--hidden", "6"], "hidden 8 != 6"),
    (["--preset", "custom", "--p", "3", "--hidden", "6"], "p 2 != 3, hidden 8 != 6"),
], ids=["hidden", "p-and-hidden"])
def test_train_resume_mismatch(tmp_path, capsys, options, differ):
    # The refusal names every field that differs, before --out exists.
    archive = synth_archive(tmp_path)
    run = tmp_path / "run"
    base = ["train", "--archive", str(archive), "--preset", "gftnn-rdcby15",
            "--epochs", "1", "--batch-size", "4", "--seed", "0"]
    run_ok(capsys, base + ["--hidden", "8", "--out", str(run)])
    resumed = tmp_path / "resumed"
    err = run_fail(capsys, base + options + ["--resume", str(run / "checkpoint.json"),
                                             "--out", str(resumed)])
    assert err == f"error: checkpoint config does not match the requested config: {differ}\n"
    assert not resumed.exists()


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
                            "--preset", "gftnn", "--out", str(tmp_path / "run")])
    assert err == "error: scenario grid does not match the model: t_obs 20 != 30\n"
    assert not (tmp_path / "run").exists()


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


@pytest.mark.parametrize("side", ["train", "test"])
def test_eval_subset_is_one_side_of_the_split_bit_for_bit(tmp_path, side):
    scenarios = synthesize(23, 10, seed=7)
    save_archive(tmp_path / "archive.json", scenarios, 10)
    args = argparse.Namespace(subset=side, split_ratio=0.6, seed=4)
    with open_archive(tmp_path / "archive.json") as archive:
        chosen = cli._subset(args, archive).read()
    want = getattr(split(scenarios, 0.6, seed=4), side)
    assert chosen.ids == want.ids
    assert chosen.fps == want.fps
    for name in ("codes", "v0", "features", "futures"):
        got, ref = getattr(chosen, name), getattr(want, name)
        assert got.dtype == ref.dtype and got.shape == ref.shape, name
        assert got.tobytes() == ref.tobytes(), name


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
    basis = build_basis(ckpt.config)
    x, y = predict_batch(scenarios, basis, ckpt.params, ckpt.config)
    futures = scenarios.futures
    report = evaluate(x[:, 1:] - futures[:, :, 0], y[:, 1:] - futures[:, :, 1], 0.1)
    oracle = tmp_path / "oracle"
    oracle.mkdir()
    write_report_json(report, oracle / "eval_report.json")
    write_histogram_csv(report, oracle / "histogram.csv")
    for name in ("eval_report.json", "histogram.csv"):
        assert (tmp_path / "eval" / name).read_bytes() == (oracle / name).read_bytes()
    # a batch of one may round differently from a row of a larger batch
    for scenario, row_x, row_y in zip(scenarios, x, y):
        single = predict(scenario, basis, ckpt.params, ckpt.config)
        assert np.max(np.abs(single.x - row_x)) <= 1e-12
        assert np.max(np.abs(single.y - row_y)) <= 1e-12


@pytest.mark.parametrize("preset, fps", [("gftnn", 10), ("gftnn-w", 25)])
def test_training_log_and_eval_of_the_test_side_give_the_same_floats(tmp_path, capsys,
                                                                     preset, fps):
    # train's per-epoch test pass and eval --subset test score the same
    # side of the same split with the same parameters: the last log row's
    # ade and fde are the report's, bit for bit.
    archive = synth_archive(tmp_path, n=60, fps=fps, extra=["--seed", "3"])
    split_args = ["--split-ratio", "0.5", "--seed", "3"]
    run = tmp_path / "run"
    run_ok(capsys, ["train", "--archive", str(archive), "--preset", preset, "--epochs", "2",
                    "--batch-size", "8", *split_args, "--out", str(run)])
    run_ok(capsys, ["eval", "--archive", str(archive), "--checkpoint",
                    str(run / "checkpoint.json"), "--subset", "test", *split_args,
                    "--out", str(tmp_path / "eval")])
    with open(run / "training_log.csv") as fh:
        last = list(csv.DictReader(fh))[-1]
    report = json.loads((tmp_path / "eval" / "eval_report.json").read_text())
    assert last["epoch"] == "2" and report["n_scenarios"] == 30
    assert (float(last["ade"]), float(last["fde"])) == (report["ade"], report["fde"])


def overflowing_checkpoint(tmp_path, bias):
    """A 6-scenario archive and an untrained checkpoint whose latent
    acceleration bias is ``bias``."""
    archive = synth_archive(tmp_path, n=6)
    config = preset_config("gftnn", 10, hidden=8)
    params = init_params(config, 0)
    params.b_h[0] = bias
    ckpt = tmp_path / "checkpoint.json"
    save_checkpoint(ckpt, config, build_basis(config), params)
    return archive, ckpt


PREDICT = ["predict", "--scenario-id", "synth-00002"]


@pytest.mark.parametrize("command, bias, message", [
    (["eval"], 1e308, "non-finite values in decoder"),
    (PREDICT, 1e308, "non-finite values in decoder"),
    (["eval"], 1e159, "loss is not finite"),
], ids=["eval", "predict", "eval-loss"])
def test_a_decode_that_overflows_ends_on_one_line(tmp_path, capsys, command, bias,
                                                  message):
    # A finite latent acceleration near the largest float decodes to inf;
    # one a little past its square root decodes, but its squared
    # displacement, the loss, does not: no numpy warning, one error line,
    # and no --out.
    archive, ckpt = overflowing_checkpoint(tmp_path, bias)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        err = run_fail(capsys, [*command, "--archive", str(archive),
                                "--checkpoint", str(ckpt), "--out", str(out)])
    assert [str(w.message) for w in caught] == []
    assert err == f"error: {message}\n"
    assert not out.exists()


def test_predict_writes_the_finite_trajectory_of_a_loss_that_overflows(tmp_path, capsys):
    # predict decodes without a loss: the checkpoint eval refuses for its
    # loss gives a finite trajectory.
    archive, ckpt = overflowing_checkpoint(tmp_path, 1e159)
    run_ok(capsys, [*PREDICT, "--archive", str(archive), "--checkpoint", str(ckpt),
                    "--out", str(tmp_path / "out")])
    with open(tmp_path / "out" / "trajectory_synth-00002.csv") as fh:
        rows = list(csv.DictReader(fh))
    x = np.array([float(row["x"]) for row in rows])
    assert np.isfinite(x).all() and x.max() > 1e150


def score_spy(monkeypatch):
    """The row counts of the spectra ``model.score`` is called on, block
    by block, which it still scores."""
    calls = []

    def spy(s, *args):
        calls.append(len(s))
        return score(s, *args)

    monkeypatch.setattr(model, "score", spy)
    return calls


@pytest.mark.parametrize("width", ["nan", "inf", "-inf", "0", "-1"])
def test_eval_refuses_bin_width_that_is_not_positive_and_finite(tmp_path, capsys,
                                                                 monkeypatch, width):
    # The width is refused before the archive is loaded or scored.
    archive = synth_archive(tmp_path, n=6)
    ckpt = tmp_path / "checkpoint.json"
    config = preset_config("gftnn", 10)
    save_checkpoint(ckpt, config, build_basis(config), init_params(config, 0))
    calls = score_spy(monkeypatch)
    err = run_fail(capsys, ["eval", "--archive", str(archive), "--checkpoint", str(ckpt),
                            f"--bin-width={width}", "--out", str(tmp_path / "eval")])
    assert err == f"error: bin width must be positive and finite, got {float(width)}\n"
    assert calls == []
    assert not (tmp_path / "eval").exists()


def test_eval_refuses_bin_width_with_too_many_bins(tmp_path, capsys, monkeypatch):
    # The bound depends on the largest per-scenario error, so it is checked
    # after scoring.
    archive = synth_archive(tmp_path, n=6)
    ckpt = tmp_path / "checkpoint.json"
    config = preset_config("gftnn", 10)
    save_checkpoint(ckpt, config, build_basis(config), init_params(config, 0))
    calls = score_spy(monkeypatch)
    err = run_fail(capsys, ["eval", "--archive", str(archive), "--checkpoint", str(ckpt),
                            "--bin-width", "1e-300", "--out", str(tmp_path / "eval")])
    assert err.startswith(f"error: bin width 1e-300 needs more than {HISTOGRAM_MAX_BINS} bins")
    assert err.count("\n") == 1
    assert calls == [6]
    assert not (tmp_path / "eval").exists()


def earlier_version(tmp_path, document, version):
    """A file of an earlier ``document`` version, beside a current archive
    and checkpoint; returns (archive, checkpoint, old file, message).
    Versions before archive 3 and checkpoint 4 were one JSON object. An
    archive of version 3 was a head line that listed each scenario's id,
    maneuver and v0, then the features and the futures. The returned
    archive or checkpoint is the old file."""
    archive = synth_archive(tmp_path, n=6)
    ckpt = tmp_path / "checkpoint.json"
    config = preset_config("gftnn", 10)
    save_checkpoint(ckpt, config, build_basis(config), init_params(config, 0))
    old = tmp_path / f"{document}_v{version}.json"
    if document == "archive" and version == 3:
        batch, _ = load_archive(archive)
        write_document(old, {
            "version": 3, "fps": 10.0, "feature_order": "(channel, time, vehicle) row-major",
            "channels": ["x_rel", "y_rel", "vx_rel", "vy_rel"], "t_obs": batch.t_obs,
            "t_pred": batch.t_pred, "n_vehicles": batch.n_vehicles,
            "scenarios": [{"id": s.scenario_id, "maneuver": s.maneuver, "v0": s.v0}
                          for s in batch]}, {"features": batch.features, "future": batch.futures})
        archive = old
    elif document == "archive":
        old.write_text(json.dumps({"version": version, "fps": 10.0, "scenarios": []}))
        archive = old
    else:
        old.write_text(json.dumps({"format_version": version,
                                   "config": dataclasses.asdict(config),
                                   "epochs_trained": 0, "params": {}}))
        ckpt = old
    return archive, ckpt, old, f"{old}: {document} has unsupported version {version}"


EARLIER_VERSIONS = [("archive", 1), ("archive", 2), ("archive", 3),
                    ("checkpoint", 1), ("checkpoint", 2), ("checkpoint", 3)]
LOADS = {"archive": load_archive, "checkpoint": load_checkpoint,
         "scoring checkpoint": lambda path: load_checkpoint(path, optimizer=False)}


@pytest.mark.parametrize("document, version, load", [
    (document, version, load) for document, version in EARLIER_VERSIONS
    for load in LOADS if load.endswith(document)])
def test_earlier_versions_fail_to_load(tmp_path, document, version, load):
    _, _, old, message = earlier_version(tmp_path, document, version)
    with pytest.raises(ValueError) as info:
        LOADS[load](old)
    assert str(info.value) == message


COMMANDS = {
    "eval": lambda a, c: ["eval", "--archive", a, "--checkpoint", c],
    "predict": lambda a, c: ["predict", "--archive", a, "--checkpoint", c,
                             "--scenario-id", "synth-00000"],
    "resume": lambda a, c: ["train", "--archive", a, "--preset", "gftnn", "--resume", c],
    "spectrum": lambda a, c: ["spectrum", "--archive", a],
    "train": lambda a, c: ["train", "--archive", a, "--preset", "gftnn"],
}


@pytest.mark.parametrize("document, version, command", [
    (document, version, command) for document, version in EARLIER_VERSIONS
    for command in COMMANDS
    if document == "archive" or command in ("eval", "predict", "resume")])
def test_earlier_versions_are_refused_on_one_line(tmp_path, capsys, document, version,
                                                  command):
    # Every command that reads the old file refuses it for its version,
    # before it writes anything.
    archive, ckpt, _, message = earlier_version(tmp_path, document, version)
    argv = COMMANDS[command](str(archive), str(ckpt))
    assert run_fail(capsys, argv + ["--out", str(tmp_path / "out")]) == \
        f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("document, edit", [
    ("archive", lambda data: data[:len(data) // 2]),
    ("checkpoint", lambda data: data.replace(b'"t_obs": 30', b'"t_obs": "30"')),
])
def test_eval_reports_corrupt_document_on_one_line(tmp_path, capsys, document, edit):
    archive, ckpt = trained_checkpoint(tmp_path, capsys)
    path = {"archive": archive, "checkpoint": ckpt}[document]
    path.write_bytes(edit(path.read_bytes()))
    err = run_fail(capsys, ["eval", "--archive", str(archive), "--checkpoint", str(ckpt),
                            "--out", str(tmp_path / "eval")])
    assert err.startswith(f"error: {path}: {document} ")
    assert err.count("\n") == 1


def test_internal_errors_keep_their_traceback(tmp_path, monkeypatch):
    # Only bad input and failed runs become one "error:" line.
    def broken(path):
        raise KeyError("internal")
    monkeypatch.setattr("gftnn.cli.open_archive", broken)
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


@pytest.mark.parametrize("command", [["eval"], ["eval", "--self-test"],
                                     ["predict", "--scenario-id", "synth-00000"]],
                         ids=["eval", "self-test", "predict"])
def test_a_checkpoint_on_another_grid_is_refused_on_one_line(tmp_path, capsys, command):
    archive = synth_archive(tmp_path)
    config = preset_config("gftnn-rdcby15", 25, hidden=8)
    ckpt = tmp_path / "checkpoint.json"
    save_checkpoint(ckpt, config, build_basis(config), init_params(config, 0))
    out = tmp_path / "out"
    err = run_fail(capsys, [*command, "--archive", str(archive), "--checkpoint", str(ckpt),
                            "--out", str(out)])
    assert err == ("error: scenario grid does not match the model: fps 10.0 != 25.0, "
                   "t_obs 30 != 75, t_pred 50 != 125\n")
    assert not out.exists()


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


# ------------------------------------------------------------------ row reads

def _payload_reads(monkeypatch):
    """The (array name, bytes) of every ``Payload.read`` from now on."""
    reads = []
    original = store.Payload.read

    def read(self, name, *args, **kwargs):
        array = original(self, name, *args, **kwargs)
        reads.append((name, array.nbytes))
        return array

    monkeypatch.setattr(store.Payload, "read", read)
    return reads


def _archive_bytes(reads):
    return sum(size for name, size in reads if name in ("features", "future"))


# 4 x 30 x 9 features and 50 x 2 future values of one scenario at 10 fps.
SCENARIO_BYTES = 8 * (4 * 30 * 9 + 50 * 2)
# One scenario's code, v0, first frame and target id.
COLUMN_BYTES = 8 * 4

# The calls that read some rows of an archive, given its path and a checkpoint.
ROW_READS = {
    "predict": lambda archive, ckpt: ["predict", "--archive", archive, "--checkpoint", ckpt,
                                      "--scenario-id", "synth-00003"],
    "spectrum": lambda archive, ckpt: ["spectrum", "--archive", archive,
                                       "--scenario-id", "synth-00003"],
    "eval-test": lambda archive, ckpt: ["eval", "--archive", archive, "--checkpoint", ckpt,
                                        "--subset", "test"],
}


@pytest.mark.parametrize("command", ["predict", "spectrum"])
def test_an_unknown_scenario_is_refused_before_any_data_is_read(tmp_path, capsys,
                                                                monkeypatch, command):
    archive, ckpt = trained_checkpoint(tmp_path, capsys)
    argv = ROW_READS[command](str(archive), str(ckpt))
    argv[argv.index("synth-00003")] = "nope"
    reads = _payload_reads(monkeypatch)
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr() == ("", "error: scenario 'nope' not found in archive\n")
    # Only the (n,) columns were read, no scenario's data.
    assert reads == [(name, 8 * 12) for name in ("codes", "v0", "first_frame", "vehicle_id")]


@pytest.mark.parametrize("command", ["predict", "spectrum"])
def test_an_id_two_rows_hold_is_refused_before_any_data_is_read(tmp_path, capsys,
                                                                monkeypatch, command):
    # Two tracks that share a vehicle id and a start frame give two windows
    # of one id; neither is chosen in silence.
    scenarios = extract_scenarios(multilane_scene(3, 10, duplicate_id=True), 10)
    assert [i for i, sid in enumerate(scenarios.ids) if sid == "v15-f229"] == [22, 24]
    archive = tmp_path / "archive.json"
    save_archive(archive, scenarios, 10)
    ckpt = tmp_path / "checkpoint.json"
    config = preset_config("gftnn", 10, hidden=8)
    save_checkpoint(ckpt, config, build_basis(config), init_params(config, 0))
    argv = ROW_READS[command](str(archive), str(ckpt))
    argv[argv.index("synth-00003")] = "v15-f229"
    reads = _payload_reads(monkeypatch)
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr() == (
        "", "error: scenario 'v15-f229' is held by 2 rows of the archive\n")
    assert reads == [(name, 8 * len(scenarios))
                     for name in ("codes", "v0", "first_frame", "vehicle_id")]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", sorted(ROW_READS))
def test_row_reads_refuse_a_truncated_payload(tmp_path, capsys, monkeypatch, command):
    # The length check covers the whole payload, not only the rows read.
    archive, ckpt = trained_checkpoint(tmp_path, capsys)
    archive.write_bytes(archive.read_bytes()[:-8])
    with pytest.raises(ValueError) as info:
        load_archive(archive)
    message = str(info.value)
    payload = 12 * (COLUMN_BYTES + SCENARIO_BYTES)
    assert message.endswith(f"payload is {payload - 8} bytes, expected {payload} "
                            f"for the arrays its head declares")
    reads = _payload_reads(monkeypatch)
    assert main(ROW_READS[command](str(archive), str(ckpt))
                + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert reads == []


@pytest.mark.parametrize("name, value", [("codes", 5.0), ("v0", math.nan)])
@pytest.mark.parametrize("command", sorted(ROW_READS))
def test_row_reads_refuse_a_bad_code_or_v0_they_do_not_read(tmp_path, capsys, command, name,
                                                             value):
    archive, ckpt = trained_checkpoint(tmp_path, capsys)
    scenarios, _ = load_archive(archive)
    train_side, _ = split_indices(scenarios.codes, 0.7, 0)
    unread = next(i for i in train_side.tolist() if i != 3)
    archive.write_bytes(poked(name, unread, value)(archive.read_bytes()))
    with pytest.raises(ValueError) as info:
        load_archive(archive)
    message = str(info.value)
    assert message.startswith(f"{archive}: scenario {unread} ('synth-{unread:05d}'): ")
    assert main(ROW_READS[command](str(archive), str(ckpt))
                + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_nan_features_in_an_unread_row_stop_only_the_reads_of_that_row(tmp_path, capsys):
    archive, ckpt = trained_checkpoint(tmp_path, capsys)
    scored = ["--archive", str(archive), "--checkpoint", str(ckpt)]
    run_ok(capsys, ["predict", *scored, "--scenario-id", "synth-00003",
                    "--out", str(tmp_path / "clean")])
    codes = load_archive(archive)[0].codes
    archive.write_bytes(poked("features", 5, math.nan, 100)(archive.read_bytes()))
    run_ok(capsys, ["predict", *scored, "--scenario-id", "synth-00003",
                    "--out", str(tmp_path / "poked")])
    name = "trajectory_synth-00003.csv"
    assert (tmp_path / "poked" / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()
    # Whatever reads row 5 refuses it, named by its index in the archive.
    train_side, _ = split_indices(codes, 0.7, 0)
    side = "train" if 5 in train_side else "test"
    other = "test" if side == "train" else "train"
    message = f"error: {archive}: scenario 5 ('synth-00005'): scenario synth-00005: " \
              f"non-finite data\n"
    for argv in (["eval", *scored], ["eval", *scored, "--subset", side],
                 ["predict", *scored, "--scenario-id", "synth-00005"]):
        assert main(argv + ["--out", str(tmp_path / "refused")]) == 1
        assert capsys.readouterr() == ("", message)
    run_ok(capsys, ["eval", *scored, "--subset", other, "--out", str(tmp_path / "other")])


@pytest.mark.parametrize("preset, fps", [("gftnn", 10), ("gftnn-w", 25)])
def test_row_reads_write_the_bytes_of_a_full_read(tmp_path, capsys, preset, fps):
    # The oracle is the same call on an archive that holds only the rows
    # picked from a whole read, by the scenario's id or by the split's
    # indices, and that it reads whole: an eval over all of its rows.
    archive = synth_archive(tmp_path, n=14, fps=fps)
    split_args = ["--split-ratio", "0.6", "--seed", "2"]
    run_ok(capsys, ["train", "--archive", str(archive), "--preset", preset, "--hidden", "8",
                    "--epochs", "1", "--batch-size", "4", *split_args,
                    "--out", str(tmp_path / "run")])
    ckpt = tmp_path / "run" / "checkpoint.json"
    scored = ["--archive", str(archive), "--checkpoint", str(ckpt)]
    scenario_id = "synth-00009"

    def by_id(batch):
        return batch[[cli._find_scenario(batch.ids, scenario_id)]]

    calls = {
        "predict": (["predict", *scored, "--scenario-id", scenario_id], by_id),
        "spectrum": (["spectrum", "--archive", str(archive), "--scenario-id", scenario_id,
                      "--p", "5"], by_id),
        "eval-train": (["eval", *scored, "--subset", "train", *split_args],
                       lambda batch: batch[split_indices(batch.codes, 0.6, 2)[0]]),
        "eval-test": (["eval", *scored, "--subset", "test", *split_args],
                      lambda batch: batch[split_indices(batch.codes, 0.6, 2)[1]]),
    }
    for name, (argv, pick) in calls.items():
        got, want = tmp_path / "rows" / name, tmp_path / "full" / name
        out = run_ok(capsys, argv + ["--out", str(got)])
        picked = tmp_path / f"picked-{name}.json"
        save_archive(picked, pick(load_archive(archive)[0]), fps)
        whole = ["--archive", str(picked)] + (["--subset", "all"] if argv[0] == "eval" else [])
        oracle = run_ok(capsys, argv + whole + ["--out", str(want)])
        assert out == oracle.replace(str(want), str(got))
        names = sorted(path.name for path in want.iterdir())
        assert names == sorted(path.name for path in got.iterdir()) and len(names) >= 1
        for file in names:
            assert (got / file).read_bytes() == (want / file).read_bytes(), (name, file)


def test_predict_reads_one_scenario_of_a_large_archive(tmp_path, capsys, monkeypatch):
    # What predict reads of the payload does not grow with the archive;
    # eval --subset test reads its own side and no more.
    _, ckpt = trained_checkpoint(tmp_path, capsys)
    archive = tmp_path / "large.json"
    scenarios = synthesize(1000, 10, seed=5)
    save_archive(archive, scenarios, 10)
    scored = ["--archive", str(archive), "--checkpoint", str(ckpt)]
    reads = _payload_reads(monkeypatch)
    run_ok(capsys, ["predict", *scored, "--scenario-id", "synth-00777",
                    "--out", str(tmp_path / "pred")])
    assert _archive_bytes(reads) == SCENARIO_BYTES
    reads.clear()
    out = run_ok(capsys, ["eval", *scored, "--subset", "test",
                          "--out", str(tmp_path / "eval")])
    _, test_side = split_indices(scenarios.codes, 0.7, 0)
    assert out.startswith(f"n={test_side.size} ")
    assert _archive_bytes(reads) == test_side.size * SCENARIO_BYTES


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


@pytest.mark.parametrize("command, config, message", [
    ("prep", {"input": "tracks.csv", "fps": 25, "schema": "ngsim"},
     "schema is 'ngsim', expected one of highd_like, normalized"),
    ("spectrum", {"archive": "a.json", "graph_kind": "ring"},
     "graph_kind is 'ring', expected one of spider, mesh"),
    ("train", {"archive": "a.json", "preset": "custom", "graph_kind": "ring"},
     "graph_kind is 'ring', expected one of spider, mesh"),
    ("train", {"archive": "a.json", "preset": "mlp"},
     "preset is 'mlp', expected one of gftnn, gftnn-w, gftnn-rdcby5, gftnn-rdcby15, "
     "custom"),
    ("eval", {"archive": "a.json", "checkpoint": "c.json", "subset": "bogus"},
     "subset is 'bogus', expected one of all, train, test"),
])
def test_config_file_values_are_one_of_their_option_choices(tmp_path, capsys, command,
                                                            config, message):
    # Refused as the same flag is, before any input is read.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    err = run_fail(capsys, [command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert err == f"error: {cfg}: config file {message}\n"
    assert not (tmp_path / "out").exists()


def test_config_file_switch_and_flag_both_set_it(tmp_path, capsys):
    archive, ckpt = trained_checkpoint(tmp_path, capsys)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"archive": str(archive), "checkpoint": str(ckpt),
                               "self_test": True}))
    assert "ade=0.0000" in run_ok(capsys, ["eval", "--config", str(cfg),
                                           "--out", str(tmp_path / "a")])
    assert "ade=0.0000" in run_ok(capsys, ["eval", "--config", str(cfg), "--self-test",
                                           "--out", str(tmp_path / "b")])
    cfg.write_text(json.dumps({"archive": str(archive), "checkpoint": str(ckpt),
                               "self_test": False}))
    assert "ade=0.0000" in run_ok(capsys, ["eval", "--config", str(cfg), "--self-test",
                                           "--out", str(tmp_path / "c")])
    assert "ade=0.0000" not in run_ok(capsys, ["eval", "--config", str(cfg),
                                               "--out", str(tmp_path / "d")])


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


@pytest.mark.parametrize("command", ["prep", "synth"])
def test_grid_options_show_their_help(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    shown = " ".join(capsys.readouterr().out.split())
    for option in ("--fps FPS sampling rate in frames per second",
                   "--t-obs T_OBS observation window in seconds",
                   "--t-pred T_PRED prediction window in seconds",
                   "--n-vehicles N_VEHICLES vehicle slots per scenario"):
        assert option in shown


_TRAIN_DEFAULTS = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
_MODEL_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ModelConfig)}


@pytest.mark.parametrize("command, dest, default, choices", [
    ("train", "epochs", _TRAIN_DEFAULTS["epochs"], None),
    ("train", "learning_rate", _TRAIN_DEFAULTS["learning_rate"], None),
    ("train", "batch_size", _TRAIN_DEFAULTS["batch_size"], None),
    ("train", "hidden", _MODEL_DEFAULTS["hidden"], None),
    ("train", "graph_kind", None, GRAPH_KINDS),
    ("spectrum", "graph_kind", _MODEL_DEFAULTS["graph_kind"], GRAPH_KINDS),
    ("eval", "bin_width", BIN_WIDTH, None),
])
def test_cli_defaults_are_the_library_defaults(command, dest, default, choices):
    (action,) = [action for action in cli._build_parser()[1][command]._actions
                 if action.dest == dest]
    assert (action.default, action.choices) == (default, choices)


_MINIMAL_ARGV = {
    "prep": ["--input", "tracks.csv", "--fps", "5"],
    "synth": ["--n", "3", "--fps", "10"],
    "spectrum": ["--archive", "archive.json"],
    "train": ["--archive", "archive.json"],
    "eval": ["--archive", "archive.json", "--checkpoint", "checkpoint.json"],
    "predict": ["--archive", "archive.json", "--checkpoint", "checkpoint.json",
                "--scenario-id", "synth-00000"],
}


_SEEDED = ("prep", "synth", "train", "eval")


@pytest.mark.parametrize("from_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("command", _SEEDED)
def test_negative_seed_is_refused_before_any_output(tmp_path, capsys, monkeypatch,
                                                    command, from_config):
    # The inputs exist, so without the refusal prep would print its row count.
    monkeypatch.chdir(tmp_path)
    write_tracks_csv(tmp_path / "tracks.csv", three_class_tracks(fps=5))
    synth_archive(tmp_path, name=".", n=3)
    argv = [command] + _MINIMAL_ARGV[command] + ["--out", "out"]
    if from_config:
        (tmp_path / "cfg.json").write_text(json.dumps({"seed": -1}))
        argv += ["--config", "cfg.json"]
    else:
        argv += ["--seed", "-1"]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: seed must be a non-negative integer, got -1\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("from_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("command", sorted(set(_MINIMAL_ARGV) - set(_SEEDED)))
def test_commands_that_draw_nothing_take_no_seed(tmp_path, capsys, monkeypatch, command,
                                                 from_config):
    # spectrum and predict draw no random number, so a seed is an unknown
    # option to them and an unknown key in their config file.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    synth_archive(tmp_path, name=".", n=3)
    argv = [command] + _MINIMAL_ARGV[command] + ["--out", "out"]
    if from_config:
        (tmp_path / "cfg.json").write_text(json.dumps({"seed": 0}))
        assert main(argv + ["--config", "cfg.json"]) == 1
        assert capsys.readouterr().err == "error: unknown config keys: seed\n"
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "0"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"gftnn {command}: error: unrecognized arguments: --seed 0\n")
    assert not (tmp_path / "out").exists()


def _action_facts(parser):
    return [(type(action), action.option_strings, action.dest, action.default, action.type,
             action.choices, action.nargs, action.help) for action in parser._actions]


@pytest.mark.parametrize("command", list(_MINIMAL_ARGV))
def test_the_parser_main_builds_for_a_command_is_the_full_trees(monkeypatch, capsys,
                                                                 command):
    monkeypatch.setenv("COLUMNS", "80")
    built = []
    build = cli._build_parser

    def spy(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(cli, "_build_parser", spy)
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    ((_, slim),) = built
    assert list(slim) == [command]
    full = build()[1][command]
    assert _action_facts(slim[command]) == _action_facts(full)
    assert capsys.readouterr().out == slim[command].format_help() == full.format_help()


@pytest.mark.parametrize("argv, code, stream, message", [
    ([], 2, "err", "gftnn: error: the following arguments are required: command\n"),
    (["bogus"], 2, "err", "gftnn: error: argument command: invalid choice: 'bogus' "
                          "(choose from 'prep', 'synth', 'spectrum', 'train', 'eval', "
                          "'predict')\n"),
    (["--help"], 0, "out", None),
], ids=["no-command", "unknown-command", "help"])
def test_top_level_usage_and_errors_are_the_full_trees(monkeypatch, capsys, argv, code,
                                                       stream, message):
    # A call that names no command builds the full tree, whose usage names
    # every command.
    monkeypatch.setenv("COLUMNS", "80")
    full = cli._build_parser()[0]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    shown = getattr(capsys.readouterr(), stream)
    assert shown == (full.format_help() if message is None else full.format_usage() + message)
    assert "{prep,synth,spectrum,train,eval,predict}" in shown


def test_an_unknown_option_is_refused_with_its_commands_usage(monkeypatch, capsys):
    # The command's own parser refuses it, so the usage shows that command's
    # options, as the full tree's parser for it would.
    monkeypatch.setenv("COLUMNS", "80")
    full = cli._build_parser()[1]["predict"]
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--bogus", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        full.format_usage() + "gftnn predict: error: unrecognized arguments: --bogus 1\n")
    assert full.format_usage().startswith("usage: gftnn predict [-h] [--config CONFIG]")


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "gftnn.cli", "synth", "--n", "3", "--fps", "10",
         "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "archive.json").exists()


# ------------------------------------------------------ runtime dependencies

def _run_python(code, *args):
    """Run code in a fresh interpreter that imports gftnn from this checkout."""
    src = str(Path(gftnn.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_runtime_imports_no_scipy():
    proc = _run_python(
        "import sys; import gftnn; import gftnn.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


PIPELINE_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None     # any import of scipy now raises ImportError
from gftnn.cli import main
from gftnn.scenario import load_archive
from gftnn.spectral import ProductBasis, Spectrum
out = sys.argv[1]
archive = out + "/data/archive.json"
ckpt = out + "/run/checkpoint.json"
assert main(["synth", "--n", "12", "--fps", "10", "--out", out + "/data",
             "--seed", "0"]) == 0
assert main(["train", "--archive", archive, "--preset", "gftnn-w",
             "--hidden", "8", "--epochs", "2", "--batch-size", "4",
             "--out", out + "/run", "--seed", "0"]) == 0
assert main(["eval", "--archive", archive, "--checkpoint", ckpt,
             "--out", out + "/eval"]) == 0
scenario_id = load_archive(archive)[0][0].scenario_id
assert main(["predict", "--archive", archive, "--checkpoint", ckpt,
             "--scenario-id", scenario_id, "--out", out + "/predict"]) == 0
"""


def test_pipeline_runs_with_scipy_blocked(tmp_path):
    proc = _run_python(PIPELINE_WITHOUT_SCIPY, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "eval" / "eval_report.json").exists()
    assert len(list((tmp_path / "predict").glob("trajectory_*.csv"))) == 1
