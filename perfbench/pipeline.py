"""Workloads and one pass of the gftnn CLI pipeline over them.

Each stage is one ``gftnn.cli.main(argv)`` call in this process, run in
order by a single client (a closed loop). The stages are ingest (synth or
prep), train, eval over the whole archive, eval over the test subset and
one predict. Outputs are checked after each stage, outside its timing.

A workload has two sizes. The timed passes are small, so that a run holds
many of them and each stage is short against the host's speed drift
(see calibration.py). One untimed quality pass over three times the
data gives the test ADE and FDE, which vary less with the seed's data the
more scenarios they average.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import logging
import os
import re
from dataclasses import dataclass, replace

from gftnn import cli
from gftnn.scenario import MANEUVERS, RawTrack, extract_scenarios, load_archive

import calibration
import recording

# Seed of every program-side random choice (model init, shuffling, split,
# balancing). The workload seed only shapes the generated inputs.
PROGRAM_SEED = "0"
# Half the archive is held out, so the test ADE averages over enough
# scenarios to stay steady from one seed to the next.
SPLIT_RATIO = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    fps: int
    preset: str
    batch_size: int
    epochs: int
    synth_n: int = 0                        # synth workloads
    recording: recording.Spec | None = None  # recording workloads
    # Sizes of the quality pass; the fields above size the timed passes.
    quality_synth_n: int = 0
    quality_recording: recording.Spec | None = None

    def quality(self) -> Workload:
        return replace(self, synth_n=self.quality_synth_n,
                       recording=self.quality_recording)

    def sizes(self) -> dict:
        doc = {"fps": self.fps, "preset": self.preset,
               "batch_size": self.batch_size, "epochs": self.epochs}
        if self.recording is None:
            doc["synth_scenarios"] = self.synth_n
            doc["quality_synth_scenarios"] = self.quality_synth_n
        else:
            doc["recording"] = dict(vars(self.recording))
            doc["quality_recording"] = dict(vars(self.quality_recording))
        return doc

    def expected_classes(self) -> dict:
        """Scenarios per maneuver the ingest stage must archive."""
        if self.recording is None:
            return {m: len(range(i, self.synth_n, 3))
                    for i, m in enumerate(MANEUVERS)}
        windows = self.recording.expected_windows()
        per_class = min(windows[m] for m in MANEUVERS)
        return {m: per_class for m in MANEUVERS}


WORKLOADS = {
    w.name: w for w in (
        # One 30-node Jacobi and no per-scenario basis: the batch-1
        # forward/backward and Adam dominate train, the predict loop eval.
        Workload("batch1-10fps", fps=10, preset="gftnn", batch_size=1,
                 epochs=6, synth_n=150, quality_synth_n=450),
        # A 9x9 weighted Jacobi per scenario in train and in every eval
        # predict, plus the 75-node path Jacobi; Adam takes few steps.
        Workload("weighted-25fps", fps=25, preset="gftnn-w", batch_size=64,
                 epochs=3, synth_n=80, quality_synth_n=240),
        # CSV ingest and the quadratic window extraction dominate prep;
        # balancing discards most windows.
        Workload("recording-25fps", fps=recording.FPS, preset="gftnn",
                 batch_size=64, epochs=3,
                 recording=recording.Spec(n_tracks=120, n_left=15, n_right=15,
                                          n_gapped=12),
                 quality_recording=recording.Spec(
                     n_tracks=240, n_left=60, n_right=60, n_gapped=24)),
    )
}


class Checks:
    """Operations attempted and failed: stage runs and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, ok, what) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return ok


class SkippedWindows(logging.Handler):
    """Sums the skipped-window counts extract_scenarios logs."""

    PATTERN = re.compile(r"skipped (\d+) windows")

    def __init__(self):
        super().__init__(logging.INFO)
        self.total = 0

    def emit(self, record):
        match = self.PATTERN.search(record.getMessage())
        if match:
            self.total += int(match.group(1))


@contextlib.contextmanager
def capture_skipped_windows():
    logger = logging.getLogger("gftnn.scenario")
    handler = SkippedWindows()
    level, propagate = logger.level, logger.propagate
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    logger.propagate = False
    try:
        yield handler
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
        logger.propagate = propagate


def run_stage(argv, checks, tracer=None, stage=None):
    """One CLI call with its output captured, bracketed by the calibration
    loop; returns (ok, wall seconds, reference seconds per wall second)."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span(f"cli.{stage}") if tracer else contextlib.nullcontext()

    def call():
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                return cli.main(argv)
            except SystemExit as exc:
                return exc.code

    rc, wall, scale = calibration.timed(call)
    ok = checks.record(rc == 0, f"gftnn {argv[0]} exited {rc}: "
                                f"{err.getvalue().strip()[-300:]}")
    return ok, wall, scale


def make_inputs(workload, seed, work_dir, checks, label) -> dict:
    """Generate the workload's inputs from its seed, before any timing."""
    if workload.recording is None:
        return {}
    spec = workload.recording
    tracks = recording.generate(spec, seed)
    path = os.path.join(work_dir, f"recording-{label}.csv")
    rows = recording.write_csv(tracks, path)
    # Extraction on one vehicle of each role must yield all three classes.
    probe = {next(tr.vehicle_id for tr in tracks if tr.role == role)
             for role in ("keep", "left", "right")}
    raw = [RawTrack(tr.vehicle_id, tr.frame, tr.x, tr.y, tr.vx, tr.vy,
                    tr.lane_id) for tr in tracks]
    found = {s.maneuver for s in extract_scenarios(
        raw, recording.FPS, recording.T_OBS_S, recording.T_PRED_S,
        target_ids=probe)}
    checks.record(found == set(MANEUVERS),
                  f"probe extraction found classes {sorted(found)}")
    return {"csv": path, "rows": rows, "tracks": len(tracks)}


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _check_predict_csv(path, t_pred, checks):
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        ok = (len(rows) == t_pred + 1 and float(rows[0]["x"]) == 0.0
              and float(rows[0]["y"]) == 0.0)
    except (OSError, KeyError, ValueError):
        ok = False
    checks.record(ok, f"{path}: expected {t_pred + 1} rows starting at (0, 0)")


def run_pipeline(workload, inputs, seed, out_dir, checks, tracer=None,
                 self_test=False):
    """One pass over all stages. Returns per-stage reference seconds
    ("times") and wall seconds ("wall") and the outputs, or None once a
    stage fails."""
    fps = str(workload.fps)
    archive = os.path.join(out_dir, "archive.json")
    checkpoint = os.path.join(out_dir, "checkpoint.json")
    if workload.recording is None:
        ingest = ["synth", "--n", str(workload.synth_n), "--fps", fps,
                  "--seed", str(seed), "--out", out_dir]
    else:
        ingest = ["prep", "--input", inputs["csv"], "--schema", "normalized",
                  "--fps", fps, "--seed", PROGRAM_SEED, "--out", out_dir]
    wall, scale = {}, {}
    ok, wall["ingest"], scale["ingest"] = run_stage(ingest, checks, tracer,
                                                    "ingest")
    if not ok:
        return None

    scenarios, _ = load_archive(archive)
    classes = {m: sum(s.maneuver == m for s in scenarios) for m in MANEUVERS}
    n = len(scenarios)
    t_pred = scenarios[0].t_pred
    first_id = scenarios[0].scenario_id
    del scenarios
    expected = workload.expected_classes()
    checks.record(classes == expected,
                  f"archive classes {classes}, expected {expected}")
    n_train = round(SPLIT_RATIO * n)

    # train and eval must draw the same split
    common = ["--seed", PROGRAM_SEED, "--split-ratio", str(SPLIT_RATIO)]
    ok, wall["train"], scale["train"] = run_stage(
        ["train", "--archive", archive, "--preset", workload.preset,
         "--batch-size", str(workload.batch_size),
         "--epochs", str(workload.epochs), "--out", out_dir] + common,
        checks, tracer, "train")
    if not ok:
        return None

    scored = ["--archive", archive, "--checkpoint", checkpoint]
    eval_dir = os.path.join(out_dir, "eval")
    ok, wall["eval"], scale["eval"] = run_stage(
        ["eval"] + scored + ["--out", eval_dir] + common, checks, tracer,
        "eval")
    if not ok:
        return None
    report = _read_json(os.path.join(eval_dir, "eval_report.json"))
    checks.record(report["n_scenarios"] == n,
                  f"eval scored {report['n_scenarios']} of {n} scenarios")

    test_dir = os.path.join(out_dir, "eval_test")
    ok, wall["eval_test"], scale["eval_test"] = run_stage(
        ["eval"] + scored + ["--subset", "test", "--out", test_dir] + common,
        checks, tracer, "eval_test")
    if not ok:
        return None
    report = _read_json(os.path.join(test_dir, "eval_report.json"))
    checks.record(report["n_scenarios"] == n - n_train,
                  f"test eval scored {report['n_scenarios']}, "
                  f"expected {n - n_train}")

    predict_dir = os.path.join(out_dir, "predict")
    ok, wall["predict"], scale["predict"] = run_stage(
        ["predict"] + scored + ["--scenario-id", first_id,
                                "--out", predict_dir],
        checks, tracer, "predict")
    if not ok:
        return None
    _check_predict_csv(os.path.join(predict_dir, f"trajectory_{first_id}.csv"),
                       t_pred, checks)

    if self_test:
        self_dir = os.path.join(out_dir, "self_test")
        if run_stage(["eval"] + scored + ["--self-test", "--out", self_dir]
                     + common, checks)[0]:
            doc = _read_json(os.path.join(self_dir, "eval_report.json"))
            checks.record(doc["ade"] == 0.0 and doc["fde"] == 0.0,
                          f"self-test ade={doc['ade']!r} fde={doc['fde']!r}")

    return {
        "times": {stage: wall[stage] * scale[stage] for stage in wall},
        "wall": wall,
        "n_scenarios": n,
        "n_train": n_train,
        "test_ade_m": report["ade"],
        "test_fde_m": report["fde"],
        "archive_bytes": os.path.getsize(archive),
        "checkpoint_bytes": os.path.getsize(checkpoint),
    }
