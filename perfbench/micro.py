"""Layer microbenchmarks on fixed inputs, one per row of the ROADMAP
baseline table. The inputs never depend on the workload seed."""
from __future__ import annotations

import os
import statistics
from time import perf_counter

import numpy as np

from gftnn.graph import (apply_inverse_distance_weights, build_line_graph,
                         build_spider_graph, laplacian)
from gftnn.model import (build_basis, init_params, load_checkpoint,
                         preset_config, save_checkpoint)
from gftnn.scenario import (DatasetSplit, RawTrack, extract_scenarios,
                            load_archive, save_archive, synthesize)
from gftnn.spectral import symmetric_eigh
from gftnn.training import AdamState, TrainConfig, train

import recording
from spans import SPANS, Tracer

FIXED_SEED = 0
EIGH_TOL = 1e-9
ARCHIVE_SCENARIOS = 900
EXTRACT_TRACKS = (100, 200, 400)
TRAIN_SPANS = [entry for entry in SPANS if entry[0] == "gftnn.training"]


def _median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def eigh(checks) -> dict:
    """Jacobi on the 30- and 75-node paths and a weighted 9-node star,
    with np.linalg.eigh as the oracle."""
    rng = np.random.default_rng(FIXED_SEED)
    positions = np.vstack([[0.0, 0.0],
                           rng.uniform([-40.0, -7.0], [40.0, 7.0], (8, 2))])
    star = apply_inverse_distance_weights(build_spider_graph(9), positions)
    cases = {
        "path30": (laplacian(build_line_graph(30)).matrix, 5),
        "path75": (laplacian(build_line_graph(75)).matrix, 3),
        "star9w": (laplacian(star).matrix, 50),
    }
    out = {}
    for name, (a, repeats) in cases.items():
        out[f"spectral.eigh_ms.{name}"] = 1e3 * _median_time(
            lambda: symmetric_eigh(a), repeats)
        w, v = symmetric_eigh(a)
        w_ref = np.linalg.eigh(a)[0]
        scale = max(1.0, float(np.max(np.abs(w_ref))))
        err = max(float(np.max(np.abs(w - w_ref))),
                  float(np.max(np.abs(a @ v - v * w))),
                  float(np.max(np.abs(v.T @ v - np.eye(w.size)))))
        checks.record(err <= EIGH_TOL * scale,
                      f"eigh {name}: residual {err:.3e} against np.linalg.eigh")
    return out


def train_steps(scenarios) -> dict:
    """One fixed epoch at batch 1 and at batch 64, timed from train spans:
    a step is train's self time (forward, backward, loss) plus Adam."""
    config = preset_config("gftnn", 10)
    out = {}
    adam = []
    for label, n, batch in (("b1", 200, 1), ("b64", ARCHIVE_SCENARIOS, 64)):
        dataset = DatasetSplit(train=scenarios[:n], test=[], seed=FIXED_SEED)
        train_config = TrainConfig(epochs=1, batch_size=batch, seed=FIXED_SEED)
        steps = []
        for _ in range(3):
            tracer = Tracer()
            with tracer.patched(TRAIN_SPANS), tracer.span("training.train"):
                train(dataset, config, train_config)
            layers = tracer.layers()
            step = layers["training.adam_step"]
            steps.append((layers["training.train"].self_s + step.total_s)
                         / step.calls)
            adam.append(step.total_s / step.calls)
        out[f"training.step_ms.{label}"] = 1e3 * statistics.median(steps)
    out["training.adam_ms"] = 1e3 * statistics.median(adam)
    return out


def extraction(checks) -> dict:
    """extract_scenarios on recordings of 100, 200 and 400 one-window
    tracks, and the fitted exponent of time against tracks."""
    out = {}
    times = []
    for n in EXTRACT_TRACKS:
        spec = recording.Spec(n_tracks=n, windows_per_track=1, n_left=n // 4,
                              n_right=n // 4, n_gapped=0)
        tracks = [RawTrack(tr.vehicle_id, tr.frame, tr.x, tr.y, tr.vx, tr.vy,
                           tr.lane_id)
                  for tr in recording.generate(spec, FIXED_SEED)]
        t0 = perf_counter()
        scenarios = extract_scenarios(tracks, recording.FPS)
        times.append(perf_counter() - t0)
        checks.record(len(scenarios) == n,
                      f"extraction of {n} tracks gave {len(scenarios)} windows")
        out[f"scenario.extract_s.{n}"] = times[-1]
    slope = np.polyfit(np.log(EXTRACT_TRACKS), np.log(times), 1)[0]
    out["scenario.extract_scaling_exp"] = float(slope)
    return out


def archive_io(scenarios, work_dir, checks) -> dict:
    path = os.path.join(work_dir, "micro_archive.json")
    save = _median_time(lambda: save_archive(path, scenarios, 10), 3)
    load = _median_time(lambda: load_archive(path), 3)
    checks.record(len(load_archive(path)[0]) == len(scenarios),
                  "archive round trip lost scenarios")
    os.remove(path)
    n = len(scenarios)
    return {f"scenario.archive_save_s.{n}": save,
            f"scenario.archive_load_s.{n}": load}


def checkpoint_io(work_dir) -> dict:
    """A gftnn 10 fps checkpoint with optimizer state, as train writes it."""
    config = preset_config("gftnn", 10)
    basis = build_basis(config)
    params = init_params(config, FIXED_SEED)
    optimizer = AdamState.initial(params).as_dict()
    path = os.path.join(work_dir, "micro_checkpoint.json")
    save = _median_time(lambda: save_checkpoint(path, config, basis, params,
                                                0, optimizer), 3)
    load = _median_time(lambda: load_checkpoint(path), 3)
    os.remove(path)
    return {"model.checkpoint_save_s": save, "model.checkpoint_load_s": load}


def run_all(work_dir, checks) -> dict:
    scenarios = synthesize(ARCHIVE_SCENARIOS, 10, FIXED_SEED, noise_std=0.05)
    out = {}
    out.update(eigh(checks))
    out.update(train_steps(scenarios))
    out.update(extraction(checks))
    out.update(archive_io(scenarios, work_dir, checks))
    out.update(checkpoint_io(work_dir))
    return out
