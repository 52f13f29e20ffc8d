"""Shared builders for the test suite."""
import csv
import json
from dataclasses import asdict

import numpy as np
from scipy.special import expit

from gftnn.graph import Graph
from gftnn.model import ModelConfig
from gftnn.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS
from gftnn.scenario import CHANNELS, LANE_WIDTH, SCHEMAS, RawTrack


def tiny_config(**overrides):
    """Small but structurally complete model configuration (6 x 3 grid)."""
    base = dict(k=2, t_obs=6, t_pred=10, n_v=3, p=6, hidden=4, fps=2.0)
    base.update(overrides)
    return ModelConfig(**base)


def write_v1_checkpoint(path, config, basis, params, epochs_trained=0,
                        optimizer=None):
    """Write model state as the format-version-1 writer did: every float a
    repr() string, the document streamed by json.dump, and the config with
    the block count and the graph hash it carried then."""
    def floats(arr):
        return [repr(float(v)) for v in np.asarray(arr).ravel()]

    def spectrum(spec):
        return {"source_graph_id": "0123456789ab",
                "eigenvalues": floats(spec.eigenvalues),
                "eigenvectors": floats(spec.eigenvectors)}

    doc = {
        "format_version": 1,
        "config": {**asdict(config), "n_blocks": 1},
        "param_count": params.n_params,
        "epochs_trained": int(epochs_trained),
        "basis": {"temporal": spectrum(basis.temporal),
                  "spatial": spectrum(basis.spatial)},
        "params": {name: floats(arr) for name, arr in params.items()},
    }
    if optimizer is not None:
        doc["optimizer"] = {
            "step": int(optimizer["step"]),
            "m": {name: floats(arr) for name, arr in optimizer["m"].items()},
            "v": {name: floats(arr) for name, arr in optimizer["v"].items()},
        }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def write_v1_archive(path, scenarios, fps):
    """Write scenarios as the format-version-1 archive writer did: features
    and future as JSON lists of floats, the compact document streamed one
    scenario at a time."""
    head = json.dumps({
        "version": 1,
        "fps": float(fps),
        "feature_order": "(channel, time, vehicle) row-major",
        "channels": list(CHANNELS),
        "scenarios": [],
    }, separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write(head[:-2])
        for i, s in enumerate(scenarios):
            item = {
                "id": s.scenario_id,
                "maneuver": s.maneuver,
                "v0": s.v0,
                "t_obs": s.t_obs,
                "t_pred": s.t_pred,
                "n_vehicles": s.n_vehicles,
                "features": s.features.ravel().tolist(),
                "future": s.future.ravel().tolist(),
            }
            fh.write(("," if i else "") + json.dumps(item, separators=(",", ":")))
        fh.write("]}")


def adam_step_per_array(params, grads, state, config):
    """Reference Adam update, one loop iteration per named parameter array.

    ``state`` is a dict of step count and named moments, as
    ``AdamState.as_dict`` gives; returns the new named parameters and state.
    """
    t = state["step"] + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    new_m, new_v, new_p = {}, {}, {}
    grad_map = dict(grads.items())
    for name, p_arr in params.items():
        g = grad_map[name]
        m = b1 * state["m"][name] + (1.0 - b1) * g
        v = b2 * state["v"][name] + (1.0 - b2) * g * g
        update = config.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        new_m[name] = m
        new_v[name] = v
        new_p[name] = p_arr - update
    return new_p, {"step": t, "m": new_m, "v": new_v}


def random_graph(rng, n, weighted=True):
    """Random connected-ish undirected graph with positive weights."""
    adj = np.zeros((n, n))
    for i in range(n - 1):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                adj[i, j] = adj[j, i] = 1.0
    # no isolated graph: wire a spanning path if nothing came up
    if adj.sum() == 0:
        idx = np.arange(n - 1)
        adj[idx, idx + 1] = adj[idx + 1, idx] = 1.0
    if weighted:
        raw = rng.uniform(0.2, 3.0, size=(n, n))
        w = (raw + raw.T) / 2.0
    else:
        w = np.ones((n, n))
    return Graph(w * adj)


def _logistic_track(vehicle_id, fps, n_frames, t0_index, x0, v, lane0,
                    amplitude, rate=2.0):
    times = np.arange(n_frames) / fps
    mid = times[t0_index] + 0.5 * (n_frames - 1 - t0_index) / fps
    x = x0 + v * times
    g = expit(rate * (times - mid))
    y = (lane0 + 0.5) * LANE_WIDTH + amplitude * g
    vy = amplitude * rate * g * (1.0 - g)
    lane = np.floor(y / LANE_WIDTH).astype(np.int64)
    return RawTrack(vehicle_id, np.arange(n_frames), x, y,
                    np.full(n_frames, float(v)), vy, lane)


def three_class_tracks(fps):
    """Three vehicles, one maneuver class each, sharing frames 0..M-1."""
    t_obs = round(3.0 * fps)
    t_pred = round(5.0 * fps)
    m = t_obs + t_pred
    t0 = t_obs - 1
    return [
        _logistic_track(1, fps, m, t0, x0=10.0, v=25.0, lane0=2, amplitude=0.0),
        _logistic_track(2, fps, m, t0, x0=200.0, v=30.0, lane0=1,
                        amplitude=LANE_WIDTH),
        _logistic_track(3, fps, m, t0, x0=400.0, v=28.0, lane0=3,
                        amplitude=-LANE_WIDTH),
    ]


def write_tracks_csv(path, tracks, schema="normalized"):
    """Dump tracks as one row per (frame, vehicle), in the given schema."""
    cols = SCHEMAS[schema]
    order = ("frame", "vehicle_id", "x", "y", "vx", "vy", "lane_id")
    rows = []
    for tr in tracks:
        for i in range(len(tr)):
            rows.append((int(tr.frame[i]), tr.vehicle_id, repr(float(tr.x[i])),
                         repr(float(tr.y[i])), repr(float(tr.vx[i])),
                         repr(float(tr.vy[i])), int(tr.lane_id[i])))
    rows.sort(key=lambda r: (r[0], r[1]))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([cols[name] for name in order])
        writer.writerows(rows)
