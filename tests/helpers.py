"""Shared builders for the test suite."""
import csv
import json
import logging
from collections import defaultdict
from dataclasses import asdict

import numpy as np
from scipy.special import expit

from gftnn.graph import Graph
from gftnn.model import (LN_EPS, ModelConfig, ModelParams, _ensure_finite,
                         decode_partials, gelu, gelu_grad)
from gftnn.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS
from gftnn.scenario import (CHANNELS, LANE_WIDTH, SCHEMAS, ParseError, RawTrack,
                            Scenario, SchemaError, label_maneuver)


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


def forward_per_channel(s, params, config):
    """The encoder as one Python loop over channel blocks, kept as the
    oracle the stacked ``model.forward`` must match bit for bit. Returns
    the (B, 3) latents and a cache of the gated spectra, one
    (sig, normed, z_lin, act) tuple per block, and the sigmoids."""
    h_s = s * params.w_s
    _ensure_finite(h_s, "spectral_gate")
    zk = config.zk
    parts = []
    blocks = []
    for k in range(config.k):
        x = h_s[:, k * zk:(k + 1) * zk]
        mu = x.mean(axis=1, keepdims=True)
        sig = np.sqrt(x.var(axis=1, keepdims=True) + LN_EPS)
        normed = (x - mu) / sig
        z_lin = normed @ params.w_n[k].T + params.b_n[k]
        act = gelu(z_lin)
        out = act @ params.w_l[k].T + params.b_l[k]
        _ensure_finite(out, f"mlp_block_{k}")
        parts.append(out)
        blocks.append((sig, normed, z_lin, act))
    sg = expit(np.concatenate(parts, axis=1))
    h_z = sg @ params.w_h.T + params.b_h
    _ensure_finite(h_z, "head")
    return h_z, {"h_s": h_s, "blocks": blocks, "sg": sg}


def backward_per_channel(s, dx, dy, h_z, cache, params, config):
    """Gradients of the batch-mean loss from a ``forward_per_channel``
    cache, one loop iteration per channel block, into fresh arrays: the
    oracle of ``training._backward_batch``."""
    b, t_pred = dx.shape
    scale = 2.0 / (b * t_pred)
    d_xhat = scale * dx
    d_yhat = scale * dy
    dx_dh1, dy_dh2, dy_dh3 = decode_partials(h_z, t_pred, config.fps)
    d_h1 = np.sum(d_xhat * dx_dh1[:, 1:], axis=1)
    d_h2 = np.sum(d_yhat * dy_dh2[:, 1:], axis=1)
    d_h3 = np.sum(d_yhat * dy_dh3[:, 1:], axis=1)
    d_hz = np.stack([d_h1, d_h2, d_h3], axis=1)
    sg = cache["sg"]
    grads = ModelParams(params.shapes)
    grads.w_h[:] = d_hz.T @ sg
    grads.b_h[:] = d_hz.sum(axis=0)
    d_hc = (d_hz @ params.w_h) * sg * (1.0 - sg)
    h_s = cache["h_s"]
    d_hs = np.empty_like(h_s)
    zk = config.zk
    for k, (sig, normed, z_lin, act) in enumerate(cache["blocks"]):
        d_out = d_hc[:, 3 * k:3 * k + 3]
        grads.w_l[k][:] = d_out.T @ act
        grads.b_l[k][:] = d_out.sum(axis=0)
        d_z = (d_out @ params.w_l[k]) * gelu_grad(z_lin)
        grads.w_n[k][:] = d_z.T @ normed
        grads.b_n[k][:] = d_z.sum(axis=0)
        d_norm = d_z @ params.w_n[k]
        d_hs[:, k * zk:(k + 1) * zk] = (
            d_norm - d_norm.mean(axis=1, keepdims=True)
            - normed * np.mean(d_norm * normed, axis=1, keepdims=True)) / sig
    grads.w_s[:] = np.sum(d_hs * s, axis=0)
    return grads


def adam_step_fresh(flat, g, m, v, step, learning_rate):
    """One flat-vector Adam update into fresh arrays, the oracle of the
    in-place ``training.adam_step``; returns the new params, m and v."""
    t = step + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    update = learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return flat - update, m, v


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


def ingest_tracks_reference(path, schema: str = "normalized") -> list[RawTrack]:
    """Read per-frame vehicle samples from CSV and group them into tracks,
    one csv.reader row and one int()/float() per value at a time: the row
    loop ``ingest_tracks`` had before it parsed with np.loadtxt.

    Blank lines are skipped. A row that is too short for a needed column,
    or that does not parse, raises ParseError naming its line.
    """
    if schema not in SCHEMAS:
        raise ValueError(f"unknown schema {schema!r}, expected one of {sorted(SCHEMAS)}")
    mapping = SCHEMAS[schema]
    columns = defaultdict(list)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: empty file")
        # A repeated name means its last column, as csv.DictReader read it.
        index = {name: i for i, name in enumerate(header)}
        for col in mapping.values():
            if col not in index:
                raise SchemaError(f"{path}: missing column '{col}'")
        vid, frame, x, y, vx, vy, lane = (index[mapping[name]] for name in (
            "vehicle_id", "frame", "x", "y", "vx", "vy", "lane_id"))
        try:
            for row in reader:
                if row:
                    columns[int(row[vid])].append((
                        int(row[frame]), float(row[x]), float(row[y]),
                        float(row[vx]), float(row[vy]), int(row[lane]),
                    ))
        except IndexError:
            raise ParseError(f"{path}: row {reader.line_num} has {len(row)} "
                             f"columns, the header has {len(header)}") from None
        except (ValueError, csv.Error) as exc:
            raise ParseError(f"{path}: row {reader.line_num}: {exc}") from None
    tracks = []
    for vehicle in sorted(columns):
        rows = sorted(columns[vehicle])
        frames = [r[0] for r in rows]
        if len(set(frames)) != len(frames):
            raise ParseError(f"{path}: vehicle {vehicle} has duplicate frames")
        try:
            arr = np.asarray(rows, dtype=np.float64)
            # Ids stay integers: float64 would round those above 2**53.
            tracks.append(RawTrack(
                vehicle_id=vehicle, frame=np.array(frames, dtype=np.int64),
                x=arr[:, 1], y=arr[:, 2], vx=arr[:, 3], vy=arr[:, 4],
                lane_id=np.array([r[5] for r in rows], dtype=np.int64),
            ))
        except (ValueError, OverflowError) as exc:
            raise ParseError(f"{path}: {exc}") from None
    return tracks


def multilane_scene(seed, fps, n_tracks=12, duplicate_id=False):
    """Seeded four-lane recording for extraction checks, in shuffled order.

    Vehicles enter at staggered frames and stay for half a window to two
    and a half windows (3 s observed plus 5 s predicted), so some give no
    window and some several. Every third one changes lane at a random
    frame, every third one loses a few frames (a coverage gap). Positions
    lie on a 1/16 m grid, so differences of positions are exact. Three
    twins of vehicle 1 share its frames and lane at one gap from it: two
    ahead, in the same place, and one behind, so that their distances
    tie exactly. With ``duplicate_id`` a fourth twin sits in the place of
    the one behind and carries its vehicle id. The last vehicle, the
    longest track, drives in the next lane close to vehicle 1 and leaves
    at the last observed frame of vehicle 1's second window.
    """
    rng = np.random.default_rng(seed)
    window = round(3.0 * fps) + round(5.0 * fps)
    tracks = []
    for vid in range(1, n_tracks + 1):
        n = 2 * window if vid == 1 else int(rng.integers(window // 2, 5 * window // 2))
        v = rng.uniform(20.0, 35.0)
        x = np.round((rng.uniform(0.0, 150.0) + v * np.arange(n) / fps) * 16.0) / 16.0
        lane = np.full(n, int(rng.integers(1, 5)))
        keep = np.ones(n, dtype=bool)
        if vid % 3 == 1:
            lane[int(rng.integers(n)):] += 1 if lane[0] < 4 else -1
        elif vid % 3 == 2:
            gap = int(rng.integers(1, n - 5))
            keep[gap:gap + int(rng.integers(1, 5))] = False
        frame = int(rng.integers(0, window)) + np.arange(n)
        tracks.append(RawTrack(vid, frame[keep], x[keep], (lane[keep] + 0.5) * LANE_WIDTH,
                               np.full(n, v)[keep], np.zeros(n)[keep], lane[keep]))
    lead = tracks[0]
    gap = 12.5
    twins = [(n_tracks + 1, gap), (n_tracks + 2, gap), (n_tracks + 3, -gap)]
    if duplicate_id:
        twins.append((n_tracks + 3, -gap))
    for k, (vid, dx) in enumerate(twins, start=1):
        tracks.append(RawTrack(vid, lead.frame, lead.x + dx, lead.y,
                               lead.vx + k, lead.vy, lead.lane_id))
    leave = int(lead.frame[0]) + window - 1
    frame = np.arange(leave - 3 * window, leave) + 1
    v = lead.vx[0]
    x = np.round((lead.x[0] + 3.0 + v * (frame - lead.frame[0]) / fps) * 16.0) / 16.0
    lane = int(lead.lane_id[0]) + (1 if lead.lane_id[0] < 4 else -1)
    n = frame.size
    tracks.append(RawTrack(n_tracks + 5, frame, x, np.full(n, (lane + 0.5) * LANE_WIDTH),
                           np.full(n, v), np.zeros(n), np.full(n, lane)))
    return [tracks[i] for i in rng.permutation(len(tracks))]


def _window_rows_reference(track: RawTrack, first_frame: int, n_frames: int):
    """Row indices covering [first_frame, first_frame + n_frames), or None."""
    needed = np.arange(first_frame, first_frame + n_frames)
    pos = np.searchsorted(track.frame, needed)
    if np.any(pos >= track.frame.size) or np.any(track.frame[pos] != needed):
        return None
    return pos


def extract_scenarios_reference(tracks, fps, t_obs: float = 3.0,
                                t_pred: float = 5.0, n_vehicles: int = 9,
                                stride: int | None = None,
                                target_ids=None) -> list[Scenario]:
    """The quadratic extractor ``extract_scenarios`` replaced, kept verbatim
    as the oracle its output must match bit for bit: every window scans
    every other track for coverage.

    Slide fixed windows over every track and cut model-ready scenarios.

    Windows advance by ``stride`` frames (default: the prediction length,
    so consecutive futures of one target do not overlap). A window needs
    the target fully covered over observation and prediction; neighbours
    only need the observation part and are ranked by distance to the
    target at the last observed step. Free slots are filled with ghost
    copies of the target.
    """
    if fps <= 0:
        raise ValueError(f"fps must be positive, got {fps}")
    t_obs_steps = round(fps * t_obs)
    t_pred_steps = round(fps * t_pred)
    if t_obs_steps < 2 or t_pred_steps < 1:
        raise ValueError(f"window too short at fps={fps}")
    if n_vehicles < 2:
        raise ValueError(f"need at least 2 vehicle slots, got {n_vehicles}")
    if stride is None:
        stride = t_pred_steps
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    window = t_obs_steps + t_pred_steps
    scenarios = []
    skipped = 0
    for target in sorted(tracks, key=lambda tr: tr.vehicle_id):
        if target_ids is not None and target.vehicle_id not in target_ids:
            continue
        start = int(target.frame[0])
        last = int(target.frame[-1])
        while start + window - 1 <= last:
            rows = _window_rows_reference(target, start, window)
            if rows is None:
                skipped += 1
                start += stride
                continue
            obs = rows[:t_obs_steps]
            pred = rows[t_obs_steps:]
            i0 = obs[-1]
            origin_x = target.x[obs[0]]
            origin_y = target.y[obs[0]]
            feats = np.empty((len(CHANNELS), t_obs_steps, n_vehicles))
            feats[0, :, 0] = target.x[obs] - origin_x
            feats[1, :, 0] = target.y[obs] - origin_y
            feats[2, :, 0] = target.vx[obs]
            feats[3, :, 0] = target.vy[obs]
            neighbours = []
            for other in tracks:
                if other.vehicle_id == target.vehicle_id:
                    continue
                orows = _window_rows_reference(other, start, t_obs_steps)
                if orows is None:
                    continue
                o0 = orows[-1]
                d = float(np.hypot(other.x[o0] - target.x[i0],
                                   other.y[o0] - target.y[i0]))
                neighbours.append((d, other.vehicle_id, other, orows))
            neighbours.sort(key=lambda item: (item[0], item[1]))
            for slot, (_, _, other, orows) in enumerate(
                    neighbours[:n_vehicles - 1], start=1):
                feats[0, :, slot] = other.x[orows] - origin_x
                feats[1, :, slot] = other.y[orows] - origin_y
                feats[2, :, slot] = other.vx[orows]
                feats[3, :, slot] = other.vy[orows]
            for slot in range(1 + len(neighbours[:n_vehicles - 1]), n_vehicles):
                feats[:, :, slot] = feats[:, :, 0]
            future = np.stack([
                target.x[pred] - target.x[i0],
                target.y[pred] - target.y[i0],
            ], axis=1)
            maneuver = label_maneuver(target.lane_id[rows], target.y[rows],
                                      t_obs_steps - 1)
            scenarios.append(Scenario(
                scenario_id=f"v{target.vehicle_id}-f{start}",
                features=feats,
                future=future,
                v0=float(target.vx[i0]),
                fps=float(fps),
                maneuver=maneuver,
            ))
            start += stride
    if skipped:
        logging.getLogger("gftnn.scenario").info(
            "extract_scenarios: skipped %d windows with coverage gaps", skipped)
    return scenarios
