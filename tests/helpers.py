"""Shared builders for the test suite."""
import csv
import json
import logging
import math
from collections import defaultdict

import numpy as np
from scipy.special import expit

from gftnn import special
from gftnn.graph import Graph
from gftnn.model import (LN_EPS, ModelConfig, ModelParams, _ensure_finite,
                         gelu, gelu_grad)
from gftnn.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS
from gftnn.scenario import (ACCEL_RANGE, CHANNELS, LANE_WIDTH, MANEUVERS, RATE_RANGE,
                            SCHEMAS, SPEED_RANGE, ParseError, RawTrack,
                            ScenarioBatch, SchemaError, TrackBatch, _SCENE_VEHICLES,
                            _window_steps)


def tiny_config(**overrides):
    """Small but structurally complete model configuration (6 x 3 grid)."""
    base = dict(k=2, t_obs=6, t_pred=10, n_v=3, p=6, hidden=4, fps=2.0)
    base.update(overrides)
    return ModelConfig(**base)


def split_head(path):
    """The parsed head line of an archive or checkpoint file and the bytes
    after its newline."""
    line, rest = path.read_bytes().split(b"\n", 1)
    return json.loads(line), rest


def edited_head(change):
    """A byte edit of an archive or checkpoint file that applies ``change``
    to its parsed head and writes the head back as json.dumps would, keeping
    the arrays after it."""
    def edit(data):
        line, rest = data.split(b"\n", 1)
        head = json.loads(line)
        change(head)
        return json.dumps(head).encode() + b"\n" + rest
    return edit


def rewrite_head(path, change):
    """Apply ``edited_head(change)`` to the file at ``path``."""
    path.write_bytes(edited_head(change)(path.read_bytes()))


def poked(name, row, value, item=0):
    """A byte edit of an archive or checkpoint file that writes ``value``,
    as float64, over item ``item`` of row ``row`` of its payload array
    ``name``, keeping every other byte."""
    def edit(data):
        line = data[:data.index(b"\n") + 1]
        arrays = json.loads(line)["arrays"]
        names = list(arrays)
        at = len(line) + 8 * sum(math.prod(arrays[key]) for key in names[:names.index(name)])
        at += 8 * (row * math.prod(arrays[name][1:]) + item)
        return data[:at] + np.float64(value).tobytes() + data[at + 8:]
    return edit


def adam_step_per_array(params, grads, state, config):
    """Reference Adam update, one loop iteration per named parameter array,
    in ``training.adam_step``'s ordering.

    ``state`` is a dict of step count and named moments; returns the new
    named parameters and state.
    """
    t = state["step"] + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    root_c2 = math.sqrt(1.0 - b2 ** t)
    alpha = config.learning_rate * root_c2 / (1.0 - b1 ** t)
    new_m, new_v, new_p = {}, {}, {}
    grad_map = dict(grads.items())
    for name, p_arr in params.items():
        g = grad_map[name]
        m = b1 * state["m"][name] + (1.0 - b1) * g
        v = b2 * state["v"][name] + (1.0 - b2) * g * g
        update = (m / (np.sqrt(v) + ADAM_EPS * root_c2)) * alpha
        new_m[name] = m
        new_v[name] = v
        new_p[name] = p_arr - update
    return new_p, {"step": t, "m": new_m, "v": new_v}


def forward_per_channel(s, params, config):
    """The encoder as one Python loop over channel blocks, kept as the
    oracle the stacked ``model.forward`` must match bit for bit, with the
    runtime's own ``expit`` so that it tests the stacking and not the
    sigmoid's rounding. Returns the (B, 3) latents and a cache of the
    gated spectra, one (sig, normed, z_lin, act) tuple per block, and the
    sigmoids."""
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
    sg = special.expit(np.concatenate(parts, axis=1))
    h_z = sg @ params.w_h.T + params.b_h
    _ensure_finite(h_z, "head")
    return h_z, {"h_s": h_s, "blocks": blocks, "sg": sg}


def backward_per_channel(s, dx, dy, h_z, cache, params, config):
    """Gradients of the batch-mean loss from a ``forward_per_channel``
    cache, one loop iteration per channel block, into fresh arrays: the
    oracle of ``training._backward_batch``. The decoder partials are
    written out as their own formulas, each (B, T_pred + 1), and the GELU
    derivative computes its own Phi."""
    b, t_pred = dx.shape
    scale = 2.0 / (b * t_pred)
    d_xhat = scale * dx
    d_yhat = scale * dy
    t = np.arange(t_pred + 1) / config.fps
    tau = t - 0.5 * (t_pred / config.fps)
    g = special.expit(-h_z[:, 2:3] * tau)
    g0 = g[:, :1]
    dx_dh1 = np.broadcast_to(0.5 * t * t, g.shape).copy()
    dy_dh2 = g - g0
    dy_dh3 = h_z[:, 1:2] * (-tau * g * (1.0 - g) + tau[0] * g0 * (1.0 - g0))
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
    root_c2 = math.sqrt(1.0 - b2 ** t)
    alpha = learning_rate * root_c2 / (1.0 - b1 ** t)
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    update = (m / (np.sqrt(v) + ADAM_EPS * root_c2)) * alpha
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


def star_secular_equation(leaf_weights):
    """The secular equation of ``spectral.star_spectra`` for a (B, m) stack of
    leaf weights, set up as star_spectra sets it up: (c, d2, delta, gap) with
    f(tau) = c - tau - sum_j d2_j / (delta_j - tau) for the root above each
    sorted leaf, ``gap`` its bracket (0 where the leaf is not a pole)."""
    w = np.asarray(leaf_weights, dtype=np.float64)
    d = np.sort(w, axis=1, kind="stable")
    pole = np.append(d[:, :-1] < d[:, 1:], np.ones((len(d), 1), bool), axis=1)
    s = w.sum(axis=1, keepdims=True)
    gap = np.where(pole, np.append(np.diff(d, axis=1), 2.0 * s - d[:, -1:], axis=1), 0.0)
    return s - d, d * d, d[:, None, :] - d[:, :, None], gap


def star_secular(c, d2, delta, tau):
    """f at one tau per (B, m) entry, evaluated as star_spectra evaluates it."""
    return c - tau - np.sum(d2[:, None, :] / (delta - tau[..., None]), axis=2)


def bisect_star_secular(c, d2, delta, gap):
    """Reference roots of ``star_secular_equation``: the bisection
    star_spectra used before its rational steps. At most 64 halvings on the
    bit patterns of positive floats reach adjacent floats lo < hi with
    f(lo) > 0 >= f(hi); the root is the one with the smaller |f|, and 0 where the gap
    is 0."""
    lo = np.zeros(gap.shape, np.int64)
    hi = gap.view(np.int64).copy()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while np.any(open_ := hi - lo > 1):
            mid = lo + (hi - lo) // 2
            up = star_secular(c, d2, delta, mid.view(np.float64)) > 0.0
            lo = np.where(open_ & up, mid, lo)
            hi = np.where(open_ & ~up, mid, hi)
        tau_lo, tau_hi = lo.view(np.float64), hi.view(np.float64)
        tau = np.where(np.abs(star_secular(c, d2, delta, tau_hi))
                       <= np.abs(star_secular(c, d2, delta, tau_lo)), tau_hi, tau_lo)
    return np.where(gap > 0.0, tau, 0.0)


def tracks_from_columns(tracks) -> TrackBatch:
    """One ``TrackBatch`` of ``tracks``, (vehicle_id, frame, x, y, vx, vy,
    lane_id) column tuples, in their order: the track rule checks them
    once, not once per track."""
    ids, frame, x, y, vx, vy, lane = zip(*tracks)
    return TrackBatch(ids, np.cumsum([0, *map(np.size, frame)]), np.concatenate(frame),
                      np.concatenate(lane), [np.concatenate(c) for c in (x, y, vx, vy)])


def _logistic_track(vehicle_id, fps, n_frames, t0_index, x0, v, lane0,
                    amplitude, rate=2.0):
    times = np.arange(n_frames) / fps
    mid = times[t0_index] + 0.5 * (n_frames - 1 - t0_index) / fps
    x = x0 + v * times
    g = expit(rate * (times - mid))
    y = (lane0 + 0.5) * LANE_WIDTH + amplitude * g
    vy = amplitude * rate * g * (1.0 - g)
    lane = np.floor(y / LANE_WIDTH).astype(np.int64)
    return vehicle_id, np.arange(n_frames), x, y, np.full(n_frames, float(v)), vy, lane


def three_class_tracks(fps):
    """Three vehicles, one maneuver class each, sharing frames 0..M-1, as
    one ``TrackBatch``."""
    t_obs = round(3.0 * fps)
    t_pred = round(5.0 * fps)
    m = t_obs + t_pred
    t0 = t_obs - 1
    return tracks_from_columns([
        _logistic_track(1, fps, m, t0, x0=10.0, v=25.0, lane0=2, amplitude=0.0),
        _logistic_track(2, fps, m, t0, x0=200.0, v=30.0, lane0=1,
                        amplitude=LANE_WIDTH),
        _logistic_track(3, fps, m, t0, x0=400.0, v=28.0, lane0=3,
                        amplitude=-LANE_WIDTH),
    ])


def write_tracks_csv(path, tracks, schema="normalized"):
    """Dump tracks as one row per (frame, vehicle), in the given schema,
    with LF line ends."""
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
        writer = csv.writer(fh, lineterminator="\n")
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
    """Seeded four-lane recording for extraction checks, one ``TrackBatch``
    in shuffled order.

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
    at the last observed frame of vehicle 1's second window. Entries start
    two windows after frame 0, so no frame is negative.
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
        frame = 2 * window + int(rng.integers(0, window)) + np.arange(n)
        tracks.append((vid, frame[keep], x[keep], (lane[keep] + 0.5) * LANE_WIDTH,
                       np.full(n, v)[keep], np.zeros(n)[keep], lane[keep]))
    _, lead_frame, lead_x, lead_y, lead_vx, lead_vy, lead_lane = tracks[0]
    gap = 12.5
    twins = [(n_tracks + 1, gap), (n_tracks + 2, gap), (n_tracks + 3, -gap)]
    if duplicate_id:
        twins.append((n_tracks + 3, -gap))
    for k, (vid, dx) in enumerate(twins, start=1):
        tracks.append((vid, lead_frame, lead_x + dx, lead_y, lead_vx + k, lead_vy, lead_lane))
    leave = int(lead_frame[0]) + window - 1
    frame = np.arange(leave - 3 * window, leave) + 1
    v = lead_vx[0]
    x = np.round((lead_x[0] + 3.0 + v * (frame - lead_frame[0]) / fps) * 16.0) / 16.0
    lane = int(lead_lane[0]) + (1 if lead_lane[0] < 4 else -1)
    n = frame.size
    tracks.append((n_tracks + 5, frame, x, np.full(n, (lane + 0.5) * LANE_WIDTH),
                   np.full(n, v), np.zeros(n), np.full(n, lane)))
    return tracks_from_columns([tracks[i] for i in rng.permutation(len(tracks))])


def _window_rows_reference(track: RawTrack, first_frame: int, n_frames: int):
    """Row indices covering [first_frame, first_frame + n_frames), or None."""
    needed = np.arange(first_frame, first_frame + n_frames)
    pos = np.searchsorted(track.frame, needed)
    if np.any(pos >= track.frame.size) or np.any(track.frame[pos] != needed):
        return None
    return pos


def label_maneuver_reference(lane_ids, lateral, t0_index: int) -> str:
    """The scalar loop ``label_maneuver`` had before it wrapped the batched
    rule, kept verbatim as the oracle of that rule.

    Label from the lane sequence at and after the last observed step.

    A change of lane id inside the prediction window marks a lane change;
    the direction comes from the lateral displacement at the first frame
    whose lane differs (falling back to the end of the window if that
    displacement is exactly zero). y grows to the left.
    """
    lane_ids = np.asarray(lane_ids)
    lateral = np.asarray(lateral, dtype=np.float64)
    if lane_ids.shape != lateral.shape or lane_ids.ndim != 1:
        raise ValueError("lane_ids and lateral must be 1-d and equally long")
    if not 0 <= t0_index < lane_ids.size:
        raise ValueError(f"t0_index {t0_index} out of range")
    lane0 = lane_ids[t0_index]
    for j in range(t0_index + 1, lane_ids.size):
        if lane_ids[j] != lane0:
            dy = lateral[j] - lateral[t0_index]
            if dy == 0.0:
                dy = lateral[-1] - lateral[t0_index]
            if dy > 0.0:
                return "lane_change_left"
            if dy < 0.0:
                return "lane_change_right"
            return "keep_lane"
    return "keep_lane"


def extract_scenarios_reference(tracks, fps, t_obs: float = 3.0,
                                t_pred: float = 5.0, n_vehicles: int = 9,
                                target_ids=None) -> ScenarioBatch:
    """The quadratic extractor ``extract_scenarios`` replaced, kept as the
    oracle its output must match bit for bit: every window scans every
    other track for coverage. The windows' arrays are stacked into one
    ``ScenarioBatch`` at the end.

    Slide fixed windows over every track and cut model-ready scenarios.

    Windows advance by the prediction length, so consecutive futures of
    one target do not overlap. A window needs the target fully covered
    over observation and prediction; neighbours only need the observation
    part and are ranked by distance to the target at the last observed
    step. Free slots are filled with ghost copies of the target.
    """
    if fps <= 0:
        raise ValueError(f"fps must be positive, got {fps}")
    t_obs_steps = round(fps * t_obs)
    t_pred_steps = round(fps * t_pred)
    if t_obs_steps < 2 or t_pred_steps < 1:
        raise ValueError(f"window too short at fps={fps}")
    if n_vehicles < 2:
        raise ValueError(f"need at least 2 vehicle slots, got {n_vehicles}")
    window = t_obs_steps + t_pred_steps
    ids, maneuvers, v0s, features, futures = [], [], [], [], []
    first_frames, vehicle_ids = [], []
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
                start += t_pred_steps
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
            maneuver = label_maneuver_reference(target.lane_id[rows], target.y[rows],
                                                t_obs_steps - 1)
            ids.append(f"v{target.vehicle_id}-f{start}")
            first_frames.append(start)
            vehicle_ids.append(target.vehicle_id)
            maneuvers.append(maneuver)
            v0s.append(float(target.vx[i0]))
            features.append(feats)
            futures.append(future)
            start += t_pred_steps
    if skipped:
        logging.getLogger("gftnn.scenario").info(
            "extract_scenarios: skipped %d windows with coverage gaps", skipped)
    return ScenarioBatch(
        tuple(ids), maneuvers, v0s, first_frames, vehicle_ids,
        np.reshape(features, (-1, len(CHANNELS), t_obs_steps, n_vehicles)),
        np.reshape(futures, (-1, t_pred_steps, 2)), float(fps))


def synthetic_scenes_reference(rng, maneuvers, fps, n_frames, t0_index, t_pred_s,
                                n_vehicles, noise_std):
    """The tracks of one scene per maneuver, scene after scene, as one
    ``TrackBatch``: a target with that maneuver plus random cruisers.

    Scene i covers frames i·n_frames onward; its target has vehicle id
    1 + i·_SCENE_VEHICLES and its cruisers the ids after it, so no
    vehicle is in view with another scene's. Longitudinal motion is
    uniformly accelerated; lane changes follow a logistic lateral profile
    of one lane width, centred halfway into the prediction window, which
    keeps the lane id at the last observed step unchanged and flips it
    inside the window. Lane ids come from the noise-free lateral position
    so labels stay exact under sensor noise.

    The per-scene generator ``scenario._synthetic_scenes`` replaced, kept
    verbatim as the oracle of its draws and columns, but for gftnn's own
    ``special.expit`` and one batch of all tracks in place of one
    ``RawTrack`` per track.
    """
    times = np.arange(n_frames) / fps
    tracks = []
    for i, maneuver in enumerate(maneuvers):
        v0 = rng.uniform(*SPEED_RANGE)
        accel = rng.uniform(*ACCEL_RANGE)
        x0 = rng.uniform(0.0, 200.0)
        lane0 = int(rng.integers(1, 5))
        y0 = (lane0 + 0.5) * LANE_WIDTH
        rate = rng.uniform(*RATE_RANGE)
        amplitude = {"keep_lane": 0.0,
                     "lane_change_left": LANE_WIDTH,
                     "lane_change_right": -LANE_WIDTH}[maneuver]
        mid = times[t0_index] + 0.5 * t_pred_s
        x = x0 + v0 * times + 0.5 * accel * times ** 2
        vx = v0 + accel * times
        g = special.expit(rate * (times - mid))
        y = y0 + amplitude * g
        vy = amplitude * rate * g * (1.0 - g)
        lane = np.floor(y / LANE_WIDTH).astype(np.int64)
        frames = np.arange(i * n_frames, (i + 1) * n_frames)
        first_id = 1 + i * _SCENE_VEHICLES
        if noise_std > 0.0:
            x = x + rng.normal(0.0, noise_std, n_frames)
            y = y + rng.normal(0.0, noise_std, n_frames)
        tracks.append((first_id, frames, x, y, vx, vy, lane))
        n_neighbours = int(rng.integers(0, min(_SCENE_VEHICLES - 1, n_vehicles - 1) + 1))
        for j in range(n_neighbours):
            vn = rng.uniform(*SPEED_RANGE)
            dx0 = rng.uniform(-80.0, 80.0)
            lane_n = int(rng.integers(1, 5))
            yn0 = (lane_n + 0.5) * LANE_WIDTH
            xn = x0 + dx0 + vn * times
            yn = np.full(n_frames, yn0)
            if noise_std > 0.0:
                xn = xn + rng.normal(0.0, noise_std, n_frames)
                yn = yn + rng.normal(0.0, noise_std, n_frames)
            tracks.append((first_id + 1 + j, frames, xn, yn, np.full(n_frames, vn),
                           np.zeros(n_frames), np.full(n_frames, lane_n, dtype=np.int64)))
    return tracks_from_columns(tracks)


def synthesize_reference(n: int, fps, seed: int, noise_std: float = 0.0,
                         t_obs: float = 3.0, t_pred: float = 5.0,
                         n_vehicles: int = 9) -> ScenarioBatch:
    """The per-scene ``synthesize`` the one-call version replaced, kept as
    the oracle its output must match bit for bit: each scene is drawn on
    its own (frames from 0, target id 1) and cut by the quadratic
    ``extract_scenarios_reference``. The scenes' arrays are stacked into
    one ``ScenarioBatch`` at the end, each scene's first frame and target
    id renumbered to its place in one batch of all scenes (scene i from
    frame i·n_frames, its target id 1 + i·_SCENE_VEHICLES).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    t_obs_steps, t_pred_steps = _window_steps(fps, t_obs, t_pred)
    rng = np.random.default_rng(seed)
    n_frames = t_obs_steps + t_pred_steps
    maneuvers, v0s, features, futures = [], [], [], []
    first_frames, vehicle_ids = [], []
    for i in range(n):
        maneuver = MANEUVERS[i % 3]
        tracks = synthetic_scenes_reference(
            rng, [maneuver], fps, n_frames, t_obs_steps - 1,
            t_pred_steps / fps, n_vehicles, noise_std)
        scen = extract_scenarios_reference(tracks, fps, t_obs, t_pred, n_vehicles,
                                           target_ids={1})
        if len(scen) != 1 or scen[0].maneuver != maneuver:
            raise RuntimeError(
                f"synthetic scene {i} produced {len(scen)} scenarios "
                f"with labels {[s.maneuver for s in scen]}, wanted {maneuver}"
            )
        s = scen[0]
        maneuvers.append(s.maneuver)
        v0s.append(s.v0)
        first_frames.append(s.first_frame + i * n_frames)
        vehicle_ids.append(s.vehicle_id + i * _SCENE_VEHICLES)
        features.append(s.features)
        futures.append(s.future)
    return ScenarioBatch(tuple(f"synth-{i:05d}" for i in range(n)), maneuvers, v0s,
                         first_frames, vehicle_ids, np.stack(features), np.stack(futures),
                         float(fps))
