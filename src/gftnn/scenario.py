"""Scenario extraction and synthesis for highway trajectory prediction.

A scenario is a fixed-size snapshot around one target vehicle: K=4 feature
channels (x_rel, y_rel, vx_rel, vy_rel) over T_obs observed steps and up to
N_V - 1 neighbours, plus the target's future displacement for the next
T_pred steps. Positions are taken relative to the target so the model is
translation invariant; velocities are kept as recorded (already
translation invariant). Lateral y grows to the left in driving direction,
so a positive lateral displacement is a left lane change.
"""
from __future__ import annotations

import csv
import io
import json
import logging
import warnings
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np
from scipy.special import expit

from .store import Table, encode_array, read_document

log = logging.getLogger(__name__)

MANEUVERS = ("keep_lane", "lane_change_left", "lane_change_right")
CHANNELS = ("x_rel", "y_rel", "vx_rel", "vy_rel")
LANE_WIDTH = 3.5
ARCHIVE_VERSION = 2

# column mapping: canonical name -> file column per input schema
SCHEMAS = {
    "normalized": {
        "frame": "frame", "vehicle_id": "vehicle_id", "x": "x", "y": "y",
        "vx": "vx", "vy": "vy", "lane_id": "lane_id",
    },
    "highd_like": {
        "frame": "frame", "vehicle_id": "id", "x": "x", "y": "y",
        "vx": "xVelocity", "vy": "yVelocity", "lane_id": "laneId",
    },
}


# One data row of a track CSV as ingest_tracks reads it: the vehicle id,
# then RawTrack's arrays.
_ROW = np.dtype([("vehicle_id", np.int64), ("frame", np.int64), ("x", np.float64),
                 ("y", np.float64), ("vx", np.float64), ("vy", np.float64),
                 ("lane_id", np.int64)])


class SchemaError(ValueError):
    """Input file does not have the promised columns."""


class ParseError(ValueError):
    """A row could not be converted to track samples."""


class BalanceError(ValueError):
    """Class balancing is impossible (some maneuver class is empty)."""


class SplitError(ValueError):
    """Dataset too small to split."""


def _frozen(values, dtype=np.float64):
    arr = np.ascontiguousarray(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class RawTrack:
    """One vehicle's recorded samples, ordered by frame."""

    vehicle_id: int
    frame: np.ndarray
    x: np.ndarray
    y: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    lane_id: np.ndarray

    def __post_init__(self):
        frame = np.ascontiguousarray(self.frame, dtype=np.int64)
        if frame.ndim != 1 or frame.size == 0:
            raise ValueError("track must contain at least one sample")
        if np.any(frame[1:] <= frame[:-1]):     # np.diff could overflow
            raise ValueError(
                f"vehicle {self.vehicle_id}: frames must be strictly increasing"
            )
        frame.flags.writeable = False
        object.__setattr__(self, "frame", frame)
        lane = np.ascontiguousarray(self.lane_id, dtype=np.int64)
        if lane.shape != frame.shape:
            raise ValueError(f"vehicle {self.vehicle_id}: column length mismatch")
        lane.flags.writeable = False
        object.__setattr__(self, "lane_id", lane)
        for name in ("x", "y", "vx", "vy"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if arr.shape != frame.shape:
                raise ValueError(f"vehicle {self.vehicle_id}: column length mismatch")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"vehicle {self.vehicle_id}: non-finite {name}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self):
        return self.frame.size


@dataclass(frozen=True)
class Scenario:
    """Model-ready sample: observed features plus the target's future."""

    scenario_id: str
    features: np.ndarray        # (4, T_obs, N_V)
    future: np.ndarray          # (T_pred, 2) displacement from the last observed position
    v0: float                   # target longitudinal speed at the last observed step
    fps: float
    maneuver: str

    def __post_init__(self):
        f = np.asarray(self.features, dtype=np.float64)
        if f.ndim != 3 or f.shape[0] != len(CHANNELS):
            raise ValueError(f"features must be (4, T_obs, N_V), got {f.shape}")
        fut = np.asarray(self.future, dtype=np.float64)
        if fut.ndim != 2 or fut.shape[1] != 2 or fut.shape[0] < 1:
            raise ValueError(f"future must be (T_pred, 2), got {fut.shape}")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(fut))):
            raise ValueError(f"scenario {self.scenario_id}: non-finite data")
        if f[0, 0, 0] != 0.0 or f[1, 0, 0] != 0.0:
            raise ValueError(
                f"scenario {self.scenario_id}: target must start at the origin"
            )
        if self.maneuver not in MANEUVERS:
            raise ValueError(f"unknown maneuver {self.maneuver!r}")
        if not (np.isfinite(self.v0) and self.fps > 0):
            raise ValueError(f"scenario {self.scenario_id}: bad v0/fps")
        object.__setattr__(self, "features", _frozen(f))
        object.__setattr__(self, "future", _frozen(fut))

    @property
    def t_obs(self) -> int:
        return self.features.shape[1]

    @property
    def t_pred(self) -> int:
        return self.future.shape[0]

    @property
    def n_vehicles(self) -> int:
        return self.features.shape[2]


@dataclass(frozen=True)
class DatasetSplit:
    train: list
    test: list
    seed: int


def ingest_tracks(path, schema: str = "normalized") -> list[RawTrack]:
    """Read per-frame vehicle samples from CSV and group them into tracks.

    The header is read with csv.reader. numpy's C reader (``np.loadtxt``)
    then parses the data rows in one pass, converting only the columns the
    schema names, and one lexsort on (vehicle id, frame) groups them. Blank
    lines are skipped. Where the C reader fails or warns, or a field might
    be longer than csv's field size limit, a csv.reader loop reads the rows
    again, to the same values: a row that is too short for a needed column,
    or that does not parse, raises ParseError naming its line.
    """
    if schema not in SCHEMAS:
        raise ValueError(f"unknown schema {schema!r}, expected one of {sorted(SCHEMAS)}")
    mapping = SCHEMAS[schema]
    with open(path, newline="") as src:
        # A pipe cannot seek back for the row loop, so it is read to memory.
        fh = src if src.seekable() else io.StringIO(src.read(), newline="")
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: empty file")
        # A repeated name means its last column, as csv.DictReader read it.
        index = {name: i for i, name in enumerate(header)}
        for col in mapping.values():
            if col not in index:
                raise SchemaError(f"{path}: missing column '{col}'")
        columns = [index[mapping[name]] for name in _ROW.names]
        rows = _load_rows(fh, columns)
        if rows is None:
            fh.seek(0)
            rows = _read_rows(fh, path, columns)
    if not rows.size:
        return []
    rows = rows[np.lexsort((rows["frame"], rows["vehicle_id"]))]
    vehicle = rows["vehicle_id"]
    cuts = ((vehicle[1:] != vehicle[:-1]).nonzero()[0] + 1).tolist()
    tracks = []
    for lo, hi in zip([0, *cuts], [*cuts, rows.size]):
        track = rows[lo:hi]
        if np.any(track["frame"][1:] == track["frame"][:-1]):
            raise ParseError(f"{path}: vehicle {vehicle[lo]} has duplicate frames")
        try:
            tracks.append(RawTrack(vehicle_id=int(vehicle[lo]),
                                   **{name: track[name] for name in _ROW.names[1:]}))
        except (ValueError, OverflowError) as exc:
            raise ParseError(f"{path}: {exc}") from None
    return tracks


def _load_rows(fh, columns):
    """The rest of ``fh`` parsed by np.loadtxt into ``_ROW`` records, or
    None where its reading might differ from csv.reader's: it fails or
    warns, or a field might exceed csv's field size limit, which only
    csv.reader enforces."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(_within_field_limit(fh), dtype=_ROW, comments=None,
                              delimiter=",", quotechar='"', usecols=columns, ndmin=1)
    except (ValueError, Warning):
        return None


def _within_field_limit(lines):
    """The lines, up to one that might hold a field longer than csv's field
    size limit, where it raises ValueError. An unquoted field lies within
    one line; a quoted one may span lines, so once the text holds a quote
    and more characters than the limit, it stops."""
    limit = csv.field_size_limit()
    size = 0
    quoted = False
    for line in lines:
        size += len(line)
        quoted = quoted or '"' in line
        if len(line) > limit or (quoted and size > limit):
            raise ValueError("a field may exceed the field size limit")
        yield line


def _read_rows(fh, path, columns):
    """The data rows of CSV file ``fh`` read with csv.reader, int() and
    float(), as ``_ROW`` records. Integers beyond int64 make the integer
    columns Python ints, which RawTrack rejects for a frame or lane id.
    A row that is short or does not parse raises ParseError naming its
    line."""
    values = []
    vid, frame, x, y, vx, vy, lane = columns
    reader = csv.reader(fh)
    header = next(reader)
    try:
        for row in reader:
            if row:
                values.append((
                    int(row[vid]), int(row[frame]), float(row[x]), float(row[y]),
                    float(row[vx]), float(row[vy]), int(row[lane]),
                ))
    except IndexError:
        raise ParseError(f"{path}: row {reader.line_num} has {len(row)} "
                         f"columns, the header has {len(header)}") from None
    except (ValueError, csv.Error) as exc:
        raise ParseError(f"{path}: row {reader.line_num}: {exc}") from None
    try:
        return np.array(values, dtype=_ROW)
    except OverflowError:
        return np.array(values, dtype=[(name, object if _ROW[name].kind == "i" else float)
                                       for name in _ROW.names])


def label_maneuver(lane_ids, lateral, t0_index: int) -> str:
    """Label from the lane sequence at and after the last observed step.

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


def extract_scenarios(tracks, fps, t_obs: float = 3.0, t_pred: float = 5.0,
                      n_vehicles: int = 9, stride: int | None = None,
                      target_ids=None) -> list[Scenario]:
    """Slide fixed windows over every track and cut model-ready scenarios.

    Windows advance by ``stride`` frames (default: the prediction length,
    so consecutive futures of one target do not overlap). A window needs
    the target fully covered over observation and prediction; neighbours
    only need the observation part and are ranked by distance to the
    target at the last observed step, then by vehicle id, then by their
    order in ``tracks``. Free slots are filled with ghost copies of the
    target.

    The work is linear in tracks times windows: every track's rows go into
    one table, and a window looks up its neighbours among the contiguous
    frame runs that start at most one longest run before it.
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
    tracks = list(tracks)
    if not tracks:
        return []
    window = t_obs_steps + t_pred_steps
    # All rows, track after track: data holds x, y, vx, vy, and track i
    # owns rows track_row[i] up to track_row[i + 1].
    frame = np.concatenate([tr.frame for tr in tracks])
    data = np.concatenate([getattr(tr, name) for name in ("x", "y", "vx", "vy")
                           for tr in tracks]).reshape(4, frame.size)
    track_row = list(accumulate((len(tr) for tr in tracks), initial=0))
    # Runs of consecutive frames, in row order: run r covers frames
    # run_start[r]..run_end[r], frame f of it is row run_off[r] + f, and
    # track i owns runs track_run[i] up to track_run[i + 1]. opens marks
    # the first row of every run and, past the last row, the end.
    opens = np.empty(frame.size + 1, dtype=bool)
    np.not_equal(frame[1:] - frame[:-1], 1, out=opens[1:-1])
    opens[track_row] = True
    run_row = opens.nonzero()[0]
    run_start = frame[run_row[:-1]]
    run_end = frame[run_row[1:] - 1]
    run_off = run_row[:-1] - run_start
    track_run = run_row.searchsorted(track_row)
    run_track = np.arange(len(tracks)).repeat(track_run[1:] - track_run[:-1])
    longest = int((run_end - run_start).max()) + 1
    # Targets go in vehicle-id order, ties in input order. A track's id rank
    # is the place of the first track with its id in that order.
    order = sorted(range(len(tracks)), key=lambda i: tracks[i].vehicle_id)
    ids = [tracks[i].vehicle_id for i in order]
    id_rank = np.array([bisect_left(ids, tr.vehicle_id) for tr in tracks])
    # Neighbour candidates: the runs sorted by start frame.
    by_start = run_start.argsort(kind="stable")
    cand_start = run_start[by_start]
    cand_end = run_end[by_start]
    cand_off = run_off[by_start]
    cand_track = run_track[by_start]
    cand_id_rank = id_rank[cand_track]
    back = np.arange(1 - t_obs_steps, 1)[:, None]
    scenarios = []
    skipped = 0
    for i in order:
        target = tracks[i]
        if target_ids is not None and target.vehicle_id not in target_ids:
            continue
        # Windows whose frames one run of the target covers, and their
        # first rows.
        starts = np.arange(target.frame[0], target.frame[-1] - window + 2, stride)
        runs = slice(track_run[i], track_run[i + 1])
        run = run_start[runs].searchsorted(starts, side="right") + (runs.start - 1)
        covered = run_end[run] >= starts + (window - 1)
        skipped += starts.size - int(np.count_nonzero(covered))
        starts = starts[covered]
        firsts = run_off[run[covered]] + starts
        # A run that covers a window's observation starts at most one
        # longest run before its last observed frame, and not after its first.
        lows = cand_start.searchsorted(starts + (t_obs_steps - longest))
        highs = cand_start.searchsorted(starts, side="right")
        for start, first, lo, hi in zip(starts.tolist(), firsts.tolist(),
                                        lows.tolist(), highs.tolist()):
            last = start + t_obs_steps - 1
            i0 = first + t_obs_steps - 1
            cand = lo + ((cand_end[lo:hi] >= last)
                         & (cand_id_rank[lo:hi] != id_rank[i])).nonzero()[0]
            at = cand_off[cand] + last
            dist = np.hypot(*(data[:2].take(at, axis=1) - data[:2, i0, None]))
            nearest = np.lexsort((cand_track[cand], cand_id_rank[cand],
                                  dist))[:n_vehicles - 1]
            # The row of every slot at the last observed frame: the target,
            # its nearest neighbours, then ghost copies of the target.
            slot_at = np.full(n_vehicles, i0)
            slot_at[1:1 + nearest.size] = at[nearest]
            feats = data.take(back + slot_at, axis=1)
            feats[:2] -= data[:2, first, None, None]
            j = first - track_row[i]
            scenarios.append(Scenario(
                scenario_id=f"v{target.vehicle_id}-f{start}",
                features=feats,
                future=(data[:2, i0 + 1:first + window] - data[:2, i0, None]).T,
                v0=float(data[2, i0]),
                fps=float(fps),
                maneuver=label_maneuver(target.lane_id[j:j + window],
                                        target.y[j:j + window], t_obs_steps - 1),
            ))
    if skipped:
        log.info("extract_scenarios: skipped %d windows with coverage gaps", skipped)
    return scenarios


def balance(scenarios, seed: int) -> list[Scenario]:
    """Down-sample the majority classes to the size of the smallest one."""
    groups = {m: [] for m in MANEUVERS}
    for i, s in enumerate(scenarios):
        groups[s.maneuver].append(i)
    for m in MANEUVERS:
        if not groups[m]:
            raise BalanceError(f"no scenarios with maneuver '{m}'")
    n_min = min(len(g) for g in groups.values())
    rng = np.random.default_rng(seed)
    keep = []
    for m in MANEUVERS:
        idx = groups[m]
        if len(idx) > n_min:
            chosen = rng.choice(len(idx), size=n_min, replace=False)
            idx = [idx[i] for i in np.sort(chosen)]
        keep.extend(idx)
    return [scenarios[i] for i in sorted(keep)]


def split(scenarios, ratio: float, seed: int) -> DatasetSplit:
    """Deterministic stratified train/test split.

    Per-class quotas use largest-remainder rounding so the overall train
    fraction matches ``ratio`` as closely as an integer count allows.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"split ratio must be in (0, 1), got {ratio}")
    n = len(scenarios)
    if n < 2:
        raise SplitError(f"need at least 2 scenarios to split, got {n}")
    target_train = min(max(int(round(ratio * n)), 1), n - 1)
    rng = np.random.default_rng(seed)
    groups = defaultdict(list)
    for i, s in enumerate(scenarios):
        groups[s.maneuver].append(i)
    class_order = [m for m in MANEUVERS if groups[m]]
    class_order += sorted(set(groups) - set(MANEUVERS))
    quota = {}
    remainders = []
    assigned = 0
    for m in class_order:
        exact = ratio * len(groups[m])
        quota[m] = int(exact)
        remainders.append((-(exact - quota[m]), m))
        assigned += quota[m]
    remainders.sort()
    for _, m in remainders:
        if assigned >= target_train:
            break
        if quota[m] < len(groups[m]):
            quota[m] += 1
            assigned += 1
    train_idx, test_idx = [], []
    for m in class_order:
        idx = np.asarray(groups[m])
        perm = rng.permutation(idx.size)
        take = quota[m]
        train_idx.extend(idx[perm[:take]])
        test_idx.extend(idx[perm[take:]])
    train_idx = [int(i) for i in rng.permutation(train_idx)]
    test_idx = [int(i) for i in rng.permutation(test_idx)]
    if not train_idx or not test_idx:
        raise SplitError("split produced an empty side; adjust ratio or data")
    return DatasetSplit(
        train=[scenarios[i] for i in train_idx],
        test=[scenarios[i] for i in test_idx],
        seed=seed,
    )


def _synthetic_tracks(rng, fps, maneuver, n_frames, t0_index, t_pred_s,
                      n_vehicles, noise_std, speed_range, accel_range,
                      rate_range):
    """One scene: a target with the requested maneuver plus random cruisers.

    Longitudinal motion is uniformly accelerated; lane changes follow a
    logistic lateral profile of one lane width, centred halfway into the
    prediction window, which keeps the lane id at the last observed step
    unchanged and flips it inside the window. Lane ids come from the
    noise-free lateral position so labels stay exact under sensor noise.
    """
    times = np.arange(n_frames) / fps
    v0 = rng.uniform(*speed_range)
    accel = rng.uniform(*accel_range)
    x0 = rng.uniform(0.0, 200.0)
    lane0 = int(rng.integers(1, 5))
    y0 = (lane0 + 0.5) * LANE_WIDTH
    rate = rng.uniform(*rate_range)
    amplitude = {"keep_lane": 0.0,
                 "lane_change_left": LANE_WIDTH,
                 "lane_change_right": -LANE_WIDTH}[maneuver]
    mid = times[t0_index] + 0.5 * t_pred_s
    x = x0 + v0 * times + 0.5 * accel * times ** 2
    vx = v0 + accel * times
    g = expit(rate * (times - mid))
    y = y0 + amplitude * g
    vy = amplitude * rate * g * (1.0 - g)
    lane = np.floor(y / LANE_WIDTH).astype(np.int64)
    frames = np.arange(n_frames)
    if noise_std > 0.0:
        x = x + rng.normal(0.0, noise_std, n_frames)
        y = y + rng.normal(0.0, noise_std, n_frames)
    tracks = [RawTrack(1, frames, x, y, vx, vy, lane)]
    n_neighbours = int(rng.integers(0, min(8, n_vehicles - 1) + 1))
    for j in range(n_neighbours):
        vn = rng.uniform(*speed_range)
        dx0 = rng.uniform(-80.0, 80.0)
        lane_n = int(rng.integers(1, 5))
        yn0 = (lane_n + 0.5) * LANE_WIDTH
        xn = x0 + dx0 + vn * times
        yn = np.full(n_frames, yn0)
        if noise_std > 0.0:
            xn = xn + rng.normal(0.0, noise_std, n_frames)
            yn = yn + rng.normal(0.0, noise_std, n_frames)
        tracks.append(RawTrack(
            2 + j, frames, xn, yn,
            np.full(n_frames, vn), np.zeros(n_frames),
            np.full(n_frames, lane_n, dtype=np.int64),
        ))
    return tracks


def synthesize(n: int, fps, seed: int, noise_std: float = 0.0,
               t_obs: float = 3.0, t_pred: float = 5.0, n_vehicles: int = 9,
               speed_range=(20.0, 35.0), accel_range=(-2.0, 2.0),
               rate_range=(1.0, 2.5)) -> list[Scenario]:
    """Generate labelled scenarios from a parametric motion family.

    Classes cycle keep/left/right so counts differ by at most one. The
    scenarios go through the same extraction path as recorded data, and
    the constructed maneuver must survive labelling, which pins the label
    conventions to the generator.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if noise_std < 0.0:
        raise ValueError(f"noise_std must be non-negative, got {noise_std}")
    rng = np.random.default_rng(seed)
    t_obs_steps = round(fps * t_obs)
    t_pred_steps = round(fps * t_pred)
    n_frames = t_obs_steps + t_pred_steps
    out = []
    for i in range(n):
        maneuver = MANEUVERS[i % 3]
        tracks = _synthetic_tracks(
            rng, fps, maneuver, n_frames, t_obs_steps - 1,
            t_pred_steps / fps, n_vehicles, noise_std,
            speed_range, accel_range, rate_range)
        scen = extract_scenarios(tracks, fps, t_obs, t_pred, n_vehicles,
                                 target_ids={1})
        if len(scen) != 1 or scen[0].maneuver != maneuver:
            raise RuntimeError(
                f"synthetic scene {i} produced {len(scen)} scenarios "
                f"with labels {[s.maneuver for s in scen]}, wanted {maneuver}"
            )
        out.append(replace(scen[0], scenario_id=f"synth-{i:05d}"))
    return out


def save_archive(path, scenarios, fps):
    """Write scenarios to a JSON archive (format version 2).

    Each scenario's features (flattened row-major) and future are one
    ``encode_array`` string each. The file is json.dumps(doc,
    separators=(",", ":")) of the whole document, written one scenario at
    a time through the C encoder, so only one scenario's text is in memory
    at once.
    """
    fps = float(fps)
    for s in scenarios:
        if s.fps != fps:
            raise ValueError(
                f"scenario {s.scenario_id} has fps {s.fps}, archive wants {fps}"
            )
    head = json.dumps({
        "version": ARCHIVE_VERSION,
        "fps": fps,
        "feature_order": "(channel, time, vehicle) row-major",
        "channels": list(CHANNELS),
        "scenarios": [],
    }, separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write(head[:-2])  # up to and including the "[" of "scenarios":[]}
        for i, s in enumerate(scenarios):
            item = {
                "id": s.scenario_id,
                "maneuver": s.maneuver,
                "v0": s.v0,
                "t_obs": s.t_obs,
                "t_pred": s.t_pred,
                "n_vehicles": s.n_vehicles,
                "features": encode_array(s.features),
                "future": encode_array(s.future),
            }
            fh.write(("," if i else "") + json.dumps(item, separators=(",", ":")))
        fh.write("]}")


def load_archive(path):
    """Read a scenario archive of format version 2, or of version 1 (arrays
    as JSON lists of numbers); returns (scenarios, fps).

    A corrupt or empty document raises ValueError naming the path and,
    for a bad scenario, its index and id, with the key at fault.
    """
    doc = read_document(path, "archive", "version", (1, ARCHIVE_VERSION))
    fps = doc.value("fps", float)
    scenarios = []
    for index, obj in enumerate(doc.value("scenarios", list)):
        where = f"{path}: scenario {index}"
        if isinstance(obj, dict):
            where += f" ({obj.get('id')!r})"
        item = Table(obj, where, doc.version)
        scenario = item.build(
            Scenario,
            scenario_id=item.value("id", str),
            features=item.array("features", (len(CHANNELS), item.value("t_obs", int),
                                             item.value("n_vehicles", int))),
            future=item.array("future", (item.value("t_pred", int), 2)),
            v0=item.value("v0", float), fps=fps,
            maneuver=item.value("maneuver", str),
        )
        # Models, training and eval stack scenarios, so they share one grid.
        if scenarios and _grid(scenario) != _grid(scenarios[0]):
            raise ValueError(
                f"{path}: scenario {scenario.scenario_id!r} has grid "
                f"(t_obs, t_pred, n_vehicles) = {_grid(scenario)}, but "
                f"{scenarios[0].scenario_id!r} has {_grid(scenarios[0])}; "
                f"the archive mixes scenario shapes"
            )
        scenarios.append(scenario)
    if not scenarios:
        raise ValueError(f"{path}: archive contains no scenarios")
    return scenarios, fps


def _grid(scenario):
    return scenario.t_obs, scenario.t_pred, scenario.n_vehicles
