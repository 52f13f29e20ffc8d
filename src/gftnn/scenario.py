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
import logging
import math
import warnings
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .graph import _frozen
from .special import expit
from .store import Table, open_document, write_document

log = logging.getLogger(__name__)

MANEUVERS = ("keep_lane", "lane_change_left", "lane_change_right")
CHANNELS = ("x_rel", "y_rel", "vx_rel", "vy_rel")
LANE_WIDTH = 3.5
ARCHIVE_VERSION = 3
# The most steps an observation or a prediction window may span, 100 s at
# 100 fps; a longer window is refused before anything is allocated.
MAX_WINDOW_STEPS = 10_000
# Elements of the largest matrix extract_scenarios builds per block of
# windows: candidate runs or gathered rows, times the block's windows.
_GATHER_BLOCK = 1 << 14
# The most vehicles in one synthesized scene: the target and 8 cruisers.
_SCENE_VEHICLES = 9

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
        if (frame[1:] <= frame[:-1]).any():     # np.diff could overflow
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
            if not np.isfinite(arr).all():
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
        if not (np.isfinite(f).all() and np.isfinite(fut).all()):
            raise ValueError(f"scenario {self.scenario_id}: non-finite data")
        if f[0, 0, 0] != 0.0 or f[1, 0, 0] != 0.0:
            raise ValueError(
                f"scenario {self.scenario_id}: target must start at the origin"
            )
        if self.maneuver not in MANEUVERS:
            raise ValueError(f"unknown maneuver {self.maneuver!r}")
        if not np.isfinite(self.v0):
            raise ValueError(f"scenario {self.scenario_id}: v0 must be finite, "
                             f"got {self.v0}")
        if not _valid_fps(self.fps):
            raise ValueError(f"scenario {self.scenario_id}: fps must be positive "
                             f"and finite, got {self.fps}")
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


def _valid_fps(fps) -> bool:
    return math.isfinite(fps) and fps > 0


def _window_steps(fps, t_obs, t_pred):
    """The observed and predicted steps of windows of ``t_obs`` and
    ``t_pred`` seconds at ``fps``, each rounded to the nearest integer and
    at most ``MAX_WINDOW_STEPS``."""
    if not _valid_fps(fps):
        raise ValueError(f"fps must be positive and finite, got {fps}")
    steps = []
    for name, seconds in (("t_obs", t_obs), ("t_pred", t_pred)):
        if not math.isfinite(fps * seconds):
            raise ValueError(f"{name} must give a finite number of steps, "
                             f"got {seconds} s at fps={fps}")
        if round(fps * seconds) > MAX_WINDOW_STEPS:
            raise ValueError(f"{name} of {seconds} s at fps={fps} gives more than "
                             f"{MAX_WINDOW_STEPS} steps")
        steps.append(round(fps * seconds))
    if steps[0] < 2 or steps[1] < 1:
        raise ValueError(f"window too short at fps={fps}")
    return steps


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
    code = _maneuver_codes(lane_ids[None, t0_index:], lateral[None, t0_index:])
    return MANEUVERS[code[0]]


def _maneuver_codes(lane_ids, lateral):
    """The ``MANEUVERS`` index of each row of (W, T) lane ids and lateral
    positions that start at the last observed step: ``label_maneuver``'s
    rule, for every window at once."""
    changed = lane_ids != lane_ids[:, :1]
    changed[:, 0] = False
    rows = np.arange(len(changed))
    at = changed.argmax(axis=1)
    dy = lateral[rows, at] - lateral[:, 0]
    dy = np.where(dy == 0.0, lateral[:, -1] - lateral[:, 0], dy)
    return np.where(changed[rows, at], (dy > 0.0) + 2 * (dy < 0.0), 0)


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
    frame runs that start at most one longest run before it. The windows
    are then cut in blocks, as array code: one masked distance and one
    sort per block pick the neighbours, one gather takes every slot's
    observation and the target's future, and every window's label comes
    from one pass. A block's padded candidate matrix and its gathered rows
    stay within ``_GATHER_BLOCK`` elements. The tracks are let go once
    their rows are in the table, so ``tracks`` may be a generator that
    nothing else holds.
    """
    t_obs_steps, t_pred_steps = _window_steps(fps, t_obs, t_pred)
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
    # All rows, track after track: track i owns rows track_row[i] up to
    # track_row[i + 1].
    frame = np.concatenate([tr.frame for tr in tracks])
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
    del frame, opens
    # Targets go in vehicle-id order, ties in input order. A track's id rank
    # is the place of the first track with its id in that order.
    vehicle = [tr.vehicle_id for tr in tracks]
    order = sorted(range(len(tracks)), key=vehicle.__getitem__)
    ids = [vehicle[i] for i in order]
    id_rank = np.array([bisect_left(ids, v) for v in vehicle])
    # Neighbour candidates: the runs sorted by start frame.
    by_start = run_start.argsort(kind="stable")
    cand_start = run_start[by_start]
    cands = (run_end[by_start], run_off[by_start], run_track[by_start],
             id_rank[run_track[by_start]])
    # Rows gathered per window: every slot over the observation, then the
    # target from its last observed step to the window's end.
    back = np.arange(1 - t_obs_steps, 1)[:, None]
    ahead = np.arange(t_pred_steps + 1)
    # Every covered window, target after target: its target track, start
    # frame, first row, candidate runs lows..highs and the target's lane
    # ids from its last observed step on.
    windows = []
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
        lanes = target.lane_id[(firsts - track_row[i] + (t_obs_steps - 1))[:, None] + ahead]
        windows.append((np.full(starts.size, i), starts, firsts, lows, highs, lanes))
    # data holds x, y, vx and vy of every row.
    data = np.concatenate([getattr(tr, name) for name in ("x", "y", "vx", "vy")
                           for tr in tracks]).reshape(4, track_row[-1])
    del tracks, target      # the table holds their rows now
    scenarios = []
    if windows:
        win_track, win_start, win_first, win_low, win_high, win_lanes = map(
            np.concatenate, zip(*windows))
        n_obs = t_obs_steps * n_vehicles
        for w in _window_blocks(win_high - win_low, n_obs + ahead.size):
            last = win_start[w] + (t_obs_steps - 1)
            i0 = win_first[w] + (t_obs_steps - 1)
            slot_at = np.empty((last.size, n_vehicles), dtype=np.int64)
            slot_at[:, 0] = i0
            slot_at[:, 1:] = _nearest(data, cands, win_low[w], win_high[w], last, i0,
                                      id_rank[win_track[w]], len(vehicle), n_vehicles - 1)
            rows = np.concatenate([(back + slot_at[:, None]).reshape(last.size, n_obs),
                                   i0[:, None] + ahead], axis=1)
            got = data.take(rows, axis=1)
            feats = got[:, :, :n_obs].reshape(4, last.size, t_obs_steps, n_vehicles)
            feats = np.ascontiguousarray(feats.transpose(1, 0, 2, 3))
            # Positions relative to the target's first observed row.
            feats[:, :2] -= got[:2, :, 0].T[:, :, None, None]
            rest = got[:, :, n_obs:]
            future = (rest[:2, :, 1:] - rest[:2, :, :1]).transpose(1, 2, 0)
            future = np.ascontiguousarray(future)
            codes = _maneuver_codes(win_lanes[w], rest[1])
            for k, (t, start, v0, code) in enumerate(zip(
                    win_track[w].tolist(), win_start[w].tolist(), rest[2, :, 0].tolist(),
                    codes.tolist())):
                scenarios.append(Scenario(
                    scenario_id=f"v{vehicle[t]}-f{start}",
                    features=feats[k], future=future[k], v0=v0, fps=float(fps),
                    maneuver=MANEUVERS[code]))
    if skipped:
        log.info("extract_scenarios: skipped %d windows with coverage gaps", skipped)
    return scenarios


def _window_blocks(widths, per_window):
    """Consecutive slices of the windows, whose candidate ranges are
    ``widths`` wide and which gather ``per_window`` rows each, such that a
    block's window count times the larger of ``per_window`` and its widest
    range stays within ``_GATHER_BLOCK`` elements; a window that alone
    exceeds it is a block of its own."""
    lo = 0
    while lo < widths.size:
        head = widths[lo:lo + max(1, _GATHER_BLOCK // per_window)]
        widest = np.maximum.accumulate(np.maximum(head, per_window))
        cost = widest * np.arange(1, head.size + 1)
        hi = lo + max(1, int(np.count_nonzero(cost <= _GATHER_BLOCK)))
        yield slice(lo, hi)
        lo = hi


def _nearest(data, cands, low, high, last, i0, rank, no_rank, k):
    """The rows at frame ``last`` of each window's ``k`` nearest
    neighbours, by distance to the target's row ``i0``, then id rank, then
    track. A window's candidates are the runs ``low``..``high`` (in the
    order of ``cands``: end frame, row offset, track and id rank) that
    cover ``last`` and whose id rank is not the target's ``rank``. The
    padding up to the block's widest range, and every candidate that
    fails, ranks after all others, at distance inf and id rank
    ``no_rank``, and falls back to the target's own row: a ghost slot."""
    cand_end, cand_off, cand_track, cand_id_rank = cands
    cand = low[:, None] + np.arange(max(int((high - low).max()), k))
    real = cand < high[:, None]
    cand = np.minimum(cand, cand_end.size - 1)
    real &= cand_end[cand] >= last[:, None]
    cand_rank = cand_id_rank[cand]
    real &= cand_rank != rank[:, None]
    at = np.where(real, cand_off[cand] + last[:, None], i0[:, None])
    dist = np.hypot(data[0].take(at) - data[0].take(i0)[:, None],
                    data[1].take(at) - data[1].take(i0)[:, None])
    dist[~real] = np.inf
    rank_key = np.where(real, cand_rank, no_rank)
    order = np.lexsort((cand_track[cand], rank_key, dist), axis=-1)
    return np.take_along_axis(at, order[:, :k], axis=1)


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


def _synthetic_scenes(rng, maneuvers, fps, n_frames, t0_index, t_pred_s,
                      n_vehicles, noise_std, speed_range, accel_range,
                      rate_range):
    """The tracks of one scene per maneuver, scene after scene: a target
    with that maneuver plus random cruisers.

    Scene i covers frames i·n_frames onward; its target has vehicle id
    1 + i·_SCENE_VEHICLES and its cruisers the ids after it, so no
    vehicle is in view with another scene's. Longitudinal motion is
    uniformly accelerated; lane changes follow a logistic lateral profile
    of one lane width, centred halfway into the prediction window, which
    keeps the lane id at the last observed step unchanged and flips it
    inside the window. Lane ids come from the noise-free lateral position
    so labels stay exact under sensor noise. The cruisers' constant
    lateral speed and lane id columns are shared read-only arrays.
    """
    times = np.arange(n_frames) / fps
    still = np.zeros(n_frames)
    cruise_lanes = {}
    for i, maneuver in enumerate(maneuvers):
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
        frames = np.arange(i * n_frames, (i + 1) * n_frames)
        first_id = 1 + i * _SCENE_VEHICLES
        if noise_std > 0.0:
            x = x + rng.normal(0.0, noise_std, n_frames)
            y = y + rng.normal(0.0, noise_std, n_frames)
        yield RawTrack(first_id, frames, x, y, vx, vy, lane)
        n_neighbours = int(rng.integers(0, min(_SCENE_VEHICLES - 1, n_vehicles - 1) + 1))
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
            if lane_n not in cruise_lanes:
                cruise_lanes[lane_n] = np.full(n_frames, lane_n, dtype=np.int64)
            yield RawTrack(first_id + 1 + j, frames, xn, yn,
                           np.full(n_frames, vn), still, cruise_lanes[lane_n])


def synthesize(n: int, fps, seed: int, noise_std: float = 0.0,
               t_obs: float = 3.0, t_pred: float = 5.0, n_vehicles: int = 9,
               speed_range=(20.0, 35.0), accel_range=(-2.0, 2.0),
               rate_range=(1.0, 2.5)) -> list[Scenario]:
    """Generate labelled scenarios from a parametric motion family.

    Classes cycle keep/left/right so counts differ by at most one. The
    scenarios go through the same extraction path as recorded data, and
    the constructed maneuver must survive labelling, which pins the label
    conventions to the generator.

    Every scene gets frames and vehicle ids of its own (see
    ``_synthetic_scenes``), so no scene's vehicle can be another's
    neighbour, and one ``extract_scenarios`` call cuts the one window of
    every scene's target. The scenes stream into it as a generator, so
    their tracks are freed once extraction has copied their rows.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not (math.isfinite(noise_std) and noise_std >= 0.0):
        raise ValueError(f"noise_std must be finite and non-negative, got {noise_std}")
    t_obs_steps, t_pred_steps = _window_steps(fps, t_obs, t_pred)
    wanted = [MANEUVERS[i % 3] for i in range(n)]
    tracks = _synthetic_scenes(
        np.random.default_rng(seed), wanted, fps, t_obs_steps + t_pred_steps,
        t_obs_steps - 1, t_pred_steps / fps, n_vehicles, noise_std,
        speed_range, accel_range, rate_range)
    scenarios = extract_scenarios(
        tracks, fps, t_obs, t_pred, n_vehicles,
        target_ids=range(1, 1 + n * _SCENE_VEHICLES, _SCENE_VEHICLES))
    out = []
    for i, (scen, maneuver) in enumerate(zip(scenarios, wanted)):
        if scen.maneuver != maneuver:
            raise RuntimeError(
                f"synthetic scene {i} produced 1 scenarios "
                f"with labels {[scen.maneuver]}, wanted {maneuver}"
            )
        out.append(replace(scen, scenario_id=f"synth-{i:05d}"))
    return out


def save_archive(path, scenarios, fps):
    """Write scenarios to an archive (format version 3).

    The head holds the fps, the grid (t_obs, t_pred, n_vehicles) every
    scenario shares and each scenario's id, maneuver and v0; the payload
    is the stacked (n, 4, T_obs, N_V) features and then the stacked
    (n, T_pred, 2) futures, as raw float64 (see ``store.write_document``).
    """
    fps = float(fps)
    if not scenarios:
        raise ValueError("an archive needs at least one scenario")
    for s in scenarios:
        if s.fps != fps:
            raise ValueError(
                f"scenario {s.scenario_id} has fps {s.fps}, archive wants {fps}"
            )
        _check_grid(s, scenarios[0])
    n = len(scenarios)
    t_obs, t_pred, n_vehicles = _grid(scenarios[0])
    head = {
        "version": ARCHIVE_VERSION,
        "fps": fps,
        "feature_order": "(channel, time, vehicle) row-major",
        "channels": list(CHANNELS),
        "t_obs": t_obs,
        "t_pred": t_pred,
        "n_vehicles": n_vehicles,
        "scenarios": [{"id": s.scenario_id, "maneuver": s.maneuver, "v0": s.v0}
                      for s in scenarios],
    }
    write_document(path, head, {
        "features": ((n, len(CHANNELS), t_obs, n_vehicles),
                     [s.features for s in scenarios]),
        "future": ((n, t_pred, 2), [s.future for s in scenarios]),
    })


def load_archive(path):
    """Read a scenario archive of format version 3; returns (scenarios, fps).
    Any other version is refused.

    Each scenario holds read-only views of the payload's two blocks. They
    are checked by ``Scenario``'s rule once for the whole archive, and the
    head's scenario entries are type-checked in one pass; an archive that
    breaks either is read entry by entry, so the error is the failing
    scenario's. A corrupt or empty document raises ValueError
    naming the path and, for a bad scenario, its index and id, with the
    key at fault.
    """
    with open_document(path, "archive", "version", ARCHIVE_VERSION) as doc:
        fps = doc.value("fps", float)
        grid = tuple(doc.value(key, int) for key in ("t_obs", "t_pred", "n_vehicles"))
        entries = doc.value("scenarios", list)
        fields = _entry_fields(entries)
        if fields is None:
            # An entry that is not an object is named before any array check.
            items = [_item(path, index, obj) for index, obj in enumerate(entries)]
        if not entries:
            raise ValueError(f"{path}: archive contains no scenarios")
        n = len(entries)
        t_obs, t_pred, n_vehicles = grid
        doc.payload.expect({"features": (n, len(CHANNELS), t_obs, n_vehicles),
                            "future": (n, t_pred, 2)},
                           f"{n} scenarios on grid (t_obs, t_pred, n_vehicles) = {grid}")
        features = doc.payload.read("features")
        future = doc.payload.read("future")
    features.flags.writeable = False
    future.flags.writeable = False
    if fields is None:
        fields = [(item.value("id", str), item.value("maneuver", str),
                   item.value("v0", float)) for item in items]
    if (_valid_fps(fps) and np.all(np.isfinite(features)) and np.all(np.isfinite(future))
            and not np.any(features[:, :2, 0, 0])
            and all(m in MANEUVERS and np.isfinite(v0) for _, m, v0 in fields)):
        scenarios = []
        for (scenario_id, maneuver, v0), f, fut in zip(fields, features, future):
            scenario = object.__new__(Scenario)
            for name, value in (("scenario_id", scenario_id), ("features", f),
                                ("future", fut), ("v0", v0), ("fps", fps),
                                ("maneuver", maneuver)):
                object.__setattr__(scenario, name, value)
            scenarios.append(scenario)
        return scenarios, fps
    return [_item(path, index, obj).build(
                Scenario, scenario_id=scenario_id, features=f, future=fut, v0=v0,
                fps=fps, maneuver=maneuver)
            for index, (obj, (scenario_id, maneuver, v0), f, fut)
            in enumerate(zip(entries, fields, features, future))], fps


def _entry_fields(entries):
    """(id, maneuver, v0) of every scenario entry of an archive head, read
    in one pass, or None unless every entry is an object whose id and
    maneuver are strings and whose v0 is a number: the values ``_item``'s
    Table would read."""
    if all(type(obj) is dict and type(obj.get("id")) is str
           and type(obj.get("maneuver")) is str and type(obj.get("v0")) in (float, int)
           for obj in entries):
        return [(obj["id"], obj["maneuver"], float(obj["v0"])) for obj in entries]
    return None


def _item(path, index: int, obj) -> Table:
    """Scenario ``index`` of an archive as a Table named by index and id."""
    where = f"{path}: scenario {index}"
    if isinstance(obj, dict):
        where += f" ({obj.get('id')!r})"
    return Table(obj, where)


def _check_grid(scenario, first):
    if _grid(scenario) != _grid(first):
        raise ValueError(
            f"scenario {scenario.scenario_id!r} has grid "
            f"(t_obs, t_pred, n_vehicles) = {_grid(scenario)}, but "
            f"{first.scenario_id!r} has {_grid(first)}; an archive holds one grid"
        )


def _grid(scenario):
    return scenario.t_obs, scenario.t_pred, scenario.n_vehicles
