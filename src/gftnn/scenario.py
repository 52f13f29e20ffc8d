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
# Uniform ranges of the synthesized motion: speed (m/s, target and
# cruisers), the target's acceleration (m/s^2) and its lane-change rate (1/s).
SPEED_RANGE = (20.0, 35.0)
ACCEL_RANGE = (-2.0, 2.0)
RATE_RANGE = (1.0, 2.5)

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


class _RowError(ValueError):
    """A batch row breaks the scenario rule, whose message is ``reason``."""


@dataclass(frozen=True, eq=False)
class ScenarioBatch:
    """Model-ready samples on one grid at one fps, one row each: observed
    features plus the target's future.

    The constructor, which also takes maneuver names for ``codes``, checks
    the scenario rule once over the whole arrays and freezes them; a row
    that breaks it raises ValueError naming its index and id. ``batch[i]``
    is a ``Scenario`` row that reads views of the arrays; a slice or an
    index array gives a batch.
    """

    ids: tuple
    codes: np.ndarray           # (n,) indices into MANEUVERS
    v0: np.ndarray              # (n,) target longitudinal speed at the last observed step
    features: np.ndarray        # (n, 4, T_obs, N_V)
    futures: np.ndarray         # (n, T_pred, 2) displacement from the last observed position
    fps: float

    def __post_init__(self):
        f = np.asarray(self.features, dtype=np.float64)
        if f.ndim != 4 or f.shape[1] != len(CHANNELS):
            raise ValueError(f"features must be (4, T_obs, N_V), got {f.shape[1:]}")
        fut = np.asarray(self.futures, dtype=np.float64)
        if fut.ndim != 3 or fut.shape[2] != 2 or fut.shape[1] < 1:
            raise ValueError(f"future must be (T_pred, 2), got {fut.shape[1:]}")
        ids = tuple(self.ids)
        codes = np.asarray(self.codes)
        names = codes.tolist()
        if codes.dtype.kind not in "iu":
            codes = np.array([MANEUVERS.index(m) if m in MANEUVERS else -1 for m in names],
                             dtype=np.int64)
        v0 = np.asarray(self.v0, dtype=np.float64)
        n = len(ids)
        if {codes.shape, v0.shape, f.shape[:1], fut.shape[:1]} != {(n,)}:
            raise ValueError(f"a batch of {n} ids has maneuvers of shape {codes.shape}, "
                             f"v0 {v0.shape}, features {f.shape} and futures {fut.shape}")
        # The checks in the order the rule applies them: a row is named by
        # the first check it fails.
        checks = (
            (~(np.isfinite(f).all(axis=(1, 2, 3)) & np.isfinite(fut).all(axis=(1, 2))),
             lambda i: f"scenario {ids[i]}: non-finite data"),
            ((f[:, 0, 0, 0] != 0.0) | (f[:, 1, 0, 0] != 0.0),
             lambda i: f"scenario {ids[i]}: target must start at the origin"),
            ((codes < 0) | (codes >= len(MANEUVERS)),
             lambda i: f"unknown maneuver {names[i]!r}"),
            (~np.isfinite(v0), lambda i: f"scenario {ids[i]}: v0 must be finite, got {v0[i]}"),
            (np.full(n, not _valid_fps(self.fps)),
             lambda i: f"scenario {ids[i]}: fps must be positive and finite, got {self.fps}"),
        )
        bad = np.logical_or.reduce([fails for fails, _ in checks], axis=0, initial=False)
        if bad.any():
            i = int(bad.argmax())
            reason = next(say for fails, say in checks if fails[i])(i)
            error = _RowError(f"scenario {i} ({ids[i]!r}): {reason}")
            error.reason = reason
            raise error
        for name, value in (("ids", ids), ("codes", _frozen(codes, np.int64)),
                            ("v0", _frozen(v0)), ("features", _frozen(f)),
                            ("futures", _frozen(fut)), ("fps", float(self.fps))):
            object.__setattr__(self, name, value)

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return _ScenarioRow(self, range(len(self))[index])
        rows = np.arange(len(self))[index].tolist()
        return ScenarioBatch(tuple(self.ids[i] for i in rows), self.codes[index],
                             self.v0[index], self.features[index], self.futures[index],
                             self.fps)

    t_obs = property(lambda self: self.features.shape[2])
    t_pred = property(lambda self: self.futures.shape[1])
    n_vehicles = property(lambda self: self.features.shape[3])


class Scenario:
    """One scenario: row ``index`` of ``batch``, a ``ScenarioBatch``.

    ``Scenario(scenario_id, features, future, v0, fps, maneuver)`` copies
    the (4, T_obs, N_V) features and (T_pred, 2) future into a batch of
    one; a fault raises the scenario rule's message.
    """

    def __init__(self, scenario_id, features, future, v0, fps, maneuver):
        try:
            self.batch = ScenarioBatch(
                (scenario_id,), (maneuver,), (v0,), np.array(features, dtype=np.float64)[None],
                np.array(future, dtype=np.float64)[None], fps)
        except _RowError as exc:
            raise ValueError(exc.reason) from None
        self.index = 0

    scenario_id = property(lambda self: self.batch.ids[self.index])
    features = property(lambda self: self.batch.features[self.index])
    future = property(lambda self: self.batch.futures[self.index])
    v0 = property(lambda self: float(self.batch.v0[self.index]))
    fps = property(lambda self: self.batch.fps)
    maneuver = property(lambda self: MANEUVERS[self.batch.codes[self.index]])
    t_obs = property(lambda self: self.batch.t_obs)
    t_pred = property(lambda self: self.batch.t_pred)
    n_vehicles = property(lambda self: self.batch.n_vehicles)


class _ScenarioRow(Scenario):
    """A row of a batch whose rule has passed: it is not checked again."""

    def __init__(self, batch: ScenarioBatch, index: int):
        self.batch = batch
        self.index = index


def scenario_batch(scenarios) -> ScenarioBatch:
    """``scenarios`` as one batch: a ``ScenarioBatch`` as it is, and a
    sequence of scenarios on one grid at one fps stacked into a new batch,
    which the scenario rule checks."""
    if isinstance(scenarios, ScenarioBatch):
        return scenarios
    rows = list(scenarios)
    if not rows:
        raise ValueError("no scenarios to batch")
    first = rows[0]
    grid = (first.t_obs, first.t_pred, first.n_vehicles)
    for s in rows:
        if s.fps != first.fps:
            raise ValueError(f"scenario {s.scenario_id!r} has fps {s.fps}, but "
                             f"{first.scenario_id!r} has {first.fps}; a batch holds one fps")
        if (s.t_obs, s.t_pred, s.n_vehicles) != grid:
            raise ValueError(
                f"scenario {s.scenario_id!r} has grid (t_obs, t_pred, n_vehicles) = "
                f"{(s.t_obs, s.t_pred, s.n_vehicles)}, but {first.scenario_id!r} has "
                f"{grid}; an archive holds one grid")
    return ScenarioBatch(tuple(s.scenario_id for s in rows), [s.maneuver for s in rows],
                         [s.v0 for s in rows], np.stack([s.features for s in rows]),
                         np.stack([s.future for s in rows]), first.fps)


@dataclass(frozen=True)
class DatasetSplit:
    """Train and test scenarios, each a ``ScenarioBatch`` as ``split``
    makes them or a sequence of scenarios (see ``scenario_batch``)."""

    train: ScenarioBatch | list
    test: ScenarioBatch | list
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
                      target_ids=None) -> ScenarioBatch:
    """Slide fixed windows over every track and cut model-ready scenarios,
    returned as one ``ScenarioBatch`` in target-id order.

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
    observation and the target's future into the batch's arrays, and every
    window's label comes from one pass. A block's padded candidate matrix and its gathered rows
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
        return ScenarioBatch((), (), (), np.empty((0, len(CHANNELS), t_obs_steps, n_vehicles)),
                             np.empty((0, t_pred_steps, 2)), float(fps))
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
    n = sum(win[1].size for win in windows)
    features = np.empty((n, len(CHANNELS), t_obs_steps, n_vehicles))
    futures = np.empty((n, t_pred_steps, 2))
    v0 = np.empty(n)
    codes = np.empty(n, dtype=np.int64)
    ids = ()
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
            feats = features[w]
            feats[...] = got[:, :, :n_obs].reshape(
                4, last.size, t_obs_steps, n_vehicles).transpose(1, 0, 2, 3)
            # Positions relative to the target's first observed row.
            feats[:, :2] -= got[:2, :, 0].T[:, :, None, None]
            rest = got[:, :, n_obs:]
            futures[w] = (rest[:2, :, 1:] - rest[:2, :, :1]).transpose(1, 2, 0)
            v0[w] = rest[2, :, 0]
            codes[w] = _maneuver_codes(win_lanes[w], rest[1])
        ids = tuple(f"v{vehicle[t]}-f{start}"
                    for t, start in zip(win_track.tolist(), win_start.tolist()))
    if skipped:
        log.info("extract_scenarios: skipped %d windows with coverage gaps", skipped)
    return ScenarioBatch(ids, codes, v0, features, futures, float(fps))


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


def balance(scenarios, seed: int) -> ScenarioBatch:
    """Down-sample the majority classes to the size of the smallest one;
    the kept scenarios stay in their order."""
    batch = scenario_batch(scenarios)
    groups = [np.flatnonzero(batch.codes == code) for code in range(len(MANEUVERS))]
    for m, idx in zip(MANEUVERS, groups):
        if not idx.size:
            raise BalanceError(f"no scenarios with maneuver '{m}'")
    n_min = min(idx.size for idx in groups)
    rng = np.random.default_rng(seed)
    keep = []
    for idx in groups:
        if idx.size > n_min:
            idx = idx[np.sort(rng.choice(idx.size, size=n_min, replace=False))]
        keep.append(idx)
    return batch[np.sort(np.concatenate(keep))]


def split(scenarios, ratio: float, seed: int) -> DatasetSplit:
    """Deterministic stratified train/test split into two batches, the
    rows ``split_indices`` gives."""
    batch, train_idx, test_idx = split_indices(scenarios, ratio, seed)
    return DatasetSplit(train=batch[train_idx], test=batch[test_idx], seed=seed)


def split_indices(scenarios, ratio: float, seed: int):
    """``scenarios`` as one batch (see ``scenario_batch``) and the row
    indices of its train and test sides.

    Per-class quotas use largest-remainder rounding so the overall train
    fraction matches ``ratio`` as closely as an integer count allows.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"split ratio must be in (0, 1), got {ratio}")
    n = len(scenarios)
    if n < 2:
        raise SplitError(f"need at least 2 scenarios to split, got {n}")
    batch = scenario_batch(scenarios)
    target_train = min(max(int(round(ratio * n)), 1), n - 1)
    groups = [np.flatnonzero(batch.codes == code) for code in range(len(MANEUVERS))]
    quota = [int(ratio * idx.size) for idx in groups]
    # Largest remainders first, ties in class order.
    for code in sorted(range(len(groups)),
                       key=lambda code: (quota[code] - ratio * groups[code].size, code)):
        if sum(quota) < target_train and quota[code] < groups[code].size:
            quota[code] += 1
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for idx, take in zip(groups, quota):
        perm = rng.permutation(idx.size)
        train_idx.append(idx[perm[:take]])
        test_idx.append(idx[perm[take:]])
    train_idx = rng.permutation(np.concatenate(train_idx))
    test_idx = rng.permutation(np.concatenate(test_idx))
    if not train_idx.size or not test_idx.size:
        raise SplitError("split produced an empty side; adjust ratio or data")
    return batch, train_idx, test_idx


def _synthetic_scenes(rng, maneuvers, fps, n_frames, t0_index, t_pred_s,
                      n_vehicles, noise_std):
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
            vn = rng.uniform(*SPEED_RANGE)
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
               t_obs: float = 3.0, t_pred: float = 5.0,
               n_vehicles: int = 9) -> ScenarioBatch:
    """Generate labelled scenarios from a parametric motion family.

    Classes cycle keep/left/right so counts differ by at most one. The
    scenarios go through the same extraction path as recorded data, and
    the constructed maneuver must survive labelling, which pins the label
    conventions to the generator.

    Every scene gets frames and vehicle ids of its own (see
    ``_synthetic_scenes``), so no scene's vehicle can be another's
    neighbour, and one ``extract_scenarios`` call cuts the one window of
    every scene's target. The scenes stream into it as a generator, so
    their tracks are freed once extraction has copied their rows. The
    labels are checked with one compare, and the batch is renamed
    ``synth-%05d`` as a whole.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not (math.isfinite(noise_std) and noise_std >= 0.0):
        raise ValueError(f"noise_std must be finite and non-negative, got {noise_std}")
    t_obs_steps, t_pred_steps = _window_steps(fps, t_obs, t_pred)
    wanted = np.arange(n) % len(MANEUVERS)
    tracks = _synthetic_scenes(
        np.random.default_rng(seed), [MANEUVERS[code] for code in wanted], fps,
        t_obs_steps + t_pred_steps, t_obs_steps - 1, t_pred_steps / fps, n_vehicles,
        noise_std)
    batch = extract_scenarios(
        tracks, fps, t_obs, t_pred, n_vehicles,
        target_ids=range(1, 1 + n * _SCENE_VEHICLES, _SCENE_VEHICLES))
    lost = np.flatnonzero(batch.codes != wanted)
    if lost.size:
        i = int(lost[0])
        raise RuntimeError(
            f"synthetic scene {i} produced 1 scenarios with labels "
            f"{[batch[i].maneuver]}, wanted {MANEUVERS[wanted[i]]}"
        )
    return replace(batch, ids=tuple(f"synth-{i:05d}" for i in range(n)))


def save_archive(path, scenarios, fps):
    """Write scenarios, a batch or a sequence (see ``scenario_batch``), to
    an archive (format version 3).

    The head holds the fps, the grid (t_obs, t_pred, n_vehicles) every
    scenario shares and each scenario's id, maneuver and v0; the payload
    is the batch's (n, 4, T_obs, N_V) features and then its (n, T_pred, 2)
    futures, as raw float64 (see ``store.write_document``).
    """
    fps = float(fps)
    if not len(scenarios):
        raise ValueError("an archive needs at least one scenario")
    batch = scenario_batch(scenarios)
    if batch.fps != fps:
        raise ValueError(
            f"scenario {batch.ids[0]} has fps {batch.fps}, archive wants {fps}"
        )
    head = {
        "version": ARCHIVE_VERSION,
        "fps": fps,
        "feature_order": "(channel, time, vehicle) row-major",
        "channels": list(CHANNELS),
        "t_obs": batch.t_obs,
        "t_pred": batch.t_pred,
        "n_vehicles": batch.n_vehicles,
        "scenarios": [{"id": scenario_id, "maneuver": MANEUVERS[code], "v0": v0}
                      for scenario_id, code, v0
                      in zip(batch.ids, batch.codes.tolist(), batch.v0.tolist())],
    }
    write_document(path, head, {"features": (batch.features.shape, [batch.features]),
                                "future": (batch.futures.shape, [batch.futures])})


def load_archive(path):
    """Read a scenario archive of format version 3; returns (batch, fps),
    where batch is a ``ScenarioBatch``. Any other version is refused.

    The batch holds the payload's two blocks as read-only arrays, checked
    by the scenario rule once. The head's scenario entries are read before
    any array check. A corrupt or empty document raises ValueError naming
    the path and, for a bad scenario, its index and id, with the key at
    fault.
    """
    with open_document(path, "archive", "version", ARCHIVE_VERSION) as doc:
        fps = doc.value("fps", float)
        grid = tuple(doc.value(key, int) for key in ("t_obs", "t_pred", "n_vehicles"))
        entries = doc.value("scenarios", list)
        fields = [_entry(path, index, obj) for index, obj in enumerate(entries)]
        if not entries:
            raise ValueError(f"{path}: archive contains no scenarios")
        n = len(entries)
        t_obs, t_pred, n_vehicles = grid
        doc.payload.expect({"features": (n, len(CHANNELS), t_obs, n_vehicles),
                            "future": (n, t_pred, 2)},
                           f"{n} scenarios on grid (t_obs, t_pred, n_vehicles) = {grid}")
        features = doc.payload.read("features")
        future = doc.payload.read("future")
    ids, maneuvers, v0 = zip(*fields)
    try:
        return ScenarioBatch(ids, maneuvers, v0, features, future, fps), fps
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _entry(path, index: int, obj):
    """(id, maneuver, v0) of scenario entry ``index`` of an archive head.
    An entry that is not an object whose id and maneuver are strings and
    whose v0 is a number is read through a Table named by index and id,
    which names the fault."""
    if (type(obj) is dict and type(obj.get("id")) is str
            and type(obj.get("maneuver")) is str and type(obj.get("v0")) in (float, int)):
        return obj["id"], obj["maneuver"], float(obj["v0"])
    where = f"{path}: scenario {index}"
    if isinstance(obj, dict):
        where += f" ({obj.get('id')!r})"
    item = Table(obj, where)
    return item.value("id", str), item.value("maneuver", str), item.value("v0", float)
