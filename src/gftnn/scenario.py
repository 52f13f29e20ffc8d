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

import contextlib
import copy
import csv
import io
import itertools
import logging
import math
import operator
import os
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .graph import _frozen
from .special import expit
from .store import open_document, write_document

log = logging.getLogger(__name__)

MANEUVERS = ("keep_lane", "lane_change_left", "lane_change_right")
CHANNELS = ("x_rel", "y_rel", "vx_rel", "vy_rel")
LANE_WIDTH = 3.5
ARCHIVE_VERSION = 4
# An archive's (n,) columns, in file order before the features and futures.
_COLUMNS = ("codes", "v0", "first_frame", "vehicle_id")
# The default grid: 3 s observed and 5 s predicted (the protocol of Deo &
# Trivedi, CVPRW 2018) over 9 vehicle slots. Every preset, the extraction
# and synthesis defaults and the CLI's window options take it from here.
T_OBS_S = 3.0
T_PRED_S = 5.0
N_VEHICLES = 9
# The most steps an observation or a prediction window may span, 100 s at
# 100 fps; a longer window is refused before anything is allocated.
MAX_WINDOW_STEPS = 10_000
# The most vehicle slots of a scenario, far past one target's neighbourhood;
# a larger count is refused before anything is allocated.
MAX_VEHICLE_SLOTS = 1_000
# Rows of an archive that eval scores, and train transforms, at once, so
# the features a command holds are one block's, whatever the archive's size.
# Every benchmark eval and every held-out side of its quality pass fits in
# one block.
BLOCK_ROWS = 256
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


# A track's float columns, as the rows of TrackBatch.motion.
_MOTION = ("x", "y", "vx", "vy")
# One data row of a track CSV as ingest_tracks reads it: the vehicle id,
# then a track's columns.
_ROW = np.dtype([("vehicle_id", np.int64), ("frame", np.int64), ("x", np.float64),
                 ("y", np.float64), ("vx", np.float64), ("vy", np.float64),
                 ("lane_id", np.int64)])
# Suffixes numpy's DataSource opens through a decompressor, whatever the
# file holds; ingest_tracks reads a file so named through its own stream.
_PACKED = (".gz", ".bz2", ".xz", ".lzma")


class SchemaError(ValueError):
    """Input file does not have the promised columns."""


class ParseError(ValueError):
    """A row could not be converted to track samples."""


class BalanceError(ValueError):
    """Class balancing is impossible (some maneuver class is empty)."""


class SplitError(ValueError):
    """Dataset too small to split."""


class _RowError(ValueError):
    """Row ``index`` of a batch breaks the batch's rule, whose message is
    ``reason``."""

    def __init__(self, message, index, reason):
        super().__init__(message)
        self.index = index
        self.reason = reason


def _check_rule(checks, describe):
    """Raise ``_RowError`` for the first row that fails one of ``checks``,
    (fails, say) pairs in the order the rule applies them: ``fails`` marks
    the rows that fail the check and ``say(i)`` is its message for row
    ``i``, which ``describe(i)`` names."""
    bad = np.logical_or.reduce([fails for fails, _ in checks], axis=0, initial=False)
    if bad.any():
        i = int(bad.argmax())
        reason = next(say for fails, say in checks if fails[i])(i)
        raise _RowError(f"{describe(i)}: {reason}", i, reason)


def _vehicle_ids(values) -> np.ndarray:
    """Vehicle ids as a read-only int64 array; an id beyond int64 raises
    ValueError naming it."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "i":
        ids = values.astype(np.int64)
    else:
        values = [operator.index(v) for v in values]
        try:
            ids = np.array(values, dtype=np.int64)
        except OverflowError:
            wide = next(v for v in values if not -2 ** 63 <= v < 2 ** 63)
            raise ValueError(f"vehicle id {wide} lies beyond int64") from None
    ids.flags.writeable = False
    return ids


@dataclass(frozen=True, eq=False)
class TrackBatch:
    """Recorded vehicle tracks as columns of rows: track i is vehicle
    ``vehicle_ids[i]`` and owns rows ``offsets[i]`` up to ``offsets[i + 1]``,
    ordered by frame.

    The constructor, which also takes ``motion`` as four columns, checks
    the track rule once over the whole arrays and freezes them: every track
    has a sample, its frames strictly increase, every column has a value
    per row and every value is finite. A track that breaks it raises
    ValueError naming its index, with ``RawTrack``'s message. ``batch[i]``
    is a ``RawTrack`` row that reads views of the columns.
    """

    vehicle_ids: np.ndarray     # (n,) int64
    offsets: np.ndarray         # (n + 1,) each track's first row, then the row count
    frame: np.ndarray           # (rows,) int64
    lane_id: np.ndarray         # (rows,) int64
    motion: np.ndarray          # (4, rows) x, y, vx and vy

    def __post_init__(self):
        ids = _vehicle_ids(self.vehicle_ids)
        offsets = np.asarray(self.offsets, dtype=np.int64)
        frame = np.asarray(self.frame, dtype=np.int64)
        n = ids.size
        if (offsets.shape != (n + 1,) or offsets[0] != 0
                or (offsets[1:] < offsets[:-1]).any() or frame.shape != (offsets[-1],)):
            raise ValueError(f"{n} tracks need {n + 1} row offsets that rise from 0 to "
                             f"the frame count, got {offsets.tolist()} for frames of "
                             f"shape {frame.shape}")
        rows = int(offsets[-1])
        lane = np.asarray(self.lane_id, dtype=np.int64)
        columns = [np.asarray(column, dtype=np.float64) for column in self.motion]
        if len(columns) != len(_MOTION):
            raise ValueError(f"motion must hold the columns {', '.join(_MOTION)}, "
                             f"got {len(columns)}")
        if not n and any(column.size for column in (lane, *columns)):
            raise ValueError("a batch of no tracks has rows")

        def owners(flagged):
            # The tracks that own any of the flagged rows.
            fails = np.zeros(n, dtype=bool)
            fails[offsets.searchsorted(np.flatnonzero(flagged), side="right") - 1] = True
            return fails

        def short(column):
            # The tracks whose rows the column lacks, and the last one if it
            # is too long.
            fails = np.full(n, column.ndim != 1)
            if column.ndim == 1 and n:
                fails |= offsets[1:] > column.size
                fails[-1] |= column.size != rows
            return fails

        # A frame that does not rise past the one before it, other than a
        # track's first.
        steps = np.empty(rows, dtype=bool)
        steps[:1] = False
        np.less_equal(frame[1:], frame[:-1], out=steps[1:])     # np.diff could overflow
        steps[offsets[:-1][offsets[:-1] < rows]] = False
        mismatch = lambda i: f"vehicle {ids[i]}: column length mismatch"
        # The checks in the order the rule applies them: a track is named
        # by the first check it fails.
        checks = [
            (offsets[1:] == offsets[:-1], lambda i: "track must contain at least one sample"),
            (owners(steps), lambda i: f"vehicle {ids[i]}: frames must be strictly increasing"),
            (short(lane), mismatch),
        ]
        for name, column in zip(_MOTION, columns):
            checks.append((short(column), mismatch))
            if column.ndim == 1:
                checks.append((owners(~np.isfinite(column[:rows])),
                               lambda i, name=name: f"vehicle {ids[i]}: non-finite {name}"))
        _check_rule(checks, lambda i: f"track {i}")
        motion = self.motion
        if not (isinstance(motion, np.ndarray) and motion.dtype == np.float64):
            motion = np.stack(columns)
        for name, value in (("vehicle_ids", ids), ("offsets", _frozen(offsets, np.int64)),
                            ("frame", _frozen(frame, np.int64)),
                            ("lane_id", _frozen(lane, np.int64)), ("motion", _frozen(motion))):
            object.__setattr__(self, name, value)

    def __len__(self):
        return self.vehicle_ids.size

    def __getitem__(self, index):
        return _TrackRow(self, range(len(self))[operator.index(index)])


class RawTrack:
    """One vehicle's recorded samples, ordered by frame: track ``index`` of
    ``batch``, a ``TrackBatch``.

    ``RawTrack(vehicle_id, frame, x, y, vx, vy, lane_id)`` copies the
    columns into a batch of one; a fault raises the track rule's message.
    """

    def __init__(self, vehicle_id, frame, x, y, vx, vy, lane_id):
        try:
            self.batch = TrackBatch((vehicle_id,), (0, np.size(frame)), frame, lane_id,
                                    (x, y, vx, vy))
        except _RowError as exc:
            raise ValueError(exc.reason) from None
        self.index = 0

    def _rows(self) -> slice:
        return slice(*self.batch.offsets[self.index:self.index + 2].tolist())

    vehicle_id = property(lambda self: int(self.batch.vehicle_ids[self.index]))
    frame = property(lambda self: self.batch.frame[self._rows()])
    lane_id = property(lambda self: self.batch.lane_id[self._rows()])
    x = property(lambda self: self.batch.motion[0, self._rows()])
    y = property(lambda self: self.batch.motion[1, self._rows()])
    vx = property(lambda self: self.batch.motion[2, self._rows()])
    vy = property(lambda self: self.batch.motion[3, self._rows()])

    def __len__(self):
        rows = self._rows()
        return rows.stop - rows.start


class _TrackRow(RawTrack):
    """A track of a batch whose rule has passed: it is not checked again."""

    def __init__(self, batch: TrackBatch, index: int):
        self.batch = batch
        self.index = index


def track_batch(tracks) -> TrackBatch:
    """``tracks`` as one batch: a ``TrackBatch`` as it is, and an iterable
    of tracks, such as a list or a generator, joined in their order into a
    new batch, which the track rule checks."""
    if isinstance(tracks, TrackBatch):
        return tracks
    rows = list(tracks)
    frame, lane, *motion = (np.concatenate([getattr(tr, name) for tr in rows] or [[]])
                            for name in ("frame", "lane_id", *_MOTION))
    return TrackBatch([tr.vehicle_id for tr in rows], np.cumsum([0, *map(len, rows)]),
                      frame, lane, motion)


@dataclass(frozen=True, eq=False)
class ScenarioBatch:
    """Model-ready samples on one grid at one fps, one row each: observed
    features plus the target's future.

    The constructor, which also takes maneuver names for ``codes`` and
    whole floats for the integer fields, checks the scenario rule once
    over the whole arrays and freezes them; a row that breaks it raises
    ValueError naming its index and id. ``batch[i]`` is a ``Scenario`` row
    that reads views of the arrays; a slice or an index array gives a
    batch of those rows, which is not checked again.
    """

    ids: tuple
    codes: np.ndarray           # (n,) indices into MANEUVERS
    v0: np.ndarray              # (n,) target longitudinal speed at the last observed step
    first_frame: np.ndarray     # (n,) int64 frame the window starts at, in [0, 2**53]
    vehicle_id: np.ndarray      # (n,) int64 id of the target vehicle, in [-2**53, 2**53]
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
        given = np.asarray(self.codes)
        codes = _maneuver_index(given)
        v0 = np.asarray(self.v0, dtype=np.float64)
        first, vehicle = np.asarray(self.first_frame), np.asarray(self.vehicle_id)
        n = len(ids)
        if {codes.shape, v0.shape, first.shape, vehicle.shape,
                f.shape[:1], fut.shape[:1]} != {(n,)}:
            raise ValueError(f"a batch of {n} ids has maneuvers of shape {codes.shape}, "
                             f"v0 {v0.shape}, first_frame {first.shape}, vehicle_id "
                             f"{vehicle.shape}, features {f.shape} and futures {fut.shape}")
        # The checks in the order the rule applies them: a row is named by
        # the first check it fails.
        checks = (
            (~(np.isfinite(f).all(axis=(1, 2, 3)) & np.isfinite(fut).all(axis=(1, 2))),
             lambda i: f"scenario {ids[i]}: non-finite data"),
            ((f[:, 0, 0, 0] != 0.0) | (f[:, 1, 0, 0] != 0.0),
             lambda i: f"scenario {ids[i]}: target must start at the origin"),
            *_head_checks(ids, given, codes, v0, self.fps),
            (~_integral(first) | (first < 0), lambda i: f"scenario {ids[i]}: first_frame "
                                                        f"must be an integer in [0, 2**53], "
                                                        f"got {first[i]}"),
            (~_integral(vehicle), lambda i: f"scenario {ids[i]}: vehicle_id must be an "
                                            f"integer in [-2**53, 2**53], got {vehicle[i]}"),
        )
        _check_rule(checks, lambda i: f"scenario {i} ({ids[i]!r})")
        for name, value in (("ids", ids), ("codes", _frozen(codes, np.int64)),
                            ("v0", _frozen(v0)), ("first_frame", _frozen(first, np.int64)),
                            ("vehicle_id", _frozen(vehicle, np.int64)),
                            ("features", _frozen(f)), ("futures", _frozen(fut)),
                            ("fps", float(self.fps))):
            object.__setattr__(self, name, value)

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return Scenario(self, range(len(self))[index])
        rows = np.arange(len(self))[index].tolist()
        arrays = {name: getattr(self, name) for name in (*_COLUMNS, "features", "futures")}
        return self._derive(ids=tuple(self.ids[i] for i in rows),
                            **{name: _frozen(array[index], array.dtype)
                               for name, array in arrays.items()})

    def _derive(self, **fields):
        """This batch with ``fields``, rows of it or new ids, which need no new check."""
        batch = object.__new__(ScenarioBatch)
        batch.__dict__.update(self.__dict__, **fields)
        return batch

    def blocks(self):
        """The batch in slices of ``BLOCK_ROWS`` rows, in order, as
        ``Archive.blocks`` reads an archive's rows."""
        for start in range(0, len(self), BLOCK_ROWS):
            yield self[start:start + BLOCK_ROWS]

    t_obs = property(lambda self: self.features.shape[2])
    t_pred = property(lambda self: self.futures.shape[1])
    n_vehicles = property(lambda self: self.features.shape[3])


def _maneuver_index(given: np.ndarray) -> np.ndarray:
    """The int64 indices into MANEUVERS of ``given``, maneuver names or
    numbers; a name that is not one of them, or a number that is not one's
    index, becomes -1."""
    if given.dtype.kind not in "iuf":
        return np.array([MANEUVERS.index(m) if m in MANEUVERS else -1
                         for m in given.tolist()], dtype=np.int64)
    known = _integral(given) & (given >= 0) & (given < len(MANEUVERS))
    return np.where(known, given, -1).astype(np.int64)


def _integral(values: np.ndarray) -> np.ndarray:
    """Which of ``values``, integers or floats, are integers in [-2**53,
    2**53], all of which float64, an archive's column type, holds exactly."""
    return (values == np.trunc(values)) & (-2 ** 53 <= values) & (values <= 2 ** 53)


def _head_checks(ids, given, codes, v0, fps):
    """The scenario rule's checks that every row of an archive read passes
    (a known maneuver, a finite v0 and the fps), as ``_check_rule`` pairs;
    ``given`` are the maneuvers as given and ``codes`` their index."""
    return (
        (codes < 0, lambda i: f"unknown maneuver {given.tolist()[i]!r}"),
        (~np.isfinite(v0), lambda i: f"scenario {ids[i]}: v0 must be finite, got {v0[i]}"),
        (np.full(len(ids), not _valid_fps(fps)),
         lambda i: f"scenario {ids[i]}: fps must be positive and finite, got {fps}"),
    )


class Scenario:
    """One scenario: row ``index`` of ``batch``, a ``ScenarioBatch`` whose
    rule has passed. ``batch[i]`` makes it; it reads views of the arrays."""

    def __init__(self, batch: ScenarioBatch, index: int):
        self.batch = batch
        self.index = index

    scenario_id = property(lambda self: self.batch.ids[self.index])
    features = property(lambda self: self.batch.features[self.index])
    future = property(lambda self: self.batch.futures[self.index])
    v0 = property(lambda self: float(self.batch.v0[self.index]))
    first_frame = property(lambda self: int(self.batch.first_frame[self.index]))
    vehicle_id = property(lambda self: int(self.batch.vehicle_id[self.index]))
    fps = property(lambda self: self.batch.fps)
    maneuver = property(lambda self: MANEUVERS[self.batch.codes[self.index]])
    t_obs = property(lambda self: self.batch.t_obs)
    t_pred = property(lambda self: self.batch.t_pred)
    n_vehicles = property(lambda self: self.batch.n_vehicles)


@dataclass(frozen=True)
class DatasetSplit:
    """Train and test scenarios, each a ``ScenarioBatch`` as ``split``
    makes them or the ``Archive`` rows of one side, which ``train`` reads
    block by block; either way a side's rows keep their order in the
    whole. ``test`` may be ``[]``, no held-out side."""

    train: ScenarioBatch | Archive
    test: ScenarioBatch | Archive | list
    seed: int


def ingest_tracks(path, schema: str = "normalized") -> TrackBatch:
    """Read per-frame vehicle samples from CSV into one batch of tracks, in
    vehicle-id order.

    The header is read with csv.reader. numpy's C reader (``np.loadtxt``),
    the only reader of the data rows, converts the columns the schema names
    in one pass, skipping blank lines. It reads a seekable file by its
    absolute path, past the header's lines, in large chunks; a pipe, or a
    file whose name numpy would decompress, it reads through the open
    stream, a line at a time. One lexsort on (vehicle id, frame) orders the
    rows, one gather takes the parsed records in that order, and the
    batch's columns are copied out of them. A row numpy refuses raises
    ParseError naming the row's line (``_parse_error``); a byte the file's
    codec refuses, naming its line (``_decode_error``); a track that breaks
    the track rule or repeats a frame, for the first such vehicle.
    """
    if schema not in SCHEMAS:
        raise ValueError(f"unknown schema {schema!r}, expected one of {sorted(SCHEMAS)}")
    mapping = SCHEMAS[schema]
    with open(path, newline="") as src:
        # A pipe cannot seek back to name a bad row, so its bytes are read to memory.
        data = None if src.seekable() else src.buffer.read()
        try:
            fh = src if data is None else io.StringIO(data.decode(src.encoding), newline="")
            reader = csv.reader(fh)
            try:
                header = next(reader, None)
            except csv.Error as exc:
                raise ParseError(f"{path}: header: {exc}") from None
            if header is None:
                raise SchemaError(f"{path}: empty file")
            # A repeated name means its last column, as csv.DictReader read it.
            index = {name: i for i, name in enumerate(header)}
            for col in mapping.values():
                if col not in index:
                    raise SchemaError(f"{path}: missing column '{col}'")
            columns = [index[mapping[name]] for name in _ROW.names]
            source, skip = fh, 0
            if data is None and isinstance(src.name, str) and not src.name.endswith(_PACKED):
                # An absolute path is never taken for a URL.
                source, skip = os.path.join(os.getcwd(), src.name), reader.line_num
            try:
                with warnings.catch_warnings():
                    # A header alone is a file of no tracks.
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    rows = np.loadtxt(source, dtype=_ROW, comments=None, delimiter=",",
                                      quotechar='"', usecols=columns, ndmin=1,
                                      skiprows=skip, encoding=src.encoding)
            except UnicodeDecodeError:
                raise           # a ValueError too; the handler below names its line
            except ValueError as exc:
                raise _parse_error(fh, path, columns, exc) from None
        except UnicodeDecodeError as exc:
            raise _decode_error(path, data, exc) from None
    # Whole records are gathered in one take, which reads each once; a
    # take per column strides through every record once per column.
    rows = rows.take(np.lexsort((rows["frame"], rows["vehicle_id"])))
    vehicle, frame, lane = (rows[name].copy() for name in ("vehicle_id", "frame", "lane_id"))
    motion = np.stack([rows[name] for name in _MOTION])
    del rows
    first = np.ones(frame.size, dtype=bool)
    np.not_equal(vehicle[1:], vehicle[:-1], out=first[1:])
    offsets = np.append(np.flatnonzero(first), frame.size)
    try:
        return TrackBatch(vehicle[offsets[:-1]], offsets, frame, lane, motion)
    except _RowError as exc:
        start, stop = offsets[exc.index:exc.index + 2]
        reason = exc.reason
        if (frame[start + 1:stop] == frame[start:stop - 1]).any():
            reason = f"vehicle {vehicle[start]} has duplicate frames"
        raise ParseError(f"{path}: {reason}") from None


def _parse_error(fh, path, columns, exc) -> ParseError:
    """The ParseError for np.loadtxt's refusal ``exc`` of a row of ``fh``.

    numpy counts the non-blank records after the header, from 0 in "... at
    row N, column C." and from 1 in "invalid column index I at row N with K
    columns"; csv.reader walks to that record for its line. The reason is
    the row's width where it lacks a column, else int()'s or float()'s
    message where Python refuses a field too, else numpy's without its row.
    Where no row is named or csv.reader cannot reach it, numpy's message
    stands."""
    message = str(exc)
    found = re.search(r" at row (\d+)", message)
    if found is None:
        return ParseError(f"{path}: {message}")
    record = int(found[1]) - message.startswith("invalid column index")
    fh.seek(0)
    reader = csv.reader(fh)
    try:
        header = next(reader)
        row = next(itertools.islice(filter(None, reader), record, None))
    except (csv.Error, StopIteration):
        return ParseError(f"{path}: {message}")
    try:
        for name, i in zip(_ROW.names, columns):
            (int if _ROW[name].kind == "i" else float)(row[i])
    except IndexError:
        return ParseError(f"{path}: row {reader.line_num} has {len(row)} columns, "
                          f"the header has {len(header)}")
    except ValueError as bad:
        return ParseError(f"{path}: row {reader.line_num}: {bad}")
    return ParseError(f"{path}: row {reader.line_num}: {message[:found.start()]}")


def _decode_error(path, data, exc) -> ParseError:
    """The ParseError for ``exc``, a byte of ``path`` its codec refuses, on
    the byte's file line. ``exc`` counts from the chunk it decoded, so the
    file's bytes (``data``, or read again) are decoded strictly once more."""
    if data is None:
        with open(path, "rb") as raw:
            data = raw.read()
    try:
        data.decode(exc.encoding)
    except UnicodeDecodeError as bad:
        line = data.count(b"\n", 0, bad.start) + 1
        return ParseError(f"{path}: line {line}: {bad}")
    return ParseError(f"{path}: {exc}")     # the file changed since it was read


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


def _check_slots(n_vehicles):
    if not 2 <= n_vehicles <= MAX_VEHICLE_SLOTS:
        raise ValueError(f"need 2 to {MAX_VEHICLE_SLOTS} vehicle slots, got {n_vehicles}")


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


def extract_scenarios(tracks, fps, t_obs: float = T_OBS_S, t_pred: float = T_PRED_S,
                      n_vehicles: int = N_VEHICLES, target_ids=None,
                      rows=None) -> ScenarioBatch:
    """Slide fixed windows over every track and cut model-ready scenarios,
    returned as one ``ScenarioBatch`` in target-id order.

    ``tracks`` is a ``TrackBatch`` or an iterable of tracks (see
    ``track_batch``). A target's windows advance by the prediction length,
    so its consecutive futures do not overlap. A window needs the target
    fully covered over observation and prediction; neighbours only need
    the observation part and are ranked by distance to the target at the
    last observed step, then by vehicle id, then by their order in
    ``tracks``. Free slots are filled with ghost copies of the target.

    The work is linear in tracks times windows, all of it array code over
    the batch's columns, which are read in place. Every track's contiguous
    frame runs are found at once; each run yields the windows it covers,
    which one ``repeat``/``cumsum`` enumerates, and a window looks up its
    neighbours among the runs that start at most one longest run before
    it. Every window is labelled first, from its target's lane ids and y
    from the last observed step on. ``rows``, if given, is then called as
    ``rows(codes)`` with those labels, in target-id order, and returns the
    indices of the windows to cut: the batch holds only those, in that
    order, the rows of the batch that a call without ``rows`` returns.
    The windows are cut in blocks: one masked distance and one sort per
    block pick the neighbours, and one gather takes every slot's
    observation and the target's future into the batch's arrays. A block's
    padded candidate matrix and its gathered rows stay within
    ``_GATHER_BLOCK`` elements.
    """
    t_obs_steps, t_pred_steps = _window_steps(fps, t_obs, t_pred)
    _check_slots(n_vehicles)
    tracks = track_batch(tracks)
    window = t_obs_steps + t_pred_steps
    frame, track_row, vehicle = tracks.frame, tracks.offsets, tracks.vehicle_ids
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
    run_track = np.arange(len(tracks)).repeat(np.diff(track_run))
    longest = int((run_end - run_start).max(initial=0)) + 1
    first_frame = frame[track_row[:-1]]
    # Only an overflow makes a track's span negative.
    span = frame[track_row[1:] - 1] - first_frame
    if (span < 0).any():
        raise ValueError(f"vehicle {vehicle[(span < 0).argmax()]}: frames span more than int64")
    # Targets go in vehicle-id order, ties in input order. A track's id rank
    # is the place of the first track with its id in that order.
    order = vehicle.argsort(kind="stable")
    id_rank = vehicle[order].searchsorted(vehicle)
    targets = order if target_ids is None else order[np.isin(vehicle[order], list(target_ids))]
    # Window k of a target starts k prediction lengths after its first frame;
    # its runs, target after target, each cover the windows k_low up to k_low + count.
    runs = _concat_ranges(track_run[targets], track_run[targets + 1] - track_run[targets])
    base = first_frame[run_track[runs]]
    k_low = -((base - run_start[runs]) // t_pred_steps)
    count = np.maximum((run_end[runs] - (window - 1) - base) // t_pred_steps + 1 - k_low, 0)
    win_run = runs.repeat(count)
    win_track = run_track[win_run]
    win_start = first_frame[win_track] + t_pred_steps * _concat_ranges(k_low, count)
    win_first = run_off[win_run] + win_start
    skipped = int(np.maximum((span[targets] - (window - 1)) // t_pred_steps + 1, 0).sum())
    skipped -= win_run.size
    if skipped:
        log.info("extract_scenarios: skipped %d windows with coverage gaps", skipped)
    # Every window's label, from the target's rows from its last observed
    # step to the window's end, at most _GATHER_BLOCK rows at a time.
    ahead = np.arange(t_pred_steps + 1)
    codes = np.empty(win_run.size, dtype=np.int64)
    step = max(1, _GATHER_BLOCK // ahead.size)
    for lo in range(0, codes.size, step):
        future = (win_first[lo:lo + step, None] + (t_obs_steps - 1)) + ahead
        codes[lo:lo + step] = _maneuver_codes(tracks.lane_id[future], tracks.motion[1][future])
    if rows is not None:
        codes.flags.writeable = False
        chosen = np.asarray(rows(codes), dtype=np.int64)
        win_track, win_start, win_first, codes = (
            a[chosen] for a in (win_track, win_start, win_first, codes))
    # A run that covers a window's observation starts at most one longest
    # run before its last observed frame, and not after its first.
    by_start = run_start.argsort(kind="stable")
    cand_start = run_start[by_start]
    win_low = cand_start.searchsorted(win_start + (t_obs_steps - longest))
    win_high = cand_start.searchsorted(win_start, side="right")
    # Neighbour candidates: the runs sorted by start frame.
    cands = (run_end[by_start], run_off[by_start], run_track[by_start],
             id_rank[run_track[by_start]])
    # Rows gathered per window: every slot over the observation, then the
    # target from its last observed step to the window's end.
    back = np.arange(1 - t_obs_steps, 1)[:, None]
    data = tracks.motion
    n = win_start.size
    features = np.empty((n, len(CHANNELS), t_obs_steps, n_vehicles))
    futures = np.empty((n, t_pred_steps, 2))
    v0 = np.empty(n)
    n_obs = t_obs_steps * n_vehicles
    for w in _window_blocks(win_high - win_low, n_obs + ahead.size):
        last = win_start[w] + (t_obs_steps - 1)
        i0 = win_first[w] + (t_obs_steps - 1)
        slot_at = np.empty((last.size, n_vehicles), dtype=np.int64)
        slot_at[:, 0] = i0
        slot_at[:, 1:] = _nearest(data, cands, win_low[w], win_high[w], last, i0,
                                  id_rank[win_track[w]], len(tracks), n_vehicles - 1)
        gathered = np.concatenate([(back + slot_at[:, None]).reshape(last.size, n_obs),
                                   i0[:, None] + ahead], axis=1)
        got = data.take(gathered, axis=1)
        feats = features[w]
        feats[...] = got[:, :, :n_obs].reshape(
            4, last.size, t_obs_steps, n_vehicles).transpose(1, 0, 2, 3)
        # Positions relative to the target's first observed row.
        feats[:, :2] -= got[:2, :, 0].T[:, :, None, None]
        rest = got[:, :, n_obs:]
        futures[w] = (rest[:2, :, 1:] - rest[:2, :, :1]).transpose(1, 2, 0)
        v0[w] = rest[2, :, 0]
    target = vehicle[win_track]
    ids = tuple(f"v{v}-f{start}" for v, start in zip(target.tolist(), win_start.tolist()))
    return ScenarioBatch(ids, codes, v0, win_start, target, features, futures, float(fps))


def _concat_ranges(starts, counts):
    """``arange(s, s + c)`` for every start s and count c, joined."""
    return (starts - (counts.cumsum() - counts)).repeat(counts) + np.arange(counts.sum())


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


def balance_indices(codes, seed: int) -> np.ndarray:
    """The ascending row indices that keep, of the scenarios whose maneuver
    codes are ``codes``, as many of each class as the smallest class has,
    drawn class by class. It needs the codes alone, so ``prep`` can pass it
    to ``extract_scenarios`` and cut only the windows it keeps. An empty
    class raises BalanceError naming it."""
    codes = np.asarray(codes)
    groups = [np.flatnonzero(codes == code) for code in range(len(MANEUVERS))]
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
    return np.sort(np.concatenate(keep))


def split(batch: ScenarioBatch, ratio: float, seed: int) -> DatasetSplit:
    """Deterministic stratified train/test split of ``batch`` into two
    batches, the rows ``split_indices`` gives for its codes."""
    train_idx, test_idx = split_indices(batch.codes, ratio, seed)
    return DatasetSplit(train=batch[train_idx], test=batch[test_idx], seed=seed)


def split_indices(codes, ratio: float, seed: int):
    """The row indices of the train and test sides of the scenarios whose
    maneuver codes are ``codes``, each side ascending, so an archive's side
    is read in file order. It needs the codes alone, so ``train`` and
    ``eval --subset`` can call it on an archive's head and read each side,
    or only one, block by block.

    Per-class quotas use largest-remainder rounding so the overall train
    fraction matches ``ratio`` as closely as an integer count allows.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"split ratio must be in (0, 1), got {ratio}")
    codes = np.asarray(codes)
    n = len(codes)
    if n < 2:
        raise SplitError(f"need at least 2 scenarios to split, got {n}")
    target_train = min(max(int(round(ratio * n)), 1), n - 1)
    groups = [np.flatnonzero(codes == code) for code in range(len(MANEUVERS))]
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
    train_idx = np.sort(np.concatenate(train_idx))
    test_idx = np.sort(np.concatenate(test_idx))
    if not train_idx.size or not test_idx.size:
        raise SplitError("split produced an empty side; adjust ratio or data")
    return train_idx, test_idx


def _uniform(u, *ranges):
    """Rows of ``random()`` doubles as ``Generator.uniform`` maps them, one
    (lo, hi) range per column: the columns lo + (hi - lo) * u."""
    lo, hi = np.array(ranges).T
    return (lo + (hi - lo) * np.reshape(u, (-1, len(ranges)))).T


def _synthetic_scenes(rng, codes, fps, n_frames, t0_index, t_pred_s,
                      n_vehicles, noise_std) -> TrackBatch:
    """The tracks of one scene per maneuver code: a target with that
    maneuver plus random cruisers, as one batch that holds every target
    and then every cruiser.

    Scene i covers frames i·n_frames onward; its target has vehicle id
    1 + i·_SCENE_VEHICLES and its cruisers the ids after it, so no
    vehicle is in view with another scene's. Longitudinal motion is
    uniformly accelerated; lane changes follow a logistic lateral profile
    of one lane width, centred halfway into the prediction window, which
    keeps the lane id at the last observed step unchanged and flips it
    inside the window. Lane ids come from the noise-free lateral position
    so labels stay exact under sensor noise. A cruiser's track ends at the
    last observed step (step ``t0_index``), since extraction reads a
    neighbour over the observation only.

    The random draws, whose order fixes every scene, are made scene by
    scene: the target's speed, acceleration, position, lane and
    lane-change rate, its noise, the number of cruisers, then each
    cruiser's speed, offset, lane and noise (of every frame). Each
    unbroken run of draws of one kind is one call on the same stream:
    ``uniform(lo, hi)`` is lo + (hi - lo) u of one ``random()`` double u,
    so a run of uniforms is one ``random(k)`` mapped for all scenes at
    once; ``normal(0, s, (2, m))`` draws two ``normal(0, s, m)``; and
    ``integers``, which takes 32-bit halves from a buffer, stays a call
    of its own. Every column is then computed for all scenes at once and
    written into the batch.
    """
    n_max = min(_SCENE_VEHICLES - 1, n_vehicles - 1)
    n_obs = t0_index + 1
    noisy = noise_std > 0.0
    target_u, lane0, rate_u = [], [], []    # per scene
    scene, cruiser_u, lane_n = [], [], []   # per cruiser
    target_noise, cruiser_noise = [], []    # (x, y) noise rows per vehicle
    for i in range(len(codes)):
        target_u.append(rng.random(3))
        lane0.append(rng.integers(1, 5))
        rate_u.append(rng.random())
        if noisy:
            target_noise.append(rng.normal(0.0, noise_std, (2, n_frames)))
        for _ in range(rng.integers(0, n_max + 1)):
            scene.append(i)
            cruiser_u.append(rng.random(2))
            lane_n.append(rng.integers(1, 5))
            if noisy:
                cruiser_noise.append(rng.normal(0.0, noise_std, (2, n_frames))[:, :n_obs].copy())
    v0, accel, x0 = _uniform(target_u, SPEED_RANGE, ACCEL_RANGE, (0.0, 200.0))
    (rate,) = _uniform(rate_u, RATE_RANGE)
    vn, dx0 = _uniform(cruiser_u, SPEED_RANGE, (-80.0, 80.0))
    lane0, scene, lane_n = (np.array(a, dtype=np.int64) for a in (lane0, scene, lane_n))
    n, n_cruisers = len(codes), scene.size
    split = n * n_frames
    motion = np.empty((4, split + n_cruisers * n_obs))
    # The targets' and the cruisers' rows, one row of steps per vehicle.
    target_motion = motion[:, :split].reshape(4, n, n_frames)
    cruiser_motion = motion[:, split:].reshape(4, n_cruisers, n_obs)
    for columns, noise in ((target_motion, target_noise), (cruiser_motion, cruiser_noise)):
        if noise:
            np.stack(noise, axis=1, out=columns[:2])
    del target_noise, cruiser_noise

    def put(columns, channel, values):
        # Noise lies under x and y already; addition is commutative, so
        # the sum is the noise-free value plus the noise, as drawn.
        if noisy and channel < 2:
            columns[channel] += values
        else:
            columns[channel] = values

    times = np.arange(n_frames) / fps
    mid = times[t0_index] + 0.5 * t_pred_s
    amplitude = np.array((0.0, LANE_WIDTH, -LANE_WIDTH))[codes]
    put(target_motion, 0,
        x0[:, None] + v0[:, None] * times + (0.5 * accel)[:, None] * times ** 2)
    put(target_motion, 2, v0[:, None] + accel[:, None] * times)
    g = expit(rate[:, None] * (times - mid))
    y = ((lane0 + 0.5) * LANE_WIDTH)[:, None] + amplitude[:, None] * g
    lane = np.concatenate((np.floor(y / LANE_WIDTH).astype(np.int64).reshape(-1),
                           lane_n.repeat(n_obs)))
    put(target_motion, 1, y)
    put(target_motion, 3, (amplitude * rate)[:, None] * g * (1.0 - g))
    put(cruiser_motion, 0, (x0[scene] + dx0)[:, None] + vn[:, None] * times[:n_obs])
    put(cruiser_motion, 1, ((lane_n + 0.5) * LANE_WIDTH)[:, None])
    put(cruiser_motion, 2, vn[:, None])
    put(cruiser_motion, 3, 0.0)
    frame = np.concatenate((np.arange(split),
                            ((scene * n_frames)[:, None] + np.arange(n_obs)).reshape(-1)))
    # A cruiser's id follows its target's and the cruisers before it in its scene.
    per_scene = np.bincount(scene, minlength=n)
    place = np.arange(n_cruisers) - (per_scene.cumsum() - per_scene)[scene]
    return TrackBatch(
        np.concatenate((1 + np.arange(n) * _SCENE_VEHICLES, 2 + scene * _SCENE_VEHICLES + place)),
        np.concatenate((np.arange(n) * n_frames, split + np.arange(n_cruisers + 1) * n_obs)),
        frame, lane, motion)


def synthesize(n: int, fps, seed: int, noise_std: float = 0.0,
               t_obs: float = T_OBS_S, t_pred: float = T_PRED_S,
               n_vehicles: int = N_VEHICLES) -> ScenarioBatch:
    """Generate labelled scenarios from a parametric motion family.

    Classes cycle keep/left/right so counts differ by at most one. The
    scenarios go through the same extraction path as recorded data, and
    the constructed maneuver must survive labelling, which pins the label
    conventions to the generator.

    Every scene gets frames and vehicle ids of its own (see
    ``_synthetic_scenes``), so no scene's vehicle can be another's
    neighbour. All scenes are drawn into one ``TrackBatch`` first, and one
    ``extract_scenarios`` call then cuts the one window of every scene's
    target from it. The labels are checked with one compare, and the batch
    is renamed ``synth-%05d`` as a whole.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not (math.isfinite(noise_std) and noise_std >= 0.0):
        raise ValueError(f"noise_std must be finite and non-negative, got {noise_std}")
    t_obs_steps, t_pred_steps = _window_steps(fps, t_obs, t_pred)
    _check_slots(n_vehicles)
    wanted = np.arange(n) % len(MANEUVERS)
    tracks = _synthetic_scenes(
        np.random.default_rng(seed), wanted, fps, t_obs_steps + t_pred_steps,
        t_obs_steps - 1, t_pred_steps / fps, n_vehicles, noise_std)
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
    return batch._derive(ids=tuple(f"synth-{i:05d}" for i in range(n)))


def save_archive(path, batch: ScenarioBatch, fps):
    """Write the scenarios of ``batch`` to an archive (format version 4).

    The head holds the fps, the grid (t_obs, t_pred, n_vehicles) every
    scenario shares and the scenario ids, as one list of strings. The
    payload is, as raw float64 (see ``store.write_document``), the (n,)
    columns of maneuver codes, v0, first_frame and vehicle_id, then the
    batch's (n, 4, T_obs, N_V) features and its (n, T_pred, 2) futures.
    """
    fps = float(fps)
    if not len(batch):
        raise ValueError("an archive needs at least one scenario")
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
        "ids": list(batch.ids),
    }
    columns = {name: getattr(batch, name) for name in _COLUMNS}
    write_document(path, head, {**columns, "features": batch.features, "future": batch.futures})


class Archive:
    """Rows of an open scenario archive (see ``open_archive``): all of
    them, or the ones ``take`` picks, in file order. The head, the
    ids and the (n,) columns are in memory; ``read`` and ``blocks`` read
    the chosen rows' features and futures from the payload. ``fps``,
    ``t_obs``, ``t_pred`` and ``n_vehicles`` are the archive's, ``ids``
    are every row's, and ``len`` counts the chosen rows."""

    def __init__(self, path, doc, fps, ids, grid, columns, rows):
        self.path = path
        self._doc = doc
        self.fps = fps
        self.ids = ids
        self.t_obs, self.t_pred, self.n_vehicles = grid
        self._columns = columns
        self._rows = rows

    def __len__(self):
        return self._rows.size

    def _describe(self, i) -> str:
        return f"{self.path}: scenario {i} ({self.ids[i]!r})"

    def codes(self) -> np.ndarray:
        """The maneuver codes of every row of the archive, once every row
        has passed the scenario rule's checks of its code, its v0 and the
        fps; the first row that fails raises ValueError naming its index
        and id."""
        given, v0 = self._columns[:2]
        codes = _maneuver_index(given)
        _check_rule(_head_checks(self.ids, given, codes, v0, self.fps), self._describe)
        return codes

    def take(self, rows) -> "Archive":
        """The rows ``rows``, ascending indices into the whole archive: a
        read gives them in file order, each run of consecutive rows in one
        call, and rows that descend are refused when read."""
        picked = copy.copy(self)
        picked._rows = np.asarray(rows, dtype=np.int64)
        return picked

    def read(self, start=0, stop=None) -> ScenarioBatch:
        """The chosen rows ``start`` to ``stop`` (to the last if None) as a
        batch that the scenario rule checked. Only their features and
        futures are read; a row that breaks the rule raises ValueError
        naming its index in the archive and its id, with the key at fault."""
        picked = self._rows[start:stop]
        payload = self._doc.payload
        columns = [column[picked] for column in self._columns]
        features, future = payload.read("features", picked), payload.read("future", picked)
        picked = picked.tolist()
        try:
            return ScenarioBatch([self.ids[i] for i in picked], *columns, features, future,
                                 self.fps)
        except _RowError as exc:    # named by its index in the archive
            raise ValueError(f"{self._describe(picked[exc.index])}: {exc.reason}") from None
        except ValueError as exc:
            raise ValueError(f"{self.path}: {exc}") from None

    def blocks(self):
        """The chosen rows as ``read`` gives them, ``BLOCK_ROWS`` at a time, in order."""
        for start in range(0, len(self), BLOCK_ROWS):
            yield self.read(start, start + BLOCK_ROWS)


@contextlib.contextmanager
def open_archive(path):
    """The scenario archive at ``path``, of format version 4, as an
    ``Archive`` of all its rows; the file stays open until the block ends.
    Any other version is refused.

    The head's fps, grid and ids (a list of strings) are read, the
    payload's length is checked against the head, and the four (n,)
    columns are read whole; no scenario's features or future are read
    here. A corrupt or empty document raises ValueError naming the path
    and the key at fault.
    """
    with open_document(path, "archive", "version", ARCHIVE_VERSION) as doc:
        fps = doc.value("fps", float)
        grid = tuple(doc.value(key, int) for key in ("t_obs", "t_pred", "n_vehicles"))
        ids = tuple(doc.value("ids", list))
        if set(map(type, ids)) - {str}:
            raise doc.error("ids must be a list of strings")
        if not ids:
            raise ValueError(f"{path}: archive contains no scenarios")
        n = len(ids)
        t_obs, t_pred, n_vehicles = grid
        doc.payload.expect({**dict.fromkeys(_COLUMNS, (n,)),
                            "features": (n, len(CHANNELS), t_obs, n_vehicles),
                            "future": (n, t_pred, 2)},
                           f"{n} scenarios on grid (t_obs, t_pred, n_vehicles) = {grid}")
        columns = [doc.payload.read(name) for name in _COLUMNS]
        yield Archive(path, doc, fps, ids, grid, columns, np.arange(n))


def load_archive(path):
    """Read a scenario archive of format version 4 (see ``open_archive``);
    returns (batch, fps), where batch is a ``ScenarioBatch`` of every
    scenario, checked by the scenario rule once: the archive's one-block
    read. A bad scenario raises ValueError naming the path, its index in
    the archive and its id, with the key at fault.
    """
    with open_archive(path) as archive:
        return archive.read(), archive.fps
