import contextlib
import csv
import hashlib
import io
import json
import logging
import math
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from gftnn import scenario
from gftnn.model import _own_batch
from gftnn.scenario import (MANEUVERS, MAX_VEHICLE_SLOTS, MAX_WINDOW_STEPS, BalanceError,
                            ParseError, RawTrack, Scenario, ScenarioBatch, SchemaError,
                            SplitError, TrackBatch, _window_steps, balance, extract_scenarios,
                            ingest_tracks, label_maneuver, load_archive, save_archive,
                            split, synthesize, track_batch)
from gftnn.store import write_document
from helpers import (edited_head, extract_scenarios_reference, ingest_tracks_reference,
                     label_maneuver_reference, multilane_scene, poked, rewrite_head,
                     split_head, synthesize_reference, three_class_tracks, write_tracks_csv)


def straight_track(vehicle_id, n, v=30.0, x0=0.0, y=8.75, lane=2, fps=10.0):
    t = np.arange(n) / fps
    return RawTrack(vehicle_id, np.arange(n), x0 + v * t, np.full(n, y),
                    np.full(n, v), np.zeros(n), np.full(n, lane, dtype=np.int64))


# --------------------------------------------------------------------- ingest

def test_ingest_roundtrip(tmp_path):
    path = tmp_path / "tracks.csv"
    tracks = three_class_tracks(fps=5)
    write_tracks_csv(path, tracks)
    back = ingest_tracks(path)
    assert [tr.vehicle_id for tr in back] == [1, 2, 3]
    for a, b in zip(tracks, back):
        assert np.array_equal(a.frame, b.frame)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.lane_id, b.lane_id)


def test_ingest_schemas_equivalent(tmp_path):
    tracks = three_class_tracks(fps=5)
    p1 = tmp_path / "norm.csv"
    p2 = tmp_path / "highd.csv"
    write_tracks_csv(p1, tracks, schema="normalized")
    write_tracks_csv(p2, tracks, schema="highd_like")
    t1 = ingest_tracks(p1, schema="normalized")
    t2 = ingest_tracks(p2, schema="highd_like")
    for a, b in zip(t1, t2):
        assert a.vehicle_id == b.vehicle_id
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.vy, b.vy)


def test_ingest_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("frame,vehicle_id,x,y,vx,vy\n1,1,0,0,1,0\n")
    with pytest.raises(SchemaError, match="lane_id"):
        ingest_tracks(path)


def test_ingest_bad_value_reports_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("frame,vehicle_id,x,y,vx,vy,lane_id\n"
                    "1,1,0.0,0.0,1.0,0.0,2\n"
                    "2,1,oops,0.0,1.0,0.0,2\n")
    with pytest.raises(ParseError, match="row 3"):
        ingest_tracks(path)


def test_ingest_duplicate_frame(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("frame,vehicle_id,x,y,vx,vy,lane_id\n"
                    "1,1,0,0,1,0,2\n1,1,0,0,1,0,2\n")
    with pytest.raises(ParseError, match="duplicate"):
        ingest_tracks(path)


def test_ingest_unknown_schema(tmp_path):
    with pytest.raises(ValueError, match="schema"):
        ingest_tracks(tmp_path / "x.csv", schema="nonsense")


def test_track_gaps_are_preserved(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("frame,vehicle_id,x,y,vx,vy,lane_id\n"
                    "1,7,0,0,1,0,2\n3,7,2,0,1,0,2\n")
    (track,) = ingest_tracks(path)
    assert np.array_equal(track.frame, [1, 3])


HEADER = "frame,vehicle_id,x,y,vx,vy,lane_id\n"


def test_ingest_unsorted_rows(tmp_path):
    tracks = three_class_tracks(fps=5)
    write_tracks_csv(tmp_path / "sorted.csv", tracks)
    head, *rows = (tmp_path / "sorted.csv").read_text().splitlines(keepends=True)
    rows = [rows[i] for i in np.random.default_rng(0).permutation(len(rows))]
    (tmp_path / "shuffled.csv").write_text(head + "".join(rows))
    want = ingest_tracks(tmp_path / "sorted.csv")
    got = ingest_tracks(tmp_path / "shuffled.csv")
    assert [tr.vehicle_id for tr in got] == [1, 2, 3]
    for a, b in zip(want, got):
        for name in ("frame", "x", "y", "vx", "vy", "lane_id"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_ingest_keeps_integer_ids_above_float_precision(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text(HEADER + "9007199254740993,1,0.0,0.0,1.0,0.0,9007199254740993\n"
                    "9007199254740995,1,0.1,0.0,1.0,0.0,2\n")
    (track,) = ingest_tracks(path)
    assert track.frame.dtype == np.int64 and track.lane_id.dtype == np.int64
    assert track.frame.tolist() == [9007199254740993, 9007199254740995]
    assert track.lane_id.tolist() == [9007199254740993, 2]
    path.write_text(HEADER + "9223372036854775808,1,0.0,0.0,1.0,0.0,2\n")
    with pytest.raises(ParseError, match="big.csv: "):
        ingest_tracks(path)


def test_ingest_duplicate_frame_names_the_vehicle(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(HEADER + "1,1,0,0,1,0,2\n2,4,0,0,1,0,2\n"
                    "1,4,0,0,1,0,2\n2,1,0,0,1,0,2\n2,4,5,0,1,0,2\n")
    with pytest.raises(ParseError, match="vehicle 4 has duplicate frames"):
        ingest_tracks(path)


@pytest.mark.parametrize("column, value", [("x", "nan"), ("vy", "inf"), ("y", "-Infinity")])
def test_ingest_non_finite_value_names_the_vehicle(tmp_path, column, value):
    row = dict(frame="2", vehicle_id="7", x="1.0", y="0.0", vx="1.0", vy="0.0", lane_id="2")
    row[column] = value
    path = tmp_path / "nan.csv"
    path.write_text(HEADER + "1,7,0.0,0.0,1.0,0.0,2\n" + ",".join(row.values()) + "\n")
    with pytest.raises(ValueError, match=f"nan.csv: vehicle 7: non-finite {column}$"):
        ingest_tracks(path)


def test_ingest_skips_blank_lines_and_counts_them_in_row_numbers(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text(HEADER + "1,1,0.0,0.0,1.0,0.0,2\n\n2,1,0.1,0.0,1.0,0.0,2\n\n")
    (track,) = ingest_tracks(path)
    assert track.frame.tolist() == [1, 2]
    path.write_text(HEADER + "1,1,0.0,0.0,1.0,0.0,2\n\n\n2,1,oops,0.0,1.0,0.0,2\n")
    with pytest.raises(ParseError, match="row 5: could not convert string to float: 'oops'"):
        ingest_tracks(path)


def test_ingest_short_row_names_line_and_width(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text(HEADER + "1,1,0.0,0.0,1.0,0.0,2\n\n2,1,0.1\n")
    with pytest.raises(ParseError, match=r"short.csv: row 4 has 3 columns, the header has 7$"):
        ingest_tracks(path)


def test_ingest_malformed_csv_names_the_row(tmp_path):
    # A quote that never closes takes the rest of the file into x.
    path = tmp_path / "quote.csv"
    path.write_text(HEADER + '1,1,0.0,0.0,1.0,0.0,2\n2,1,"0,0.0,1.0,0.0,2\n')
    with pytest.raises(ParseError) as info:
        ingest_tracks(path)
    assert str(info.value) == f"{path}: row 3: could not convert string to float: " \
                              "'0,0.0,1.0,0.0,2\\n'"


def test_loadtxt_numbers_records_as_the_namer_reads_them():
    # Both shapes count the non-blank records after the header: a bad
    # value from 0, a short row from 1. The namer relies on both.
    text = "a,b\n1,2\n\n3,x\n"
    with pytest.raises(ValueError) as info:
        np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, usecols=[0, 1])
    assert str(info.value) == "could not convert string 'x' to float64 at row 1, column 2."
    with pytest.raises(ValueError) as info:
        np.loadtxt(io.StringIO(text.replace(",x", "")), delimiter=",", skiprows=1,
                   usecols=[0, 1])
    assert str(info.value) == "invalid column index 1 at row 2 with 1 columns"


@pytest.mark.parametrize("long_row, want", [
    # Where csv.reader refuses the long field at or before the bad row,
    # numpy's own message, with its record number, stands.
    (2, "could not convert string 'oops' to float64 at row 1, column 3."),
    (3, "could not convert string 'oops' to float64 at row 1, column 3."),
    (4, "row 3: could not convert string to float: 'oops'"),
])
def test_ingest_names_a_bad_row_past_a_field_csv_refuses(tmp_path, long_row, want):
    rows = ["1,1,0.0,0.0,1.0,0.0,2,a", "2,1,oops,0.0,1.0,0.0,2,b", "3,1,0.5,0.0,1.0,0.0,2,c"]
    rows[long_row - 2] += "n" * LONG
    path = tmp_path / "tracks.csv"
    path.write_text(HEADER.rstrip("\n") + ",note\n" + "\n".join(rows) + "\n")
    with pytest.raises(ParseError) as info:
        ingest_tracks(path)
    assert str(info.value) == f"{path}: {want}"


def test_ingest_header_past_csv_field_limit_raises_parse_error(tmp_path):
    path = tmp_path / "tracks.csv"
    path.write_text(HEADER.rstrip("\n") + "," + "n" * LONG + "\n1,1,0.0,0.0,1.0,0.0,2,a\n")
    with pytest.raises(ParseError) as info:
        ingest_tracks(path)
    assert str(info.value) == (f"{path}: header: field larger than field limit "
                               f"({csv.field_size_limit()})")


def test_ingest_keeps_a_message_that_names_no_row(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise ValueError("no row here")

    path = tmp_path / "tracks.csv"
    path.write_text(HEADER + "1,1,0.0,0.0,1.0,0.0,2\n")
    monkeypatch.setattr(scenario.np, "loadtxt", refuse)
    with pytest.raises(ParseError) as info:
        ingest_tracks(path)
    assert str(info.value) == f"{path}: no row here"


def test_ingest_reads_rows_short_of_unused_columns(tmp_path):
    # As csv.DictReader did: only the columns the schema names must be there.
    path = tmp_path / "extra.csv"
    path.write_text("frame,vehicle_id,x,y,vx,vy,lane_id,width,height\n"
                    "1,1,0.0,0.0,1.0,0.0,2,4.5,1.8\n2,1,0.1,0.0,1.0,0.0,2\n")
    (track,) = ingest_tracks(path)
    assert track.x.tolist() == [0.0, 0.1]


def test_ingest_highd_like_columns_in_any_order(tmp_path):
    path = tmp_path / "highd.csv"
    path.write_text("id,frame,laneId,width,xVelocity,yVelocity,x,y\n"
                    "3,2,4,1.8,30.0,0.5,10.0,5.0\n3,1,4,1.8,29.0,0.25,7.0,4.5\n")
    (track,) = ingest_tracks(path, schema="highd_like")
    assert track.vehicle_id == 3
    assert track.frame.tolist() == [1, 2]
    assert track.x.tolist() == [7.0, 10.0]
    assert track.vy.tolist() == [0.25, 0.5]
    assert track.lane_id.tolist() == [4, 4]
    with pytest.raises(SchemaError, match="missing column 'vehicle_id'"):
        ingest_tracks(path)


def _ingest_outcome(ingest, path, schema):
    """The tracks read, with each id's type and every array's dtype and
    bytes, or the error raised."""
    try:
        tracks = ingest(path, schema)
    except ValueError as exc:
        return type(exc), str(exc)
    return [(type(tr.vehicle_id), tr.vehicle_id,
             [(getattr(tr, name).dtype.str, getattr(tr, name).tobytes())
              for name in ("frame", "x", "y", "vx", "vy", "lane_id")]) for tr in tracks]


def _write_highd_with_extras(path, tracks, seed):
    """The tracks in the highd_like schema plus three unused columns, all
    columns in shuffled order."""
    write_tracks_csv(path, tracks, schema="highd_like")
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    header += ["width", "height", "precedingId"]
    rows = [row + ["4.5", "1.8", str(i % 7)] for i, row in enumerate(rows)]
    order = np.random.default_rng(seed).permutation(len(header))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(",".join(row[j] for j in order) for row in [header, *rows]) + "\n")


@pytest.mark.parametrize("seed, fps, duplicate_id", [(0, 10, False), (1, 25, False),
                                                     (2, 10, True)])
def test_ingest_matches_row_loop_reference_on_recordings(tmp_path, seed, fps, duplicate_id):
    tracks = multilane_scene(seed, fps, n_tracks=20, duplicate_id=duplicate_id)
    write_tracks_csv(tmp_path / "n.csv", tracks)
    _write_highd_with_extras(tmp_path / "h.csv", tracks, seed)
    for path, schema in ((tmp_path / "n.csv", "normalized"), (tmp_path / "h.csv", "highd_like")):
        want = _ingest_outcome(ingest_tracks_reference, path, schema)
        assert _ingest_outcome(ingest_tracks, path, schema) == want
        assert isinstance(want, tuple) == duplicate_id


@pytest.mark.parametrize("seed, duplicate_id", [(4, False), (5, False), (6, True)])
def test_ingest_of_shuffled_rows_matches_per_track_reference(tmp_path, seed, duplicate_id):
    # The batch holds the reference's tracks one after another; the twin
    # that repeats a vehicle id repeats its frames, which both refuse.
    tracks = multilane_scene(seed, 25, n_tracks=16, duplicate_id=duplicate_id)
    write_tracks_csv(tmp_path / "sorted.csv", tracks)
    head, *rows = (tmp_path / "sorted.csv").read_text().splitlines(keepends=True)
    rows = [rows[i] for i in np.random.default_rng(seed).permutation(len(rows))]
    path = tmp_path / "shuffled.csv"
    path.write_text(head + "".join(rows))
    want = _ingest_outcome(ingest_tracks_reference, path, "normalized")
    assert _ingest_outcome(ingest_tracks, path, "normalized") == want
    assert isinstance(want, tuple) == duplicate_id
    if duplicate_id:
        return
    got, want = ingest_tracks(path), ingest_tracks_reference(path)
    assert isinstance(got, TrackBatch)
    assert got.vehicle_ids.tolist() == [tr.vehicle_id for tr in want]
    assert got.offsets.tolist() == np.cumsum([0, *map(len, want)]).tolist()
    for name, column in (("frame", got.frame), ("lane_id", got.lane_id),
                         *zip(("x", "y", "vx", "vy"), got.motion)):
        assert column.tobytes() == np.concatenate([getattr(tr, name) for tr in want]).tobytes()


LONG = 200_000
# Data rows after HEADER, one file each; ingest_tracks must read every one
# as the row loop does, the same tracks or the same error message, unless
# CHANGED gives its outcome.
INGEST_CASES = {
    "bad value": "1,1,0.0,0.0,1.0,0.0,2\n2,1,oops,0.0,1.0,0.0,2\n",
    "duplicate frame": "1,1,0,0,1,0,2\n1,1,0,0,1,0,2\n",
    "duplicate frame, later vehicle": "1,1,0,0,1,0,2\n2,4,0,0,1,0,2\n1,4,0,0,1,0,2\n"
                                      "2,1,0,0,1,0,2\n2,4,5,0,1,0,2\n",
    "gap": "1,7,0,0,1,0,2\n3,7,2,0,1,0,2\n",
    "ints above float precision": "9007199254740993,1,0.0,0.0,1.0,0.0,9007199254740993\n"
                                  "9007199254740995,1,0.1,0.0,1.0,0.0,2\n",
    "frame 2**63": "9223372036854775808,1,0.0,0.0,1.0,0.0,2\n",
    "lane 2**63 after a duplicate": "1,1,0,0,1,0,2\n1,1,0,0,1,0,2\n1,2,0,0,1,0,9223372036854775808\n",
    "id 2**63": "1,9223372036854775808,0.0,0.0,1.0,0.0,2\n2,9223372036854775808,0.5,0.0,1.0,0.0,2\n"
                "1,-9223372036854775809,0.0,0.0,1.0,0.0,2\n1,3,0.0,0.0,1.0,0.0,2\n",
    "frames -2**63 and 0": "-9223372036854775808,1,0.0,0.0,1.0,0.0,2\n0,1,0.0,0.0,1.0,0.0,2\n",
    "frames -2**63 and 0, lane 2**63": "-9223372036854775808,1,0.0,0.0,1.0,0.0,2\n"
                                       "0,1,0.0,0.0,1.0,0.0,9223372036854775808\n",
    "nan in x": "1,7,0.0,0.0,1.0,0.0,2\n2,7,nan,0.0,1.0,0.0,2\n",
    "inf in vy, nan in a later vehicle": "1,7,0.0,0.0,1.0,inf,2\n1,8,nan,0.0,1.0,0.0,2\n",
    "-Infinity in y": "1,7,0.0,-Infinity,1.0,0.0,2\n",
    "blank lines": "1,1,0.0,0.0,1.0,0.0,2\n\n2,1,0.1,0.0,1.0,0.0,2\n\n",
    "blank lines before a bad value": "1,1,0.0,0.0,1.0,0.0,2\n\n\n2,1,oops,0.0,1.0,0.0,2\n",
    "short row": "1,1,0.0,0.0,1.0,0.0,2\n\n2,1,0.1\n",
    "# line": "1,1,0.0,0.0,1.0,0.0,2\n# a comment\n",
    "whitespace-only line": "1,1,0.0,0.0,1.0,0.0,2\n  \t\n2,1,0.1,0.0,1.0,0.0,2\n",
    "1.0 in an int column": "1.0,1,0.0,0.0,1.0,0.0,2\n",
    "1_000": "1_000,1,0.0,0.0,1.0,0.0,2\n1,1,1_0.5,0.0,1.0,0.0,2\n",
    "header only": "",
    "quoted numbers": '"1","1","0.5",0.0,1.0,0.0,"2"\n"2",1,"0""",0.0,1.0,0.0,2\n',
    "quoted then more": '2,1,"0"5,0.0,1.0,0.0,2\n1,1,0.5,0.0,1.0,0.0,2\n',
    "CRLF line ends": "1,1,0.0,0.0,1.0,0.0,2\r\n2,1,0.1,0.0,1.0,0.0,2\r\n",
    "CR line ends": "1,1,0.0,0.0,1.0,0.0,2\r2,1,0.1,0.0,1.0,0.0,2\r",
    "surrounding spaces": " 1 ,1, 0.5 ,+0.0,1e0,-0.0,\t2\n",
    "unicode digits": "١,1,٠.5,0.0,1.0,0.0,2\n",
    "200 000-digit field": "1,1,0.0,0.0,1.0,0.0,2\n2,1," + "9" * LONG + ",0,1,0,2\n",
    "long finite field": "1,1,0.0,0.0,1.0,0.0,2\n2,1,0." + "0" * LONG + "1,0,1,0,2\n",
    "trailing empty column": "1,1,0.0,0.0,1.0,0.0,2,\n2,1,0.1,0.0,1.0,0.0,2,\n",
    "short of a trailing empty column": "1,1,0.0,0.0,1.0,0.0,2,\n2,1,0.1,0.0,1.0,0.0\n",
}

LONG_FILE = "".join(f"{f},1,{f / 8},0.0,1.0,0.0,2,x\n" for f in range(7000))
# Data rows after HEADER with an unused note column and LONG_FILE, one
# file each, read as INGEST_CASES are.
UNUSED_COLUMN_CASES = {
    "none": "",
    "plain": "1,1,0.0,0.0,1.0,0.0,2,x\n",
    "long unused field": "1,1,0.0,0.0,1.0,0.0,2," + "a" * LONG + "\n",
    "long quoted field": "a,b\n" * 3 + '1,1,0.0,0.0,1.0,0.0,2,"' + "b,\n" * LONG + '"\n',
    "unclosed quote": '1,1,0.0,0.0,1.0,0.0,2,"' + "b,\n" * LONG,
    "NUL": "1,1,0.0,0.0,1.0,0.0,2,a\x00b\n",
}
# The INGEST_CASES and UNUSED_COLUMN_CASES where np.loadtxt, the only
# reader, decides otherwise than the row loop: it takes no integer beyond
# int64, no "1_000" and no non-ASCII digit, and no csv field size limit.
# Each maps to ingest_tracks' ParseError message after the path, or, for
# a file it reads, to data rows the row loop reads to the same tracks.
TOO_WIDE = "could not convert string '9223372036854775808' to int64"
CHANGED = {
    "frame 2**63": f"row 2: {TOO_WIDE}",
    "lane 2**63 after a duplicate": f"row 4: {TOO_WIDE}",
    "id 2**63": f"row 2: {TOO_WIDE}",
    "frames -2**63 and 0, lane 2**63": f"row 3: {TOO_WIDE}",
    "1_000": "row 2: could not convert string '1_000' to int64",
    "unicode digits": "row 2: could not convert string '١' to int64",
    "200 000-digit field": "vehicle 1: non-finite x",
    "long finite field": ("1,1,0.0,0.0,1.0,0.0,2\n2,1,0.0,0,1,0,2\n",),
    "long unused field": "vehicle 1 has duplicate frames",
    "unclosed quote": "vehicle 1 has duplicate frames",
}


def _expected_outcome(tmp_path, case, path):
    """What ingest_tracks must give for ``case`` written to ``path``."""
    assert CHANGED.keys() <= INGEST_CASES.keys() | UNUSED_COLUMN_CASES.keys()
    want = CHANGED.get(case)
    if isinstance(want, str):
        return ParseError, f"{path}: {want}"
    if want is not None:
        path = tmp_path / "same-tracks.csv"
        path.write_text(HEADER + want[0])
    return _ingest_outcome(ingest_tracks_reference, path, "normalized")


@pytest.mark.parametrize("case", INGEST_CASES)
def test_ingest_matches_row_loop_reference(tmp_path, case):
    path = tmp_path / "tracks.csv"
    path.write_bytes((HEADER + INGEST_CASES[case]).encode())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _ingest_outcome(ingest_tracks, path, "normalized")
    assert got == _expected_outcome(tmp_path, case, path)
    assert not caught      # e.g. loadtxt's warning on a file without data rows


@pytest.mark.parametrize("case", UNUSED_COLUMN_CASES)
def test_ingest_unused_columns_match_row_loop_reference(tmp_path, case):
    # A field in a column the schema does not name still has to pass
    # np.loadtxt; a bad row after 7000 good ones is still named by its line.
    path = tmp_path / "tracks.csv"
    path.write_bytes((HEADER.rstrip("\n") + ",note\n" + LONG_FILE
                      + UNUSED_COLUMN_CASES[case]).encode())
    got = _ingest_outcome(ingest_tracks, path, "normalized")
    assert got == _expected_outcome(tmp_path, case, path)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("body, want", [
    ("1,1,0.0,0.0,1.0,0.0,2\n2,1,0.5,0.0,1.0,0.0,2\n", None),
    ("1,1,0.0,0.0,1.0,0.0,2\n2,1,oops,0.0,1.0,0.0,2\n",
     "row 3: could not convert string to float: 'oops'"),
])
def test_ingest_reads_a_pipe(tmp_path, body, want):
    # A pipe cannot seek back, yet a bad row is still named by its line.
    path = tmp_path / "tracks.csv"
    path.write_text(HEADER + body)
    read_fd, write_fd = os.pipe()
    os.write(write_fd, path.read_bytes())
    os.close(write_fd)
    try:
        if want is None:
            (track,) = ingest_tracks(f"/dev/fd/{read_fd}")
            assert track.x.tolist() == [0.0, 0.5]
        else:
            with pytest.raises(ParseError, match=f"^/dev/fd/{read_fd}: {want}$"):
                ingest_tracks(f"/dev/fd/{read_fd}")
    finally:
        os.close(read_fd)


def _file_with_a_bad_byte(line, n_rows):
    """A track file of ``n_rows`` good rows whose line ``line`` (1 is the
    header) holds byte 0xff, and the byte's offset."""
    lines = [HEADER.rstrip("\n").encode()]
    lines += [f"{f},1,{0.5 * f!r},0.0,1.0,0.0,2".encode() for f in range(1, n_rows + 1)]
    lines[line - 1] = lines[line - 1].replace(b",", b",\xff", 1)
    data = b"\n".join(lines) + b"\n"
    return data, data.index(b"\xff")


@pytest.mark.parametrize("line", [1, 3, 2002])
def test_ingest_names_the_line_of_a_byte_the_codec_refuses(tmp_path, line):
    # The byte lies in the header, on line 3 and after 2000 good rows, in
    # the first decoded chunk or far past it; the position is the file's.
    data, offset = _file_with_a_bad_byte(line, 2010)
    path = tmp_path / "bad8.csv"
    path.write_bytes(data)
    with pytest.raises(ParseError) as info:
        ingest_tracks(path)
    assert str(info.value) == (f"{path}: line {line}: 'utf-8' codec can't decode byte 0xff "
                               f"in position {offset}: invalid start byte")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("line", [1, 3])
def test_ingest_names_the_line_of_a_bad_byte_in_a_pipe(line):
    data, offset = _file_with_a_bad_byte(line, 4)
    read_fd, write_fd = os.pipe()
    os.write(write_fd, data)
    os.close(write_fd)
    try:
        with pytest.raises(ParseError) as info:
            ingest_tracks(f"/dev/fd/{read_fd}")
    finally:
        os.close(read_fd)
    assert str(info.value) == (f"/dev/fd/{read_fd}: line {line}: 'utf-8' codec can't decode "
                               f"byte 0xff in position {offset}: invalid start byte")


def _track_bits(batch):
    """Every column of a TrackBatch as its 64-bit words."""
    return [getattr(batch, name).view(np.uint64).tolist()
            for name in ("vehicle_ids", "offsets", "frame", "lane_id", "motion")]


def _through_a_pipe(data, read):
    """``read(path)`` of a pipe that carries ``data``, written from a thread
    so that data beyond the pipe's buffer cannot block the reader."""
    read_fd, write_fd = os.pipe()

    def feed():
        with contextlib.suppress(BrokenPipeError), open(write_fd, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        return read(f"/dev/fd/{read_fd}")
    finally:
        os.close(read_fd)
        writer.join()


def _two_line_header(data):
    # An unused last column whose quoted name holds a line break.
    head, rest = data.split(b"\n", 1)
    return head + b',"a\nnote"\n' + rest.replace(b"\n", b",x\n")


# Copies of a recording that ingest_tracks must read to the bits of the
# plain file: a file name and an edit of the file's bytes. numpy would
# decompress a file named like the last four, so they are read as a stream.
ROUTE_COPIES = {
    "CRLF": ("crlf.csv", lambda data: data.replace(b"\n", b"\r\n")),
    "header over two lines": ("header.csv", _two_line_header),
    "named .csv.gz": ("tracks.csv.gz", lambda data: data),
    "named .bz2": ("tracks.bz2", lambda data: data),
    "named .xz": ("tracks.xz", lambda data: data),
    "named .lzma": ("tracks.lzma", lambda data: data),
}


@pytest.fixture
def recording_csv(tmp_path):
    """A recording with LF line ends."""
    path = tmp_path / "tracks.csv"
    write_tracks_csv(path, multilane_scene(7, 25, n_tracks=16))
    return path


@pytest.mark.parametrize("case", ROUTE_COPIES)
def test_ingest_reads_a_copy_to_the_plain_file_s_bits(tmp_path, recording_csv, case):
    name, edit = ROUTE_COPIES[case]
    copy = tmp_path / name
    copy.write_bytes(edit(recording_csv.read_bytes()))
    assert _track_bits(ingest_tracks(copy)) == _track_bits(ingest_tracks(recording_csv))


def test_ingest_reads_a_relative_path_that_looks_like_a_url(tmp_path, recording_csv,
                                                            monkeypatch):
    (tmp_path / "http:").mkdir()
    (tmp_path / "http:" / "x.csv").write_bytes(recording_csv.read_bytes())
    monkeypatch.chdir(tmp_path)
    assert (_track_bits(ingest_tracks("http:/x.csv"))
            == _track_bits(ingest_tracks(recording_csv)))


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_ingest_reads_a_pipe_to_the_plain_file_s_bits(recording_csv):
    got = _through_a_pipe(recording_csv.read_bytes(), ingest_tracks)
    assert _track_bits(got) == _track_bits(ingest_tracks(recording_csv))


def test_ingest_hands_numpy_a_plain_file_by_its_absolute_path(tmp_path, recording_csv,
                                                              monkeypatch):
    # numpy reads a path in large chunks, and a file object a line at a time.
    read = []
    loadtxt = np.loadtxt

    def spy(source, **kwargs):
        read.append((source, kwargs["skiprows"]))
        return loadtxt(source, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    monkeypatch.chdir(tmp_path)
    ingest_tracks("tracks.csv")
    copy = tmp_path / "tracks.csv.gz"
    copy.write_bytes(recording_csv.read_bytes())
    ingest_tracks(copy)
    (by_path, skip), (stream, no_skip) = read
    assert (by_path, skip) == (str(recording_csv), 1)
    assert hasattr(stream, "read") and no_skip == 0


GOOD_ROWS = "".join(f"{f},1,{f / 8!r},0.0,1.0,0.0,2\n" for f in range(1, 7001))
# Data rows after HEADER and GOOD_ROWS that every route must refuse with
# the same message.
BAD_ROWS = {
    "short row": b"2,1,0.1\n",
    "bad float": b"2,1,oops,0.0,1.0,0.0,2\n",
    "int64 overflow": b"9223372036854775808,1,0.0,0.0,1.0,0.0,2\n",
    "non-UTF-8 byte": b"2,1,\xff0.5,0.0,1.0,0.0,2\n",
}


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("case", BAD_ROWS)
def test_ingest_refuses_a_bad_row_alike_by_path_and_by_stream(tmp_path, case):
    data = (HEADER + GOOD_ROWS).encode() + BAD_ROWS[case]

    def reason(path):
        with pytest.raises(ParseError) as info:
            ingest_tracks(path)
        message = str(info.value)
        assert message.startswith(f"{path}: ") and "\n" not in message
        return message[len(f"{path}: "):]

    by_path, by_name = tmp_path / "bad.csv", tmp_path / "bad.csv.gz"
    by_path.write_bytes(data)
    by_name.write_bytes(data)
    want = reason(by_path)
    assert want.startswith(("row 7002", "line 7002"))
    assert reason(by_name) == want
    assert _through_a_pipe(data, reason) == want

def test_raw_track_validation():
    with pytest.raises(ValueError):
        RawTrack(1, np.array([2, 1]), np.zeros(2), np.zeros(2), np.zeros(2),
                 np.zeros(2), np.zeros(2, dtype=np.int64))
    with pytest.raises(ValueError):
        RawTrack(1, np.array([1, 2]), np.array([0.0, np.nan]), np.zeros(2),
                 np.zeros(2), np.zeros(2), np.zeros(2, dtype=np.int64))


def _columns(n_rows, **bad):
    """Columns of two tracks of vehicles 7 and 3, rows 0..2 and 3..n_rows-1,
    with the named columns replaced."""
    columns = dict(frame=np.array([1, 2, 3, 0, 1, 2, 3, 4][:n_rows]),
                   lane_id=np.full(n_rows, 2), motion=np.ones((4, n_rows)))
    columns.update(bad)
    return columns


def _with(array, index, value):
    array = np.array(array)
    array[index] = value
    return array


# Track columns that break the track rule, by the message that names the
# first failing track; a track is named by the first check it fails.
TRACK_FAULTS = [
    (dict(offsets=[0, 0, 5]), 0, "track must contain at least one sample"),
    (dict(offsets=[0, 5, 5], frame=[1, 2, 3, 4, 5]), 1,
     "track must contain at least one sample"),
    (dict(frame=[1, 2, 2, 0, 1]), 0, "vehicle 7: frames must be strictly increasing"),
    (dict(frame=[1, 2, 3, 5, 4]), 1, "vehicle 3: frames must be strictly increasing"),
    (dict(frame=[1, 2, 3, 5, 5], lane_id=[2] * 4), 1,
     "vehicle 3: frames must be strictly increasing"),
    (dict(lane_id=[2] * 4), 1, "vehicle 3: column length mismatch"),
    (dict(lane_id=[2] * 2), 0, "vehicle 7: column length mismatch"),
    (dict(lane_id=[2] * 6), 1, "vehicle 3: column length mismatch"),
    (dict(motion=[np.ones(5), np.ones(5), np.ones(2), np.ones(5)]), 0,
     "vehicle 7: column length mismatch"),
    (dict(motion=[np.ones(5), np.ones(4), np.ones(5), np.ones(5)]), 1,
     "vehicle 3: column length mismatch"),
    (dict(motion=[_with(np.ones(5), 4, np.nan), np.ones(5), np.ones(5), np.ones(4)]), 1,
     "vehicle 3: non-finite x"),
    (dict(motion=_with(np.ones((4, 5)), (3, 1), np.inf)), 0, "vehicle 7: non-finite vy"),
    (dict(motion=_with(_with(np.ones((4, 5)), (3, 1), np.inf), (0, 2), -np.inf)), 0,
     "vehicle 7: non-finite x"),
    (dict(motion=_with(np.ones((4, 5)), (1, 3), np.nan), frame=[1, 2, 1, 0, 1]), 0,
     "vehicle 7: frames must be strictly increasing"),
    (dict(motion=_with(np.ones((4, 5)), (2, 3), np.nan), frame=[1, 2, 3, 0, 0]), 1,
     "vehicle 3: frames must be strictly increasing"),
    (dict(motion=_with(np.ones((4, 5)), (2, 3), np.nan)), 1, "vehicle 3: non-finite vx"),
]


@pytest.mark.parametrize("change, index, reason", TRACK_FAULTS)
def test_track_batch_names_the_first_failing_track(change, index, reason):
    columns = dict(vehicle_ids=[7, 3], offsets=[0, 3, 5], **_columns(5))
    columns.update(change)
    with pytest.raises(ValueError) as info:
        TrackBatch(**columns)
    assert str(info.value) == f"track {index}: {reason}"
    # The failing track alone, as a RawTrack, gives the reason itself.
    offsets = columns["offsets"]
    lo, hi = offsets[index], offsets[index + 1]
    lanes = np.asarray(columns["lane_id"])
    motion = [np.asarray(col) for col in columns["motion"]]
    if not any(col.size != len(columns["frame"]) for col in [lanes, *motion]):
        with pytest.raises(ValueError) as info:
            RawTrack(columns["vehicle_ids"][index], np.asarray(columns["frame"])[lo:hi],
                     *(col[lo:hi] for col in motion), lanes[lo:hi])
        assert str(info.value) == reason


def test_track_batch_rows_are_read_only_views():
    batch = TrackBatch([7, 3], [0, 3, 5], **_columns(5, frame=[1, 2, 3, 0, 9]))
    assert len(batch) == 2 and [len(tr) for tr in batch] == [3, 2]
    track = batch[-1]
    assert track.vehicle_id == 3 and type(track.vehicle_id) is int
    assert track.frame.tolist() == [0, 9]
    for name in ("frame", "lane_id", "x", "y", "vx", "vy"):
        assert not getattr(track, name).flags.writeable
    assert np.shares_memory(track.vy, batch.motion)
    with pytest.raises(IndexError):
        batch[2]
    empty = track_batch([])
    assert len(empty) == 0 and empty.motion.shape == (4, 0)
    assert len(extract_scenarios(empty, 10)) == 0
    with pytest.raises(ValueError, match="row offsets"):
        TrackBatch([7, 3], [0, 4, 3], **_columns(5))
    with pytest.raises(ValueError, match="a batch of no tracks has rows"):
        TrackBatch([], [0], [], [2], np.empty((4, 0)))


def test_raw_track_takes_integer_ids_only():
    for wide in (2 ** 70, 2 ** 63, -2 ** 63 - 1):
        with pytest.raises(ValueError, match=f"^vehicle id {wide} lies beyond int64$"):
            RawTrack(wide, [1, 2], np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2), [1, 1])
    with pytest.raises(ValueError, match=f"^vehicle id {2 ** 64 - 1} lies beyond int64$"):
        TrackBatch(np.array([3, 2 ** 64 - 1], dtype=np.uint64), [0, 1, 2], [1, 1],
                   [1, 1], np.zeros((4, 2)))
    track = RawTrack(2 ** 63 - 1, [1], [0.0], [0.0], [0.0], [0.0], [1])
    assert track.vehicle_id == 2 ** 63 - 1 and track.batch.vehicle_ids.dtype == np.int64
    assert RawTrack(np.int32(5), [1], [0.0], [0.0], [0.0], [0.0], [1]).vehicle_id == 5
    with pytest.raises(TypeError):
        RawTrack(1.5, [1, 2], np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2), [1, 1])


@pytest.mark.parametrize("duplicate_id", [False, True])
def test_extract_takes_a_list_a_generator_or_a_batch(duplicate_id):
    tracks = list(multilane_scene(3, 10, duplicate_id=duplicate_id))
    batch = track_batch(tracks)
    assert [tr.vehicle_id for tr in batch] == [tr.vehicle_id for tr in tracks]
    want = _scenario_bytes(extract_scenarios(tracks, 10))
    assert len(want) > 1
    assert _scenario_bytes(extract_scenarios(iter(tracks), 10)) == want
    assert _scenario_bytes(extract_scenarios(batch, 10)) == want
    assert _scenario_bytes(extract_scenarios((tr for tr in batch), 10)) == want
    assert track_batch(batch) is batch


def test_extract_refuses_a_window_that_starts_before_frame_0():
    t = np.arange(80) / 10
    track = RawTrack(7, np.arange(-10, 70), 30.0 * t, np.full(80, 8.75), np.full(80, 30.0),
                     np.zeros(80), np.full(80, 2))
    with pytest.raises(ValueError) as info:
        extract_scenarios([track], 10)
    assert str(info.value) == ("scenario 0 ('v7-f-10'): scenario v7-f-10: first_frame must "
                               "be an integer in [0, 2**53], got -10")
    shifted = RawTrack(7, np.arange(80), 30.0 * t, np.full(80, 8.75), np.full(80, 30.0),
                       np.zeros(80), np.full(80, 2))
    (scen,) = extract_scenarios([shifted], 10)
    assert (scen.scenario_id, scen.first_frame, scen.vehicle_id) == ("v7-f0", 0, 7)


def test_extract_refuses_a_track_whose_frames_span_more_than_int64():
    track = RawTrack(4, [-2 ** 63, 0], np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2),
                     [1, 1])
    with pytest.raises(ValueError, match="^vehicle 4: frames span more than int64$"):
        extract_scenarios([track], 10)


# ----------------------------------------------------------------- extraction

def test_extract_shapes_per_fps():
    for fps, t_obs, t_pred in ((10, 30, 50), (25, 75, 125)):
        track = straight_track(1, t_obs + t_pred, fps=fps)
        (scen,) = extract_scenarios([track], fps)
        assert scen.features.shape == (4, t_obs, 9)
        assert scen.future.shape == (t_pred, 2)
        assert scen.fps == fps


def test_extract_lone_target_gets_ghosts():
    track = straight_track(1, 80)
    (scen,) = extract_scenarios([track], 10)
    for slot in range(1, 9):
        assert np.array_equal(scen.features[:, :, slot], scen.features[:, :, 0])


def test_extract_target_anchor_and_v0():
    track = straight_track(1, 80, v=25.0, x0=13.0)
    (scen,) = extract_scenarios([track], 10)
    assert scen.features[0, 0, 0] == 0.0
    assert scen.features[1, 0, 0] == 0.0
    assert scen.v0 == 25.0
    # future is relative to the last observed position, so it starts near v0/fps
    assert abs(scen.future[0, 0] - 2.5) < 1e-9


def test_extract_translation_invariance():
    t1 = straight_track(1, 80, x0=0.0)
    t2 = straight_track(1, 80, x0=5000.0)
    (s1,) = extract_scenarios([t1], 10)
    (s2,) = extract_scenarios([t2], 10)
    assert np.max(np.abs(s1.features - s2.features)) < 1e-9
    assert np.max(np.abs(s1.future - s2.future)) < 1e-9


def test_extract_windows_advance_by_the_prediction_length():
    # A window is 30 + 50 frames at 10 fps and the next starts 50 frames
    # on, so 130 frames fit two; with 1 s predicted, a window is 40 frames
    # and the next starts 10 on, so they fit ten.
    track = straight_track(1, 130)
    assert extract_scenarios([track], 10).ids == ("v1-f0", "v1-f50")
    assert len(extract_scenarios([track], 10, t_pred=1.0)) == 10


def test_extract_neighbour_ranking_by_distance():
    target = straight_track(1, 80, x0=0.0)
    near = straight_track(2, 80, x0=2.0, y=12.25, lane=3)
    far = straight_track(3, 80, x0=-40.0, y=5.25, lane=1)
    (scen,) = extract_scenarios([target, far, near], 10, target_ids={1})
    # slot 1 is the nearer vehicle 2, slot 2 the farther vehicle 3
    assert abs(scen.features[0, 0, 1] - 2.0) < 1e-9
    assert abs(scen.features[0, 0, 2] + 40.0) < 1e-9
    assert np.array_equal(scen.features[:, :, 3], scen.features[:, :, 0])


def test_extract_neighbour_tie_breaks_by_id():
    target = straight_track(1, 80, x0=0.0)
    a = straight_track(5, 80, x0=10.0)
    b = straight_track(2, 80, x0=-10.0)  # same distance, lower id
    (scen,) = extract_scenarios([target, a, b], 10, target_ids={1})
    assert abs(scen.features[0, 0, 1] + 10.0) < 1e-9


def test_extract_skips_windows_with_gaps():
    frames = np.concatenate([np.arange(40), np.arange(41, 81)])  # hole at 40
    n = frames.size
    track = RawTrack(1, frames, np.linspace(0, 80, n), np.full(n, 8.75),
                     np.full(n, 30.0), np.zeros(n), np.full(n, 2, dtype=np.int64))
    assert len(extract_scenarios([track], 10)) == 0


def test_extract_neighbour_needs_full_observation():
    target = straight_track(1, 80)
    partial = straight_track(9, 20, x0=1.0)  # covers only a prefix of the window
    (scen,) = extract_scenarios([target, partial], 10)
    assert np.array_equal(scen.features[:, :, 1], scen.features[:, :, 0])


def test_extract_target_ids_filter():
    tracks = [straight_track(1, 80), straight_track(2, 80, x0=30.0)]
    assert len(extract_scenarios(tracks, 10)) == 2
    only = extract_scenarios(tracks, 10, target_ids={2})
    assert len(only) == 1
    assert only[0].scenario_id.startswith("v2-")


def test_extract_rejects_bad_args():
    track = straight_track(1, 80)
    with pytest.raises(ValueError):
        extract_scenarios([track], 0)
    with pytest.raises(ValueError):
        extract_scenarios([track], 10, n_vehicles=1)


# Rates and windows whose step counts are not finite numbers, by the
# message that names them.
NON_FINITE_WINDOWS = [
    (dict(fps=np.inf), "fps must be positive and finite, got inf"),
    (dict(fps=np.nan), "fps must be positive and finite, got nan"),
    (dict(fps=-np.inf), "fps must be positive and finite, got -inf"),
    (dict(fps=1e308), "t_obs must give a finite number of steps, got 3.0 s at fps=1e+308"),
    (dict(fps=10.0, t_obs=np.inf),
     "t_obs must give a finite number of steps, got inf s at fps=10.0"),
    (dict(fps=10.0, t_pred=-np.inf),
     "t_pred must give a finite number of steps, got -inf s at fps=10.0"),
    (dict(fps=10.0, t_obs=np.nan),
     "t_obs must give a finite number of steps, got nan s at fps=10.0"),
    (dict(fps=10.0, t_pred=np.nan),
     "t_pred must give a finite number of steps, got nan s at fps=10.0"),
]


@pytest.mark.parametrize("window, message", NON_FINITE_WINDOWS)
def test_extract_and_synthesize_refuse_non_finite_windows(window, message):
    track = straight_track(1, 80)
    with pytest.raises(ValueError) as info:
        extract_scenarios([track], **window)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        synthesize(3, seed=0, **window)
    assert str(info.value) == message


def test_window_steps_are_bounded():
    assert _window_steps(10.0, MAX_WINDOW_STEPS / 10.0, 5.0) == [MAX_WINDOW_STEPS, 50]
    for window, message in [
        ((10.0, 1e9, 5.0), f"t_obs of 1000000000.0 s at fps=10.0 gives more than "
                           f"{MAX_WINDOW_STEPS} steps"),
        ((10.0, 3.0, (MAX_WINDOW_STEPS + 1) / 10.0),
         f"t_pred of {(MAX_WINDOW_STEPS + 1) / 10.0} s at fps=10.0 gives more than "
         f"{MAX_WINDOW_STEPS} steps"),
    ]:
        with pytest.raises(ValueError) as info:
            _window_steps(*window)
        assert str(info.value) == message
        fps, t_obs, t_pred = window
        # synthesize and extract_scenarios refuse it before allocating frames
        with pytest.raises(ValueError) as info:
            synthesize(3, fps, seed=0, t_obs=t_obs, t_pred=t_pred)
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            extract_scenarios([straight_track(1, 80)], fps, t_obs=t_obs, t_pred=t_pred)
        assert str(info.value) == message


def test_slot_counts_are_bounded(monkeypatch):
    batch = synthesize(1, 2.0, seed=0, n_vehicles=MAX_VEHICLE_SLOTS)
    assert batch.n_vehicles == MAX_VEHICLE_SLOTS
    track = straight_track(1, 80)
    assert extract_scenarios([track], 10, n_vehicles=MAX_VEHICLE_SLOTS).n_vehicles == \
        MAX_VEHICLE_SLOTS

    def unreached(*args, **kwargs):
        raise AssertionError("slot count refused too late")

    # Refused before any track or scene is built: 1e8 slots of 30 steps
    # would take 96 GB of features.
    monkeypatch.setattr(scenario, "track_batch", unreached)
    monkeypatch.setattr(scenario, "_synthetic_scenes", unreached)
    for slots in (1, MAX_VEHICLE_SLOTS + 1, 100_000_000):
        message = f"need 2 to {MAX_VEHICLE_SLOTS} vehicle slots, got {slots}"
        with pytest.raises(ValueError) as info:
            extract_scenarios([track], 10, n_vehicles=slots)
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            synthesize(3, 10, seed=0, n_vehicles=slots)
        assert str(info.value) == message


def _scenario_bytes(scenarios):
    return [(s.scenario_id, s.maneuver, s.first_frame, s.vehicle_id, s.features.shape,
             s.features.tobytes(), s.future.tobytes(), np.float64(s.v0).tobytes())
            for s in scenarios]


LONE_ID = 99


def lone_vehicle(tracks, fps):
    """A keep-lane vehicle in view for three windows after every track in
    ``tracks`` has left, so that no window of it has a neighbour."""
    window = round(3.0 * fps) + round(5.0 * fps)
    n = 3 * window
    start = max(int(tr.frame[-1]) for tr in tracks) + 1
    return RawTrack(LONE_ID, start + np.arange(n), 2.0 * np.arange(n), np.full(n, 8.75),
                    np.full(n, 20.0), np.zeros(n), np.full(n, 2, dtype=np.int64))


# pred_steps None keeps the 5 s prediction; a shorter one steps the
# windows by fewer frames, so they overlap more.
@pytest.mark.parametrize("fps, n_vehicles, pred_steps, target_ids, duplicate_id, block", [
    (10, 9, None, None, False, None),
    (25, 9, None, None, True, None),
    (10, 2, None, None, True, None),
    (25, 2, None, {1, 13, 15}, False, None),
    (10, 9, 1, None, True, None),
    (25, 9, 1, {1, 4, 14}, False, None),
    (25, 2, 7, None, True, None),
    # A block budget of a few elements puts every window in a block of its
    # own; "pairs" fits two windows in a block.
    (10, 9, None, None, True, 3),
    (25, 2, 7, None, False, 3),
    (10, 9, 1, None, False, "pairs"),
    (25, 2, None, {1, 4, 15, LONE_ID}, True, "pairs"),
])
def test_extract_matches_quadratic_reference(caplog, monkeypatch, fps, n_vehicles,
                                             pred_steps, target_ids, duplicate_id, block):
    caplog.set_level(logging.INFO, logger="gftnn.scenario")
    tracks = list(multilane_scene(fps, fps, duplicate_id=duplicate_id))
    t_pred = 5.0 if pred_steps is None else pred_steps / fps
    blocks = []
    if block is not None:
        tracks.append(lone_vehicle(tracks, fps))
        per_window = round(3.0 * fps) * n_vehicles + round(t_pred * fps) + 1
        monkeypatch.setattr(scenario, "_GATHER_BLOCK",
                            2 * per_window if block == "pairs" else block)
        window_blocks = scenario._window_blocks

        def spy(*args):
            for cut in window_blocks(*args):
                blocks.append(cut)
                yield cut
        monkeypatch.setattr(scenario, "_window_blocks", spy)
    kwargs = dict(t_pred=t_pred, n_vehicles=n_vehicles, target_ids=target_ids)
    got = extract_scenarios(tracks, fps, **kwargs)
    logged = list(caplog.messages)
    caplog.clear()
    want = extract_scenarios_reference(tracks, fps, **kwargs)
    assert len(got) > 1
    assert _scenario_bytes(got) == _scenario_bytes(want)
    assert logged == caplog.messages
    if target_ids is None:
        assert "skipped" in logged[0]
    if block is not None:
        targets = [{s.scenario_id.split("-")[0] for s in got[cut]} for cut in blocks]
        assert sum(map(len, targets)) >= len({s.scenario_id.split("-")[0] for s in got}) > 1
        assert max(cut.stop - cut.start for cut in blocks) == (2 if block == "pairs" else 1)
        # Windows of different targets straddle a block boundary; a block
        # of the lone vehicle's windows has no candidate, only ghost slots.
        if block == "pairs":
            assert any(len(names) > 1 for names in targets)
        assert {f"v{LONE_ID}"} in targets
        for s in got:
            if s.scenario_id.startswith(f"v{LONE_ID}-"):
                assert (s.features == s.features[:, :, :1]).all()


def test_extract_ranks_an_overflowing_distance_before_ghosts():
    # The neighbour's distance overflows to inf while its features stay
    # finite; it still takes slot 1, ahead of the padding, even though a
    # vehicle of lower id enters (and pads the candidate range) after the
    # window starts.
    target = straight_track(5, 80, y=0.0)
    far = RawTrack(3, np.arange(80), np.full(80, 1.5e308), np.full(80, 1.5e308),
                   np.zeros(80), np.zeros(80), np.full(80, 7, dtype=np.int64))
    late = straight_track(1, 70, x0=5.0)
    late = RawTrack(1, late.frame + 10, late.x, late.y, late.vx, late.vy, late.lane_id)
    tracks = [target, far, late]
    with np.errstate(over="ignore"):
        got = extract_scenarios(tracks, 10, target_ids={5})
        want = extract_scenarios_reference(tracks, 10, target_ids={5})
    assert _scenario_bytes(got) == _scenario_bytes(want)
    assert got[0].features[0, 0, 1] == 1.5e308
    assert np.array_equal(got[0].features[:, :, 2], got[0].features[:, :, 0])


def test_synthesize_makes_one_extraction_call(monkeypatch):
    calls = []
    extract = scenario.extract_scenarios

    def counting(*args, **kwargs):
        calls.append(args)
        return extract(*args, **kwargs)
    monkeypatch.setattr(scenario, "extract_scenarios", counting)
    assert len(synthesize(30, 10, seed=5)) == 30
    assert len(calls) == 1


def test_synthesize_names_the_scene_whose_label_is_lost(monkeypatch):
    monkeypatch.setattr(scenario, "_maneuver_codes",
                        lambda lane_ids, lateral: np.zeros(len(lane_ids), dtype=int))
    with pytest.raises(RuntimeError) as info:
        synthesize(3, 10, seed=5)
    assert str(info.value) == ("synthetic scene 1 produced 1 scenarios with labels "
                               "['keep_lane'], wanted lane_change_left")


@pytest.mark.parametrize("n", [1, 2, 7, 300])
@pytest.mark.parametrize("n_vehicles", [2, 5, 9])
@pytest.mark.parametrize("noise_std", [0.0, 0.05])
@pytest.mark.parametrize("fps", [2, 10, 25])
def test_synthesize_matches_per_scene_reference(tmp_path, fps, noise_std, n_vehicles, n):
    seed = 100 + n + fps
    got = synthesize(n, fps, seed, noise_std=noise_std, n_vehicles=n_vehicles)
    want = synthesize_reference(n, fps, seed, noise_std=noise_std, n_vehicles=n_vehicles)
    assert _scenario_bytes(got) == _scenario_bytes(want)
    save_archive(tmp_path / "got.json", got, fps)
    save_archive(tmp_path / "want.json", want, fps)
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


# The sha256 of the archives of the benchmark's synth sizes at seed 3,
# with and without noise, and of two larger than one block of BLOCK_ROWS
# rows: (n, fps, noise_std) -> digest. A change to the random stream fails
# here even if the per-scene oracle changes with it.
SYNTH_ARCHIVE_SHA256 = {
    (150, 10, 0.05): "2ea2684560a371e57fd0464825d929b5027b64cd705714f1af5e2435169f1522",
    (80, 25, 0.0): "dbb7ff4fb1f6833caac3fd9b38db44e97c95730bfad4ebca201989730001d8d8",
    (80, 25, 0.05): "0c73ea3643ed156690d667e818ab29b417c0cb8e5618d09676a43fa5c7909576",
    (600, 10, 0.05): "31e9a6dde2070cb9730cc9723a533e7b9648c80613ae1088dce19ed8ed9df9ae",
    (300, 25, 0.0): "4baa0717c66655dba40b52e8aabc2841ef3ca8f8a5375552bcf61859f97d94c7",
}
# The sha256 of the features and then the future bytes of the same
# archives, which format version 3 stored alone after its head: version 4
# added columns and moved the per-scenario values out of the head, and
# the first three digests, taken from version-3 archives, hold that it
# kept every feature and future byte. The last two were taken from
# version-4 archives.
SYNTH_DATA_SHA256 = {
    (150, 10, 0.05): "8fac68ec2cbda6f9f98efa66979ae0092d63a8b378f8961548a4dda129037af2",
    (80, 25, 0.0): "2ebd9512333182fd69a15e212739c6d2b611fc2843768a1f5b5bc5befdd66fa6",
    (80, 25, 0.05): "79f9f061d7a0ccb6a7c5f3081043c063adc28c20a8fd0dc61b1b7e1d891057d6",
    (600, 10, 0.05): "ecb36ea0ae22fa78736aa702da40a6784fc399a3169e0f3befcabc41daa7f51b",
    (300, 25, 0.0): "613ab5422d3da532843cab2e145d3cdf737fe7d7b04aae0d57bef5b6317c7953",
}


@pytest.mark.parametrize("n, fps, noise_std", sorted(SYNTH_ARCHIVE_SHA256))
def test_synth_archive_bytes_are_pinned(tmp_path, n, fps, noise_std):
    path = tmp_path / "archive.json"
    save_archive(path, synthesize(n, fps, 3, noise_std=noise_std), fps)
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == SYNTH_ARCHIVE_SHA256[n, fps, noise_std]
    arrays = split_head(path)[0]["arrays"]
    data_bytes = 8 * (math.prod(arrays["features"]) + math.prod(arrays["future"]))
    assert list(arrays)[-2:] == ["features", "future"]
    assert hashlib.sha256(data[-data_bytes:]).hexdigest() == \
        SYNTH_DATA_SHA256[n, fps, noise_std]


# ------------------------------------------------------------------ labelling

def test_label_keep_lane():
    lanes = np.full(20, 3)
    y = np.full(20, 10.0)
    assert label_maneuver(lanes, y, 9) == "keep_lane"


def test_label_left_and_right():
    lanes = np.array([2] * 10 + [3] * 10)
    y_up = np.linspace(8.75, 12.25, 20)
    assert label_maneuver(lanes, y_up, 9) == "lane_change_left"
    lanes_dn = np.array([2] * 10 + [1] * 10)
    y_dn = np.linspace(8.75, 5.25, 20)
    assert label_maneuver(lanes_dn, y_dn, 9) == "lane_change_right"


def test_label_ignores_changes_before_t0():
    lanes = np.array([1] * 5 + [2] * 15)
    y = np.concatenate([np.linspace(5.25, 8.75, 5), np.full(15, 8.75)])
    assert label_maneuver(lanes, y, 9) == "keep_lane"


def _label_rows(length=20, t0=9):
    """Lane ids and lateral positions of windows observed up to step t0,
    one per case, by name."""
    base = np.full(length, 8.75)
    rows = {}
    rows["keep"] = (np.full(length, 2), base)
    rows["left"] = (np.array([2] * 12 + [3] * 8), np.linspace(8.75, 12.25, length))
    rows["right"] = (np.array([2] * 14 + [1] * 6), np.linspace(8.75, 5.25, length))
    rows["change before t0"] = (np.array([1] * 5 + [2] * 15),
                                np.append(np.linspace(5.25, 8.75, 5), np.full(15, 8.75)))
    # dy is exactly 0 at the first changed frame: the window's end decides.
    for name, end in (("flat, ends left", 10.0), ("flat, ends right", 7.0),
                      ("flat, ends level", 8.75)):
        y = base.copy()
        y[-1] = end
        rows[name] = (np.array([2] * 13 + [3] * 7), y)
    # The lane flips back and forth; the first change counts.
    rows["first change right"] = (np.array([2] * 11 + [1, 2] * 4 + [2]),
                                  np.linspace(8.75, 7.0, length))
    # A NaN lane at t0 differs from every later lane, so the next step
    # decides: up by 0.25 m, though the window ends below where it began.
    lanes = np.full(length, 2.0)
    lanes[t0] = np.nan
    y = np.concatenate([base[:t0 + 1], [9.0], np.linspace(8.5, 7.0, length - t0 - 2)])
    rows["nan lane at t0"] = (lanes, y)
    return rows


def test_label_batch_matches_scalar_reference():
    t0 = 9
    rows = _label_rows(t0=t0)
    want = [label_maneuver_reference(lanes, y, t0) for lanes, y in rows.values()]
    assert want[:3] == ["keep_lane", "lane_change_left", "lane_change_right"]
    assert want[3:7] == ["keep_lane", "lane_change_left", "lane_change_right", "keep_lane"]
    assert want[-1] == "lane_change_left"
    lanes = np.stack([lanes[t0:] for lanes, _ in rows.values()])
    lateral = np.stack([y[t0:] for _, y in rows.values()])
    codes = scenario._maneuver_codes(lanes, lateral)
    assert [MANEUVERS[c] for c in codes] == want
    for k, (name, (lane_row, y_row)) in enumerate(rows.items()):
        # A batch of one, and the public wrapper, agree with the row in the batch.
        one = scenario._maneuver_codes(lanes[k:k + 1], lateral[k:k + 1])
        assert one.tolist() == [codes[k]]
        assert label_maneuver(lane_row, y_row, t0) == want[k], name


def test_label_validation():
    with pytest.raises(ValueError):
        label_maneuver(np.zeros(5), np.zeros(4), 2)
    with pytest.raises(ValueError):
        label_maneuver(np.zeros(5), np.zeros(5), 5)


# ------------------------------------------------------------------ balancing

def test_balance_downsamples_to_minority():
    scen = synthesize(12, 10, seed=0)
    # drop most right changes: 4 keep, 4 left, 1 right
    right = scen.codes == MANEUVERS.index("lane_change_right")
    subset = scen[np.concatenate([np.flatnonzero(~right), np.flatnonzero(right)[:1]])]
    out = balance(subset, seed=1)
    counts = {m: sum(s.maneuver == m for s in out) for m in MANEUVERS}
    assert counts == {m: 1 for m in MANEUVERS}


def test_balance_keeps_balanced_input():
    scen = synthesize(9, 10, seed=2)
    assert balance(scen, seed=0).ids == scen.ids


def test_balance_deterministic():
    scen = synthesize(21, 10, seed=3)
    subset = scen[:13]  # 5 keep, 4 left, 4 right: forces a random down-sample
    assert balance(subset, seed=7).ids == balance(subset, seed=7).ids


def test_balance_empty_class_names_it():
    scen = synthesize(9, 10, seed=4)
    scen = scen[scen.codes != MANEUVERS.index("lane_change_left")]
    with pytest.raises(BalanceError, match="lane_change_left"):
        balance(scen, seed=0)


# -------------------------------------------------------------------- split

def test_split_70_30():
    scen = synthesize(10, 10, seed=5)
    ds = split(scen, 0.7, seed=0)
    assert len(ds.train) == 7
    assert len(ds.test) == 3


def test_split_is_stratified():
    scen = synthesize(30, 10, seed=6)
    ds = split(scen, 0.7, seed=1)
    for m in MANEUVERS:
        n_train = sum(s.maneuver == m for s in ds.train)
        assert n_train == 7


def test_split_disjoint_and_complete():
    scen = synthesize(23, 10, seed=7)
    ds = split(scen, 0.7, seed=2)
    ids_train = {s.scenario_id for s in ds.train}
    ids_test = {s.scenario_id for s in ds.test}
    assert not ids_train & ids_test
    assert ids_train | ids_test == {s.scenario_id for s in scen}


def test_split_deterministic():
    scen = synthesize(12, 10, seed=8)
    d1 = split(scen, 0.7, seed=3)
    d2 = split(scen, 0.7, seed=3)
    assert [s.scenario_id for s in d1.train] == [s.scenario_id for s in d2.train]
    assert [s.scenario_id for s in d1.test] == [s.scenario_id for s in d2.test]


def test_split_large_counts():
    scen = synthesize(9000, 2, seed=9, n_vehicles=2)
    ds = split(scen, 0.7, seed=0)
    assert len(ds.train) == 6300
    assert len(ds.test) == 2700


def test_split_validation():
    scen = synthesize(4, 10, seed=10)
    with pytest.raises(ValueError):
        split(scen, 0.0, seed=0)
    with pytest.raises(ValueError):
        split(scen, 1.0, seed=0)
    with pytest.raises(SplitError):
        split(scen[:1], 0.7, seed=0)


# ------------------------------------------------------------------ synthesis

def test_synthesize_cycles_classes():
    scen = synthesize(3, 10, seed=11)
    assert [s.maneuver for s in scen] == list(MANEUVERS)
    scen = synthesize(300, 10, seed=12, n_vehicles=2)
    counts = {m: sum(s.maneuver == m for s in scen) for m in MANEUVERS}
    assert counts == {m: 100 for m in MANEUVERS}


def test_synthesize_constant_velocity_future(monkeypatch):
    # a = 0 and no noise: the future x displacement is exactly linear in t
    monkeypatch.setattr(scenario, "ACCEL_RANGE", (0.0, 0.0))
    scen = synthesize(1, 10, seed=13)[0]
    t = np.arange(1, 51) / 10.0
    assert np.max(np.abs(scen.future[:, 0] - scen.v0 * t)) < 1e-9
    assert np.max(np.abs(scen.future[:, 1])) < 1e-12  # keep_lane: no drift


def test_synthesize_shapes_and_anchor():
    scen = synthesize(2, 25, seed=14)
    assert scen[0].features.shape == (4, 75, 9)
    assert scen[0].future.shape == (125, 2)
    assert scen[0].features[0, 0, 0] == 0.0
    assert scen[1].scenario_id == "synth-00001"


def test_synthesize_deterministic():
    a = synthesize(6, 10, seed=15, noise_std=0.05)
    b = synthesize(6, 10, seed=15, noise_std=0.05)
    for s1, s2 in zip(a, b):
        assert np.array_equal(s1.features, s2.features)
        assert np.array_equal(s1.future, s2.future)


def test_synthesize_noise_does_not_touch_labels():
    quiet = synthesize(9, 10, seed=16, noise_std=0.0)
    noisy = synthesize(9, 10, seed=16, noise_std=0.2)
    assert [s.maneuver for s in quiet] == [s.maneuver for s in noisy]
    assert not np.array_equal(quiet[0].features, noisy[0].features)


def test_synthesize_lane_change_direction_sign():
    scen = synthesize(3, 10, seed=17)
    left = scen[1]
    right = scen[2]
    assert left.maneuver == "lane_change_left"
    assert left.future[-1, 1] > 1.0     # y grows to the left
    assert right.future[-1, 1] < -1.0


def test_synthesize_validation():
    with pytest.raises(ValueError):
        synthesize(0, 10, seed=0)
    for noise_std in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError) as info:
            synthesize(3, 10, seed=0, noise_std=noise_std)
        assert str(info.value) == \
            f"noise_std must be finite and non-negative, got {noise_std}"


# -------------------------------------------------------------------- archive

def test_archive_roundtrip(tmp_path):
    scen = synthesize(5, 10, seed=18, noise_std=0.05)
    path = tmp_path / "arch.json"
    save_archive(path, scen, 10)
    back, fps = load_archive(path)
    assert fps == 10.0
    assert len(back) == 5
    for a, b in zip(scen, back):
        assert a.scenario_id == b.scenario_id
        assert a.maneuver == b.maneuver
        assert a.v0 == b.v0
        assert (a.first_frame, a.vehicle_id) == (b.first_frame, b.vehicle_id)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.future, b.future)


@pytest.mark.parametrize("n", [1, 3])
def test_archive_bytes_are_the_head_line_then_raw_arrays(tmp_path, n):
    # Pins format version 4: one line of json.dumps(head), then every
    # scenario's maneuver code, v0, first frame and target id, then every
    # scenario's features and then every future, as little-endian float64.
    scen = synthesize(3, 10, seed=18, noise_std=0.05)[:n]
    path = tmp_path / "arch.json"
    save_archive(path, scen, 10)
    head = {
        "version": 4,
        "fps": 10.0,
        "feature_order": "(channel, time, vehicle) row-major",
        "channels": ["x_rel", "y_rel", "vx_rel", "vy_rel"],
        "t_obs": 30,
        "t_pred": 50,
        "n_vehicles": 9,
        "ids": [s.scenario_id for s in scen],
        "arrays": {"codes": [n], "v0": [n], "first_frame": [n], "vehicle_id": [n],
                   "features": [n, 4, 30, 9], "future": [n, 50, 2]},
    }
    columns = [[MANEUVERS.index(s.maneuver) for s in scen], [s.v0 for s in scen],
               [s.first_frame for s in scen], [s.vehicle_id for s in scen]]
    assert columns[2:] == [[80 * i for i in range(n)], [1 + 9 * i for i in range(n)]]
    raw = b"".join(np.array(column, dtype="<f8").tobytes() for column in columns)
    raw += b"".join(s.features.astype("<f8").tobytes() for s in scen)
    raw += b"".join(s.future.astype("<f8").tobytes() for s in scen)
    assert path.read_bytes() == json.dumps(head).encode() + b"\n" + raw


def test_archive_roundtrip_keeps_every_bit(tmp_path):
    # Raw float64 keeps every value, signed zeros and the smallest
    # subnormal included.
    batch = synthesize(4, 10, seed=22, noise_std=0.05)
    features, futures = batch.features.copy(), batch.futures.copy()
    features[:, 0, 0, 0] = -0.0
    features[:, 2, 1, 3] = 5e-324
    features[:, 3, 2, 4] = -0.0
    futures[:, 0] = [5e-324, -0.0]
    scen = ScenarioBatch(batch.ids, batch.codes, batch.v0, batch.first_frame,
                         batch.vehicle_id, features, futures, batch.fps)
    path = tmp_path / "arch.json"
    save_archive(path, scen, 10)
    back, fps = load_archive(path)
    assert fps == 10.0
    for a, b in zip(scen, back, strict=True):
        assert (a.scenario_id, a.maneuver, a.v0, a.first_frame, a.vehicle_id) == \
            (b.scenario_id, b.maneuver, b.v0, b.first_frame, b.vehicle_id)
        for name in ("features", "future"):
            got = getattr(b, name)
            assert got.dtype == np.float64 and not got.flags.writeable
            assert np.array_equal(got.view(np.uint64),
                                  getattr(a, name).view(np.uint64)), name


@pytest.mark.parametrize("stored", [99, 1, 2, 3, "4", True, 4.0, None])
def test_archive_rejects_unknown_version(tmp_path, stored):
    # The version is checked before anything else in the head.
    path = tmp_path / "arch.json"
    save_archive(path, synthesize(2, 10, seed=21), 10)
    rewrite_head(path, lambda head: head.update(version=stored, ids=5))
    with pytest.raises(ValueError) as info:
        load_archive(path)
    assert str(info.value) == f"{path}: archive has unsupported version {stored!r}"


def test_save_archive_refuses_no_scenarios(tmp_path):
    path = tmp_path / "arch.json"
    with pytest.raises(ValueError, match="an archive needs at least one scenario"):
        save_archive(path, [], 10)
    assert not path.exists()


def test_first_frames_and_target_ids_are_integers_an_archive_holds(tmp_path):
    # float64, the archive's column type, holds every integer up to 2**53
    # in magnitude; the rule refuses any other.
    batch = synthesize(3, 10, seed=21)
    for name, value, bounds in (("first_frame", 2 ** 53 + 1, "[0, 2**53]"),
                                ("vehicle_id", -2 ** 63, "[-2**53, 2**53]")):
        fields = {"first_frame": batch.first_frame, "vehicle_id": batch.vehicle_id,
                  name: np.array([0, value, 0])}
        with pytest.raises(ValueError) as info:
            ScenarioBatch(batch.ids, batch.codes, batch.v0, fields["first_frame"],
                          fields["vehicle_id"], batch.features, batch.futures, 10.0)
        assert str(info.value) == (f"scenario 1 ('synth-00001'): scenario synth-00001: "
                                   f"{name} must be an integer in {bounds}, got {value}")
    edge = ScenarioBatch(batch.ids, batch.codes, batch.v0, [0, 2 ** 53, 0],
                         [1, -2 ** 53, 2 ** 53], batch.features, batch.futures, 10.0)
    path = tmp_path / "arch.json"
    save_archive(path, edge, 10)
    back, _ = load_archive(path)
    assert back.first_frame.tolist() == [0, 2 ** 53, 0]
    assert back.vehicle_id.tolist() == [1, -2 ** 53, 2 ** 53]


# 3 scenarios at 10 fps: 4 columns of 3 values, 3 x 4 x 30 x 9 features and
# 3 x 50 x 2 future values.
ARCHIVE_PAYLOAD = 8 * (4 * 3 + 3 * 4 * 30 * 9 + 3 * 50 * 2)
GRID = "on grid (t_obs, t_pred, n_vehicles)"

CORRUPT_ARCHIVES = [
    (lambda data: data.replace(b'"fps": 10.0', b'"fps": 10.0.', 1),
     "archive head is not valid JSON at fps: Expecting ',' delimiter: "
     "line 1 column 27 (char 26)"),
    (lambda data: data.replace(b"\n", b"", 1), "archive has no newline after its head"),
    (lambda data: data[:-1], f"archive payload is {ARCHIVE_PAYLOAD - 1} bytes, expected "
                             f"{ARCHIVE_PAYLOAD} for the arrays its head declares"),
    (lambda data: data + b"\0", f"archive payload is {ARCHIVE_PAYLOAD + 1} bytes, expected "
                                f"{ARCHIVE_PAYLOAD} for the arrays its head declares"),
    (edited_head(lambda head: head.update(t_obs=29)),
     f"archive arrays features has shape (3, 4, 30, 9), expected (3, 4, 29, 9) "
     f"for 3 scenarios {GRID} = (29, 50, 9)"),
    (edited_head(lambda head: head["ids"].pop()),
     f"archive arrays codes has shape (3,), expected (2,) for 2 scenarios {GRID} = (30, 50, 9)"),
    (edited_head(lambda head: head["arrays"].update(future=[3, 100, 1])),
     f"archive arrays future has shape (3, 100, 1), expected (3, 50, 2) "
     f"for 3 scenarios {GRID} = (30, 50, 9)"),
    (lambda data: edited_head(lambda head: head["arrays"].update(labels=[1]))(data) + bytes(8),
     "archive arrays has unknown keys: labels"),
    (edited_head(lambda head: head.update(ids=[])), "archive contains no scenarios"),
    (edited_head(lambda head: head.update(t_obs="30")),
     "archive t_obs is a string, expected an integer"),
    (edited_head(lambda head: head.pop("n_vehicles")), "archive is missing key 'n_vehicles'"),
    (edited_head(lambda head: head["ids"].insert(1, [0.0])), "archive ids must be a list of "
                                                             "strings"),
    (edited_head(lambda head: head["ids"].__setitem__(1, 5)),
     "archive ids must be a list of strings"),
    (edited_head(lambda head: head["ids"].__setitem__(0, None)),
     "archive ids must be a list of strings"),
    (edited_head(lambda head: head["ids"].__setitem__(2, {"id": "synth-00002"})),
     "archive ids must be a list of strings"),
    (poked("codes", 1, 3.0), "scenario 1 ('synth-00001'): unknown maneuver 3.0"),
    (poked("codes", 2, 0.5), "scenario 2 ('synth-00002'): unknown maneuver 0.5"),
    (poked("codes", 0, -1.0), "scenario 0 ('synth-00000'): unknown maneuver -1.0"),
    (poked("codes", 1, math.nan), "scenario 1 ('synth-00001'): unknown maneuver nan"),
    (poked("v0", 2, math.nan),
     "scenario 2 ('synth-00002'): scenario synth-00002: v0 must be finite, got nan"),
    (poked("v0", 1, -math.inf),
     "scenario 1 ('synth-00001'): scenario synth-00001: v0 must be finite, got -inf"),
    (edited_head(lambda head: head.pop("fps")), "archive is missing key 'fps'"),
    (edited_head(lambda head: head.pop("ids")), "archive is missing key 'ids'"),
    (edited_head(lambda head: head.update(ids=5)), "archive ids is an integer, expected a list"),
    (edited_head(lambda head: head.update(ids={})), "archive ids is an object, expected a list"),
    (edited_head(lambda head: head.update(t_pred=True)),
     "archive t_pred is a boolean, expected an integer"),
    (edited_head(lambda head: head.update(fps="10")), "archive fps is a string, expected a number"),
    (edited_head(lambda head: head.update(n_vehicles=True)),
     "archive n_vehicles is a boolean, expected an integer"),
    (lambda data: b"[" + data.replace(b"\n", b"]\n", 1), "archive is not a JSON object"),
    (lambda data: b"", "archive head is not valid JSON: Expecting value: line 1 column 1 "
                       "(char 0)"),
    (lambda data: edited_head(lambda head: head["arrays"].pop("future"))(data)[:-8 * 300],
     "archive arrays is missing key 'future'"),
    (lambda data: edited_head(lambda head: head["arrays"].pop("vehicle_id"))(data)[:-8 * 3],
     "archive arrays is missing key 'vehicle_id'"),
    (edited_head(lambda head: head["arrays"].update(features=None)),
     "archive arrays features is null, expected a list"),
    (edited_head(lambda head: head["arrays"].update(features=[3, 4, 0, 9])),
     "archive arrays features has shape [3, 4, 0, 9], expected a list of positive "
     "integers"),
]


@pytest.mark.parametrize("edit, message", CORRUPT_ARCHIVES)
def test_archive_corrupt_payload_names_path_and_fault(tmp_path, edit, message):
    path = tmp_path / "arch.json"
    save_archive(path, synthesize(3, 10, seed=21), 10)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ValueError) as info:
        load_archive(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("edit, message", CORRUPT_ARCHIVES)
def test_a_row_read_refuses_what_a_full_read_refuses_before_it_chooses(tmp_path, edit,
                                                                      message):
    # The whole head, the payload's length and every row's code and v0 are
    # checked before the chooser sees the ids and codes.
    path = tmp_path / "arch.json"
    save_archive(path, synthesize(3, 10, seed=21), 10)
    path.write_bytes(edit(path.read_bytes()))
    chosen = []
    with pytest.raises(ValueError) as info:
        load_archive(path, lambda ids, codes: chosen.append(ids) or [0])
    assert str(info.value) == f"{path}: {message}"
    assert chosen == []


def test_a_row_read_is_those_rows_of_a_full_read_in_their_order(tmp_path):
    path = tmp_path / "arch.json"
    save_archive(path, synthesize(9, 10, seed=23, noise_std=0.05), 10)
    full, _ = load_archive(path)
    seen = []

    def choose(ids, codes):
        seen.append((ids, codes.tolist()))
        return [7, 2, 3, 4, 0, 8, 2]

    batch, fps = load_archive(path, choose)
    assert fps == 10.0
    assert seen == [(full.ids, full.codes.tolist())]
    want = full[[7, 2, 3, 4, 0, 8, 2]]
    assert batch.ids == want.ids
    for name in ("codes", "v0", "first_frame", "vehicle_id", "features", "futures"):
        got = getattr(batch, name)
        assert not got.flags.writeable and got.tobytes() == getattr(want, name).tobytes()


@pytest.mark.parametrize("name, item, value, reason", [
    ("features", 100, math.nan, "non-finite data"),
    ("future", 7, math.inf, "non-finite data"),
    ("first_frame", 0, -1.0, "first_frame must be an integer in [0, 2**53], got -1.0"),
    ("first_frame", 0, 2.5, "first_frame must be an integer in [0, 2**53], got 2.5"),
    ("first_frame", 0, math.inf, "first_frame must be an integer in [0, 2**53], got inf"),
    ("vehicle_id", 0, math.nan, "vehicle_id must be an integer in [-2**53, 2**53], got nan"),
    ("vehicle_id", 0, -0.5, "vehicle_id must be an integer in [-2**53, 2**53], got -0.5"),
    ("vehicle_id", 0, 2.0 ** 63,
     "vehicle_id must be an integer in [-2**53, 2**53], got 9.223372036854776e+18"),
])
def test_a_row_read_checks_the_data_of_its_rows_only(tmp_path, name, item, value, reason):
    path = tmp_path / "arch.json"
    save_archive(path, synthesize(5, 10, seed=24), 10)
    path.write_bytes(poked(name, 3, value, item)(path.read_bytes()))
    message = f"{path}: scenario 3 ('synth-00003'): scenario synth-00003: {reason}"
    with pytest.raises(ValueError) as info:
        load_archive(path)
    assert str(info.value) == message
    batch, _ = load_archive(path, lambda ids, codes: [4, 1])
    assert batch.ids == ("synth-00004", "synth-00001")
    # A read row that breaks the rule is named by its index in the archive.
    with pytest.raises(ValueError) as info:
        load_archive(path, lambda ids, codes: [4, 3])
    assert str(info.value) == message


@pytest.mark.parametrize("name, value, reason", [
    ("codes", 7.0, "unknown maneuver 7.0"),
    ("v0", math.nan, "scenario synth-00003: v0 must be finite, got nan"),
])
def test_a_row_read_checks_every_code_and_v0(tmp_path, name, value, reason):
    path = tmp_path / "arch.json"
    save_archive(path, synthesize(5, 10, seed=24), 10)
    path.write_bytes(poked(name, 3, value)(path.read_bytes()))
    for rows in (None, lambda ids, codes: [0]):
        with pytest.raises(ValueError) as info:
            load_archive(path, rows)
        assert str(info.value) == f"{path}: scenario 3 ('synth-00003'): {reason}"


def test_a_row_read_names_a_bad_fps_as_a_full_read_does(tmp_path):
    path = tmp_path / "arch.json"
    save_archive(path, synthesize(3, 10, seed=24), 10)
    rewrite_head(path, lambda head: head.update(fps=-1.0))
    message = (f"{path}: scenario 0 ('synth-00000'): scenario synth-00000: "
               f"fps must be positive and finite, got -1.0")
    for rows in (None, lambda ids, codes: [2]):
        with pytest.raises(ValueError) as info:
            load_archive(path, rows)
        assert str(info.value) == message


def test_a_row_read_grows_by_less_than_200_bytes_a_scenario(tmp_path):
    # A one-row read parses the head's ids and reads the codes and v0
    # columns whole, and no scenario's data but its own: its tracemalloc
    # peak grows with the archive by less than 200 bytes per scenario.
    three = synthesize(3, 2, seed=9, n_vehicles=2)
    peaks = {}
    for n in (60, 6000):
        path = tmp_path / f"arch{n}.json"
        batch = three[np.arange(n) % 3]._derive(ids=tuple(f"synth-{i:05d}" for i in range(n)))
        save_archive(path, batch, 2)
        load_archive(path, lambda ids, codes: [0])
        tracemalloc.start()
        try:
            load_archive(path, lambda ids, codes: [n - 1])
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (peaks[6000] - peaks[60]) / (6000 - 60) < 200, peaks


def test_archive_scenarios_are_read_only_views_of_the_payload(tmp_path):
    path = tmp_path / "arch.json"
    save_archive(path, synthesize(3, 10, seed=21), 10)
    scenarios, _ = load_archive(path)
    for name in ("features", "future"):
        base = getattr(scenarios[0], name).base
        assert base is not None and not base.flags.writeable
        for s in scenarios:
            assert getattr(s, name).base is base
            assert getattr(s, name).flags.c_contiguous


def test_batch_row_is_a_view_that_the_rule_does_not_check_again(monkeypatch):
    batch = synthesize(5, 10, seed=30, noise_std=0.05)
    checked = []
    rule = ScenarioBatch.__post_init__
    monkeypatch.setattr(ScenarioBatch, "__post_init__",
                        lambda self: checked.append(self) or rule(self))
    row, last = batch[2], batch[-1]
    assert checked == []
    assert isinstance(row, Scenario) and row.batch is batch
    assert row.features.base is batch.features and row.future.base is batch.futures
    assert (row.scenario_id, row.maneuver, row.v0, row.fps) == (
        "synth-00002", "lane_change_right", float(batch.v0[2]), 10.0)
    assert (row.t_obs, row.t_pred, row.n_vehicles) == (30, 50, 9)
    assert last.scenario_id == "synth-00004"
    with pytest.raises(IndexError):
        batch[5]
    # A slice or an index array is a batch of rows the rule has passed:
    # it is not checked again.
    assert batch[1:3].ids == ("synth-00001", "synth-00002")
    assert batch[np.array([3, 0])].ids == ("synth-00003", "synth-00000")
    assert checked == []


def test_slices_of_a_checked_batch_skip_the_rule_and_keep_its_bytes(monkeypatch):
    batch = synthesize(7, 10, seed=30, noise_std=0.05)
    calls = []
    rule = scenario._check_rule
    monkeypatch.setattr(scenario, "_check_rule",
                        lambda *args: calls.append(args) or rule(*args))
    indices = [slice(1, 4), slice(None, None, -2), np.array([5, 0, 3]), batch.codes == 1,
               [6], slice(6, 7)]
    got = [batch[index] for index in indices[:-1]] + [_own_batch(batch[6])]
    assert calls == []
    for index, part in zip(indices, got):
        rows = np.arange(len(batch))[index]
        want = ScenarioBatch([batch.ids[i] for i in rows], batch.codes[rows], batch.v0[rows],
                             batch.first_frame[rows], batch.vehicle_id[rows],
                             batch.features[rows], batch.futures[rows], batch.fps)
        assert _scenario_bytes(part) == _scenario_bytes(want)
        assert part.codes.tobytes() == want.codes.tobytes() and part.fps == want.fps
        for name in ("codes", "v0", "features", "futures"):
            assert not getattr(part, name).flags.writeable
    assert len(calls) == len(indices)
    # synthesize checks its tracks once and its scenarios once; renaming the
    # batch checks nothing.
    calls.clear()
    assert _scenario_bytes(synthesize(7, 10, seed=30, noise_std=0.05)) == _scenario_bytes(batch)
    assert len(calls) == 2


def test_archive_rejects_fps_mismatch(tmp_path):
    scen = synthesize(2, 10, seed=19)
    with pytest.raises(ValueError, match="fps"):
        save_archive(tmp_path / "arch.json", scen, 25)


def _set(name, at, value):
    """A change that writes ``value`` at index ``at`` of a row's ``name``."""
    def change(row):
        row[name] = row[name].copy()
        row[name][at] = value
    return change


def _put(name, value):
    return lambda row: row.update({name: value})


# The scenario rule, one fault per case: the change to one scenario's
# fields and the rule's message, for a scenario of id {id}.
RULE_FAULTS = [
    (_set("features", (2, 5, 3), np.nan), "scenario {id}: non-finite data"),
    (_set("features", (0, 7, 0), np.inf), "scenario {id}: non-finite data"),
    (_set("future", (49, 1), -np.inf), "scenario {id}: non-finite data"),
    (_set("features", (0, 0, 0), 1.0), "scenario {id}: target must start at the origin"),
    (_set("features", (1, 0, 0), -0.5), "scenario {id}: target must start at the origin"),
    (_put("codes", 3.0), "unknown maneuver 3.0"),
    (_put("codes", 1.5), "unknown maneuver 1.5"),
    (_put("codes", np.nan), "unknown maneuver nan"),
    (_put("v0", np.nan), "scenario {id}: v0 must be finite, got nan"),
    (_put("v0", np.inf), "scenario {id}: v0 must be finite, got inf"),
    (_put("v0", -np.inf), "scenario {id}: v0 must be finite, got -inf"),
    (_put("first_frame", -3.0), "scenario {id}: first_frame must be an integer in [0, 2**53], "
                                "got -3.0"),
    (_put("first_frame", 0.25), "scenario {id}: first_frame must be an integer in [0, 2**53], "
                                "got 0.25"),
    (_put("vehicle_id", np.inf), "scenario {id}: vehicle_id must be an integer in "
                                 "[-2**53, 2**53], got inf"),
    (_put("vehicle_id", -2.0 ** 54), "scenario {id}: vehicle_id must be an integer in "
                                     "[-2**53, 2**53], got -1.8014398509481984e+16"),
] + [(_put("fps", fps), f"scenario {{id}}: fps must be positive and finite, got {fps}")
     for fps in (0.0, -10.0, np.inf, -np.inf, np.nan)]


@pytest.mark.parametrize("change, reason", RULE_FAULTS)
def test_scenario_rule_refuses_alike_a_batch_and_an_archive(tmp_path, change, reason):
    # Every per-scenario value a float, as an archive stores it.
    rows = [{"scenario_id": s.scenario_id, "codes": float(MANEUVERS.index(s.maneuver)),
             "v0": s.v0, "first_frame": float(s.first_frame),
             "vehicle_id": float(s.vehicle_id), "features": s.features, "future": s.future,
             "fps": s.fps}
            for s in synthesize(3, 10, seed=21)]
    change(rows[1])
    # A batch holds one fps, so a bad fps is every row's fault, and the
    # first row is named.
    if "fps" in reason:
        for row in rows:
            row["fps"] = rows[1]["fps"]
    bad = 0 if "fps" in reason else 1
    named = f"scenario {bad} ('synth-0000{bad}'): " + reason.format(id=f"synth-0000{bad}")
    fields = {name: [row[name] for row in rows] for name in rows[0]}
    columns = ("codes", "v0", "first_frame", "vehicle_id", "features", "future")
    arrays = {name: np.array(fields[name]) for name in columns}
    with pytest.raises(ValueError) as info:
        ScenarioBatch(fields["scenario_id"], *arrays.values(), rows[1]["fps"])
    assert str(info.value) == named
    path = tmp_path / "arch.json"
    save_archive(path, synthesize(3, 10, seed=21), 10)
    head, _ = split_head(path)
    del head["arrays"]
    head["fps"] = rows[1]["fps"]
    write_document(path, head, arrays)
    with pytest.raises(ValueError) as info:
        load_archive(path)
    assert str(info.value) == f"{path}: {named}"


@pytest.mark.parametrize("features, future, message", [
    ((3, 30, 9), (50, 2), "features must be (4, T_obs, N_V), got (3, 30, 9)"),
    ((4, 30), (50, 2), "features must be (4, T_obs, N_V), got (4, 30)"),
    ((4, 30, 9), (50, 3), "future must be (T_pred, 2), got (50, 3)"),
    ((4, 30, 9), (0, 2), "future must be (T_pred, 2), got (0, 2)"),
])
def test_batch_refuses_a_bad_grid(features, future, message):
    # A grid is the whole batch's, so the message names no row.
    features, future = np.zeros(features), np.zeros(future)
    with pytest.raises(ValueError) as info:
        ScenarioBatch(("x", "y"), ("keep_lane",) * 2, (20.0,) * 2, (0, 0), (1, 2),
                      np.stack([features] * 2), np.stack([future] * 2), 10.0)
    assert str(info.value) == message


def test_batch_takes_maneuver_names_and_names_an_unknown_one():
    good = synthesize(3, 10, seed=20)
    names = [MANEUVERS[code] for code in good.codes]
    batch = ScenarioBatch(good.ids, names, good.v0, good.first_frame, good.vehicle_id,
                          good.features, good.futures, 10.0)
    assert batch.codes.tolist() == good.codes.tolist() and batch.codes.dtype == np.int64
    with pytest.raises(ValueError) as info:
        ScenarioBatch(good.ids, names[:2] + ["jump"], good.v0, good.first_frame,
                      good.vehicle_id, good.features, good.futures, 10.0)
    assert str(info.value) == "scenario 2 ('synth-00002'): unknown maneuver 'jump'"


def test_batch_refuses_fields_of_different_lengths():
    good = synthesize(3, 10, seed=20)
    with pytest.raises(ValueError, match="^a batch of 2 ids has maneuvers of shape"):
        ScenarioBatch(good.ids[:2], good.codes, good.v0, good.first_frame, good.vehicle_id,
                      good.features, good.futures, 10.0)
