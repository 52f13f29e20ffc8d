import base64
import csv
import json
import logging
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

from gftnn import scenario
from gftnn.scenario import (MANEUVERS, BalanceError, ParseError, RawTrack,
                            Scenario, SchemaError, SplitError, balance,
                            extract_scenarios, ingest_tracks, label_maneuver,
                            load_archive, save_archive, split, synthesize)
from helpers import (extract_scenarios_reference, ingest_tracks_reference, multilane_scene,
                     three_class_tracks, write_tracks_csv, write_v1_archive)


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
    path = tmp_path / "huge.csv"
    path.write_text(HEADER + "1,1,0.0,0.0,1.0,0.0,2\n2,1," + "9" * 200_000 + ",0,1,0,2\n")
    with pytest.raises(ParseError, match="huge.csv: row 3: field larger than field limit"):
        ingest_tracks(path)


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
def test_ingest_matches_row_loop_reference_on_recordings(tmp_path, monkeypatch, seed, fps,
                                                         duplicate_id):
    # numpy's C reader parses these files alone: the row loop is not called.
    monkeypatch.setattr(scenario, "_read_rows", None)
    tracks = multilane_scene(seed, fps, n_tracks=20, duplicate_id=duplicate_id)
    write_tracks_csv(tmp_path / "n.csv", tracks)
    _write_highd_with_extras(tmp_path / "h.csv", tracks, seed)
    for path, schema in ((tmp_path / "n.csv", "normalized"), (tmp_path / "h.csv", "highd_like")):
        want = _ingest_outcome(ingest_tracks_reference, path, schema)
        assert _ingest_outcome(ingest_tracks, path, schema) == want
        assert isinstance(want, tuple) == duplicate_id


LONG = 200_000
# Data rows after HEADER, one file each; ingest_tracks must read every one
# as the row loop does: the same tracks, or the same error message.
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


@pytest.mark.parametrize("case", INGEST_CASES)
def test_ingest_matches_row_loop_reference(tmp_path, case):
    path = tmp_path / "tracks.csv"
    path.write_bytes((HEADER + INGEST_CASES[case]).encode())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _ingest_outcome(ingest_tracks, path, "normalized")
    assert got == _ingest_outcome(ingest_tracks_reference, path, "normalized")
    assert not caught      # e.g. loadtxt's warning on a file without data rows


LONG_FILE = "".join(f"{f},1,{f / 8},0.0,1.0,0.0,2,x\n" for f in range(7000))


@pytest.mark.parametrize("text", [
    "", "1,1,0.0,0.0,1.0,0.0,2,x\n",
    "1,1,0.0,0.0,1.0,0.0,2," + "a" * LONG + "\n",
    "a,b\n" * 3 + '1,1,0.0,0.0,1.0,0.0,2,"' + "b,\n" * LONG + '"\n',
    '1,1,0.0,0.0,1.0,0.0,2,"' + "b,\n" * LONG,
    "1,1,0.0,0.0,1.0,0.0,2,a\x00b\n",
], ids=["none", "plain", "long unused field", "long quoted field", "unclosed quote", "NUL"])
def test_ingest_unused_columns_match_row_loop_reference(tmp_path, text):
    # A field in a column the schema does not name still has to pass csv.reader.
    path = tmp_path / "tracks.csv"
    path.write_bytes((HEADER.rstrip("\n") + ",note\n" + LONG_FILE + text).encode())
    want = _ingest_outcome(ingest_tracks_reference, path, "normalized")
    assert _ingest_outcome(ingest_tracks, path, "normalized") == want


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


def test_raw_track_validation():
    with pytest.raises(ValueError):
        RawTrack(1, np.array([2, 1]), np.zeros(2), np.zeros(2), np.zeros(2),
                 np.zeros(2), np.zeros(2, dtype=np.int64))
    with pytest.raises(ValueError):
        RawTrack(1, np.array([1, 2]), np.array([0.0, np.nan]), np.zeros(2),
                 np.zeros(2), np.zeros(2), np.zeros(2, dtype=np.int64))


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


def test_extract_stride_controls_window_count():
    # window = 80 frames at 10 fps; 130 frames fit two windows at stride 50
    track = straight_track(1, 130)
    assert len(extract_scenarios([track], 10)) == 2
    assert len(extract_scenarios([track], 10, stride=10)) == 6
    assert len(extract_scenarios([track], 10, stride=100)) == 1


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
    assert extract_scenarios([track], 10) == []


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
        extract_scenarios([track], 10, stride=0)
    with pytest.raises(ValueError):
        extract_scenarios([track], 10, n_vehicles=1)


def _scenario_bytes(scenarios):
    return [(s.scenario_id, s.maneuver, s.features.shape, s.features.tobytes(),
             s.future.tobytes(), np.float64(s.v0).tobytes()) for s in scenarios]


@pytest.mark.parametrize("fps, n_vehicles, stride, target_ids, duplicate_id", [
    (10, 9, None, None, False),
    (25, 9, None, None, True),
    (10, 2, None, None, True),
    (25, 2, None, {1, 13, 15}, False),
    (10, 9, 1, None, True),
    (25, 9, 1, {1, 4, 14}, False),
    (25, 2, 7, None, True),
])
def test_extract_matches_quadratic_reference(caplog, fps, n_vehicles, stride,
                                             target_ids, duplicate_id):
    caplog.set_level(logging.INFO, logger="gftnn.scenario")
    tracks = multilane_scene(fps, fps, duplicate_id=duplicate_id)
    kwargs = dict(n_vehicles=n_vehicles, stride=stride, target_ids=target_ids)
    got = extract_scenarios(tracks, fps, **kwargs)
    logged = list(caplog.messages)
    caplog.clear()
    want = extract_scenarios_reference(tracks, fps, **kwargs)
    assert len(got) > 1
    assert _scenario_bytes(got) == _scenario_bytes(want)
    assert logged == caplog.messages
    if target_ids is None:
        assert "skipped" in logged[0]


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


def test_label_validation():
    with pytest.raises(ValueError):
        label_maneuver(np.zeros(5), np.zeros(4), 2)
    with pytest.raises(ValueError):
        label_maneuver(np.zeros(5), np.zeros(5), 5)


# ------------------------------------------------------------------ balancing

def test_balance_downsamples_to_minority():
    scen = synthesize(12, 10, seed=0)
    # drop most right changes: 4 keep, 4 left, 1 right
    subset = [s for s in scen if s.maneuver != "lane_change_right"] + \
             [s for s in scen if s.maneuver == "lane_change_right"][:1]
    out = balance(subset, seed=1)
    counts = {m: sum(s.maneuver == m for s in out) for m in MANEUVERS}
    assert counts == {m: 1 for m in MANEUVERS}


def test_balance_keeps_balanced_input():
    scen = synthesize(9, 10, seed=2)
    assert balance(scen, seed=0) == scen


def test_balance_deterministic():
    scen = synthesize(21, 10, seed=3)
    subset = scen[:13]  # 5 keep, 4 left, 4 right: forces a random down-sample
    assert balance(subset, seed=7) == balance(subset, seed=7)


def test_balance_empty_class_names_it():
    scen = [s for s in synthesize(9, 10, seed=4) if s.maneuver != "lane_change_left"]
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


def test_synthesize_constant_velocity_future():
    # a = 0 and no noise: the future x displacement is exactly linear in t
    scen = synthesize(1, 10, seed=13, accel_range=(0.0, 0.0))[0]
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
    with pytest.raises(ValueError):
        synthesize(3, 10, seed=0, noise_std=-0.1)


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
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.future, b.future)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_archive_bytes_are_compact_json_of_the_document(tmp_path, n):
    # Pins the archive format: key order, compact separators, float repr.
    scen = synthesize(3, 10, seed=18, noise_std=0.05)[:n]
    path = tmp_path / "arch.json"
    save_archive(path, scen, 10)
    def stored(arr):
        return base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")

    doc = {
        "version": 2,
        "fps": 10.0,
        "feature_order": "(channel, time, vehicle) row-major",
        "channels": ["x_rel", "y_rel", "vx_rel", "vy_rel"],
        "scenarios": [
            {"id": s.scenario_id, "maneuver": s.maneuver, "v0": s.v0,
             "t_obs": s.t_obs, "t_pred": s.t_pred, "n_vehicles": s.n_vehicles,
             "features": stored(s.features), "future": stored(s.future)}
            for s in scen
        ],
    }
    assert path.read_text() == json.dumps(doc, separators=(",", ":"))


def test_archive_reads_version_1(tmp_path):
    # JSON float lists keep every finite value, signed zeros and the
    # smallest subnormal included, so both formats load the same bits.
    scen = []
    for s in synthesize(4, 10, seed=22, noise_std=0.05):
        features, future = s.features.copy(), s.future.copy()
        features[0, 0, 0] = -0.0
        features[2, 1, 3] = 5e-324
        features[3, 2, 4] = -0.0
        future[0] = [5e-324, -0.0]
        scen.append(replace(s, features=features, future=future))
    write_v1_archive(tmp_path / "v1.json", scen, 10)
    save_archive(tmp_path / "v2.json", scen, 10)
    v1, fps_v1 = load_archive(tmp_path / "v1.json")
    v2, fps_v2 = load_archive(tmp_path / "v2.json")
    assert fps_v1 == fps_v2 == 10.0
    for a, b, c in zip(scen, v1, v2, strict=True):
        assert (a.scenario_id, a.maneuver, a.v0) == (b.scenario_id, b.maneuver, b.v0) \
            == (c.scenario_id, c.maneuver, c.v0)
        for name in ("features", "future"):
            bits = getattr(a, name).view(np.uint64)
            assert np.array_equal(getattr(b, name).view(np.uint64), bits), name
            assert np.array_equal(getattr(c, name).view(np.uint64), bits), name
    assert (tmp_path / "v2.json").stat().st_size < (tmp_path / "v1.json").stat().st_size


def test_archive_rejects_unknown_version(tmp_path):
    path = tmp_path / "arch.json"
    path.write_text('{"version": 99, "fps": 10, "scenarios": []}')
    with pytest.raises(ValueError, match="version"):
        load_archive(path)


def test_archive_rejects_mixed_shapes(tmp_path):
    scen = synthesize(2, 10, seed=19)
    short = replace(synthesize(1, 10, seed=19, t_pred=4.0)[0], scenario_id="short-0")
    path = tmp_path / "arch.json"
    save_archive(path, scen + [short], 10)
    with pytest.raises(ValueError, match="'short-0'.*mixes scenario shapes"):
        load_archive(path)


def _edit(change):
    """A text edit that applies change to the parsed document."""
    def edit(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)
    return edit


def _set(key, value):
    def change(doc):
        doc["scenarios"][1][key] = value
    return _edit(change)


def _resized(key, resize):
    def change(doc):
        item = doc["scenarios"][1]
        raw = resize(base64.b64decode(item[key]))
        item[key] = base64.b64encode(raw).decode("ascii")
    return _edit(change)


@pytest.mark.parametrize("edit, message", [
    (_edit(lambda doc: doc["scenarios"][1].pop("features")),
     "scenario 1 ('synth-00001') is missing key 'features'"),
    (_edit(lambda doc: doc["scenarios"][1].pop("t_pred")),
     "scenario 1 ('synth-00001') is missing key 't_pred'"),
    (_resized("features", lambda raw: raw[:-8]),
     "scenario 1 ('synth-00001') features has wrong size: 8632 bytes, "
     "expected 8640 for shape (4, 30, 9)"),
    (_resized("future", lambda raw: raw + raw[:8]),
     "scenario 1 ('synth-00001') future has wrong size: 808 bytes, "
     "expected 800 for shape (50, 2)"),
    (_set("maneuver", "jump"), "scenario 1 ('synth-00001'): unknown maneuver 'jump'"),
    (_edit(lambda doc: doc["scenarios"].insert(1, [0.0])),
     "scenario 1 is not a JSON object"),
    (_edit(lambda doc: doc.pop("fps")), "archive is missing key 'fps'"),
    (_edit(lambda doc: doc.pop("scenarios")), "archive is missing key 'scenarios'"),
    (lambda text: text[:text.index("synth-00001") + 200],
     "archive is not valid JSON at scenarios[1].features: Unterminated string "
     "starting at: line 1 column 12980 (char 12979)"),
    (lambda text: "", "archive is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    (_edit(lambda doc: doc.update(scenarios=[])), "archive contains no scenarios"),
    (_edit(lambda doc: doc.update(scenarios=5)),
     "archive scenarios is an integer, expected a list"),
    (_set("t_obs", "30"), "scenario 1 ('synth-00001') t_obs is a string, expected an integer"),
    (_set("features", None), "scenario 1 ('synth-00001') features is null, expected a string"),
    (lambda text: f"[{text}]", "archive is not a JSON object"),
    (_edit(lambda doc: doc["scenarios"][1].update(t_obs=0, features="")),
     "scenario 1 ('synth-00001') features has shape (4, 0, 9), with a dimension below 1"),
    (_set("n_vehicles", True),
     "scenario 1 ('synth-00001') n_vehicles is a boolean, expected an integer"),
])
def test_archive_corrupt_document_names_path_and_scenario(tmp_path, edit, message):
    path = tmp_path / "arch.json"
    save_archive(path, synthesize(3, 10, seed=21), 10)
    path.write_text(edit(path.read_text()))
    with pytest.raises(ValueError) as info:
        load_archive(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("edit, message", [
    (_edit(lambda doc: doc["scenarios"][1]["features"].pop()),
     "features has wrong size: 8632 bytes, expected 8640 for shape (4, 30, 9)"),
    (_edit(lambda doc: doc["scenarios"][1]["future"].insert(3, "x")),
     "future holds a value that is not a number"),
    (_set("future", "AAAA"), "future is a string, expected a list"),
])
def test_archive_version_1_corrupt_arrays(tmp_path, edit, message):
    path = tmp_path / "arch.json"
    write_v1_archive(path, synthesize(3, 10, seed=21), 10)
    path.write_text(edit(path.read_text()))
    with pytest.raises(ValueError) as info:
        load_archive(path)
    assert str(info.value) == f"{path}: scenario 1 ('synth-00001') {message}"


def test_archive_rejects_fps_mismatch(tmp_path):
    scen = synthesize(2, 10, seed=19)
    with pytest.raises(ValueError, match="fps"):
        save_archive(tmp_path / "arch.json", scen, 25)


def test_scenario_validation():
    good = synthesize(1, 10, seed=20)[0]
    with pytest.raises(ValueError):
        Scenario("x", good.features[:3], good.future, good.v0, 10.0, "keep_lane")
    with pytest.raises(ValueError):
        Scenario("x", good.features, good.future, good.v0, 10.0, "jump")
    shifted = good.features.copy()
    shifted[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        Scenario("x", shifted, good.future, good.v0, 10.0, "keep_lane")
