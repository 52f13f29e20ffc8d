import errno
import os

import numpy as np
import pytest

from gftnn import store
from gftnn.model import build_basis, init_params, save_checkpoint
from gftnn.scenario import save_archive, synthesize
from gftnn.training import AdamState
from helpers import tiny_config


class _FullDisk:
    """Opens files as ``open`` does, but each one written fails with ENOSPC
    once ``room`` bytes are in it."""

    def __init__(self, room):
        self.room = room

    def __call__(self, path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        if "w" not in mode:
            return fh
        room = self.room

        class Limited:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                fh.close()

            def write(self, data):
                nonlocal room
                size = memoryview(data).nbytes
                if size > room:
                    fh.write(bytes(memoryview(data).cast("B")[:room]))
                    room = 0
                    raise OSError(errno.ENOSPC, "No space left on device")
                room -= size
                return fh.write(data)

        return Limited()


def _save_checkpoint(path, seed):
    cfg = tiny_config()
    params = init_params(cfg, seed)
    save_checkpoint(path, cfg, build_basis(cfg), params, 3,
                    AdamState.initial(params).as_dict())


def _save_archive(path, seed):
    save_archive(path, synthesize(3, 10, seed=seed), 10)


@pytest.mark.parametrize("save", [_save_checkpoint, _save_archive])
@pytest.mark.parametrize("room", [0, 100, 5000])
def test_failed_write_leaves_the_old_file(tmp_path, monkeypatch, save, room):
    # A write that fails partway (here a full disk after ``room`` bytes)
    # leaves the file it replaces byte for byte and no temporary file.
    path = tmp_path / "doc.json"
    save(path, 1)
    before = path.read_bytes()
    monkeypatch.setattr(store, "open", _FullDisk(room), raising=False)
    with pytest.raises(OSError, match="No space left on device"):
        save(path, 2)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]
    save(path, 2)
    assert path.read_bytes() != before
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


@pytest.mark.parametrize("text, at", [
    ('{"a": [1, {"b": "x", "c": [1, 2,', "a[1].c[2]"),
    ('{"a": {"b": 1}, "c": ', "c"),
    ('[1, 2, {"k": ', "[2].k"),
    ('{"x\\"y": [', 'x\\"y[0]'),
    ("", ""),
])
def test_json_path_names_the_value_a_text_breaks_off_in(text, at):
    assert store._json_path(text, len(text)) == at


@pytest.mark.parametrize("data, message", [
    (b'{"a": [1, {"b": "x", "c": [1, 2,',
     "is not valid JSON at a[1].c[2]: Expecting value: line 1 column 33 (char 32)"),
    (b"[1, 2]", "is not a JSON object"),
    (b'\xff\xfe{}', "is not text: 'utf-8' codec can't decode byte 0xff in position 0: "
                    "invalid start byte"),
])
def test_read_document_names_the_path_and_the_fault(tmp_path, data, message):
    path = tmp_path / "cfg.json"
    path.write_bytes(data)
    with pytest.raises(ValueError) as info:
        store.read_document(path, "config file")
    assert str(info.value) == f"{path}: config file {message}"


def test_payload_reads_each_array_as_a_fresh_writable_copy(tmp_path):
    path = tmp_path / "doc.json"
    store.write_document(path, {"version": 1},
                         {"a": np.arange(6.0).reshape(2, 3), "b": np.array([-0.0])})
    with store.open_document(path, "doc", "version", 1) as doc:
        assert doc.obj == {"version": 1, "arrays": {"a": [2, 3], "b": [1]}}
        assert doc.payload.shapes == {"a": (2, 3), "b": (1,)}
        first = doc.payload.read("a")
        second = doc.payload.read("a")
        b = doc.payload.read("b")
    assert np.array_equal(first, np.arange(6.0).reshape(2, 3))
    assert first.dtype == np.float64 and first.flags.writeable
    assert not np.shares_memory(first, second)
    assert np.signbit(b[0])


class _CountedReads:
    """An open binary file that counts its ``readinto`` calls."""

    def __init__(self, fh):
        self._fh = fh
        self.seek = fh.seek
        self.reads = 0

    def readinto(self, buffer):
        self.reads += 1
        return self._fh.readinto(buffer)


@pytest.mark.parametrize("rows, reads", [
    ([3], 1),
    ([2, 2], 2),
    (range(10), 1),
    (np.array([0, 1, 2, 5, 6, 9]), 3),
    ([], 0),
])
def test_payload_reads_rows_in_file_order_one_call_per_run(tmp_path, rows, reads):
    # The rows ascend, as the file does; each run of consecutive rows is
    # read in one call.
    path = tmp_path / "doc.json"
    a = np.arange(10 * 2 * 3, dtype=float).reshape(10, 2, 3)
    store.write_document(path, {"version": 1}, {"b": np.ones(4), "a": a})
    with store.open_document(path, "doc", "version", 1) as doc:
        counted = doc.payload._fh = _CountedReads(doc.payload._fh)
        got = doc.payload.read("a", rows)
    assert got.shape == (len(rows), 2, 3) and got.dtype == np.float64
    assert got.flags.writeable and got.flags.c_contiguous
    assert got.tobytes() == a[list(rows)].tobytes()
    assert counted.reads == reads


@pytest.mark.parametrize("rows", [[4, 5, 6, 1, 2, 9], [7, 6, 5], np.array([9, 0])])
def test_payload_refuses_rows_that_descend(tmp_path, rows):
    path = tmp_path / "doc.json"
    store.write_document(path, {"version": 1}, {"a": np.zeros((10, 2))})
    with store.open_document(path, "doc", "version", 1) as doc:
        doc.payload._fh = _CountedReads(doc.payload._fh)
        with pytest.raises(IndexError, match=r"rows of a must ascend$"):
            doc.payload.read("a", rows)
        assert doc.payload._fh.reads == 0


def test_payload_reads_ascending_rows_straight_into_the_result(tmp_path):
    # Rows in file order, each block of an all-rows read or of a side of a
    # split: one call per run of consecutive rows, no second copy, and the
    # bytes of those rows of a whole read.
    path = tmp_path / "doc.json"
    a = np.random.default_rng(3).standard_normal((600, 2, 3))
    store.write_document(path, {"version": 1}, {"b": np.ones(4), "a": a})
    with store.open_document(path, "doc", "version", 1) as doc:
        whole = doc.payload.read("a")
        counted = doc.payload._fh = _CountedReads(doc.payload._fh)
        for rows, runs in ((np.arange(0, 256), 1), (np.arange(256, 512), 1),
                           (np.arange(512, 600), 1), ([599], 1), (np.arange(600), 1),
                           ([0, 2, 3, 7, 599], 4), ([5, 5, 6], 2), ([1, 300], 2)):
            counted.reads = 0
            got = doc.payload.read("a", rows)
            assert counted.reads == runs
            assert got.flags.writeable and got.flags.c_contiguous and got.flags.owndata
            assert got.tobytes() == whole[rows].tobytes()
    assert whole.tobytes() == a.tobytes()


@pytest.mark.parametrize("rows", [[10], [-1], [0, 10], [9, 10], [-1, 0]])
def test_payload_refuses_rows_outside_the_array(tmp_path, rows):
    path = tmp_path / "doc.json"
    store.write_document(path, {"version": 1}, {"a": np.zeros((10, 2))})
    with store.open_document(path, "doc", "version", 1) as doc:
        with pytest.raises(IndexError, match=r"rows of a must lie in \[0, 10\)"):
            doc.payload.read("a", rows)


def test_payload_names_an_array_the_file_ends_inside(tmp_path):
    # The length is checked when the document opens; a file cut short
    # after that fails the read instead of returning short. (The array is
    # larger than the file's buffer, which the head line's read filled.)
    path = tmp_path / "doc.json"
    store.write_document(path, {"version": 1}, {"a": np.ones((3, 4000))})
    with store.open_document(path, "doc", "version", 1) as doc:
        os.truncate(path, os.path.getsize(path) - 8)
        for rows in (None, [2], [1, 2]):
            with pytest.raises(ValueError, match=r"doc ends inside array a$"):
                doc.payload.read("a", rows)
        assert doc.payload.read("a", [0, 1]).tobytes() == np.ones((2, 4000)).tobytes()
