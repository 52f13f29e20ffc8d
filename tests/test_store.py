import base64
import errno

import numpy as np
import pytest

from gftnn import store
from gftnn.model import build_basis, init_params, save_checkpoint
from gftnn.scenario import save_archive, synthesize
from gftnn.store import Table
from gftnn.training import AdamState
from helpers import encode_array, tiny_config


def outcome(call, *args):
    """("ok", None) or ("error", message) of call(*args)."""
    try:
        call(*args)
    except ValueError as exc:
        return "error", str(exc)
    return "ok", None


def agree(table, key, shape):
    """check_array ends as array does, with array's message on a refusal."""
    expected = outcome(table.array, key, shape)
    assert outcome(table.check_array, key, shape) == expected
    return expected


# 8, 16 and 24 bytes: base64 with 1, 2 and no padding characters.
VALUES = {1: np.array([1.0 / 3.0]), 2: np.array([-0.0, 5e-324]),
          3: np.array([np.nan, 1.5, -2.0])}


def malformed(text):
    """Variants of one well-formed base64 string, by what breaks in them."""
    raw = base64.b64decode(text)
    short = base64.b64encode(raw[:-1]).decode("ascii")
    mid = len(text) // 2
    return {
        "space": text[:mid] + " " + text[mid:],
        "leading space": " " + text,
        "trailing space": text + " ",
        "newline": text + "\n",
        "inner newline": text[:mid] + "\n" + text[mid:],
        "non-ascii": text[:mid] + "é" + text[mid + 1:],
        "non-ascii appended": text + "é",
        "= inside": text[:mid] + "=" + text[mid + 1:],
        "= first": "=" + text[1:],
        "three =": text[:-3] + "===",
        "three = appended": text.rstrip("=") + "===",
        "= appended": text + "=",
        "== appended": text + "==",
        "length 4n+1": text.rstrip("=") + "A",
        "one char short": text[:-1],
        "one byte short": short,
        "one byte long": base64.b64encode(raw + b"\0").decode("ascii"),
        "dash": text[:mid] + "-" + text[mid + 1:],
        "star": text[:mid] + "*" + text[mid + 1:],
        "empty": "",
    }


@pytest.mark.parametrize("size", sorted(VALUES))
def test_check_array_agrees_with_array_on_malformed_strings(size):
    text = encode_array(VALUES[size])
    assert agree(Table({"a": text}, "f: doc"), "a", (size,)) == ("ok", None)
    for name, bad in malformed(text).items():
        agree(Table({"a": bad}, "f: doc"), "a", (size,))
    for shape in ((size + 1,), (1, size), (0,), (size, 0)):
        agree(Table({"a": text}, "f: doc"), "a", shape)


def test_check_array_refuses_what_array_refuses():
    # The malformed strings that array refuses, with its message.
    text = encode_array(VALUES[1])
    refused = {name for name, bad in malformed(text).items()
               if outcome(Table({"a": bad}, "f: doc").array, "a", (1,))[0] == "error"}
    assert {"space", "newline", "non-ascii", "= inside", "three =", "length 4n+1",
            "one char short", "one byte short", "empty"} <= refused
    table = Table({"a": text[:-1]}, "f: doc")
    with pytest.raises(ValueError, match=r"^f: doc a is not valid base64: "):
        table.check_array("a", (1,))


@pytest.mark.parametrize("value", [None, 3, 2.5, [1.0], {"x": 1}, True])
def test_check_array_agrees_with_array_on_other_json_values(value):
    agree(Table({"a": value}, "f: doc"), "a", (1,))
    agree(Table({}, "f: doc"), "a", (1,))


def test_check_array_decodes_version_1_lists():
    table = Table({"a": ["0.5", 1.0], "b": [1.0, "x"], "c": "AAAAAAAAAAA="},
                  "f: doc", version=1)
    assert agree(table, "a", (2,)) == ("ok", None)
    assert agree(table, "b", (2,))[1] == "f: doc b holds a value that is not a number"
    assert agree(table, "c", (1,))[1] == "f: doc c is a string, expected a list"


def test_check_array_agrees_with_array_on_random_edits():
    # One to three characters of a well-formed string replaced, inserted or
    # deleted, from the alphabet, padding, whitespace and non-ASCII text.
    rng = np.random.default_rng(5)
    chars = list("AZaz09+/=") + [" ", "\n", "\t", "-", "é", "☃"]
    for size in sorted(VALUES):
        text = encode_array(VALUES[size])
        for _ in range(400):
            edited = list(text)
            for _ in range(rng.integers(1, 4)):
                at = int(rng.integers(0, len(edited) + 1))
                kind = rng.integers(3)
                if kind == 0 and at < len(edited):
                    edited[at] = chars[rng.integers(len(chars))]
                elif kind == 1:
                    edited.insert(at, chars[rng.integers(len(chars))])
                elif edited and at < len(edited):
                    del edited[at]
            agree(Table({"a": "".join(edited)}, "f: doc"), "a", (size,))


def test_check_array_does_not_decode_well_formed_arrays(monkeypatch):
    def no_decode(*args, **kwargs):
        raise AssertionError("check_array decoded a well-formed array")

    table = Table({name: encode_array(arr) for name, arr in
                   ((str(size), values) for size, values in VALUES.items())}, "f: doc")
    monkeypatch.setattr(store.base64, "b64decode", no_decode)
    for size in VALUES:
        assert table.check_array(str(size), (size,)) is None


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


def test_write_document_refuses_arrays_that_do_not_fill_their_shape(tmp_path):
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError, match=r"^a: 5 values do not fill shape \(2, 3\)$"):
        store.write_document(path, {"version": 1},
                             {"a": ((2, 3), [np.zeros(3), np.zeros(2)])})
    assert not path.exists()
