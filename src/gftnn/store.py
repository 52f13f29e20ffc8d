"""Stored documents: scenario archives, checkpoints and config files.

Archives and checkpoints are written in one binary layout: a single line
of ``json.dumps(head)``, a newline, then each array the head's ``arrays``
object declares (name -> shape, in file order) as little-endian float64
bytes in C order. ``write_document`` writes it and ``open_document``
reads it. Config files are one JSON object, read by ``read_document``.
Every value is read through a ``Table`` that checks its JSON type, so a
corrupt file raises one ValueError naming the path, the object and the
key.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import re

import numpy as np

_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}
# A string, with its colon when it is a key, or a bracket or a comma.
_TOKENS = re.compile(r'"([^"\\]*(?:\\.[^"\\]*)*)"(\s*:)?|[][{},]')


def write_document(path, head: dict, arrays: dict):
    """Write ``head`` and ``arrays`` to ``path`` in the binary layout.

    ``arrays`` maps each name to its array; the head gains an ``arrays``
    key declaring every name and its array's shape. The file is written
    beside ``path`` and then moved onto it, so a write that fails leaves
    the old file as it was.
    """
    arrays = {name: np.ascontiguousarray(array, dtype="<f8")
              for name, array in arrays.items()}
    line = json.dumps({**head, "arrays": {name: list(array.shape)
                                          for name, array in arrays.items()}}) + "\n"
    with _replacing(path) as fh:
        fh.write(line.encode("ascii"))
        for array in arrays.values():
            fh.write(array)


@contextlib.contextmanager
def _replacing(path):
    """A binary file to write in place of ``path``: a temporary file in the
    same directory, moved onto ``path`` when the block ends and removed if
    it raises."""
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


@contextlib.contextmanager
def open_document(path, kind: str, version_key: str, version: int):
    """The stored document at ``path`` as a ``Table`` of its head, named
    ``kind`` in errors, whose ``payload`` reads the arrays from the file;
    the file stays open until the block ends.

    A head whose version key does not hold ``version`` is refused before
    anything else in it is checked.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        # The head is ASCII; undecodable bytes can only follow it.
        text = line.decode("utf-8", "surrogateescape")
        try:
            obj, end = json.JSONDecoder().raw_decode(text)
        except json.JSONDecodeError as exc:
            raise _not_json(path, f"{kind} head", exc) from None
        doc = Table(obj, f"{path}: {kind}")
        stored = doc.obj.get(version_key)
        if type(stored) is not int or stored != version:
            raise doc.error(f"has unsupported version {stored!r}")
        if text[end:] != "\n":
            raise doc.error("has no newline after its head")
        doc.payload = Payload(fh, doc, len(line))
        del line, text      # only the parsed head stays while the block reads
        yield doc


class Payload:
    """The arrays after the head line of an archive or checkpoint, read
    from its open file by name. Opening checks that the file holds exactly
    the bytes the head declares."""

    def __init__(self, fh, head: "Table", start: int):
        declared = head.table("arrays")
        self.shapes, self._offsets = {}, {}
        end = start
        for name in declared.obj:
            shape = declared.value(name, list)
            if not shape or any(type(n) is not int or n < 1 for n in shape):
                raise declared.error(f"{name} has shape {shape}, expected a list "
                                     f"of positive integers")
            self.shapes[name] = tuple(shape)
            self._offsets[name] = end
            end += 8 * math.prod(shape)
        size = os.fstat(fh.fileno()).st_size
        if size != end:
            raise head.error(f"payload is {size - start} bytes, expected {end - start} "
                             f"for the arrays its head declares")
        self._fh = fh
        self._head = head
        self._declared = declared

    def expect(self, shapes: dict, owner: str):
        """Check that the head declares exactly ``shapes`` (name -> shape),
        which ``owner`` names in errors."""
        declared = self._declared
        for name, shape in shapes.items():
            if name not in self.shapes:
                raise declared.error(f"is missing key {name!r}")
            if self.shapes[name] != shape:
                raise declared.error(f"{name} has shape {self.shapes[name]}, "
                                     f"expected {shape} for {owner}")
        unknown = sorted(set(self.shapes) - set(shapes))
        if unknown:
            raise declared.error(f"has unknown keys: {', '.join(unknown)}")

    def read(self, name: str, rows=None) -> np.ndarray:
        """The array ``name`` as a fresh writable float64 array of its shape,
        or only ``rows``, ascending indices along its leading axis, stacked
        in that order. Only those rows' bytes are read, each run of
        consecutive rows in one call straight into the result. Rows that
        descend or lie outside the array raise IndexError.
        """
        shape = self.shapes[name]
        offset = self._offsets[name]
        if rows is None:
            arr = np.empty(shape, dtype="<f8")
            self._read_into(arr, offset, name)
            return arr.astype(np.float64, copy=False)
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        steps = np.diff(rows)
        if (steps < 0).any():
            raise IndexError(f"rows of {name} must ascend")
        if rows.size and not (0 <= rows[0] and rows[-1] < shape[0]):
            raise IndexError(f"rows of {name} must lie in [0, {shape[0]})")
        arr = np.empty((rows.size, *shape[1:]), dtype="<f8")
        row_bytes = 8 * math.prod(shape[1:])
        cuts = (np.flatnonzero(steps != 1) + 1).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, rows.size]) if rows.size else ():
            self._read_into(arr[lo:hi], offset + int(rows[lo]) * row_bytes, name)
        return arr.astype(np.float64, copy=False)

    def _read_into(self, arr: np.ndarray, offset: int, name: str):
        """Fill ``arr`` with the bytes of array ``name`` from file ``offset`` on."""
        self._fh.seek(offset)
        if self._fh.readinto(arr) != arr.nbytes:
            raise self._head.error(f"ends inside array {name}")


def _not_json(path, kind: str, exc: json.JSONDecodeError) -> ValueError:
    at = _json_path(exc.doc, exc.pos)
    return ValueError(f"{path}: {kind} is not valid JSON"
                      f"{f' at {at}' if at else ''}: {exc}")


def read_document(path, kind: str) -> "Table":
    """The JSON object in the file at ``path``, named ``kind`` in errors."""
    with open(path) as fh:
        try:
            return Table(json.load(fh), f"{path}: {kind}")
        except json.JSONDecodeError as exc:
            raise _not_json(path, kind, exc) from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {kind} is not text: {exc}") from None


def _json_path(text: str, pos: int) -> str:
    """The key path, such as 'scenarios[1].features', of the value that
    JSON text breaks off in at ``pos``."""
    keys = []       # per open container: its current key or item index
    for match in _TOKENS.finditer(text, 0, pos):
        token = match.group()
        if token in ("{", "["):
            keys.append(None if token == "{" else 0)
        elif token in ("}", "]"):
            del keys[-1:]
        elif token == "," and keys and isinstance(keys[-1], int):
            keys[-1] += 1
        elif match.group(2) and keys:
            keys[-1] = match.group(1)
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}"
                   for p in keys if p is not None).lstrip(".")


class Table:
    """One JSON object of a stored document, named ``where`` in errors."""

    def __init__(self, obj, where: str):
        if not isinstance(obj, dict):
            raise ValueError(f"{where} is not a JSON object")
        self.obj = obj
        self.where = where
        self.payload = None     # a document head's arrays (open_document)

    def error(self, message: str) -> ValueError:
        return ValueError(f"{self.where} {message}")

    def value(self, key: str, kind: type):
        """The value under ``key``, of JSON type ``kind`` (an integer also
        reads as a float); an absent key is an error."""
        if key not in self.obj:
            raise self.error(f"is missing key {key!r}")
        value = self.obj[key]
        if kind is float and type(value) is int:
            return float(value)
        if type(value) is not kind:
            raise self.error(f"{key} is {_JSON_TYPES[type(value)]}, "
                             f"expected {_JSON_TYPES[kind]}")
        return value

    def table(self, key: str) -> "Table":
        return Table(self.value(key, dict), f"{self.where} {key}")

    def build(self, cls, **kwargs):
        """``cls(**kwargs)``; a ValueError from its validation names this object."""
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise ValueError(f"{self.where}: {exc}") from None
