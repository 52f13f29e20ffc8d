"""Stored documents: scenario archives, checkpoints and config files.

Each is one JSON object, read through a ``Table`` that checks every
value's JSON type, so a corrupt file raises one ValueError naming the
path, the object and the key. Float arrays are ``encode_array`` strings.
"""
from __future__ import annotations

import base64
import json
import math
import re
from dataclasses import MISSING

import numpy as np

_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}
# A string, with its colon when it is a key, or a bracket or a comma.
_TOKENS = re.compile(r'"([^"\\]*(?:\\.[^"\\]*)*)"(\s*:)?|[][{},]')
_BASE64_ALPHABET = (b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                    b"0123456789+/")


def encode_array(arr) -> str:
    """Base64 of the array's little-endian float64 bytes in C order."""
    raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return base64.b64encode(raw).decode("ascii")


def read_document(path, kind: str, version_key=None, versions=()) -> "Table":
    """The JSON object in the file at ``path``, named ``kind`` in errors.
    With ``version_key``, the format version stored there must be one of
    ``versions``."""
    with open(path) as fh:
        try:
            doc = Table(json.load(fh), f"{path}: {kind}")
        except json.JSONDecodeError as exc:
            at = _json_path(exc.doc, exc.pos)
            raise ValueError(f"{path}: {kind} is not valid JSON"
                             f"{f' at {at}' if at else ''}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {kind} is not text: {exc}") from None
    if version_key is not None:
        doc.version = doc.obj.get(version_key)
        if type(doc.version) is not int or doc.version not in versions:
            raise doc.error(f"has unsupported version {doc.version!r}")
    return doc


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
    """One JSON object of a stored document, named ``where`` in errors.
    Version 1 of archives and checkpoints stores a float array as a JSON
    list of numbers or of repr() strings, later versions as one string."""

    def __init__(self, obj, where: str, version: int | None = None):
        if not isinstance(obj, dict):
            raise ValueError(f"{where} is not a JSON object")
        self.obj = obj
        self.where = where
        self.version = version

    def error(self, message: str) -> ValueError:
        return ValueError(f"{self.where} {message}")

    def value(self, key: str, kind: type, default=MISSING):
        """The value under ``key``, of JSON type ``kind`` (an integer also
        reads as a float), or ``default`` if given and the key is absent."""
        if key not in self.obj:
            if default is MISSING:
                raise self.error(f"is missing key {key!r}")
            return default
        value = self.obj[key]
        if kind is float and type(value) is int:
            return float(value)
        if type(value) is not kind:
            raise self.error(f"{key} is {_JSON_TYPES[type(value)]}, "
                             f"expected {_JSON_TYPES[kind]}")
        return value

    def table(self, key: str) -> "Table":
        return Table(self.value(key, dict), f"{self.where} {key}", self.version)

    def array(self, key: str, shape: tuple) -> np.ndarray:
        """The float array under ``key``, checked to hold exactly the values
        of ``shape``, as a fresh writable float64 array of that shape."""
        if self.version == 1:
            stored = self.value(key, list)
            try:
                raw = np.array([float(v) for v in stored], dtype="<f8").tobytes()
            except (TypeError, ValueError):
                raise self.error(f"{key} holds a value that is not a number") from None
        else:
            stored = self.value(key, str)
            try:
                raw = base64.b64decode(stored, validate=True)
            except ValueError as exc:        # binascii.Error, or non-ASCII text
                raise self.error(f"{key} is not valid base64: {exc}") from None
        size = math.prod(shape)
        if min(shape) < 1:
            raise self.error(f"{key} has shape {shape}, with a dimension below 1")
        if len(raw) != 8 * size:
            raise self.error(f"{key} has wrong size: {len(raw)} bytes, "
                             f"expected {8 * size} for shape {shape}")
        return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)

    def check_array(self, key: str, shape: tuple):
        """Check the array under ``key`` as ``array`` would, without decoding
        it when it is well-formed base64 of exactly the values of ``shape``.
        Anything else goes through ``array``, so each error is its error."""
        stored = self.obj.get(key)
        if (self.version != 1 and type(stored) is str and stored.isascii()
                and min(shape) >= 1):
            text = stored.encode("ascii")
            # Outside the alphabet, well-formed base64 holds only its padding.
            pad = text.translate(None, _BASE64_ALPHABET)
            if (pad in (b"", b"=", b"==") and text.endswith(pad)
                    and len(text) % 4 == 0
                    and 3 * len(text) // 4 - len(pad) == 8 * math.prod(shape)):
                return
        self.array(key, shape)

    def build(self, cls, **kwargs):
        """``cls(**kwargs)``; a ValueError from its validation names this object."""
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise ValueError(f"{self.where}: {exc}") from None
