"""Content hashes and JSON Lines files, each read and appended here.

`content_hash` is the one hash: SHA-256 over canonical JSON, spelled as the
transcript keys always were. `decode` is the one reader of a stored row or
an input entry: it builds a dataclass from a JSON object, the inverse of
`json.dumps(value, default=vars)`, and a value that it cannot read raises
DecodeError, naming where in the value the fault lies. A row that cannot
be read raises RowError, naming its path and line. In an appended file, a
final row with no newline is an interrupted append: `read` leaves it out
with a warning, and `append` cuts it off first, under an exclusive flock
held through the write, so that processes sharing a file cannot cut each
other's row.
"""

from __future__ import annotations

import dataclasses
import fcntl
import functools
import hashlib
import io
import json
import logging
import os
import types
import typing
from collections.abc import Callable, Iterator

log = logging.getLogger(__name__)


class RowError(ValueError):
    """A row that cannot be read, named by its file and line."""

    def __init__(self, path, line_number: int, detail):
        super().__init__(f"bad row {path}:{line_number}: {detail}")
        self.path, self.line_number, self.detail = path, line_number, str(detail)


_CANONICAL = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def content_hash(value) -> str:
    return hashlib.sha256(_CANONICAL.encode(value).encode("utf-8")).hexdigest()


@functools.cache  # once per file and line
def _warn_interrupted(path: str, line_number: int) -> None:
    log.warning("%s:%d: ignored a final row with no newline (an interrupted append)",
                path, line_number)


def read(path) -> bytes:
    """An appended file's complete rows: its bytes up to its last newline."""
    fd = os.open(path, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_SH)  # so that no append is halfway through
        data, size = b"", os.fstat(fd).st_size
        while len(data) < size and (more := os.read(fd, size - len(data))):  # short reads
            data += more
    finally:
        os.close(fd)
    end = data.rfind(b"\n") + 1
    if data[end:].strip():
        _warn_interrupted(str(path), data.count(b"\n") + 1)
    return data[:end]


def _row_end(data: bytes, at: int) -> int:
    end = data.find(b"\n", at)
    return len(data) if end == -1 else end


def _decode(path, data: bytes, start: int, end: int, decode: Callable):
    try:
        return decode(json.loads(data[start:end]))
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise RowError(path, data.count(b"\n", 0, start) + 1, exc) from None


class DecodeError(TypeError):
    """A JSON value that `decode` cannot read; `place` is where in it the
    fault lies, as `entries[3].decoding`, or "" at its top."""

    def __init__(self, detail, place: str = ""):
        super().__init__(f"{place}: {detail}" if place else str(detail))
        self.detail, self.place = detail, place


def _within(step: str, exc: Exception) -> DecodeError:
    """`exc`, raised inside the field or item `step` of a value, placed there."""
    detail, place = (exc.detail, exc.place) if isinstance(exc, DecodeError) else (exc, "")
    return DecodeError(detail, step + ("." if place[:1] not in ("", "[") else "") + place)


def check_keys(value: dict, known) -> None:
    """A DecodeError naming every key of the object `value` not in `known`."""
    if unknown := value.keys() - known:
        raise DecodeError(f"unknown key {', '.join(map(repr, sorted(unknown)))}")


class _Mismatch(Exception):
    """A JSON value not of the type that a reader reads."""


def _mismatch():
    raise _Mismatch


def _object(cls, fields, value):
    if type(value) is not dict:
        raise _Mismatch
    check_keys(value, fields)
    values = {}
    for name, item in value.items():
        try:
            values[name] = fields[name][0](item)
        except _Mismatch:
            raise DecodeError(f"{name} must be {fields[name][1]}, not {item!r}") from None
        except (TypeError, ValueError) as exc:
            raise _within(name, exc) from None
    try:
        return cls(**values)
    except TypeError:  # a missing key, named here, not as an __init__ argument
        if missing := [f.name for f in dataclasses.fields(cls) if f.name not in values
                       and f.default is f.default_factory is dataclasses.MISSING]:
            raise DecodeError(f"missing key {', '.join(map(repr, missing))}") from None
        raise


def _list(origin, item, value):
    if type(value) is not list:
        raise _Mismatch
    try:
        return origin(map(item, value))
    except (TypeError, ValueError):  # read the items again, to find the one at fault
        for position, element in enumerate(value):
            try:
                item(element)
            except (TypeError, ValueError) as exc:
                raise _within(f"[{position}]", exc) from None
        raise


@functools.cache  # one reader per type, built once: every script load decodes each entry
def _reader(hint) -> Callable:
    """A function from a JSON value of type `hint` to its Python value, raising
    _Mismatch on any other: a list stands for a tuple, an object for a
    dataclass and an int for a float; a bool is no number. json.loads gives
    exact types, so an exact-type test suffices."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        fields = {f.name: (_reader(hints[f.name]), f.type) for f in dataclasses.fields(hint)}
        return functools.partial(_object, hint, fields)
    if origin is types.UnionType:  # X | None, the one union a row holds
        read = _reader(args[0])
        return lambda value: None if value is None else read(value)
    if origin is list or args[-1:] == (...,):  # list[T] and tuple[T, ...]
        return functools.partial(_list, origin, _reader(args[0]))
    if origin is tuple:
        items = tuple(map(_reader, args))
        return lambda value: (tuple(read(v) for read, v in zip(items, value))
                              if type(value) is list and len(value) == len(items) else _mismatch())
    kinds = {int, float} if hint is float else {hint}
    return lambda value: value if type(value) in kinds else _mismatch()


def decode(cls, row):
    """The dataclass `cls` built from the JSON object `row`, recursing into
    nested dataclasses, list[T], tuple[...] and X | None. An omitted field
    takes its default. An unknown or missing key, or a value of another type
    than its field's, is a DecodeError naming it, and an error inside a
    nested field or a list item names its place."""
    try:
        return _reader(cls)(row)
    except _Mismatch:
        raise DecodeError(f"not a JSON object: {row!r}") from None


def rows(path, data: bytes, decode: Callable, start: int = 0) -> Iterator[tuple[int, object]]:
    """(line number, decode(row)) for each non-blank row of `data[start:]`,
    the bytes of the file at `path`."""
    number = data.count(b"\n", 0, start) + 1
    while start < len(data):
        end = _row_end(data, start)
        if data[start:end].strip():
            yield number, _decode(path, data, start, end, decode)
        start, number = end + 1, number + 1


def find_row(path, data: bytes, needle: bytes, decode: Callable, start: int = 0,
             stop: int | None = None, last: bool = False) -> tuple[object, int, int] | None:
    """The first true decode(row) of a row of `data[start:stop]`, the bytes
    of the file at `path`, with the row's start and end offsets; with
    `last`, the last such row, searched from the end. Only rows holding
    `needle` are decoded, so a needle quoted where `decode` does not look
    is skipped."""
    at = data.rfind(needle, start, stop) if last else data.find(needle, start, stop)
    while at != -1:
        row_start, end = data.rfind(b"\n", 0, at) + 1, _row_end(data, at)
        value = _decode(path, data, row_start, end, decode)
        if value:
            return value, row_start, end
        at = data.rfind(needle, start, row_start) if last else data.find(needle, end, stop)
    return None


def append(path, row) -> None:
    """Append `row`, or an object's attributes, to the file at `path`."""
    with open(path, "a+b") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)  # released when the file closes, after the write
        fh.seek(max(fh.seek(0, io.SEEK_END) - 1, 0))
        if fh.read(1) not in (b"", b"\n"):
            fh.seek(0)
            fh.truncate(fh.read().rfind(b"\n") + 1)
        fh.write((json.dumps(row, ensure_ascii=False, default=vars) + "\n").encode("utf-8"))
