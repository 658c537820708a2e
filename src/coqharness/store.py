"""Content hashes and JSON Lines files, each read and appended here.

`content_hash` is the one hash: SHA-256 over canonical JSON, spelled as the
transcript keys always were. `check_fields` holds a row's or a manifest
entry's values to the types of a dataclass's fields. A row that cannot be
read raises RowError, naming its path and line. In an appended file, a
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
import types
import typing
from collections.abc import Callable, Iterator

log = logging.getLogger(__name__)


class RowError(ValueError):
    """A row that cannot be read, named by its file and line."""

    def __init__(self, path, line_number: int, detail):
        super().__init__(f"bad row {path}:{line_number}: {detail}")
        self.path, self.line_number, self.detail = path, line_number, str(detail)


def content_hash(value) -> str:
    canonical = json.dumps(value, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@functools.cache  # once per file and line
def _warn_interrupted(path: str, line_number: int) -> None:
    log.warning("%s:%d: ignored a final row with no newline (an interrupted append)",
                path, line_number)


def read(path) -> bytes:
    """An appended file's complete rows: its bytes up to its last newline."""
    with open(path, "rb") as fh:
        fcntl.flock(fh, fcntl.LOCK_SH)  # so that no append is halfway through
        data = fh.read()
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


_type_hints = functools.cache(typing.get_type_hints)  # it evaluates every annotation per call


def of_type(value, hint) -> bool:
    """Whether a JSON value has the type a field is annotated with: a bool is
    no number, a list stands for a tuple, an object for a dataclass."""
    if isinstance(hint, types.UnionType):
        return any(of_type(value, arm) for arm in typing.get_args(hint))
    origin, arms = typing.get_origin(hint), typing.get_args(hint)
    if origin in (list, tuple):  # list[T] and tuple[T, ...] hold any number of items
        if isinstance(value, list) and (origin is list or arms[-1] is Ellipsis):
            arms = arms[:1] * len(value)
        return isinstance(value, list) and len(value) == len(arms) and all(map(of_type, value, arms))
    if hint is bool or isinstance(value, bool):
        return hint is bool and isinstance(value, bool)
    json_type = (int, float) if hint is float else dict if dataclasses.is_dataclass(hint) else hint
    return isinstance(value, json_type)


def check_fields(cls, given: dict) -> None:
    """Raise a TypeError naming the first field of dataclass `cls` whose
    value in `given` is not of the field's type."""
    for f in dataclasses.fields(cls):
        if f.name in given and not of_type(given[f.name], _type_hints(cls)[f.name]):
            raise TypeError(f"{f.name} must be {f.type}, not {given[f.name]!r}")


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
             stop: int | None = None) -> tuple[object, int, int] | None:
    """The first true decode(row) of a row of `data[start:stop]`, the bytes
    of the file at `path`, with the row's start and end offsets. Only rows
    holding `needle` are decoded, so a needle quoted where `decode` does not
    look is skipped."""
    at = data.find(needle, start, stop)
    while at != -1:
        start, end = data.rfind(b"\n", 0, at) + 1, _row_end(data, at)
        value = _decode(path, data, start, end, decode)
        if value:
            return value, start, end
        at = data.find(needle, end, stop)
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
