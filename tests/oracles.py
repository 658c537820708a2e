"""Independent reference implementations used only by tests.

These deliberately share no code with the package: the segmentation oracle
is a flat character automaton with explicit state labels, the cosine
oracle is a straight-line transcription of the formula, and the cache
oracle scans a shard's decoded lines one by one.
"""

from __future__ import annotations

import json
import math
from pathlib import Path


class OracleLexicalError(ValueError):
    def __init__(self, kind: str, char_offset: int):
        super().__init__(f"{kind} at char {char_offset}")
        self.kind = kind
        self.char_offset = char_offset


def oracle_segment(source: str) -> list[tuple[str, int, int]]:
    """Character automaton over the vernacular lexical rules.

    Returns (text, byte_start, byte_end) triples. States: gap, gap_comment,
    sent, sent_comment, sent_string.
    """
    out: list[tuple[str, int, int]] = []
    n = len(source)

    def byte_at(char_index: int) -> int:
        return len(source[:char_index].encode("utf-8"))

    def emit(a: int, b: int) -> None:
        out.append((source[a:b], byte_at(a), byte_at(b)))

    state = "gap"
    depth = 0
    start = 0
    construct_start = 0
    i = 0
    while i < n:
        c = source[i]
        nxt = source[i + 1] if i + 1 < n else ""
        if state == "gap":
            if c.isspace():
                i += 1
            elif c == "(" and nxt == "*":
                state, depth, construct_start = "gap_comment", 1, i
                i += 2
            elif c in "{}":
                emit(i, i + 1)
                i += 1
            elif c in "-+*":
                j = i
                while j < n and source[j] == c:
                    j += 1
                emit(i, j)
                i = j
            else:
                state, start = "sent", i
        elif state == "gap_comment":
            if c == "(" and nxt == "*":
                depth += 1
                i += 2
            elif c == "*" and nxt == ")":
                depth -= 1
                i += 2
                if depth == 0:
                    state = "gap"
            else:
                i += 1
        elif state == "sent":
            if c == '"':
                state, construct_start = "sent_string", i
                i += 1
            elif c == "(" and nxt == "*":
                state, depth, construct_start = "sent_comment", 1, i
                i += 2
            elif c == "." and (i + 1 >= n or source[i + 1].isspace()):
                emit(start, i + 1)
                state = "gap"
                i += 1
            else:
                i += 1
        elif state == "sent_comment":
            if c == "(" and nxt == "*":
                depth += 1
                i += 2
            elif c == "*" and nxt == ")":
                depth -= 1
                i += 2
                if depth == 0:
                    state = "sent"
            else:
                i += 1
        elif state == "sent_string":
            if c == '"':
                if nxt == '"':
                    i += 2
                else:
                    state = "sent"
                    i += 1
            else:
                i += 1

    if state in ("gap_comment", "sent_comment"):
        raise OracleLexicalError("comment", construct_start)
    if state == "sent_string":
        raise OracleLexicalError("string", construct_start)
    if state == "sent":
        raise OracleLexicalError("sentence", start)
    return out


def oracle_cosine(u, v) -> float:
    nu = math.sqrt(sum(x * x for x in u))
    nv = math.sqrt(sum(x * x for x in v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return sum(x * y for x, y in zip(u, v)) / (nu * nv)


def oracle_cache_lookup(shard: Path, key: str) -> dict | None:
    """Newest row of a transcript-cache shard whose prompt_hash is `key`,
    found by decoding the shard as text and testing each line. A final line
    with no newline is an interrupted append, never a row."""
    if not shard.exists():
        return None
    newest = None
    with open(shard, encoding="utf-8") as fh:
        for line in fh:
            if key not in line or not line.endswith("\n"):  # not this key's row; skip parsing it
                continue
            row = json.loads(line)
            if row["prompt_hash"] == key:
                newest = row
    return newest
