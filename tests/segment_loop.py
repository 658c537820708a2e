"""The per-character segmenter that `coqharness.sentences.segment_sentences`
replaced, kept as a reference for the parity tests. It returns the same
Sentence objects and raises LexicalError with the same messages at the same
byte offsets.
"""

from __future__ import annotations

from collections.abc import Sequence

from coqharness.sentences import LexicalError, Sentence


def _byte_offsets(source: str) -> Sequence[int]:
    """UTF-8 byte offset of each character index of `source`, and of its end."""
    if source.isascii():
        return range(len(source) + 1)
    offsets = [0]
    total = 0
    for ch in source:
        total += len(ch.encode("utf-8"))
        offsets.append(total)
    return offsets


def _skip_string(source: str, i: int) -> int:
    """Advance past the string literal opening at `i`. Quotes escape by doubling."""
    start = i
    i += 1
    n = len(source)
    while i < n:
        if source[i] == '"':
            if i + 1 < n and source[i + 1] == '"':
                i += 2
                continue
            return i + 1
        i += 1
    raise _Unterminated("string literal", start)


def _skip_comment(source: str, i: int) -> int:
    """Advance past the (possibly nested) comment opening at `i`."""
    start = i
    depth = 0
    n = len(source)
    while i < n:
        if source.startswith("(*", i):
            depth += 1
            i += 2
        elif source.startswith("*)", i):
            depth -= 1
            i += 2
            if depth == 0:
                return i
        else:
            i += 1
    raise _Unterminated("comment", start)


class _Unterminated(Exception):
    def __init__(self, kind: str, char_offset: int):
        self.kind = kind
        self.char_offset = char_offset


def loop_segment(source: str) -> list[Sentence]:
    """Split `source` into the maximal list of vernacular sentences.

    Raises LexicalError("unterminated comment", "unterminated string
    literal" or "unterminated sentence", with the byte offset of the
    offending construct) when the input ends inside one.
    """
    offsets = _byte_offsets(source)
    sentences: list[Sentence] = []
    n = len(source)
    i = 0

    def emit(start: int, end: int) -> None:
        sentences.append(Sentence(source[start:end], (offsets[start], offsets[end])))

    try:
        while i < n:
            ch = source[i]
            # Between sentences: whitespace and comments are skipped regions.
            if ch.isspace():
                i += 1
                continue
            if source.startswith("(*", i):
                i = _skip_comment(source, i)
                continue
            if ch in "{}":
                emit(i, i + 1)
                i += 1
                continue
            if ch in "-+*":
                j = i
                while j < n and source[j] == ch:
                    j += 1
                emit(i, j)
                i = j
                continue
            # A regular sentence: scan to its terminating period.
            start = i
            while i < n:
                ch = source[i]
                if ch == '"':
                    i = _skip_string(source, i)
                elif source.startswith("(*", i):
                    i = _skip_comment(source, i)
                elif ch == ".":
                    if i + 1 >= n or source[i + 1].isspace():
                        emit(start, i + 1)
                        i += 1
                        break
                    i += 1
                else:
                    i += 1
            else:
                raise _Unterminated("sentence", start)
    except _Unterminated as exc:
        raise LexicalError(f"unterminated {exc.kind}", offsets[exc.char_offset]) from None

    return sentences
