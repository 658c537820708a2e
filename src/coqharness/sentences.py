"""Splitting Coq vernacular source into sentences.

A sentence ends at a ``.`` that is followed by whitespace or end of input.
Periods inside string literals, inside (possibly nested) ``(* .. *)``
comments, and inside qualified identifiers such as ``Mod.t`` do not
terminate. Goal-selector bullets (``-``, ``+``, ``*``, repeated) and the
focus braces ``{`` / ``}`` are emitted as single sentences when they occur
where a new sentence could start, even though they carry no period.

Spans are byte offsets into the UTF-8 encoding of the source. Text between
consecutive sentences consists only of whitespace and comments, so joining
sentence texts with the skipped regions reproduces the source exactly.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass


class LexicalError(Exception):
    """Segmentation failure; `offset` is a byte offset into the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Sentence:
    """One vernacular command, terminator included."""

    text: str
    span: tuple[int, int]


STATEMENT_KEYWORDS = ("Lemma", "Theorem", "Fact", "Remark", "Corollary", "Proposition")

# Qed./Defined. register a finished proof; Admitted./Abort. close one without.
PROVING_CLOSERS = ("Qed", "Defined")
NON_PROVING_CLOSERS = ("Admitted", "Abort")


# A Coq identifier: a letter or underscore, then letters, digits, _ and '.
IDENT = r"[^\W\d][\w']*"

# A sentence's leading word and, when an identifier follows it, that
# identifier: the name a statement binds.
_LEADING_WORD = re.compile(rf"\s*([A-Za-z]+)\b(?:\s+({IDENT}))?")


_NO_WORD = (None, None)


def normalize_space(text: str) -> str:
    """`text` with each run of whitespace one space, and none at either end."""
    return " ".join(text.split())


def leading_word(sentence: Sentence | str) -> tuple[str | None, str | None]:
    """The sentence's leading word and the identifier after it, each None when absent."""
    text = sentence.text if isinstance(sentence, Sentence) else sentence
    m = _LEADING_WORD.match(text)
    return m.groups() if m else _NO_WORD


def leading_words(texts: Iterable[str]) -> list[tuple[str | None, str | None]]:
    """`leading_word` of each text."""
    return [m.groups() if m else _NO_WORD for m in map(_LEADING_WORD.match, texts)]


def is_statement(sentence: Sentence | str) -> bool:
    return leading_word(sentence)[0] in STATEMENT_KEYWORDS


def is_closing(sentence: Sentence | str, proving_only: bool = False) -> bool:
    word = leading_word(sentence)[0]
    return word in PROVING_CLOSERS or not proving_only and word in NON_PROVING_CLOSERS


def opens_proof(sentence: Sentence | str) -> bool:
    """Whether the sentence is `Proof.` or `Proof using …`, whitespace normalised."""
    text = normalize_space(sentence.text if isinstance(sentence, Sentence) else sentence)
    return text == "Proof." or text.startswith("Proof using")


def statement_name(statement: Sentence | str) -> str | None:
    """Name bound by a theorem-like statement, or None."""
    word, name = leading_word(statement)
    return name if word in STATEMENT_KEYWORDS else None


def _byte_offsets(source: str) -> Sequence[int]:
    """UTF-8 byte offset of each character index of `source`, and of its end."""
    if source.isascii():
        return range(len(source) + 1)
    return list(itertools.accumulate(map(len, map(str.encode, source)), initial=0))


# Whitespace between sentences (`\s` on str patterns is str.isspace), what
# can end or suspend a sentence, and the marks that nest comments.
_SPACE_RUN = re.compile(r"\s*")
_SENTENCE_MARK = re.compile(r'"|\(\*|\.')
_COMMENT_MARK = re.compile(r"\(\*|\*\)")


def _skip_string(source: str, i: int) -> int:
    """Advance past the string literal opening at `i`. Quotes escape by doubling."""
    j = i + 1
    while True:
        j = source.find('"', j)
        if j == -1:
            raise _Unterminated("string literal", i)
        if not source.startswith('"', j + 1):
            return j + 1
        j += 2


def _skip_comment(source: str, i: int) -> int:
    """Advance past the (possibly nested) comment opening at `i`."""
    depth = 0
    for mark in _COMMENT_MARK.finditer(source, i):
        depth += 1 if mark.group() == "(*" else -1
        if depth == 0:
            return mark.end()
    raise _Unterminated("comment", i)


class _Unterminated(Exception):
    def __init__(self, kind: str, char_offset: int):
        self.kind = kind
        self.char_offset = char_offset


def segment_sentences(source: str) -> list[Sentence]:
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
        while True:
            # Between sentences: whitespace and comments are skipped regions.
            i = _SPACE_RUN.match(source, i).end()
            if i == n:
                break
            ch = source[i]
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
            # A regular sentence: jump from mark to mark up to its terminating period.
            start = i
            while True:
                mark = _SENTENCE_MARK.search(source, i)
                if mark is None:
                    raise _Unterminated("sentence", start)
                i = mark.start()
                if source[i] == '"':
                    i = _skip_string(source, i)
                elif source[i] == "(":
                    i = _skip_comment(source, i)
                elif i + 1 == n or source[i + 1].isspace():
                    emit(start, i + 1)
                    i += 1
                    break
                else:
                    i += 1
    except _Unterminated as exc:
        raise LexicalError(f"unterminated {exc.kind}", offsets[exc.char_offset]) from None

    return sentences

