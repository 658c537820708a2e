"""Theorem corpus: extraction from .v trees, splits, persistence.

A TheoremRecord is one theorem-like statement plus its proof block, as
indexes into the sentences of its SourceFile; the sentences before the
statement are its prelude. Each source file is stored once, with the byte
spans of its sentences, so a corpus file grows linearly with the source.
"""

from __future__ import annotations

import bisect
import itertools
import json
import logging
import operator
import random
import re
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import store
from .sentences import (
    NON_PROVING_CLOSERS,
    PROVING_CLOSERS,
    STATEMENT_KEYWORDS,
    LexicalError,
    Sentence,
    leading_words,
    segment_sentences,
)

log = logging.getLogger(__name__)

TRAIN, TEST, EXCLUDED = "train", "test", "excluded"


class CorpusError(Exception):
    pass


class UnknownId(CorpusError):
    pass


@dataclass(frozen=True)
class SourceFile:
    """One ingested .v file: its path under the corpus root, its text, and
    its sentences, which every record of the file shares. A loaded file's
    sentences are built on first use; a slice of them is a tuple."""

    path: str
    text: str
    sentences: Sequence[Sentence]


class _Sentences(Sequence):
    """A loaded file's sentences, each built from its span when first read
    and then kept. Two threads that first read a sentence at once may each
    build it; the copies are equal and either may be kept, which is harmless
    because no caller compares sentences by identity (a walk compares files)."""

    __slots__ = ("_raw", "_bounds", "_built")

    def __init__(self, raw: str | bytes, bounds: list[int]):
        self._raw = raw  # the text, or its UTF-8 bytes when it is not ASCII
        self._bounds = bounds  # where each sentence starts and ends, in turn
        self._built: list[Sentence | None] = [None] * (len(bounds) // 2)

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self._get, range(*index.indices(len(self._built)))))
        return self._get(range(len(self._built))[index])

    def __eq__(self, other):
        if isinstance(other, (tuple, _Sentences)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def _get(self, i: int) -> Sentence:
        return self._built[i] or self._build(i)

    def _build(self, i: int) -> Sentence:
        span = start, end = self._bounds[2 * i], self._bounds[2 * i + 1]
        text = self._raw[start:end]
        if isinstance(text, bytes):  # load checked that no span splits a character
            text = text.decode("utf-8")
        sentence = self._built[i] = Sentence(text, span)
        return sentence


@dataclass(frozen=True)
class TheoremRecord:
    """The statement at `statement_index` of its source's sentences and the
    proof block after it, which ends before `proof_end`."""

    id: str
    name: str
    source: SourceFile = field(repr=False)
    statement_index: int
    proof_end: int
    index_in_file: int

    @property
    def file(self) -> str:
        return self.source.path

    @property
    def statement(self) -> Sentence:
        return self.source.sentences[self.statement_index]

    @property
    def proof(self) -> tuple[Sentence, ...]:
        return self.source.sentences[self.statement_index + 1 : self.proof_end]

    @property
    def prelude(self) -> tuple[Sentence, ...]:
        """The file's sentences before the statement."""
        return self.source.sentences[: self.statement_index]

    @property
    def proof_text(self) -> str:
        return " ".join(s.text for s in self.proof)

    @property
    def statement_text(self) -> str:
        return self.statement.text


@dataclass
class Corpus:
    """Records with their split labels (none: excluded). The lookups are built
    together on first use (two threads that race to it build equal copies):
    neither `records` nor `split_labels` may change after construction, and
    callers must not change the lists the lookups return."""

    records: list[TheoremRecord]
    root: str
    split_labels: dict[str, str] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    _by_id: dict[str, TheoremRecord] = field(init=False, compare=False, repr=False)
    _by_label: dict[str, list[TheoremRecord]] = field(init=False, compare=False, repr=False)
    _by_file: dict[str, list[TheoremRecord]] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for record in self.records:
            self.split_labels.setdefault(record.id, EXCLUDED)

    def __getattr__(self, name: str):  # so `ingest_project`'s corpus is never grouped
        if name not in ("_by_id", "_by_label", "_by_file"):
            raise AttributeError(name)
        by_id, by_label, by_file = {}, {}, {}
        for record in self.records:
            by_id.setdefault(record.id, record)
            by_label.setdefault(self.split_labels[record.id], []).append(record)
            by_file.setdefault(record.file, []).append(record)
        for same_file in by_file.values():
            same_file.sort(key=_IN_FILE_ORDER)
        self._by_id, self._by_label, self._by_file = by_id, by_label, by_file
        return getattr(self, name)

    def by_id(self, record_id: str) -> TheoremRecord:
        try:
            return self._by_id[record_id]
        except KeyError:
            raise UnknownId(record_id) from None

    def with_label(self, label: str) -> list[TheoremRecord]:
        return self._by_label.get(label, [])

    @property
    def train(self) -> list[TheoremRecord]:
        return self.with_label(TRAIN)

    @property
    def test(self) -> list[TheoremRecord]:
        return self.with_label(TEST)


_IN_FILE_ORDER = operator.attrgetter("index_in_file")


def _opens_obligation(word: str | None, after: str | None) -> bool:
    """Whether a sentence whose leading words are `word` and `after` starts
    with `Next Obligation`, `Obligation` or `Program`."""
    if word == "Next":
        return after is not None and after.startswith("Obligation")
    return word == "Obligation" or word == "Program"


def _extract_records(source: SourceFile) -> tuple[list[TheoremRecord], dict[str, str], list[str]]:
    """The file's records, their labels (train, or excluded when the proof is
    Admitted/Abort'ed) and the warnings. Each sentence's leading word is read once."""
    rel, sentences = source.path, source.sentences
    heads = leading_words(sentence.text for sentence in sentences)
    records: list[TheoremRecord] = []
    labels: dict[str, str] = {}
    warnings: list[str] = []
    seen_names: dict[str, int] = {}
    index = 0
    i = 0
    while i < len(heads):
        word, after = heads[i]
        if _opens_obligation(word, after):
            warnings.append(f"{rel}: skipped Program/Obligation block at byte {sentences[i].span[0]}")
            i += 1
            continue
        if word not in STATEMENT_KEYWORDS:
            i += 1
            continue
        name = after or f"anon_{index}"
        depth = 1
        j = i + 1
        while j < len(heads) and depth > 0:
            step = heads[j][0]
            if step in STATEMENT_KEYWORDS:
                depth += 1
            elif step in PROVING_CLOSERS or step in NON_PROVING_CLOSERS:
                depth -= 1
            j += 1
        if depth > 0:
            warnings.append(f"{rel}: proof of {name} never closed; dropped")
            break
        count = seen_names.get(name, 0)
        seen_names[name] = count + 1
        record_id = f"{rel}::{name}" if count == 0 else f"{rel}::{name}#{count}"
        records.append(
            TheoremRecord(
                id=record_id,
                name=name,
                source=source,
                statement_index=i,
                proof_end=j,
                index_in_file=index,
            )
        )
        # The sentence that closed the proof is its last.
        if heads[j - 1][0] in PROVING_CLOSERS:
            labels[record_id] = TRAIN
        else:
            labels[record_id] = EXCLUDED
            warnings.append(f"{rel}: {name} is Admitted/Abort'ed; excluded from splits")
        index += 1
        i = j
    return records, labels, warnings


def ingest_project(
    root: str | Path,
    follow_subdirs: bool = True,
    exclude_globs: tuple[str, ...] = (),
) -> Corpus:
    """Extract every theorem plus proof block from the .v files under root.

    Admitted/Abort proofs are kept but labeled excluded. Files that fail to
    segment are skipped with a warning record.
    """
    root = Path(root)
    pattern = "**/*.v" if follow_subdirs else "*.v"
    files = sorted(p for p in root.glob(pattern) if p.is_file())
    files = [
        p
        for p in files
        if not any(p.relative_to(root).match(glob) for glob in exclude_globs)
    ]
    if not files:
        raise CorpusError(f"no .v files under {root}")

    records: list[TheoremRecord] = []
    warnings: list[str] = []
    labels: dict[str, str] = {}
    for path in files:
        rel = path.relative_to(root).as_posix()
        text = path.read_text(encoding="utf-8")
        try:
            source = SourceFile(rel, text, tuple(segment_sentences(text)))
        except LexicalError as exc:
            warnings.append(f"{rel}: segmentation failed at byte {exc.offset}; file skipped")
            log.warning("skipping %s: %s", rel, exc)
            continue
        file_records, file_labels, file_warnings = _extract_records(source)
        records.extend(file_records)
        labels.update(file_labels)
        warnings.extend(file_warnings)
    return Corpus(records, str(root), labels, warnings)


def split_corpus(
    corpus: Corpus,
    policy: str = "by_index",
    seed: int = 0,
    test_fraction: float = 0.3,
    explicit_test_ids: tuple[str, ...] = (),
) -> Corpus:
    """Assign train/test labels; excluded records stay excluded.

    Deterministic for a fixed seed. |test| = round(test_fraction * eligible),
    clamped so both sides keep at least one record.
    """
    if not 0 < test_fraction < 1 and policy != "explicit":
        raise ValueError("test_fraction must lie in (0, 1)")
    eligible = [r for r in corpus.records if corpus.split_labels[r.id] != EXCLUDED]
    if len(eligible) < 2:
        raise CorpusError(f"{len(eligible)} eligible records; need at least 2")

    labels = dict(corpus.split_labels)
    if policy == "explicit":
        wanted = set(explicit_test_ids)
        unknown = wanted - {r.id for r in eligible}
        if unknown:
            raise UnknownId(f"explicit test ids not in corpus: {sorted(unknown)}")
        for record in eligible:
            labels[record.id] = TEST if record.id in wanted else TRAIN
        return replace(corpus, split_labels=labels)

    rng = random.Random(seed)
    n_test = min(max(1, round(test_fraction * len(eligible))), len(eligible) - 1)
    if policy == "by_index":
        shuffled = list(eligible)
        rng.shuffle(shuffled)
        test_ids = {r.id for r in shuffled[:n_test]}
    elif policy == "by_file":
        by_file: dict[str, list[TheoremRecord]] = {}
        for record in eligible:
            by_file.setdefault(record.file, []).append(record)
        if len(by_file) < 2:
            raise CorpusError("by_file split needs at least 2 files with eligible records")
        files = sorted(by_file)
        rng.shuffle(files)
        test_ids: set[str] = set()
        for position, name in enumerate(files):
            if len(test_ids) >= n_test or position == len(files) - 1:
                break
            test_ids.update(r.id for r in by_file[name])
    else:
        raise ValueError(f"unknown split policy {policy!r}")

    if not test_ids or len(test_ids) == len(eligible):
        raise CorpusError("split left one side empty")
    for record in eligible:
        labels[record.id] = TEST if record.id in test_ids else TRAIN
    return replace(corpus, split_labels=labels)


def preceding_lemmas(corpus: Corpus, record_id: str, n: int) -> list[tuple[str, str]]:
    """(name, statement text) of up to n records from the same file before
    the target, nearest last."""
    target = corpus.by_id(record_id)
    if n <= 0:
        return []
    same_file = corpus._by_file[target.file]  # in index_in_file order
    end = bisect.bisect_left(same_file, target.index_in_file, key=_IN_FILE_ORDER)
    return [(r.name, r.statement_text) for r in same_file[max(0, end - n) : end]]


# ---------------------------------------------------------------------------
# Persistence: JSON Lines. A header line, then one row per source file of its
# path, text, sentence byte spans and records. Each span is written as the
# bytes skipped since the sentence before and the sentence's length, so a row
# grows linearly with its text. Each record is written as [id, name,
# index_in_file, statement_index, proof_end, split], in index_in_file order.
# ---------------------------------------------------------------------------

_FORMAT = "coqharness-corpus/3"


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    labels = corpus.split_labels
    lines = [json.dumps({"format": _FORMAT, "root": corpus.root}, ensure_ascii=False)]
    for records in corpus._by_file.values():  # in index_in_file order
        source = records[0].source
        spans, end = [], 0
        for sentence in source.sentences:
            spans += (sentence.span[0] - end, sentence.span[1] - sentence.span[0])
            end = sentence.span[1]
        entries = [[r.id, r.name, r.index_in_file, r.statement_index, r.proof_end, labels[r.id]]
                   for r in records]
        lines.append(json.dumps({"path": source.path, "text": source.text, "spans": spans,
                                 "records": entries}, ensure_ascii=False))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


_FILE_FIELDS = {"path", "text", "spans", "records"}
_RECORD_TYPES = (str, str, int, int, int, str)
_CONTINUATION_BYTE = re.compile(rb"[\x80-\xbf]")


def _source_from_row(row) -> SourceFile:
    """A file row's SourceFile, whose sentences are built on first use;
    ValueError when malformed. Every span is checked here, at load."""
    if not isinstance(row, dict):
        raise ValueError("not a JSON object")
    missing = _FILE_FIELDS - set(row)
    if missing:
        raise ValueError(f"missing fields: {sorted(missing)}")
    path, text = row["path"], row["text"]
    try:
        if not isinstance(path, str):
            raise TypeError("its path is not a string")
        spans = array("q", row["spans"])  # a TypeError unless every span is an integer
        # Where each sentence starts and ends; ASCII text indexes its characters as its bytes.
        bounds = list(itertools.accumulate(spans))
        raw = text if text.isascii() else text.encode("utf-8")
        if len(spans) % 2 or min(spans, default=0) < 0 or 0 in spans[1::2] \
                or bounds and bounds[-1] > len(raw):
            raise ValueError("its spans do not fit its text")
        # The byte at each bound, or a space at the end, must begin a character.
        if raw is not text and _CONTINUATION_BYTE.search(
                bytes(map((raw + b" ").__getitem__, bounds))):
            raise ValueError("a span splits a UTF-8 character")
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed file row: {exc}") from None
    return SourceFile(path, text, _Sentences(raw, bounds))


def _file_from_row(row) -> tuple[SourceFile, list[tuple[TheoremRecord, str]]]:
    """A file row's SourceFile and its records, each with its split label;
    ValueError, naming the record's position in the row, when malformed."""
    source = _source_from_row(row)
    entries = row["records"]
    if not isinstance(entries, list):
        raise ValueError("malformed file row: its records are not a list")
    n_sentences = len(source.sentences)
    records = []
    for position, entry in enumerate(entries, start=1):
        if not isinstance(entry, list) or tuple(map(type, entry)) != _RECORD_TYPES:
            raise ValueError(f"record {position}: malformed record: expected "
                             "[id, name, index_in_file, statement_index, proof_end, split]")
        record_id, name, index, statement, end, split = entry
        if not 0 <= statement < end - 1 < n_sentences:
            raise ValueError(f"record {position}: sentences {statement}..{end} outside the file")
        records.append((TheoremRecord(record_id, name, source, statement, end, index), split))
    return source, records


def _read(path: str | Path) -> tuple[bytes, str, int]:
    """A corpus file's bytes, the root its header names and where its second
    line starts; RowError unless its first line is a header of this format."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CorpusError(f"cannot read corpus {path}: {exc.strerror or exc}") from exc
    line = data.partition(b"\n")[0]
    header = dict(store.rows(path, line, lambda row: row)).get(1)  # None when blank
    found = header.get("format") if isinstance(header, dict) else None
    if found != _FORMAT:
        raise store.RowError(
            path, 1, f"corpus format {found!r}, expected {_FORMAT!r}: re-run ingest to rewrite it"
        )
    return data, header.get("root", ""), len(line) + 1


def load_corpus(path: str | Path) -> Corpus:
    """The corpus in a JSON Lines file. Of rows sharing a path the first is
    kept. Of records sharing an id the first is kept, record and split. Each
    later one is dropped with a warning."""
    records: list[TheoremRecord] = []
    labels: dict[str, str] = {}
    warnings: list[str] = []
    paths: set[str] = set()
    data, root, body = _read(path)
    for line_number, (source, file_records) in store.rows(path, data, _file_from_row, body):
        if source.path in paths:
            warnings.append(f"line {line_number}: dropped a second row for {source.path!r}")
            log.warning("%s: %s", path, warnings[-1])
            continue
        paths.add(source.path)
        for position, (record, split) in enumerate(file_records, start=1):
            if record.id in labels:
                warnings.append(f"line {line_number}, record {position}: "
                                f"dropped a second record with id {record.id!r}")
                log.warning("%s: %s", path, warnings[-1])
                continue
            records.append(record)
            labels[record.id] = split
    return Corpus(records, root, labels, warnings)


def _json_needle(value: str) -> bytes:
    return json.dumps(value, ensure_ascii=False).encode()


# A line whose first non-blank byte cannot open a JSON object.
_NON_OBJECT_ROW = re.compile(rb"\n[ \t\r\f\v]*[^{\s]")


def load_record(path: str | Path, record_id: str) -> Corpus | None:
    """A Corpus of the record with id `record_id`, from the first file row
    that has it: the rows holding the JSON-quoted id, found by byte search,
    are decoded in turn. It fails as load_corpus does on a bad header, a
    non-object row or a malformed row that it decodes, and skips a row whose
    path an earlier row has, as load_corpus drops it. None when no row has
    the id, for load_corpus to look the name up."""
    data, root, body = _read(path)
    stray = _NON_OBJECT_ROW.search(data)
    if stray is not None:
        raise store.RowError(path, data.count(b"\n", 0, stray.end()) + 1, "not a JSON object")

    def holds_id(row: dict):
        """The row's file and records when one of them has the id."""
        file_row = _file_from_row(row)
        return any(record.id == record_id for record, _ in file_row[1]) and file_row

    def path_before(path_: str, stop: int) -> bool:
        """Whether a file row before offset `stop` has `path_`."""
        return store.find_row(path, data, _json_needle(path_),
                              lambda row: row.get("path") == path_, body, stop) is not None

    at = body
    while (found := store.find_row(path, data, _json_needle(record_id), holds_id, at)) is not None:
        (source, file_records), start, at = found
        if not path_before(source.path, start):
            record, split = next(pair for pair in file_records if pair[0].id == record_id)
            return Corpus([record], root, {record.id: split})
    return None
