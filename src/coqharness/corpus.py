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
from dataclasses import dataclass, field, replace
from pathlib import Path

from .sentences import (
    LexicalError,
    Sentence,
    is_closing,
    is_statement,
    segment_sentences,
    statement_name,
)

log = logging.getLogger(__name__)

TRAIN, TEST, EXCLUDED = "train", "test", "excluded"

_OBLIGATION_RE = re.compile(r"^\s*(?:Next\s+Obligation|Obligation\b|Program\b)")


class CorpusError(Exception):
    pass


class NoSourcesFound(CorpusError):
    pass


class TooFewRecords(CorpusError):
    pass


class UnknownId(CorpusError):
    pass


class SchemaViolation(CorpusError):
    def __init__(self, line_number: int, detail: str):
        super().__init__(f"line {line_number}: {detail}")
        self.line_number = line_number
        self.detail = detail


@dataclass(frozen=True)
class SourceFile:
    """One ingested .v file: its path under the corpus root, its text, and
    its sentences, which every record of the file shares."""

    path: str
    text: str
    sentences: tuple[Sentence, ...]


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
    """Records with their split labels. The lookups are built once, at
    construction: neither `records` nor `split_labels` may change after it,
    and callers must not change the lists the lookups return."""

    records: list[TheoremRecord]
    root: str
    split_labels: dict[str, str] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    _by_id: dict[str, TheoremRecord] = field(init=False, compare=False, repr=False)
    _by_label: dict[str, list[TheoremRecord]] = field(init=False, compare=False, repr=False)
    _by_file: dict[str, list[TheoremRecord]] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self._by_id, self._by_label, self._by_file = {}, {}, {}
        for record in self.records:
            label = self.split_labels.setdefault(record.id, EXCLUDED)
            self._by_id.setdefault(record.id, record)
            self._by_label.setdefault(label, []).append(record)
            self._by_file.setdefault(record.file, []).append(record)
        for same_file in self._by_file.values():
            same_file.sort(key=_IN_FILE_ORDER)

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


def _extract_records(source: SourceFile) -> tuple[list[TheoremRecord], list[str]]:
    rel, sentences = source.path, source.sentences
    records: list[TheoremRecord] = []
    warnings: list[str] = []
    seen_names: dict[str, int] = {}
    index = 0
    i = 0
    while i < len(sentences):
        sentence = sentences[i]
        if _OBLIGATION_RE.match(sentence.text):
            warnings.append(f"{rel}: skipped Program/Obligation block at byte {sentence.span[0]}")
            i += 1
            continue
        if not is_statement(sentence):
            i += 1
            continue
        name = statement_name(sentence) or f"anon_{index}"
        depth = 1
        j = i + 1
        excluded = False
        while j < len(sentences) and depth > 0:
            step = sentences[j]
            if is_statement(step):
                depth += 1
            elif is_closing(step):
                depth -= 1
                if depth == 0 and not is_closing(step, proving_only=True):
                    excluded = True
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
        if excluded:
            warnings.append(f"{rel}: {name} is Admitted/Abort'ed; excluded from splits")
        index += 1
        i = j
    return records, warnings


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
        raise NoSourcesFound(f"no .v files under {root}")

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
        file_records, file_warnings = _extract_records(source)
        for record in file_records:
            proof_ok = record.proof and is_closing(record.proof[-1], proving_only=True)
            labels[record.id] = EXCLUDED if not proof_ok else TRAIN
        records.extend(file_records)
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
        raise TooFewRecords(f"{len(eligible)} eligible records; need at least 2")

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
            raise TooFewRecords("by_file split needs at least 2 files with eligible records")
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
        raise TooFewRecords("split left one side empty")
    for record in eligible:
        labels[record.id] = TEST if record.id in test_ids else TRAIN
    return replace(corpus, split_labels=labels)


def preceding_lemmas(
    corpus: Corpus, record_id: str, n: int
) -> list[tuple[str, Sentence, tuple[Sentence, ...]]]:
    """Up to n records from the same file before the target, nearest last."""
    target = corpus.by_id(record_id)
    if n <= 0:
        return []
    same_file = corpus._by_file[target.file]  # in index_in_file order
    end = bisect.bisect_left(same_file, target.index_in_file, key=_IN_FILE_ORDER)
    return [(r.name, r.statement, r.proof) for r in same_file[max(0, end - n) : end]]


# ---------------------------------------------------------------------------
# Persistence: JSON Lines. A header line, then per source file one row of its
# path, text and sentence byte spans, followed by the rows of its records.
# Each span is written as the bytes skipped since the sentence before and the
# sentence's length, so a row grows linearly with its text.
# ---------------------------------------------------------------------------

_FORMAT = "coqharness-corpus/2"


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    rows: list[dict] = [{"format": _FORMAT, "root": corpus.root}]
    written: set[str] = set()
    for record in corpus.records:
        source = record.source
        if source.path not in written:
            written.add(source.path)
            spans, end = [], 0
            for sentence in source.sentences:
                spans += (sentence.span[0] - end, sentence.span[1] - sentence.span[0])
                end = sentence.span[1]
            rows.append({"path": source.path, "text": source.text, "spans": spans})
        rows.append({"id": record.id, "name": record.name, "file": source.path,
                     "index_in_file": record.index_in_file,
                     "statement_index": record.statement_index, "proof_end": record.proof_end,
                     "split": corpus.split_labels[record.id]})
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)


_FILE_FIELDS = {"path", "text", "spans"}
_RECORD_FIELDS = {"id", "name", "file", "index_in_file", "statement_index", "proof_end", "split"}


def _missing(row, wanted: set[str], line_number: int) -> None:
    if not isinstance(row, dict):
        raise SchemaViolation(line_number, "not a JSON object")
    missing = wanted - set(row)
    if missing:
        raise SchemaViolation(line_number, f"missing fields: {sorted(missing)}")


def _source_from_row(row: dict, line_number: int) -> SourceFile:
    """A file row as a SourceFile; SchemaViolation when malformed."""
    _missing(row, _FILE_FIELDS, line_number)
    path, text, spans = row["path"], row["text"], row["spans"]
    try:
        # Where each sentence starts and ends; ASCII text indexes its characters as its bytes.
        bounds = list(itertools.accumulate(spans, initial=0))[1:]
        raw = text if text.isascii() else text.encode("utf-8")
        if not isinstance(path, str):
            raise TypeError("its path is not a string")
        if len(spans) % 2 or min(spans, default=0) < 0 or 0 in spans[1::2] \
                or bounds and bounds[-1] > len(raw):
            raise ValueError("its spans do not fit its text")
        at = list(zip(bounds[::2], bounds[1::2]))
        texts = [raw[a:b] for a, b in at]
        if raw is not text:
            texts = [piece.decode("utf-8") for piece in texts]
        sentences = tuple(map(Sentence, texts, at))
    except (AttributeError, TypeError, ValueError) as exc:
        raise SchemaViolation(line_number, f"malformed file row: {exc}") from None
    return SourceFile(path, text, sentences)


def _record_from_row(
    row: dict, line_number: int, sources: dict[str, SourceFile]
) -> tuple[TheoremRecord, str]:
    """A record row as (record, split label); SchemaViolation when malformed
    or when `sources` lacks its file."""
    _missing(row, _RECORD_FIELDS, line_number)
    try:
        source = sources.get(row["file"])
        if source is None:
            raise SchemaViolation(line_number, f"no file row for {row['file']!r}")
        statement, end = row["statement_index"], row["proof_end"]
        if not 0 <= statement < end - 1 < len(source.sentences):
            raise SchemaViolation(line_number, f"sentences {statement}..{end} outside the file")
        record = TheoremRecord(row["id"], row["name"], source, statement, end,
                               operator.index(row["index_in_file"]))
    except TypeError as exc:
        raise SchemaViolation(line_number, f"malformed record: {exc}") from None
    return record, row["split"]


def _check_format(header) -> None:
    found = header.get("format") if isinstance(header, dict) else None
    if found != _FORMAT:
        raise SchemaViolation(
            1, f"corpus format {found!r}, expected {_FORMAT!r}: re-run ingest to rewrite it"
        )


def _unreadable(path: str | Path, exc: OSError) -> CorpusError:
    return CorpusError(f"cannot read corpus {path}: {exc.strerror or exc}")


def load_corpus(path: str | Path) -> Corpus:
    """The corpus in a JSON Lines file. A record row follows its file's row.
    Of file rows sharing a path the first is kept. Of record rows sharing an
    id the first is kept, record and split; each later one is dropped with a
    warning."""
    records: list[TheoremRecord] = []
    labels: dict[str, str] = {}
    warnings: list[str] = []
    sources: dict[str, SourceFile] = {}
    root = ""
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise _unreadable(path, exc) from exc
    with fh:
        for line_number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaViolation(line_number, f"invalid JSON: {exc.msg}") from None
            if line_number == 1:
                _check_format(row)
                root = row.get("root", "")
            elif "path" in row:
                source = _source_from_row(row, line_number)
                sources.setdefault(source.path, source)
            else:
                record, split = _record_from_row(row, line_number, sources)
                if record.id in labels:
                    warnings.append(f"line {line_number}: dropped a second row with id {record.id!r}")
                    log.warning("%s: %s", path, warnings[-1])
                    continue
                records.append(record)
                labels[record.id] = split
    return Corpus(records, root, labels, warnings)


def find_row(data: bytes, needle: bytes, key: str, value: str) -> tuple[dict, int] | None:
    """The first JSON Lines row of `data` whose `key` is `value`, and its offset. Only
    rows holding `needle` are decoded, so a needle quoted in another row is skipped."""
    at = data.find(needle)
    while at != -1:
        start = data.rfind(b"\n", 0, at) + 1
        end = data.find(b"\n", at)
        if end == -1:
            end = len(data)
        row = json.loads(data[start:end])
        if isinstance(row, dict) and row.get(key) == value:
            return row, start
        at = data.find(needle, end)
    return None


def load_record(path: str | Path, record_id: str) -> Corpus | None:
    """A Corpus of the record with id `record_id`, its row and then its file's
    row found by byte search; None when no row has that id or the header is
    bad, for load_corpus to look the name up or report."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise _unreadable(path, exc) from exc
    def search(key: str, value) -> tuple[dict, int] | None:
        needle = json.dumps(value, ensure_ascii=False).encode()
        return find_row(data, needle, key, value) if isinstance(value, str) else None

    try:
        header = json.loads(data[: data.find(b"\n")].decode("utf-8"))
        _check_format(header)
        found = search("id", record_id)
        file_row = search("path", found[0].get("file")) if found else None
    except (ValueError, SchemaViolation):  # invalid JSON or UTF-8, or a bad header
        return None
    if found is None:
        return None
    sources = {}
    if file_row is not None:
        source = _source_from_row(file_row[0], data.count(b"\n", 0, file_row[1]) + 1)
        sources[source.path] = source
    record, split = _record_from_row(found[0], data.count(b"\n", 0, found[1]) + 1, sources)
    return Corpus([record], header.get("root", ""), {record.id: split})
