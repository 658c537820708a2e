"""Theorem corpus: extraction from .v trees, splits, persistence.

A TheoremRecord is one theorem-like statement plus its proof block and
everything in the file before it. Records keep raw preceding source so
Section/Variable lines stay visible to prompts exactly as written.
"""

from __future__ import annotations

import json
import logging
import random
import re
from dataclasses import dataclass, field, fields, replace
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
class TheoremRecord:
    id: str
    name: str
    statement: Sentence
    proof: tuple[Sentence, ...]
    file: str
    preceding_source: str
    index_in_file: int

    @property
    def proof_text(self) -> str:
        return " ".join(s.text for s in self.proof)

    @property
    def statement_text(self) -> str:
        return self.statement.text


@dataclass
class Corpus:
    records: list[TheoremRecord]
    root: str
    split_labels: dict[str, str] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    _by_id: dict[str, TheoremRecord] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self._by_id = {}
        for record in self.records:
            self.split_labels.setdefault(record.id, EXCLUDED)
            self._by_id.setdefault(record.id, record)

    def by_id(self, record_id: str) -> TheoremRecord:
        try:
            return self._by_id[record_id]
        except KeyError:
            raise UnknownId(record_id) from None

    def with_label(self, label: str) -> list[TheoremRecord]:
        return [r for r in self.records if self.split_labels[r.id] == label]

    @property
    def train(self) -> list[TheoremRecord]:
        return self.with_label(TRAIN)

    @property
    def test(self) -> list[TheoremRecord]:
        return self.with_label(TEST)


def _extract_records(path: Path, rel: str, source: str) -> tuple[list[TheoremRecord], list[str]]:
    sentences = segment_sentences(source)
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
        proof: list[Sentence] = []
        depth = 1
        j = i + 1
        excluded = False
        while j < len(sentences) and depth > 0:
            step = sentences[j]
            proof.append(step)
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
                statement=sentence,
                proof=tuple(proof),
                file=rel,
                preceding_source=_slice_before(source, sentence),
                index_in_file=index,
            )
        )
        if excluded:
            warnings.append(f"{rel}: {name} is Admitted/Abort'ed; excluded from splits")
        index += 1
        i = j
    return records, warnings


def _slice_before(source: str, statement: Sentence) -> str:
    return source.encode("utf-8")[: statement.span[0]].decode("utf-8")


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
        source = path.read_text(encoding="utf-8")
        try:
            file_records, file_warnings = _extract_records(path, rel, source)
        except LexicalError as exc:
            warnings.append(f"{rel}: segmentation failed at byte {exc.offset}; file skipped")
            log.warning("skipping %s: %s", rel, exc)
            continue
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
    same_file = [
        r
        for r in corpus.records
        if r.file == target.file and r.index_in_file < target.index_in_file
    ]
    same_file.sort(key=lambda r: r.index_in_file)
    return [(r.name, r.statement, r.proof) for r in same_file[-n:]]


# ---------------------------------------------------------------------------
# Persistence: JSON Lines, one header line then one record per line.
# ---------------------------------------------------------------------------

_FORMAT = "coqharness-corpus/1"


def _sentence_from_json(raw: dict) -> Sentence:
    return Sentence(raw["text"], tuple(raw["span"]))


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        header = {"format": _FORMAT, "root": corpus.root}
        fh.write(json.dumps(header, ensure_ascii=False) + "\n")
        for record in corpus.records:
            row = {**vars(record), "split": corpus.split_labels[record.id]}
            fh.write(json.dumps(row, ensure_ascii=False, default=vars) + "\n")


_RECORD_FIELDS = {f.name for f in fields(TheoremRecord)} | {"split"}


def load_corpus(path: str | Path) -> Corpus:
    records: list[TheoremRecord] = []
    labels: dict[str, str] = {}
    root = ""
    with open(path, encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaViolation(line_number, f"invalid JSON: {exc.msg}") from None
            if line_number == 1:
                if row.get("format") != _FORMAT:
                    raise SchemaViolation(line_number, "missing or unsupported header")
                root = row.get("root", "")
                continue
            missing = _RECORD_FIELDS - set(row)
            if missing:
                raise SchemaViolation(line_number, f"missing fields: {sorted(missing)}")
            try:
                values = {f.name: row[f.name] for f in fields(TheoremRecord)}
                values["statement"] = _sentence_from_json(row["statement"])
                values["proof"] = tuple(map(_sentence_from_json, row["proof"]))
                record = TheoremRecord(**values)
            except (KeyError, TypeError) as exc:
                raise SchemaViolation(line_number, f"malformed record: {exc}") from None
            records.append(record)
            labels[record.id] = row["split"]
    return Corpus(records, root, labels)
