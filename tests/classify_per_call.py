"""The record extraction that `coqharness.corpus._extract_records`
replaced, kept as a reference for the parity tests. It classifies a
sentence by a fresh regex call each time it asks whether the sentence is a
statement, a closer or an obligation, and labels a record by classifying the
last sentence of its proof again.
"""

from __future__ import annotations

import re

from coqharness.corpus import EXCLUDED, TRAIN, SourceFile, TheoremRecord
from coqharness.sentences import (
    NON_PROVING_CLOSERS,
    PROVING_CLOSERS,
    STATEMENT_KEYWORDS,
    Sentence,
)

_OBLIGATION_RE = re.compile(r"^\s*(?:Next\s+Obligation|Obligation\b|Program\b)")


def _text(sentence: Sentence | str) -> str:
    return sentence.text if isinstance(sentence, Sentence) else sentence


def is_statement(sentence: Sentence | str) -> bool:
    m = re.match(r"\s*([A-Za-z]+)\b", _text(sentence))
    return bool(m and m.group(1) in STATEMENT_KEYWORDS)


def is_closing(sentence: Sentence | str, proving_only: bool = False) -> bool:
    m = re.match(r"\s*([A-Za-z]+)\b", _text(sentence))
    if not m:
        return False
    closers = PROVING_CLOSERS if proving_only else PROVING_CLOSERS + NON_PROVING_CLOSERS
    return m.group(1) in closers


def statement_name(statement: Sentence | str) -> str | None:
    m = re.match(r"\s*(?:%s)\s+([^\W\d][\w']*)" % "|".join(STATEMENT_KEYWORDS), _text(statement))
    return m.group(1) if m else None


def extract_per_call(source: SourceFile) -> tuple[list[TheoremRecord], dict[str, str], list[str]]:
    """Records, labels and warnings, as `ingest_project` computed them."""
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
        records.append(TheoremRecord(record_id, name, source, i, j, index))
        if excluded:
            warnings.append(f"{rel}: {name} is Admitted/Abort'ed; excluded from splits")
        index += 1
        i = j
    labels = {}
    for record in records:
        proof_ok = record.proof and is_closing(record.proof[-1], proving_only=True)
        labels[record.id] = EXCLUDED if not proof_ok else TRAIN
    return records, labels, warnings
