"""Corpus extraction, splitting, preceding-lemma windows, persistence."""

from __future__ import annotations

import json
import os
import sys
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coqharness.corpus import (
    EXCLUDED,
    TEST,
    TRAIN,
    Corpus,
    CorpusError,
    NoSourcesFound,
    SchemaViolation,
    SourceFile,
    TheoremRecord,
    TooFewRecords,
    UnknownId,
    ingest_project,
    load_corpus,
    load_record,
    preceding_lemmas,
    save_corpus,
    split_corpus,
)
from coqharness.sentences import LexicalError, segment_sentences


def test_ingest_toy_project(toy_corpus):
    ids = [r.id for r in toy_corpus.records]
    assert ids == [
        "relations.v::comp_incl",
        "relations.v::comp_eeq",
        "relations.v::union_incl",
        "relations.v::union2_evolve_left",
        "relations.v::union2_evolve_right",
        "relations.v::trans_incl",
        "weak.v::weak_refl",
        "weak.v::G_wmon",
    ]
    union_incl = toy_corpus.by_id("relations.v::union_incl")
    assert union_incl.index_in_file == 2
    assert union_incl.statement.text.startswith("Lemma union_incl:")
    assert [s.text for s in union_incl.proof][-1] == "Qed."
    prelude = [s.text for s in union_incl.prelude]
    assert "Section Relations." in prelude
    assert any(text.startswith("Lemma comp_eeq") for text in prelude)
    assert not any("union_incl" in text for text in prelude)


def test_by_id_first_record_wins_on_duplicate_ids(toy_corpus):
    first, second = toy_corpus.records[:2]
    twin = replace(second, id=first.id)
    corpus = Corpus([first, twin], toy_corpus.root)
    assert corpus.by_id(first.id) is first
    assert replace(corpus, records=[twin, first]).by_id(first.id) is twin
    with pytest.raises(UnknownId):
        corpus.by_id(second.id)


def test_ingest_is_deterministic(fixtures_dir):
    first = ingest_project(fixtures_dir / "project")
    second = ingest_project(fixtures_dir / "project")
    assert first.records == second.records
    assert first.split_labels == second.split_labels


def test_statement_and_proof_tile_source(toy_corpus, fixtures_dir):
    for record in toy_corpus.records:
        source = (fixtures_dir / "project" / record.file).read_text().encode("utf-8")
        start = record.statement.span[0]
        end = record.proof[-1].span[1]
        region = source[start:end].decode("utf-8")
        assert region.startswith(record.statement.text)
        assert region.endswith(record.proof[-1].text)
        spans = [record.statement.span] + [s.span for s in record.proof]
        for (a, b), (c, d) in zip(spans, spans[1:]):
            assert b <= c


def test_empty_directory(tmp_path):
    with pytest.raises(NoSourcesFound):
        ingest_project(tmp_path)


def test_admitted_is_excluded(tmp_path):
    (tmp_path / "a.v").write_text(
        "Lemma done: True.\nProof. exact I. Qed.\n"
        "Lemma pending: False.\nProof. Admitted.\n"
    )
    corpus = ingest_project(tmp_path)
    assert len(corpus.records) == 2
    assert corpus.split_labels["a.v::done"] == TRAIN
    assert corpus.split_labels["a.v::pending"] == EXCLUDED


def test_program_obligation_skipped_with_warning(tmp_path):
    (tmp_path / "p.v").write_text(
        "Program Definition f := 1.\nNext Obligation. auto. Qed.\n"
        "Lemma fine: True. Proof. exact I. Qed.\n"
    )
    corpus = ingest_project(tmp_path)
    assert [r.name for r in corpus.records] == ["fine"]
    assert any("Obligation" in w for w in corpus.warnings)


def test_bad_file_skipped_with_warning(tmp_path):
    (tmp_path / "bad.v").write_text("Lemma broken: True. Proof. (* never closed")
    (tmp_path / "good.v").write_text("Lemma ok: True. Proof. exact I. Qed.\n")
    corpus = ingest_project(tmp_path)
    assert [r.name for r in corpus.records] == ["ok"]
    assert any("bad.v" in w for w in corpus.warnings)


def test_split_determinism_and_fractions(tmp_path):
    lines = [f"Lemma l{i}: True. Proof. exact I. Qed." for i in range(10)]
    (tmp_path / "ten.v").write_text("\n".join(lines) + "\n")
    corpus = ingest_project(tmp_path)
    once = split_corpus(corpus, policy="by_index", seed=7, test_fraction=0.3)
    again = split_corpus(corpus, policy="by_index", seed=7, test_fraction=0.3)
    assert once.split_labels == again.split_labels
    assert len(once.test) == 3 and len(once.train) == 7
    different = split_corpus(corpus, policy="by_index", seed=8, test_fraction=0.3)
    assert [r.id for r in different.test] != [r.id for r in once.test] or True


def test_split_explicit(toy_corpus):
    assert {r.name for r in toy_corpus.test} == {
        "union_incl",
        "trans_incl",
        "weak_refl",
        "G_wmon",
    }
    assert len(toy_corpus.train) == 4
    with pytest.raises(UnknownId):
        split_corpus(toy_corpus, policy="explicit", explicit_test_ids=("nope",))


def test_split_by_file(toy_corpus):
    split = split_corpus(toy_corpus, policy="by_file", seed=3, test_fraction=0.3)
    test_files = {r.file for r in split.test}
    train_files = {r.file for r in split.train}
    assert test_files and train_files
    assert not (test_files & train_files)


def test_split_too_few(tmp_path):
    (tmp_path / "one.v").write_text("Lemma only: True. Proof. exact I. Qed.\n")
    corpus = ingest_project(tmp_path)
    with pytest.raises(TooFewRecords):
        split_corpus(corpus, test_fraction=0.5)


def test_preceding_lemmas_window(toy_corpus):
    assert preceding_lemmas(toy_corpus, "relations.v::comp_incl", 6) == []
    got = preceding_lemmas(toy_corpus, "relations.v::union_incl", 2)
    assert [name for name, _, _ in got] == ["comp_incl", "comp_eeq"]
    assert preceding_lemmas(toy_corpus, "relations.v::union_incl", 0) == []
    with pytest.raises(UnknownId):
        preceding_lemmas(toy_corpus, "missing", 3)
    # never crosses files, ignores split labels, excludes the target
    got = preceding_lemmas(toy_corpus, "weak.v::G_wmon", 10)
    assert [name for name, _, _ in got] == ["weak_refl"]


def _filtered_preceding_lemmas(corpus, record_id, n):
    """preceding_lemmas as a filter of the whole corpus and a sort."""
    target = corpus.by_id(record_id)
    if n <= 0:
        return []
    same_file = [
        r for r in corpus.records
        if r.file == target.file and r.index_in_file < target.index_in_file
    ]
    same_file.sort(key=lambda r: r.index_in_file)
    return [(r.name, r.statement, r.proof) for r in same_file[-n:]]


@pytest.mark.parametrize("project_name", ["walk", "fixtures", "long"])
def test_preceding_lemmas_slice_equals_the_filter(project_name, walk_project, toy_corpus,
                                                   long_project):
    corpus = {"walk": walk_project["corpus"], "fixtures": toy_corpus,
              "long": long_project["corpus"]}[project_name]
    for record in corpus.records:
        for n in (0, 1, 6, 10_000):
            assert preceding_lemmas(corpus, record.id, n) == \
                _filtered_preceding_lemmas(corpus, record.id, n)


def test_corpus_file_grows_linearly_with_the_source(long_project, tmp_path):
    path = tmp_path / "corpus.jsonl"
    save_corpus(long_project["corpus"], path)
    source_bytes = sum(p.stat().st_size for p in long_project["project"].glob("*.v"))
    assert len(long_project["corpus"].records) >= 3 * 200
    assert path.stat().st_size <= 3 * source_bytes


def test_preceding_lemmas_prefix_closed(toy_corpus):
    for record in toy_corpus.records:
        full = preceding_lemmas(toy_corpus, record.id, 10_000)
        for n in range(0, 6):
            assert preceding_lemmas(toy_corpus, record.id, n) == (full[-n:] if n else [])


def test_save_load_roundtrip(toy_corpus, tmp_path):
    path = tmp_path / "corpus.jsonl"
    save_corpus(toy_corpus, path)
    loaded = load_corpus(path)
    assert loaded.records == toy_corpus.records
    assert loaded.split_labels == toy_corpus.split_labels
    assert loaded.root == toy_corpus.root


def test_unicode_identifiers_roundtrip(tmp_path):
    (tmp_path / "uni.v").write_text(
        "Lemma réflexivité: forall x, x = x. Proof. auto. Qed.\n", encoding="utf-8"
    )
    corpus = ingest_project(tmp_path)
    assert corpus.records[0].name == "réflexivité"
    path = tmp_path / "uni.jsonl"
    save_corpus(corpus, path)
    assert load_corpus(path).records == corpus.records
    raw = path.read_bytes()
    save_corpus(load_corpus(path), path)
    assert path.read_bytes() == raw


def test_schema_violation_line_number(toy_corpus, tmp_path):
    path = tmp_path / "corpus.jsonl"
    save_corpus(toy_corpus, path)
    lines = path.read_text().splitlines()
    lines[3] = lines[3][: len(lines[3]) // 2]  # truncate a record line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaViolation) as err:
        load_corpus(path)
    assert err.value.line_number == 4

    path.write_text('{"format": "coqharness-corpus/2", "root": "x"}\n{"id": "only"}\n')
    with pytest.raises(SchemaViolation) as err:
        load_corpus(path)
    assert err.value.line_number == 2 and "missing fields" in str(err.value)

    path.write_text('{"nope": true}\n')
    with pytest.raises(SchemaViolation) as err:
        load_corpus(path)
    assert err.value.line_number == 1


# Ids that are prefixes of one another, non-ASCII, escaped in JSON, or equal
# to a field name or a value that other rows hold (a decoy for the byte search).
_IDS = ["a.v::t", "a.v::t2", "a.v::t#1", "é.v::ü", 'q"uote', "back\\slash", "id", "train", "a.v"]


@st.composite
def _corpus_files(draw):
    """A corpus file's bytes: duplicate ids, file paths equal to ids, file
    texts and statements quoting other ids, CRLF or LF row ends, and an
    optional final newline."""
    rows = [{"format": "coqharness-corpus/2", "root": draw(st.sampled_from(["r", "ü"]))}]
    paths: set[str] = set()
    for index in range(draw(st.integers(0, 8))):
        record_id, other = draw(st.sampled_from(_IDS)), draw(st.sampled_from(_IDS))
        path = draw(st.sampled_from(_IDS))
        if path not in paths:  # a file's row comes before its records' rows
            paths.add(path)
            prelude = draw(st.text(max_size=8)) + json.dumps(other)
            statement = draw(st.sampled_from([other, f'Lemma x : "{other}".', "Lemma y : True."]))
            a = len(prelude.encode("utf-8")) + 1
            b = a + len(statement.encode("utf-8"))
            rows.append({"path": path, "text": f"{prelude} {statement} Qed.",
                         "spans": [0, a - 1, 1, b - a, 1, 4]})
        rows.append({
            "id": record_id, "name": draw(st.sampled_from([other, "x"])), "file": path,
            "index_in_file": index, "statement_index": 1, "proof_end": 3,
            "split": draw(st.sampled_from(["train", "test"])),
        })
    lines = [json.dumps(row, ensure_ascii=False).encode("utf-8") for row in rows]
    data = b"".join(line + draw(st.sampled_from([b"\n", b"\r\n"])) for line in lines)
    if draw(st.booleans()):
        data = data.rstrip(b"\r\n")
    return data


@settings(max_examples=300, deadline=None)
@given(_corpus_files())
def test_load_record_agrees_with_load_corpus(data):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "corpus.jsonl"
        path.write_bytes(data)
        oracle = load_corpus(path)
        for record_id in _IDS + ["absent"]:
            found = load_record(path, record_id)
            try:
                expected = oracle.by_id(record_id)
            except UnknownId:
                assert found is None  # the caller falls back to load_corpus
                continue
            assert found.records == [expected] and found.root == oracle.root
            if sum(r.id == record_id for r in oracle.records) == 1:
                assert found.split_labels == {record_id: oracle.split_labels[record_id]}


def test_load_record_reports_its_malformed_row_and_defers_a_bad_header(toy_corpus, tmp_path):
    path = tmp_path / "corpus.jsonl"
    save_corpus(toy_corpus, path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    row = json.loads(lines[3])
    del row["file"]
    lines[3] = json.dumps(row, ensure_ascii=False) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(SchemaViolation) as err:
        load_record(path, row["id"])
    assert err.value.line_number == 4 and "missing fields: ['file']" in str(err.value)

    path.write_text('{"format": "other"}\n' + "".join(lines[1:]), encoding="utf-8")
    assert load_record(path, toy_corpus.records[0].id) is None


def test_load_corpus_keeps_the_first_row_of_a_duplicated_id(toy_corpus, tmp_path, caplog):
    record = replace(toy_corpus.records[0], id="f.v::t")
    path = tmp_path / "corpus.jsonl"
    save_corpus(Corpus([record], toy_corpus.root, {record.id: TEST}), path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    second = {**json.loads(lines[2]), "split": TRAIN, "name": "second"}
    path.write_text("".join(lines) + json.dumps(second) + "\n", encoding="utf-8")
    with caplog.at_level("WARNING", logger="coqharness.corpus"):
        corpus = load_corpus(path)
    assert corpus.records == [record] and corpus.test == [record] and corpus.train == []
    assert corpus.warnings == ["line 4: dropped a second row with id 'f.v::t'"]
    assert [r.levelname for r in caplog.records] == ["WARNING"]
    assert corpus.warnings[0] in caplog.text
    assert load_record(path, record.id).records == corpus.records
    assert load_record(path, record.id).split_labels == corpus.split_labels


_HEADER = {"format": "coqharness-corpus/2", "root": "r"}
_FILE = {"path": "f.v", "text": "Lemma t: True. Qed.", "spans": [0, 14, 1, 4]}
_RECORD = {"id": "f.v::t", "name": "t", "file": "f.v", "index_in_file": 0,
           "statement_index": 0, "proof_end": 2, "split": "test"}


@pytest.mark.parametrize("rows,line_number,detail,both", [
    ([_HEADER, _FILE, _RECORD], None, None, True),
    ([_HEADER, _RECORD, _FILE], 2, "no file row for 'f.v'", True),
    ([_HEADER, [_FILE], _RECORD], 2, "not a JSON object", True),
    ([_HEADER, {**_FILE, "path": ["f.v"]}, _RECORD], 2, "path is not a string", False),
    ([_HEADER, {**_FILE, "spans": [0, 14, 1, 5]}, _RECORD], 2, "spans do not fit", True),
    ([_HEADER, {**_FILE, "spans": [0, 14, 1]}, _RECORD], 2, "spans do not fit", True),
    ([_HEADER, {**_FILE, "spans": [0, 14, -1, 5]}, _RECORD], 2, "spans do not fit", True),
    ([_HEADER, {**_FILE, "spans": [0, 14, 1, 0]}, _RECORD], 2, "spans do not fit", True),
    ([_HEADER, {**_FILE, "text": "Lemma é: True. Qed.", "spans": [0, 7, 1, 4]}, _RECORD], 2,
     "malformed file row", True),
    ([_HEADER, _FILE, {**_RECORD, "proof_end": 1}], 3, "sentences 0..1 outside the file", True),
    ([_HEADER, _FILE, {**_RECORD, "proof_end": 3}], 3, "sentences 0..3 outside the file", True),
    ([_HEADER, _FILE, {**_RECORD, "statement_index": "0"}], 3, "malformed record", True),
    ([_HEADER, _FILE, {**_RECORD, "index_in_file": 0.5}], 3, "malformed record", True),
    ([_HEADER, _FILE, _RECORD, 7], 4, "not a JSON object", True),
])
def test_file_and_record_rows_are_checked(rows, line_number, detail, both, tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows),
                    encoding="utf-8")
    for load in (load_corpus, lambda path: load_record(path, "f.v::t"))[: 2 if both else 1]:
        if detail is None:
            [record] = load(path).records
            assert (record.statement.text, record.proof_text) == ("Lemma t: True.", "Qed.")
            continue
        with pytest.raises(SchemaViolation) as err:
            load(path)
        assert err.value.line_number == line_number and detail in err.value.detail


def test_a_missing_corpus_file_is_a_corpus_error(tmp_path):
    for load in (load_corpus, lambda path: load_record(path, "f.v::t")):
        with pytest.raises(CorpusError, match="cannot read corpus .*nonexistent.jsonl"):
            load(tmp_path / "nonexistent.jsonl")


# Sentence-sized pieces, ASCII and not: strings and comments holding
# periods, bullets, braces, qualified names, and two- to four-byte characters.
_ASCII_PIECES = ["x.", "Mod.t y.", "- auto.", "{", "}", '"a. ""b"". c".', "(* c. *)", " ", "\n"]
_OTHER_PIECES = ["Lemma é : ∀ x, x = x.", "𝔽 z.", "(* ü. *)", "\u00a0", '"ß. ü".']


@settings(max_examples=200, deadline=None)
@given(ascii_only=st.booleans(), data=st.data())
def test_sentences_built_on_first_use_equal_the_segmented_ones(tmp_path_factory, ascii_only, data):
    """Every index and slice of a loaded file's sentences, read in any order,
    equals the tuple its segmentation gives."""
    pieces = _ASCII_PIECES + ([] if ascii_only else _OTHER_PIECES)
    body = data.draw(st.lists(st.sampled_from(pieces), max_size=30).map("".join))
    text = f"Lemma t : True.\n{body}\nQed."
    try:
        eager = tuple(segment_sentences(text))
    except LexicalError:
        return
    record = TheoremRecord("f.v::t", "t", SourceFile("f.v", text, eager), 0, len(eager), 0)
    path = tmp_path_factory.getbasetemp() / "lazy.jsonl"
    save_corpus(Corpus([record], "r", {record.id: TEST}), path)
    [loaded] = load_corpus(path).records
    lazy, n = loaded.source.sentences, len(eager)
    assert len(lazy) == n
    for key in data.draw(st.lists(st.one_of(st.integers(-n, n - 1), st.slices(n)), max_size=12)):
        assert lazy[key] == eager[key]
    with pytest.raises(IndexError):
        lazy[n]
    assert list(lazy) == list(eager) and lazy == eager and loaded == record
    assert (loaded.statement, loaded.proof, loaded.prelude) == (eager[0], eager[1:], ())
    assert type(loaded.proof) is tuple and type(lazy[1:]) is tuple


def test_sentences_built_by_many_threads_at_once(long_project, tmp_path):
    """Threads that race to build a loaded file's sentences each read the
    segmented ones, and every sentence is kept once built."""
    path = tmp_path / "corpus.jsonl"
    save_corpus(long_project["corpus"], path)
    eager = {r.file: tuple(r.source.sentences) for r in long_project["corpus"].records}
    n_threads = (os.cpu_count() or 1) + 4  # more threads than cores
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            sources = {r.file: r.source for r in load_corpus(path).records}  # nothing built yet
            barrier = threading.Barrier(n_threads)
            views: list[dict] = [{} for _ in range(n_threads)]
            errors: list[BaseException] = []

            def read(k: int) -> None:
                try:
                    barrier.wait(timeout=30)
                    for file, source in sources.items():
                        sentences = source.sentences
                        if k % 3 == 0:
                            views[k][file] = sentences[:]
                        elif k % 3 == 1:
                            views[k][file] = tuple(sentences)
                        else:  # from the end
                            views[k][file] = tuple(reversed([sentences[-i] for i in
                                                             range(1, len(sentences) + 1)]))
                except BaseException as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            threads = [threading.Thread(target=read, args=(k,), daemon=True)
                       for k in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert all(view == eager for view in views)
            for source in sources.values():
                assert all(a is b for a, b in zip(source.sentences, source.sentences[:]))
    finally:
        sys.setswitchinterval(interval)
