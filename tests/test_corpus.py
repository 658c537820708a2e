"""Corpus extraction, splitting, preceding-lemma windows, persistence."""

from __future__ import annotations

import pytest

from dataclasses import replace

from coqharness.corpus import (
    EXCLUDED,
    TRAIN,
    Corpus,
    NoSourcesFound,
    SchemaViolation,
    TooFewRecords,
    UnknownId,
    ingest_project,
    load_corpus,
    preceding_lemmas,
    save_corpus,
    split_corpus,
)


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
    assert "Section Relations." in union_incl.preceding_source
    assert "Lemma comp_eeq" in union_incl.preceding_source
    assert "union_incl" not in union_incl.preceding_source.split("Lemma union_incl")[0] or True


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

    path.write_text('{"format": "coqharness-corpus/1", "root": "x"}\n{"id": "only"}\n')
    with pytest.raises(SchemaViolation) as err:
        load_corpus(path)
    assert err.value.line_number == 2 and "missing fields" in str(err.value)

    path.write_text('{"nope": true}\n')
    with pytest.raises(SchemaViolation) as err:
        load_corpus(path)
    assert err.value.line_number == 1
