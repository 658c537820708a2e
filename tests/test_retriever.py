"""Retriever: featurization against hand-computed TF-IDF, cosine properties,
index build, save and load, and lexical ranking."""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from coqharness.corpus import SourceFile, TheoremRecord
from coqharness.retriever import (
    PROOF_SPACE,
    STATEMENT_SPACE,
    RetrieverError,
    FeatureVector,
    Index,
    _record_text,
    build_index,
    load_index,
    retrieve,
    save_index,
    similarity,
    tokenize,
)
from coqharness.sentences import Sentence

from oracles import oracle_cosine
from two_pass_index import two_pass_build_index, two_pass_featurize, two_pass_fit


def make_record(name: str, statement: str, proof: str, file: str = "fix.v", index: int = 0):
    size = len(statement.encode())
    sentences = (Sentence(statement, (0, size)), Sentence(proof, (size + 1, size + 1 + len(proof.encode()))))
    return TheoremRecord(
        id=f"{file}::{name}",
        name=name,
        source=SourceFile(file, f"{statement} {proof}", sentences),
        statement_index=0,
        proof_end=2,
        index_in_file=index,
    )


def index_of(proofs: list[str]) -> Index:
    return build_index([make_record(f"d{i}", "Lemma s: True.", proof, index=i)
                        for i, proof in enumerate(proofs)])


def to_fv(dense: list[float]) -> FeatureVector:
    return FeatureVector.from_entries({f"t{i}": float(v) for i, v in enumerate(dense) if v != 0.0})


# -- tokenization / featurization -------------------------------------------


def test_tokenize_coq_aware():
    assert tokenize("intros x. auto.") == ["intros", "x", ".", "auto", "."]
    assert tokenize("Mod.t -> Mod.t") == ["mod", ".", "t", "-", ">", "mod", ".", "t"]
    assert tokenize("x' y''") == ["x'", "y''"]
    assert tokenize("") == []


def test_featurize_empty_is_zero():
    vector = index_of(["a b", "b c"]).featurize("")
    assert vector.entries == {} and vector.norm == 0.0


def test_featurize_deterministic():
    index = index_of(["intros x.", "auto."])
    assert index.featurize("intros x. auto.") == index.featurize("intros x. auto.")


def test_featurize_matches_hand_tfidf():
    docs = ["intros x. auto.", "intros y. reflexivity.", "auto."]
    index = index_of(docs)
    # hand count: df(intros)=2, df(x)=1, df(".")=3, df(auto)=2
    assert {token: len(pairs) for token, pairs in index.postings.items()} == {
        "intros": 2, "x": 1, ".": 3, "auto": 2, "y": 1, "reflexivity": 1,
    }
    assert len(index.norms) == 3
    vector = index.featurize("intros x. auto.")

    def idf(df):
        return math.log((1 + 3) / (1 + df)) + 1.0

    expected = {
        "intros": 1 * idf(2),
        "x": 1 * idf(1),
        ".": 2 * idf(3),
        "auto": 1 * idf(2),
    }
    assert vector.entries == pytest.approx(expected, abs=1e-9)
    assert vector.norm == pytest.approx(
        math.sqrt(sum(w * w for w in expected.values())), abs=1e-9
    )


def test_featurevector_invariants():
    vector = FeatureVector.from_entries({"a": 2.0, "b": 0.0, "c": -1.0})
    assert "b" not in vector.entries  # zero weights dropped
    assert vector.norm == pytest.approx(math.sqrt(5.0), abs=1e-12)


# -- similarity ---------------------------------------------------------------


def test_similarity_identity_orthogonal_zero():
    v = FeatureVector.from_entries({"a": 1.0, "f": 2.0})
    w = FeatureVector.from_entries({"b": 3.0})
    zero = FeatureVector.from_entries({})
    assert similarity(v, v) == pytest.approx(1.0, abs=1e-12)
    assert similarity(v, w) == 0.0
    assert similarity(v, zero) == 0.0


def test_similarity_matches_hand_cosine():
    a = FeatureVector.from_entries({"a": 1.0, "b": 2.0, "c": 3.0})
    b = FeatureVector.from_entries({"a": 4.0, "b": 0.5, "c": 1.0})
    dense_a, dense_b = [1.0, 2.0, 3.0], [4.0, 0.5, 1.0]
    assert similarity(a, b) == pytest.approx(oracle_cosine(dense_a, dense_b), abs=1e-12)


def test_similarity_symmetry_and_scale_invariance_100_pairs():
    rng = random.Random(424242)
    for _ in range(100):
        a = to_fv([rng.gauss(0, 1) for _ in range(12)])
        b = to_fv([rng.gauss(0, 1) for _ in range(12)])
        c = rng.uniform(0.1, 10.0)
        scaled = FeatureVector.from_entries({k: c * v for k, v in a.entries.items()})
        assert similarity(a, b) == pytest.approx(similarity(b, a), abs=1e-9)
        assert similarity(scaled, b) == pytest.approx(similarity(a, b), abs=1e-9)


# -- index / retrieve ---------------------------------------------------------


FIVE_RECORDS = [
    ("r0", "Lemma a0: p q.", "Proof. intros x. auto. Qed."),
    ("r1", "Lemma a1: p r.", "Proof. intros y. reflexivity. Qed."),
    ("r2", "Lemma a2: q r.", "Proof. auto. Qed."),
    ("r3", "Lemma a3: p p.", "Proof. split; auto. Qed."),
    ("r4", "Lemma a4: q q.", "Proof. unfold p. auto. Qed."),
]


def five_record_fixture():
    return [make_record(n, s, p, index=i) for i, (n, s, p) in enumerate(FIVE_RECORDS)]


def test_build_index_size_and_determinism():
    records = five_record_fixture()
    index = build_index(records)
    rebuilt = build_index(records)
    assert len(index.norms) == 5
    assert (index.postings, index.norms) == (rebuilt.postings, rebuilt.norms)
    single = build_index(records[:1])
    assert len(single.norms) == 1


def test_df_table_matches_hand_count():
    index = build_index(five_record_fixture())
    df = {token: len(pairs) for token, pairs in index.postings.items()}
    # proofs only (default space); hand-counted document frequencies
    assert df["proof"] == 5 and df["."] == 5 and df["qed"] == 5
    assert df["intros"] == 2 and df["auto"] == 4
    assert df["x"] == 1 and df["y"] == 1
    assert df["split"] == 1 and df[";"] == 1
    assert df["unfold"] == 1 and df["p"] == 1
    assert df["reflexivity"] == 1


def test_retrieve_k0_and_self_retrieval():
    records = five_record_fixture()
    index = build_index(records)
    query = make_record("query", records[2].proof_text, "Proof. whatever. Qed.")
    assert retrieve(index, query, 0) == []
    ranked = retrieve(index, query, 3)
    assert ranked[0][0] == "fix.v::r2"
    assert ranked[0][1] == pytest.approx(1.0, abs=1e-12)


def test_retrieve_matches_bruteforce_and_excludes_query():
    records = five_record_fixture()
    index = build_index(records)
    query = records[0]
    ranked = retrieve(index, query, 2)
    query_vector = index.featurize(query.statement_text)
    brute = sorted(
        (
            (rid, similarity(query_vector, vec))
            for rid, vec in vectors_of(index, records).items()
            if rid != query.id
        ),
        key=lambda item: (-item[1], item[0]),
    )
    assert ranked == brute[:2]
    assert all(rid != query.id for rid, _ in ranked)


def test_retrieve_ranking_invariant_under_uniform_scaling():
    records = five_record_fixture()
    index = build_index(records)
    query = make_record("q", "p q auto", "x")
    base = [rid for rid, _ in retrieve(index, query, 5)]
    scaled = {
        rid: FeatureVector.from_entries({k: 7.5 * w for k, w in vec.entries.items()})
        for rid, vec in vectors_of(index, records).items()
    }
    index = Index.from_vectors(index.space, scaled)  # an Index is read-only
    assert [rid for rid, _ in retrieve(index, query, 5)] == base


@pytest.mark.parametrize("project_name", ["walk", "fixtures", "long"])
@pytest.mark.parametrize("space", [PROOF_SPACE, STATEMENT_SPACE])
def test_index_file_equals_the_two_pass_build(project_name, space, walk_project, toy_corpus,
                                              long_project, tmp_path):
    """The one-pass build writes the two-pass build's bytes, and the index
    it loads featurizes every query as the two-pass featurizer does."""
    corpus = {"walk": walk_project["corpus"], "fixtures": toy_corpus,
              "long": long_project["corpus"]}[project_name]
    save_index(build_index(corpus.train, space), tmp_path / "one.json")
    save_index(two_pass_build_index(corpus.train, space), tmp_path / "two.json")
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()
    index = load_index(tmp_path / "one.json")
    df, n_docs = two_pass_fit([_record_text(r, space) for r in corpus.train])
    for record in corpus.records:
        assert index.featurize(record.statement_text) == \
            two_pass_featurize(df, n_docs, record.statement_text)


def test_index_roundtrip(tmp_path):
    records = five_record_fixture()
    index = build_index(records)
    path = tmp_path / "index.json"
    save_index(index, path)
    assert list(json.loads(path.read_text())) == ["format", "space", "postings", "norms"]
    loaded = load_index(path)
    assert loaded.space == index.space
    assert (loaded.postings, loaded.norms) == (index.postings, index.norms)
    assert index.norms == {r.id: v.norm for r, v in zip(records, vectors_of(index, records).values())}
    query = make_record("q", "p q auto", "x")
    ranked = retrieve(loaded, query, 5)
    assert [s.hex() for _, s in ranked] == [s.hex() for _, s in retrieve(index, query, 5)]
    assert ranked == brute_force(index, vectors_of(index, records), query, 5)


@pytest.mark.parametrize("norm", [True, 1, "1.5", 0.0])
def test_load_index_refuses_a_norm_that_is_no_positive_float(norm, tmp_path):
    path = tmp_path / "index.json"
    save_index(index_of(["apply c.", "apply le."]), path)
    payload = json.loads(path.read_text())
    payload["norms"]["fix.v::d0"] = norm
    path.write_text(json.dumps(payload))
    with pytest.raises(RetrieverError, match="a posting of 'fix.v::d0' has no norm or no weight"):
        load_index(path)


def vectors_of(index: Index, records) -> dict[str, FeatureVector]:
    """The records' vectors in the index's space, computed afresh."""
    return {r.id: index.featurize(r.proof_text) for r in records}


def brute_force(index: Index, vectors: dict[str, FeatureVector], query, k: int) -> list[tuple[str, float]]:
    query_vector = index.featurize(query.statement_text)
    scores = [(rid, similarity(query_vector, vector))
              for rid, vector in vectors.items() if rid != query.id]
    return sorted(scores, key=lambda item: (-item[1], item[0]))[:k]


_WORDS = ("x", "y", "nat", "auto", "intros", "plus", "=", "(", ")")
_texts = st.lists(st.sampled_from(_WORDS), max_size=6).map(" ".join)
_weights = st.floats(-4, 4, allow_nan=False).filter(lambda w: w != 0.0)


@settings(max_examples=300, deadline=None)
@given(
    docs=st.lists(_texts, min_size=1, max_size=9),
    hand_made=st.lists(st.dictionaries(st.sampled_from(_WORDS), _weights, max_size=4), max_size=3),
    query_text=_texts,
    query_at=st.integers(-1, 12),
    k=st.integers(1, 14),
    tied=st.booleans(),
)
def test_retrieve_equals_brute_force(docs, hand_made, query_text, query_at, k, tied):
    """Postings scoring is bit-identical to scoring every vector, over ties
    (all documents alike), zero vectors, negative weights, the query's own
    id and k past the index size."""
    if tied:
        docs = [docs[0]] * len(docs)
    df, n_docs = two_pass_fit(docs)
    vectors = {  # inserted out of id order
        f"f.v::h{i}": FeatureVector.from_entries(entries) for i, entries in enumerate(hand_made)
    }
    for i, doc in reversed(list(enumerate(docs))):
        vectors[f"f.v::d{i}"] = two_pass_featurize(df, n_docs, doc)
    index = Index.from_vectors("proof_text", vectors)
    ids = sorted(vectors)
    name = ids[query_at][len("f.v::"):] if 0 <= query_at < len(ids) else "q"
    query = make_record(name, query_text, "Qed.", file="f.v")
    expected = brute_force(index, vectors, query, k)
    ranked = retrieve(index, query, k)
    assert ranked == expected
    assert [s.hex() for _, s in ranked] == [s.hex() for _, s in expected]  # bit for bit
    assert retrieve(index, query, k) == expected  # from the memo


def test_each_token_is_its_own_feature():
    """Two tokens never share a weight: `c` and `le`, which a 4,096-bucket
    blake2b hash puts in one bucket, score apart."""
    index = index_of(["apply c.", "apply le.", "apply x."])
    ranked = dict(retrieve(index, make_record("q", "c", "Qed."), 3))
    assert ranked["fix.v::d0"] > 0.0
    assert ranked["fix.v::d1"] == 0.0 == ranked["fix.v::d2"]


def test_retrieve_memo_returns_copies_of_one_ranking():
    records = five_record_fixture()
    index = build_index(records)
    query = make_record("q", "p q auto", "x")
    first = retrieve(index, query, 3)
    assert len(index._ranked) == 1
    first.clear()
    assert retrieve(index, query, 3) == brute_force(index, vectors_of(index, records), query, 3) != []
    assert len(index._ranked) == 1
    retrieve(index, query, 2)
    retrieve(index, make_record("q", "x y", "x"), 3)  # same id, another statement
    assert len(index._ranked) == 3
