"""Retriever: featurization against hand-computed TF-IDF, cosine properties,
index build, save and load, and lexical ranking."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coqharness.corpus import SourceFile, TheoremRecord
from coqharness.retriever import (
    EmptyTrainSet,
    Featurizer,
    FeatureVector,
    Index,
    build_index,
    hash_token,
    load_index,
    retrieve,
    save_index,
    similarity,
    tokenize,
)
from coqharness.sentences import Sentence

from oracles import oracle_cosine


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


def to_fv(dense: np.ndarray) -> FeatureVector:
    return FeatureVector.from_entries({i: float(v) for i, v in enumerate(dense) if v != 0.0})


# -- tokenization / featurization -------------------------------------------


def test_tokenize_coq_aware():
    assert tokenize("intros x. auto.") == ["intros", "x", ".", "auto", "."]
    assert tokenize("Mod.t -> Mod.t") == ["mod", ".", "t", "-", ">", "mod", ".", "t"]
    assert tokenize("x' y''") == ["x'", "y''"]
    assert tokenize("") == []


def test_featurize_empty_is_zero():
    featurizer = Featurizer.fit(["a b", "b c"], feature_dim=64)
    vector = featurizer.featurize("")
    assert vector.entries == {} and vector.norm == 0.0


def test_featurize_deterministic():
    featurizer = Featurizer.fit(["intros x.", "auto."], feature_dim=512)
    assert featurizer.featurize("intros x. auto.") == featurizer.featurize("intros x. auto.")


def test_featurize_matches_hand_tfidf():
    docs = ["intros x. auto.", "intros y. reflexivity.", "auto."]
    featurizer = Featurizer.fit(docs, feature_dim=4096)
    # hand count: df(intros)=2, df(x)=1, df(".")=3, df(auto)=2
    assert featurizer.df == {
        "intros": 2, "x": 1, ".": 3, "auto": 2, "y": 1, "reflexivity": 1,
    }
    vector = featurizer.featurize("intros x. auto.")

    def idf(df):
        return math.log((1 + 3) / (1 + df)) + 1.0

    expected = {
        "intros": 1 * idf(2),
        "x": 1 * idf(1),
        ".": 2 * idf(3),
        "auto": 1 * idf(2),
    }
    buckets = {token: hash_token(token, 4096) for token in expected}
    assert len(set(buckets.values())) == len(buckets)  # no collisions at this dim
    for token, weight in expected.items():
        assert vector.entries[buckets[token]] == pytest.approx(weight, abs=1e-9)
    assert vector.norm == pytest.approx(
        math.sqrt(sum(w * w for w in expected.values())), abs=1e-9
    )


def test_featurevector_invariants():
    vector = FeatureVector.from_entries({1: 2.0, 2: 0.0, 3: -1.0})
    assert 2 not in vector.entries  # zero weights dropped
    assert vector.norm == pytest.approx(math.sqrt(5.0), abs=1e-12)


# -- similarity ---------------------------------------------------------------


def test_similarity_identity_orthogonal_zero():
    v = FeatureVector.from_entries({0: 1.0, 5: 2.0})
    w = FeatureVector.from_entries({1: 3.0})
    zero = FeatureVector.from_entries({})
    assert similarity(v, v) == pytest.approx(1.0, abs=1e-12)
    assert similarity(v, w) == 0.0
    assert similarity(v, zero) == 0.0


def test_similarity_matches_hand_cosine():
    a = FeatureVector.from_entries({0: 1.0, 1: 2.0, 2: 3.0})
    b = FeatureVector.from_entries({0: 4.0, 1: 0.5, 2: 1.0})
    dense_a, dense_b = [1.0, 2.0, 3.0], [4.0, 0.5, 1.0]
    assert similarity(a, b) == pytest.approx(oracle_cosine(dense_a, dense_b), abs=1e-12)


def test_similarity_symmetry_and_scale_invariance_100_pairs():
    rng = np.random.default_rng(424242)
    for _ in range(100):
        a = to_fv(rng.standard_normal(12))
        b = to_fv(rng.standard_normal(12))
        c = float(rng.uniform(0.1, 10.0))
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
    index = build_index(records, feature_dim=1024)
    rebuilt = build_index(records, feature_dim=1024)
    assert len(index.norms) == 5
    assert (index.postings, index.norms) == (rebuilt.postings, rebuilt.norms)
    assert index.featurizer.df == rebuilt.featurizer.df
    single = build_index(records[:1])
    assert len(single.norms) == 1
    with pytest.raises(EmptyTrainSet):
        build_index([])


def test_df_table_matches_hand_count():
    index = build_index(five_record_fixture(), feature_dim=1024)
    df = index.featurizer.df
    # proofs only (default space); hand-counted document frequencies
    assert df["proof"] == 5 and df["."] == 5 and df["qed"] == 5
    assert df["intros"] == 2 and df["auto"] == 4
    assert df["x"] == 1 and df["y"] == 1
    assert df["split"] == 1 and df[";"] == 1
    assert df["unfold"] == 1 and df["p"] == 1
    assert df["reflexivity"] == 1


def test_retrieve_k0_and_self_retrieval():
    records = five_record_fixture()
    index = build_index(records, feature_dim=1024)
    query = make_record("query", records[2].proof_text, "Proof. whatever. Qed.")
    assert retrieve(index, query, 0) == []
    ranked = retrieve(index, query, 3)
    assert ranked[0][0] == "fix.v::r2"
    assert ranked[0][1] == pytest.approx(1.0, abs=1e-12)


def test_retrieve_matches_bruteforce_and_excludes_query():
    records = five_record_fixture()
    index = build_index(records, feature_dim=1024)
    query = records[0]
    ranked = retrieve(index, query, 2)
    query_vector = index.featurizer.featurize(query.statement_text)
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
    index = build_index(records, feature_dim=1024)
    query = make_record("q", "p q auto", "x")
    base = [rid for rid, _ in retrieve(index, query, 5)]
    scaled = {
        rid: FeatureVector.from_entries({k: 7.5 * w for k, w in vec.entries.items()})
        for rid, vec in vectors_of(index, records).items()
    }
    index = Index.from_vectors(index.space, index.featurizer, scaled)  # an Index is read-only
    assert [rid for rid, _ in retrieve(index, query, 5)] == base


def test_index_roundtrip(tmp_path):
    records = five_record_fixture()
    index = build_index(records, feature_dim=256)
    path = tmp_path / "index.json"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded.space == index.space
    assert loaded.featurizer.df == index.featurizer.df
    assert (loaded.postings, loaded.norms) == (index.postings, index.norms)
    assert index.norms == {r.id: v.norm for r, v in zip(records, vectors_of(index, records).values())}
    query = make_record("q", "p q auto", "x")
    ranked = retrieve(loaded, query, 5)
    assert [s.hex() for _, s in ranked] == [s.hex() for _, s in retrieve(index, query, 5)]
    assert ranked == brute_force(index, vectors_of(index, records), query, 5)


def vectors_of(index: Index, records) -> dict[str, FeatureVector]:
    """The records' vectors in the index's space, computed afresh."""
    return {r.id: index.featurizer.featurize(r.proof_text) for r in records}


def brute_force(index: Index, vectors: dict[str, FeatureVector], query, k: int) -> list[tuple[str, float]]:
    query_vector = index.featurizer.featurize(query.statement_text)
    scores = [(rid, similarity(query_vector, vector))
              for rid, vector in vectors.items() if rid != query.id]
    return sorted(scores, key=lambda item: (-item[1], item[0]))[:k]


_WORDS = ("x", "y", "nat", "auto", "intros", "plus", "=", "(", ")")
_texts = st.lists(st.sampled_from(_WORDS), max_size=6).map(" ".join)
_weights = st.floats(-4, 4, allow_nan=False).filter(lambda w: w != 0.0)


@settings(max_examples=300, deadline=None)
@given(
    docs=st.lists(_texts, min_size=1, max_size=9),
    hand_made=st.lists(st.dictionaries(st.integers(0, 7), _weights, max_size=4), max_size=3),
    query_text=_texts,
    query_at=st.integers(-1, 12),
    k=st.integers(1, 14),
    feature_dim=st.sampled_from([4, 8, 64]),
    tied=st.booleans(),
)
def test_retrieve_equals_brute_force(docs, hand_made, query_text, query_at, k, feature_dim, tied):
    """Postings scoring is bit-identical to scoring every vector, over ties
    (all documents alike), zero vectors, negative weights, the query's own
    id and k past the index size."""
    if tied:
        docs = [docs[0]] * len(docs)
    featurizer = Featurizer.fit(docs, feature_dim)
    vectors = {  # inserted out of id order
        f"f.v::h{i}": FeatureVector.from_entries({b % feature_dim: w for b, w in entries.items()})
        for i, entries in enumerate(hand_made)
    }
    for i, doc in reversed(list(enumerate(docs))):
        vectors[f"f.v::d{i}"] = featurizer.featurize(doc)
    index = Index.from_vectors("proof_text", featurizer, vectors)
    ids = sorted(vectors)
    name = ids[query_at][len("f.v::"):] if 0 <= query_at < len(ids) else "q"
    query = make_record(name, query_text, "Qed.", file="f.v")
    expected = brute_force(index, vectors, query, k)
    ranked = retrieve(index, query, k)
    assert ranked == expected
    assert [s.hex() for _, s in ranked] == [s.hex() for _, s in expected]  # bit for bit
    assert retrieve(index, query, k) == expected  # from the memo


def test_retrieve_memo_returns_copies_of_one_ranking():
    records = five_record_fixture()
    index = build_index(records, feature_dim=1024)
    query = make_record("q", "p q auto", "x")
    first = retrieve(index, query, 3)
    assert len(index._ranked) == 1
    first.clear()
    assert retrieve(index, query, 3) == brute_force(index, vectors_of(index, records), query, 3) != []
    assert len(index._ranked) == 1
    retrieve(index, query, 2)
    retrieve(index, make_record("q", "x y", "x"), 3)  # same id, another statement
    assert len(index._ranked) == 3
