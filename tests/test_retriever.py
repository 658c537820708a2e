"""Retriever: featurization against hand-computed TF-IDF, cosine properties,
triplet loss vs a straight-line oracle, gradients vs finite differences."""

from __future__ import annotations

import math

import numpy as np
import pytest

from coqharness.corpus import TheoremRecord
from coqharness.retriever import (
    DimensionMismatch,
    EmptyTrainSet,
    Featurizer,
    FeatureVector,
    TooFewRecords,
    TrainHyper,
    Triple,
    TripletBatch,
    batch_objective,
    batch_objective_and_gradient,
    build_index,
    hash_token,
    load_embedding,
    load_index,
    retrieve,
    save_embedding,
    save_index,
    similarity,
    tokenize,
    train_embedding,
    triplet_loss,
)
from coqharness.sentences import Sentence

from oracles import oracle_cosine, oracle_triplet_loss


def make_record(name: str, statement: str, proof: str, file: str = "fix.v", index: int = 0):
    return TheoremRecord(
        id=f"{file}::{name}",
        name=name,
        statement=Sentence(statement, (0, len(statement.encode()))),
        proof=(Sentence(proof, (0, len(proof.encode()))),),
        file=file,
        preceding_source="",
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
    assert len(index.vectors) == 5
    assert index.vectors == rebuilt.vectors
    assert index.featurizer.df == rebuilt.featurizer.df
    single = build_index(records[:1])
    assert len(single.vectors) == 1
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
            for rid, vec in index.vectors.items()
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
    for rid, vec in index.vectors.items():
        index.vectors[rid] = FeatureVector.from_entries(
            {k: 7.5 * w for k, w in vec.entries.items()}
        )
    assert [rid for rid, _ in retrieve(index, query, 5)] == base


def test_index_roundtrip(tmp_path):
    index = build_index(five_record_fixture(), feature_dim=256)
    path = tmp_path / "index.json"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded.space == index.space
    assert loaded.featurizer.df == index.featurizer.df
    assert loaded.vectors == index.vectors


# -- triplet loss -------------------------------------------------------------


def test_triplet_loss_forced_values():
    anchor = np.array([1.0, 0.0])
    orthogonal = np.array([0.0, 1.0])
    assert triplet_loss(anchor, anchor, orthogonal, margin=0.5) == 0.0
    assert triplet_loss(anchor, orthogonal, anchor, margin=0.5) == pytest.approx(1.5, abs=1e-12)


def test_triplet_loss_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        triplet_loss(np.ones(3), np.ones(4), np.ones(3), margin=0.5)


def test_triplet_loss_matches_straightline_oracle_50():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, p, n = rng.standard_normal((3, 4))
        margin = float(rng.uniform(0.05, 1.0))
        expected = oracle_triplet_loss(a.tolist(), p.tolist(), n.tolist(), margin)
        assert triplet_loss(a, p, n, margin) == pytest.approx(expected, abs=1e-12)
        fv = triplet_loss(to_fv(a), to_fv(p), to_fv(n), margin)
        assert fv == pytest.approx(expected, abs=1e-12)


def test_triplet_loss_nonnegative_and_zero_when_separated():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a, p, n = rng.standard_normal((3, 5))
        margin = float(rng.uniform(0.05, 1.0))
        value = triplet_loss(a, p, n, margin)
        assert value >= 0.0
        d_ap = 1.0 - oracle_cosine(a.tolist(), p.tolist())
        d_an = 1.0 - oracle_cosine(a.tolist(), n.tolist())
        if d_an >= d_ap + margin:
            assert value == 0.0


def test_triplet_batch_validation():
    v = FeatureVector.from_entries({0: 1.0})
    with pytest.raises(ValueError):
        TripletBatch([Triple(v, v, v, "a", "a")], margin=0.5)
    with pytest.raises(ValueError):
        TripletBatch([], margin=0.0)
    batch = TripletBatch([Triple(v, v, v, "a", "b")], margin=0.5)
    assert batch.size == 1


# -- gradients ----------------------------------------------------------------


def random_batch(seed: int, feature_dim: int = 24, embed_dim: int = 6, size: int = 5):
    """Seeded batch kept safely away from the hinge kink."""
    rng = np.random.default_rng(seed)
    while True:
        triples = []
        for t in range(size):
            vecs = []
            for _ in range(3):
                dense = rng.standard_normal(feature_dim) * (rng.random(feature_dim) < 0.4)
                if not dense.any():
                    dense[int(rng.integers(feature_dim))] = 1.0
                vecs.append(to_fv(dense))
            triples.append(Triple(*vecs, positive_source=f"p{t}", negative_source=f"n{t}"))
        batch = TripletBatch(triples, margin=0.5)
        weights = rng.standard_normal((feature_dim, embed_dim)) * 0.5
        margins_ok = True
        for triple in batch.triples:
            model_like = weights
            za = triple.anchor.dense(feature_dim) @ model_like
            zp = triple.positive.dense(feature_dim) @ model_like
            zn = triple.negative.dense(feature_dim) @ model_like
            a = za / np.linalg.norm(za)
            p = zp / np.linalg.norm(zp)
            n = zn / np.linalg.norm(zn)
            s = float(a @ n - a @ p) + 0.5
            if abs(s) < 1e-3:
                margins_ok = False
        if margins_ok:
            return weights, batch


def test_gradient_matches_central_finite_differences_20_batches():
    h = 1e-5
    for seed in range(20):
        weights, batch = random_batch(seed)
        objective, grad = batch_objective_and_gradient(weights, batch)
        assert objective == pytest.approx(batch_objective(weights, batch), abs=1e-12)
        fd = np.zeros_like(weights)
        for i in range(weights.shape[0]):
            for j in range(weights.shape[1]):
                bumped = weights.copy()
                bumped[i, j] += h
                plus = batch_objective(bumped, batch)
                bumped[i, j] -= 2 * h
                minus = batch_objective(bumped, batch)
                fd[i, j] = (plus - minus) / (2 * h)
        denom = max(float(np.linalg.norm(fd)), 1e-12)
        rel_error = float(np.linalg.norm(grad - fd)) / denom
        assert rel_error < 1e-4, f"seed {seed}: rel error {rel_error}"


# -- training -----------------------------------------------------------------


def overlap_corpus(n: int = 10):
    records = []
    for i in range(n):
        records.append(
            make_record(
                f"lem{i}",
                f"Lemma lem{i}: holds tok{i}a tok{i}b tok{i}c.",
                f"Proof. tac tok{i}a tok{i}b tok{i}c. Qed.",
                index=i,
            )
        )
    return records


def test_train_zero_lr_keeps_initialization():
    records = overlap_corpus(2)
    hyper = TrainHyper(learning_rate=0.0, epochs=1, seed=3, feature_dim=128, embed_dim=8)
    model = train_embedding(records, hyper)
    rng = np.random.default_rng(3)
    expected = rng.standard_normal((128, 8)) / math.sqrt(128)
    assert np.array_equal(model.weights, expected)


def test_train_decreases_objective_on_overlap_corpus():
    hyper = TrainHyper(learning_rate=0.2, epochs=25, seed=5, feature_dim=256, embed_dim=16)
    model = train_embedding(overlap_corpus(10), hyper)
    assert model.final_objective < model.initial_objective
    assert len(model.history) == 25


def test_train_deterministic_for_fixed_seed():
    hyper = TrainHyper(learning_rate=0.1, epochs=5, seed=12, feature_dim=128, embed_dim=8)
    first = train_embedding(overlap_corpus(6), hyper)
    second = train_embedding(overlap_corpus(6), hyper)
    assert np.array_equal(first.weights, second.weights)
    assert first.history == second.history


def test_train_too_few_records():
    with pytest.raises(TooFewRecords):
        train_embedding(overlap_corpus(1))


def test_embedding_is_normalized_and_roundtrips(tmp_path):
    hyper = TrainHyper(learning_rate=0.1, epochs=3, seed=1, feature_dim=128, embed_dim=8)
    model = train_embedding(overlap_corpus(5), hyper)
    vector = FeatureVector.from_entries({3: 1.5, 10: -2.0})
    embedded = model.embed(vector)
    assert np.linalg.norm(embedded) == pytest.approx(1.0, abs=1e-9)
    path = tmp_path / "embed.json"
    save_embedding(model, path)
    loaded = load_embedding(path)
    assert np.array_equal(loaded.weights, model.weights)
    assert loaded.hyper == model.hyper


def test_retrieve_embedded_mode_and_remote_stub():
    records = overlap_corpus(6)
    hyper = TrainHyper(learning_rate=0.2, epochs=10, seed=2, feature_dim=256, embed_dim=16)
    model = train_embedding(records, hyper)
    index = build_index(records, feature_dim=256)
    query = records[3]
    ranked = retrieve(index, query, 3, mode="embedded", model=model)
    assert len(ranked) == 3
    assert all(0.0 <= score <= 1.0 for _, score in ranked)
