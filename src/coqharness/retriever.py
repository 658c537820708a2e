"""Similarity search over theorem-proof pairs.

Two ranking routes share one sparse feature space (hashed, TF-IDF weighted
Coq-aware tokens): plain cosine over the lexical vectors, and cosine in a
learned linear embedding trained with a margin-based triplet objective
J = sum_i max(0, d(anchor_i, positive_i) - d(anchor_i, negative_i) + margin),
d = 1 - cosine, where anchors are theorem statements, positives their own
proofs, and negatives uniformly sampled proofs of other theorems.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .corpus import TheoremRecord

DEFAULT_FEATURE_DIM = 4096
DEFAULT_EMBED_DIM = 64
DEFAULT_MARGIN = 0.5

_TOKEN_RE = re.compile(r"[a-z_][a-z0-9_']*|\d+|\S")


class RetrieverError(Exception):
    pass


class EmptyTrainSet(RetrieverError):
    pass


class TooFewRecords(RetrieverError):
    pass


class DimensionMismatch(RetrieverError):
    pass


class NonFiniteLoss(RetrieverError):
    def __init__(self, epoch: int):
        super().__init__(f"objective became non-finite at epoch {epoch}")
        self.epoch = epoch


def tokenize(text: str) -> list[str]:
    """Lowercased Coq-aware tokens: identifiers whole, punctuation single."""
    return _TOKEN_RE.findall(text.lower())


def hash_token(token: str, feature_dim: int) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % feature_dim


@dataclass(frozen=True)
class FeatureVector:
    entries: dict[int, float]
    norm: float

    @staticmethod
    def from_entries(entries: dict[int, float]) -> "FeatureVector":
        entries = {k: v for k, v in entries.items() if v != 0.0}
        norm = math.sqrt(math.fsum(v * v for v in entries.values()))
        return FeatureVector(entries, norm)

    def dense(self, dim: int) -> np.ndarray:
        out = np.zeros(dim)
        for k, v in self.entries.items():
            out[k] = v
        return out


@dataclass
class Featurizer:
    """Hashes tokens into a fixed-dimension TF-IDF weighted sparse space."""

    feature_dim: int = DEFAULT_FEATURE_DIM
    df: dict[str, int] = field(default_factory=dict)
    n_docs: int = 0

    @staticmethod
    def fit(documents: list[str], feature_dim: int = DEFAULT_FEATURE_DIM) -> "Featurizer":
        df: dict[str, int] = {}
        for doc in documents:
            for token in dict.fromkeys(tokenize(doc)):
                df[token] = df.get(token, 0) + 1
        return Featurizer(feature_dim, df, len(documents))

    def idf(self, token: str) -> float:
        return math.log((1 + self.n_docs) / (1 + self.df.get(token, 0))) + 1.0

    def featurize(self, text: str) -> FeatureVector:
        counts = Counter(tokenize(text))
        entries: dict[int, float] = {}
        for token, tf in counts.items():
            bucket = hash_token(token, self.feature_dim)
            entries[bucket] = entries.get(bucket, 0.0) + tf * self.idf(token)
        return FeatureVector.from_entries(entries)


def _sparse_cosine(a: FeatureVector, b: FeatureVector) -> float:
    if a.norm == 0.0 or b.norm == 0.0:
        return 0.0
    small, large = (a, b) if len(a.entries) <= len(b.entries) else (b, a)
    dot = math.fsum(w * large.entries.get(k, 0.0) for k, w in small.entries.items())
    return dot / (a.norm * b.norm)


def _dense_cosine(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise DimensionMismatch(f"{a.shape} vs {b.shape}")
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b)) / (na * nb)


def similarity(a: FeatureVector, b: FeatureVector) -> float:
    """Cosine similarity clamped to [0, 1]; 0 when either vector is zero."""
    return min(1.0, max(0.0, _sparse_cosine(a, b)))


def triplet_loss(
    anchor: FeatureVector | np.ndarray,
    positive: FeatureVector | np.ndarray,
    negative: FeatureVector | np.ndarray,
    margin: float = DEFAULT_MARGIN,
) -> float:
    """max(0, d(a,p) - d(a,n) + margin) with d = 1 - cosine."""
    cos = _sparse_cosine if isinstance(anchor, FeatureVector) else _dense_cosine
    d_ap = 1.0 - cos(anchor, positive)
    d_an = 1.0 - cos(anchor, negative)
    return max(0.0, d_ap - d_an + margin)


@dataclass(frozen=True)
class Triple:
    anchor: FeatureVector
    positive: FeatureVector
    negative: FeatureVector
    positive_source: str = ""
    negative_source: str = ""


@dataclass
class TripletBatch:
    triples: list[Triple]
    margin: float = DEFAULT_MARGIN

    def __post_init__(self):
        if self.margin <= 0:
            raise ValueError("margin must be positive")
        for t in self.triples:
            if t.positive_source and t.positive_source == t.negative_source:
                raise ValueError(f"triple with identical positive/negative source {t.positive_source!r}")

    @property
    def size(self) -> int:
        return len(self.triples)


# ---------------------------------------------------------------------------
# Index
# ---------------------------------------------------------------------------

PROOF_SPACE = "proof_text"
STATEMENT_SPACE = "statement_text"

_INDEX_FORMAT = "coqharness-index/1"
_MODEL_FORMAT = "coqharness-embedding/1"


@dataclass
class Index:
    space: str
    featurizer: Featurizer
    vectors: dict[str, FeatureVector]
    texts: dict[str, str]


def _record_text(record: TheoremRecord, space: str) -> str:
    if space == PROOF_SPACE:
        return record.proof_text
    if space == STATEMENT_SPACE:
        return record.statement_text
    raise ValueError(f"unknown index space {space!r}")


def build_index(
    train: list[TheoremRecord],
    space: str = PROOF_SPACE,
    feature_dim: int = DEFAULT_FEATURE_DIM,
) -> Index:
    if not train:
        raise EmptyTrainSet("cannot index an empty train set")
    texts = {r.id: _record_text(r, space) for r in train}
    featurizer = Featurizer.fit(list(texts.values()), feature_dim)
    vectors = {rid: featurizer.featurize(text) for rid, text in texts.items()}
    return Index(space, featurizer, vectors, texts)


def retrieve(
    index: Index,
    query: TheoremRecord,
    k: int,
    mode: str = "lexical",
    model: "EmbeddingModel | None" = None,
) -> list[tuple[str, float]]:
    """Top-k (id, score), descending score, ties broken by ascending id.

    The query is keyed on its statement text; the candidates on the index
    space. Embedded mode scores cosine between learned embeddings.
    """
    if k <= 0:
        return []
    query_vector = index.featurizer.featurize(query.statement_text)
    scores: list[tuple[str, float]] = []
    if mode == "lexical":
        for rid, vector in index.vectors.items():
            if rid == query.id:
                continue
            scores.append((rid, similarity(query_vector, vector)))
    elif mode == "embedded":
        if model is None:
            raise ValueError("embedded mode needs an embedding model")
        qe = model.embed(query_vector)
        for rid, vector in index.vectors.items():
            if rid == query.id:
                continue
            scores.append((rid, min(1.0, max(0.0, _dense_cosine(qe, model.embed(vector))))))
    else:
        raise ValueError(f"unknown retrieval mode {mode!r}")
    scores.sort(key=lambda item: (-item[1], item[0]))
    return scores[:k]


def save_index(index: Index, path: str | Path) -> None:
    payload = {
        "format": _INDEX_FORMAT,
        "space": index.space,
        "feature_dim": index.featurizer.feature_dim,
        "n_docs": index.featurizer.n_docs,
        "df": index.featurizer.df,
        "vectors": {rid: {str(k): w for k, w in v.entries.items()} for rid, v in index.vectors.items()},
        "texts": index.texts,
    }
    Path(path).write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")


def load_index(path: str | Path) -> Index:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format") != _INDEX_FORMAT:
        raise RetrieverError(f"unsupported index file format in {path}")
    featurizer = Featurizer(payload["feature_dim"], payload["df"], payload["n_docs"])
    vectors = {
        rid: FeatureVector.from_entries({int(k): w for k, w in entries.items()})
        for rid, entries in payload["vectors"].items()
    }
    return Index(payload["space"], featurizer, vectors, payload.get("texts", {}))


# ---------------------------------------------------------------------------
# Trainable linear embedding
# ---------------------------------------------------------------------------


@dataclass
class TrainHyper:
    learning_rate: float = 0.1
    epochs: int = 30
    margin: float = DEFAULT_MARGIN
    seed: int = 0
    feature_dim: int = DEFAULT_FEATURE_DIM
    embed_dim: int = DEFAULT_EMBED_DIM
    batch_size: int = 16
    holdout_fraction: float = 0.2

    def __post_init__(self):
        if self.margin <= 0:
            raise ValueError("margin must be positive")


@dataclass
class EmbeddingModel:
    weights: np.ndarray  # (feature_dim, embed_dim)
    hyper: TrainHyper
    history: list[dict] = field(default_factory=list)
    initial_objective: float = 0.0
    final_objective: float = 0.0

    @property
    def feature_dim(self) -> int:
        return int(self.weights.shape[0])

    @property
    def embed_dim(self) -> int:
        return int(self.weights.shape[1])

    def embed(self, vector: FeatureVector) -> np.ndarray:
        z = np.zeros(self.embed_dim)
        for k, w in vector.entries.items():
            z += w * self.weights[k]
        r = float(np.linalg.norm(z))
        return z / r if r > 0.0 else z


def _project(weights: np.ndarray, vector: FeatureVector) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    idx = np.fromiter(vector.entries.keys(), dtype=np.intp, count=len(vector.entries))
    val = np.fromiter(vector.entries.values(), dtype=np.float64, count=len(vector.entries))
    z = val @ weights[idx] if len(idx) else np.zeros(weights.shape[1])
    return idx, val, z


def _normalize_with_backprop(z: np.ndarray) -> tuple[np.ndarray, float]:
    r = float(np.linalg.norm(z))
    if r < 1e-12:
        return z.copy(), 0.0
    return z / r, r


def batch_objective_and_gradient(
    weights: np.ndarray, batch: TripletBatch
) -> tuple[float, np.ndarray]:
    """Objective (sum over triples) and its gradient w.r.t. the weights."""
    grad = np.zeros_like(weights)
    objective = 0.0
    for triple in batch.triples:
        ia, va, za = _project(weights, triple.anchor)
        ip, vp, zp = _project(weights, triple.positive)
        in_, vn, zn = _project(weights, triple.negative)
        a, ra = _normalize_with_backprop(za)
        p, rp = _normalize_with_backprop(zp)
        n, rn = _normalize_with_backprop(zn)
        s = float(np.dot(a, n) - np.dot(a, p)) + batch.margin
        if s <= 0.0:
            continue
        objective += s
        ga, gp, gn = n - p, -a, a
        for idx, val, vec, r, g in ((ia, va, a, ra, ga), (ip, vp, p, rp, gp), (in_, vn, n, rn, gn)):
            if r == 0.0 or len(idx) == 0:
                continue
            dz = (g - np.dot(g, vec) * vec) / r
            grad[idx] += np.outer(val, dz)
    return objective, grad


def batch_objective(weights: np.ndarray, batch: TripletBatch) -> float:
    objective = 0.0
    for triple in batch.triples:
        _, _, za = _project(weights, triple.anchor)
        _, _, zp = _project(weights, triple.positive)
        _, _, zn = _project(weights, triple.negative)
        a, _ = _normalize_with_backprop(za)
        p, _ = _normalize_with_backprop(zp)
        n, _ = _normalize_with_backprop(zn)
        objective += max(0.0, float(np.dot(a, n) - np.dot(a, p)) + batch.margin)
    return objective


def _sample_negatives(rng: np.random.Generator, count: int) -> list[int]:
    # j != i, uniform over the other records.
    out = []
    for i in range(count):
        j = int(rng.integers(count - 1))
        out.append(j if j < i else j + 1)
    return out


def train_embedding(train: list[TheoremRecord], hyper: TrainHyper | None = None) -> EmbeddingModel:
    """Fit the linear embedding by mini-batch gradient descent on the
    triplet objective; deterministic for a fixed seed; returns the weights
    with the lowest held-out objective across epochs."""
    hyper = hyper or TrainHyper()
    if len(train) < 2:
        raise TooFewRecords("need at least 2 records to form triples")

    featurizer = Featurizer.fit(
        [r.statement_text for r in train] + [r.proof_text for r in train], hyper.feature_dim
    )
    anchors = [featurizer.featurize(r.statement_text) for r in train]
    proofs = [featurizer.featurize(r.proof_text) for r in train]
    ids = [r.id for r in train]
    m = len(train)

    rng = np.random.default_rng(hyper.seed)
    weights = rng.standard_normal((hyper.feature_dim, hyper.embed_dim)) / math.sqrt(
        hyper.feature_dim
    )

    def make_batch(indices: list[int], negatives: list[int]) -> TripletBatch:
        triples = [
            Triple(anchors[i], proofs[i], proofs[j], ids[i], ids[j])
            for i, j in zip(indices, negatives)
        ]
        return TripletBatch(triples, hyper.margin)

    # Fixed evaluation and hold-out triples: negatives drawn once.
    eval_negatives = _sample_negatives(rng, m)
    eval_batch = make_batch(list(range(m)), eval_negatives)
    n_val = max(1, round(hyper.holdout_fraction * m)) if m > 2 else 1
    val_indices = sorted(rng.choice(m, size=n_val, replace=False).tolist())
    val_batch = make_batch(val_indices, [eval_negatives[i] for i in val_indices])
    train_indices = [i for i in range(m) if i not in set(val_indices)] or list(range(m))

    initial_objective = batch_objective(weights, eval_batch)
    best_weights = weights.copy()
    best_val = batch_objective(weights, val_batch)
    history: list[dict] = []

    for epoch in range(hyper.epochs):
        order = list(train_indices)
        rng.shuffle(order)
        negatives = {i: j for i, j in zip(range(m), _sample_negatives(rng, m))}
        epoch_objective = 0.0
        for start in range(0, len(order), hyper.batch_size):
            chunk = order[start : start + hyper.batch_size]
            batch = make_batch(chunk, [negatives[i] for i in chunk])
            objective, grad = batch_objective_and_gradient(weights, batch)
            if not math.isfinite(objective):
                raise NonFiniteLoss(epoch)
            epoch_objective += objective
            weights = weights - hyper.learning_rate * grad / max(1, batch.size)
        val_objective = batch_objective(weights, val_batch)
        if not math.isfinite(val_objective):
            raise NonFiniteLoss(epoch)
        history.append({"epoch": epoch, "train_objective": epoch_objective, "val_objective": val_objective})
        if val_objective < best_val:
            best_val = val_objective
            best_weights = weights.copy()

    model = EmbeddingModel(best_weights, hyper, history, initial_objective)
    model.final_objective = batch_objective(best_weights, eval_batch)
    return model


def save_embedding(model: EmbeddingModel, path: str | Path) -> None:
    payload = {
        "format": _MODEL_FORMAT,
        "feature_dim": model.feature_dim,
        "embed_dim": model.embed_dim,
        "hyper": asdict(model.hyper),
        "weights": model.weights.tolist(),
        "history": model.history,
        "initial_objective": model.initial_objective,
        "final_objective": model.final_objective,
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_embedding(path: str | Path) -> EmbeddingModel:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format") != _MODEL_FORMAT:
        raise RetrieverError(f"unsupported embedding file format in {path}")
    model = EmbeddingModel(
        np.asarray(payload["weights"], dtype=np.float64),
        TrainHyper(**payload["hyper"]),
        payload.get("history", []),
        payload.get("initial_objective", 0.0),
        payload.get("final_objective", 0.0),
    )
    if not np.all(np.isfinite(model.weights)):
        raise RetrieverError("embedding weights contain non-finite values")
    return model

