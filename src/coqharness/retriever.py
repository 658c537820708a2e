"""Similarity search over theorem-proof pairs.

Records and queries share one sparse feature space (hashed, TF-IDF weighted
Coq-aware tokens); candidates are ranked by plain cosine over those vectors.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import TheoremRecord

DEFAULT_FEATURE_DIM = 4096

_TOKEN_RE = re.compile(r"[a-z_][a-z0-9_']*|\d+|\S")


class RetrieverError(Exception):
    pass


class EmptyTrainSet(RetrieverError):
    pass


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


@dataclass
class Featurizer:
    """Hashes tokens into a fixed-dimension TF-IDF weighted sparse space.
    `df` and `n_docs` do not change once it is built."""

    feature_dim: int = DEFAULT_FEATURE_DIM
    df: dict[str, int] = field(default_factory=dict)
    n_docs: int = 0
    # token -> (bucket, idf), computed on a token's first use. Threads that
    # featurize at once may each compute the same token's entry; both compute
    # equal values from the same fields and either may be kept, so a vector
    # never depends on which thread stored it.
    _terms: dict[str, tuple[int, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @staticmethod
    def fit(documents: list[Counter[str]], feature_dim: int = DEFAULT_FEATURE_DIM) -> "Featurizer":
        """Document frequencies over documents given as `Counter(tokenize(text))`."""
        df: dict[str, int] = {}
        for counts in documents:
            for token in counts:
                df[token] = df.get(token, 0) + 1
        return Featurizer(feature_dim, df, len(documents))

    def idf(self, token: str) -> float:
        return math.log((1 + self.n_docs) / (1 + self.df.get(token, 0))) + 1.0

    def vector(self, counts: Counter[str]) -> FeatureVector:
        """The vector of a document given as `Counter(tokenize(text))`."""
        terms = self._terms
        entries: dict[int, float] = {}
        for token, tf in counts.items():
            term = terms.get(token)
            if term is None:
                term = terms[token] = (hash_token(token, self.feature_dim), self.idf(token))
            bucket, idf = term
            entries[bucket] = entries.get(bucket, 0.0) + tf * idf
        return FeatureVector.from_entries(entries)

    def featurize(self, text: str) -> FeatureVector:
        return self.vector(Counter(tokenize(text)))


def _sparse_cosine(a: FeatureVector, b: FeatureVector) -> float:
    if a.norm == 0.0 or b.norm == 0.0:
        return 0.0
    small, large = (a, b) if len(a.entries) <= len(b.entries) else (b, a)
    dot = math.fsum(w * large.entries.get(k, 0.0) for k, w in small.entries.items())
    return dot / (a.norm * b.norm)


def similarity(a: FeatureVector, b: FeatureVector) -> float:
    """Cosine similarity clamped to [0, 1]; 0 when either vector is zero."""
    return min(1.0, max(0.0, _sparse_cosine(a, b)))


# ---------------------------------------------------------------------------
# Index
# ---------------------------------------------------------------------------

PROOF_SPACE = "proof_text"
STATEMENT_SPACE = "statement_text"

_INDEX_FORMAT = "coqharness-index/2"


@dataclass
class Index:
    """The postings of a set of feature vectors, as stored in an index file.
    Read-only once built: retrieve's memo derives from it."""

    space: str
    featurizer: Featurizer
    # bucket, as the decimal string a JSON key holds -> [[id, weight]] over
    # the vectors of nonzero norm
    postings: dict[str, list[list]]
    norms: dict[str, float]  # id -> its vector's norm, for every id indexed
    _ids: list[str] = field(init=False, repr=False, compare=False)
    # (query id, statement text, k) -> retrieve's ranking
    _ranked: dict[tuple[str, str, int], list[tuple[str, float]]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        self._ids = sorted(self.norms)
        self._ranked = {}

    @staticmethod
    def from_vectors(space: str, featurizer: Featurizer, vectors: dict[str, FeatureVector]) -> "Index":
        postings: dict[str, list[list]] = {}
        for rid, vector in vectors.items():
            if vector.norm == 0.0:  # scores 0 against every query
                continue
            for bucket, weight in vector.entries.items():
                postings.setdefault(str(bucket), []).append([rid, weight])
        return Index(space, featurizer, postings, {rid: v.norm for rid, v in vectors.items()})


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
    counts = {r.id: Counter(tokenize(_record_text(r, space))) for r in train}
    featurizer = Featurizer.fit(list(counts.values()), feature_dim)
    vectors = {rid: featurizer.vector(tokens) for rid, tokens in counts.items()}
    return Index.from_vectors(space, featurizer, vectors)


def retrieve(index: Index, query: TheoremRecord, k: int) -> list[tuple[str, float]]:
    """Top-k (id, score), descending score, ties broken by ascending id.

    The query is keyed on its statement text; the candidates on the index
    space. Each score equals `similarity` bit for bit. A ranking is computed
    once per (query id, statement text, k) and kept on the index.
    """
    if k <= 0:
        return []
    key = (query.id, query.statement_text, k)
    ranked = index._ranked.get(key)
    if ranked is None:
        ranked = index._ranked.setdefault(key, _rank(index, query, k))
    return list(ranked)


def _rank(index: Index, query: TheoremRecord, k: int) -> list[tuple[str, float]]:
    """Score only the ids that share a bucket with the query, then fill with
    zero scores in id order. Products commute and `math.fsum` is exact, so
    summing the shared buckets' products equals `similarity`'s sum."""
    query_vector = index.featurizer.featurize(query.statement_text)
    products: dict[str, list[float]] = {}
    if query_vector.norm != 0.0:
        for bucket, weight in query_vector.entries.items():
            for rid, other in index.postings.get(str(bucket), ()):
                products.setdefault(rid, []).append(weight * other)
    products.pop(query.id, None)
    scores = []
    for rid, terms in products.items():
        cosine = math.fsum(terms) / (query_vector.norm * index.norms[rid])
        score = min(1.0, max(0.0, cosine))
        if score > 0.0:
            scores.append((rid, score))
    scores = heapq.nsmallest(k, scores, key=lambda item: (-item[1], item[0]))
    if len(scores) < k:
        scored = {rid for rid, _ in scores}
        scored.add(query.id)
        zeros = (rid for rid in index._ids if rid not in scored)
        scores.extend((rid, 0.0) for rid in itertools.islice(zeros, k - len(scores)))
    return scores


def save_index(index: Index, path: str | Path) -> None:
    payload = {
        "format": _INDEX_FORMAT,
        "space": index.space,
        "feature_dim": index.featurizer.feature_dim,
        "n_docs": index.featurizer.n_docs,
        "df": index.featurizer.df,
        "postings": index.postings,
        "norms": index.norms,
    }
    Path(path).write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")


def load_index(path: str | Path) -> Index:
    """The index in a file, as stored: JSON floats read back exactly, so
    nothing is recomputed, only checked. A malformed file raises."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    found = payload.get("format") if isinstance(payload, dict) else None
    if found != _INDEX_FORMAT:
        raise RetrieverError(
            f"index format {found!r}, expected {_INDEX_FORMAT!r}: re-run index to rewrite it"
        )
    featurizer = Featurizer(payload["feature_dim"], payload["df"], payload["n_docs"])
    postings, norms = payload["postings"], payload["norms"]
    fields = (payload["space"], featurizer.feature_dim, featurizer.n_docs, featurizer.df,
              postings, norms)
    if tuple(map(type, fields)) != (str, int, int, dict, dict, dict):
        raise RetrieverError("a field has the wrong type")
    for pairs in postings.values():
        for rid, weight in pairs:  # a ValueError unless a pair
            if type(weight) is not float or not norms.get(rid, 0.0) > 0.0:
                raise RetrieverError(f"a posting of {rid!r} has no norm or no weight")
    return Index(payload["space"], featurizer, postings, norms)
