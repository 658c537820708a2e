"""Similarity search over theorem-proof pairs.

Records and queries share one sparse feature space (TF-IDF weighted
Coq-aware tokens, each keyed by the token itself); candidates are ranked by
plain cosine over those vectors.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import TheoremRecord

_TOKEN_RE = re.compile(r"[a-z_][a-z0-9_']*|\d+|\S")


class RetrieverError(Exception):
    pass


def tokenize(text: str) -> list[str]:
    """Lowercased Coq-aware tokens: identifiers whole, punctuation single."""
    return _TOKEN_RE.findall(text.lower())


def _idf(documents: int, df: int) -> float:
    return math.log((1 + documents) / (1 + df)) + 1.0


@dataclass(frozen=True)
class FeatureVector:
    entries: dict[str, float]  # token -> weight
    norm: float

    @staticmethod
    def from_entries(entries: dict[str, float]) -> "FeatureVector":
        entries = {k: v for k, v in entries.items() if v != 0.0}
        norm = math.sqrt(math.fsum(v * v for v in entries.values()))
        return FeatureVector(entries, norm)


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

_INDEX_FORMAT = "coqharness-index/3"


@dataclass
class Index:
    """The postings of a set of feature vectors, as stored in an index file.
    A token's document frequency is the length of its posting list and the
    number of documents that of `norms`. Read-only once built: retrieve's
    memo derives from it."""

    space: str
    postings: dict[str, list[list]]  # token -> [[id, weight]] over the vectors of nonzero norm
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
    def from_vectors(space: str, vectors: dict[str, FeatureVector]) -> "Index":
        postings: dict[str, list[list]] = {}
        for rid, vector in vectors.items():
            if vector.norm == 0.0:  # scores 0 against every query
                continue
            for token, weight in vector.entries.items():
                postings.setdefault(token, []).append([rid, weight])
        return Index(space, postings, {rid: v.norm for rid, v in vectors.items()})

    def idf(self, token: str) -> float:
        return _idf(len(self.norms), len(self.postings.get(token, ())))

    def featurize(self, text: str) -> FeatureVector:
        counts = Counter(tokenize(text))
        return FeatureVector.from_entries({t: tf * self.idf(t) for t, tf in counts.items()})


def _record_text(record: TheoremRecord, space: str) -> str:
    if space == PROOF_SPACE:
        return record.proof_text
    if space == STATEMENT_SPACE:
        return record.statement_text
    raise ValueError(f"unknown index space {space!r}")


def build_index(train: list[TheoremRecord], space: str = PROOF_SPACE) -> Index:
    counts = {r.id: Counter(tokenize(_record_text(r, space))) for r in train}
    df = Counter(token for tokens in counts.values() for token in tokens)
    idf = {token: _idf(len(counts), n) for token, n in df.items()}
    vectors = {rid: FeatureVector.from_entries({t: tf * idf[t] for t, tf in tokens.items()})
               for rid, tokens in counts.items()}
    return Index.from_vectors(space, vectors)


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
    """Score only the ids that share a token with the query, then fill with
    zero scores in id order. Products commute and `math.fsum` is exact, so
    summing the shared tokens' products equals `similarity`'s sum."""
    query_vector = index.featurize(query.statement_text)
    products: dict[str, list[float]] = {}
    if query_vector.norm != 0.0:
        for token, weight in query_vector.entries.items():
            for rid, other in index.postings.get(token, ()):
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
    payload = {"format": _INDEX_FORMAT, "space": index.space, "postings": index.postings,
               "norms": index.norms}
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
    if unknown := payload.keys() - {"format", "space", "postings", "norms"}:
        raise RetrieverError(f"unknown key {', '.join(map(repr, sorted(unknown)))}")
    space, postings, norms = payload["space"], payload["postings"], payload["norms"]
    if (type(space), type(postings), type(norms)) != (str, dict, dict):
        raise RetrieverError("a field has the wrong type")
    for token, pairs in postings.items():
        for rid, weight in pairs:  # a ValueError unless a pair
            norm = norms.get(rid)
            if type(weight) is not float or type(norm) is not float or not norm > 0.0:
                raise RetrieverError(f"a posting of {rid!r} has no norm or no weight")
        if len({rid for rid, _ in pairs}) < len(pairs):  # its length is the token's df
            raise RetrieverError(f"the posting list of {token!r} names an id twice")
    return Index(space, postings, norms)
