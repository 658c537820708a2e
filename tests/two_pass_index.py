"""The two-pass index build that `coqharness.retriever.build_index`
replaced, kept as a reference for the parity tests. It tokenizes each text
once to count document frequencies and again to featurize it, and hashes
each token and computes its idf at every occurrence in a document.
"""

from __future__ import annotations

import math
from collections import Counter

from coqharness.retriever import (
    DEFAULT_FEATURE_DIM,
    PROOF_SPACE,
    FeatureVector,
    Featurizer,
    Index,
    _record_text,
    hash_token,
    tokenize,
)


def two_pass_fit(documents: list[str], feature_dim: int = DEFAULT_FEATURE_DIM) -> Featurizer:
    df: dict[str, int] = {}
    for doc in documents:
        for token in dict.fromkeys(tokenize(doc)):
            df[token] = df.get(token, 0) + 1
    return Featurizer(feature_dim, df, len(documents))


def two_pass_featurize(featurizer: Featurizer, text: str) -> FeatureVector:
    counts = Counter(tokenize(text))
    entries: dict[int, float] = {}
    for token, tf in counts.items():
        bucket = hash_token(token, featurizer.feature_dim)
        idf = math.log((1 + featurizer.n_docs) / (1 + featurizer.df.get(token, 0))) + 1.0
        entries[bucket] = entries.get(bucket, 0.0) + tf * idf
    return FeatureVector.from_entries(entries)


def two_pass_build_index(train, space: str = PROOF_SPACE,
                         feature_dim: int = DEFAULT_FEATURE_DIM) -> Index:
    texts = {r.id: _record_text(r, space) for r in train}
    featurizer = two_pass_fit(list(texts.values()), feature_dim)
    vectors = {rid: two_pass_featurize(featurizer, text) for rid, text in texts.items()}
    return Index.from_vectors(space, featurizer, vectors)
