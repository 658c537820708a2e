"""A two-pass index build, kept as a reference for the parity tests against
`coqharness.retriever.build_index`. It tokenizes each text once to count
document frequencies and again to featurize it, and computes each token's
idf afresh in every document.
"""

from __future__ import annotations

import math
from collections import Counter

from coqharness.retriever import PROOF_SPACE, FeatureVector, Index, _record_text, tokenize


def two_pass_fit(documents: list[str]) -> tuple[dict[str, int], int]:
    """Each token's document frequency, and the number of documents."""
    df: dict[str, int] = {}
    for doc in documents:
        for token in dict.fromkeys(tokenize(doc)):
            df[token] = df.get(token, 0) + 1
    return df, len(documents)


def two_pass_featurize(df: dict[str, int], n_docs: int, text: str) -> FeatureVector:
    entries: dict[str, float] = {}
    for token, tf in Counter(tokenize(text)).items():
        entries[token] = tf * (math.log((1 + n_docs) / (1 + df.get(token, 0))) + 1.0)
    return FeatureVector.from_entries(entries)


def two_pass_build_index(train, space: str = PROOF_SPACE) -> Index:
    texts = {r.id: _record_text(r, space) for r in train}
    df, n_docs = two_pass_fit(list(texts.values()))
    vectors = {rid: two_pass_featurize(df, n_docs, text) for rid, text in texts.items()}
    return Index.from_vectors(space, vectors)
