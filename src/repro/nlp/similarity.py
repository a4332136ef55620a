"""Cosine-similarity ranking.

TwitInfo's Relevant Tweets panel sorts tweets "by similarity to the event
or peak keywords, so that tweets near the top are most representative".
This module implements that ranking: bag-of-words cosine between each tweet
and the keyword query, with TF-IDF weighting when an extractor's background
model is available.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from collections.abc import Sequence
from typing import TypeVar, Callable

from repro.nlp.keywords import KeywordExtractor
from repro.nlp.tokenize import content_tokens

T = TypeVar("T")


def _vectorize(
    tokens: Sequence[str], idf: Callable[[str], float] | None
) -> dict[str, float]:
    counts = Counter(tokens)
    if idf is None:
        return dict(counts)
    return {term: count * idf(term) for term, count in counts.items()}


def cosine_similarity(
    left: dict[str, float], right: dict[str, float]
) -> float:
    """Cosine between two sparse weight vectors (0.0 when either is empty)."""
    if not left or not right:
        return 0.0
    if len(right) < len(left):
        left, right = right, left
    dot = sum(weight * right.get(term, 0.0) for term, weight in left.items())
    if dot == 0.0:
        return 0.0
    norm_left = math.sqrt(sum(w * w for w in left.values()))
    norm_right = math.sqrt(sum(w * w for w in right.values()))
    return dot / (norm_left * norm_right)


def rank_by_similarity(
    items: Sequence[T],
    keywords: Sequence[str],
    text_of: Callable[[T], str],
    extractor: KeywordExtractor | None = None,
    limit: int | None = None,
) -> list[tuple[T, float]]:
    """Rank items by cosine similarity of their text to the keywords.

    Args:
        items: anything with extractable text (tweets, rows…).
        keywords: the event or peak keywords.
        text_of: text accessor for an item.
        extractor: optional background model for TF-IDF weighting.
        limit: truncate the ranking.

    Returns (item, similarity) pairs, best first; ties broken by input
    order (stable sort), so earlier tweets win among equals.
    """
    return rank_by_tokens(
        items,
        keywords,
        lambda item: content_tokens(text_of(item)),
        extractor=extractor,
        limit=limit,
    )


def rank_by_tokens(
    items: Sequence[T],
    keywords: Sequence[str],
    tokens_of: Callable[[T], Sequence[str]],
    extractor: KeywordExtractor | None = None,
    limit: int | None = None,
) -> list[tuple[T, float]]:
    """:func:`rank_by_similarity` with each item's content tokens given
    by ``tokens_of`` (already tokenized, e.g. once at ingest)."""
    # One ranking reads the model at one state: memoize each term's idf.
    idf = functools.cache(extractor.idf) if extractor is not None else None
    query_vector = _vectorize(
        [token for keyword in keywords for token in content_tokens(keyword)]
        or [k.lower() for k in keywords],
        idf,
    )
    scored = [
        (item, cosine_similarity(
            _vectorize(tokens_of(item), idf), query_vector
        ))
        for item in items
    ]
    scored.sort(key=lambda pair: -pair[1])
    return scored[:limit] if limit is not None else scored
