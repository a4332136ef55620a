"""The Relevant Tweets panel.

Section 3.2: "The Relevant Tweets panel lists tweets that fall within the
event's time window. These tweets are sorted by similarity to the event or
peak keywords, so that tweets near the top are most representative of the
selected event. Tweets are colored blue, red, or white depending on whether
their detected sentiment is positive, negative, or neutral."
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.nlp.keywords import KeywordExtractor
from repro.nlp.similarity import rank_by_tokens
from repro.nlp.tokenize import content_tokens
from repro.twitter.models import Tweet


@dataclass(frozen=True)
class RelevantTweet:
    """One panel entry: the tweet, its similarity, sentiment, and color."""

    tweet: Tweet
    similarity: float
    sentiment: int

    @property
    def color(self) -> str:
        if self.sentiment > 0:
            return "blue"
        if self.sentiment < 0:
            return "red"
        return "white"


def relevant_tweets(
    tweets: Sequence[Tweet],
    keywords: Sequence[str],
    sentiments: Sequence[int],
    extractor: KeywordExtractor | None = None,
    limit: int = 10,
    tokens_of: Callable[[Tweet], Sequence[str]] | None = None,
) -> list[RelevantTweet]:
    """Rank tweets by similarity to the (event or peak) keywords.

    Args:
        tweets: candidate tweets (already time-filtered by the caller).
        keywords: event keywords, or event keywords + peak terms when a
            peak is selected.
        sentiments: classifier labels aligned with ``tweets``.
        extractor: background model for TF-IDF weighting (the labeler's).
        limit: panel size.
        tokens_of: a tweet's content tokens when the caller keeps them;
            by default each text is tokenized here.
    """
    if len(tweets) != len(sentiments):
        raise ValueError("tweets and sentiments must align")
    sentiment_of = {id(tweet): label for tweet, label in zip(tweets, sentiments)}
    ranked = rank_by_tokens(
        tweets,
        keywords,
        tokens_of or (lambda tweet: content_tokens(tweet.text)),
        extractor=extractor,
    )
    # Deduplicate near-identical texts (Twitter is full of retweets; a
    # panel of ten copies of one tweet is useless). URLs are stripped from
    # the dedup key: the same reaction with ten different shortened links
    # is still one reaction.
    import re

    panel: list[RelevantTweet] = []
    seen_texts: set[str] = set()
    for tweet, similarity in ranked:
        stripped = re.sub(r"https?://\S+", "", tweet.text.lower())
        stripped = re.sub(r"^rt @\w+:\s*", "", stripped)
        normalized = " ".join(stripped.split())
        if normalized in seen_texts:
            continue
        seen_texts.add(normalized)
        panel.append(
            RelevantTweet(
                tweet=tweet,
                similarity=round(similarity, 6),
                sentiment=sentiment_of[id(tweet)],
            )
        )
        if len(panel) >= limit:
            break
    return panel
