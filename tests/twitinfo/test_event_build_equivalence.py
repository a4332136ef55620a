"""A shared TwitInfo event build equals one built the plain way.

The fast build tracks every event on one shared scan (batch-at-a-time
fanout, fused keyword filter) and analyses each event tweet's text once
at ingest, with the key-term model, peak labels and relevance ranking
reading the stored tokens. The reference build runs each event on its
own session at ``batch_size=1`` and feeds the panels through the
text-taking APIs (``PeakLabeler.observe``/``annotate``,
``relevant_tweets`` tokenizing each text), so every stage re-derives its
tokens. Both must render byte-identical dashboards — the overview and
every peak drill-down — on the benchmark's three scenarios (soccer,
earthquakes, news cascade; 1,000 users, seed 2011).
"""

from __future__ import annotations

import pytest

from repro import EngineConfig, TweeQL
from repro.twitinfo import TwitInfoApp
from repro.twitinfo.app import TrackedEvent
from repro.twitinfo.event import EventDefinition
from repro.twitinfo.mapview import MapMarker
from repro.twitinfo.relevance import relevant_tweets
from repro.twitter.users import UserPopulation
from repro.twitter.workloads import (
    breaking_news_cascade_scenario,
    earthquake_scenario,
    soccer_match_scenario,
)

SEED = 2011

pytestmark = pytest.mark.slow


class TextEvent(TrackedEvent):
    """A tracked event whose panels tokenize tweet text at every use."""

    def ingest(self, tweet, sentiment):
        self.log.append(tweet)
        self.timeline.add(tweet.created_at)
        self.labeler.observe(tweet.text)
        self.sentiments[tweet.tweet_id] = sentiment
        for url in tweet.entities.urls:
            self.links.add(url, tweet.created_at)
        if tweet.geo is not None:
            self.map.add(
                MapMarker(
                    lat=tweet.geo[0],
                    lon=tweet.geo[1],
                    sentiment=sentiment,
                    timestamp=tweet.created_at,
                    text=tweet.text,
                )
            )

    def _annotate(self, peak):
        texts = [t.text for t in self.log.scan(peak.start, peak.end)]
        return self.labeler.annotate(peak, texts)

    def relevant(self, start=None, end=None, extra_terms=(), limit=10):
        tweets = list(self.log.scan(start, end))
        return relevant_tweets(
            tweets,
            tuple(self.definition.keywords) + extra_terms,
            [self.sentiments[t.tweet_id] for t in tweets],
            extractor=self.labeler.extractor,
            limit=limit,
        )


@pytest.fixture(scope="module")
def scenarios():
    population = UserPopulation(size=1000, seed=SEED)
    return [
        soccer_match_scenario(seed=SEED, population=population),
        earthquake_scenario(seed=SEED, population=population, intensity=0.2),
        breaking_news_cascade_scenario(seed=SEED, population=population),
    ]


def session(scenarios, config=None):
    return TweeQL.for_scenarios(
        *scenarios, config=config, delivery_ratio=1.0, seed=SEED
    )


def pages(app, tracked):
    """The overview page, then each peak's drill-down page."""
    out = {"overview": app.dashboard(tracked).render_html()}
    for peak in tracked.peaks:
        out[peak.label] = app.dashboard(tracked, peak.label).render_html()
    return out


def test_shared_build_renders_reference_dashboards(scenarios):
    names = ("soccer", "earthquakes", "cascade")
    shared_app = TwitInfoApp(session(scenarios))
    shared = shared_app.track_many(
        {name: s.keywords for name, s in zip(names, scenarios)}
    )

    for name, scenario, tracked in zip(names, scenarios, shared):
        app = TwitInfoApp(session(scenarios, EngineConfig(batch_size=1)))
        reference = TextEvent(
            EventDefinition(name=name, keywords=tuple(scenario.keywords))
        )
        app.events[name] = reference
        app.run_event(reference)

        assert len(tracked.log) == len(reference.log) > 0, name
        assert [p.label for p in tracked.peaks] == [
            p.label for p in reference.peaks
        ], name
        assert tracked.peaks, name
        assert pages(shared_app, tracked) == pages(app, reference), name
