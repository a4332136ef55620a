"""Synthetic user population."""

import random

import pytest

from repro import rng as rng_mod
from repro.twitter.users import UserPopulation


@pytest.fixture(scope="module")
def population():
    return UserPopulation(size=800, seed=3)


def test_size(population):
    assert len(population) == 800
    assert len(population.users) == 800


def test_deterministic_for_seed():
    a = UserPopulation(size=50, seed=9)
    b = UserPopulation(size=50, seed=9)
    assert [u.location for u in a.users] == [u.location for u in b.users]


def test_different_seeds_differ():
    a = UserPopulation(size=50, seed=9)
    b = UserPopulation(size=50, seed=10)
    assert [u.location for u in a.users] != [u.location for u in b.users]


def test_rejects_empty():
    with pytest.raises(ValueError):
        UserPopulation(size=0)


def test_every_user_has_home(population):
    for user in population.users:
        assert user.home is not None
        city = population.home_city(user)
        assert city.coordinates == user.home


def test_some_locations_ungeocodable(population):
    from repro.geo.geocode import Geocoder

    geocoder = Geocoder()
    unresolved = sum(
        1 for u in population.users if geocoder.try_geocode(u.location) is None
    )
    assert 0.10 * len(population) < unresolved < 0.40 * len(population)


def test_geo_enabled_fraction(population):
    enabled = sum(1 for u in population.users if u.geo_enabled)
    assert 0.08 * len(population) < enabled < 0.30 * len(population)


def test_activity_is_skewed(population):
    """Zipf activity: a small head of users authors a large tweet share."""
    rng = rng_mod.derive(1, "test")
    counts: dict[int, int] = {}
    for _ in range(4000):
        author = population.sample_author(rng)
        counts[author.user_id] = counts.get(author.user_id, 0) + 1
    top = sorted(counts.values(), reverse=True)[:40]
    assert sum(top) > 0.2 * 4000


def test_sample_author_near_respects_radius(population):
    rng = random.Random(5)
    tokyo = population.gazetteer.lookup("Tokyo")
    for _ in range(20):
        author = population.sample_author_near(rng, tokyo.lat, tokyo.lon, 5.0)
        home = population.home_city(author)
        # Falls back globally only if nobody is near Tokyo — with this
        # population there always is someone.
        assert abs(home.lat - tokyo.lat) <= 5.0
        assert abs(home.lon - tokyo.lon) <= 5.0


def test_geotag_only_for_enabled(population):
    rng = random.Random(5)
    for user in population.users[:100]:
        tag = population.geotag_for(rng, user)
        if not user.geo_enabled:
            assert tag is None
        else:
            assert tag is not None
            assert abs(tag[0] - user.home[0]) <= 0.15 + 1e-9
            assert abs(tag[1] - user.home[1]) <= 0.15 + 1e-9


def test_tokyo_outnumbers_cape_town():
    """The paper's uneven-groups premise holds in the population."""
    population = UserPopulation(size=4000, seed=2)
    homes = [population.home_city(u).name for u in population.users]
    assert homes.count("Tokyo") > 5 * homes.count("Cape Town")


class _WeightsFormPopulation(UserPopulation):
    """Author draws through ``choices(weights=...)``, re-accumulated per
    draw — the reference the cached cumulative weights must match."""

    def sample_author(self, rng):
        return rng.choices(self.users, weights=self._activity, k=1)[0]

    def sample_author_near(self, rng, lat, lon, radius_deg):
        nearby = [
            (user, weight)
            for user, weight, city in zip(
                self.users, self._activity, self._homes
            )
            if abs(city.lat - lat) <= radius_deg
            and abs(city.lon - lon) <= radius_deg
        ]
        if not nearby:
            return self.sample_author(rng)
        users, weights = zip(*nearby)
        return rng.choices(list(users), weights=list(weights), k=1)[0]


def test_firehose_identical_to_weights_form():
    """Cumulative-weight draws reproduce the ``weights=`` firehose bit for
    bit, on global and on localized (earthquake) authors."""
    from repro.twitter import workloads

    def firehose(population_cls):
        population = population_cls(size=300, seed=11)
        return [
            (t.tweet_id, t.created_at, t.user.user_id, t.text, t.geo)
            for scenario in (
                workloads.soccer_match_scenario(seed=11, population=population),
                workloads.earthquake_scenario(
                    seed=11, population=population, intensity=0.2
                ),
            )
            for t in scenario.tweets
        ]

    fast = firehose(UserPopulation)
    assert fast == firehose(_WeightsFormPopulation)
    assert len(fast) > 1000
