"""A backfill session over a complete archive closes cleanly.

The live tail of a backfill session re-taps tweets the archive already
holds. Re-archiving an identical tweet must be a no-op: no row rewritten
and no FTS purge (a full scan of the FTS table per tweet, which kept the
storage writer busy past ``close()``'s join timeout until it died on the
closed database).
"""

from __future__ import annotations

import threading

from repro import EngineConfig, TweeQL
from repro.storage import HistoricalStore
from repro.twitter.workloads import soccer_match_scenario

QUERY = (
    "SELECT tweet_id, text, created_at FROM twitter "
    "WHERE text CONTAINS 'goal';"
)


def test_backfill_session_rearchives_nothing_and_closes_cleanly(tmp_path):
    scenario = soccer_match_scenario(intensity=0.2)
    path = str(tmp_path / "archive.db")
    archiving = TweeQL.for_scenarios(
        scenario, config=EngineConfig(storage_path=path), delivery_ratio=1.0
    )
    archiving.query("SELECT tweet_id FROM twitter;").all()
    archiving.close()
    with HistoricalStore(path) as store:
        archived = [(t.tweet_id, t.created_at, t.text) for t in store.scan()]

    live = TweeQL.for_scenarios(scenario, delivery_ratio=1.0)
    live_rows = live.query(QUERY).all()
    live_ids = [r["tweet_id"] for r in live.query("SELECT tweet_id FROM twitter;").all()]

    errors: list = []
    previous_hook = threading.excepthook
    threading.excepthook = errors.append
    try:
        hybrid = TweeQL.for_scenarios(
            scenario,
            config=EngineConfig(storage_path=path, backfill=True),
            delivery_ratio=1.0,
        )
        writer = hybrid.storage_writer
        store = hybrid.store
        changes_before = store._conn.total_changes
        handle = hybrid.query(QUERY)
        rows = handle.all()
        served = handle.backfill_rows
        handle.close()
        writer.flush()
        rewritten = store._conn.total_changes - changes_before
        hybrid.close()
        writer._thread.join(timeout=30.0)
    finally:
        threading.excepthook = previous_hook

    assert served > 0
    assert writer.written > 0  # the live tail did re-tap archived tweets
    assert rewritten == 0
    assert not writer._thread.is_alive()
    assert errors == []
    assert rows == live_rows
    with HistoricalStore(path) as store:
        assert [(t.tweet_id, t.created_at, t.text) for t in store.scan()] == archived
    assert [tweet_id for tweet_id, _ts, _text in archived] == live_ids
