"""Columnar layout and shard backends are pure performance knobs.

The acceptance sweep: every point of {row, columnar} × batch {1, 7, 256}
× workers {1, 4} × backend {thread, process} must be row-for-row — and
stats-for-stats — identical on the paper's demo queries and on the
static query shapes. Plus the observability contract for the process
backend (per-shard stats and trace lanes ship back to the parent) and
the planner's backend-fallback diagnostics.

The process points run with ``clamp_workers=False`` so the fabric is
exercised even on single-core CI hosts (where the planner would
otherwise, correctly, fall back to threads).
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro import EngineConfig, TweeQL
from repro.twitter.users import UserPopulation
from repro.twitter.workloads import soccer_match_scenario

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="process backend requires the fork start method"
)

BASE_TS = 1_307_000_000.0
SCHEMA = ("tweet_id", "text", "loc", "created_at", "lang", "followers")

STATIC_ROWS = [
    {
        "tweet_id": 1000 + i,
        "created_at": BASE_TS + 13.0 * i,
        "text": ("goal! " if i % 3 else "nothing here ") + f"tweet {i}",
        "lang": ("en", "es", "pt")[i % 3],
        "followers": (37 * i) % 2000 if i % 7 else None,
        "loc": ("London", "NYC", None)[i % 3],
    }
    for i in range(200)
]

#: Query shapes that exercise the vectorized filter, columnar projection,
#: and columnar group-key paths. LIMIT shapes stop the scan early, so
#: only output rows are comparable there (as in test_parallel).
SHAPES = {
    "filter_project": (
        "SELECT text, followers FROM s "
        "WHERE text CONTAINS 'goal' AND followers > 500;",
        "full",
    ),
    "udf_project": (
        "SELECT lower(text) AS t, length(text) AS n FROM s "
        "WHERE followers >= 0 AND lang IN ('en', 'pt');",
        "full",
    ),
    "group_window": (
        "SELECT COUNT(*) AS n, AVG(followers) AS f, lang FROM s "
        "GROUP BY lang WINDOW 120 seconds;",
        "full",
    ),
    "limit": (
        "SELECT text FROM s WHERE followers > 200 LIMIT 9;",
        "limit",
    ),
    "sliding_window": (
        "SELECT COUNT(*) AS n, AVG(followers) AS f, lang FROM s "
        "GROUP BY lang WINDOW 120 seconds EVERY 40 seconds;",
        "full",
    ),
    "hour_group": (
        "SELECT hour(created_at) AS h, COUNT(*) AS n, MAX(length(text)) AS m "
        "FROM s WHERE length(text) > 12 GROUP BY hour(created_at) "
        "WINDOW 600 seconds;",
        "full",
    ),
}

#: Stats that must match the serial row-engine exactly. windows_closed
#: and batches vary structurally with sharding/batch size (pre-existing).
EXACT_STATS = (
    "rows_after_filter",
    "predicate_evaluations",
    "rows_emitted",
    "groups_emitted",
)


def make_session(workers=1, batch_size=256, columnar=True, backend="thread"):
    config = EngineConfig(
        workers=workers,
        batch_size=batch_size,
        columnar=columnar,
        shard_backend=backend,
        clamp_workers=False,
    )
    session = TweeQL(config=config)
    session.register_source(
        "s", lambda: iter([dict(r) for r in STATIC_ROWS]), SCHEMA
    )
    return session


def run(session, sql):
    handle = session.query(sql)
    rows = handle.all()
    stats = handle.stats.as_dict()
    handle.close()
    return rows, stats


BACKENDS = ["thread", pytest.param("process", marks=needs_fork)]


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("batch", [1, 7, 256])
@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("backend", BACKENDS)
def test_columnar_matches_row_engine(shape, batch, workers, backend):
    sql, stats_mode = SHAPES[shape]
    base_rows, base_stats = run(
        make_session(workers=1, batch_size=1, columnar=False), sql
    )
    rows, stats = run(
        make_session(
            workers=workers, batch_size=batch, columnar=True, backend=backend
        ),
        sql,
    )
    assert rows == base_rows, (shape, batch, workers, backend)
    keys = EXACT_STATS if stats_mode == "full" else ("rows_emitted",)
    if stats_mode == "full" and workers == 1:
        keys = keys + ("rows_scanned",)
    for key in keys:
        assert stats[key] == base_stats[key], (key, shape, batch, workers)


@pytest.mark.parametrize("backend", BACKENDS)
def test_paper_demo_queries_identical_across_backends(news_week, backend):
    from tests.integration.test_paper_queries import QUERY_2, QUERY_3

    for sql, limit in ((QUERY_2, 1500), (QUERY_3, None)):
        def run_config(workers, batch, columnar, backend="thread"):
            session = TweeQL.for_scenarios(
                news_week,
                seed=11,
                config=EngineConfig(
                    workers=workers,
                    batch_size=batch,
                    columnar=columnar,
                    shard_backend=backend,
                    clamp_workers=False,
                ),
            )
            handle = session.query(sql)
            rows = handle.all(limit=limit)
            handle.close()
            return rows

        baseline = run_config(workers=1, batch=1, columnar=False)
        assert run_config(workers=1, batch=256, columnar=True) == baseline
        assert (
            run_config(workers=4, batch=256, columnar=True, backend=backend)
            == baseline
        )


# ---------------------------------------------------------------------------
# Process-backend observability: stats and trace lanes survive the fork
# ---------------------------------------------------------------------------


@needs_fork
def test_process_backend_shard_stats_reach_parent():
    sql = "SELECT text FROM s WHERE text CONTAINS 'goal';"
    thread_rows, thread_stats = run(
        make_session(workers=4, backend="thread"), sql
    )
    session = make_session(workers=4, backend="process")
    handle = session.query(sql)
    rows = handle.all()
    handle.close()
    assert rows == thread_rows
    assert handle.stats.as_dict() == thread_stats
    # Exchange stage first, then one entry per worker — same surface as
    # the thread backend, filled from the children's result payloads.
    assert len(handle.shard_stats) == 5
    assert handle.shard_stats[0].rows_scanned == len(STATIC_ROWS)
    worker_emitted = sum(s.rows_emitted for s in handle.shard_stats[1:])
    assert worker_emitted == len(rows) == handle.stats.rows_emitted


@needs_fork
def test_process_backend_explain_analyze_lane_census_matches_thread():
    sql = "SELECT text, followers FROM s WHERE followers > 500;"

    def census(backend):
        config = EngineConfig(
            workers=2,
            columnar=True,
            shard_backend=backend,
            clamp_workers=False,
            tracing=True,
        )
        session = TweeQL(config=config)
        session.register_source(
            "s", lambda: iter([dict(r) for r in STATIC_ROWS]), SCHEMA
        )
        handle = session.query(sql)
        rows = handle.all()
        analyze = handle.explain(analyze=True)
        tracer = handle.tracer
        probes = {
            (p.lane, p.name): (p.rows, p.batches) for p in tracer.probes
        }
        lanes = sorted({s.lane for s in tracer.spans})
        handle.close()
        return rows, probes, lanes, analyze

    t_rows, t_probes, t_lanes, t_analyze = census("thread")
    p_rows, p_probes, p_lanes, p_analyze = census("process")
    assert p_rows == t_rows
    # Identical probe census: same operators in the same lanes seeing the
    # same rows/batches. (Timings differ: the forked child's virtual
    # clock is frozen, so its spans have zero duration.)
    assert p_probes == t_probes
    assert p_lanes == t_lanes
    for lane in ("worker-0", "worker-1", "exchange", "merge"):
        assert lane in p_analyze


def test_sharded_service_stats_sum_of_stage_mirrors():
    """handle.service_stats on sharded plans must equal the sum of the
    per-stage mirrors — one attribution per call, none lost."""
    pop = UserPopulation(size=200, seed=7)
    scen = soccer_match_scenario(seed=7, population=pop)
    session = TweeQL.for_scenarios(
        scen, config=EngineConfig(workers=4)
    )
    handle = session.query(
        "SELECT latitude(loc) AS lat, text FROM twitter "
        "WHERE text CONTAINS 'goal' LIMIT 50;"
    )
    rows = handle.all(limit=50)
    handle.close()
    assert rows
    stats = handle.service_stats
    assert "geocode" in stats
    # Stage mirrors key by the underlying service name ("geocoder").
    mirror_total = sum(
        stage["geocoder"].calls
        for stage in handle.shard_service_stats
        if "geocoder" in stage
    )
    assert stats["geocode"]["calls"] == mirror_total
    assert mirror_total > 0


# ---------------------------------------------------------------------------
# Backend resolution diagnostics
# ---------------------------------------------------------------------------


def _explain(sql, **kw):
    config = EngineConfig(**kw)
    session = TweeQL(config=config)
    session.register_source(
        "s", lambda: iter([dict(r) for r in STATIC_ROWS]), SCHEMA
    )
    return session.explain(sql)


@needs_fork
def test_process_backend_clamps_workers_to_cores():
    cores = os.cpu_count() or 1
    text = _explain(
        "SELECT text FROM s WHERE followers > 10;",
        workers=cores + 3,
        shard_backend="process",
    )
    if cores >= 2:
        assert f"workers clamped {cores + 3} -> {cores}" in text
        assert f"over {cores} shards" in text
    else:
        # One core: forking cannot win; the planner says so and uses
        # threads at the requested logical shard count.
        assert "process backend unavailable" in text
        assert "[thread backend]" in text


def test_thread_workers_are_never_clamped():
    cores = os.cpu_count() or 1
    text = _explain(
        "SELECT text FROM s WHERE followers > 10;",
        workers=cores + 3,
        shard_backend="thread",
    )
    assert f"over {cores + 3} shards" in text
    assert "clamped" not in text


def test_process_request_on_serial_fallback_is_explained():
    text = _explain(
        "SELECT meandev(followers) AS d FROM s;",
        workers=4,
        shard_backend="process",
    )
    assert "Parallel: serial fallback" in text
    assert "process backend requested but the plan runs serially" in text


@needs_fork
def test_web_service_plans_fall_back_to_thread_backend():
    pop = UserPopulation(size=50, seed=7)
    scen = soccer_match_scenario(seed=7, population=pop)
    session = TweeQL.for_scenarios(
        scen,
        config=EngineConfig(
            workers=2, shard_backend="process", clamp_workers=False
        ),
    )
    text = session.explain(
        "SELECT latitude(loc) AS lat FROM twitter WHERE text CONTAINS 'goal';"
    )
    assert "process backend unavailable" in text
    assert "session clock" in text
    assert "[thread backend]" in text


def test_unknown_backend_is_a_plan_error():
    from repro.errors import PlanError

    with pytest.raises(PlanError, match="shard_backend"):
        _explain(
            "SELECT text FROM s WHERE followers > 10;",
            workers=2,
            shard_backend="rocket",
        )


def test_columnar_off_keeps_row_layout_in_explain():
    on = _explain("SELECT text FROM s WHERE followers > 10;", batch_size=256)
    off = _explain(
        "SELECT text FROM s WHERE followers > 10;",
        batch_size=256,
        columnar=False,
    )
    assert "rows/batch, columnar" in on
    assert "columnar" not in off
    assert "[vectorized 1/1]" in on
    assert "[vectorized" not in off


def test_row_at_a_time_plans_stay_row_wise():
    text = _explain("SELECT text FROM s WHERE followers > 10;", batch_size=1)
    assert "columnar" not in text


# ---------------------------------------------------------------------------
# The fidelity scenarios: election / cascade / bot-flood across the grid
# ---------------------------------------------------------------------------

#: Scenario fixture → query shapes exercising the vectorized filter and
#: the columnar group-key path on each new generator's traffic.
NEW_SCENARIO_SQL = {
    "election_small": (
        "SELECT COUNT(*) AS n, first(text) AS example FROM twitter "
        "WHERE text CONTAINS 'ballot' WINDOW 10 minutes;"
    ),
    "cascade_small": (
        "SELECT COUNT(*) AS n, lang FROM twitter "
        "WHERE text CONTAINS 'wildfire' GROUP BY lang WINDOW 15 minutes;"
    ),
    "botflood_small": (
        "SELECT text, followers FROM twitter "
        "WHERE text CONTAINS 'giveaway' AND followers > 200;"
    ),
}

_new_scenario_baselines: dict[str, list] = {}


def _scenario_rows(scenario, sql, **config_kwargs):
    config = EngineConfig(clamp_workers=False, **config_kwargs)
    session = TweeQL.for_scenarios(scenario, seed=11, config=config)
    handle = session.query(sql)
    rows = [
        {k: v for k, v in row.items() if not k.startswith("__")}
        for row in handle
    ]
    handle.close()
    return rows


@pytest.mark.parametrize("batch,workers", [(1, 1), (1, 4), (256, 1), (256, 4)])
@pytest.mark.parametrize("fixture_name", sorted(NEW_SCENARIO_SQL))
def test_new_scenarios_columnar_equivalence(
    request, fixture_name, batch, workers
):
    """Batch size, worker count, and layout are invisible in the output."""
    scenario = request.getfixturevalue(fixture_name)
    sql = NEW_SCENARIO_SQL[fixture_name]
    if fixture_name not in _new_scenario_baselines:
        _new_scenario_baselines[fixture_name] = _scenario_rows(
            scenario, sql, workers=1, batch_size=1, columnar=False
        )
    baseline = _new_scenario_baselines[fixture_name]
    assert baseline, f"{fixture_name} baseline produced no rows"
    rows = _scenario_rows(
        scenario, sql, workers=workers, batch_size=batch, columnar=True
    )
    assert rows == baseline, (fixture_name, batch, workers)
