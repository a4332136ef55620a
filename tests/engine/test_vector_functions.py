"""Column-at-a-time builtins and the threshold-closed windowed aggregate.

``compile_vector_expr`` lifts calls to the registry's NULL-safe pure
builtins (``FunctionSpec.plain``) to one comprehension per column. Every
lifted builtin must agree with its scalar closure cell for cell over
hostile columns — NULL, absent fields, ints, floats, bools, strings — or
raise the same exception type. Calls that need the context, a service
or per-row state, and every user-registered UDF, stay scalar.

``WindowedAggregateOperator`` closes windows only once a row reaches the
earliest open window end; for tumbling and sliding windows at any batch
size its rows, their order, ``windows_closed`` and ``groups_emitted``
must equal the ``batch_size=1`` run.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineConfig, TweeQL
from repro.clock import VirtualClock
from repro.engine.expressions import (
    compile_expr,
    compile_vector_expr,
    expand_column,
)
from repro.engine.functions import default_registry
from repro.engine.types import ColumnBatch, EvalContext
from repro.engine.windows import windows_containing
from repro.sql import parse
from repro.sql.ast import WindowSpec

REGISTRY = default_registry()
LIFTED = sorted(
    name for name in REGISTRY.names() if REGISTRY.lookup(name).plain is not None
)
FIELDS = ("a0", "a1", "a2")

#: A cell: an absent key (None here, dropped from the row), NULL, or a
#: value of the engine's domain. Magnitudes stay small enough that
#: round(int, -n), which computes 10 ** n, finishes quickly.
cells = st.one_of(
    st.just(("absent", None)),
    st.tuples(
        st.just("value"),
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(min_value=-1000, max_value=1000),
            st.floats(allow_nan=False, min_value=-1e4, max_value=1e4),
            st.sampled_from(
                (1_307_000_000.0, 1.5, -0.5, float("inf"), -float("inf"))
            ),
            st.text(max_size=6),
            st.sampled_from(
                ("#Goal and #ß", "see http://t.co/x).", "NYC", "12.5", "ß", "İ")
            ),
        ),
    ),
)


def parse_expression(sql: str):
    return parse(f"SELECT {sql} FROM s;").select[0].expr


def arities(name: str) -> list[int]:
    spec = REGISTRY.lookup(name)
    top = len(spec.arg_types or ())
    low = spec.min_args if spec.min_args is not None else top
    return list(range(low, (3 if spec.variadic else top) + 1))


def outcome(fn):
    try:
        return ("ok", fn())
    except Exception as exc:  # noqa: BLE001 - the type is the result
        return ("raised", type(exc))


def test_lifted_set_is_the_null_safe_builtins():
    assert {"lower", "length", "hour", "floor", "concat"} <= set(LIFTED)
    for name in LIFTED:
        spec = REGISTRY.lookup(name)
        assert not spec.stateful and not spec.high_latency
        assert spec.service is None


@pytest.mark.parametrize("name", LIFTED)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lifted_builtin_matches_scalar_cell_for_cell(name, data):
    arity = data.draw(st.sampled_from(arities(name)), label="arity")
    n = data.draw(st.integers(min_value=0, max_value=12), label="rows")
    rows = []
    for _ in range(n):
        row = {}
        for field in FIELDS[:arity]:
            kind, value = data.draw(cells)
            if kind == "value":
                row[field] = value
        rows.append(row)
    expr = parse_expression(f"{name}({', '.join(FIELDS[:arity])})")
    ctx = EvalContext(clock=VirtualClock())
    scalar = compile_expr(expr, REGISTRY, FIELDS, ctx)
    vector = compile_vector_expr(expr, REGISTRY, FIELDS, ctx)
    assert vector is not None, name
    batch = ColumnBatch.from_rows([dict(r) for r in rows])

    expected = outcome(lambda: [scalar(row, ctx) for row in rows])
    got = outcome(lambda: expand_column(vector(batch, ctx), n))
    assert got == expected, (name, rows)


@pytest.mark.parametrize(
    "sql",
    ["lower('AbC')", "concat()", "length(concat('ab', 'c'))", "sqrt(-1)"],
)
def test_constant_calls_broadcast_and_skip_empty_batches(sql):
    expr = parse_expression(sql)
    ctx = EvalContext(clock=VirtualClock())
    scalar = compile_expr(expr, REGISTRY, FIELDS, ctx)
    vector = compile_vector_expr(expr, REGISTRY, FIELDS, ctx)
    assert vector is not None
    # An empty batch evaluates nothing, as the scalar path does.
    assert expand_column(vector(ColumnBatch.from_rows([]), ctx), 0) == []
    rows = [{"a0": 1}, {}]
    expected = outcome(lambda: [scalar(row, ctx) for row in rows])
    got = outcome(lambda: expand_column(vector(ColumnBatch.from_rows(rows), ctx), 2))
    assert got == expected


@pytest.mark.parametrize(
    "sql",
    [
        "sentiment(a0)",
        "sentiment_score(a0) > 0",
        "latitude(a0)",
        "longitude(a0)",
        "named_entities(a0)",
        "meandev(a0)",
        "now()",
        "hour(now())",
        "lower(sentiment(a0))",
        "coalesce(a0, a1)",
        "substr(a0, 1, 2)",
        "extract(a0, 'g(o+)al')",
    ],
)
def test_context_service_and_stateful_calls_stay_scalar(sql):
    expr = parse_expression(sql)
    ctx = EvalContext(clock=VirtualClock())
    compile_expr(expr, REGISTRY, FIELDS, ctx)
    assert compile_vector_expr(expr, REGISTRY, FIELDS, ctx) is None


def test_user_registered_udfs_stay_scalar():
    registry = default_registry()
    registry.register(
        "double", lambda _ctx, x: None if x is None else 2 * x
    )
    registry.register(
        "lower", lambda _ctx, s: None if s is None else str(s).casefold(),
        replace=True,
    )
    ctx = EvalContext(clock=VirtualClock())
    for sql in ("double(a0) > 1", "lower(a0)", "length(lower(a0))"):
        expr = parse_expression(sql)
        compile_expr(expr, registry, FIELDS, ctx)
        assert compile_vector_expr(expr, registry, FIELDS, ctx) is None, sql


# ---------------------------------------------------------------------------
# Threshold-closed windowed aggregate
# ---------------------------------------------------------------------------

BASE_TS = 1_307_000_040.0  # a multiple of 60 s: gaps land on window edges
SCHEMA = ("created_at", "lang", "followers")

streams = st.lists(
    st.tuples(
        st.sampled_from((0.0, 0.5, 1.0, 7.5, 20.0, 40.0, 60.0, 119.999, 120.0,
                         400.0)),
        st.sampled_from(("en", "es", None)),
        st.one_of(st.none(), st.integers(min_value=0, max_value=5000)),
    ),
    max_size=60,
)

windows = st.sampled_from(
    (
        "WINDOW 60 seconds",
        "WINDOW 120 seconds",
        "WINDOW 120 seconds EVERY 40 seconds",
        "WINDOW 100 seconds EVERY 30 seconds",
        "WINDOW 60 seconds EVERY 90 seconds",
    )
)


def run_windowed(rows, sql, batch_size):
    session = TweeQL(config=EngineConfig(batch_size=batch_size))
    session.register_source("s", lambda: iter([dict(r) for r in rows]), SCHEMA)
    handle = session.query(sql)
    out = handle.all()
    stats = handle.stats
    handle.close()
    return out, stats.windows_closed, stats.groups_emitted


@settings(max_examples=80, deadline=None)
@given(stream=streams, window=windows, key=st.sampled_from(("lang", "hour(created_at)")))
def test_windowed_aggregate_is_batch_size_invariant(stream, window, key):
    rows = []
    ts = BASE_TS
    for gap, lang, followers in stream:
        ts += gap
        rows.append({"created_at": ts, "lang": lang, "followers": followers})
    sql = (
        f"SELECT {key} AS k, COUNT(*) AS n, AVG(followers) AS f, "
        f"MAX(length(lang)) AS m FROM s GROUP BY {key} {window};"
    )
    reference = run_windowed(rows, sql, batch_size=1)
    for batch_size in (7, 256):
        assert run_windowed(rows, sql, batch_size) == reference, batch_size

    # Every window a row fell into opens once and closes once, in
    # (start, end) order, as soon as the first row reaching its end
    # arrives (or at end of stream).
    spec = parse(sql).window
    assert isinstance(spec, WindowSpec)
    opened = {
        bounds for row in rows
        for bounds in windows_containing(row["created_at"], spec)
    }
    out, windows_closed, groups_emitted = reference
    assert windows_closed == len(opened)
    assert groups_emitted == len(out)
    bounds = [(r["window_start"], r["window_end"]) for r in out]
    assert bounds == sorted(bounds)
    timestamps = [row["created_at"] for row in rows]
    expected_points = [
        next((i + 1 for i, ts in enumerate(timestamps) if ts >= end), len(rows))
        for _start, end in bounds
    ]
    assert emission_points(rows, sql) == expected_points


def emission_points(rows, sql):
    """Rows scanned when each output row came out, at batch size 1."""
    session = TweeQL(config=EngineConfig(batch_size=1))
    session.register_source("s", lambda: iter([dict(r) for r in rows]), SCHEMA)
    handle = session.query(sql)
    points = [handle.stats.rows_scanned for _row in handle]
    handle.close()
    return points
