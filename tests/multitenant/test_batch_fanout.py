"""The batch-at-a-time fanout against a per-row reference.

The fanout evaluates each distinct WHERE conjunct column-wise over a
source batch, only on the rows some tenant's earlier conjuncts let
through, memoizing verdicts per batch. The reference here is the
obvious per-row loop: for each row, walk every live tenant's conjuncts
in order with a memo keyed by rendered SQL, evaluating on a miss and
stopping at the first failing conjunct. Both must route the same rows
and count the same ``predicate_evaluations`` (first evaluations) and
``evaluations_shared`` (memo hits) — over random tenant mixes with
shared prefixes, a UDF conjunct that does not vectorize, NULL and
non-string ``text``, and tenants that finish part-way through.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineConfig, TweeQL
from repro.clock import VirtualClock
from repro.engine.expressions import compile_expr
from repro.engine.types import ColumnBatch, EvalContext
from repro.sql import parse

SCHEMA = ("tweet_id", "text", "created_at", "lang", "followers")

#: Conjuncts tenants draw from. ``has_digit`` is a UDF (scalar only);
#: the OR chains take the fused keyword path; the rest vectorize.
POOL = [
    "text contains 'goal'",
    "(text contains 'goal' OR text contains 'ß' OR text contains 'İ')",
    "(text contains 'ﬁ' OR text contains 'ref')",
    "followers >= 100",
    "lang = 'en'",
    "text matches 'g[oa]+l'",
    "has_digit(text)",
    "text IS NOT NULL",
]

text_values = st.one_of(
    st.none(),
    st.integers(min_value=0, max_value=300),
    st.sampled_from(
        ("Goal!", "goal 3-0", "STRASSE", "Straße", "İstanbul", "ﬁnal",
         "ref 12", "", "gaal")
    ),
    st.text(max_size=8),
)


def has_digit(_ctx, text):
    if text is None:
        return None
    return any(ch.isdigit() for ch in str(text))


@st.composite
def source_rows(draw):
    rows = []
    for i in range(draw(st.integers(min_value=0, max_value=40))):
        row = {"tweet_id": i, "created_at": 1_000.0 + i}
        if draw(st.integers(0, 5)):
            row["text"] = draw(text_values)
        if draw(st.booleans()):
            row["lang"] = draw(st.sampled_from(("en", "es", None)))
        if draw(st.booleans()):
            row["followers"] = draw(st.one_of(st.none(), st.integers(0, 500)))
        rows.append(row)
    return rows


@st.composite
def tenant_conjuncts(draw):
    """2–5 tenants; each takes a slice of one shared prefix plus its own
    suffix, so some conjuncts are shared and some are private."""
    prefix = draw(st.lists(st.sampled_from(POOL), max_size=2))
    tenants = []
    for _ in range(draw(st.integers(min_value=2, max_value=5))):
        head = prefix[: draw(st.integers(0, len(prefix)))]
        tail = draw(st.lists(st.sampled_from(POOL), max_size=2))
        tenants.append(head + tail)
    return tenants


def sql_of(conjuncts):
    where = f" WHERE {' AND '.join(conjuncts)}" if conjuncts else ""
    return f"SELECT tweet_id FROM s{where};"


def session_over(rows, batch_size=256):
    session = TweeQL(config=EngineConfig(batch_size=batch_size))
    session.register_source("s", lambda: iter([dict(r) for r in rows]), SCHEMA)
    session.register_udf("has_digit", has_digit)
    return session


def per_row_reference(session, tenants, rows, live_at):
    """Route ``rows`` one at a time through a per-row conjunct memo.

    ``live_at(i)`` is the set of tenant indexes still live at row ``i``.
    Returns (selected row positions per tenant, evaluations, memo hits).
    """
    ctx = EvalContext(clock=VirtualClock())
    compiled = []
    for conjuncts in tenants:
        exprs = [parse(f"SELECT 1 FROM s WHERE {c};").where for c in conjuncts]
        compiled.append(
            [
                (e.to_sql(), compile_expr(e, session.registry, SCHEMA, ctx))
                for e in exprs
            ]
        )
    selected = [[] for _ in tenants]
    evaluations = shared = 0
    for i, row in enumerate(rows):
        memo = {}
        for t in sorted(live_at(i)):
            for key, predicate in compiled[t]:
                if key in memo:
                    shared += 1
                else:
                    verdict = predicate(row, ctx)
                    memo[key] = verdict is not None and bool(verdict)
                    evaluations += 1
                if not memo[key]:
                    break
            else:
                selected[t].append(i)
    return selected, evaluations, shared


@settings(max_examples=150, deadline=None)
@given(
    rows=source_rows(),
    tenants=tenant_conjuncts(),
    batch_size=st.integers(min_value=1, max_value=16),
    finish_at=st.lists(st.integers(min_value=0, max_value=8), max_size=5),
)
def test_route_matches_per_row_memo(rows, tenants, batch_size, finish_at):
    """``_route`` batch by batch, with tenants finishing between batches,
    against the per-row loop with the same tenants live on each row."""
    session = session_over(rows)
    group = session.shared("s")
    for conjuncts in tenants:
        group.query(sql_of(conjuncts))
    # Tenant t stops receiving input from batch finish_at[t] on.
    finish = {t: b for t, b in enumerate(finish_at[: len(tenants)])}

    def live_in_batch(b):
        return {t for t in range(len(tenants)) if finish.get(t, 1 << 30) > b}

    selected = [[] for _ in tenants]
    for b, start in enumerate(range(0, len(rows), batch_size)):
        chunk = [dict(r) for r in rows[start:start + batch_size]]
        live = [group._tenants[t] for t in sorted(live_in_batch(b))]
        batch = ColumnBatch.from_rows(chunk)
        for tenant, positions in zip(live, group._route(batch, live)):
            selected[tenant.index].extend(start + i for i in positions)
    group.close()

    expected, evaluations, shared = per_row_reference(
        session, tenants, rows, lambda i: live_in_batch(i // batch_size)
    )
    assert selected == expected
    assert group.stats_dict()["fanout"]["predicate_evaluations"] == evaluations
    assert group.stats.evaluations_shared == shared


@settings(max_examples=25, deadline=None)
@given(
    rows=source_rows(),
    tenants=tenant_conjuncts(),
    batch_size=st.sampled_from((1, 3, 256)),
)
def test_shared_scan_routes_like_reference(rows, tenants, batch_size):
    """The whole group, threads and all: each tenant's output rows and
    the group's counters equal the per-row reference."""
    session = session_over(rows, batch_size=batch_size)
    group = session.shared("s")
    try:
        handles = [group.query(sql_of(c)) for c in tenants]
        outputs = [[r["tweet_id"] for r in h.all()] for h in handles]
    finally:
        group.close()
    everyone = set(range(len(tenants)))
    expected, evaluations, shared = per_row_reference(
        session, tenants, rows, lambda _i: everyone
    )
    assert outputs == [[rows[i]["tweet_id"] for i in sel] for sel in expected]
    assert group.stats_dict()["fanout"]["predicate_evaluations"] == evaluations
    assert group.stats.evaluations_shared == shared
    assert group.stats.rows_routed == sum(map(len, expected))
