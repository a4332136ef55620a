"""The fused keyword disjunction: ``f CONTAINS 'a' OR f CONTAINS 'b' …``.

``compile_vector_expr`` turns an OR chain of literal CONTAINS tests on
one field into a single node that casefolds each value once. It must
agree with the scalar OR-of-CONTAINS chain cell for cell — NULL, absent
fields, non-string values and the casefold corner cases ('ß' folds to
'ss', 'İ' to 'i̇', 'ﬁ' to 'fi') included — and it must not change what
EXPLAIN reports about vectorization.
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
from repro.sql import parse

SCHEMA = ("text", "lang", "followers")

#: Casefold corner cases on both sides of the test.
TRICKY = ("ß", "ss", "SS", "İ", "i̇", "i", "ﬁ", "fi", "FI", "Straße", "STRASSE")

needles = st.one_of(
    st.sampled_from(TRICKY + ("goal", "Goal", "", "12", "rain")),
    st.integers(min_value=0, max_value=20),
    st.text(max_size=3),
)

text_values = st.one_of(
    st.none(),
    st.integers(min_value=-50, max_value=500),
    st.sampled_from(TRICKY + ("GOAL!", "obama rain", "İstanbul", "ﬁnal 12")),
    st.text(max_size=12),
)


def literal(value):
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return str(value)


def parse_where(fragment):
    return parse(f"SELECT text FROM t WHERE {fragment};").where


def vector_and_scalar(fragment, rows):
    expr = parse_where(fragment)
    registry = default_registry()
    ctx = EvalContext(clock=VirtualClock())
    scalar = compile_expr(expr, registry, SCHEMA, ctx)
    vector = compile_vector_expr(expr, registry, SCHEMA, ctx)
    assert vector is not None
    batch = ColumnBatch.from_rows([dict(r) for r in rows])
    return (
        expand_column(vector(batch, ctx), len(rows)),
        [scalar(row, ctx) for row in rows],
    )


@st.composite
def rows_of_text(draw):
    """Rows whose ``text`` may be NULL, non-string, or absent entirely."""
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        if draw(st.booleans()) or not rows:
            rows.append({"text": draw(text_values), "lang": "en"})
        else:
            rows.append({"lang": "es"})
    return rows


@settings(max_examples=300, deadline=None)
@given(
    words=st.lists(needles, min_size=2, max_size=5),
    rows=rows_of_text(),
    parenthesized=st.booleans(),
)
def test_fused_disjunction_matches_scalar_chain(words, rows, parenthesized):
    arms = [f"text contains {literal(w)}" for w in words]
    if parenthesized and len(arms) >= 4:
        # A bushy OR tree fuses exactly like the left-deep chain.
        fragment = f"({arms[0]} OR {arms[1]}) OR ({' OR '.join(arms[2:])})"
    else:
        fragment = "(" + " OR ".join(arms) + ")"
    vector, scalar = vector_and_scalar(fragment, rows)
    assert vector == scalar
    # And both agree with the definition of case-insensitive CONTAINS.
    folded = [str(w).casefold() for w in words]
    assert scalar == [
        None
        if row.get("text") is None
        else any(w in str(row["text"]).casefold() for w in folded)
        for row in rows
    ]


@settings(max_examples=100, deadline=None)
@given(words=st.lists(needles, min_size=2, max_size=4), rows=rows_of_text())
def test_mixed_chains_stay_equivalent(words, rows):
    """Chains the fusion declines (a second field, a NULL needle, a
    non-CONTAINS arm) keep the generic vector form — still equivalent."""
    arms = [f"text contains {literal(w)}" for w in words]
    for extra in ("lang contains 'e'", "text contains NULL", "text = 'ß'"):
        vector, scalar = vector_and_scalar(" OR ".join(arms + [extra]), rows)
        assert vector == scalar, extra


def test_casefold_corner_cases_by_hand():
    rows = [
        {"text": "STRASSE"},
        {"text": "İstanbul"},
        {"text": "ﬁnal"},
        {"text": None},
        {},
        {"text": 1234},
    ]
    vector, scalar = vector_and_scalar(
        "text contains 'ß' OR text contains 'i̇' OR text contains 'fi' "
        "OR text contains 23",
        rows,
    )
    assert vector == scalar == [True, True, True, None, None, True]


def _explain(sql, batch_size=256):
    session = TweeQL(config=EngineConfig(batch_size=batch_size))
    session.register_source(
        "s",
        lambda: iter([{"text": "goal", "created_at": 1.0}]),
        ("text", "created_at", "lang"),
    )
    return session.explain(sql)


def test_explain_vectorized_census_is_unchanged():
    """The fused node is one vectorized conjunct, as the pairwise OR was."""
    event = _explain(
        "SELECT * FROM s WHERE (text contains 'soccer' OR text contains "
        "'football' OR text contains 'ß') AND created_at >= 10 "
        "AND created_at < 20;"
    )
    assert event.splitlines()[-1] == (
        "Filter: (((text CONTAINS 'soccer') OR (text CONTAINS 'football')) "
        "OR (text CONTAINS 'ß')) AND (created_at >= 10) AND "
        "(created_at < 20) [vectorized 3/3]"
    )
    mixed = _explain(
        "SELECT text FROM s WHERE (text contains 'a' OR lang contains 'b') "
        "AND length(text) > 2;"
    )
    # length() is a pure builtin, lifted to a column-at-a-time call.
    assert mixed.splitlines()[-1].endswith("[vectorized 2/2]")
    row_wise = _explain(
        "SELECT * FROM s WHERE text contains 'a' OR text contains 'b';",
        batch_size=1,
    )
    assert "[vectorized" not in row_wise
