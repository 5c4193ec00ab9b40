"""The pure-Python remote engine scans base tables in place.

A SELECT reads each FROM table's rows where they are stored, under the
alias-qualified schema; only the rows a selection keeps are staged into a
new relation.  The counts below are of rows handed to ``Relation``'s two
constructors, so they do not depend on the host's speed.
"""

import pytest

from repro.relational.relation import Relation, relation_from_columns
from repro.remote.engine import PurePythonEngine
from repro.remote.sql import (
    SelectQuery,
    SqlCol,
    SqlCondition,
    SqlInList,
    SqlLit,
    TableRef,
)

N = 2000
SELECTED = N // 100


@pytest.fixture
def engine():
    out = PurePythonEngine()
    out.create_table(
        relation_from_columns(
            "fact", id=list(range(N)), bucket=[i % 100 for i in range(N)]
        )
    )
    return out


@pytest.fixture
def staged(monkeypatch):
    """Rows handed to ``Relation(...)`` and ``Relation.from_distinct_rows``."""
    counts = []
    init = Relation.__init__
    adopt = Relation.from_distinct_rows.__func__

    def counting_init(self, schema, rows=()):
        rows = list(rows)
        counts.append(len(rows))
        init(self, schema, rows)

    def counting_adopt(cls, schema, rows):
        counts.append(len(rows))
        return adopt(cls, schema, rows)

    monkeypatch.setattr(Relation, "__init__", counting_init)
    monkeypatch.setattr(Relation, "from_distinct_rows", classmethod(counting_adopt))
    return counts


SELECTIVE = SelectQuery(
    tables=(TableRef("fact", "f"),),
    select=(SqlCol("f", "id"),),
    where=(SqlCondition(SqlCol("f", "bucket"), "=", SqlLit(7)),),
)

IN_LIST = SelectQuery(
    tables=(TableRef("fact", "f"),),
    select=(SqlCol("f", "id"), SqlCol("f", "bucket")),
    where=(SqlInList(SqlCol("f", "id"), tuple(range(0, N, 100))),),
)


@pytest.mark.parametrize("query", [SELECTIVE, IN_LIST], ids=["where", "in-list"])
def test_a_selective_scan_stages_only_what_it_selects(engine, staged, query):
    result = engine.execute(query)
    assert len(result.relation) == SELECTED
    assert result.tuples_touched == N  # the simulated charge is per row read
    assert sum(staged) <= 4 * SELECTED, staged


def test_the_base_table_is_read_not_rewritten(engine):
    base = engine.table("fact")
    row_list, rows_before = base._rows, base.rows
    first = engine.execute(SELECTIVE).relation
    second = engine.execute(SELECTIVE).relation
    assert base._rows is row_list and base.rows == rows_before
    assert first == second and first.rows == second.rows
    assert first.rows == [(i,) for i in range(N) if i % 100 == 7]


def test_an_unfiltered_scan_returns_a_relation_of_its_own(engine):
    everything = SelectQuery(
        tables=(TableRef("fact", "f"),),
        select=(SqlCol("f", "id"), SqlCol("f", "bucket")),
    )
    result = engine.execute(everything).relation
    assert result == engine.table("fact").with_schema(result.schema)
    result.insert((-1, -1))
    assert len(engine.table("fact")) == N
