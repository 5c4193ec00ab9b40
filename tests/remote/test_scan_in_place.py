"""The pure-Python remote engine reads base tables in place, and through
access paths.

A SELECT reads each FROM table's rows where they are stored, under the
alias-qualified schema; only the rows a selection keeps are staged into a
new relation.  And once a (table, column) index exists, a pinned selection,
an IN-list and a join against a whole table *read* only a small multiple of
the rows they keep — while ``tuples_touched`` still charges the scan, because
it models the remote DBMS's work, not this simulator's.  The counts below are
of rows handed to ``Relation``'s two constructors, of rows pulled out of any
``Relation`` by iteration, and of index builds, so they do not depend on the
host's speed.
"""

import pytest

import repro.relational.index as index_module
from repro.common.errors import UnknownRelationError
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


# -- access paths ---------------------------------------------------------------

KINDS = 50


@pytest.fixture
def warehouse(engine):
    """``fact`` plus ``dim(id, kind)``: 100 ids, two per kind."""
    engine.create_table(
        relation_from_columns(
            "dim", id=list(range(100)), kind=[i % KINDS for i in range(100)]
        )
    )
    return engine


@pytest.fixture
def rows_read(monkeypatch):
    """Rows pulled out of any ``Relation`` by iteration: scans, the build and
    probe loops of a join, a projection's pass (one-element list)."""
    count = [0]
    plain = Relation.__iter__

    def counting(self):
        for row in plain(self):
            count[0] += 1
            yield row

    monkeypatch.setattr(Relation, "__iter__", counting)
    return count


@pytest.fixture
def builds(monkeypatch):
    """(table, attributes) of every ``HashIndex`` built."""
    built = []

    class Recording(index_module.HashIndex):
        def __init__(self, relation, attributes):
            built.append((relation.schema.name, tuple(attributes)))
            super().__init__(relation, attributes)

    monkeypatch.setattr(index_module, "HashIndex", Recording)
    return built


def _dim_fact(*where, tables=(TableRef("dim", "d"), TableRef("fact", "f"))):
    return SelectQuery(
        tables=tables,
        select=(SqlCol("f", "id"), SqlCol("d", "kind")),
        where=(SqlCondition(SqlCol("d", "id"), "=", SqlCol("f", "bucket")), *where),
    )


_ONE_KIND = SqlCondition(SqlCol("d", "kind"), "=", SqlLit(7))
#: The two ``dim`` ids of kind 7 meet 2 * N / 100 ``fact`` rows.
JOINED = 2 * SELECTED

#: name -> (query, rows kept, tuples touched: every FROM table + every join).
ACCESS_PATHS = {
    "where": (SELECTIVE, SELECTED, N),
    "in-list": (IN_LIST, SELECTED, N),
    # The whole table is the *streamed* side of its join, second in FROM ...
    "join-right": (_dim_fact(_ONE_KIND), JOINED, 100 + N + JOINED),
    # ... or first.
    "join-left": (
        _dim_fact(_ONE_KIND, tables=(TableRef("fact", "f"), TableRef("dim", "d"))),
        JOINED,
        N + 100 + JOINED,
    ),
}


@pytest.mark.parametrize("name", sorted(ACCESS_PATHS))
def test_after_first_use_a_request_reads_a_small_multiple_of_what_it_keeps(
    warehouse, rows_read, name
):
    query, kept, touched = ACCESS_PATHS[name]
    first = warehouse.execute(query)  # builds the indexes it wants
    rows_read[0] = 0
    again = warehouse.execute(query)
    assert len(again.relation) == kept and again.relation.rows == first.relation.rows
    assert rows_read[0] <= 4 * kept, rows_read
    # The simulated DBMS is still charged for scanning its tables.
    assert first.tuples_touched == again.tuples_touched == touched


def test_one_index_build_per_table_and_column(warehouse, builds):
    for _round in range(3):
        for query, _kept, _touched in ACCESS_PATHS.values():
            warehouse.execute(query)
    assert sorted(builds) == [
        ("dim", ("kind",)),
        ("fact", ("bucket",)),
        ("fact", ("id",)),
    ]


def test_a_replaced_table_is_served_from_its_own_rows(engine, builds):
    assert len(engine.execute(SELECTIVE).relation) == SELECTED
    # Same name, same length, other rows: length alone would not tell.
    engine.create_table(
        relation_from_columns(
            "fact", id=list(range(N)), bucket=[7 if i < 3 else 0 for i in range(N)]
        )
    )
    assert engine.execute(SELECTIVE).relation.rows == [(0,), (1,), (2,)]
    assert builds == [("fact", ("bucket",))] * 2


def test_a_row_inserted_after_the_build_is_found(engine, builds):
    engine.execute(SELECTIVE)
    engine.execute(IN_LIST)
    engine.table("fact").insert((N, 7))
    assert engine.execute(SELECTIVE).relation.rows[-1] == (N,)
    grown = SelectQuery(
        tables=IN_LIST.tables,
        select=IN_LIST.select,
        where=(SqlInList(SqlCol("f", "id"), (0, N)),),
    )
    assert engine.execute(grown).relation.rows == [(0, 0), (N, 7)]
    # Each index was rebuilt once, when next asked for, and not again.
    engine.execute(SELECTIVE)
    engine.execute(grown)
    assert builds == [("fact", ("bucket",)), ("fact", ("id",))] * 2


def test_an_unhashable_constant_is_no_pin(engine, builds):
    # Nothing stored can equal it, and nothing can look it up: the
    # selection runs as a scan and keeps no row.
    query = SelectQuery(
        tables=SELECTIVE.tables,
        select=SELECTIVE.select,
        where=(SqlCondition(SqlCol("f", "bucket"), "=", SqlLit([7])),),
    )
    result = engine.execute(query)
    assert result.relation.rows == [] and result.tuples_touched == N
    assert builds == []


def test_an_unknown_table_has_no_access_path(engine):
    with pytest.raises(UnknownRelationError):
        engine.rows_where("nowhere", "id", (1,))
