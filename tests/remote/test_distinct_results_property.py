"""Property: every engine's SELECT result is Python-distinct.

The RDI hands the engine result's :class:`Relation` to the row builder,
which adopts the rows of a projection that keeps every shipped column
without a dedupe pass (``operators.project_entries``).  That is sound only
if the result holds no two rows equal under Python equality.  sqlite's
``DISTINCT`` compares by SQL equality, which need not be Python's, so
the guarantee is the backend's ``Relation(...)`` constructor, not the
DML.  This suite pins it down on both engines over columns mixing
``1``/``1.0``/``True``/``None``, for projections that merge rows and
joins that multiply them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.remote.engine import PurePythonEngine
from repro.remote.sql import SelectQuery, SqlCol, SqlCondition, SqlLit, TableRef
from repro.remote.sqlite_backend import SqliteEngine

SOUP = st.sampled_from([1, 1.0, True, None, 0, False, 2])
ROWS = st.lists(st.tuples(SOUP, SOUP, SOUP), max_size=10)

T = TableRef("t", "t0")
U = TableRef("t", "t1")
QUERIES = [
    SelectQuery(tables=(T,), select=(SqlCol("t0", "a"),)),
    SelectQuery(tables=(T,), select=(SqlCol("t0", "b"), SqlCol("t0", "a"))),
    SelectQuery(
        tables=(T,),
        select=(SqlCol("t0", "c"),),
        where=(SqlCondition(SqlCol("t0", "a"), "=", SqlLit(1)),),
    ),
    SelectQuery(
        tables=(T, U),
        select=(SqlCol("t0", "a"), SqlCol("t1", "c")),
        where=(SqlCondition(SqlCol("t0", "b"), "=", SqlCol("t1", "a")),),
    ),
]


@settings(max_examples=200, deadline=None)
@given(ROWS, st.sampled_from(QUERIES))
def test_every_engine_returns_python_distinct_rows(rows, query):
    table = Relation(Schema("t", ("a", "b", "c")), rows)
    for engine in (PurePythonEngine(), SqliteEngine()):
        engine.create_table(table)
        result = engine.execute(query).relation
        assert type(result) is Relation
        assert len(set(result)) == len(result), (type(engine).__name__, result.rows)
        result.check_invariants()
