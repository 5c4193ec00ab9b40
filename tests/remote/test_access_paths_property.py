"""Property suites: the remote engine's access paths change nothing but work.

Two properties, both against references that share no code with the index:

* **the primitive** — ``PurePythonEngine.rows_where(table, attribute,
  values)`` is ``[row for row in table if row[p] in set(values)]``: the same
  rows, each once, in base-table order, over a value soup chosen to collide
  (``1``/``1.0``/``True`` are one key, ``"1"`` is another, ``None``, and two
  NaN objects that each find only themselves);
* **the engine** — every ``SelectQuery`` (pins on either side of ``=``,
  ranges, IN-lists, one- and two-pair joins, residual join conditions, cross
  products, self-joins, restrictions that leave either input the smaller
  one) returns the rows, **in the order**, and the ``tuples_touched`` of
  :func:`reference_select`: the scan-everything plan of the engine before it
  had indexes, composed from ``operators`` on fresh un-indexed copies.

Each query runs twice — the first use builds the indexes, the second finds
them — and after an ``insert`` into a base table, which a stale index would
miss.  ``tests/qa/test_access_path_planted_bug.py`` plants a type-strict
bucket key to prove the net bites.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.relational.operators import join, project, select
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.remote.engine import PurePythonEngine, _to_comparison
from repro.remote.sql import (
    SelectQuery,
    SqlCol,
    SqlCondition,
    SqlInList,
    SqlLit,
    TableRef,
)

#: Two NaN objects: a NaN equals nothing, itself included, but containers
#: check identity first — so each finds the rows holding that very object.
NAN, OTHER_NAN = float("nan"), float("nan")

#: The value soup: 1 == 1.0 == True and 0 == False share a key, "1" does not.
VALUES = [0, 1, 2, 1.0, 2.5, True, False, "1", "x", None, NAN, OTHER_NAN]

SCHEMAS = {"t": Schema("t", ("a", "b", "c")), "u": Schema("u", ("a", "b"))}

values = st.sampled_from(VALUES)


def rows_of(arity: int, max_size: int = 14):
    return st.lists(st.tuples(*[values] * arity), max_size=max_size)


def fresh_engine(tables: dict[str, list[tuple]]) -> PurePythonEngine:
    engine = PurePythonEngine()
    for name, rows in tables.items():
        engine.create_table(Relation(SCHEMAS[name], rows))
    return engine


# ---------------------------------------------------------------------------
# the primitive
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(rows_of(3), st.sampled_from(SCHEMAS["t"].attributes), st.lists(values, max_size=6))
def test_rows_where_is_the_filtered_scan(rows, attribute, wanted):
    engine = fresh_engine({"t": rows})
    table = engine.table("t")
    position = table.schema.position(attribute)
    allowed = set(wanted)
    expected = [row for row in table if row[position] in allowed]
    assert engine.rows_where("t", attribute, wanted) == expected
    # ... and again from the index the first call left behind.
    assert engine.rows_where("t", attribute, iter(wanted)) == expected


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


def reference_select(tables: dict[str, list[tuple]], query: SelectQuery):
    """The plan without access paths: every FROM table scanned, selections
    pushed down, hash joins in FROM order on whole inputs.  Returns the
    result rows in order and the tuples touched."""
    touched = 0
    loaded = {}
    for ref in query.tables:
        schema = SCHEMAS[ref.table]
        attrs = tuple(f"{ref.alias}.{a}" for a in schema.attributes)
        loaded[ref.alias] = Relation(Schema(ref.alias, attrs), tables[ref.table])
        touched += len(loaded[ref.alias])
    local = {alias: [] for alias in loaded}
    joining = []
    for term in query.where:
        if isinstance(term, SqlInList):
            relation = loaded[term.column.alias]
            position = relation.schema.position(str(term.column))
            allowed = set(term.values)
            loaded[term.column.alias] = Relation(
                relation.schema, [row for row in relation if row[position] in allowed]
            )
            continue
        comparison, aliases = _to_comparison(term)
        if len(aliases) <= 1:
            local[next(iter(aliases), query.tables[0].alias)].append(comparison)
        else:
            joining.append(comparison)
    for alias, conditions in local.items():
        if conditions:
            loaded[alias] = select(loaded[alias], conditions)
    combined = loaded[query.tables[0].alias]
    for ref in query.tables[1:]:
        right = loaded[ref.alias]
        here = set(combined.schema.attributes) | set(right.schema.attributes)
        pairs, residual, later = [], [], []
        for comparison in joining:
            if not comparison.columns() <= here:
                later.append(comparison)
            elif comparison.op == "=":
                (left_col,) = comparison.columns() - set(right.schema.attributes)
                (right_col,) = comparison.columns() & set(right.schema.attributes)
                pairs.append((left_col, right_col))
            else:
                residual.append(comparison)
        combined = join(combined, right, pairs, name="join", conditions=residual)
        joining = later
        touched += len(combined)
    assert not joining
    result = project(combined, [str(c) for c in query.select], name="result")
    return result.rows, touched


ALIASES = ("x0", "x1", "x2")
OPS = ("=", "!=", "<", ">", "<=", ">=")


@st.composite
def select_queries(draw):
    """A well-formed SELECT over aliases ``x0..`` of ``t`` and ``u``."""
    names = draw(st.lists(st.sampled_from(sorted(SCHEMAS)), min_size=1, max_size=3))
    refs = tuple(TableRef(name, alias) for name, alias in zip(names, ALIASES))

    def column(ref):
        return SqlCol(ref.alias, draw(st.sampled_from(SCHEMAS[ref.table].attributes)))

    where = []
    for ref in refs:
        for kind in draw(
            st.lists(st.sampled_from(("pin", "range", "in", "constant")), max_size=3)
        ):
            if kind == "pin":
                sides = [column(ref), SqlLit(draw(values))]
                if draw(st.booleans()):
                    sides.reverse()  # ``1 = x0.a``
                where.append(SqlCondition(sides[0], "=", sides[1]))
            elif kind == "range":
                where.append(
                    SqlCondition(column(ref), draw(st.sampled_from(OPS)), SqlLit(draw(values)))
                )
            elif kind == "in":
                wanted = draw(st.lists(values, min_size=1, max_size=5))
                where.append(SqlInList(column(ref), tuple(dict.fromkeys(wanted))))
            else:
                where.append(
                    SqlCondition(SqlLit(draw(values)), draw(st.sampled_from(OPS)), SqlLit(draw(values)))
                )
    for index in range(1, len(refs)):
        # Nothing (a cross product), one or two equality pairs, maybe an
        # inequality evaluated on the joined row; each against an earlier alias.
        for op in draw(st.lists(st.sampled_from(("=", "=", "<", "!=")), max_size=3)):
            earlier = refs[draw(st.integers(0, index - 1))]
            where.append(SqlCondition(column(earlier), op, column(refs[index])))
    draw(st.randoms(use_true_random=False)).shuffle(where)
    chosen = draw(st.lists(st.sampled_from(refs), min_size=1, max_size=3))
    select_cols = tuple(dict.fromkeys(column(ref) for ref in chosen))
    return SelectQuery(tables=refs, select=select_cols, where=tuple(where))


def assert_same(engine, tables, query):
    rows, touched = reference_select(tables, query)
    for _use in ("builds the indexes", "finds them"):
        result = engine.execute(query)
        result.relation.check_invariants("engine result")
        assert result.relation.rows == rows, str(query)
        assert result.tuples_touched == touched, str(query)


def _join_query(*where):
    return SelectQuery(
        tables=(TableRef("t", "x0"), TableRef("u", "x1")),
        select=(SqlCol("x0", "a"), SqlCol("x0", "b"), SqlCol("x1", "b")),
        where=(SqlCondition(SqlCol("x0", "a"), "=", SqlCol("x1", "a")), *where),
    )


#: The probe leaves the streamed table with *fewer* rows than the build side
#: (2 < 3): a join that re-chose its build side on the cut-down sizes would
#: stream the other input and return these rows in another order.
_FLIPS_ON_THE_RIGHT = dict(
    t_rows=[(1, 10, "x"), (2, 20, "x"), (0, 30, "x"), (2, 40, "y")],
    u_rows=[(2, "p"), (1, "q"), ("1", "r"), (None, "s"), (2.5, "t")],
    query=_join_query(SqlCondition(SqlCol("x0", "c"), "=", SqlLit("x"))),
    late_row=(1, 50, "x"),
)
_FLIPS_ON_THE_LEFT = dict(
    t_rows=[(2, 10, "x"), (1, 20, "x"), ("1", 30, "x"), (None, 40, "x"), (2.5, 50, "y")],
    u_rows=[(1, "p"), (2, "p"), (0, "p"), (2, "q")],
    query=_join_query(SqlCondition(SqlCol("x1", "b"), "=", SqlLit("p"))),
    late_row=(0, 60, "y"),
)


#: What the engine property draws, and how often: the planted-bug file runs
#: :func:`check_select` over the same inputs at the same budget.
SELECT_INPUTS = (rows_of(3), rows_of(2), select_queries(), st.tuples(values, values, values))
SELECT_BUDGET = 300


def check_select(t_rows, u_rows, query, late_row):
    tables = {"t": t_rows, "u": u_rows}
    engine = fresh_engine(tables)
    assert_same(engine, tables, query)
    # A row appended after the indexes were built is found all the same.
    engine.table("t").insert(late_row)
    assert_same(engine, {"t": t_rows + [late_row], "u": u_rows}, query)


@settings(max_examples=SELECT_BUDGET, deadline=None)
@given(*SELECT_INPUTS)
@example(**_FLIPS_ON_THE_RIGHT)
@example(**_FLIPS_ON_THE_LEFT)
def test_select_equals_the_scan_everything_reference(t_rows, u_rows, query, late_row):
    check_select(t_rows, u_rows, query, late_row)
