"""A sqlite3-backed remote DBMS engine.

The paper's prototype talked to an unmodified INGRES server and an IDM-500
database machine; the point was that the remote DBMS is a *conventional*
system used as-is.  This backend demonstrates the same property with a real
SQL engine: base tables live in an in-memory sqlite3 database and every
request is rendered to SQL text and executed by sqlite.

Same requests, same result relations as
:class:`~repro.remote.engine.PurePythonEngine`, under one rule sqlite does
not share by itself: an ordered comparison (``<``, ``<=``, ``>``, ``>=``)
between a number and a text value is *false*, as in the substrate's
:func:`~repro.relational.expressions.holds` ("False on type clash"), where
sqlite alone would order by storage class (numbers before text).  Every
rendered ordered comparison is therefore guarded by its operands'
``typeof()`` class, so an answer never depends on whether the remote or the
cache applied the condition.  The server-work metric is approximated as the
sum of scanned base-table cardinalities plus the result size, since sqlite
does not expose touched-tuple counts.
"""

from __future__ import annotations

import sqlite3

from repro.common.errors import RemoteDBMSError, UnknownRelationError
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.remote.engine import EngineResult, _qualified
from repro.remote.sql import (
    FetchTableQuery,
    SelectQuery,
    SqlCol,
    SqlInList,
    SqlLit,
    render_literal,
)


_ORDERED = frozenset(("<", "<=", ">", ">="))


def _quote(identifier: str) -> str:
    return '"' + identifier.replace('"', '""') + '"'


def _is_numeric(operand, rendered: str) -> str:
    """SQL for "this operand is a number" (a literal's class is known)."""
    if isinstance(operand, SqlLit):
        return "1" if isinstance(operand.value, (int, float)) else "0"
    return f"typeof({rendered}) IN ('integer', 'real')"


class SqliteEngine:
    """Stores base tables in sqlite and executes rendered SQL."""

    def __init__(self) -> None:
        self._connection = sqlite3.connect(":memory:")
        self._schemas: dict[str, Schema] = {}
        self._cardinalities: dict[str, int] = {}

    # -- data definition ---------------------------------------------------------
    def create_table(self, relation: Relation) -> None:
        """(Re)create a base table in sqlite and bulk-load its rows."""
        name = relation.schema.name
        cursor = self._connection.cursor()
        cursor.execute(f"DROP TABLE IF EXISTS {_quote(name)}")
        columns = ", ".join(_quote(a) for a in relation.schema.attributes)
        cursor.execute(f"CREATE TABLE {_quote(name)} ({columns})")
        placeholders = ", ".join("?" for _ in relation.schema.attributes)
        cursor.executemany(
            f"INSERT INTO {_quote(name)} VALUES ({placeholders})", relation.rows
        )
        self._connection.commit()
        self._schemas[name] = relation.schema
        self._cardinalities[name] = len(relation)

    def table_schema(self, name: str) -> Schema:
        """The schema a table was loaded with."""
        try:
            return self._schemas[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    # -- execution ------------------------------------------------------------------
    def execute(self, request: SelectQuery | FetchTableQuery) -> EngineResult:
        """Execute a DML request via rendered SQL."""
        if isinstance(request, FetchTableQuery):
            schema = self.table_schema(request.table)
            cursor = self._connection.execute(f"SELECT * FROM {_quote(request.table)}")
            relation = Relation(schema, (tuple(row) for row in cursor))
            return EngineResult(relation, tuples_touched=len(relation))
        return self._execute_select(request)

    def _execute_select(self, query: SelectQuery) -> EngineResult:
        for ref in query.tables:
            if ref.table not in self._schemas:
                raise UnknownRelationError(ref.table)
        sql = self._render(query)
        try:
            cursor = self._connection.execute(sql)
        except sqlite3.Error as exc:
            raise RemoteDBMSError(f"sqlite rejected {sql!r}: {exc}") from exc
        attrs = tuple(_qualified(c.alias, c.attr) for c in query.select)
        relation = Relation(Schema("result", attrs), (tuple(row) for row in cursor))
        touched = sum(self._cardinalities[ref.table] for ref in query.tables)
        touched += len(relation)
        return EngineResult(relation, tuples_touched=touched)

    def _render(self, query: SelectQuery) -> str:
        columns = ", ".join(
            f"{_quote(c.alias)}.{_quote(c.attr)}" for c in query.select
        )
        tables = ", ".join(
            f"{_quote(t.table)} AS {_quote(t.alias)}" for t in query.tables
        )
        sql = f"SELECT DISTINCT {columns} FROM {tables}"
        if query.where:
            parts = []
            for condition in query.where:
                if isinstance(condition, SqlInList):
                    column = f"{_quote(condition.column.alias)}.{_quote(condition.column.attr)}"
                    values = ", ".join(render_literal(v) for v in condition.values)
                    parts.append(f"{column} IN ({values})")
                    continue
                left = self._render_operand(condition.left)
                right = self._render_operand(condition.right)
                if condition.op in _ORDERED:
                    # Numbers order with numbers, text with text; a
                    # cross-class pair is false (NULL is false either way).
                    parts.append(
                        f"({_is_numeric(condition.left, left)}) = "
                        f"({_is_numeric(condition.right, right)})"
                    )
                parts.append(f"{left} {condition.op} {right}")
            sql += " WHERE " + " AND ".join(parts)
        return sql

    @staticmethod
    def _render_operand(operand) -> str:
        if isinstance(operand, SqlCol):
            return f"{_quote(operand.alias)}.{_quote(operand.attr)}"
        if isinstance(operand, SqlLit):
            return render_literal(operand.value)
        raise RemoteDBMSError(f"bad condition operand: {operand!r}")

    def close(self) -> None:
        """Close the sqlite connection."""
        self._connection.close()
