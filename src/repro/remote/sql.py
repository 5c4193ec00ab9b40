"""The remote DBMS's data manipulation language (DML).

The paper requires the CMS to perform "query translation to [the] data
manipulation language (DML) of the remote DBMS" (Section 3).  The DML here
is the PSJ subset of SQL — SELECT/FROM/WHERE over aliased tables — which is
what a conventional late-1980s relational DBMS (INGRES, IDM-500) accepted.

The structures below are the *wire format* of a request; they can also be
rendered to SQL text (:func:`render_sql`), which is what the sqlite backend
executes and what logs show.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.common.errors import TranslationError

_VALID_OPS = {"=", "!=", "<", ">", "<=", ">="}


@dataclass(frozen=True, slots=True)
class TableRef:
    """``table AS alias`` in the FROM clause."""

    table: str
    alias: str

    def __str__(self) -> str:
        if self.table == self.alias:
            return self.table
        return f"{self.table} AS {self.alias}"


@dataclass(frozen=True, slots=True)
class SqlCol:
    """A column reference ``alias.attr``."""

    alias: str
    attr: str

    def __str__(self) -> str:
        return f"{self.alias}.{self.attr}"


@dataclass(frozen=True, slots=True)
class SqlLit:
    """A literal value in a condition."""

    value: object

    def __str__(self) -> str:
        return render_literal(self.value)


SqlOperand = Union[SqlCol, SqlLit]


@dataclass(frozen=True, slots=True)
class SqlCondition:
    """``left op right`` in the WHERE clause."""

    left: SqlOperand
    op: str
    right: SqlOperand

    def __post_init__(self) -> None:
        if self.op not in _VALID_OPS:
            raise TranslationError(f"operator {self.op!r} is not in the remote DML")

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True, slots=True)
class SqlInList:
    """``alias.attr IN (v1, v2, ...)`` — a shipped binding set.

    This is the semijoin reduction carrier: the workstation ships the
    distinct join-column values a cache part pinned, and the server returns
    only matching tuples.  The value tuple must be non-empty (an empty
    binding set means the join result is provably empty, so the request
    should never be shipped at all) and deduplicated by the sender.
    """

    column: SqlCol
    values: tuple[object, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise TranslationError(
                f"empty IN-list for {self.column}: short-circuit instead of shipping"
            )
        if len(set(self.values)) != len(self.values):
            raise TranslationError(
                f"IN-list for {self.column} contains duplicate binding values"
            )

    def __str__(self) -> str:
        rendered = ", ".join(render_literal(v) for v in self.values)
        return f"{self.column} IN ({rendered})"


#: Anything the WHERE conjunction may contain.
WhereTerm = Union[SqlCondition, SqlInList]


@dataclass(frozen=True)
class SelectQuery:
    """A PSJ request: SELECT DISTINCT columns FROM tables WHERE conjunction.

    Always DISTINCT: CAQL (like the relational model) has set semantics
    while SQL has bag semantics.
    """

    tables: tuple[TableRef, ...]
    select: tuple[SqlCol, ...]
    where: tuple[WhereTerm, ...] = ()

    def __post_init__(self) -> None:
        if not self.tables:
            raise TranslationError("a SELECT needs at least one table")
        if not self.select:
            raise TranslationError("a SELECT needs at least one output column")
        aliases = [t.alias for t in self.tables]
        if len(set(aliases)) != len(aliases):
            raise TranslationError(f"duplicate table aliases: {aliases}")
        known = set(aliases)
        for col in self.select:
            if col.alias not in known:
                raise TranslationError(f"SELECT column {col} references unknown alias")
        for condition in self.where:
            if isinstance(condition, SqlInList):
                if condition.column.alias not in known:
                    raise TranslationError(
                        f"IN-list column {condition.column} references unknown alias"
                    )
                continue
            for operand in (condition.left, condition.right):
                if isinstance(operand, SqlCol) and operand.alias not in known:
                    raise TranslationError(f"WHERE operand {operand} references unknown alias")

    def binding_values_shipped(self) -> int:
        """Total IN-list values this request ships to the server."""
        return sum(
            len(term.values) for term in self.where if isinstance(term, SqlInList)
        )

    def __str__(self) -> str:
        return render_sql(self)


def render_literal(value: object) -> str:
    """SQL literal syntax for a Python value."""
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float)):
        return repr(value)
    if value is None:
        return "NULL"
    raise TranslationError(f"cannot render literal of type {type(value).__name__}: {value!r}")


def render_sql(query: SelectQuery) -> str:
    """Render a request as SQL text (executable by the sqlite backend)."""
    columns = ", ".join(str(c) for c in query.select)
    tables = ", ".join(str(t) for t in query.tables)
    sql = f"SELECT DISTINCT {columns} FROM {tables}"
    if query.where:
        conjunction = " AND ".join(str(c) for c in query.where)
        sql += f" WHERE {conjunction}"
    return sql


@dataclass(frozen=True)
class FetchTableQuery:
    """A degenerate request for a whole base table (schema discovery path)."""

    table: str


#: Any request the remote DBMS accepts.
DMLRequest = Union[SelectQuery, FetchTableQuery]
