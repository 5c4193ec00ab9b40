"""Translation from PSJ queries to the remote DBMS's DML.

Section 3: "To retrieve data from the remote database, [the CMS] performs
query translation to [the] data manipulation language (DML) of the remote
DBMS."  Qualified columns (``t1.c2``) are mapped through the remote schema
catalog to real attribute names; pinned-constant projection entries are
kept out of the SELECT list and re-attached client-side by the RDI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.common.errors import TranslationError
from repro.relational.expressions import Col
from repro.relational.operators import project_entries
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.remote.sql import SelectQuery, SqlCol, SqlCondition, SqlInList, SqlLit, TableRef
from repro.caql.eval import result_schema
from repro.caql.psj import ConstProj, PSJQuery, parse_column

#: Resolves a base table name to its remote schema.
SchemaLookup = Callable[[str], Schema]

#: PSJ condition operator -> DML operator (identical sets here).
_SQL_OPS = {"=", "!=", "<", ">", "<=", ">="}


@dataclass(frozen=True)
class SQLTranslation:
    """A DML request plus the recipe for rebuilding result rows.

    ``output`` has one entry per PSJ projection slot: ``("col", i)`` takes
    column ``i`` of the shipped result; ``("const", v)`` inserts the pinned
    constant ``v``.
    """

    query: SelectQuery
    output: tuple[tuple[str, object], ...]
    result_name: str

    def rebuild(self, shipped_rows: list[tuple]) -> Relation:
        """Assemble the final result relation from shipped rows."""
        schema = result_schema(self.result_name, len(self.output))
        return project_entries(shipped_rows, self.output, schema)


def sql_from_psj(
    psj: PSJQuery,
    schema_of: SchemaLookup,
    in_lists: Mapping[str, tuple[object, ...]] | None = None,
) -> SQLTranslation:
    """Translate a PSJ query into a DML request.

    ``in_lists`` maps qualified query columns (``"t1.c0"``) to binding
    value tuples; each becomes a shipped IN-list predicate (the semijoin
    reduction).  Values must already be deduplicated and in canonical
    order — the RDI owns that normalization.

    Raises :class:`TranslationError` for queries with no relation
    occurrences (nothing to ask the remote DBMS for) — the planner routes
    those to local evaluation.
    """
    if not psj.occurrences:
        raise TranslationError(f"{psj.name}: no relation occurrences to translate")
    if psj.unsatisfiable:
        raise TranslationError(f"{psj.name}: query is unsatisfiable; do not ship it")

    schemas = {occ.tag: schema_of(occ.pred) for occ in psj.occurrences}
    for occ in psj.occurrences:
        if schemas[occ.tag].arity != occ.arity:
            raise TranslationError(
                f"{psj.name}: {occ.pred} has remote arity {schemas[occ.tag].arity}, "
                f"query expects {occ.arity}"
            )

    def to_sql_col(qualified: str) -> SqlCol:
        tag, position = parse_column(qualified)
        return SqlCol(tag, schemas[tag].attributes[position])

    tables = tuple(TableRef(occ.pred, occ.tag) for occ in psj.occurrences)

    where = []
    for condition in psj.conditions:
        if condition.op not in _SQL_OPS:
            raise TranslationError(f"operator {condition.op!r} not supported remotely")
        left = (
            to_sql_col(condition.left.name)
            if isinstance(condition.left, Col)
            else SqlLit(condition.left.value)
        )
        right = (
            to_sql_col(condition.right.name)
            if isinstance(condition.right, Col)
            else SqlLit(condition.right.value)
        )
        where.append(SqlCondition(left, right=right, op=condition.op))

    if in_lists:
        for qualified in sorted(in_lists):
            where.append(SqlInList(to_sql_col(qualified), tuple(in_lists[qualified])))

    select_cols: list[SqlCol] = []
    select_index: dict[str, int] = {}
    output: list[tuple[str, object]] = []
    for entry in psj.projection:
        if isinstance(entry, ConstProj):
            output.append(("const", entry.value))
            continue
        if entry not in select_index:
            select_index[entry] = len(select_cols)
            select_cols.append(to_sql_col(entry))
        output.append(("col", select_index[entry]))

    if not select_cols:
        # Fully instantiated (boolean) query: ship one witness column.
        first = psj.occurrences[0]
        select_cols.append(SqlCol(first.tag, schemas[first.tag].attributes[0]))

    query = SelectQuery(tables=tables, select=tuple(select_cols), where=tuple(where))
    return SQLTranslation(query, tuple(output), psj.name)
