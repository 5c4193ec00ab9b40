"""Translation from PSJ queries to the remote DBMS's DML.

Section 3: "To retrieve data from the remote database, [the CMS] performs
query translation to [the] data manipulation language (DML) of the remote
DBMS."  Qualified columns (``t1.c2``) are mapped through the remote schema
catalog to real attribute names; pinned-constant projection entries are
kept out of the SELECT list and re-attached client-side by the RDI.

A request *shape* — occurrences, projection, condition skeleton and IN-list
columns — translates the same whatever its constants, so the RDI prepares
it once (:class:`SQLTemplate`, keyed by :func:`request_shape`) and binds
each ask's literals and IN-list values into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

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

    def rebuild(self, shipped_rows: Iterable[tuple]) -> Relation:
        """Assemble the final result relation from shipped rows.  The
        engine result's :class:`Relation` is distinct by type, so a recipe
        that keeps every shipped column adopts its rows; a plain list is
        deduplicated."""
        schema = result_schema(self.result_name, len(self.output))
        return project_entries(shipped_rows, self.output, schema)


def sql_from_psj(
    psj: PSJQuery,
    schema_of: SchemaLookup,
    in_lists: Mapping[str, tuple[object, ...]] | None = None,
) -> SQLTranslation:
    """Translate a PSJ query into a DML request: its shape's template,
    built from scratch, bound to its constants.

    ``in_lists`` maps qualified query columns (``"t1.c0"``) to binding
    value tuples; each becomes a shipped IN-list predicate (the semijoin
    reduction).  Values must already be deduplicated and in canonical
    order — the RDI owns that normalization.

    Raises :class:`TranslationError` for queries with no relation
    occurrences (nothing to ask the remote DBMS for) — the planner routes
    those to local evaluation.
    """
    in_lists = in_lists or {}
    return SQLTemplate(psj, schema_of, in_lists).bind(psj, in_lists)


def request_shape(
    psj: PSJQuery, in_lists: Mapping[str, tuple[object, ...]]
) -> tuple:
    """What :class:`SQLTemplate` reads of a request: the occurrences, the
    projection with each pinned constant a ``None``, each condition's
    operator and column operands (a literal one ``None``) and the IN-list
    columns.  Requests of one shape translate alike but for the values
    :meth:`SQLTemplate.bind` puts in."""
    return (
        psj.occurrences,
        tuple(entry if type(entry) is str else None for entry in psj.projection),
        tuple(
            (
                c.left.name if type(c.left) is Col else None,
                c.op,
                c.right.name if type(c.right) is Col else None,
            )
            for c in psj.conditions
        ),
        tuple(sorted(in_lists)),
    )


class SQLTemplate:
    """The one assembler of DML: a request shape's translation with its
    constants left open.  Building it looks each occurrence's schema up
    and resolves every column the request names; :meth:`bind` puts one
    ask's literals, IN-list values and pinned constants in.  WHERE holds
    condition ``i`` at position ``i``, then the IN-lists in column order."""

    __slots__ = ("tables", "select", "where", "literals", "in_columns", "output", "pinned")

    def __init__(
        self,
        psj: PSJQuery,
        schema_of: SchemaLookup,
        in_lists: Mapping[str, tuple[object, ...]],
    ):
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

        self.tables = tuple(TableRef(occ.pred, occ.tag) for occ in psj.occurrences)

        #: Column-only conditions, built; a ``None`` where a literal goes.
        where: list[SqlCondition | None] = []
        #: ``(WHERE position, left column, right column)`` per condition
        #: with a literal operand, that operand's column ``None``.
        literals = []
        for i, condition in enumerate(psj.conditions):
            if condition.op not in _SQL_OPS:
                raise TranslationError(f"operator {condition.op!r} not supported remotely")
            left = to_sql_col(condition.left.name) if type(condition.left) is Col else None
            right = to_sql_col(condition.right.name) if type(condition.right) is Col else None
            if left is None or right is None:
                literals.append((i, left, right))
                where.append(None)
            else:
                where.append(SqlCondition(left, right=right, op=condition.op))
        self.where = tuple(where)
        self.literals = tuple(literals)
        #: ``(qualified column, its SQL column)`` per IN-list, sorted.
        self.in_columns = tuple((q, to_sql_col(q)) for q in sorted(in_lists))

        select_cols: list[SqlCol] = []
        select_index: dict[str, int] = {}
        output: list[tuple[str, object] | None] = []
        for entry in psj.projection:
            if type(entry) is ConstProj:
                output.append(None)  # the ask's pinned constant
                continue
            if entry not in select_index:
                select_index[entry] = len(select_cols)
                select_cols.append(to_sql_col(entry))
            output.append(("col", select_index[entry]))
        if not select_cols:
            # Fully instantiated (boolean) query: ship one witness column.
            first = psj.occurrences[0]
            select_cols.append(SqlCol(first.tag, schemas[first.tag].attributes[0]))
        self.select = tuple(select_cols)
        self.output = tuple(output)
        self.pinned = tuple(i for i, entry in enumerate(output) if entry is None)

    def bind(
        self, psj: PSJQuery, in_lists: Mapping[str, tuple[object, ...]]
    ) -> SQLTranslation:
        """The translation of ``psj`` (of this template's shape) shipping
        ``in_lists``."""
        where = self.where
        if self.literals or self.in_columns:
            where = list(where)
            conditions = psj.conditions
            for i, left, right in self.literals:
                condition = conditions[i]
                where[i] = SqlCondition(
                    SqlLit(condition.left.value) if left is None else left,
                    right=SqlLit(condition.right.value) if right is None else right,
                    op=condition.op,
                )
            where.extend(
                SqlInList(column, tuple(in_lists[qualified]))
                for qualified, column in self.in_columns
            )
            where = tuple(where)
        output = self.output
        if self.pinned:
            output = list(output)
            for i in self.pinned:
                output[i] = ("const", psj.projection[i].value)
            output = tuple(output)
        query = SelectQuery(tables=self.tables, select=self.select, where=where)
        return SQLTranslation(query, output, psj.name)
