"""The remote DBMS's query engine (pure-Python implementation).

Executes DML requests (:class:`~repro.remote.sql.SelectQuery`) against
stored relations using the relational substrate.  The engine also reports a
``tuples_touched`` count — the server-side work metric that the network
model converts into simulated server time.

This is deliberately a plain conventional engine: selections are pushed
down, joins are executed in FROM-clause order with hash joins, and there is
no caching, no subsumption, and no lazy interface — those are exactly the
capabilities the CMS adds on the workstation side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.common.errors import RemoteDBMSError, UnknownRelationError
from repro.relational.expressions import Col, Comparison, Lit
from repro.relational.index import IndexSet
from repro.relational.operators import join, project, select, split_join_step
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.remote.sql import FetchTableQuery, SelectQuery, SqlCol, SqlInList, SqlLit


@dataclass
class EngineResult:
    """A query result plus the server work it took to produce."""

    relation: Relation
    tuples_touched: int


def _qualified(alias: str, attr: str) -> str:
    return f"{alias}.{attr}"


class PurePythonEngine:
    """Stores base tables and executes PSJ requests over them.

    **Access paths.**  A base table a SELECT still reads in place is never
    walked to find a few of its rows: :meth:`rows_where` serves *the rows
    whose column takes one of these values, in base-table order* from a
    hash index per (table, column), built on first use.  The unchanged
    operator then runs on what the probe returned, so answers, their row
    order and ``tuples_touched`` (the simulated DBMS's work, still charged
    as a scan) are those of scanning.
    """

    def __init__(self) -> None:
        self._tables: dict[str, Relation] = {}
        self._indexes: dict[str, IndexSet] = {}

    # -- data definition ---------------------------------------------------------
    def create_table(self, relation: Relation) -> None:
        """Install (or replace) a base table."""
        name = relation.schema.name
        self._tables[name] = relation
        self._indexes.pop(name, None)  # they were the replaced table's

    def table(self, name: str) -> Relation:
        """The stored extension of ``name``; raises when unknown."""
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    def rows_where(self, table: str, attribute: str, values: Iterable[object]) -> list[tuple]:
        """Rows of ``table`` whose ``attribute`` takes one of ``values``
        (hashable; Python equality), each once, in base-table order.

        Served from the table's hash index on ``attribute``, built on first
        use; ``IndexSet.ensure`` rebuilds one whose table has grown since
        (rows are append-only, so length is the whole staleness test).
        """
        indexes = self._indexes.get(table)
        if indexes is None:
            indexes = self._indexes[table] = IndexSet(self.table(table))
        return indexes.ensure((attribute,)).lookup_any(zip(values))

    # -- execution ------------------------------------------------------------------
    def execute(self, request: SelectQuery | FetchTableQuery) -> EngineResult:
        """Execute a DML request against the stored tables."""
        if isinstance(request, FetchTableQuery):
            base = self.table(request.table)
            return EngineResult(base.copy(), tuples_touched=len(base))
        return self._execute_select(request)

    def _execute_select(self, query: SelectQuery) -> EngineResult:
        touched = 0

        # Read each FROM entry in place under alias-qualified attribute
        # names: every operator below builds a new relation, so the shared
        # rows are only ever scanned and never leave this method.
        loaded: dict[str, Relation] = {}
        #: alias -> its base table, until something restricts the alias:
        #: where an access path applies.
        in_place: dict[str, Relation] = {}
        for ref in query.tables:
            base = self.table(ref.table)
            attrs = tuple(_qualified(ref.alias, a) for a in base.schema.attributes)
            loaded[ref.alias] = base.with_schema(Schema(ref.alias, attrs))
            in_place[ref.alias] = base
            touched += len(base)

        def probe(alias: str, column: str, values: Iterable[object]) -> Relation:
            """The in-place ``alias`` cut down to the rows whose (qualified)
            ``column`` takes one of ``values``, read through the index."""
            schema = loaded[alias].schema
            stored = in_place.pop(alias).schema
            attribute = stored.attributes[schema.position(column)]
            return Relation.from_distinct_rows(
                schema, self.rows_where(stored.name, attribute, values)
            )

        # Apply shipped binding sets (semijoin IN-lists) as pushed-down
        # selections on their table before any join work.
        for term in query.where:
            if not isinstance(term, SqlInList):
                continue
            alias = term.column.alias
            if alias not in loaded:
                raise RemoteDBMSError(f"IN-list references unknown alias: {term}")
            column = _qualified(alias, term.column.attr)
            if alias in in_place:
                loaded[alias] = probe(alias, column, term.values)
            else:
                relation = loaded[alias]
                position = relation.schema.position(column)
                allowed = set(term.values)
                loaded[alias] = Relation.from_distinct_rows(
                    relation.schema, [row for row in relation if row[position] in allowed]
                )

        # Classify WHERE conditions.
        local: dict[str, list[Comparison]] = {alias: [] for alias in loaded}
        join_conditions: list[Comparison] = []
        for condition in query.where:
            if isinstance(condition, SqlInList):
                continue
            comparison, aliases = _to_comparison(condition)
            if len(aliases) <= 1:
                alias = next(iter(aliases), None)
                if alias is None:
                    # Constant-only condition: treat as a global filter on
                    # the first table (it is either always true or false).
                    alias = query.tables[0].alias
                if alias not in local:
                    raise RemoteDBMSError(f"condition references unknown alias: {condition}")
                local[alias].append(comparison)
            else:
                join_conditions.append(comparison)

        # Push selections down.  On a table still in place an equality pin
        # picks the rows to look at; the whole conjunction, pin included,
        # then decides, so the predicate's semantics are the only semantics.
        for alias, conditions in local.items():
            if not conditions:
                continue
            pin = _equality_pin(conditions) if alias in in_place else None
            if pin is not None:
                loaded[alias] = probe(alias, *pin)
            in_place.pop(alias, None)
            loaded[alias] = select(loaded[alias], conditions)

        # Join in FROM order, using whatever equi-join conditions apply.
        first = query.tables[0].alias
        combined = loaded[first]
        joined_attrs = set(combined.schema.attributes)
        pending = list(join_conditions)
        for ref in query.tables[1:]:
            right = loaded[ref.alias]
            right_attrs = set(right.schema.attributes)
            pairs, residual_here, pending = split_join_step(
                pending, joined_attrs, right_attrs
            )
            # ``join`` streams its larger input past a hash table of the
            # smaller.  A streamed table still in place is first cut down to
            # the rows that meet a build-side key; the build side stays the
            # one the whole table would have had, and so does the row order.
            build_left = len(combined) <= len(right)
            if pairs:
                left_column, right_column = pairs[0]
                if build_left and ref.alias in in_place:
                    right = probe(
                        ref.alias, right_column, combined.distinct_values(left_column)
                    )
                elif not build_left and first in in_place:
                    combined = probe(
                        first, left_column, right.distinct_values(right_column)
                    )
            in_place.pop(first, None)  # past this join it is a derived relation
            combined = join(
                combined, right, pairs, name="join", conditions=residual_here,
                build_left=build_left,
            )
            joined_attrs |= right_attrs
            touched += len(combined)
        if pending:
            # Conditions that never became joinable (should not happen for
            # well-formed requests, but filter rather than silently drop).
            combined = select(combined, pending)

        out_attrs = [_qualified(c.alias, c.attr) for c in query.select]
        result = project(combined, out_attrs, name="result")
        return EngineResult(result, tuples_touched=touched)


def _equality_pin(conditions: list[Comparison]) -> tuple[str, tuple] | None:
    """The first ``column = constant`` of a conjunction, as (column, (value,)).

    An unhashable constant cannot be looked up (and equals no stored
    value the engine could have hashed into a row): it is no pin.
    """
    for condition in conditions:
        norm = condition.normalized()
        if norm.op == "=" and isinstance(norm.left, Col) and isinstance(norm.right, Lit):
            try:
                hash(norm.right.value)
            except TypeError:
                continue
            return norm.left.name, (norm.right.value,)
    return None


def _to_comparison(condition) -> tuple[Comparison, set[str]]:
    """Convert an SQL condition to a row comparison over qualified names."""
    aliases: set[str] = set()

    def operand(x):
        if isinstance(x, SqlCol):
            aliases.add(x.alias)
            return Col(_qualified(x.alias, x.attr))
        if isinstance(x, SqlLit):
            return Lit(x.value)
        raise RemoteDBMSError(f"bad condition operand: {x!r}")

    left = operand(condition.left)
    right = operand(condition.right)
    op = "!=" if condition.op == "!=" else condition.op
    return Comparison(left, op, right), aliases
