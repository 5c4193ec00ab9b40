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

from repro.common.errors import RemoteDBMSError, UnknownRelationError
from repro.relational.expressions import Col, Comparison, Lit
from repro.relational.operators import join, project, select
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
    """Stores base tables and executes PSJ requests over them."""

    def __init__(self) -> None:
        self._tables: dict[str, Relation] = {}

    # -- data definition ---------------------------------------------------------
    def create_table(self, relation: Relation) -> None:
        """Install (or replace) a base table."""
        self._tables[relation.schema.name] = relation

    def table(self, name: str) -> Relation:
        """The stored extension of ``name``; raises when unknown."""
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    def tables(self) -> list[str]:
        """Names of all stored tables, sorted."""
        return sorted(self._tables)

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
        for ref in query.tables:
            base = self.table(ref.table)
            attrs = tuple(_qualified(ref.alias, a) for a in base.schema.attributes)
            loaded[ref.alias] = base.with_schema(Schema(ref.alias, attrs))
            touched += len(base)

        # Apply shipped binding sets (semijoin IN-lists) as pushed-down
        # selections on their table before any join work.
        for term in query.where:
            if not isinstance(term, SqlInList):
                continue
            alias = term.column.alias
            if alias not in loaded:
                raise RemoteDBMSError(f"IN-list references unknown alias: {term}")
            relation = loaded[alias]
            position = relation.schema.position(
                _qualified(alias, term.column.attr)
            )
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

        # Push selections down.
        for alias, conditions in local.items():
            if conditions:
                loaded[alias] = select(loaded[alias], conditions)

        # Join in FROM order, using whatever equi-join conditions apply.
        combined = loaded[query.tables[0].alias]
        joined_attrs = set(combined.schema.attributes)
        pending = list(join_conditions)
        for ref in query.tables[1:]:
            right = loaded[ref.alias]
            right_attrs = set(right.schema.attributes)
            pairs = []
            residual_here = []
            remaining = []
            for comparison in pending:
                cols = comparison.columns()
                if cols <= (joined_attrs | right_attrs):
                    left_cols = cols & joined_attrs
                    right_cols = cols & right_attrs
                    if (
                        comparison.op == "="
                        and comparison.is_col_col()
                        and len(left_cols) == 1
                        and len(right_cols) == 1
                    ):
                        pairs.append((left_cols.pop(), right_cols.pop()))
                    else:
                        residual_here.append(comparison)
                else:
                    remaining.append(comparison)
            combined = join(combined, right, pairs, name="join", conditions=residual_here)
            joined_attrs |= right_attrs
            pending = remaining
            touched += len(combined)
        if pending:
            # Conditions that never became joinable (should not happen for
            # well-formed requests, but filter rather than silently drop).
            combined = select(combined, pending)

        out_attrs = [_qualified(c.alias, c.attr) for c in query.select]
        result = project(combined, out_attrs, name="result")
        return EngineResult(result, tuples_touched=touched)


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
