"""The remote database's schema catalog and statistics.

Section 3: "the remote DBMS controls the database and the database schema";
the IE "can access the schema information from the DBMS (via the CMS)" and
the shaper uses "cardinality and selectivity information from the DBMS
schema".  The catalog is that information surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.common.errors import UnknownRelationError
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.statistics import RelationStatistics


@dataclass
class Catalog:
    """Schemas and statistics for every table in the remote database."""

    _schemas: dict[str, Schema] = field(default_factory=dict)
    _statistics: dict[str, RelationStatistics] = field(default_factory=dict)

    def register(self, relation: Relation) -> None:
        """Add (or replace) a table; statistics are computed immediately."""
        name = relation.schema.name
        self._schemas[name] = relation.schema
        self._statistics[name] = RelationStatistics.from_relation(relation)

    def refresh_statistics(self, relation: Relation) -> None:
        """Recompute statistics after the table's contents changed."""
        self._statistics[relation.schema.name] = RelationStatistics.from_relation(relation)

    def refresh_all(self, lookup: Callable[[str], Relation]) -> None:
        """Recompute statistics for **every** registered table.

        Statistics are captured at :meth:`register` time; a table whose
        contents changed since (an engine-side reload, say) keeps serving
        stale cardinalities to the planner's cost model.  ``lookup``
        resolves a table name to its *current* contents — the federation
        bootstrap passes the server's engine so per-backend estimates used
        by semijoin costing are honest.
        """
        for table in self.tables():
            self.refresh_statistics(lookup(table))

    def schema(self, table: str) -> Schema:
        """The schema of ``table``; raises when unknown."""
        try:
            return self._schemas[table]
        except KeyError:
            raise UnknownRelationError(table) from None

    def statistics(self, table: str) -> RelationStatistics:
        """The statistics of ``table``; raises when unknown."""
        try:
            return self._statistics[table]
        except KeyError:
            raise UnknownRelationError(table) from None

    def has(self, table: str) -> bool:
        """True when ``table`` is registered."""
        return table in self._schemas

    def tables(self) -> list[str]:
        """All registered table names, sorted."""
        return sorted(self._schemas)
