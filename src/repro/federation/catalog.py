"""The federated catalog: which backend is home to which base relation.

BrAID's architecture assumes a single "independent and autonomous" remote
DBMS behind the RDI; the bridging thesis generalizes to N heterogeneous
sources.  The catalog is the federation's only piece of global knowledge:
a mapping from base-relation name to the backend that owns it.  Everything
else — schemas, statistics, cost profiles, fault behaviour — stays with
the individual backend, which remains exactly as independent as the
paper's single server.

Ownership is exclusive: a relation lives on one backend (no replication),
so routing a fetch is a dictionary lookup and a cross-backend join is
always a plan of per-backend parts, combined on the workstation.
"""

from __future__ import annotations

from repro.common.errors import UnknownRelationError
from repro.remote.server import RemoteDBMS


class FederatedCatalog:
    """Maps every base relation to its home backend."""

    def __init__(self) -> None:
        self._backends: dict[str, RemoteDBMS] = {}
        self._home: dict[str, str] = {}

    def register(self, name: str, server: RemoteDBMS) -> None:
        """Add a backend, claiming every table its catalog knows.

        Raises ``ValueError`` on a duplicate backend name or when a table
        is already owned by an earlier backend — exclusive ownership is
        what makes routing unambiguous.
        """
        if not name:
            raise ValueError("backend name must be non-empty")
        if name in self._backends:
            raise ValueError(f"backend {name!r} already registered")
        for table in server.catalog.tables():
            owner = self._home.get(table)
            if owner is not None:
                raise ValueError(
                    f"table {table!r} already owned by backend {owner!r}"
                )
        self._backends[name] = server
        for table in server.catalog.tables():
            self._home[table] = name

    # -- lookups ---------------------------------------------------------------
    def home_of(self, table: str) -> str:
        """Name of the backend owning ``table``; raises when unowned."""
        try:
            return self._home[table]
        except KeyError:
            raise UnknownRelationError(table) from None

    def backend(self, name: str) -> RemoteDBMS:
        """The backend server registered under ``name``."""
        try:
            return self._backends[name]
        except KeyError:
            raise KeyError(f"unknown backend {name!r}") from None

    def backends(self) -> list[str]:
        """All backend names, sorted."""
        return sorted(self._backends)

    def has(self, table: str) -> bool:
        """True when some backend owns ``table``."""
        return table in self._home
