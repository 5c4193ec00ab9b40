"""The federated RDI: one interface, many autonomous backends.

The CMS speaks to a single Remote DBMS Interface; this class keeps that
contract while the far side is a *federation* — several independent
servers, each with its own catalog, cost profile, fault policy, retry
budget, and circuit breaker.  Every request it takes names base relations
of **one** backend and is routed straight there (``rdi.route``).  A query
spanning backends is not a request but a plan: the planner splits it into
one remote part per home backend (:mod:`repro.core.planner`), and the
Execution Monitor orders the parts, ships binding values between them,
short-circuits, and combines — so a spanning request here raises
:class:`~repro.common.errors.PlanningError`.

Each per-backend link is a full :class:`~repro.core.rdi.RemoteInterface`,
so retries, timeouts, and circuit breaking happen per backend; one dark
backend never blocks the others.
"""

from __future__ import annotations

from repro.common.clock import CostProfile
from repro.common.errors import PlanningError, RemoteDBMSError, UnknownRelationError
from repro.relational.relation import Relation
from repro.relational.statistics import RelationStatistics
from repro.caql.psj import PSJQuery
from repro.core.plan import home_groups
from repro.core.rdi import RemoteInterface
from repro.remote.faults import RetryPolicy
from repro.federation.catalog import FederatedCatalog


class FederatedInterface:
    """The single-RDI contract over per-backend links: a router."""

    def __init__(
        self,
        catalog: FederatedCatalog,
        retries: dict[str, RetryPolicy] | None = None,
    ):
        backends = catalog.backends()
        if not backends:
            raise ValueError("a federation needs at least one backend")
        self.catalog = catalog
        first = catalog.backend(backends[0])
        for name in backends[1:]:
            if catalog.backend(name).clock is not first.clock:
                raise ValueError("federated backends must share one SimClock")
        self.tracer = first.tracer
        retries = retries or {}
        #: One resilient link per backend: its own retry budget, its own
        #: breaker (tagged with the backend name in traces).
        self.links: dict[str, RemoteInterface] = {
            name: RemoteInterface(catalog.backend(name), retries.get(name))
            for name in backends
        }

    # -- contract: availability / metadata -------------------------------------
    def remote_available(self) -> bool:
        """Planner hook: at least one backend would accept a request."""
        return any(
            self.links[name].remote_available() for name in self.catalog.backends()
        )

    def statistics_of(self, table: str) -> RelationStatistics:
        return self.links[self.catalog.home_of(table)].statistics_of(table)

    def cost_profile_of(self, table: str) -> tuple[str, CostProfile]:
        """Planner hook: home backend name and cost profile of ``table``."""
        name = self.catalog.home_of(table)
        return name, self.catalog.backend(name).profile

    def check_invariants(self) -> None:
        """Every link's :meth:`RemoteInterface.check_invariants`."""
        for link in self.links.values():
            link.check_invariants()

    # -- routing ------------------------------------------------------------------
    def _backend_for(self, psj: PSJQuery) -> str:
        """The one backend owning every base relation of ``psj``."""
        if not psj.occurrences:
            raise UnknownRelationError(
                f"{psj.name}: cannot route a query with no base relations"
            )
        homes = sorted(home_groups(psj, self.cost_profile_of))
        if len(homes) > 1:
            raise PlanningError(
                f"{psj.name} spans backends {homes}: a spanning query is a "
                "plan (one remote part per backend), not one request"
            )
        return homes[0]

    def _route(self, backend: str, view: str, tables: list[str]) -> None:
        """Announce that ``view`` goes to ``backend`` (``rdi.route``)."""
        self.tracer.event("rdi.route", view=view, backend=backend, tables=tables)

    # -- contract: execution ----------------------------------------------------
    def fetch(
        self,
        psj: PSJQuery,
        bindings: dict[str, tuple[object, ...]] | None = None,
    ) -> Relation:
        """Fetch ``psj`` from the backend that owns its base relations."""
        backend = self._backend_for(psj)
        self._route(backend, psj.name, _tables(psj))
        return self.links[backend].fetch(psj, bindings=bindings)

    def fetch_many(self, psjs: list[PSJQuery]) -> list[Relation]:
        """Batched fetch: the queries of one backend share its one round
        trip (``fetch_many`` per link), backends in name order; results
        come back in request order."""
        if len(psjs) <= 1:
            return [self.fetch(psj) for psj in psjs]
        grouped: dict[str, list[int]] = {}
        for index, psj in enumerate(psjs):
            grouped.setdefault(self._backend_for(psj), []).append(index)
        results: dict[int, Relation] = {}
        for backend in sorted(grouped):
            indexes = grouped[backend]
            wanted = [psjs[i] for i in indexes]
            for psj in wanted:
                self._route(backend, psj.name, _tables(psj))
            batch = self.links[backend].fetch_many(wanted)
            for index, relation in zip(indexes, batch):
                results[index] = relation
        return [results[index] for index in range(len(psjs))]

    def fetch_base_relation(self, table: str) -> Relation:
        """Fetch one whole base table from its home backend."""
        if not self.catalog.has(table):
            raise UnknownRelationError(table)
        backend = self.catalog.home_of(table)
        self._route(backend, table, [table])
        return self.links[backend].fetch_base_relation(table)

    def fetch_partial(self, psj: PSJQuery) -> Relation | None:
        """:meth:`fetch` for a degraded answer: the rows, or ``None`` when
        the backend fails (``federation.part_lost``)."""
        try:
            return self.fetch(psj)
        except RemoteDBMSError:
            self.tracer.event(
                "federation.part_lost",
                view=psj.name,
                backend=self._backend_for(psj),
            )
            return None


def _tables(psj: PSJQuery) -> list[str]:
    return sorted({o.pred for o in psj.occurrences})
