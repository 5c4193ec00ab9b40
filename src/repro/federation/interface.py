"""The federated RDI: one interface, many autonomous backends.

The CMS speaks to a single Remote DBMS Interface; this class keeps that
contract while the far side is a *federation* — several independent
servers, each with its own catalog, cost profile, fault policy, retry
budget, and circuit breaker.  A query whose base relations all live on one
backend is routed straight through (``rdi.route``).  A query spanning
backends is **scatter-gathered**:

1. partition the occurrences by home backend (the planner's own part
   builder, :func:`repro.core.plan.sub_query`: per-backend conditions are
   pushed down, projections narrowed to needed columns),
2. fetch the cheapest part first (per-backend statistics drive the order),
3. ship the distinct join-column values of already-fetched parts to later
   backends as IN-lists — the PR 4 semijoin reduction, applied *between*
   backends, with :func:`~repro.core.rdi.canonical_bindings` keeping the
   wire deterministic,
4. short-circuit the remaining round trips when any part (or binding set)
   comes back empty — a conjunctive join with an empty input is empty,
5. join the parts locally and project — through
   :func:`repro.core.engine.combine_parts`, the same kernel the Execution
   Monitor's combine stage runs.

Each per-backend link is a full :class:`~repro.core.rdi.RemoteInterface`,
so retries, timeouts, and circuit breaking happen per backend; one dark
backend never blocks the others.  :meth:`fetch_partial` is the degraded
path: answer from the surviving backends with the dark backends' columns
nulled out, for the CMS to tag ``degraded`` (the PR 1 contract, per
source).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.clock import CostProfile, SimClock
from repro.common.errors import RemoteDBMSError, UnknownRelationError
from repro.common.metrics import CACHE_TUPLES_PROCESSED, Metrics
from repro.relational.relation import Relation
from repro.relational.statistics import RelationStatistics
from repro.caql.psj import PSJQuery, parse_column
from repro.core.engine import combine_parts
from repro.core.plan import distinct_values, label_part, sub_query
from repro.core.rdi import RemoteInterface, canonical_bindings
from repro.remote.faults import RetryPolicy
from repro.federation.catalog import FederatedCatalog


@dataclass(frozen=True)
class FederatedPart:
    """One backend's share of a scattered query."""

    #: Home backend name.
    backend: str
    #: The part as a self-contained PSJ query (pushed-down conditions,
    #: projection narrowed to the needed columns).
    sub: PSJQuery
    #: Occurrence tags of the original query this part covers.
    tags: frozenset[str]
    #: Qualified query columns the part exposes (== ``sub.projection``).
    columns: tuple[str, ...]
    #: Touched-cardinality estimate, used to order the scatter.
    estimate: float


class FederatedInterface:
    """Scatter-gather implementation of the single-RDI contract."""

    def __init__(
        self,
        catalog: FederatedCatalog,
        retries: dict[str, RetryPolicy] | None = None,
        metrics: Metrics | None = None,
        tracer=None,
        local_profile: CostProfile | None = None,
        semijoin: bool = True,
        slo=None,
    ):
        backends = catalog.backends()
        if not backends:
            raise ValueError("a federation needs at least one backend")
        self.catalog = catalog
        first = catalog.backend(backends[0])
        self.clock: SimClock = first.clock
        for name in backends[1:]:
            if catalog.backend(name).clock is not self.clock:
                raise ValueError("federated backends must share one SimClock")
        self.tracer = tracer if tracer is not None else first.tracer
        #: The aggregate ledger ("remote.*" totals across backends); each
        #: backend server records into its own child scope of this.
        self.metrics: Metrics = metrics if metrics is not None else first.metrics
        #: Workstation-side profile: rates the local gather/join work.
        self.local_profile = (
            local_profile if local_profile is not None else CostProfile()
        )
        #: With semijoin off, the scatter ships every part unreduced and
        #: never short-circuits — the "naive per-backend loose coupling"
        #: baseline E19 compares against.
        self.semijoin = semijoin
        #: Optional per-backend latency SLO monitor
        #: (:class:`~repro.obs.slo.SLOMonitor`); observed latencies are
        #: simulated-clock deltas around each backend round trip, so a
        #: fetch issued inside a frozen ``parallel()`` region observes 0.
        self.slo = slo
        #: Optional gather-part sink, ``callable(sub_psj, relation,
        #: operator, derivation_seconds)``: the CMS installs its Execution
        #: Monitor's ``register_intermediate`` so each *unreduced*
        #: per-backend part of a scatter becomes an operator-level cache
        #: intermediate (semijoin-reduced parts are skipped — their rows
        #: depend on the binding set, not on ``sub_psj`` alone).
        self.intermediate_sink = None
        retries = retries or {}
        #: One resilient link per backend: its own retry budget, its own
        #: breaker (tagged with the backend name in traces).
        self.links: dict[str, RemoteInterface] = {
            name: RemoteInterface(
                catalog.backend(name), retries.get(name)
            )
            for name in backends
        }

    # -- contract: availability / metadata -------------------------------------
    def link_for(self, table: str) -> RemoteInterface:
        """The resilient link to the backend owning ``table``."""
        return self.links[self.catalog.home_of(table)]

    def remote_available(self) -> bool:
        """Planner hook: at least one backend would accept a request."""
        return any(
            self.links[name].remote_available() for name in self.catalog.backends()
        )

    def statistics_of(self, table: str) -> RelationStatistics:
        return self.link_for(table).statistics_of(table)

    def cost_profile_of(self, table: str) -> tuple[str, CostProfile]:
        """Planner hook: home backend name and cost profile of ``table``."""
        name = self.catalog.home_of(table)
        return name, self.catalog.backend(name).profile

    # -- partitioning -----------------------------------------------------------
    def partition(self, psj: PSJQuery) -> list[FederatedPart]:
        """Split ``psj`` by home backend (deterministic name order)."""
        if not psj.occurrences:
            raise UnknownRelationError(
                f"{psj.name}: cannot route a query with no base relations"
            )
        groups: dict[str, list[str]] = {}
        for occ in psj.occurrences:
            groups.setdefault(self.catalog.home_of(occ.pred), []).append(occ.tag)
        parts: list[FederatedPart] = []
        for backend in sorted(groups):
            tags = frozenset(groups[backend])
            sub = sub_query(psj, tags, f"{psj.name}__{backend}")
            estimate = float(
                sum(self.statistics_of(o.pred).cardinality for o in sub.occurrences)
            )
            parts.append(
                FederatedPart(backend, sub, tags, tuple(sub.projection), estimate)
            )
        return parts

    def _route(self, backend: str, psj: PSJQuery) -> None:
        """Announce that ``psj`` goes to ``backend`` (``rdi.route``)."""
        self.tracer.event(
            "rdi.route",
            view=psj.name,
            backend=backend,
            tables=sorted({o.pred for o in psj.occurrences}),
        )

    def _round_trip(self, backend: str, call):
        """One round trip ``call(link)`` over ``backend``'s link, its
        simulated latency fed to the SLO monitor (a no-op without one;
        never advances the clock).  A failing call propagates unobserved."""
        started = self.clock.now
        result = call(self.links[backend])
        if self.slo is not None:
            self.slo.observe(backend, self.clock.now - started)
        return result

    # -- contract: execution ----------------------------------------------------
    def fetch(
        self,
        psj: PSJQuery,
        bindings: dict[str, tuple[object, ...]] | None = None,
    ) -> Relation:
        """Fetch ``psj``: direct routing when one backend owns every base
        relation, scatter-gather otherwise."""
        parts = self.partition(psj)
        if len(parts) == 1:
            backend = parts[0].backend
            self._route(backend, psj)
            return self._round_trip(
                backend, lambda link: link.fetch(psj, bindings=bindings)
            )
        return self._scatter_gather(psj, parts, bindings)

    def fetch_many(self, psjs: list[PSJQuery]) -> list[Relation]:
        """Batched fetch: single-backend queries share their backend's one
        round trip (``fetch_many`` per link); spanning queries scatter."""
        if not psjs:
            return []
        if len(psjs) == 1:
            return [self.fetch(psjs[0])]
        grouped: dict[str, list[int]] = {}
        spanning: list[int] = []
        partitions = [self.partition(psj) for psj in psjs]
        for index, parts in enumerate(partitions):
            if len(parts) == 1:
                grouped.setdefault(parts[0].backend, []).append(index)
            else:
                spanning.append(index)
        results: dict[int, Relation] = {}
        for backend in sorted(grouped):
            indexes = grouped[backend]
            wanted = [psjs[i] for i in indexes]
            for psj in wanted:
                self._route(backend, psj)
            batch = self._round_trip(backend, lambda link: link.fetch_many(wanted))
            for index, relation in zip(indexes, batch):
                results[index] = relation
        for index in spanning:
            results[index] = self._scatter_gather(psjs[index], partitions[index], None)
        return [results[index] for index in range(len(psjs))]

    def fetch_base_relation(self, table: str) -> Relation:
        """Fetch one whole base table from its home backend."""
        if not self.catalog.has(table):
            raise UnknownRelationError(table)
        backend = self.catalog.home_of(table)
        self.tracer.event(
            "rdi.route", view=table, backend=backend, tables=[table]
        )
        return self._round_trip(
            backend, lambda link: link.fetch_base_relation(table)
        )

    # -- scatter-gather ---------------------------------------------------------
    def _scatter_gather(
        self,
        psj: PSJQuery,
        parts: list[FederatedPart],
        bindings: dict[str, tuple[object, ...]] | None,
    ) -> Relation:
        supplied = canonical_bindings(bindings)
        ordered = (
            sorted(parts, key=lambda p: (p.estimate, p.backend))
            if self.semijoin
            else parts
        )
        self.tracer.event(
            "federation.scatter",
            view=psj.name,
            backends=[p.backend for p in ordered],
            parts=len(ordered),
        )
        fetched: list[tuple[FederatedPart, Relation]] = []
        empty = False
        for part in ordered:
            self._route(part.backend, part.sub)
            if empty:
                # Conjunctive join already known empty: no round trip.
                fetched.append((part, label_part((), part.columns, part.backend)))
                continue
            part_bindings = self._part_bindings(psj, part, supplied, fetched)
            if part_bindings is None:
                # An empty binding set proves the join empty — skip the
                # round trip entirely (zero requests, zero tuples).
                self.tracer.event(
                    "federation.short_circuit",
                    view=part.sub.name,
                    backend=part.backend,
                )
                empty = True
                fetched.append((part, label_part((), part.columns, part.backend)))
                continue
            started = self.clock.now
            relation = self._round_trip(
                part.backend,
                lambda link: link.fetch(part.sub, bindings=part_bindings or None),
            )
            if self.intermediate_sink is not None and not part_bindings:
                self.intermediate_sink(
                    part.sub, relation, "federated-gather", self.clock.now - started
                )
            labeled = label_part(relation, part.columns, part.backend)
            if self.semijoin and not len(labeled):
                empty = True
            fetched.append((part, labeled))
        result = self._gather(psj, fetched)
        self.tracer.event(
            "federation.gather",
            view=psj.name,
            parts=len(fetched),
            tuples=len(result),
        )
        return result

    def _part_bindings(
        self,
        psj: PSJQuery,
        part: FederatedPart,
        supplied: dict[str, tuple[object, ...]],
        fetched: list[tuple[FederatedPart, Relation]],
    ) -> dict[str, tuple[object, ...]] | None:
        """Binding sets to ship with ``part``: the caller's bindings that
        land in this part, plus — semijoin mode — the distinct values of
        cross-backend equality joins against already-fetched parts.
        Returns None when any set is empty (the join is provably empty)."""
        out: dict[str, tuple[object, ...]] = {}
        for column, values in supplied.items():
            tag, _position = parse_column(column)
            if tag in part.tags:
                out[column] = values
        if self.semijoin:
            relations = [relation for _part, relation in fetched]
            for condition in psj.conditions:
                if condition.op != "=" or not condition.is_col_col():
                    continue
                left, right = condition.left.name, condition.right.name
                left_in = parse_column(left)[0] in part.tags
                right_in = parse_column(right)[0] in part.tags
                if left_in == right_in:
                    continue
                inside, outside = (left, right) if left_in else (right, left)
                found = distinct_values(outside, relations)
                if found is None:
                    continue
                source_index, values = found
                # The extraction pass re-reads the part's rows.
                self._charge_local(len(relations[source_index]))
                if inside in out:
                    existing = set(out[inside])
                    values = tuple(v for v in values if v in existing)
                out[inside] = values
        for values in out.values():
            if not values:
                return None
        return out

    def _gather(
        self,
        psj: PSJQuery,
        fetched: list[tuple[FederatedPart, Relation]],
        partial: bool = False,
    ) -> Relation:
        """Join the gathered parts locally and project to the query shape
        (the Execution Monitor's combine kernel).

        Existence-only parts carry no values, so they are not joined (and
        not charged): any empty one empties the answer, and the kernel
        folds the parts that do carry values.  With ``partial`` (some
        backends were dark), conditions touching columns that never arrived
        are dropped and those projection columns come back ``None`` — the
        caller tags the stream ``degraded``."""
        pushed: list = []
        for part, _relation in fetched:
            pushed.extend(part.sub.conditions)
        pending = [c for c in psj.conditions if c not in pushed]
        gates = [relation for part, relation in fetched if not part.columns]
        values = [relation for part, relation in fetched if part.columns]
        if not values:
            # Every part was an existence check: the kernel's projection of
            # their product is the answer; nothing was joined on values.
            return combine_parts(gates, pending, psj, partial=partial)[0]
        result, touched = combine_parts(values, pending, psj, partial=partial)
        if not all(map(len, gates)):
            result = Relation(result.schema)
        self._charge_local(touched + len(result))
        return result

    # -- degraded answers -------------------------------------------------------
    def fetch_partial(self, psj: PSJQuery) -> Relation | None:
        """Best-effort answer from the surviving backends.

        Scatters independently (no cross-backend bindings: a surviving
        part must not be narrowed by a part that may yet fail), tolerating
        per-backend failures.  Surviving parts are joined on the
        conditions they can check; columns owned by dark backends come
        back ``None``.  Returns None when *no* part survived — the caller
        then falls back to its archive/raise path.
        """
        try:
            parts = self.partition(psj)
        except RemoteDBMSError:
            return None
        survivors: list[tuple[FederatedPart, Relation]] = []
        lost: list[str] = []
        for part in parts:
            try:
                relation = self._round_trip(
                    part.backend, lambda link: link.fetch(part.sub)
                )
            except RemoteDBMSError:
                lost.append(part.backend)
                self.tracer.event(
                    "federation.part_lost",
                    view=part.sub.name,
                    backend=part.backend,
                )
                continue
            survivors.append((part, label_part(relation, part.columns, part.backend)))
        if not survivors:
            return None
        return self._gather(psj, survivors, partial=bool(lost))

    def _charge_local(self, tuples: int) -> None:
        """Workstation-side gather work (joins, extraction re-reads)."""
        if tuples:
            self.metrics.incr(CACHE_TUPLES_PROCESSED, tuples)
            self.clock.charge("local", self.local_profile.cache_per_tuple * tuples)
