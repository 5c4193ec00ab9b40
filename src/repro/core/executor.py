"""The Execution Monitor (Section 5, Figure 5).

"The Execution Monitor coordinates the execution of the subqueries
according to the order specified by the QPO.  Subqueries to the remote
DBMS can be executed in parallel with the subqueries to the Cache
Manager."

Execution charges simulated time: remote work lands on the ``remote``
clock track (inside the RDI/server), cache-side work on the ``local``
track.  A plan's cache parts and its leading unbound remote parts run
inside one parallel region, so the response time is the maximum, not the
sum (Section 5.3.3); a remote part bound on earlier parts' values runs
after the region.

Every answer served from a cache element is recorded by one
:meth:`~repro.core.cache.Cache.read`, and every part a plan fetches from
the remote DBMS is offered to the cache by one ``_offer``.

Results are returned to the IE as a :class:`ResultStream` — "the CMS
returns the result for the query using a stream" (Section 3) — which wraps
either an extension (eager) or a generator (lazy).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from repro.common.clock import CostProfile, SimClock
from repro.common.errors import CacheCapacityError, PlanningError, StalePlanError
from repro.common.metrics import (
    CACHE_INDEX_BUILDS,
    CACHE_TUPLES_PROCESSED,
    EAGER_TUPLES_PRODUCED,
    LAZY_TUPLES_PRODUCED,
    SERVER_SHARED_SUBPLANS,
    Metrics,
)
from repro.relational.expressions import Comparison
from repro.relational.generator import GeneratorRelation
from repro.relational.operators import join, select
from repro.relational.relation import Relation
from repro.caql.eval import result_schema
from repro.caql.psj import PSJQuery
from repro.core.cache import Cache
from repro.core.engine import ENGINE, combine_parts, unit_result
from repro.core.plan import (
    BindingSpec,
    CachePart,
    QueryPlan,
    RemotePart,
    distinct_values,
    label_part,
)
from repro.core.rdi import RemoteInterface
from repro.obs.tracer import Tracer
from repro.core.subsumption import (
    SubsumptionMatch,
    derive_full,
    derive_full_lazy,
    derive_part,
)

#: ``join`` has no caller in this module since the combine stage moved to
#: :func:`repro.core.engine.combine_parts`; the binding stays because the
#: wall benchmark's probe table patches it by name.
__all__ = ["ExecutionMonitor", "ResultStream", "join"]


class ResultStream:
    """The IE-facing result: tuples on demand, from cache or extension."""

    def __init__(
        self,
        relation: Relation | GeneratorRelation,
        name: str,
        degraded: bool = False,
    ):
        self._relation = relation
        self.name = name
        #: True when the answer was served from a stale archive copy or a
        #: partial cache derivation because the remote DBMS was
        #: unreachable — correct as of some earlier point, possibly not
        #: fresh or complete.
        self.degraded = degraded
        self._iterator: Iterator[tuple] | None = None

    @property
    def lazy(self) -> bool:
        """True when backed by a generator (tuples computed on demand)."""
        return isinstance(self._relation, GeneratorRelation)

    def next(self) -> tuple | None:
        """The next solution, or None when exhausted (single-solution
        consumption — the Prolog-style interface)."""
        if self._iterator is None:
            self._iterator = iter(self._relation)
        return next(self._iterator, None)

    def __iter__(self) -> Iterator[tuple]:
        yield from self._relation

    def fetch_all(self) -> list[tuple]:
        """All solutions (set-at-a-time consumption)."""
        return self._relation.to_extension().rows

    def as_relation(self) -> Relation:
        """The full result as an extension (drains a generator)."""
        return self._relation.to_extension()

    def check_invariants(self) -> None:
        """Audit the stream's internal consistency (cheap, read-only).

        Raises :class:`~repro.common.errors.InvariantViolation` when the
        produced rows violate set semantics, the schema arity or their
        size memo, or when a drained generator still yields tuples (the
        drain-once contract: after exhaustion the memo *is* the extension
        and iteration must replay it exactly, producing nothing new).
        """
        from repro.common.errors import InvariantViolation

        # Set semantics, arity and the size memo are the audit of whatever
        # holds the rows: extension or memo.
        stored = self._relation
        stored.check_invariants(f"stream {self.name}")
        if self.lazy and stored.exhausted:
            before = stored.produced_count
            replayed = sum(1 for _ in stored)
            if stored.produced_count != before:
                raise InvariantViolation(
                    f"stream {self.name}: drained generator produced "
                    f"{stored.produced_count - before} tuples after "
                    "exhaustion"
                )
            if replayed != before:
                raise InvariantViolation(
                    f"stream {self.name}: drained generator replayed "
                    f"{replayed} of {before} memoized tuples"
                )


#: How many functional checks of source elements the executor keeps (FIFO).
FUNCTIONAL_CHECKS_KEPT = 64


class _Record(NamedTuple):
    """What a produced part's rows answer, in query column space."""

    #: The definition the rows answer exactly: a cache part's covered
    #: definition, or a remote part's sub-query.
    definition: PSJQuery
    #: A cache part's match.
    match: SubsumptionMatch | None = None


class _Produced(NamedTuple):
    """A produced part: its rows under query column names, and its record —
    None for a semijoin-reduced remote part, which answers less than its
    sub-query (so nothing drawing on it can register)."""

    relation: Relation
    record: _Record | None


class ExecutionMonitor:
    """Executes query plans, charging simulated costs."""

    def __init__(
        self,
        cache: Cache,
        rdi: RemoteInterface,
        clock: SimClock,
        profile: CostProfile,
        metrics: Metrics,
        parallel: bool = True,
        should_index=None,
        pin_streams: bool = False,
        tracer=None,
        cache_intermediates: bool = False,
        subplan_registry=None,
    ):
        self.cache = cache
        self.rdi = rdi
        self.clock = clock
        self.profile = profile
        self.metrics = metrics
        self.parallel = parallel
        self.tracer = tracer if tracer is not None else Tracer.disabled()
        #: Callback: should derivations for this view name auto-index the
        #: matched element's probe attributes?  (Consumer-annotation
        #: advice; Section 5.3.3's "index E12 on the third attribute".)
        self.should_index = should_index if should_index is not None else (lambda _name: False)
        #: Hold a pin on the backing element for the lifetime of a lazy
        #: result stream (released when the stream drains).  Enabled by the
        #: multi-session server, whose drain phase guarantees every stream
        #: is consumed; left off for direct single-session use, where the
        #: IE may abandon a stream and the pin would block eviction forever.
        self.pin_streams = pin_streams
        #: Register the remote parts a plan fetches, plain or
        #: semijoin-reduced, as intermediate cache elements.
        self.cache_intermediates = cache_intermediates
        #: The server's in-flight shared-subplan registry (MQO), or None.
        #: Consulted before every *unreduced* remote part fetch; a hit
        #: reuses another session's identical round trip.
        self.subplan_registry = subplan_registry
        #: What the fetch answering the last plan cost, when that plan
        #: shipped the whole query and its answer is to be stored (set
        #: with intermediates on, None otherwise): the part is not offered
        #: — the CMS stores the answer once, as its view, at this price.
        self.fetch_seconds: float | None = None
        #: ``(element id, key position)`` -> ``(the extension checked, key
        #: -> first row, conflicted positions)``: :meth:`_functional_check`.
        self._functional: dict[tuple[str, int], tuple[Relation, dict, set[int]]] = {}

    # -- cost helpers ----------------------------------------------------------------
    def charge_local(self, tuples: int) -> None:
        """Charge ``tuples`` rows of cache-side work to the ``local`` track."""
        self.metrics.incr(CACHE_TUPLES_PROCESSED, tuples)
        self.clock.charge("local", self.profile.cache_per_tuple * tuples)

    def build_index(self, element, attrs: tuple[str, ...]) -> None:
        """Build (or bring up to date) ``element``'s hash index on
        ``attrs``, charged to ``local`` at the index-build rate per row the
        element held before the build."""
        rows = element.rows_materialized()
        element.indexes().ensure(attrs)
        self.metrics.incr(CACHE_INDEX_BUILDS)
        self.clock.charge("local", self.profile.index_build_per_tuple * rows)

    # -- execution ---------------------------------------------------------------------
    def execute(self, plan: QueryPlan) -> Relation | GeneratorRelation:
        """Run a query plan; returns a relation or a generator.

        Every cache element the plan reads is pinned for the duration of
        the call (and, for lazy results with :attr:`pin_streams`, for the
        stream's lifetime), so a concurrent session's replacement pass can
        never reclaim an element mid-execution.  A plan whose elements were
        invalidated since planning raises :class:`StalePlanError` so the
        caller can replan against the current cache state.
        """
        self.fetch_seconds = None
        elements = plan.cache_elements()
        if plan.epoch >= 0 and plan.epoch != self.cache.epoch:
            for element in elements:
                if not self.cache.validate(element):
                    raise StalePlanError(
                        f"plan for {plan.query.name} references retired cache "
                        f"element {element.element_id}"
                    )
        for element in elements:
            self.cache.pin(element)
        try:
            with self.tracer.span(
                "executor.execute",
                view=plan.query.name,
                strategy=plan.strategy,
                lazy=plan.lazy,
            ):
                return self._dispatch(plan)
        finally:
            for element in elements:
                self.cache.unpin(element)

    def _dispatch(self, plan: QueryPlan) -> Relation | GeneratorRelation:
        strategy = plan.strategy
        if strategy == "unsatisfiable":
            return Relation(result_schema(plan.query.name, plan.query.arity))
        if strategy == "unit":
            return unit_result(plan.query)
        if strategy == "cache-full":
            return self._execute_cache_full(plan)
        if strategy in ("hybrid", "remote"):
            return self._execute_parts(plan)
        raise PlanningError(f"unknown plan strategy: {strategy}")

    def pin_for_stream(self, element, relation) -> None:
        """Keep ``element`` pinned until the lazy ``relation`` drains (with
        :attr:`pin_streams`; an exhausted relation needs no pin)."""
        if self.pin_streams and not relation.exhausted:
            self.cache.pin(element)
            relation.when_exhausted(lambda: self.cache.unpin(element))

    def _execute_cache_full(self, plan: QueryPlan) -> Relation | GeneratorRelation:
        match = plan.full_match
        if match is None:
            raise PlanningError("cache-full plan without a match")
        self.cache.read(match.element)
        if plan.lazy:
            gen = derive_full_lazy(match, plan.query)
            gen.on_produce = self._on_lazy_tuple
            self.pin_for_stream(match.element, gen)
            return gen
        result, touched = self._derive_full_indexed(match, plan.query)
        self.charge_local(touched + len(result))
        self.metrics.incr(EAGER_TUPLES_PRODUCED, len(result))
        return result

    def _derive_full_indexed(self, match, query: PSJQuery) -> tuple[Relation, int]:
        """derive_full, using a hash index for equality residuals when one
        exists on the element (Section 5.4: hash indices speed up joins and
        some selections).  Returns the result and the number of element
        rows actually touched (an index probe touches only its bucket)."""
        element = match.element
        equalities: list[tuple[str, object, Comparison]] = []
        rest: list[Comparison] = []
        for condition in match.residual_conditions:
            norm = condition.normalized()
            if norm.op == "=" and norm.is_col_const():
                equalities.append((norm.left.name, norm.right.value, condition))
            else:
                rest.append(condition)
        if equalities and not element.is_generator:
            # One equality per attribute can be the probe; every other one
            # (a second, possibly contradictory pin of the same attribute
            # included) stays a residual.
            by_attr = {attr: (value, cond) for attr, value, cond in equalities}
            index = element.indexes().find_covering(set(by_attr))
            if index is None and self.should_index(query.name):
                # Consumer-annotated view: build the index the advice asked
                # for, on the element actually serving the probes.
                self.build_index(element, tuple(sorted(by_attr)))
                index = element.indexes().find_covering(set(by_attr))
            if index is not None:
                key = tuple(by_attr[a][0] for a in index.attributes)
                rows = index.lookup(key)
                residual = rest + [
                    cond
                    for attr, _value, cond in equalities
                    if attr not in index.attributes or by_attr[attr][1] is not cond
                ]
                source = element.extension()
                filtered = Relation.from_distinct_rows(source.schema, rows)
                if residual:
                    filtered = select(filtered, residual)
                self.clock.charge("local", self.profile.index_probe)
                return (
                    ENGINE.derive_full(match, query, prefiltered=filtered),
                    len(rows),
                )
        return ENGINE.derive_full(match, query), match.element.rows_materialized()

    def _on_lazy_tuple(self, _row: tuple) -> None:
        self.metrics.incr(LAZY_TUPLES_PRODUCED)
        self.clock.charge("local", self.profile.cache_per_tuple)

    def _execute_parts(self, plan: QueryPlan) -> Relation:
        """Run the parts in plan order, then combine once.

        The leading unbound remote parts share one parallel region with
        the cache track; a part carrying binding specs runs after it, since
        its IN-lists draw on what the parts before it produced.  An empty
        remote part, or an empty binding set, proves the conjunctive join
        empty: every later remote part is skipped with zero requests.  Each
        remote part is offered to the cache as it is produced — but the one
        part of a plan that ships the whole query and stores its answer:
        that answer is stored once, by the CMS."""
        produced: list[_Produced] = []
        cache_parts = [p for p in plan.parts if isinstance(p, CachePart)]
        remote_parts = [p for p in plan.parts if isinstance(p, RemotePart)]
        unbound = 0
        while unbound < len(remote_parts) and not remote_parts[unbound].bind_columns:
            unbound += 1
        empty = False
        offer = not (plan.cache_result and len(plan.parts) == unbound == 1)

        def run_remote(parts) -> None:
            nonlocal empty
            for part in parts:
                produced.append(self._fetch_remote(part, produced, empty, offer))
                empty = empty or not len(produced[-1].relation)

        def run_cache() -> None:
            for part in cache_parts:
                relation = self._derive_cache_part(part)
                produced.append(
                    _Produced(relation, self._covered_definition(plan, part))
                )

        if self.parallel and unbound and cache_parts:
            with self.tracer.span(
                "executor.parallel_tracks", view=plan.query.name
            ) as span:
                with self.clock.parallel() as region:
                    run_remote(remote_parts[:unbound])  # the "remote" track(s)
                    run_cache()   # charges the "local" track
                # The region is over: record what each track cost, and how
                # much overlap saved versus sequential execution.
                tracks = region.tracks
                for track, seconds in sorted(tracks.items()):
                    span.set(f"track.{track}", seconds)
                if tracks:
                    span.set(
                        "overlap_saved_seconds",
                        sum(tracks.values()) - max(tracks.values()),
                    )
        else:
            run_remote(remote_parts[:unbound])
            run_cache()
        run_remote(remote_parts[unbound:])
        return self._combine([p.relation for p in produced], plan)

    def _derive_cache_part(self, part: CachePart) -> Relation:
        """Read a cache part's element and derive the part from it."""
        element = part.match.element
        self.cache.read(element)
        relation = derive_part(part.match, list(part.columns))
        self.charge_local(element.rows_materialized() + len(relation))
        return relation

    # -- shared multi-query optimization (MQO) --------------------------------------
    def _shared_subplan(self, part: RemotePart) -> Relation | None:
        """A concurrent session's identical unreduced round trip, if the
        server's in-flight registry holds one (None otherwise).  A hit
        reuses the already-shipped rows instead of repeating the fetch;
        only the copy into this session's space is charged, as local work.
        Semijoin-reduced parts never share: their results depend on this
        session's binding values."""
        if self.subplan_registry is None or part.bind_columns:
            return None
        relation = self.subplan_registry.lookup(part.sub_query)
        if relation is None:
            return None
        self.metrics.incr(SERVER_SHARED_SUBPLANS)
        self.tracer.event(
            "mqo.share", view=part.sub_query.name, rows=len(relation)
        )
        self.charge_local(len(relation))
        return relation

    def _publish_subplan(self, part: RemotePart, relation: Relation) -> None:
        """Offer an unreduced part's rows to concurrently running sessions."""
        if self.subplan_registry is not None and not part.bind_columns:
            self.subplan_registry.publish(part.sub_query, relation)

    # -- operator-level intermediates: one record per part, one offer per fetch ----
    def _remote_part_estimate(self, relation: Relation) -> float:
        """The cost model's price of the fetch that produced ``relation``.

        Used when the wall-clock measurement reads zero: inside a parallel
        region ``clock.now`` is frozen until the region closes, so elapsed
        time cannot be observed there."""
        return (
            self.profile.remote_latency
            + len(relation) * self.profile.transfer_per_tuple
        )

    def _functional_check(
        self, element, extension: Relation, key_pos: int
    ) -> tuple[dict, set[int]]:
        """Which of ``extension``'s columns its column ``key_pos``
        determines: each key value's first row, and the positions at
        which two rows of one key disagree.  Charged as the pass over the
        element it is; computed once per (element, key column) while the
        element's extension is the same object (a bounded table)."""
        self.charge_local(len(extension))  # the functional-check pass
        slot = (element.element_id, key_pos)
        kept = self._functional.get(slot)
        if kept is not None and kept[0] is extension:
            return kept[1], kept[2]
        mapping: dict = {}
        conflicted: set[int] = set()
        for source_row in extension:
            prior = mapping.setdefault(source_row[key_pos], source_row)
            if prior is not source_row:
                for position in range(len(source_row)):
                    if prior[position] != source_row[position]:
                        conflicted.add(position)
        if len(self._functional) >= FUNCTIONAL_CHECKS_KEPT:
            del self._functional[next(iter(self._functional))]
        self._functional[slot] = (extension, mapping, conflicted)
        return mapping, conflicted

    def _covered_definition(self, plan: QueryPlan, part: CachePart) -> _Record:
        """A cache part's record: the query occurrences its match covers,
        the exact condition set the derived rows satisfy, and the part's
        columns as projection, all in query column space.

        Conditions are the source element's definition conditions renamed
        through the tag mapping, united with the re-applied residuals
        mapped back from element attributes to query columns, deduplicated
        by normalized form.  The rows answer this definition *exactly*:
        projection commutes with the residual selection because every
        residual column survives the source's projection (subsumption
        checked that).
        """
        match = part.match
        occurrences = tuple(
            occ for occ in plan.query.occurrences if occ.tag in match.covered_tags
        )
        tag_map = dict(match.tag_mapping)
        attr_to_query = {attr: q_col for q_col, attr in match.column_map}
        conditions = match.element.signature.renamed_conditions(tag_map) + [
            condition.rename_columns(
                {c: attr_to_query[c] for c in condition.columns()}
            )
            for condition in match.residual_conditions
        ]
        definition = PSJQuery(
            f"{plan.query.name}#part",
            occurrences,
            _distinct_conditions(conditions),
            tuple(part.columns),
        )
        return _Record(definition, match)

    def _offer(
        self,
        relation: Relation,
        definition: PSJQuery,
        seconds: float,
        sources: Sequence[tuple[BindingSpec, int, _Record | None]] = (),
    ) -> None:
        """Offer one fetched part to the cache as an intermediate element.
        This is the one registration route, so one set of guards decides:
        nothing with the feature off or for an existence-only part, and a
        silent drop when the cache cannot make room (a tiny cache whose
        every resident element this very plan has pinned).  A cache part is never offered: its rows are a selection
        over an element that is already resident, and re-deriving them is
        local work the planner prices.

        ``definition`` is the sub-query fetched; ``seconds`` is what the
        fetch cost, and one that reads zero (timed inside a parallel
        region) is priced by the cost model instead.  ``sources`` pairs
        each binding spec that reduced the fetch with the index and record
        of the part it drew on.

        Unreduced, a remote part registers its sub-query (``remote-fetch``).

        Reduced, a fetch registers as ``semijoin-fetch`` under the merged
        definition: the sub-query joined with every source's record on the
        specs' equalities, projected onto the sub-query's columns.  Under
        set semantics that projection *is* the semijoin the shipped
        IN-lists computed — a sub-query tuple survives either one exactly
        when a matching source tuple exists.  Nothing registers where
        independent IN-lists are weaker than the join: two specs drawing on
        the same source part (the join correlates them row-wise), two specs
        reducing the same remote column (the later IN-list replaced the
        earlier), or a source without a record (a reduced part answers less
        than its sub-query).

        The merged projection is *widened* with source-side columns the
        join determines: the equality column itself (equal to the fetched
        one in every row) and any source-element column functionally
        determined by it (each binding value maps to exactly one source row
        — checked, not assumed).  That costs a few duplicated values but
        keeps join-internal columns the *query's* projection discarded, so
        a later tighter drill-down can re-apply its residual locally
        instead of re-fetching.
        """
        if not self.cache_intermediates or not definition.projection:
            return  # off, or an existence-only part: nothing reusable
        seconds = seconds or self._remote_part_estimate(relation)
        operator, stored = "remote-fetch", relation
        if sources:
            indexes = [index for _spec, index, _source in sources]
            columns = [spec.remote_column for spec, _index, _source in sources]
            if len(set(indexes)) != len(indexes) or len(set(columns)) != len(columns):
                return  # independent IN-lists, weaker than the join
            projection = definition.projection
            occurrences = list(definition.occurrences)
            conditions = list(definition.conditions)
            widen_names: list[str] = []
            #: Per source, what each fetched row gains: ``(position of the
            #: bound column, whether the row copies its value, the source
            #: rows by binding value, the positions of the source columns
            #: the value determines, those columns by binding value)``.
            widenings: list[tuple[int, bool, dict, list[int], dict]] = []
            taken = set(projection)
            for spec, _index, source in sources:
                if source is None:
                    return  # a reduced source answers less than its sub-query
                occurrences.extend(source.definition.occurrences)
                conditions.extend(source.definition.conditions)
                conditions.append(spec.condition)
                if spec.remote_column not in projection:
                    continue
                remote_pos = projection.index(spec.remote_column)
                # The equality makes the source-side name a duplicate of
                # the fetched column, row for row.
                copies = spec.source_column not in taken
                if copies:
                    widen_names.append(spec.source_column)
                    taken.add(spec.source_column)
                mapping, positions = {}, []
                # Join-determined source columns come from the source
                # *element* (the produced part may already have projected
                # them away).
                column_map = dict(source.match.column_map) if source.match else {}
                key_attr = column_map.get(spec.source_column)
                if key_attr is not None:
                    extension = source.match.element.extension()
                    key_pos = extension.schema.position(key_attr)
                    mapping, conflicted = self._functional_check(
                        source.match.element, extension, key_pos
                    )
                    for q_col, attr in column_map.items():
                        if q_col in taken:
                            continue
                        position = extension.schema.position(attr)
                        if position == key_pos or position in conflicted:
                            continue
                        widen_names.append(q_col)
                        positions.append(position)
                        taken.add(q_col)
                if copies or positions:
                    widenings.append((remote_pos, copies, mapping, positions, {}))
            name = f"{definition.name}#semijoin"
            projection = tuple(projection) + tuple(widen_names)
            if widen_names:
                rows = []
                try:
                    for row in relation:
                        for remote_pos, copies, mapping, positions, tails in widenings:
                            value = row[remote_pos]
                            if copies:
                                row += (value,)
                            if positions:
                                # Built once per binding value.
                                tail = tails.get(value)
                                if tail is None:
                                    source_row = mapping[value]
                                    tail = tails[value] = tuple(
                                        [source_row[p] for p in positions]
                                    )
                                row += tail
                        rows.append(row)
                except KeyError:
                    # A fetched value outside the binding source (should not
                    # happen — the IN-list came from it); widening would be
                    # guesswork, so register nothing.
                    return
                # Distinct: the fetched rows are, and widening only appends.
                stored = Relation.from_distinct_rows(
                    result_schema(name, len(projection)), rows
                )
            definition = PSJQuery(
                name, tuple(occurrences), _distinct_conditions(conditions), projection
            )
            operator = "semijoin-fetch"
        try:
            self.cache.store(
                definition,
                stored,
                use="intermediate",
                kind="intermediate",
                operator=operator,
                derivation_seconds=max(seconds, 0.0),
            )
        except CacheCapacityError:
            pass

    # -- the plan's remote parts ------------------------------------------------------
    def _fetch_remote(
        self, part: RemotePart, produced: list[_Produced], empty: bool, offer: bool
    ) -> _Produced:
        """Fetch one remote part: a concurrent session's identical round
        trip if the MQO registry holds one, else a fetch reduced by the
        bindings its specs draw from ``produced`` (a column bound twice
        ships the intersection), published to the registry and, with
        ``offer``, offered to the cache — without, its cost is kept in
        :attr:`fetch_seconds` where an offer would have registered it.

        When an earlier remote part came back ``empty``, or a binding set
        is empty, the combine-stage join is provably empty: the round trip
        is skipped entirely (zero requests) and an empty part relation is
        produced instead.
        """
        label = part.sub_query.name
        record = None if part.bind_columns else _Record(part.sub_query)
        if empty:
            columns = [spec.remote_column for spec in part.bind_columns]
            return _Produced(self._short_circuit(part, columns), record)
        shared = self._shared_subplan(part)
        if shared is not None:
            return _Produced(label_part(shared, part.columns, label), record)
        relations = [p.relation for p in produced]
        bindings: dict[str, tuple[object, ...]] = {}
        sources: list[tuple[BindingSpec, int, _Record | None]] = []
        for spec in part.bind_columns:
            found = distinct_values(spec.source_column, relations)
            if found is None:
                continue  # source column not exposed: fall back to unbound
            index, values = found
            # The extraction pass re-reads the part's rows.
            self.charge_local(len(relations[index]))
            if spec.remote_column in bindings:
                kept = set(bindings[spec.remote_column])
                values = tuple(v for v in values if v in kept)
            if not values:
                empty_part = self._short_circuit(part, [spec.remote_column])
                return _Produced(empty_part, record)
            bindings[spec.remote_column] = values
            sources.append((spec, index, produced[index].record))
        started = self.clock.now
        relation = self.rdi.fetch(part.sub_query, bindings=bindings or None)
        self._publish_subplan(part, relation)
        seconds = self.clock.now - started
        if offer:
            self._offer(relation, part.sub_query, seconds, sources)
        elif self.cache_intermediates and part.sub_query.projection:
            self.fetch_seconds = seconds or self._remote_part_estimate(relation)
        return _Produced(label_part(relation, part.columns, label), record)

    def _short_circuit(self, part: RemotePart, columns: list[str]) -> Relation:
        """The empty relation of a remote part whose round trip is skipped."""
        self.tracer.event(
            "rdi.semijoin",
            view=part.sub_query.name,
            columns=columns,
            values=0,
            short_circuit=True,
        )
        return label_part((), part.columns, part.sub_query.name)

    # -- graceful degradation (remote unreachable) ---------------------------------
    def derive_degraded(self, match: SubsumptionMatch, query: PSJQuery) -> Relation:
        """Answer ``query`` from a (possibly stale) full subsumption match.

        Used when retries are exhausted: the element is a stale-archive
        copy, not a main-cache element, so the main cache records nothing
        (no recency, no hit, no ledger credit); only the local work is
        charged.
        """
        result = derive_full(match, query)
        self.charge_local(match.element.rows_materialized() + len(result))
        self.metrics.incr(EAGER_TUPLES_PRODUCED, len(result))
        return result

    def execute_degraded(self, plan: QueryPlan) -> Relation | None:
        """Best-effort partial answer after a remote part failed.

        Serves the cache parts plus every remote part that still answers
        unreduced (:meth:`~repro.core.rdi.RemoteInterface.fetch_partial`);
        a lone remote part is the one that just failed, so it is not asked
        again.  Columns only a lost part could have produced come back as
        ``None``, and cross conditions touching them cannot be checked —
        the result is a *partial* answer and must be tagged degraded by the
        caller.  Returns None when no part survived.
        """
        retry = sum(isinstance(p, RemotePart) for p in plan.parts) > 1
        produced: list[Relation] = []
        for part in plan.parts:
            if isinstance(part, CachePart):
                produced.append(self._derive_cache_part(part))
            elif retry:
                relation = self.rdi.fetch_partial(part.sub_query)
                if relation is not None:
                    produced.append(
                        label_part(relation, part.columns, part.sub_query.name)
                    )
        if not produced:
            return None
        return self._combine(produced, plan, partial=True)

    def _combine(
        self, parts: list[Relation], plan: QueryPlan, partial: bool = False
    ) -> Relation:
        """The combine stage: fold the produced parts through the shared
        kernel and charge the rows it touched.
        ``partial`` is the degraded variant — some columns never arrived,
        so unverifiable conditions are dropped and missing projection
        columns come back ``None``."""
        result, touched = combine_parts(
            parts, plan.cross_conditions, plan.query, partial=partial
        )
        self.charge_local(touched + len(result))
        self.metrics.incr(EAGER_TUPLES_PRODUCED, len(result))
        return result


def _distinct_conditions(conditions: list[Comparison]) -> tuple[Comparison, ...]:
    """``conditions`` without repeats of the same normalized comparison
    (first spelling wins, order kept)."""
    by_form = {}
    for condition in conditions:
        by_form.setdefault(str(condition.normalized()), condition)
    return tuple(by_form.values())
