"""The Cache Management System (CMS) facade.

"Functionally, the CMS is a main memory relational database management
system where the database [is] referred to as the cache. ... The CMS
accepts CAQL queries and advice from the IE and executes CAQL queries by
accessing data from the cache and/or the remote DBMS." (Section 3)

The request path for one conjunctive CAQL query:

1. track the query against the session's path expression;
2. normalize to PSJ (evaluable literals split off as a local residue);
3. ask the exact tier (the canonical key): a hit is read as stored;
   otherwise plan (Section 5.3's three steps: generalize?, find relevant
   elements, generate plan) and execute (parallel cache/remote, streams);
4. cache the result (advice permitting), build advised indexes;
5. prefetch sequence companions predicted by the path expression.

Every technique is individually toggleable through :class:`CMSFeatures` —
the ablation knobs behind experiment E1 — and the CMS works with no advice
at all (the paper requires this).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from repro.common.clock import CostProfile, SimClock
from repro.common.errors import (
    AdviceError,
    CacheCapacityError,
    PlanningError,
    RemoteDBMSError,
    StalePlanError,
)
from repro.common.metrics import (
    CACHE_GENERALIZATIONS,
    CACHE_HITS_CANONICAL,
    CACHE_HITS_EXACT,
    CACHE_HITS_SUBSUMED,
    CACHE_MISSES,
    CACHE_PREFETCHES,
    CACHE_STALE_REPLANS,
    IE_CAQL_QUERIES,
    REMOTE_DEGRADED_ANSWERS,
    Metrics,
)
from repro.logic.builtins import BuiltinRegistry
from repro.logic.terms import Atom, Const, Substitution, Var
from repro.relational.generator import GeneratorRelation
from repro.relational.relation import Relation
from repro.relational.statistics import RelationStatistics
from repro.remote.faults import RetryPolicy
from repro.remote.server import RemoteDBMS
from repro.advice.language import AdviceSet
from repro.caql.ast import (
    AggregateQuery,
    CAQLQuery,
    ConjunctiveQuery,
    QuantifiedQuery,
    SetOfQuery,
)
from repro.caql.eval import (
    apply_evaluable,
    core_plan,
    evaluate_aggregate,
    evaluate_quantified,
    evaluate_setof,
)
from repro.caql.psj import PSJQuery, psj_from_literals
from repro.core.advice_manager import AdviceManager
from repro.core.cache import Cache, StaleArchive
from repro.core.cache_model import cache_model, cache_statistics
from repro.core.executor import ExecutionMonitor, ResultStream
from repro.core.planner import ExactHit, PlannerFeatures, QueryPlanner
from repro.core.rdi import remote_interface

#: ``psj_from_literals`` has no caller in this module since ``core_plan``
#: became the only CAQL -> PSJ translation on the query path; the binding
#: stays because the wall benchmark's probe table patches it by name.
__all__ = ["CMSFeatures", "CacheManagementSystem", "psj_from_literals"]

logger = logging.getLogger("repro.cms")


# The front door is in this module, not beside ``ResultStream``, because
# ``core_plan`` has to be resolved here: this module's binding is the one
# the wall benchmark's probe table patches to bill translation to ``caql``.
# A query's shape plan, and a re-asked object's carried translation, are
# read inside ``core_plan``, so the probe bills binding a plan — the
# canonical form included — and that dict probe to ``caql``.
def answer_caql(q: CAQLQuery, query, answer_conjunctive) -> ResultStream:
    """The one CAQL front door every bridge answers through.

    A second-order wrapper (AGG, SETOF, a quantifier) is evaluated over
    the extensions of its operands' streams, each obtained through
    ``query`` — the bridge's own public entry point, so a nested query is
    traced and counted like any other — and is degraded when an operand
    was.  A conjunctive query goes to ``answer_conjunctive``, which the
    bridge builds on :func:`conjunctive_result`.
    """
    if isinstance(q, ConjunctiveQuery):
        return answer_conjunctive(q)
    if not isinstance(q, (AggregateQuery, SetOfQuery, QuantifiedQuery)):
        raise PlanningError(f"not a CAQL query: {q!r}")
    base_stream = query(q.base)
    base = base_stream.as_relation()
    degraded = base_stream.degraded
    if isinstance(q, AggregateQuery):
        result = evaluate_aggregate(q, base)
    elif isinstance(q, SetOfQuery):
        result = evaluate_setof(q, base)
    else:
        within = None
        if q.within is not None:
            within_stream = query(q.within)
            within = within_stream.as_relation()
            degraded = degraded or within_stream.degraded
        result = evaluate_quantified(q, base, within)
    return ResultStream(result, q.base.name, degraded=degraded)


def conjunctive_result(
    q: ConjunctiveQuery, builtins: BuiltinRegistry, answer_psj
) -> Relation | GeneratorRelation:
    """A conjunctive query's answer from a bridge that answers PSJ
    queries: ``answer_psj`` gets the PSJ core, and an evaluable residue
    (operations the remote DBMS does not support, Section 5.3) then runs
    row-wise over the core's extension, on the workstation."""
    psj, core_vars, evaluable = core_plan(q, builtins)
    result = answer_psj(psj)
    if evaluable:
        result = apply_evaluable(
            q, core_vars, evaluable, result.to_extension(), builtins
        )
    return result


@dataclass
class CMSFeatures(PlannerFeatures):
    """All CMS technique toggles (extends the planner's), each varied by an
    experiment (E1, E8, E17, E21) or by the failure-injection suite."""

    advice_replacement: bool = True
    #: Register the remote parts a plan fetches, plain or semijoin-reduced,
    #: as intermediate cache elements.
    intermediates: bool = True
    #: Shared multi-query optimization: reuse concurrent sessions'
    #: in-flight identical remote subplans (needs a server-provided
    #: registry; inert for a standalone CMS).
    mqo: bool = True
    #: Cost-based replacement: an element's GreedyDual priority adds its
    #: benefit per byte (``replacement.value``), so expensive, reused,
    #: compact elements outlive their LRU recency.  Off = a uniform value,
    #: which is exact LRU (advice classes, if any, still apply).
    cost_replacement: bool = True
    #: Batch a path expression's prefetch companions into one round trip.
    batching: bool = True
    #: Client-side resilience for the remote link (retries, backoff,
    #: timeout, circuit breaker).  The default policy is inert on a
    #: healthy link.
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    #: Serve stale/partial cache answers when retries are exhausted.
    degradation: bool = True

    @classmethod
    def none(cls) -> "CMSFeatures":
        """Everything off — degrades the CMS to a loose-coupling shim."""
        return cls(
            caching=False,
            subsumption=False,
            canonical=False,
            lazy=False,
            prefetch=False,
            generalization=False,
            indexing=False,
            parallel=False,
            semijoin=False,
            advice_replacement=False,
            intermediates=False,
            mqo=False,
            cost_replacement=False,
            batching=False,
            retry_policy=RetryPolicy.none(),
            degradation=False,
        )


class CacheManagementSystem:
    """The bridge between an inference engine and a remote DBMS."""

    def __init__(
        self,
        remote: RemoteDBMS,
        capacity_bytes: int = 4_000_000,
        features: CMSFeatures | None = None,
        cache: Cache | None = None,
        metrics: Metrics | None = None,
        pin_streams: bool = False,
        subplan_registry=None,
    ):
        self.remote = remote
        self.clock: SimClock = remote.clock
        #: The shared trace sink: the remote's tracer, so one tracer covers
        #: the whole bridge.
        self.tracer = remote.tracer
        #: The ledger this CMS records into.  Defaults to the remote's
        #: (single-session behaviour); a multi-session server hands every
        #: session its own child scope of one shared registry, so two CMS
        #: instances never pollute each other's numbers.
        self.metrics: Metrics = metrics if metrics is not None else remote.metrics
        self.profile: CostProfile = remote.profile
        self.features = features if features is not None else CMSFeatures()
        self.builtins = BuiltinRegistry()

        #: ``cache`` may be shared between several CMS instances (the
        #: multi-session server's whole point); each instance still owns
        #: its advice context, planner, and monitor.
        self.cache = (
            cache
            if cache is not None
            else Cache(
                capacity_bytes,
                metrics=self.metrics,
                tracer=self.tracer,
                clock=self.clock,
            )
        )
        self.shares_cache = cache is not None
        self.advice_manager = AdviceManager()
        #: The remote interface: a resilient link to a lone server, or a
        #: federation's router of one-backend requests.
        self.rdi = remote_interface(remote, self.features.retry_policy)
        self._archive = StaleArchive() if self.features.degradation else None
        self._last_degraded = False
        #: The most recent plan the planner produced for this CMS (the one
        #: actually executed, post-replan); None after an exact hit, which
        #: is read without one.  Purely observational: the qa subsystem
        #: audits it after every query.
        self.last_plan = None
        self.planner = QueryPlanner(
            self.cache,
            self.advice_manager,
            self.rdi.statistics_of,
            self.rdi.cost_profile_of,
            self.profile,
            self.features,
            remote_available=self.rdi.remote_available,
            tracer=self.tracer,
        )
        self.monitor = ExecutionMonitor(
            self.cache,
            self.rdi,
            self.clock,
            self.profile,
            self.metrics,
            parallel=self.features.parallel,
            should_index=self._should_auto_index,
            pin_streams=pin_streams,
            tracer=self.tracer,
            cache_intermediates=(
                self.features.caching and self.features.intermediates
            ),
            subplan_registry=(
                subplan_registry if self.features.mqo else None
            ),
        )

    def _should_auto_index(self, view_name: str) -> bool:
        """Executor callback: consumer-annotated views trigger indexing of
        the cache element that serves their derivations."""
        return self.features.indexing and bool(
            self.advice_manager.index_positions(view_name)
        )

    # -- sessions -----------------------------------------------------------------
    def begin_session(self, advice: AdviceSet | None = None) -> None:
        """Start an IE session: a set of advice, then a query sequence."""
        if advice is not None and not advice.is_empty():
            logger.debug(
                "session: %d views, path=%s",
                len(advice.views),
                advice.path_expression,
            )
        else:
            logger.debug("session: no advice")
        self.advice_manager.begin_session(advice)
        self.activate()

    def activate(self) -> None:
        """Point the cache's replacement at this session's advice.

        With a private cache this runs once per ``begin_session``; with a
        shared cache the server calls it before every scheduled step, so
        replacement decisions always follow the advice of the session
        whose query is running.
        """
        policy = self.cache.replacement
        policy.advice = self.advice_manager if self.features.advice_replacement else None
        policy.cost_based = self.features.cost_replacement

    # -- metadata for the IE ---------------------------------------------------------
    def statistics_of(self, table: str) -> RelationStatistics:
        """Remote statistics lookup for the IE (cached)."""
        return self.rdi.statistics_of(table)

    def cache_model(self) -> Relation:
        """The cache model relation (queryable by the IE, Section 3)."""
        return cache_model(self.cache)

    def cache_statistics(self) -> dict[str, float]:
        """Aggregate cache statistics (size, fill, evictions)."""
        return cache_statistics(self.cache)

    # -- the CAQL query interface ------------------------------------------------------
    def query(self, q: CAQLQuery) -> ResultStream:
        """Execute a CAQL query; returns a result stream.

        Every call (nested sub-queries of aggregates/quantifiers included)
        is traced as a ``cms.query`` span, which carries its simulated
        start and end; tracing costs nothing when the tracer is disabled.
        """
        view = getattr(q, "name", None) or getattr(
            getattr(q, "base", None), "name", type(q).__name__
        )
        with self.tracer.span(
            "cms.query", view=view, session=self.metrics.scope_name
        ) as span:
            stream = answer_caql(q, self.query, self._answer_conjunctive)
            if self.tracer.enabled:
                span.set("degraded", stream.degraded)
                span.set("lazy", stream.lazy)
                self._trace_stream_drain(stream, view)
            return stream

    def _trace_stream_drain(self, stream: ResultStream, view: str) -> None:
        """Emit ``stream.ready`` now (eager) or ``stream.drained`` when a
        lazy stream's generator exhausts — wherever the drain happens, the
        event lands on whatever span is open there (a server drain step,
        say), which is exactly the interleaving worth seeing."""
        relation = stream._relation
        if not relation.exhausted:
            relation.when_exhausted(
                lambda: self.tracer.event(
                    "stream.drained", view=view, rows=relation.produced_count
                )
            )
        else:
            self.tracer.event(
                "stream.ready", view=view, rows=relation.produced_count
            )

    def explain(self, q: CAQLQuery):
        """Plan ``q`` and report the full rationale **without executing**.

        Returns a :class:`~repro.core.query_explain.PlanExplanation`:
        the chosen strategy, lazy/eager and caching decisions, planner
        notes, and per-candidate subsumption rationale (why each cache
        element matched or was rejected).  Nothing is fetched, cached,
        or charged, and the advice session statistics are not touched.
        """
        from repro.core.query_explain import explain_query

        return explain_query(self, q)

    def _answer_conjunctive(self, q: ConjunctiveQuery) -> ResultStream:
        """One conjunctive query, with this bridge's session bookkeeping
        around the shared core: the advice tracker sees it first, and its
        path-expression companions are prefetched once it is answered."""
        self.metrics.incr(IE_CAQL_QUERIES)
        self.advice_manager.observe_query(q.name)
        self._last_degraded = False
        result = conjunctive_result(q, self.builtins, self._answer_psj)
        self._prefetch_companions(q.name)
        return ResultStream(result, q.name, degraded=self._last_degraded)

    def query_pattern(self, pattern: Atom) -> ResultStream:
        """Execute an IE-query given as an instantiated view pattern.

        Section 5.3.1: "An IE-query is an instance of one of the view
        specifications with constant bindings" — ``pattern`` is that
        instance, e.g. ``d2(X, c6)``; the view definition comes from the
        session's advice.
        """
        view = self.advice_manager.view(pattern.pred)
        if view is None:
            raise AdviceError(
                f"IE-query {pattern} names no view specification in the session advice"
            )
        definition = view.definition
        if definition.arity != pattern.arity:
            raise AdviceError(
                f"IE-query {pattern} arity does not match view {view.name}/{definition.arity}"
            )
        bindings = Substitution()
        for answer, arg in zip(definition.answers, pattern.args):
            if isinstance(arg, Const):
                if isinstance(answer, Var):
                    bindings = bindings.bind(answer, arg)
                elif answer != arg:
                    raise AdviceError(
                        f"IE-query {pattern} conflicts with pinned constant in {view.name}"
                    )
        return self.query(definition.instantiate(bindings))

    # -- internals -------------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Audit every auditable structure this CMS touches.

        Runs the ``check_invariants`` hooks of the cache, the stale
        archive (whose copies ``StaleArchive.store`` refreshes in place),
        the metrics ledger (from its root, so sibling session scopes are
        covered too), and the last produced plan.  Cheap enough to call
        after every query; the fuzzer does exactly that.
        """
        self.cache.check_invariants()
        if self._archive is not None:
            self._archive.check_invariants()
        root = self.metrics
        while root.parent is not None:
            root = root.parent
        root.check_invariants()
        if self.last_plan is not None:
            self.last_plan.check_invariants(self.planner.backend_of)

    def _answer_psj(self, psj: PSJQuery) -> Relation | GeneratorRelation:
        # The exact tier is the first question: a hit is read as stored,
        # with no plan and no executor pass.
        hit = self.planner.exact_hit(psj)
        plan = None
        if hit is None:
            plan = self.planner.plan(psj)
            if plan.prefetches:
                # Generalization (step 1): fetch the general form first,
                # then ask again.
                self._generalize(psj, plan.prefetches)
                hit = self.planner.exact_hit(psj)
                plan = None if hit is not None else self.planner.plan(psj)
        self.last_plan = plan

        if hit is not None:
            self.metrics.incr(CACHE_HITS_EXACT)
            if hit.canonical:
                # Served by the canonical tier: a variant spelling of a
                # stored definition, recognized without subsumption.
                self.metrics.incr(CACHE_HITS_CANONICAL)
            logger.debug("plan[exact] for %s: read %s", psj.name,
                         hit.element.element_id)
            return self._read_exact(hit)
        if plan.strategy in ("cache-full", "hybrid"):
            self.metrics.incr(CACHE_HITS_SUBSUMED)
        elif plan.strategy == "remote":
            self.metrics.incr(CACHE_MISSES)

        logger.debug("plan[%s] for %s%s", plan.strategy, psj.name,
                     " (lazy)" if plan.lazy else "")
        derivation_started = self.clock.now
        try:
            try:
                result = self.monitor.execute(plan)
            except StalePlanError:
                # A concurrent session retired a matched element between
                # planning and execution (epoch-tagged invalidation):
                # replan once against the current cache state.
                self.metrics.incr(CACHE_STALE_REPLANS)
                self.tracer.event("cms.stale_replan", view=psj.name)
                logger.debug("stale plan for %s: replanning", psj.name)
                hit = self.planner.exact_hit(psj)
                if hit is not None:
                    self.last_plan = None
                    return self._read_exact(hit)
                plan = self.planner.plan(psj)
                self.last_plan = plan
                result = self.monitor.execute(plan)
        except RemoteDBMSError as error:
            # Retries are exhausted (or the breaker is open): degrade to
            # whatever the cache can still prove, rather than propagating
            # the raw failure to the IE.  Degraded answers are never
            # cached or archived — they would masquerade as fresh.
            result = self._degraded_answer(psj, plan, error)
            self._last_degraded = True
            self.metrics.incr(REMOTE_DEGRADED_ANSWERS)
            self.tracer.event(
                "cms.degraded_answer", view=psj.name, error=type(error).__name__
            )
            return result

        if self._archive is not None and plan.touches_remote:
            # Remember the fresh answer for degraded service during a
            # future outage (survives eviction from the cache proper).
            self._archive.store(psj, result.to_extension())

        if plan.cache_result:
            # The efficacy ledger records what deriving this answer
            # actually cost in simulated time — the price a future reuse
            # avoids re-paying; for a whole-query fetch, what the fetch
            # cost, as its intermediate would have recorded it.
            seconds = self.monitor.fetch_seconds
            if seconds is None:
                seconds = self.clock.now - derivation_started
            try:
                element = self.cache.store(psj, result, derivation_seconds=seconds)
            except CacheCapacityError:
                return result
            self.cache.annotate(
                element,
                expendable=plan.expendable,
                advised=self.advice_manager.view(psj.name) is not None,
            )
            self._build_indexes(element, plan.index_positions)
        return result

    def _generalize(self, psj: PSJQuery, generals) -> None:
        """Fetch and cache each generalized query the plan for ``psj``
        asked for.  A failed prefetch must not fail the query it was meant
        to help."""
        for general in generals:
            logger.debug("generalize: fetching %s for %s", general.name, psj.name)
            try:
                self._fetch_and_cache(general, view_name=psj.name)
            except CacheCapacityError:
                logger.debug("generalize: %s did not fit the cache", general.name)
                continue
            except RemoteDBMSError:
                logger.debug("generalize: remote failure fetching %s", general.name)
                continue
            self.metrics.incr(CACHE_GENERALIZATIONS)
            self.tracer.event("cms.generalized", view=psj.name, general=general.name)

    def _read_exact(self, hit: ExactHit) -> Relation | GeneratorRelation:
        """Serve an exact hit: one :meth:`Cache.read` (touch, efficacy
        credit), the stored rows charged to ``local``,
        and the stored relation itself as the answer — a generator keeps
        its element pinned until it drains.  Traced, the hit is one
        ``cms.exact_hit`` event carrying the seconds charged."""
        element = hit.element
        self.cache.read(element)
        charged_from = self.clock.now
        self.monitor.charge_local(element.rows_materialized())
        self.monitor.pin_for_stream(element, element.relation)
        if self.tracer.enabled:
            self.tracer.event(
                "cms.exact_hit",
                element=element.element_id,
                canonical=hit.canonical,
                seconds=self.clock.now - charged_from,
            )
        return element.relation

    def _degraded_answer(
        self, psj: PSJQuery, plan, error: RemoteDBMSError
    ) -> Relation:
        """Answer from stale/partial cache data after a remote failure.

        Preference order (the paper's bias toward answering from cache):
        a subsuming stale-archive copy first (complete rows, unknown
        freshness), then a partial answer from the plan's parts that
        survive — its cache parts and, on a federation, the other backends'
        remote parts — with the lost parts' columns nulled out.  Re-raises
        ``error`` when neither exists.
        """
        if not self.features.degradation:
            raise error
        if self._archive is not None:
            match = self._archive.find_full(psj, audit=self.planner.audit)
            if match is not None:
                logger.debug(
                    "degraded[%s]: stale archive copy %s",
                    psj.name,
                    match.element.element_id,
                )
                return self.monitor.derive_degraded(match, psj)
        partial = self.monitor.execute_degraded(plan)
        if partial is not None:
            logger.debug("degraded[%s]: partial answer from surviving parts", psj.name)
            return partial
        raise error

    def _fetch_whole(self, psj: PSJQuery) -> Relation:
        """Fetch a PSJ query remotely as it stands: one request, or the
        planner's remote-only plan run by the monitor when it spans a
        federation's backends."""
        plan = self.planner.spanning_plan(psj)
        if plan is None:
            return self.rdi.fetch(psj)
        return self.monitor.execute(plan)

    def _fetch_and_cache(self, psj: PSJQuery, view_name: str | None = None) -> None:
        """Fetch a PSJ query remotely and install it as a cache element."""
        if self.cache.lookup_exact(psj) is not None:
            return
        fetch_started = self.clock.now
        relation = self._fetch_whole(psj)
        element = self.cache.store(
            psj, relation, derivation_seconds=self.clock.now - fetch_started
        )
        if view_name is not None:
            self._build_indexes(element, self.advice_manager.index_positions(view_name))

    def _build_indexes(self, element, positions: tuple[int, ...]) -> None:
        if not self.features.indexing:
            return
        from repro.caql.psj import ConstProj

        for position in positions:
            if position >= element.definition.arity:
                continue
            if isinstance(element.definition.projection[position], ConstProj):
                continue  # the position is pinned: nothing to probe
            attr = f"a{position}"
            if not element.has_index_on((attr,)):
                self.monitor.build_index(element, (attr,))

    def _prefetch_companions(self, view_name: str) -> None:
        """Prefetch views grouped with ``view_name`` in the path expression.

        With batching on, all companions needing remote data are shipped
        as **one** round trip (:meth:`RemoteInterface.fetch_many`; one per
        backend on a federation) — the path expression told us they are
        wanted together, so the latency is paid once for the whole group.
        """
        if not self.features.prefetch or not self.features.caching:
            return
        wanted: list[tuple[str, PSJQuery]] = []
        for companion in self.advice_manager.prefetch_candidates(view_name):
            general = self.planner.generalization_of(companion)
            if general is None or self.cache.lookup_exact(general) is not None:
                continue
            logger.debug("prefetch: %s (companion of %s)", companion, view_name)
            wanted.append((companion, general))
        if not wanted:
            return
        if self.features.batching and len(wanted) > 1:
            # A companion spanning backends is a plan of its own (the loop
            # below); the rest share one round trip per backend.
            batched: list[tuple[str, PSJQuery]] = []
            spanning: list[tuple[str, PSJQuery]] = []
            for pair in wanted:
                plan = self.planner.spanning_plan(pair[1])
                (batched if plan is None else spanning).append(pair)
            wanted = spanning
            batch_started = self.clock.now
            try:
                relations = self.rdi.fetch_many([general for _name, general in batched])
            except RemoteDBMSError:
                return  # prefetching must never fail the query it rode on
            # The batched round trip's cost is shared: each element's
            # ledger carries an equal share of the derivation time.
            per_element = (self.clock.now - batch_started) / max(len(batched), 1)
            for (companion, general), relation in zip(batched, relations):
                try:
                    element = self.cache.store(
                        general, relation, derivation_seconds=per_element
                    )
                except CacheCapacityError:
                    continue
                self._build_indexes(element, self.advice_manager.index_positions(companion))
                self.metrics.incr(CACHE_PREFETCHES)
        for companion, general in wanted:
            try:
                self._fetch_and_cache(general, view_name=companion)
            except (CacheCapacityError, RemoteDBMSError):
                continue
            self.metrics.incr(CACHE_PREFETCHES)
