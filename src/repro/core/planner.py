"""The Query Planner/Optimizer (QPO) — Sections 5.3.1–5.3.3.

Step 1 — *determine the query to be evaluated*: decide whether to answer
the IE-query as given or a generalization of it (prefetching more data
than needed, amortized over predicted repetitions).

Step 2 — *determine relevant cache elements*: run subsumption over the
cache (delegated to :mod:`repro.core.subsumption`).

Step 3 — *generate the plan*: choose among deriving the answer entirely
from cache, a hybrid split (cache parts + the remote component,
unbound remote parts overlapping the cache track), or shipping the whole
query to the remote DBMS — by comparing estimated costs under the
session's cost profile.  The remote component is one request per home
backend (one request on a single server).

Ahead of all three steps sits the **exact tier**,
:meth:`QueryPlanner.exact_hit`: one canonical-key lookup whose hit is the
answer as stored, so the CMS reads it without asking for a plan at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

from repro.common.clock import CostProfile
from repro.common.errors import TranslationError
from repro.relational.expressions import Comparison
from repro.logic.builtins import BuiltinRegistry
from repro.relational.statistics import RelationStatistics
from repro.caql.ast import ConjunctiveQuery
from repro.caql.eval import core_plan
from repro.caql.psj import ConstProj, PSJQuery, parse_column
from repro.core.advice_manager import AdviceManager
from repro.core.cache import Cache, CacheElement
from repro.core.canonical import audit_canonical, canonicalize
from repro.core.plan import (
    BackendOf,
    BindingSpec,
    CachePart,
    PlanPart,
    QueryPlan,
    RemotePart,
    home_groups,
    needed_columns,
    sub_query,
)
from repro.core.subsumption import (
    CandidateReport,
    SubsumptionMatch,
    audit_prefilter,
    find_relevant,
    ranked,
)
from repro.obs.tracer import Tracer


@dataclass
class PlannerFeatures:
    """Which CMS techniques the planner may use.

    Every field is varied by an experiment in EXPERIMENTS.md (E1's
    ablations, E3-E7, E10, E17, E22); a toggle nothing varies does not
    belong here.
    """

    caching: bool = True
    subsumption: bool = True
    #: Canonicalization-first lookup: the cache keys elements by the
    #: semantic canonical form (:mod:`repro.core.canonical`), so variant
    #: spellings of a stored definition exact-hit without subsumption
    #: scoring, and a query whose canonical form is contradictory takes
    #: the empty-result fast path.  Off = structural exact matching only
    #: (the E22 subsumption-only baseline).
    canonical: bool = True
    lazy: bool = True
    prefetch: bool = True
    generalization: bool = True
    indexing: bool = True
    parallel: bool = True
    #: Semijoin-reduce remote fetches: ship the distinct join-column values
    #: a cache part pins (an IN-list) instead of pulling the base relation
    #: unreduced.  Chosen per query by cost, never unconditionally.
    semijoin: bool = True


#: Resolves a base-relation name to its remote statistics.
StatsLookup = Callable[[str], RelationStatistics]


class ExactHit(NamedTuple):
    """The exact tier's answer: a cache element whose stored relation *is*
    the answer to the query."""

    element: CacheElement
    #: The stored definition is an alpha-equivalent variant spelling, not
    #: a structurally identical one (metrics: ``cache.canonical_hits``).
    canonical: bool

    def notes(self) -> list[str]:
        """What ``explain`` reports for the hit."""
        element = self.element
        if self.canonical:
            notes = [
                "canonical hit: variant spelling of "
                f"{element.element_id} ({element.view_name})"
            ]
        else:
            notes = ["exact-match result reuse"]
        if element.kind == "intermediate":
            notes.append(
                f"reuses intermediate {element.element_id} "
                f"({element.operator or 'unknown-op'})"
            )
        return notes


class QueryPlanner:
    """Produces a :class:`QueryPlan` for each PSJ query."""

    def __init__(
        self,
        cache: Cache,
        advice: AdviceManager,
        stats_of: StatsLookup,
        backend_of: BackendOf,
        profile: CostProfile,
        features: PlannerFeatures | None = None,
        remote_available: Callable[[], bool] | None = None,
        tracer=None,
    ):
        self.cache = cache
        self.advice = advice
        self.stats_of = stats_of
        #: Resolves a base relation to its home backend's
        #: ``(name, CostProfile)`` — the RDI's ``cost_profile_of``.
        self.backend_of = backend_of
        self.profile = profile
        self.features = features if features is not None else PlannerFeatures()
        self.tracer = tracer if tracer is not None else Tracer.disabled()
        #: Resilience hook (circuit breaker): when the remote DBMS is
        #: currently unreachable, the planner keeps cache parts in hybrid
        #: plans instead of shipping the whole query, so a failing remote
        #: part can still degrade to a partial cache-served answer.
        self.remote_available = (
            remote_available if remote_available is not None else (lambda: True)
        )
        #: When set, every produced plan is run through
        #: :meth:`QueryPlan.check_invariants` before it leaves the planner,
        #: every candidate its probe rejected on the containment signature
        #: is put through the full subsumption test after all, every one it
        #: let through is matched again by a plan built for this ask alone,
        #: and the query's carried canonical form is recomputed from scratch.
        #: Off by default (tests and the fuzzer flip it on).
        self.audit = False

    # -- entry points ------------------------------------------------------------
    def exact_hit(self, query: PSJQuery) -> ExactHit | None:
        """The exact tier, asked before anything is planned: the element
        the cache keys under ``query``'s canonical key, or None.

        A query the planner answers without the cache (contradictory, or
        with no occurrences) has no hit.  When the stored definition is
        not structurally identical the hit is a **canonical hit** — a
        variant spelling served without subsumption scoring — which the
        ``canonical=False`` ablation refuses.  A query whose relations,
        condition count or projection length differ from the definition's
        is told canonical without rendering its structural key; only a
        query alike in all three renders it.  Nothing is read or charged
        here: the caller reads the element in the same call, so no store
        or discard can come between the lookup and the read.
        """
        if not self.features.caching or query.unsatisfiable or not query.occurrences:
            return None
        if self.features.canonical and canonicalize(query).unsatisfiable:
            return None
        element = self.cache.lookup_exact(query)
        if element is None:
            return None
        canonical = _variant_spelling(element.definition, query)
        if canonical and not self.features.canonical:
            return None  # ablation: structural exact matching only
        if self.audit:
            audit_canonical(query)
        return ExactHit(element, canonical)

    def plan(self, query: PSJQuery) -> QueryPlan:
        """Produce a plan for one PSJ query (the QPO's three steps).

        Asked after :meth:`exact_hit` came back empty: an exactly cached
        query planned anyway is derived from its element like any other
        subsumed one.  Every caller executes the plan next, with no store
        or discard in between, so the elements it matched are still live.
        """
        with self.tracer.span("planner.plan", view=query.name) as span:
            # With a real tracer attached (or under audit), the probe
            # ``_plan`` runs also records its per-candidate rationale, for
            # ``_trace_decision`` (and ``audit_prefilter``).
            reports: list[CandidateReport] | None = (
                [] if self.tracer.enabled or self.audit else None
            )
            plan = self._plan(query, reports)
            if self.audit:
                plan.check_invariants(self.backend_of)
                audit_prefilter(self.cache, query, reports)
                audit_canonical(query)
            if self.tracer.enabled:
                self._trace_decision(span, plan, reports)
            return plan

    def _trace_decision(
        self, span, plan: QueryPlan, reports: list[CandidateReport]
    ) -> None:
        """Record the planner's full rationale on its span (tracing only).

        The subsumption rationale comes from ``reports``, collected by the
        probe ``_plan`` ran.  A plan answered *before* subsumption
        (unsatisfiable, unit) never probed, and has no rationale to show.
        """
        span.set("strategy", plan.strategy)
        span.set("lazy", plan.lazy)
        span.set("cache_result", plan.cache_result)
        span.set("expendable", plan.expendable)
        span.set("epoch", self.cache.epoch)
        span.set("notes", list(plan.notes))
        span.set("parts", plan.part_labels())
        if plan.prefetches:
            span.set("prefetches", [p.name for p in plan.prefetches])
        span.set("estimated_local_cost", plan.estimated_local_cost)
        span.set("estimated_remote_cost", plan.estimated_remote_cost)
        span.set("remote_available", self.remote_available())
        for report in ranked(reports):
            if report.matched:
                best = report.matches[0]
                span.event(
                    "subsume.match",
                    element=report.element_id,
                    view=report.view_name,
                    full=any(m.is_full for m in report.matches),
                    covered=sorted(best.covered_tags),
                    residual=len(best.residual_conditions),
                )
            else:
                span.event(
                    "subsume.reject",
                    element=report.element_id,
                    view=report.view_name,
                    reasons=list(report.rejections),
                )

    def _plan(
        self, query: PSJQuery, reports: list[CandidateReport] | None
    ) -> QueryPlan:
        if query.unsatisfiable:
            return QueryPlan(query, "unsatisfiable", cache_result=False)
        if self.features.canonical and canonicalize(query).unsatisfiable:
            # Interval folding proved the condition set contradictory
            # (e.g. ``x>5 ∧ x<3``): answer empty without touching the
            # cache or the remote DBMS.
            return QueryPlan(
                query,
                "unsatisfiable",
                cache_result=False,
                notes=["canonical form is unsatisfiable"],
            )
        if not query.occurrences:
            return QueryPlan(query, "unit", cache_result=False)

        view_name = query.name
        # Advice that predicts no further request downgrades the element
        # to *expendable* (first in line for eviction) rather than refusing
        # storage — future sessions may still profit from it.
        expendable = not self.advice.should_cache_result(view_name)
        index_positions = (
            self.advice.index_positions(view_name) if self.features.indexing else ()
        )

        # -- step 2 first: a derived cache answer needs no step 1.
        if self.features.caching:
            if self.features.subsumption:
                matches = find_relevant(self.cache, query, reports)
            else:
                matches = []
            full = next((m for m in matches if m.is_full), None)
            if full is not None:
                lazy = (
                    self.features.lazy
                    and self.advice.prefers_lazy(view_name)
                )
                return QueryPlan(
                    query,
                    "cache-full",
                    full_match=full,
                    lazy=lazy,
                    # An eager derived answer is a local selection over a
                    # resident parent: re-deriving it is work this branch
                    # already prices, so it is not copied into the cache.
                    # A lazy one is a generator over its parent (§5.1) and
                    # copies no row, so it is stored.
                    cache_result=lazy,
                    expendable=expendable,
                    index_positions=index_positions,
                    estimated_local_cost=self._derive_cost(full),
                    notes=[f"subsumption hit: derived from {full.element.element_id}"]
                    + self._intermediate_notes([full]),
                )
        else:
            matches = []

        # -- step 1: generalization decision (only when remote work looms).
        prefetches: list[PSJQuery] = []
        notes: list[str] = []
        if (
            self.features.generalization
            and self.features.caching
            and self.advice.should_generalize(view_name)
        ):
            general = self.generalization_of(view_name)
            if general is not None and self.cache.lookup_exact(general) is None:
                prefetches.append(general)
                notes.append(f"generalize: fetch {general.name} unconstrained")

        # -- step 3: hybrid vs all-remote.
        chosen = self._choose_parts(query, matches)
        notes.extend(self._intermediate_notes(chosen))
        plan = self._assemble(query, chosen, notes)
        plan.cache_result = self.features.caching
        plan.expendable = expendable
        plan.index_positions = index_positions
        plan.prefetches = tuple(prefetches)
        return plan

    @staticmethod
    def _intermediate_notes(matches) -> list[str]:
        """Plan notes for every chosen match that subsumes against an
        operator-level intermediate (observability: ``explain`` and trace
        spans surface which intermediate the plan rode on)."""
        return [
            f"reuses intermediate {m.element.element_id} "
            f"({m.element.operator or 'unknown-op'})"
            for m in matches
            if m.element.kind == "intermediate"
        ]

    # -- step 1 helpers -----------------------------------------------------------
    def generalization_of(self, view_name: str) -> PSJQuery | None:
        """The generalized query of an advised view: its own
        (uninstantiated) definition, which subsumes every instance the IE
        will send.  None when there is no such view or it cannot be
        fetched as one PSJ query (then it is neither generalizable nor
        prefetchable).

        Kept per definition: ``ConjunctiveQuery`` is frozen, so the answer
        is kept in the definition's instance dict (as a ``PSJQuery`` keeps
        its canonical form), and every later call — one per prefetch
        candidate per query — returns the same object, canonical form and
        all.  A fresh definition (the IE registers its views anew on every
        ask) binds its view's shape plan: no translation, no fold of its
        structure."""
        view = self.advice.view(view_name)
        if view is None:
            return None
        carried = view.definition.__dict__
        if "_general" not in carried:
            carried["_general"] = _generalized(view.definition)
        return carried["_general"]

    # -- step 3: part selection ------------------------------------------------------
    def _choose_parts(
        self, query: PSJQuery, matches: list[SubsumptionMatch]
    ) -> list[SubsumptionMatch]:
        """Greedy non-overlapping selection of partial matches by coverage.

        Overlapping candidates (several elements able to cover the same
        occurrence) are resolved in favour of wider coverage with fewer
        residual conditions — the paper's E101/E102 vs E103 discussion.
        """
        chosen: list[SubsumptionMatch] = []
        covered: set[str] = set()
        for match in matches:  # already sorted: fuller first
            if match.covered_tags & covered:
                continue
            if not self._part_columns_available(query, match):
                continue
            chosen.append(match)
            covered |= match.covered_tags
        return chosen

    def _part_columns_available(self, query: PSJQuery, match: SubsumptionMatch) -> bool:
        available = match.available()
        for col in needed_columns(query, match.covered_tags):
            if col not in available:
                return False
        return True

    def _assemble(
        self, query: PSJQuery, chosen: list[SubsumptionMatch], notes: list[str]
    ) -> QueryPlan:
        all_tags = {occ.tag for occ in query.occurrences}
        covered = set()
        for match in chosen:
            covered |= match.covered_tags
        uncovered = all_tags - covered

        parts: list[PlanPart] = []
        for match in chosen:
            columns = tuple(needed_columns(query, match.covered_tags))
            parts.append(CachePart(match=match, columns=columns))

        remote_cost: float | Callable[[], float] = 0.0
        local_cost = sum(self._derive_cost(m) for m in chosen)
        specs: list[BindingSpec] = []
        if uncovered:
            sub = sub_query(query, frozenset(uncovered), f"{query.name}__rest")
            if chosen:
                remote_cost = self._remote_cost(sub)
            else:
                # Nothing to weigh the fetch against: it is priced when
                # read.  Its statistics are asked for now, where pricing
                # asks, so each round trip falls at the same simulated time.
                self._statistics(sub)
                remote_cost = partial(self._remote_cost, sub)

            # Semijoin reduction: if a cache part pins a join column, it
            # may be cheaper to run the cache track first and ship its
            # distinct binding values than to pull the sub-query unreduced.
            # The reduced fetch is sequential (bindings must exist before
            # the request), so it competes against the *parallel* hybrid.
            if chosen and self.features.semijoin:
                candidates = self._binding_candidates(
                    query, chosen, frozenset(uncovered)
                )
                if candidates:
                    reduced_cost = self._semijoin_cost(sub, candidates)
                    unreduced_hybrid = (
                        max(remote_cost, local_cost)
                        if self.features.parallel
                        else remote_cost + local_cost
                    )
                    if local_cost + reduced_cost < unreduced_hybrid:
                        specs = candidates
                        remote_cost = reduced_cost
                        for spec in specs:
                            notes = notes + [_semijoin_note(spec)]
                    else:
                        notes = notes + [
                            "semijoin rejected: shipped bindings dearer than "
                            "the unreduced parallel fetch"
                        ]

        # Compare the hybrid plan against shipping the whole query.  With
        # the circuit breaker open, keep the cache parts: they are the raw
        # material for a degraded answer if the remote part fails again.
        if chosen and uncovered and not self.remote_available():
            notes = notes + ["remote unavailable: keeping cache parts for degradation"]
        elif chosen and uncovered:
            whole_remote = self._remote_cost(query)
            hybrid = (
                remote_cost + local_cost
                if specs or not self.features.parallel
                else max(remote_cost, local_cost)
            )
            if whole_remote < hybrid:
                notes = notes + ["whole-query shipping beat the hybrid split"]
                # Fetch the constant-free projection, as a remote-only plan does.
                whole = sub_query(query, frozenset(all_tags), query.name)
                parts = self._remote_parts(whole, notes)
                return QueryPlan(
                    query,
                    "remote",
                    parts=tuple(parts),
                    cross_conditions=tuple(self._cross_conditions(query, parts)),
                    remote_estimate=whole_remote,
                    notes=notes,
                )
        if uncovered:
            parts.extend(self._remote_parts(sub, notes, specs))

        cross = tuple(self._cross_conditions(query, parts))
        strategy = "remote" if not chosen else "hybrid"
        return QueryPlan(
            query,
            strategy,
            parts=tuple(parts),
            cross_conditions=cross,
            estimated_local_cost=local_cost,
            remote_estimate=remote_cost,
            notes=notes,
        )

    def spanning_plan(self, query: PSJQuery) -> QueryPlan | None:
        """The remote-only plan that fetches ``query`` whole when it spans
        a federation's backends (generalization and prefetch fetch whole
        queries), or None when one request answers it."""
        notes: list[str] = []
        parts = self._remote_parts(query, notes)
        if len(parts) == 1:
            return None
        plan = QueryPlan(
            query,
            "remote",
            parts=tuple(parts),
            cross_conditions=tuple(self._cross_conditions(query, parts)),
            cache_result=False,
            notes=notes,
        )
        if self.audit:
            plan.check_invariants(self.backend_of)
        return plan

    def _remote_parts(
        self, component: PSJQuery, notes: list[str], specs=()
    ) -> list[RemotePart]:
        """The remote component as plan parts, one per home backend.

        ``component`` is the uncovered sub-query or the whole query;
        ``specs`` are the cache-sourced bindings already chosen for it.
        On one backend it is one part.  Spanning backends, it is split
        with :func:`sub_query` and the parts are ordered by summed base
        cardinality, then backend name; with semijoin on, a later part is
        bound on every equality whose other side an earlier part exposes
        (its IN-list then draws on that part's rows).  Costing is the
        component's, unchanged: the split decides nothing the cost model
        priced.
        """
        tags = frozenset(occ.tag for occ in component.occurrences)
        groups = home_groups(component, self.backend_of)
        if len(groups) <= 1:
            columns = tuple(
                str(p) for p in component.projection if not isinstance(p, ConstProj)
            )
            return [RemotePart(component, columns, tags, tuple(specs))]

        def weight(backend: str) -> tuple[float, str]:
            occurrences = (component.occurrence(tag) for tag in groups[backend])
            cards = sum(self.stats_of(o.pred).cardinality for o in occurrences)
            return float(cards), backend

        parts: list[RemotePart] = []
        exposed: set[str] = set()
        for backend in sorted(groups, key=weight):
            part_tags = frozenset(groups[backend])
            sub = sub_query(component, part_tags, f"{component.name}__{backend}")
            prefixes = tuple(tag + "." for tag in part_tags)
            bound = [s for s in specs if s.remote_column.startswith(prefixes)]
            if self.features.semijoin:
                for condition in component.conditions:
                    if condition.op != "=" or not condition.is_col_col():
                        continue
                    left, right = condition.left.name, condition.right.name
                    for inside, outside in ((left, right), (right, left)):
                        if inside.startswith(prefixes) and outside in exposed:
                            spec = BindingSpec(
                                remote_column=inside,
                                source_column=outside,
                                condition=condition,
                                estimated_values=self._distinct_of(
                                    component, outside
                                ),
                            )
                            bound.append(spec)
                            notes.append(_semijoin_note(spec))
            parts.append(
                RemotePart(sub, tuple(sub.projection), part_tags, tuple(bound))
            )
            exposed.update(sub.projection)
        return parts

    def _cross_conditions(
        self, query: PSJQuery, parts: list[PlanPart]
    ) -> list[Comparison]:
        """Conditions spanning more than one part (applied at combine)."""
        part_prefixes = [
            tuple(tag + "." for tag in part.tags) for part in parts
        ]

        def part_of(col: str) -> int | None:
            for index, prefixes in enumerate(part_prefixes):
                if col.startswith(prefixes):
                    return index
            return None

        out = []
        for condition in query.conditions:
            cols = condition.columns()
            if not cols:
                continue
            owners = {part_of(c) for c in cols}
            if len(owners) > 1:
                out.append(condition)
        return out

    # -- semijoin reduction -------------------------------------------------------------
    def _binding_candidates(
        self,
        query: PSJQuery,
        chosen: list[SubsumptionMatch],
        uncovered: frozenset[str],
    ) -> list[BindingSpec]:
        """Cross-part equality joins usable as shipped binding sets.

        A candidate needs an equality condition with one side exposed by a
        chosen cache part and the other side inside the uncovered (remote)
        component.  Each remote column is bound at most once.
        """
        uncovered_prefixes = tuple(tag + "." for tag in uncovered)
        exposed: dict[str, SubsumptionMatch] = {}
        for match in chosen:
            for col in needed_columns(query, match.covered_tags):
                exposed.setdefault(col, match)

        specs: list[BindingSpec] = []
        bound: set[str] = set()
        for condition in query.conditions:
            if condition.op != "=" or not condition.is_col_col():
                continue
            left, right = condition.left.name, condition.right.name
            for remote_col, cache_col in ((left, right), (right, left)):
                if not remote_col.startswith(uncovered_prefixes):
                    continue
                if cache_col.startswith(uncovered_prefixes):
                    continue
                source = exposed.get(cache_col)
                if source is None or remote_col in bound:
                    continue
                specs.append(
                    BindingSpec(
                        remote_column=remote_col,
                        source_column=cache_col,
                        condition=condition,
                        estimated_values=self._estimate_bindings(query, cache_col, source),
                    )
                )
                bound.add(remote_col)
                break
        return specs

    def _estimate_bindings(
        self, query: PSJQuery, cache_col: str, source: SubsumptionMatch
    ) -> float:
        """How many distinct binding values the cache part will yield.

        Bounded above by the element's materialized rows, by the domain
        size of the underlying remote attribute, and by the query's own
        selection estimate on the covered occurrence — residual conditions
        the cache part applies (a tighter range, an equality pin) shrink
        the binding set below the element's size, and pricing that in is
        what lets the planner choose semijoin for highly selective cache
        parts (whose binding sets may even turn out empty, short-circuiting
        the remote fetch entirely).
        """
        domain = self._distinct_of(query, cache_col)
        tag, _ = parse_column(cache_col)
        stats = self.stats_of(query.occurrence(tag).pred)
        local = query.column_conditions(tag)
        renamed = [
            c.rename_columns({col: _position_attr(col) for col in c.columns()})
            for c in local
        ]
        filtered = max(_positional_stats(stats).estimate_selection(renamed), 0.0)
        rows = float(source.element.rows_materialized())
        if rows <= 0:  # generator-backed element: fall back to the domain
            rows = domain
        return min(rows, filtered, domain)

    def _semijoin_cost(self, sub: PSJQuery, specs: list[BindingSpec]) -> float:
        """Simulated seconds of the semijoin-reduced remote fetch.

        Server touch work is kept at the unreduced estimate (conservative);
        the win must come from shipping fewer result tuples, and the
        shipped IN-list is charged as uplink so the reduction stays honest.
        """
        shipped = self.estimate_rows(sub)
        bindings = 0.0
        for spec in specs:
            domain = self._distinct_of(sub, spec.remote_column)
            if domain > 0:
                shipped *= min(1.0, spec.estimated_values / domain)
            bindings += spec.estimated_values
        latency, server, wire = self._remote_terms(sub)
        return (
            latency
            + server
            + wire.transfer_per_tuple * shipped
            + wire.uplink_per_value * bindings
        )

    def _distinct_of(self, query: PSJQuery, qualified: str) -> float:
        """Distinct-value estimate for a qualified query column."""
        tag, position = parse_column(qualified)
        stats = self.stats_of(query.occurrence(tag).pred)
        positional = _positional_stats(stats)
        attr = positional.attributes.get(f"a{position}")
        if attr is None or attr.distinct <= 0:
            return max(float(stats.cardinality), 1.0)
        return float(attr.distinct)

    # -- cost model ---------------------------------------------------------------------
    def estimate_rows(self, psj: PSJQuery) -> float:
        """Rough output-cardinality estimate (uniformity + independence)."""
        rows = 1.0
        for occ in psj.occurrences:
            stats = self.stats_of(occ.pred)
            local = psj.column_conditions(occ.tag)
            renamed = [
                c.rename_columns({col: _position_attr(col) for col in c.columns()})
                for c in local
            ]
            positional = _positional_stats(stats)
            rows *= max(positional.estimate_selection(renamed), 0.0)
        # One join-selectivity factor per cross-occurrence equality.
        for condition in psj.conditions:
            if condition.op == "=" and condition.is_col_col():
                left_tag, _ = parse_column(condition.left.name)
                right_tag, _ = parse_column(condition.right.name)
                if left_tag != right_tag:
                    rows *= 0.1
        return max(rows, 0.0)

    def _statistics(self, psj: PSJQuery) -> None:
        """Look up the statistics pricing ``psj`` reads: its relations'.
        :meth:`_remote_cost` asks here first, so a plan priced only when
        read has made every round trip at plan time all the same."""
        for occ in psj.occurrences:
            self.stats_of(occ.pred)

    def _remote_cost(self, psj: PSJQuery) -> float:
        self._statistics(psj)
        shipped = self.estimate_rows(psj)
        latency, server, wire = self._remote_terms(psj)
        return latency + server + wire.transfer_per_tuple * shipped

    def _remote_terms(self, psj: PSJQuery) -> tuple[float, float, CostProfile]:
        """Latency and server-work terms of a remote fetch, plus the profile
        governing its wire rates.

        A sub-query pays each distinct home backend's round-trip latency;
        server work is rated per backend, its profile's rate times the
        summed cardinality of the occurrences it owns (so a lone server's
        term is one product, ``server_per_tuple × Σ cardinality``); the wire
        rates are the worst (most expensive) profile involved —
        conservative, since each backend's part ships over its own link.
        """
        groups = home_groups(psj, self.backend_of)
        if not groups:
            return self.profile.remote_latency, 0.0, self.profile
        profiles: list[CostProfile] = []
        server = 0.0
        for tags in groups.values():
            preds = [psj.occurrence(tag).pred for tag in tags]
            profile = self.backend_of(preds[0])[1]
            profiles.append(profile)
            touched = sum(self.stats_of(pred).cardinality for pred in preds)
            server += profile.server_per_tuple * touched
        latency = sum(p.remote_latency for p in profiles)
        wire = max(profiles, key=lambda p: (p.transfer_per_tuple, p.uplink_per_value))
        return latency, server, wire

    def _derive_cost(self, match: SubsumptionMatch) -> float:
        rows = match.element.rows_materialized()
        return self.profile.cache_per_tuple * (rows + 1)


#: The registry a generalized view is translated under: the default
#: built-ins, which are all a view definition's literals can name.
_BUILTINS = BuiltinRegistry()


def _generalized(definition) -> PSJQuery | None:
    """:meth:`QueryPlanner.generalization_of` for a definition that does
    not carry it: the view itself under ``<name>__general``, translated
    through its shape's plan (:func:`~repro.caql.eval.core_plan`), so the
    IE's fresh definition of each ask binds a PSJ and canonical form
    instead of building them."""
    general = ConjunctiveQuery(f"{definition.name}__general", definition.answers, definition.literals)
    try:
        psj, _core_vars, evaluable = core_plan(general, _BUILTINS)
    except TranslationError:
        # A negated literal, or a comparison that references a variable
        # bound outside the run (legal in an instantiated IE-query, where
        # it arrives as a constant): the uninstantiated form is not a
        # well-formed query, so this view cannot be generalized.
        return None
    return None if evaluable else psj  # evaluable: exact-match only (§5.3.2)


def _variant_spelling(definition: PSJQuery, query: PSJQuery) -> bool:
    """True when ``query`` is not structurally identical to ``definition``
    (their :meth:`PSJQuery.canonical_key` differ): the exact tier's test
    for a canonical hit.  :func:`_unlike` decides most queries without
    rendering the query's structural key."""
    return _unlike(definition, query) or definition.canonical_key() != query.canonical_key()


def _unlike(a: PSJQuery, b: PSJQuery) -> bool:
    """True when the structural keys of ``a`` and ``b`` (what
    :meth:`PSJQuery.canonical_key` renders) must differ, read off without
    rendering either: a different ``(pred, arity)`` sequence, condition
    count or projection length.  False decides nothing.  Occurrences are
    compared by relation, not as objects: the structural key ignores tags.
    """
    if len(a.conditions) != len(b.conditions) or len(a.projection) != len(b.projection):
        return True
    mine, theirs = a.occurrences, b.occurrences
    if mine == theirs:  # translation shares occurrence objects: usually by identity
        return False
    if len(mine) != len(theirs):
        return True
    for x, y in zip(mine, theirs):
        if x.pred != y.pred or x.arity != y.arity:
            return True
    return False


def _semijoin_note(spec: BindingSpec) -> str:
    return (
        f"semijoin: ship bindings of {spec.source_column} as "
        f"{spec.remote_column} IN-list (~{spec.estimated_values:.0f} values)"
    )


def _position_attr(col: str) -> str:
    _tag, position = parse_column(col)
    return f"a{position}"


def _positional_stats(stats: RelationStatistics) -> RelationStatistics:
    """Statistics re-keyed to positional attribute names ``a0..``.

    Remote statistics are keyed by real attribute names; PSJ conditions use
    positions.  The remote schema's attribute order gives the mapping —
    but statistics objects do not carry the schema, so this helper re-keys
    by enumeration order, which :class:`RelationStatistics.from_relation`
    preserves (dicts are ordered).
    """
    out = RelationStatistics(cardinality=stats.cardinality)
    for index, (_name, attr) in enumerate(stats.attributes.items()):
        out.attributes[f"a{index}"] = attr
    return out
