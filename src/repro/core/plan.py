"""Query plan structures produced by the QPO (Section 5.3.3).

A plan "consists of a partially ordered set of subqueries where each
subquery is designated for execution by either the Cache Manager or by the
remote DBMS".  Here a plan has any number of cache derivations and at most
one remote sub-query **per backend** (:meth:`QueryPlan.check_invariants`
enforces it).  The partial order is the part order: cache parts and the
leading unbound remote parts are mutually independent and share one
parallel region; a remote part carrying binding specs runs after it,
since its IN-lists draw on the parts before it (cache parts or earlier
backends' remote parts).  The **combine** stage (join + residual
conditions + projection) on the workstation comes last.  An exact hit
has no plan at all: the CMS reads the element the planner's exact tier
found (:meth:`~repro.core.planner.QueryPlanner.exact_hit`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.common.clock import CostProfile
from repro.relational.expressions import Comparison
from repro.relational.operators import existence_part, project_entries
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.caql.psj import ConstProj, PSJQuery
from repro.core.subsumption import SubsumptionMatch


# ---------------------------------------------------------------------------
# part construction — cache parts, remote components and their per-backend
# splits all compose the same way
# ---------------------------------------------------------------------------


#: Resolves a base relation to its home backend's ``(name, CostProfile)``:
#: every RDI's ``cost_profile_of`` (a lone server is backend ``""`` of
#: every table).
BackendOf = Callable[[str], tuple[str, CostProfile]]


def home_groups(query: PSJQuery, backend_of: BackendOf) -> dict[str, list[str]]:
    """Which backend owns each occurrence of ``query``: backend name →
    occurrence tags, both in first-seen order."""
    groups: dict[str, list[str]] = {}
    for occ in query.occurrences:
        groups.setdefault(backend_of(occ.pred)[0], []).append(occ.tag)
    return groups


def needed_columns(query: PSJQuery, tags: frozenset[str]) -> list[str]:
    """Query columns a part covering ``tags`` must expose: projection
    columns inside the part plus the covered side of conditions crossing
    the part boundary."""
    prefixes = tuple(tag + "." for tag in tags)
    needed: list[str] = []

    def want(col: str) -> None:
        if col.startswith(prefixes) and col not in needed:
            needed.append(col)

    for entry in query.projection:
        if not isinstance(entry, ConstProj):
            want(entry)
    for condition in query.conditions:
        cols = condition.columns()
        inside = {c for c in cols if c.startswith(prefixes)}
        if inside and inside != cols:
            for col in inside:
                want(col)
    return needed


def sub_query(query: PSJQuery, tags: frozenset[str], name: str) -> PSJQuery:
    """The component of ``query`` over ``tags`` as a self-contained PSJ
    query: conditions entirely inside the part are pushed down, the
    projection is narrowed to :func:`needed_columns`.

    A component that is the whole query under another name (every
    occurrence, every condition, the same projection) carries the
    query's canonical form, which reads none of what differs."""
    prefixes = tuple(tag + "." for tag in tags)
    occurrences = tuple(o for o in query.occurrences if o.tag in tags)
    conditions = tuple(
        c
        for c in query.conditions
        if c.columns() and all(col.startswith(prefixes) for col in c.columns())
    )
    part = PSJQuery(name, occurrences, conditions, tuple(needed_columns(query, tags)))
    form = query.__dict__.get("_canonical")
    if (
        form is not None
        and not query.unsatisfiable
        and len(occurrences) == len(query.occurrences)
        and len(conditions) == len(query.conditions)
        and part.projection == query.projection
    ):
        part.__dict__["_canonical"] = form
    return part


def label_part(rows, columns: tuple[str, ...], label: str) -> Relation:
    """A part's positional result (any iterable of rows) under the
    qualified query column names the combine stage joins on.  A part that
    exposes no columns is a pure existence check: its
    :func:`~repro.relational.operators.existence_part`."""
    if not columns:
        return existence_part(rows, label)
    schema = Schema(label, columns)
    if type(rows) is Relation and rows.schema.arity == schema.arity:
        # A fetched or shared part: relabelled by the adoption rule.
        return project_entries(rows, [("col", i) for i in range(schema.arity)], schema)
    return Relation(schema, iter(rows))


def distinct_values(
    column: str, parts: list[Relation]
) -> tuple[int, tuple[object, ...]] | None:
    """Distinct values of ``column`` (first-occurrence order) from the first
    of ``parts`` exposing it, with that part's index — the binding set a
    semijoin ships.  None when no part exposes the column.  The pass
    re-reads the part's rows; charging it is the caller's."""
    for index, relation in enumerate(parts):
        if column in relation.schema.attributes:
            position = relation.schema.position(column)
            return index, tuple(dict.fromkeys(row[position] for row in relation))
    return None


@dataclass(frozen=True)
class CachePart:
    """A component answered from the cache via a subsumption match."""

    match: SubsumptionMatch
    #: Query columns this part must expose to the combine stage.
    columns: tuple[str, ...]

    @property
    def tags(self) -> frozenset[str]:
        """Query occurrence tags this part covers."""
        return self.match.covered_tags


@dataclass(frozen=True)
class BindingSpec:
    """One semijoin binding: a remote join column reduced by the values an
    earlier part produced.

    The executor runs the source part first, projects the *distinct* values
    of ``source_column`` from what it produced, and ships them as an
    IN-list on ``remote_column`` — so the server returns only tuples that
    can survive the combine-stage join.  The source is a cache part or an
    earlier remote part (another backend of a federation).
    """

    #: Qualified column in the remote sub-query ("t1.c0").
    remote_column: str
    #: Qualified column an earlier part exposes ("t0.c1") — the binding
    #: source.
    source_column: str
    #: The query's equality between the two columns, which the shipped
    #: IN-list implements (and the combine stage applies).
    condition: Comparison
    #: Planner estimate of how many distinct values will be shipped.
    estimated_values: float = 0.0


@dataclass(frozen=True)
class RemotePart:
    """A component shipped to the remote DBMS as one DML request."""

    sub_query: PSJQuery
    #: Query columns this part exposes (the sub-query's projection order).
    columns: tuple[str, ...]
    tags: frozenset[str]
    #: Semijoin reduction chosen by the planner: binding sets to extract
    #: from earlier parts and ship as IN-lists.  Empty = unreduced fetch.
    bind_columns: tuple[BindingSpec, ...] = ()


PlanPart = CachePart | RemotePart


@dataclass
class QueryPlan:
    """The complete plan for one CAQL query."""

    query: PSJQuery
    #: One of: cache-full, hybrid, remote, unsatisfiable, unit.
    strategy: str
    parts: tuple[PlanPart, ...] = ()
    #: Cache-full strategy: the match to derive from.
    full_match: SubsumptionMatch | None = None
    #: Conditions spanning parts, applied at the combine stage.
    cross_conditions: tuple[Comparison, ...] = ()
    #: Evaluate lazily (only legal when nothing remote is involved).
    lazy: bool = False
    #: Store the result as a cache element afterwards.
    cache_result: bool = True
    #: Advice predicts no further request: store, but evict first.
    expendable: bool = False
    #: Result attribute positions to index after caching (consumer advice).
    index_positions: tuple[int, ...] = ()
    #: Planner estimates, for tests and ablation reporting.
    estimated_local_cost: float = 0.0
    #: The remote estimate, or what prices it when read: a plan with no
    #: cache part weighs its fetch against nothing, so only a trace,
    #: ``explain`` or a test pays for the price
    #: (:attr:`estimated_remote_cost`).
    remote_estimate: float | Callable[[], float] = 0.0
    #: Extra PSJ queries to fetch and cache ahead of need (prefetch and
    #: generalization both surface here).
    prefetches: tuple[PSJQuery, ...] = ()
    notes: list[str] = field(default_factory=list)

    @property
    def estimated_remote_cost(self) -> float:
        """The planner's price of the plan's remote work, computed on the
        first read when it was deferred."""
        estimate = self.remote_estimate
        if callable(estimate):
            estimate = self.remote_estimate = estimate()
        return estimate

    @property
    def touches_remote(self) -> bool:
        """True when any part needs the remote DBMS."""
        return any(isinstance(p, RemotePart) for p in self.parts)

    def cache_elements(self):
        """Every cache element this plan reads (full match, cache parts)."""
        elements = []
        if self.full_match is not None:
            elements.append(self.full_match.element)
        for part in self.parts:
            if isinstance(part, CachePart):
                elements.append(part.match.element)
        return elements

    def check_invariants(self, backend_of: BackendOf) -> None:
        """Audit this plan's structural consistency (cheap, read-only).

        Raises :class:`~repro.common.errors.InvariantViolation` when the
        plan could not possibly execute correctly: an occurrence of the
        query left uncovered by any part, a part claiming a tag the query
        does not have, a cache-full plan without its match, a lazy plan that
        touches the remote DBMS, two remote parts bound for one backend, or a
        semijoin binding whose source column no earlier part exposes.
        ``backend_of`` resolves a base relation to ``(backend name, …)``
        (the RDI's ``cost_profile_of``): a remote part's backends come
        from the catalog, never from the part itself.
        """
        from repro.common.errors import InvariantViolation

        query_tags = {occ.tag for occ in self.query.occurrences}
        if self.strategy in ("unsatisfiable", "unit"):
            return
        if self.strategy == "cache-full":
            if self.full_match is None:
                raise InvariantViolation(
                    f"cache-full plan for {self.query.name} has no full match"
                )
            return
        covered: set[str] = set()
        for part in self.parts:
            if not part.tags <= query_tags:
                raise InvariantViolation(
                    f"plan part covers unknown tags "
                    f"{sorted(part.tags - query_tags)} of {self.query.name}"
                )
            if covered & part.tags:
                raise InvariantViolation(
                    f"tags {sorted(covered & part.tags)} of {self.query.name} "
                    "covered by more than one plan part"
                )
            covered |= part.tags
        missing = query_tags - covered
        if missing:
            raise InvariantViolation(
                f"occurrences {sorted(missing)} of {self.query.name} are "
                f"covered by no part of this {self.strategy} plan"
            )
        if self.lazy and self.touches_remote:
            raise InvariantViolation(
                f"lazy plan for {self.query.name} touches the remote DBMS"
            )
        backends: set[str] = set()
        exposed: set[str] = set()
        for part in self.parts:
            if isinstance(part, RemotePart):
                homes = set(home_groups(part.sub_query, backend_of))
                if homes & backends:
                    raise InvariantViolation(
                        f"plan for {self.query.name} sends more than one remote "
                        f"part to backend {sorted(homes & backends)[0] or 'the server'}"
                    )
                backends |= homes
                mentioned = part.sub_query.all_columns()
                for spec in part.bind_columns:
                    if spec.source_column not in exposed:
                        raise InvariantViolation(
                            f"semijoin binding on {spec.remote_column} draws "
                            f"from {spec.source_column}, which no earlier part "
                            "exposes"
                        )
                    if spec.remote_column not in mentioned:
                        raise InvariantViolation(
                            f"semijoin binding targets {spec.remote_column}, "
                            "which its remote sub-query does not mention"
                        )
            exposed.update(part.columns)

    def part_labels(self) -> list[str]:
        """One label per plan part (``cache:E3``, ``remote:view__rest``,
        ``remote:view__rest+semijoin``) — what traces and ``explain`` show."""
        return [
            f"cache:{p.match.element.element_id}"
            if isinstance(p, CachePart)
            else f"remote:{p.sub_query.name}" + ("+semijoin" if p.bind_columns else "")
            for p in self.parts
        ]
