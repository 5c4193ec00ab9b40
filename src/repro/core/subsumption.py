"""Subsumption between cache elements and CAQL queries (Section 5.3.2).

Given a query Q in PSJ form, find cache elements E such that E ⊇ Q_c for a
component Q_c of Q ("there exists an E_i ⊇ Q_c, where ⊇ stands for
'subsumes' or 'can be used to derive'"), together with the *remainder
operations* (selection + projection) that derive Q_c's contribution from
E's stored rows.

The algorithm follows the paper's two steps, strengthened with the
range-condition implication engine:

1. **Candidate filtering** through the ``(predicate name, cache element)``
   index, with one-directional matching: every occurrence in E's
   definition must map (injectively, same predicate and arity) onto an
   occurrence of Q.  The index files each element under the constant it
   is anchored to (its pin index), so the lookup first drops the elements
   anchored to a constant Q does not pin where they pin it, and each
   remaining candidate without a match plan kept for Q's shape is held
   against its stored
   :class:`~repro.caql.implication.ContainmentSignature` — conditions
   necessary for any mapping to succeed, decided without enumerating one
   (:func:`find_relevant`, one walk whether or not it shows its working).
2. **Condition checking**: under that occurrence mapping, every condition
   of E must be implied by Q's conditions (E is no more restrictive than
   Q), and every condition of Q over the covered occurrences must be
   either implied by E's conditions or re-applicable on E's projection.
   Both questions go to folds that already exist — the
   :class:`~repro.caql.implication.ConditionSet` each definition's
   canonical form carries — so a probe folds nothing, per candidate or
   per mapping.

Soundness argument for a produced match: E's stored rows are exactly the
projection of all tuples satisfying E's conditions.  Since Q's conditions
imply E's (under the mapping), every tuple combination satisfying Q over
the covered occurrences appears in E; re-applying Q's non-implied covered
conditions (all of whose columns survive E's projection — checked) then
yields exactly the covered component of Q.

Subsumption comes after the exact and canonical lookup tiers: variant
spellings of a cached definition (conjuncts reordered, variables renamed,
bounds respelled) are recognized up front by :mod:`repro.core.canonical`
and served as canonical-key exact hits without entering the search here.
What reaches this module is genuine containment — a strictly more
specific query derivable from a strictly more general element — in three
tiers of its own: the pin index, the signature tests, then
:func:`match_element`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.common.errors import InvariantViolation
from repro.relational.expressions import (
    Col,
    Comparison,
    Lit,
    keep,
    kernel_factory,
    selection_shape,
)
from repro.relational.generator import GeneratorRelation
from repro.relational.operators import (
    entry_rows,
    existence_part,
    project_entries,
)
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.caql.eval import result_schema
from repro.caql.implication import (
    ContainmentProbe,
    ContainmentSignature,
    SignatureRejection,
    column_literal,
)
from repro.caql.psj import (
    ConstProj,
    PSJQuery,
    column,
    parse_column,
    projection_entries,
)
from repro.core.cache import Cache, CacheElement, pin_anchor
from repro.core.canonical import canonicalize


@dataclass(frozen=True)
class SubsumptionMatch:
    """A usable derivation of (part of) a query from one cache element."""

    element: CacheElement
    #: element occurrence tag -> query occurrence tag.
    tag_mapping: tuple[tuple[str, str], ...]
    #: Query occurrence tags covered by this element.
    covered_tags: frozenset[str]
    #: query column -> attribute name in the element's stored relation.
    column_map: tuple[tuple[str, str], ...]
    #: Query conditions to re-apply, rewritten over the element's attributes.
    residual_conditions: tuple[Comparison, ...]
    #: True when the element covers every occurrence of the query.
    is_full: bool
    #: For full matches: the query's projection over element attributes.
    projection: tuple[object, ...] | None = None
    #: With residual conditions: ``(shape, factory, literals)``, the
    #: generated factory of the residual's shape over the stored rows
    #: (kept by the match plan) and this ask's literals in slot order —
    #: the derivations bind these, deriving no shape of their own.
    kernel: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def available(self) -> dict[str, str]:
        """query column -> element attribute, as a dict."""
        return dict(self.column_map)

    def __str__(self) -> str:
        kind = "full" if self.is_full else f"partial({len(self.covered_tags)} occ)"
        return f"{self.element.element_id} ⊇ query [{kind}, {len(self.residual_conditions)} residual]"


def _assignments(
    element_def: PSJQuery, query: PSJQuery
) -> Iterator[dict[str, str]]:
    """All injective mappings of element occurrences onto query occurrences
    with matching predicate and arity."""
    q_by_signature: dict[tuple[str, int], list[str]] = {}
    for occ in query.occurrences:
        q_by_signature.setdefault((occ.pred, occ.arity), []).append(occ.tag)

    e_occurrences = list(element_def.occurrences)

    def backtrack(index: int, used: set[str], acc: dict[str, str]) -> Iterator[dict[str, str]]:
        if index == len(e_occurrences):
            yield dict(acc)
            return
        occ = e_occurrences[index]
        for q_tag in q_by_signature.get((occ.pred, occ.arity), ()):
            if q_tag in used:
                continue
            used.add(q_tag)
            acc[occ.tag] = q_tag
            yield from backtrack(index + 1, used, acc)
            used.discard(q_tag)
            del acc[occ.tag]

    yield from backtrack(0, set(), {})


def _element_columns(element_def: PSJQuery, tag_map: dict[str, str]) -> dict[str, str]:
    """Covered query column -> the element column mapped onto it: the
    inverse of an (injective) occurrence mapping, column by column, through
    which a covered query condition is put to the element's own fold.

    Module-level on purpose: the seam a planted-bug test replaces with a
    mutant that crosses the occurrences of a self-join.
    """
    return {
        column(tag_map[occ.tag], position): column(occ.tag, position)
        for occ in element_def.occurrences
        for position in range(occ.arity)
    }


#: A covered query condition the element neither implies nor keeps the
#: columns of, by mapping and condition.
_REAPPLIED = (
    "[{}] query condition {} must be re-applied but its columns were "
    "projected away by the element"
)


class _MappingPlan:
    """One occurrence mapping of a :class:`MatchPlan`: everything
    :func:`match_element` decides under it without reading a constant."""

    __slots__ = ("text", "conditions", "checks", "kernels", "failure", "fields", "pinned")

    def __init__(self, element_def, query, tag_map, renamed, guarantees, every_tag):
        tag_mapping = tuple(sorted(tag_map.items()))
        self.text = ", ".join(f"{e}->{q}" for e, q in tag_mapping)
        #: The element's conditions renamed onto the query, each with its
        #: normalized ``(column, op, value)`` when it is a literal one.
        self.conditions = tuple((c, column_literal(c)) for c in renamed)
        covered = frozenset(tag_map.values())
        is_full = covered == every_tag
        to_element = _element_columns(element_def, tag_map)
        # Availability: which query columns survive the element's projection.
        available: dict[str, str] = {}
        for index, entry in enumerate(element_def.projection):
            if not isinstance(entry, ConstProj):
                tag, position = parse_column(entry)
                available.setdefault(column(tag_map[tag], position), f"a{index}")
        #: Per covered query condition, in condition order: a literal one as
        #: ``(position, element column, op, residual Col or None, literal
        #: on the left)`` for each ask to put to the element's fold (no
        #: column when the fold bounds none), and a column-column one the
        #: element does not guarantee as its residual.
        checks: list = []
        #: Why every ask fails this mapping once its checks pass, or None.
        self.failure: str | None = None
        for position, condition in enumerate(query.conditions):
            cols = condition.columns()
            inside = [c for c in cols if c in to_element]
            if not inside:
                continue  # entirely about uncovered occurrences
            if len(inside) == len(cols):
                # Entirely covered: skip if the element guarantees it,
                # else re-apply (requires availability).
                literal = column_literal(condition)
                if literal is not None:
                    col, element_col = available.get(literal[0]), to_element[literal[0]]
                    checks.append((
                        position,
                        element_col if guarantees.bounds(element_col) else None,
                        literal[1],
                        None if col is None else Col(col),
                        type(condition.left) is Lit,
                    ))
                elif guarantees.implies(condition.rename_columns(to_element)):
                    continue
                elif all(c in available for c in cols):
                    checks.append(condition.rename_columns({c: available[c] for c in cols}))
                else:
                    self.failure = _REAPPLIED.format(self.text, condition)
                    break
            elif not all(c in available for c in inside):
                # Crosses the boundary: the covered side must be available
                # for the later join against uncovered parts.
                self.failure = (
                    f"[{self.text}] join condition {condition} crosses the coverage "
                    "boundary and its covered columns were projected away by the element"
                )
                break
        self.checks = tuple(checks)
        #: Bitmask of the checks an ask's constants let the element
        #: guarantee -> the ``(shape, factory)`` of the residual left (at
        #: most one per subset of the checks).
        self.kernels: dict[int, tuple] = {}
        # Projection needs over covered occurrences must be available; a
        # full match also keeps the positions an ask pins a constant at.
        projection: list[object] = []
        for entry in query.projection if self.failure is None else ():
            if isinstance(entry, ConstProj):
                projection.append(entry)
            elif entry in to_element:
                if entry not in available:
                    self.failure = (
                        f"[{self.text}] the query projects {entry} but the element "
                        "projected that column away"
                    )
                    break
                projection.append(available[entry])
        #: A match's fields every ask shares (a full match's projection
        #: with the pinned constants of the ask that built the plan).  Not
        #: the element: the plan is kept on it, and must not refer back.
        self.fields = {
            "tag_mapping": tag_mapping,
            "covered_tags": covered,
            "column_map": tuple(sorted(available.items())),
            "is_full": is_full,
            "projection": tuple(projection) if is_full else None,
        }
        self.pinned = is_full and any(isinstance(e, ConstProj) for e in projection)

    def kernel(self, skipped: int, residual: list, element: CacheElement) -> tuple:
        """``(shape, factory)`` of the residual left when the checks in the
        ``skipped`` bitmask are guaranteed, derived from the first such
        residual: the checks fix it, so later ones bind only literals."""
        kernel = self.kernels.get(skipped)
        if kernel is None:
            shape = selection_shape(residual, element.relation.schema)[0]
            kernel = self.kernels[skipped] = (shape, kernel_factory(shape))
        return kernel


class MatchPlan:
    """What :func:`match_element` decides from a stored definition and a
    query's *structure* alone: the occurrence mappings and, per mapping,
    the inverse column map, what the projection keeps, the role of every
    query condition and the parts of a match no constant changes.

    Asks bound from one shape plan (:meth:`repro.caql.eval.ShapePlan.bind`)
    differ only in their constants, so a plan is built once per (element,
    shape) and kept on the element (:func:`_match_plan`); any other query
    gets one of its own.  :meth:`matches` — the one evaluation — reads the
    ask's constants: it puts the element's conditions to the query's fold
    and each covered literal to the element's, and builds each residual
    from the plan's column and the ask's literal.
    """

    __slots__ = ("guarantees", "mappings", "empty")

    def __init__(self, element_def: PSJQuery, query: PSJQuery):
        self.guarantees = canonicalize(element_def).conditions
        self.empty = not element_def.occurrences
        renamed = ContainmentSignature.of(element_def).renamed_conditions
        every_tag = {occ.tag for occ in query.occurrences}
        self.mappings = tuple(
            _MappingPlan(element_def, query, tag_map, renamed(tag_map), self.guarantees, every_tag)
            for tag_map in (() if self.empty else _assignments(element_def, query))
        )

    def matches(
        self, element: CacheElement, query: PSJQuery, reasons: list[str] | None
    ) -> Iterator[SubsumptionMatch]:
        """:func:`match_element` for this ask of the plan's shape."""
        if not self.mappings:
            if reasons is not None:
                reasons.append(
                    "element definition has no relation occurrences"
                    if self.empty
                    else "no injective occurrence mapping: some element occurrence "
                    "has no query occurrence with the same predicate and arity"
                )
            return
        folded = canonicalize(query).conditions
        implies, implies_literal = folded.implies, folded.implies_literal
        guaranteed = self.guarantees.implies_literal
        conditions = query.conditions
        for mapping in self.mappings:
            if mapping.failure is not None and reasons is None:
                continue  # fails whatever the constants
            for condition, literal in mapping.conditions:
                if not (implies_literal(*literal) if literal else implies(condition)):
                    if reasons is not None:
                        reasons.append(
                            f"[{mapping.text}] element condition {condition} is not "
                            "implied by the query (the element is more restrictive)"
                        )
                    break
            else:
                residual: list[Comparison] = []
                literals: list = []
                skipped = 0
                for index, check in enumerate(mapping.checks):
                    if type(check) is Comparison:
                        residual.append(check)
                        continue
                    position, element_col, op, col, flipped = check
                    condition = conditions[position]
                    lit = condition.left if flipped else condition.right
                    if element_col is not None and guaranteed(element_col, op, lit.value):
                        skipped |= 1 << index
                        continue
                    if col is None:
                        if reasons is not None:
                            reasons.append(_REAPPLIED.format(mapping.text, condition))
                        break
                    # The ask's own literal, on the side the query wrote it.
                    residual.append(
                        Comparison(lit, condition.op, col)
                        if flipped
                        else Comparison(col, condition.op, lit)
                    )
                    literals.append(lit.value)
                else:
                    if mapping.failure is not None:
                        reasons.append(mapping.failure)
                        continue
                    # The fields the frozen class's ``__init__`` sets.
                    match = object.__new__(SubsumptionMatch)
                    fields = match.__dict__
                    fields.update(mapping.fields)
                    fields["element"] = element
                    fields["residual_conditions"] = tuple(residual)
                    if residual:  # only this ask's literals are bound
                        fields["kernel"] = (*mapping.kernel(skipped, residual, element), literals)
                    if mapping.pinned:  # the ask's own constants
                        fields["projection"] = tuple(
                            query.projection[i] if isinstance(e, ConstProj) else e
                            for i, e in enumerate(fields["projection"])
                        )
                    yield match


def _match_plan(element: CacheElement, query: PSJQuery) -> MatchPlan:
    """The match plan of ``element`` for ``query``'s shape, built on the
    first ask of the shape and kept on the element (the definition is
    immutable, so the plan never goes stale, and it goes with the
    element); a query no shape plan bound gets one of its own."""
    shape = query.__dict__.get("_shape")
    if shape is None:
        return MatchPlan(element.definition, query)
    plan = element.match_plans.get(shape)
    if plan is None:
        plan = keep(element.match_plans, shape, MatchPlan(element.definition, query))
    return plan


def match_element(
    element: CacheElement,
    query: PSJQuery,
    reasons: list[str] | None = None,
) -> Iterator[SubsumptionMatch]:
    """All ways ``element`` can derive a component of ``query``.

    When ``reasons`` is given, every *failed* candidate mapping appends a
    human-readable rejection reason to it — the raw material for
    ``explain``-style subsumption rationale.  The match search itself is
    unchanged when ``reasons`` is None, and skips the mappings that fail
    whatever the constants.

    Nothing is folded here: both implication questions are put to the
    folds the two definitions' canonical forms carry — element conditions,
    renamed onto the query, to the query's; covered query conditions,
    renamed onto the element, to the element's.  What reads no constant is
    decided once per (element, query shape) in its :class:`MatchPlan`.
    """
    return _match_plan(element, query).matches(element, query, reasons)


@dataclass(frozen=True)
class CandidateReport:
    """Why one cache element did (or did not) subsume part of a query."""

    element_id: str
    view_name: str
    matches: tuple[SubsumptionMatch, ...]
    #: Rejection reasons: one per failed candidate occurrence mapping, or
    #: the single reason a tier before :func:`match_element` turned the
    #: element away (pin index, signature or dropped column).
    rejections: tuple[str, ...]
    #: True when a tier before :func:`match_element` turned the element
    #: away, so :func:`match_element` never ran on it.
    prefiltered: bool = False

    @property
    def matched(self) -> bool:
        return bool(self.matches)


def _turn_away_reason(
    signature: ContainmentSignature,
    probe: ContainmentProbe,
    rejection: SignatureRejection | None,
) -> str:
    """Why the walk turned an element away before :func:`match_element`,
    in that function's vocabulary: the signature's ``rejection``, or with
    None, the dropped-column test (rendered only when a caller collects
    reports)."""
    if rejection is None:
        dropped = ", ".join(col for cols in signature.dropped for _, col in cols)
        return (
            f"element projects away {dropped}, and every query occurrence "
            "it could map onto projects or bounds one of them"
        )
    relation, tag = rejection
    if tag is None:
        absent = {pred for (pred, _), _ in signature.relation_counts} - {
            pred for pred, _ in probe.occurrences
        }
        if absent:
            return (
                "element mentions predicate(s) absent from the "
                f"query: {', '.join(sorted(absent))}"
            )
        pred, arity = relation
        return (
            "no injective occurrence mapping: the element has "
            f"{dict(signature.relation_counts)[relation]} occurrence(s) of "
            f"{pred}/{arity}, the query has "
            f"{len(probe.occurrences.get(relation, ()))}"
        )
    # Name the first condition that failed at the first occurrence tried.
    candidates = probe.occurrences[relation]
    tried = "|".join(q_tag for q_tag, _ in candidates)
    columns = candidates[0][1]
    literal = next(lit for e_tag, _, lit in signature.occurrences if e_tag == tag)
    col, op, value = next(
        (columns[position], op, value)
        for position, op, value in literal
        if not probe.conditions.implies_literal(columns[position], op, value)
    )
    return (
        f"[{tag}->{tried}] element condition {col} {op} {value!r} is not "
        "implied by the query (the element is more restrictive)"
    )


def find_relevant(
    cache: Cache, query: PSJQuery, reports: list[CandidateReport] | None = None
) -> list[SubsumptionMatch]:
    """All subsumption matches from the cache (or the stale archive, which
    answers the same two lookups) for ``query``.

    This is the set of relevant elements R(E_i) of Q (Section 5.3.2); the
    planner chooses among them.  Candidates come from the cache's one
    per-predicate index, narrowed to the elements whose anchor pin
    (:func:`~repro.core.cache.pin_anchor`) the query's own pins could
    imply.  A candidate that keeps a match plan for the query's shape goes
    to it: the plan decides alone.  Any other is tested against its stored
    :class:`~repro.caql.implication.ContainmentSignature` — too few
    occurrences of a relation in the query, or an element occurrence whose
    pins and bounds no query occurrence implies — then turned away if
    every query occurrence it could map onto projects or bounds a column
    the element drops, and only the survivors pay for
    :func:`match_element`'s occurrence-mapping search.  Full matches sort
    first, larger coverage first.

    When ``reports`` is given, the walk also shows its working: one
    :class:`CandidateReport` per element it visited is appended, in visit
    order, holding either its matches or the reason of the tier that
    turned it away — the rationale behind ``cms.explain``, the planner's
    subsumption trace events and :func:`audit_prefilter`.  Collecting
    reports changes neither which elements are visited nor which test
    decides each one.
    """
    probe = ContainmentProbe(query, canonicalize(query).conditions)
    pins = probe.pins()
    shape = query.__dict__.get("_shape")
    seen: set[str] = set()
    matches: list[SubsumptionMatch] = []
    # Walk predicates in query order, not set order: the sort below is
    # stable, so ties between matches keep visit order, and visit order
    # must not depend on per-process string hashing.
    for pred in dict.fromkeys(query.predicates()):
        for element in cache.elements_for_predicate(pred, pins):
            if element.element_id in seen:
                continue
            seen.add(element.element_id)
            # A plan kept for the ask's shape decides alone: each
            # signature test only ever implies "no match"
            # (audit_prefilter proves it), which the plan finds too.
            if (shape is not None and shape in element.match_plans) or (
                (rejection := probe.rejection(element.signature)) is None
                and not probe.drops_bounded(element.signature)
            ):
                if reports is None:
                    matches.extend(match_element(element, query))
                    continue
                reasons: list[str] = []
                found = tuple(match_element(element, query, reasons))
                matches.extend(found)
                report = CandidateReport(element.element_id, element.view_name, found, tuple(reasons))
            elif reports is None:
                continue
            else:
                reason = _turn_away_reason(element.signature, probe, rejection)
                report = CandidateReport(element.element_id, element.view_name, (), (reason,), True)
            reports.append(report)
    matches.sort(key=lambda m: (not m.is_full, -len(m.covered_tags), len(m.residual_conditions)))
    return matches


def _predicate_elements(cache: Cache, query: PSJQuery) -> Iterator[CacheElement]:
    """Every element that shares a predicate with ``query``, once each, in
    walk order — the pin index's survivors and the ones it skips."""
    seen: set[str] = set()
    for pred in dict.fromkeys(query.predicates()):
        for element in cache.elements_for_predicate(pred):
            if element.element_id not in seen:
                seen.add(element.element_id)
                yield element


def audit_prefilter(
    cache: Cache, query: PSJQuery, reports: list[CandidateReport]
) -> None:
    """Prove the :func:`find_relevant` walk that filled ``reports``: every
    element of the query's predicates is matched through a plan built for
    this ask alone.  One the walk never visited (the pin index skipped
    it) or turned away (signature or dropped column) must yield no match.
    One a plan decided — the kept plan was built for another ask of the
    query's shape — must give the same matches and reasons all the same,
    none of them for a candidate the signature tests would turn away, and
    each residual's prepared kernel must be the shape a from-scratch
    compile derives.

    A false reject never changes an answer, only a plan and its cost, so
    no oracle sees it; this is the check that does.  Raises
    :class:`~repro.common.errors.InvariantViolation` on any.  Asked only
    after a walk: a query planned without one has nothing to prove.
    """
    probe = ContainmentProbe(query, canonicalize(query).conditions)
    decided = {report.element_id: report for report in reports}
    for element in _predicate_elements(cache, query):
        report = decided.get(element.element_id)
        reasons: list[str] = []
        fresh = tuple(MatchPlan(element.definition, query).matches(element, query, reasons))
        if report is None or report.prefiltered:
            for match in fresh:
                raise InvariantViolation(
                    f"pin index skipped {element.element_id} for {query.name}, "
                    f"but it matches: {match}"
                    if report is None
                    else f"containment signature rejected {element.element_id} "
                    f"({'; '.join(report.rejections)}) but it matches {query.name}: {match}"
                )
            continue
        if (report.matches, report.rejections) != (fresh, tuple(reasons)):
            raise InvariantViolation(
                f"match plan of {report.element_id} kept for the shape of "
                f"{query.name} is not what one built for this ask gives: "
                f"{report.rejections} vs {reasons}"
            )
        for match in report.matches:
            if match.residual_conditions and (
                match.kernel[0], match.kernel[2]
            ) != selection_shape(match.residual_conditions, element.relation.schema):
                raise InvariantViolation(
                    f"match plan of {report.element_id} prepared a kernel "
                    f"{match.kernel[0]} for {query.name} that is not its residual's"
                )
        if fresh and (
            (rejection := probe.rejection(element.signature)) is not None
            or probe.drops_bounded(element.signature)
        ):
            raise InvariantViolation(
                f"containment signature rejected {report.element_id} "
                f"({_turn_away_reason(element.signature, probe, rejection)}), but "
                f"its kept match plan matches {query.name}: {fresh[0]}"
            )


def ranked(reports: list[CandidateReport]) -> list[CandidateReport]:
    """Reports in presentation order: matched candidates first, then by
    element id (the order ``explain`` and the planner trace show)."""
    return sorted(reports, key=lambda r: (not r.matched, r.element_id))


def explain_candidates(cache: Cache, query: PSJQuery) -> list[CandidateReport]:
    """The subsumption probe with its working shown: :func:`find_relevant`
    run for its per-candidate reports, then every element of the query's
    predicates the pin index skipped, with the anchor it was skipped on,
    in presentation order."""
    reports: list[CandidateReport] = []
    find_relevant(cache, query, reports)
    visited = {report.element_id for report in reports}
    for element in _predicate_elements(cache, query):
        if element.element_id not in visited:
            ((pred, arity), position), value = pin_anchor(element.signature)
            reason = (
                f"pin index: the element pins {pred}/{arity} argument {position} "
                f"to {value!r}, which the query does not pin there"
            )
            reports.append(
                CandidateReport(element.element_id, element.view_name, (), (reason,), True)
            )
    return ranked(reports)


# ---------------------------------------------------------------------------
# remainder derivation
# ---------------------------------------------------------------------------


def derive_full(
    match: SubsumptionMatch, query: PSJQuery, prefiltered: Relation | None = None
) -> Relation:
    """Eagerly derive the whole query result from a full match.

    ``prefiltered`` lets the caller supply element rows already restricted
    by the residual conditions (the index fast path); otherwise the
    residual selection runs here.
    """
    if not match.is_full or match.projection is None:
        raise ValueError("derive_full requires a full match")
    filtered = prefiltered if prefiltered is not None else _residual_rows(match)
    return project_entries(
        filtered,
        projection_entries(match.projection, filtered.schema),
        result_schema(query.name, query.arity),
    )


def derive_full_lazy(match: SubsumptionMatch, query: PSJQuery) -> GeneratorRelation:
    """Lazily derive the whole query result from a full match.

    Legal because all required data is already in the cache — the paper's
    precondition for lazy evaluation.
    """
    if not match.is_full or match.projection is None:
        raise ValueError("derive_full_lazy requires a full match")

    def source() -> Iterator[tuple]:
        stored = match.element.relation  # may itself be a generator
        rows: Iterator[tuple] = iter(stored)
        if match.residual_conditions:
            _shape, make, literals = match.kernel
            rows = filter(make(*literals)[0], rows)
        return entry_rows(rows, projection_entries(match.projection, stored.schema))

    return GeneratorRelation(result_schema(query.name, query.arity), source)


def derive_part(match: SubsumptionMatch, needed_columns: list[str]) -> Relation:
    """Derive a partial match's contribution as a relation whose attributes
    are the *query* column names in ``needed_columns`` (all of which must
    be available from the element); with none needed, the element's
    existence part."""
    available = match.available()
    missing = [c for c in needed_columns if c not in available]
    if missing:
        raise ValueError(f"columns not available from {match.element.element_id}: {missing}")
    filtered = _residual_rows(match)
    label = match.element.element_id
    if not needed_columns:
        return existence_part(filtered, label)
    return project_entries(
        filtered,
        [("col", filtered.schema.position(available[c])) for c in needed_columns],
        Schema(label, tuple(needed_columns)),
    )


def _residual_rows(match: SubsumptionMatch) -> Relation:
    """The element's extension under the match's residual conditions, by
    the kernel its plan prepared.  Selection keeps distinct rows distinct
    and their arity: the result adopts them."""
    source = match.element.extension()
    if not match.residual_conditions:
        return source
    _shape, make, literals = match.kernel
    return Relation.from_distinct_rows(source.schema, make(*literals)[1](source))
