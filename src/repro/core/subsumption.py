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
   remaining candidate is held against its stored
   :class:`~repro.caql.implication.ContainmentSignature` — conditions
   necessary for any mapping to succeed, decided without enumerating one
   (:func:`find_relevant`).
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
specific query derivable from a strictly more general element — in two
tiers of its own: the signature test, then :func:`match_element`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.common.errors import InvariantViolation
from repro.relational.expressions import Comparison
from repro.relational.generator import GeneratorRelation
from repro.relational.operators import (
    entry_rows,
    existence_part,
    project_entries,
    select,
    select_iter,
)
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.caql.eval import result_schema
from repro.caql.implication import (
    ContainmentProbe,
    ContainmentSignature,
    SignatureRejection,
)
from repro.caql.psj import (
    ConstProj,
    PSJQuery,
    column,
    parse_column,
    projection_entries,
)
from repro.core.cache import Cache, CacheElement
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


def match_element(
    element: CacheElement,
    query: PSJQuery,
    reasons: list[str] | None = None,
) -> Iterator[SubsumptionMatch]:
    """All ways ``element`` can derive a component of ``query``.

    When ``reasons`` is given, every *failed* candidate mapping appends a
    human-readable rejection reason to it — the raw material for
    ``explain``-style subsumption rationale.  The match search itself is
    unchanged (and pays nothing) when ``reasons`` is None.

    Nothing is folded here: both implication questions are put to the
    folds the two definitions' canonical forms carry — element conditions,
    renamed onto the query, to the query's; covered query conditions,
    renamed onto the element, to the element's.
    """
    element_def = element.definition
    if not element_def.occurrences:
        if reasons is not None:
            reasons.append("element definition has no relation occurrences")
        return
    query_conditions = canonicalize(query).conditions
    element_guarantees = canonicalize(element_def).conditions

    found_assignment = False
    for tag_map in _assignments(element_def, query):
        found_assignment = True
        mapping_text = (
            ", ".join(f"{e}->{q}" for e, q in sorted(tag_map.items()))
            if reasons is not None
            else ""
        )
        renamed = element.signature.renamed_conditions(tag_map)
        not_implied = [c for c in renamed if not query_conditions.implies(c)]
        if not_implied:
            if reasons is not None:
                reasons.append(
                    f"[{mapping_text}] element condition {not_implied[0]} is not "
                    "implied by the query (the element is more restrictive)"
                )
            continue

        covered = frozenset(tag_map.values())
        to_element = _element_columns(element_def, tag_map)

        # Availability: which query columns survive the element's projection.
        available: dict[str, str] = {}
        for index, entry in enumerate(element_def.projection):
            if isinstance(entry, ConstProj):
                continue
            tag, position = parse_column(entry)
            q_col = column(tag_map[tag], position)
            available.setdefault(q_col, f"a{index}")

        # Classify query conditions over the covered occurrences.
        residual: list[Comparison] = []
        feasible = True
        for condition in query.conditions:
            cols = condition.columns()
            if not cols:
                continue
            inside = [c for c in cols if c in to_element]
            if not inside:
                continue  # entirely about uncovered occurrences
            if len(inside) == len(cols):
                # Entirely covered: skip if the element guarantees it,
                # else re-apply (requires availability).
                if element_guarantees.implies(condition.rename_columns(to_element)):
                    continue
                if not all(c in available for c in cols):
                    feasible = False
                    if reasons is not None:
                        reasons.append(
                            f"[{mapping_text}] query condition {condition} must be "
                            "re-applied but its columns were projected away by "
                            "the element"
                        )
                    break
                residual.append(
                    condition.rename_columns({c: available[c] for c in cols})
                )
            else:
                # Crosses the boundary: the covered side must be available
                # for the later join against uncovered parts.
                if not all(c in available for c in inside):
                    feasible = False
                    if reasons is not None:
                        reasons.append(
                            f"[{mapping_text}] join condition {condition} crosses "
                            "the coverage boundary and its covered columns were "
                            "projected away by the element"
                        )
                    break
        if not feasible:
            continue

        # Projection needs over covered occurrences must be available.
        is_full = covered == {occ.tag for occ in query.occurrences}
        projection: list[object] | None = [] if is_full else None
        for entry in query.projection:
            if isinstance(entry, ConstProj):
                if is_full:
                    projection.append(entry)
                continue
            if entry in to_element:
                if entry not in available:
                    feasible = False
                    if reasons is not None:
                        reasons.append(
                            f"[{mapping_text}] the query projects {entry} but "
                            "the element projected that column away"
                        )
                    break
                if is_full:
                    projection.append(available[entry])
            elif is_full:  # pragma: no cover - full covers everything
                feasible = False
                break
        if not feasible:
            continue

        yield SubsumptionMatch(
            element=element,
            tag_mapping=tuple(sorted(tag_map.items())),
            covered_tags=covered,
            column_map=tuple(sorted(available.items())),
            residual_conditions=tuple(residual),
            is_full=is_full,
            projection=tuple(projection) if projection is not None else None,
        )

    if not found_assignment and reasons is not None:
        reasons.append(
            "no injective occurrence mapping: some element occurrence has no "
            "query occurrence with the same predicate and arity"
        )


@dataclass(frozen=True)
class CandidateReport:
    """Why one cache element did (or did not) subsume part of a query."""

    element_id: str
    view_name: str
    matches: tuple[SubsumptionMatch, ...]
    #: Rejection reasons: one per failed candidate occurrence mapping, or
    #: the single reason the containment signature ruled the element out.
    rejections: tuple[str, ...]
    #: True when the containment signature rejected the element, so
    #: :func:`match_element` never ran on it.
    prefiltered: bool = False

    @property
    def matched(self) -> bool:
        return bool(self.matches)


def _signature_reason(
    signature: ContainmentSignature,
    probe: ContainmentProbe,
    rejection: SignatureRejection,
) -> str:
    """A signature rejection in the vocabulary of :func:`match_element`'s
    own reasons (rendered only when a caller collects reports)."""
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
    imply; each is then tested against its stored
    :class:`~repro.caql.implication.ContainmentSignature` — too few
    occurrences of a relation in the query, or an element occurrence whose
    pins and bounds no query occurrence implies — and only the survivors
    pay for :func:`match_element`'s occurrence-mapping search.  Full matches
    sort first, larger coverage first.

    When ``reports`` is given, the walk also shows its working: one
    :class:`CandidateReport` per element the predicate index lists is
    appended, in visit order, holding either its matches or the reason it
    was rejected (by the signature, or per occurrence mapping) — the
    rationale behind ``cms.explain`` and the planner's subsumption trace
    events.  An element the pin index skipped is rejected by the signature
    too, or :class:`~repro.common.errors.InvariantViolation` is raised.
    The returned matches are the same either way, and the plain query path
    (``reports`` None) visits the pin index's survivors only.
    """
    probe = ContainmentProbe(query, canonicalize(query).conditions)
    pins = probe.pins()
    seen: set[str] = set()
    matches: list[SubsumptionMatch] = []
    # Walk predicates in query order, not set order: the sort below is
    # stable, so ties between matches keep visit order, and visit order
    # must not depend on per-process string hashing.
    for pred in dict.fromkeys(query.predicates()):
        if reports is None:
            candidates = cache.elements_for_predicate(pred, pins)
            survivors = None
        else:
            candidates = cache.elements_for_predicate(pred)
            survivors = {
                e.element_id for e in cache.elements_for_predicate(pred, pins)
            }
        for element in candidates:
            if element.element_id in seen:
                continue
            seen.add(element.element_id)
            reasons: list[str] | None = None if reports is None else []
            rejection = probe.rejection(element.signature)
            if (
                rejection is None
                and survivors is not None
                and element.element_id not in survivors
            ):
                raise InvariantViolation(
                    f"pin index skipped {element.element_id} for "
                    f"{query.name}, but its containment signature passes it"
                )
            if rejection is not None:
                found: tuple[SubsumptionMatch, ...] = ()
                if reasons is not None:
                    reasons.append(
                        _signature_reason(element.signature, probe, rejection)
                    )
            else:
                found = tuple(match_element(element, query, reasons))
                matches.extend(found)
            if reports is not None:
                reports.append(
                    CandidateReport(
                        element_id=element.element_id,
                        view_name=element.definition.name,
                        matches=found,
                        rejections=tuple(reasons),
                        prefiltered=rejection is not None,
                    )
                )
    matches.sort(key=lambda m: (not m.is_full, -len(m.covered_tags), len(m.residual_conditions)))
    return matches


def audit_prefilter(
    cache: Cache, query: PSJQuery, reports: list[CandidateReport]
) -> None:
    """Re-run the full test on every candidate the signature rejected —
    the ones the pin index never enumerated included, so this also proves
    "not enumerated ⇒ no match".

    A false reject never changes an answer, only a plan and its cost, so
    no oracle sees it; this is the check that does.  Raises
    :class:`~repro.common.errors.InvariantViolation` when a rejected
    element matches after all.
    """
    for report in reports:
        element = cache.get(report.element_id) if report.prefiltered else None
        if element is None:
            continue
        for match in match_element(element, query):
            raise InvariantViolation(
                f"containment signature rejected {report.element_id} "
                f"({'; '.join(report.rejections)}) but it matches "
                f"{query.name}: {match}"
            )


def ranked(reports: list[CandidateReport]) -> list[CandidateReport]:
    """Reports in presentation order: matched candidates first, then by
    element id (the order ``explain`` and the planner trace show)."""
    return sorted(reports, key=lambda r: (not r.matched, r.element_id))


def explain_candidates(cache: Cache, query: PSJQuery) -> list[CandidateReport]:
    """The subsumption probe with its working shown: :func:`find_relevant`
    run for its per-candidate reports, in presentation order."""
    reports: list[CandidateReport] = []
    find_relevant(cache, query, reports)
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
            rows = select_iter(rows, stored.schema, list(match.residual_conditions))
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
    """The element's extension under the match's residual conditions."""
    source = match.element.extension()
    if not match.residual_conditions:
        return source
    return select(source, list(match.residual_conditions))
