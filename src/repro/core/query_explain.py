"""Structured EXPLAIN for the CMS: plan + subsumption rationale, no execution.

``cms.explain(query)`` answers the two questions a user of the bridge
keeps asking: *what would the CMS do with this query*, and *why did (or
didn't) the cache help* — without fetching anything, charging any
simulated time beyond planning, storing any result, or perturbing the
advice session's usage statistics.

The planner itself is side-effect free (it reads the cache, the advice,
and cached statistics), so explanation is simply: normalize the query the
same way :meth:`~repro.core.cms.CacheManagementSystem.query` would, ask
the exact tier and plan it on a miss, and run the subsumption probe with
rejection recording
(:func:`~repro.core.subsumption.explain_candidates` — the planner's own
:func:`~repro.core.subsumption.find_relevant` walk, collecting reports).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import PlanningError
from repro.caql.ast import (
    AggregateQuery,
    CAQLQuery,
    ConjunctiveQuery,
    QuantifiedQuery,
    SetOfQuery,
)
from repro.caql.eval import core_plan
from repro.core.cache_model import element_report
from repro.core.subsumption import CandidateReport, explain_candidates


@dataclass(frozen=True)
class PlanExplanation:
    """Everything the planner decided for one query, and why."""

    query_name: str
    strategy: str
    lazy: bool
    cache_result: bool
    expendable: bool
    #: Planner decision notes, verbatim.
    notes: tuple[str, ...]
    #: One line per plan part: ``cache:E3`` or ``remote:view__rest``.
    parts: tuple[str, ...]
    #: Generalized queries the plan would fetch first.
    prefetches: tuple[str, ...]
    estimated_local_cost: float
    estimated_remote_cost: float
    #: Subsumption rationale, one report per candidate cache element.
    candidates: tuple[CandidateReport, ...]
    #: Cache epoch the plan was computed against.
    epoch: int
    #: Efficacy ledger rows (:func:`~repro.core.cache_model.element_report`)
    #: for every cache element the plan would read, in plan-part order.
    element_efficacy: tuple[dict, ...] = ()

    @property
    def served_from_cache(self) -> bool:
        """True when no remote request would be issued."""
        return self.strategy in ("exact", "cache-full", "unit", "unsatisfiable")

    def to_dict(self) -> dict:
        """A JSON-friendly form (for reports and structured logging)."""
        return {
            "query": self.query_name,
            "strategy": self.strategy,
            "lazy": self.lazy,
            "cache_result": self.cache_result,
            "expendable": self.expendable,
            "notes": list(self.notes),
            "parts": list(self.parts),
            "prefetches": list(self.prefetches),
            "estimated_local_cost": self.estimated_local_cost,
            "estimated_remote_cost": self.estimated_remote_cost,
            "epoch": self.epoch,
            "element_efficacy": [dict(row) for row in self.element_efficacy],
            "candidates": [
                {
                    "element": report.element_id,
                    "view": report.view_name,
                    "matched": report.matched,
                    "matches": [str(m) for m in report.matches],
                    "rejections": list(report.rejections),
                }
                for report in self.candidates
            ],
        }

    def lines(self) -> list[str]:
        """A human-readable rendering, one line per list entry."""
        out = [
            f"query {self.query_name}: strategy={self.strategy}"
            f" lazy={self.lazy} cache_result={self.cache_result}"
        ]
        for part in self.parts:
            out.append(f"  part {part}")
        for prefetch in self.prefetches:
            out.append(f"  prefetch {prefetch}")
        for note in self.notes:
            out.append(f"  note: {note}")
        for row in self.element_efficacy:
            line = (
                f"  efficacy {row['element']} ({row['view']}): "
                f"hits={row['hits']} saved={row['saved_seconds']:.3f}s "
                f"derivation={row['derivation_seconds']:.3f}s "
                f"age={row['age_seconds']:.3f}s"
            )
            if row.get("kind") == "intermediate":
                line += f" kind=intermediate op={row.get('operator') or '?'}"
            out.append(line)
        if not self.candidates:
            out.append("  subsumption: no candidate cache elements")
        for report in self.candidates:
            if report.matched:
                out.append(
                    f"  candidate {report.element_id} ({report.view_name}): "
                    f"matched via {report.matches[0]}"
                )
            else:
                out.append(
                    f"  candidate {report.element_id} ({report.view_name}): rejected"
                )
                for reason in report.rejections:
                    out.append(f"    - {reason}")
        return out

    def render(self) -> str:
        return "\n".join(self.lines())


def explain_query(cms, q: CAQLQuery) -> PlanExplanation:
    """Build a :class:`PlanExplanation` for ``q`` against ``cms``.

    Aggregates, set-of, and quantified queries are explained through their
    base conjunctive query (that is the part the cache can serve).
    """
    while isinstance(q, (AggregateQuery, SetOfQuery, QuantifiedQuery)):
        q = q.base
    if not isinstance(q, ConjunctiveQuery):
        raise PlanningError(f"not a CAQL query: {q!r}")

    psj, _core_vars, _evaluable = core_plan(q, cms.builtins)

    if cms.features.caching and cms.features.subsumption:
        candidates = tuple(explain_candidates(cms.cache, psj))
    else:
        candidates = ()
    # The same first question the CMS asks: an exact hit is read as
    # stored, so it has no plan to show.
    hit = cms.planner.exact_hit(psj)
    if hit is not None:
        return PlanExplanation(
            query_name=psj.name,
            strategy="exact",
            lazy=False,
            cache_result=False,
            expendable=False,
            notes=tuple(hit.notes()),
            parts=(),
            prefetches=(),
            estimated_local_cost=0.0,
            estimated_remote_cost=0.0,
            candidates=candidates,
            epoch=cms.cache.epoch,
            element_efficacy=(element_report(cms.cache, hit.element),),
        )

    plan = cms.planner.plan(psj)
    parts = tuple(plan.part_labels())
    if plan.full_match is not None:
        parts = (f"cache:{plan.full_match.element.element_id}",) + parts

    seen_ids: set[str] = set()
    efficacy = []
    for element in plan.cache_elements():
        if element.element_id in seen_ids:
            continue
        seen_ids.add(element.element_id)
        efficacy.append(element_report(cms.cache, element))

    return PlanExplanation(
        query_name=psj.name,
        strategy=plan.strategy,
        lazy=plan.lazy,
        cache_result=plan.cache_result,
        expendable=plan.expendable,
        notes=tuple(plan.notes),
        parts=parts,
        prefetches=tuple(p.name for p in plan.prefetches),
        estimated_local_cost=plan.estimated_local_cost,
        estimated_remote_cost=plan.estimated_remote_cost,
        candidates=candidates,
        epoch=plan.epoch,
        element_efficacy=tuple(efficacy),
    )
