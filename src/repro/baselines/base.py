"""Common scaffolding for the comparison baselines.

The paper positions BrAID against earlier AI/DB couplings; to compare them
under identical conditions every baseline exposes the same interface as
:class:`~repro.core.cms.CacheManagementSystem` (``begin_session`` +
``query`` + shared metrics/clock), so the same inference engine and the
same workloads run unchanged against any of them.
"""

from __future__ import annotations

from repro.common.clock import CostProfile, SimClock
from repro.common.errors import PlanningError
from repro.common.metrics import IE_CAQL_QUERIES, Metrics
from repro.logic.builtins import BuiltinRegistry
from repro.relational.relation import Relation
from repro.relational.statistics import RelationStatistics
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
from repro.caql.psj import PSJQuery
from repro.core.executor import ResultStream
from repro.core.rdi import RemoteInterface


class BaselineInterface:
    """Shared plumbing: metadata passthrough, second-order handling,
    evaluable residue; subclasses implement :meth:`_answer_psj`."""

    #: Human-readable baseline name (also used in experiment reports).
    name = "baseline"

    def __init__(self, remote: RemoteDBMS, builtins: BuiltinRegistry | None = None):
        self.remote = remote
        self.clock: SimClock = remote.clock
        self.metrics: Metrics = remote.metrics
        self.profile: CostProfile = remote.profile
        self.builtins = builtins if builtins is not None else BuiltinRegistry()
        self.rdi = RemoteInterface(remote)

    # -- session protocol (advice is accepted and ignored) -------------------------
    def begin_session(self, advice: AdviceSet | None = None) -> None:
        """Baselines have no advice machinery; the parameter is accepted so
        the IE's session protocol works unchanged."""

    # -- metadata --------------------------------------------------------------------
    def statistics_of(self, table: str) -> RelationStatistics:
        """Remote statistics lookup (cached by the RDI)."""
        return self.rdi.statistics_of(table)

    # -- queries -----------------------------------------------------------------------
    def query(self, q: CAQLQuery) -> ResultStream:
        """Execute a CAQL query; returns a result stream."""
        if isinstance(q, AggregateQuery):
            base = self.query(q.base).as_relation()
            return ResultStream(evaluate_aggregate(q, base), q.base.name)
        if isinstance(q, SetOfQuery):
            base = self.query(q.base).as_relation()
            return ResultStream(evaluate_setof(q, base), q.base.name)
        if isinstance(q, QuantifiedQuery):
            base = self.query(q.base).as_relation()
            within = (
                self.query(q.within).as_relation() if q.within is not None else None
            )
            return ResultStream(evaluate_quantified(q, base, within), q.base.name)
        if not isinstance(q, ConjunctiveQuery):
            raise PlanningError(f"not a CAQL query: {q!r}")

        self.metrics.incr(IE_CAQL_QUERIES)
        psj, core_vars, evaluable = core_plan(q, self.builtins)
        if not evaluable:
            return ResultStream(self._answer_psj(psj), q.name)

        core_result = self._answer_psj(psj)
        final = apply_evaluable(q, core_vars, evaluable, core_result, self.builtins)
        return ResultStream(final, q.name)

    # -- subclass hook --------------------------------------------------------------------
    def _answer_psj(self, psj: PSJQuery) -> Relation:
        raise NotImplementedError
