"""Common scaffolding for the comparison baselines.

The paper positions BrAID against earlier AI/DB couplings; to compare them
under identical conditions every baseline exposes the same interface as
:class:`~repro.core.cms.CacheManagementSystem` (``begin_session`` +
``query`` + shared metrics/clock), so the same inference engine and the
same workloads run unchanged against any of them.
"""

from __future__ import annotations

from repro.common.clock import CostProfile, SimClock
from repro.common.metrics import IE_CAQL_QUERIES, Metrics
from repro.logic.builtins import BuiltinRegistry
from repro.relational.relation import Relation
from repro.relational.statistics import RelationStatistics
from repro.remote.server import RemoteDBMS
from repro.advice.language import AdviceSet
from repro.caql.ast import CAQLQuery, ConjunctiveQuery
from repro.caql.eval import result_schema
from repro.caql.psj import PSJQuery
from repro.core.cms import answer_caql, conjunctive_result
from repro.core.engine import unit_result
from repro.core.executor import ResultStream
from repro.core.rdi import remote_interface


class BaselineInterface:
    """Shared plumbing: metadata passthrough, the CAQL front door, and the
    two queries no bridge is asked (a contradiction, a query that reads no
    relation); a bridge is its :meth:`_answer_psj` and nothing else."""

    #: Human-readable baseline name (also used in experiment reports).
    name = "baseline"

    def __init__(self, remote: RemoteDBMS):
        self.remote = remote
        self.clock: SimClock = remote.clock
        self.metrics: Metrics = remote.metrics
        self.profile: CostProfile = remote.profile
        self.builtins = BuiltinRegistry()
        self.rdi = remote_interface(remote)

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
        return answer_caql(q, self.query, self._answer_conjunctive)

    def _answer_conjunctive(self, q: ConjunctiveQuery) -> ResultStream:
        self.metrics.incr(IE_CAQL_QUERIES)
        return ResultStream(
            conjunctive_result(q, self.builtins, self._answer_core), q.name
        )

    def _answer_core(self, psj: PSJQuery) -> Relation:
        """``psj`` answered here when normalization already decided it
        (folded to a contradiction: empty; no relation to read: its
        constants), by the bridge otherwise."""
        if psj.unsatisfiable:
            return Relation(result_schema(psj.name, psj.arity))
        if not psj.occurrences:
            return self._answer_constants(psj)
        return self._answer_psj(psj)

    def _answer_constants(self, psj: PSJQuery) -> Relation:
        """An occurrence-free query's one row, free of charge (a bridge
        that bills the workstation for every answer overrides this)."""
        return unit_result(psj)

    # -- subclass hook --------------------------------------------------------------------
    def _answer_psj(self, psj: PSJQuery) -> Relation:
        raise NotImplementedError
