"""The naive per-backend loose-coupling baseline.

The federation's counterpart of :class:`~repro.baselines.loose.LooseCoupling`:
every query is scattered to its home backends and joined on the
workstation, but with none of BrAID's machinery — no cache, no advice, no
cross-backend semijoin ship-bindings, no short-circuiting, no batching.
Each backend ships its full (selection-filtered) share of every query,
every time.  E19 measures what that costs against the federated CMS.
"""

from __future__ import annotations

from repro.common.metrics import CACHE_MISSES, CACHE_TUPLES_PROCESSED
from repro.logic.builtins import BuiltinRegistry
from repro.relational.relation import Relation
from repro.caql.psj import PSJQuery
from repro.core.engine import combine_parts
from repro.core.plan import label_part, sub_query
from repro.baselines.base import BaselineInterface


class NaiveFederation(BaselineInterface):
    """Loose coupling against a federation: scatter everything, reduce
    nothing."""

    name = "naive-federation"

    def __init__(self, federation):
        self.remote = None  # no single server behind a federation
        self.clock = federation.clock
        self.metrics = federation.metrics
        self.profile = federation.profile
        self.builtins = BuiltinRegistry()
        self.rdi = federation.interface

    def _answer_psj(self, psj: PSJQuery) -> Relation:
        self.metrics.incr(CACHE_MISSES)
        homes: dict[str, list[str]] = {}
        for occ in psj.occurrences:
            homes.setdefault(self.rdi.catalog.home_of(occ.pred), []).append(occ.tag)
        if len(homes) == 1:
            return self.rdi.fetch(psj)
        # One unreduced request per backend, in name order, then one join.
        parts, pushed = [], []
        for backend in sorted(homes):
            sub = sub_query(psj, frozenset(homes[backend]), f"{psj.name}__{backend}")
            parts.append(label_part(self.rdi.fetch(sub), tuple(sub.projection), sub.name))
            pushed.extend(sub.conditions)
        pending = [c for c in psj.conditions if c not in pushed]
        result, touched = combine_parts(parts, pending, psj)
        tuples = touched + len(result)
        if tuples:
            self.metrics.incr(CACHE_TUPLES_PROCESSED, tuples)
            self.clock.charge("local", self.profile.cache_per_tuple * tuples)
        return result
