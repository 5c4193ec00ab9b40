"""The loose-coupling baseline (Section 1).

"The loose coupling approach to AI/DB integration uses a simple interface
between the two types of systems ... The relatively low level of
integration results in poor performance and limited use of the DBMS by the
AI system" — e.g. KEE-Connection [ABAR86] and EDUCE [BOCC86].

Every CAQL query is translated and shipped to the remote DBMS; nothing is
cached, nothing is reused, no advice is consulted.  A query spanning a
federation's backends is one unreduced request per home backend, joined
on the workstation (E19 measures what that costs).
"""

from __future__ import annotations

from repro.common.metrics import CACHE_MISSES, CACHE_TUPLES_PROCESSED
from repro.relational.relation import Relation
from repro.caql.psj import PSJQuery
from repro.core.engine import combine_parts
from repro.core.plan import home_groups, label_part, sub_query
from repro.baselines.base import BaselineInterface


class LooseCoupling(BaselineInterface):
    """No cache: one remote request per CAQL query and home backend."""

    name = "loose-coupling"

    def _answer_psj(self, psj: PSJQuery) -> Relation:
        self.metrics.incr(CACHE_MISSES)
        homes = home_groups(psj, self.rdi.cost_profile_of)
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
