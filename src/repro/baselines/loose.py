"""The loose-coupling baseline (Section 1).

"The loose coupling approach to AI/DB integration uses a simple interface
between the two types of systems ... The relatively low level of
integration results in poor performance and limited use of the DBMS by the
AI system" — e.g. KEE-Connection [ABAR86] and EDUCE [BOCC86].

Every CAQL query is translated and shipped to the remote DBMS; nothing is
cached, nothing is reused, no advice is consulted.
"""

from __future__ import annotations

from repro.common.metrics import CACHE_MISSES
from repro.relational.relation import Relation
from repro.caql.psj import PSJQuery
from repro.baselines.base import BaselineInterface


class LooseCoupling(BaselineInterface):
    """No cache: one remote request per CAQL query."""

    name = "loose-coupling"

    def _answer_psj(self, psj: PSJQuery) -> Relation:
        self.metrics.incr(CACHE_MISSES)
        return self.rdi.fetch(psj)
