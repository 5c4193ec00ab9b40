"""The single-relation buffering baseline (CERI86 style).

Section 2 / Section 5.3.2: "In [CERI86], cached elements contain only
single relations" — whole base-relation extensions are buffered on the
workstation, and all query processing (selections, joins) runs locally
over those buffers.

Compared with BrAID this reuses data across queries touching the same
relations, but always ships entire relations (no query pushing, no view
caching, no advice).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.common.metrics import (
    CACHE_HITS_EXACT,
    CACHE_MISSES,
    CACHE_TUPLES_PROCESSED,
)
from repro.relational.relation import Relation
from repro.caql.eval import evaluate_psj
from repro.caql.psj import PSJQuery
from repro.baselines.base import BaselineInterface


class SingleRelationBuffer(BaselineInterface):
    """Buffers whole base relations; evaluates queries locally."""

    name = "single-relation-buffer"

    def __init__(self, remote, capacity_bytes: int = 8_000_000):
        super().__init__(remote)
        self.capacity_bytes = capacity_bytes
        self._buffers: OrderedDict[str, Relation] = OrderedDict()

    def _answer_psj(self, psj: PSJQuery) -> Relation:
        result = evaluate_psj(psj, self._relation_of)
        processed = sum(
            len(self._buffers[occ.pred])
            for occ in psj.occurrences
            if occ.pred in self._buffers
        )
        self.metrics.incr(CACHE_TUPLES_PROCESSED, processed + len(result))
        self.clock.charge(
            "local", self.profile.cache_per_tuple * (processed + len(result))
        )
        return result

    #: All query processing here is local work and billed as such — the one
    #: row of an occurrence-free query included, which the other bridges
    #: answer free of charge.
    _answer_constants = _answer_psj

    def _relation_of(self, pred: str) -> Relation:
        buffered = self._buffers.get(pred)
        if buffered is not None:
            self._buffers.move_to_end(pred)
            self.metrics.incr(CACHE_HITS_EXACT)
            return buffered
        self.metrics.incr(CACHE_MISSES)
        relation = self.rdi.fetch_base_relation(pred)
        self._store(pred, relation)
        return relation

    def _store(self, pred: str, relation: Relation) -> None:
        if relation.estimated_bytes() > self.capacity_bytes:
            return
        self._buffers[pred] = relation
        while self.used_bytes() > self.capacity_bytes:
            self._buffers.popitem(last=False)

    def used_bytes(self) -> int:
        """Estimated bytes held by the buffered relations."""
        return sum(r.estimated_bytes() for r in self._buffers.values())
