"""The exact-match result-caching baseline (BERMUDA style).

Section 2: "the use of buffering and caching has been limited to query
results (treated as an irreducible unit) and the data is reused only if an
exact match of a later query occurs" — the reuse model of [IOAN88]
(BERMUDA) and [SELL87], which BrAID's subsumption generalizes.

Results are cached whole, keyed by the query's canonical structure, and
replaced LRU; a query that is not an exact structural repeat goes to the
remote DBMS even if cached data could derive it.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.common.metrics import CACHE_HITS_EXACT, CACHE_MISSES
from repro.relational.relation import Relation
from repro.caql.psj import PSJQuery
from repro.baselines.base import BaselineInterface


class ExactMatchCache(BaselineInterface):
    """Whole-result caching with exact-match reuse and LRU replacement."""

    name = "exact-match-cache"

    def __init__(self, remote, capacity_bytes: int = 4_000_000):
        super().__init__(remote)
        self.capacity_bytes = capacity_bytes
        self._results: OrderedDict[tuple, Relation] = OrderedDict()

    def _answer_psj(self, psj: PSJQuery) -> Relation:
        key = psj.canonical_key()
        cached = self._results.get(key)
        if cached is not None:
            self._results.move_to_end(key)
            self.metrics.incr(CACHE_HITS_EXACT)
            self.clock.charge("local", self.profile.cache_per_tuple * len(cached))
            return cached

        self.metrics.incr(CACHE_MISSES)
        result = self.rdi.fetch(psj)
        self._store(key, result)
        return result

    def _store(self, key: tuple, result: Relation) -> None:
        size = result.estimated_bytes()
        if size > self.capacity_bytes:
            return
        self._results[key] = result
        while self.used_bytes() > self.capacity_bytes:
            self._results.popitem(last=False)  # least recently used

    def used_bytes(self) -> int:
        """Estimated bytes held by cached results."""
        return sum(r.estimated_bytes() for r in self._results.values())
