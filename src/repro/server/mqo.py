"""Shared multi-query optimization: the in-flight subplan registry.

Concurrent server sessions frequently ship the *same* remote subplan —
the uncovered remainder of a popular view, a generalized scan — within a
few scheduler steps of each other.  The registry lets the second session
reuse the rows the first one already paid a round trip for, keyed by the
subplan's canonical PSJ definition (:func:`repro.core.cache.key_of`), so
each shared subplan is computed once per burst of concurrent demand.

Soundness rests on the remote data being immutable while the server
runs: the only mutation API is ``RemoteDBMS.load_table``, called during
setup.  The registry is still bounded and transient — a FIFO of the most
recent publications, cleared whenever the server goes idle — because it
is a *concurrency* optimization, not a second cache: durable reuse is
the Cache's job, with eviction, pinning, and epoch invalidation.  Keeping
the registry transient means it never needs any of those mechanisms.

Everything is deterministic: publications land in scheduler order, and
lookups depend only on canonical keys.
"""

from __future__ import annotations

from repro.relational.relation import Relation
from repro.caql.psj import PSJQuery
from repro.core.cache import key_of

#: Bound on the in-flight registry (FIFO beyond it).
MAX_ENTRIES = 64


class SharedSubplanRegistry:
    """A bounded FIFO of recently fetched remote subplans, by definition.

    Only *unreduced* fetches are published (a semijoin-reduced result
    depends on the publishing session's binding values, so it is not the
    subplan's full answer).  The executor enforces that; the registry
    just maps canonical keys to relations.
    """

    def __init__(self):
        #: canonical key -> relation, in publication order (dict order is
        #: the FIFO; Python dicts preserve insertion order).
        self._entries: dict[tuple, Relation] = {}
        #: Lifetime counters, for reports and tests.
        self.publications = 0
        self.hits = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, sub_query: PSJQuery) -> Relation | None:
        """The in-flight result for a structurally identical subplan."""
        relation = self._entries.get(key_of(sub_query))
        if relation is not None:
            self.hits += 1
        return relation

    def publish(self, sub_query: PSJQuery, relation: Relation) -> None:
        """Record one unreduced fetch result, evicting the oldest entry
        beyond the bound.  Re-publishing a key refreshes its rows without
        changing its FIFO position (the data is immutable anyway)."""
        key = key_of(sub_query)
        if key not in self._entries and len(self._entries) >= MAX_ENTRIES:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
        self._entries[key] = relation
        self.publications += 1

    def clear(self) -> None:
        """Drop every entry (the server went idle: the burst is over)."""
        self._entries.clear()

    def check_invariants(self) -> None:
        """Audit the registry (cheap, read-only): the FIFO bound holds and
        every entry is a materialized relation."""
        from repro.common.errors import InvariantViolation

        if len(self._entries) > MAX_ENTRIES:
            raise InvariantViolation(
                f"subplan registry holds {len(self._entries)} entries, "
                f"bound is {MAX_ENTRIES}"
            )
        for key, relation in self._entries.items():
            if not isinstance(relation, Relation):
                raise InvariantViolation(
                    f"subplan registry entry {key!r} is not a Relation"
                )
