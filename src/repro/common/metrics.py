"""Cost and event accounting shared by all BrAID components.

The paper measures the goodness of the CMS by "volume of communication
between the workstation and the remote system, computational demands made on
the database server, and computation that needs to be done by the
workstation".  :class:`Metrics` is the single ledger where every component
records those quantities, so experiments can report them directly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator


def format_value(value: float) -> str:
    """Render a counter value: integer-valued floats print as integers
    (counters are floats, so ``1.0`` would otherwise print where ``1`` is
    meant — and large totals would degrade to exponent notation)."""
    if isinstance(value, float):
        if value.is_integer():
            return str(int(value))
        return f"{value:.6g}"
    return str(value)


@dataclass
class Metrics:
    """A hierarchical counter/gauge ledger.

    Counters are named with dotted paths (``"remote.requests"``,
    ``"cache.hits.subsumed"``).  Components only ever increment counters;
    reports aggregate by prefix.  :meth:`gauge_max` keeps high-water marks
    (queue depths) next to the counters.

    A ledger can be subdivided into named child **scopes** (one per server
    session, say): a scope is itself a ``Metrics`` whose increments also
    flow into every ancestor, so the parent always holds the aggregate
    while each scope holds only its own share.  Two components given two
    different scopes can therefore never pollute each other's numbers.
    """

    counters: Counter = field(default_factory=Counter)
    #: Dotted path of this ledger within its registry ("" for a root).
    scope_name: str = ""
    parent: "Metrics | None" = field(default=None, repr=False, compare=False)
    _children: dict[str, "Metrics"] = field(
        default_factory=dict, repr=False, compare=False
    )

    def incr(self, name: str, amount: float = 1) -> None:
        """Increment counter ``name`` by ``amount`` (may be fractional).

        The increment propagates to every ancestor scope, so roots hold
        aggregates over all their scopes.
        """
        self.counters[name] += amount
        if self.parent is not None:
            self.parent.incr(name, amount)

    def gauge_max(self, name: str, value: float) -> None:
        """Keep ``name`` at the maximum value ever reported (a high-water
        gauge).  Ancestors record the maximum over all their scopes."""
        if value > self.counters.get(name, 0):
            self.counters[name] = value
        if self.parent is not None:
            self.parent.gauge_max(name, value)

    # -- scopes --------------------------------------------------------------
    def scope(self, name: str) -> "Metrics":
        """The child scope called ``name`` (created on first use).

        Increments recorded in the child also land in this ledger (and its
        ancestors); the child's own counters cover only its share.
        """
        existing = self._children.get(name)
        if existing is not None:
            return existing
        child = Metrics(
            scope_name=f"{self.scope_name}.{name}" if self.scope_name else name,
            parent=self,
        )
        self._children[name] = child
        return child

    def scopes(self) -> dict[str, "Metrics"]:
        """All direct child scopes, by name."""
        return dict(self._children)

    def drop_scope(self, name: str) -> None:
        """Detach the child scope ``name`` (its past increments remain in
        this ledger's aggregate; future ones no longer propagate here)."""
        child = self._children.pop(name, None)
        if child is not None:
            child.parent = None

    def get(self, name: str) -> float:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self.counters.get(name, 0)

    def by_prefix(self, prefix: str) -> dict[str, float]:
        """All counters whose dotted name starts with ``prefix``.

        A name equal to the prefix matches; the empty prefix matches
        every counter (so ``by_prefix("")`` is the whole ledger, not
        nothing).
        """
        if not prefix:
            return dict(self.counters)
        dotted = prefix if prefix.endswith(".") else prefix + "."
        return {
            name: value
            for name, value in self.counters.items()
            if name == prefix or name.startswith(dotted)
        }

    def snapshot(self) -> dict[str, float]:
        """An immutable copy of all counters, sorted by name."""
        return dict(sorted(self.counters.items()))

    def diff(self, earlier: dict[str, float]) -> dict[str, float]:
        """Counters that changed since ``earlier`` (a prior snapshot).

        A counter that reads lower than in ``earlier`` (or is gone) shows
        up as a negative delta rather than silently as "unchanged".
        """
        out: dict[str, float] = {}
        for name in sorted(set(self.counters) | set(earlier)):
            delta = self.counters.get(name, 0) - earlier.get(name, 0)
            if delta:
                out[name] = delta
        return out

    def __iter__(self) -> Iterator[tuple[str, float]]:
        return iter(sorted(self.counters.items()))

    def check_invariants(self) -> None:
        """Audit the ledger (cheap, read-only, recursive over scopes).

        Raises :class:`~repro.common.errors.InvariantViolation` on any
        negative or non-finite counter, or a child scope whose parent
        pointer does not lead back here.  Counters only ever grow, so
        neither can happen without a bug in the component doing the
        recording.

        Note there is no parent-equals-sum-of-children check: high-water
        gauges (:meth:`gauge_max`) keep the *max* over scopes, and a
        dropped scope leaves its past increments behind, so the aggregate
        is intentionally not a sum.
        """
        import math

        from repro.common.errors import InvariantViolation

        where = self.scope_name or "<root>"
        for name, value in self.counters.items():
            if not math.isfinite(value):
                raise InvariantViolation(
                    f"metrics {where}: counter {name!r} is non-finite ({value})"
                )
            if value < 0:
                raise InvariantViolation(
                    f"metrics {where}: counter {name!r} is negative ({value})"
                )
        for name, child in self._children.items():
            if child.parent is not self:
                raise InvariantViolation(
                    f"metrics {where}: scope {name!r} does not point back "
                    "to its parent"
                )
            child.check_invariants()

    def format(self, prefix: str = "") -> str:
        """Human-readable report, optionally restricted to ``prefix``.

        Values are right-aligned in one column and integer-valued floats
        print as integers, so counters line up regardless of whether a
        fractional increment ever touched them.
        """
        items = self.by_prefix(prefix)
        if not items:
            return "(no metrics)"
        shown = {name: format_value(value) for name, value in items.items()}
        width = max(len(name) for name in items)
        value_width = max(len(text) for text in shown.values())
        return "\n".join(
            f"{name:<{width}}  {shown[name]:>{value_width}}"
            for name in sorted(items)
        )


# Canonical counter names, collected here so components and tests agree.
REMOTE_REQUESTS = "remote.requests"
REMOTE_TUPLES = "remote.tuples_shipped"
REMOTE_SERVER_TUPLES = "remote.server_tuples_touched"
REMOTE_RETRIES = "remote.retries"
REMOTE_TIMEOUTS = "remote.timeouts"
REMOTE_FAULTS_INJECTED = "remote.faults_injected"
REMOTE_DEGRADED_ANSWERS = "remote.degraded_answers"
REMOTE_BREAKER_STATE_CHANGES = "remote.breaker_state_changes"
#: Binding values shipped workstation -> server in semijoin IN-lists.
REMOTE_BINDINGS_SHIPPED = "remote.bindings_shipped"
#: Remote fetches that were semijoin-reduced by a shipped binding set.
REMOTE_SEMIJOIN_REQUESTS = "remote.semijoin_requests"
#: DML requests that shared one round trip with at least one other.
REMOTE_BATCHED_REQUESTS = "remote.batched_requests"
CACHE_HITS_EXACT = "cache.hits.exact"
#: Exact hits served by the canonical tier: the stored definition was an
#: alpha-equivalent variant spelling, not structurally identical.
CACHE_HITS_CANONICAL = "cache.canonical_hits"
CACHE_HITS_SUBSUMED = "cache.hits.subsumed"
CACHE_MISSES = "cache.misses"
CACHE_EVICTIONS = "cache.evictions"
CACHE_PREFETCHES = "cache.prefetches"
CACHE_GENERALIZATIONS = "cache.generalizations"
CACHE_INDEX_BUILDS = "cache.index_builds"
CACHE_TUPLES_PROCESSED = "cache.tuples_processed"
#: Lookups served from an operator-level intermediate element.
CACHE_INTERMEDIATE_HITS = "cache.intermediate_hits"
#: Operator-level intermediates registered at materialization time.
CACHE_INTERMEDIATE_STORES = "cache.intermediate_stores"
IE_INFERENCE_STEPS = "ie.inference_steps"
IE_CAQL_QUERIES = "ie.caql_queries"
LAZY_TUPLES_PRODUCED = "lazy.tuples_produced"
EAGER_TUPLES_PRODUCED = "eager.tuples_produced"
SERVER_SESSIONS_OPENED = "server.sessions_opened"
SERVER_SESSIONS_CLOSED = "server.sessions_closed"
SERVER_REQUESTS_ACCEPTED = "server.requests.accepted"
SERVER_REQUESTS_REJECTED = "server.requests.rejected"
SERVER_REQUESTS_COMPLETED = "server.requests.completed"
SERVER_SCHEDULER_STEPS = "server.scheduler_steps"
#: Remote subplans served from the in-flight MQO registry instead of a
#: second identical round trip (shared multi-query optimization).
SERVER_SHARED_SUBPLANS = "server.shared_subplans"
#: High-water gauges (kept with :meth:`Metrics.gauge_max`).
SERVER_QUEUE_DEPTH_HIGH_WATER = "server.queue_depth_high_water"
#: Simulated derivation seconds cache reuse avoided re-paying (the
#: efficacy ledger's aggregate; per-element shares in
#: :func:`repro.core.cache_model.cache_report`).
CACHE_SAVED_SECONDS = "cache.saved_seconds"
