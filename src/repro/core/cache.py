"""The cache: elements, storage, uses, and replacement.

Section 5.4: the Cache Manager is responsible for "(a) maintaining the
cache as well as storing and replacing cache elements (using an LRU scheme
which may be modified due to advi[c]e); (b) executing queries on cached
data ...; (c) keeping track of resources consumed by the cached data; and
(d) maintaining sufficient historical meta-data to support cache
replacement and accumulate performance measurement statistics."

A **cache element** is "a relation defined by a CAQL expression" (held here
in PSJ form) stored either as an extension or as a generator (Section 5.1).
Elements may serve several named **uses** (Section 5.2's co-existing,
alternative representations): each use may want different indexes, and the
CMS decides whether one stored instance can serve them all.

A CMS keeps one :class:`Cache`, with one ``(predicate name, cache element)``
index (Section 5.3.2); the :class:`StaleArchive` beside it is a bounded FIFO.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.common.clock import SimClock
from repro.common.errors import CacheCapacityError, CacheError, InvariantViolation
from repro.common.metrics import (
    CACHE_EVICTIONS,
    CACHE_INTERMEDIATE_HITS,
    CACHE_INTERMEDIATE_STORES,
    CACHE_SAVED_SECONDS,
    Metrics,
)
from repro.relational.generator import GeneratorRelation
from repro.relational.index import IndexSet
from repro.relational.relation import Relation
from repro.caql.implication import ContainmentSignature, PinSlot
from repro.caql.psj import PSJQuery
from repro.core.canonical import audit_canonical, canonical_key
from repro.core.replacement import GreedyDual

#: How many remote answers the :class:`StaleArchive` keeps (FIFO beyond it).
ARCHIVE_ELEMENTS = 64
#: How many views' semijoin-part records the cache keeps (FIFO beyond it).
SEMIJOIN_VIEWS_KEPT = 64


@dataclass
class CacheElement:
    """One cached view: a PSJ definition plus its stored representation."""

    element_id: str
    definition: PSJQuery
    relation: Relation | GeneratorRelation
    sequence: int = 0  # LRU clock value of the last touch
    use_count: int = 0
    uses: set[str] = field(default_factory=set)
    #: Pins held by executing plans; a pinned element is exempt from
    #: eviction until the plan finishes.
    pin_count: int = 0
    #: Cache epoch at which this element was stored (its store order).
    epoch: int = 0
    #: Advice predicted no further use: first in line for eviction.
    expendable: bool = False
    # -- efficacy ledger (per-element lifetime accounting) ---------------
    #: Simulated time this element was stored / last touched at.
    created_at: float = 0.0
    last_used_at: float = 0.0
    #: Simulated seconds it cost to derive this element (remote fetches,
    #: local derivation) — the price a reuse avoids re-paying.
    derivation_seconds: float = 0.0
    #: Accumulated derivation seconds reuse has saved so far.
    saved_seconds: float = 0.0
    #: What the advice predicted at store time: True = reuse expected,
    #: False = expendable (no reuse expected), None = advice was silent.
    advice_expected_reuse: bool | None = None
    # -- kind, and the reuse predictor ------------------------------------
    #: "view" for whole query results (a fetched or hybrid answer, or a
    #: lazy derived one; an eager derived answer is not stored);
    #: "intermediate" for the remote parts a plan fetched, plain or
    #: semijoin-reduced.
    kind: str = "view"
    #: The operator that produced this element ("remote-fetch",
    #: "semijoin-fetch", "" = view).
    operator: str = ""
    #: Observed uses, 1 per touch (the reuse predictor's measured half;
    #: see ``replacement.value``).
    reuse_frequency: float = 0.0
    #: Advice half of the reuse predictor: 1.0 neutral, raised when advice
    #: expects reuse, zeroed for expendable elements.
    advice_weight: float = 1.0
    _indexes: IndexSet | None = field(default=None, repr=False)
    #: Query shape -> this element's match plan for it
    #: (:func:`repro.core.subsumption._match_plan`), FIFO under
    #: ``SHAPE_BOUND`` like every per-shape table.
    match_plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def signature(self) -> ContainmentSignature:
        """The definition's containment signature: what the subsumption
        walk tests before it tries any occurrence mapping.  Carried by the
        (frozen) definition itself, so it can never describe another one."""
        return ContainmentSignature.of(self.definition)

    @property
    def pinned(self) -> bool:
        """True while at least one executing plan holds a pin."""
        return self.pin_count > 0

    @property
    def is_generator(self) -> bool:
        """True when stored in generator (lazy) form."""
        return isinstance(self.relation, GeneratorRelation)

    @property
    def view_name(self) -> str:
        """The view this element was defined from (advice linkage)."""
        return self.definition.name

    def extension(self) -> Relation:
        """The element as an extension (draining a generator if needed)."""
        return self.relation.to_extension()

    def rows_materialized(self) -> int:
        """Rows computed so far (all of them for an extension)."""
        return self.relation.produced_count

    def estimated_bytes(self) -> int:
        """Size estimate for capacity accounting."""
        return self.relation.estimated_bytes() + 64

    # -- indexing ---------------------------------------------------------------
    def indexes(self) -> IndexSet:
        """The element's index set (promotes a generator to an extension:
        indexing requires the full extension)."""
        extension = self.extension()
        if self._indexes is None:
            self._indexes = IndexSet(extension)
        return self._indexes

    def has_index_on(self, attributes: tuple[str, ...]) -> bool:
        """True when an index on exactly these attributes exists."""
        return self._indexes is not None and self._indexes.get(attributes) is not None


def pin_anchor(signature: ContainmentSignature) -> tuple[PinSlot, object] | None:
    """The slot and constant the pin index files an element under: the
    first ``=`` literal of the first occurrence in its containment
    signature that has one.  None when there is no such literal, or when
    its constant cannot key a bucket — unhashable, or NaN (equal to
    nothing, itself included).

    Taken from the signature, so the index can never rule out what the
    signature would pass: an element pinned to ``c`` at a slot needs a
    query occurrence of that relation whose column there is pinned to a
    value ``== c`` (``holds(v, "=", c)``), and a dict lookup of that value
    is exactly ``==`` on hashable scalars.
    """
    for _tag, relation, literal in signature.occurrences:
        for position, op, value in literal:
            if op != "=":
                continue
            try:
                hash(value)
            except TypeError:
                return None
            if value != value:
                return None
            return (relation, position), value
    return None


def _buckets(by_pin: dict, unpinned: dict, element: CacheElement) -> list[dict[str, None]]:
    """The buckets of the index ``(by_pin, unpinned)`` that ``element``
    belongs in, one per predicate it mentions, created on demand."""
    anchor = pin_anchor(element.signature)
    preds = dict.fromkeys(element.definition.predicates())
    if anchor is None:
        return [unpinned.setdefault(pred, {}) for pred in preds]
    slot, value = anchor
    return [
        by_pin.setdefault(pred, {}).setdefault(slot, {}).setdefault(value, {})
        for pred in preds
    ]


def _in_order(level: object) -> object:
    """A level of the index with every bucket (an id dict) as a list, so
    that comparing two levels compares bucket order too."""
    if not isinstance(level, dict) or not level:
        return level
    if next(iter(level.values())) is None:
        return list(level)
    return {key: _in_order(inner) for key, inner in level.items()}


def _drop(index: dict, path: tuple, element_id: str) -> None:
    """Take ``element_id`` out of the bucket at the end of ``path`` through
    the nested ``index``; every level it empties goes too."""
    key, *rest = path
    if rest:
        _drop(index[key], tuple(rest), element_id)
    else:
        del index[key][element_id]
    if not index[key]:
        del index[key]


def key_of(definition: PSJQuery) -> tuple:
    """The canonical identity the cache and the MQO registry share.

    This is the **canonical lookup tier**: the key comes from
    :func:`repro.core.canonical.canonical_key`, so alpha-equivalent
    spellings — reordered conjuncts, renamed variables,
    foldable intervals (``x>5 ∧ x>3``), respelled constants (``1`` vs
    ``1.0``) — all index the same element and exact-canonical hits
    bypass subsumption scoring entirely.  ``PSJQuery.canonical_key()``
    (the *structural*, order-sensitive key) is what the exact-cache
    baseline keys by; its other caller is the planner's canonical-hit
    test, which tells a variant spelling from the stored one."""
    return canonical_key(definition)


class Cache:
    """Bounded storage of cache elements.

    ``capacity_bytes`` bounds the summed size estimates of all elements;
    eviction runs on insert, in :attr:`replacement`'s GreedyDual order,
    which the CMS points at the running session's advice.  Elements keep
    their efficacy ledger; :mod:`repro.core.cache_model` renders it.
    """

    def __init__(
        self,
        capacity_bytes: int = 4_000_000,
        metrics: Metrics | None = None,
        tracer=None,
        clock=None,
    ):
        if capacity_bytes <= 0:
            raise CacheError("cache capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.metrics = metrics if metrics is not None else Metrics()
        #: Stamps the efficacy ledger's created/last-used times.  A private
        #: clock never advances: timestamps stay 0.0.
        self.clock = clock if clock is not None else SimClock()
        if tracer is None:
            from repro.obs.tracer import Tracer

            tracer = Tracer.disabled()
        self.tracer = tracer
        self._elements: dict[str, CacheElement] = {}
        #: The predicate index, which is also the pin index in front of the
        #: containment signature: predicate -> anchor slot (:func:`pin_anchor`)
        #: -> pinned constant -> element ids in store order (dicts, not
        #: sets: string-hash order would leak into planner tie-breaks).
        #: Buckets key by ``==``: ``1``, ``1.0`` and ``True`` share one.
        self._by_pin: dict[str, dict[PinSlot, dict[object, dict[str, None]]]] = {}
        #: Per predicate, the elements with no anchor, in store order.
        self._unpinned: dict[str, dict[str, None]] = {}
        self._by_key: dict[tuple, str] = {}
        self._clock = itertools.count(1)
        self._ids = itertools.count(1)
        #: The victim order: every live element's GreedyDual priority.
        self.replacement = GreedyDual()
        self.eviction_count = 0
        #: Bumped on every store and discard: an element's ``epoch`` is its
        #: store order.
        self.epoch = 0
        #: Running size total of the extension-backed elements (an
        #: extension never grows once stored).
        self._extension_bytes = 0
        #: Generator-backed elements: their memo can still grow, so
        #: :meth:`used_bytes` reads them fresh.
        self._generators: dict[str, CacheElement] = {}
        #: Per semijoin part name (``<sub-query>#semijoin``), in first-offer
        #: order: whether a stored part of that name has been read since.
        #: :meth:`admit_semijoin` decides from it.
        self._semijoin_views: dict[str, bool] = {}

    # -- storage ---------------------------------------------------------------
    def store(
        self,
        definition: PSJQuery,
        relation: Relation | GeneratorRelation,
        use: str | None = None,
        derivation_seconds: float = 0.0,
        kind: str = "view",
        operator: str = "",
    ) -> CacheElement:
        """Insert a new element (evicting as needed); returns it.

        If an element with the same canonical key (:func:`key_of`) exists,
        it is reused (Section 5.2: "the CMS is able to use a single
        instance of the relation in the cache ... to represent more than
        one of these uses").  ``derivation_seconds`` seeds the efficacy
        ledger of a *newly created* element only — an existing element
        keeps the cost it was actually derived at, and likewise keeps its
        original ``kind`` and ``operator``.
        """
        key = key_of(definition)
        existing_id = self._by_key.get(key)
        if existing_id is not None:
            element = self._elements[existing_id]
            # Not a use: recency moves, the use count and the observed
            # frequency do not.
            element.sequence = next(self._clock)
            if element.derivation_seconds <= 0.0:
                element.derivation_seconds = max(derivation_seconds, 0.0)
            if use:
                element.uses.add(use)
            self.replacement.rekey(element)
            return element

        self.epoch += 1
        now = self.clock.now
        element = CacheElement(
            element_id=f"E{next(self._ids)}",
            definition=definition,
            relation=relation,
            sequence=next(self._clock),
            epoch=self.epoch,
            created_at=now,
            last_used_at=now,
            derivation_seconds=max(derivation_seconds, 0.0),
            kind=kind,
            operator=operator,
        )
        if use:
            element.uses.add(use)
        size = element.estimated_bytes()
        self._make_room(size, exempt={element.element_id})
        self._elements[element.element_id] = element
        self._count_bytes(element, size)
        self.replacement.rekey(element)
        self._by_key[key] = element.element_id
        for bucket in _buckets(self._by_pin, self._unpinned, element):
            bucket[element.element_id] = None
        if kind == "intermediate":
            self.metrics.incr(CACHE_INTERMEDIATE_STORES)
        return element

    def discard(self, element_id: str) -> None:
        """Remove an element and its index entries (no-op if absent).

        A pinned element is in use by an executing plan: discarding it
        raises :class:`CacheError`.
        """
        element = self._elements.get(element_id)
        if element is None:
            return
        if element.pinned:
            raise CacheError(f"discard of {element_id}, which is pinned")
        del self._elements[element_id]
        self.epoch += 1
        self._by_key.pop(key_of(element.definition), None)
        self.replacement.forget(element_id)
        self._unfile_pins(element)
        if self._generators.pop(element_id, None) is None:
            self._extension_bytes -= element.estimated_bytes()

    # -- pin index ---------------------------------------------------------------
    def _unfile_pins(self, element: CacheElement) -> None:
        """Take ``element`` out of the pin index, dropping emptied levels."""
        anchor = pin_anchor(element.signature)
        for pred in dict.fromkeys(element.definition.predicates()):
            if anchor is None:
                _drop(self._unpinned, (pred,), element.element_id)
            else:
                _drop(self._by_pin, (pred, *anchor), element.element_id)

    # -- admission -----------------------------------------------------------------
    def admit_semijoin(self, name: str) -> bool:
        """Whether a semijoin-reduced part named ``name`` earns a store:
        the first one offered under its name does, a later one only once
        an earlier one has been :meth:`read`.  A reduced fetch answers
        one binding set, so a view whose parts no op reads would only pay
        for widening, sizing and, eventually, evicting each of them."""
        read = self._semijoin_views.get(name)
        if read is None:
            self._note_semijoin(name, False)
            return True
        return read

    def _note_semijoin(self, name: str, read: bool) -> None:
        """Record ``name``'s read flag; the oldest name goes beyond
        :data:`SEMIJOIN_VIEWS_KEPT`."""
        views = self._semijoin_views
        if name not in views and len(views) >= SEMIJOIN_VIEWS_KEPT:
            del views[next(iter(views))]
        views[name] = read

    # -- pins ---------------------------------------------------------------------
    def pin(self, element: CacheElement) -> None:
        """Take a reference on ``element``: exempt from eviction (and from
        :meth:`discard`) until the matching :meth:`unpin`."""
        element.pin_count += 1

    def unpin(self, element: CacheElement) -> None:
        """Release one pin."""
        if element.pin_count <= 0:
            raise CacheError(
                f"unpin of {element.element_id} without a matching pin"
            )
        element.pin_count -= 1

    def _make_room(self, incoming_bytes: int, exempt: set[str]) -> None:
        if incoming_bytes > self.capacity_bytes:
            raise CacheCapacityError(
                f"element of ~{incoming_bytes} bytes exceeds cache capacity "
                f"{self.capacity_bytes}"
            )
        # Sized once: the total drops by exactly each victim's bytes.
        used = self.used_bytes()
        while used + incoming_bytes > self.capacity_bytes:
            victim = self._pick_victim(exempt)
            if victim is None:
                raise CacheCapacityError(
                    "cache full and every element is pinned or exempt"
                )
            if victim.pinned:
                raise InvariantViolation(
                    f"eviction chose {victim.element_id}, which is pinned"
                )
            victim_bytes = victim.estimated_bytes()
            self.replacement.evict(victim)
            self.metrics.incr(CACHE_EVICTIONS)
            self.tracer.event(
                "cache.evict",
                element=victim.element_id,
                view=victim.view_name,
                bytes=victim_bytes,
            )
            self.discard(victim.element_id)
            used -= victim_bytes
            self.eviction_count += 1

    def _evictable(self, element: CacheElement, exempt: set[str]) -> bool:
        """Neither pinned nor exempt."""
        return not element.pinned and element.element_id not in exempt

    def _pick_victim(self, exempt: set[str]) -> CacheElement | None:
        """The least ``(class, H, sequence)`` evictable element, or None."""
        return self.replacement.pick(lambda element: self._evictable(element, exempt))

    # -- advice ---------------------------------------------------------------------
    def annotate(self, element: CacheElement, expendable: bool, advised: bool) -> None:
        """Record advice's prediction on an element just stored for a
        query: ``expendable`` when the plan predicted a single use,
        ``advised`` when an advised view defines the query.  Re-keys the
        element: its class or value may have moved."""
        if expendable and element.use_count == 0:
            element.expendable = True
            element.advice_expected_reuse = False
            element.advice_weight = 0.0  # predicted single-use
        elif element.use_count > 0:
            element.expendable = False  # reuse proved the advice wrong
            element.advice_weight = max(element.advice_weight, 1.0)
        elif advised:
            element.advice_expected_reuse = True
            element.advice_weight = 2.0  # advice predicts reuse
        self.replacement.rekey(element)

    # -- lookup -----------------------------------------------------------------
    def touch(self, element: CacheElement) -> None:
        """Record a use: bumps the LRU clock, the use count and the observed
        frequency, and re-keys the element."""
        element.sequence = next(self._clock)
        element.use_count += 1
        element.reuse_frequency += 1.0
        element.last_used_at = self.clock.now
        self.replacement.rekey(element)

    def read(self, element: CacheElement) -> None:
        """Record that an answer was served from ``element``: :meth:`touch`
        it, count ``cache.intermediate_hits`` when it is an intermediate
        (and note a semijoin part's name as read, :meth:`admit_semijoin`),
        and credit the efficacy ledger with its recorded derivation cost —
        what serving from it avoided re-paying.

        Pure bookkeeping — no simulated time is charged, no trace event is
        emitted; the credits add up in
        :data:`~repro.common.metrics.CACHE_SAVED_SECONDS`.
        """
        self.touch(element)
        if element.kind == "intermediate":
            self.metrics.incr(CACHE_INTERMEDIATE_HITS)
            if element.operator == "semijoin-fetch":
                self._note_semijoin(element.view_name, True)
        saved = element.derivation_seconds
        if saved > 0:
            element.saved_seconds += saved
            self.metrics.incr(CACHE_SAVED_SECONDS, saved)

    def lookup_exact(self, definition: PSJQuery) -> CacheElement | None:
        """An element whose definition shares this canonical key.

        The classic exact-match reuse of [SELL87]/[IOAN88] widened by the
        canonical tier: a hit may be a structurally identical definition
        *or* an alpha-equivalent variant spelling of one — either way the
        stored extension answers the query verbatim."""
        element_id = self._by_key.get(key_of(definition))
        if element_id is None:
            return None
        return self._elements[element_id]

    def elements_for_predicate(
        self, pred: str, pins: dict[PinSlot, list[object]] | None = None
    ) -> list[CacheElement]:
        """Step-1 candidate filter: elements whose definition mentions
        ``pred`` (the paper's ``(predicate name, cache element)`` index),
        in element-creation order (deterministic: planner tie-breaks among
        equal subsumption matches depend on it) — every bucket of the
        predicate, merged by store epoch.

        With ``pins`` — per slot, the constants a query pins there — only
        the elements the pin index cannot rule out, still in creation
        order: those anchored at a slot under a constant ``==`` one pinned
        there, and the unanchored ones.  A pin whose lookup raises
        ``TypeError`` (an unhashable constant) turns the filter off."""
        slots = self._by_pin.get(pred, {})
        unpinned = self._unpinned.get(pred)
        found = [unpinned] if unpinned else []
        if pins is None:
            found += [bucket for buckets in slots.values() for bucket in buckets.values()]
        else:
            try:
                for slot, values in pins.items():
                    buckets = slots.get(slot)
                    if buckets:
                        found += [buckets[v] for v in values if v in buckets]
            except TypeError:
                return self.elements_for_predicate(pred)
        if len(found) <= 1:  # one bucket is in store order already
            return [self._elements[i] for bucket in found for i in bucket]
        merged = {i: self._elements[i] for bucket in found for i in bucket}
        return sorted(merged.values(), key=lambda e: e.epoch)

    def elements(self) -> list[CacheElement]:
        """All elements (unordered snapshot)."""
        return list(self._elements.values())

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, element_id: str) -> bool:
        return element_id in self._elements

    # -- accounting ----------------------------------------------------------------
    def used_bytes(self) -> int:
        """Summed size estimates of all elements: the running extension
        total plus a fresh read of each generator."""
        return self._extension_bytes + sum(
            e.estimated_bytes() for e in self._generators.values()
        )

    def _summed_bytes(self) -> int:
        """:meth:`used_bytes` from scratch, for the audit."""
        return sum(e.estimated_bytes() for e in self._elements.values())

    def _count_bytes(self, element: CacheElement, size: int) -> None:
        """Add a newly resident element (``size`` = its estimate now)."""
        if element.is_generator:
            self._generators[element.element_id] = element
        else:
            self._extension_bytes += size

    # -- invariants -----------------------------------------------------------------
    def check_invariants(self) -> None:
        """Audit the cache's internal consistency (cheap, read-only).

        Raises :class:`~repro.common.errors.InvariantViolation` when any
        structural property the implementation must maintain is broken:
        the definition-key bijection, the predicate (pin) index against a
        rebuild from scratch, refcount sanity, each stored relation's own
        audit (set semantics, schema arity, its size memo against a
        recount), the running byte total against a from-scratch sum, the
        victim order (:meth:`GreedyDual.check`), and the semijoin part
        records' bound and shape.  Called from tests and after every
        fuzzer query.
        """
        if self.epoch < 0:
            raise InvariantViolation(f"cache epoch is negative: {self.epoch}")
        for element_id, element in self._elements.items():
            if element.element_id != element_id:
                raise InvariantViolation(
                    f"element stored under {element_id!r} calls itself "
                    f"{element.element_id!r}"
                )
            if element.pin_count < 0:
                raise InvariantViolation(
                    f"{element_id}: negative pin count {element.pin_count}"
                )
            if element.use_count < 0:
                raise InvariantViolation(
                    f"{element_id}: negative use count {element.use_count}"
                )
            # Selections and joins adopt their output unchecked (distinct by
            # construction), and a row mutated in place would skew eviction
            # silently: the relation recounts both, for intermediates no
            # stream audits too.
            element.relation.check_invariants(element_id)
            if element.derivation_seconds < 0 or element.saved_seconds < 0:
                raise InvariantViolation(
                    f"{element_id}: negative efficacy accounting "
                    f"(derivation={element.derivation_seconds}, "
                    f"saved={element.saved_seconds})"
                )
            if element.last_used_at < element.created_at:
                raise InvariantViolation(
                    f"{element_id}: last used at {element.last_used_at} "
                    f"before created at {element.created_at}"
                )
            if element.reuse_frequency < 0:
                raise InvariantViolation(
                    f"{element_id}: negative reuse frequency "
                    f"{element.reuse_frequency}"
                )
            # Recomputed without the form the definition carries (raises
            # when they disagree — on the key, or on the fold the
            # subsumption probe reads), so the index and the probe are
            # checked against what the definition *means*.
            key = audit_canonical(element.definition)
            if self._by_key.get(key) != element_id:
                raise InvariantViolation(
                    f"{element_id} is not reachable through its canonical key"
                )
        if len(self._by_key) != len(self._elements):
            raise InvariantViolation(
                f"key index has {len(self._by_key)} entries for "
                f"{len(self._elements)} elements"
            )
        # The one index against a rebuild from every live element's anchor,
        # bucket order included (``_elements`` iterates in store order): a
        # stale, missing, retired or misplaced entry, or an empty level,
        # differs.
        rebuilt: tuple[dict, dict] = ({}, {})
        for element_id, element in self._elements.items():
            for bucket in _buckets(*rebuilt, element):
                bucket[element_id] = None
        for indexed, fresh in zip((self._by_pin, self._unpinned), rebuilt):
            for key in {**indexed, **fresh}:
                if _in_order(indexed.get(key)) != _in_order(fresh.get(key)):
                    raise InvariantViolation(
                        f"pin index files {indexed.get(key)} under {key!r} but "
                        f"the live elements' anchors give {fresh.get(key)}"
                    )
        used, summed = self.used_bytes(), self._summed_bytes()
        if used != summed:
            raise InvariantViolation(
                f"running byte total gives {used} but the resident elements "
                f"sum to {summed} (a missed adjustment, or an extension grown "
                "in place)"
            )
        self.replacement.check(
            self._elements, lambda element: self._evictable(element, set())
        )
        if len(self._semijoin_views) > SEMIJOIN_VIEWS_KEPT:
            raise InvariantViolation(
                f"{len(self._semijoin_views)} semijoin part records kept, "
                f"over the bound of {SEMIJOIN_VIEWS_KEPT}"
            )
        for name, read in self._semijoin_views.items():
            if not name.endswith("#semijoin") or not isinstance(read, bool):
                raise InvariantViolation(
                    f"semijoin part record {name!r} -> {read!r} is not a "
                    "part name with a read flag"
                )

    def clear(self) -> None:
        """Drop every element and index entry (pins notwithstanding)."""
        self._elements.clear()
        self._by_pin.clear()
        self._unpinned.clear()
        self._by_key.clear()
        self._extension_bytes = 0
        self._generators.clear()
        self.replacement.clear()
        self.epoch += 1


class StaleArchive:
    """Possibly-outdated copies of remote answers, kept for degraded service.

    When the remote DBMS is unreachable and retries are exhausted, the CMS
    would rather answer from an older copy than not at all (the paper's
    bias toward answering from cache whenever possible).  The archive keeps
    the last :data:`ARCHIVE_ELEMENTS` remote-derived results *outside* the
    cache's byte budget — they survive eviction and tiny-cache
    configurations — and answers are tagged degraded because their
    freshness is unknown.

    Not a second cache: a count-bounded FIFO of elements by canonical key
    (:func:`key_of`), with no byte accounting, pin index or
    replacement advice.  Re-storing a key swaps in the fresher relation
    but keeps the first definition and its place in line.  Subsumption
    search asks it what it asks a cache: :meth:`elements_for_predicate`.
    """

    def __init__(self):
        self._elements: dict[tuple, CacheElement] = {}  # oldest first
        self._ids = itertools.count(1)

    def store(self, definition: PSJQuery, relation: Relation) -> None:
        """Record (or refresh) the archived copy of one remote answer."""
        key = key_of(definition)
        element = self._elements.get(key)
        if element is not None:
            # Same definition seen again: keep the freshest copy.
            element.relation = relation
            element._indexes = None
            return
        self._elements[key] = CacheElement(f"E{next(self._ids)}", definition, relation)
        while len(self._elements) > ARCHIVE_ELEMENTS:
            del self._elements[next(iter(self._elements))]

    def __len__(self) -> int:
        return len(self._elements)

    def elements_for_predicate(self, pred: str, pins=None) -> list[CacheElement]:
        """The copies whose definition mentions ``pred``, oldest first
        (``pins`` is ignored: pruning is only an optimisation)."""
        return [e for e in self._elements.values() if pred in e.definition.predicates()]

    def check_invariants(self) -> None:
        """Audit the bound, each copy's canonical key, and each relation."""
        if len(self._elements) > ARCHIVE_ELEMENTS:
            raise InvariantViolation(
                f"stale archive holds {len(self._elements)} copies, bound is {ARCHIVE_ELEMENTS}"
            )
        for key, element in self._elements.items():
            if audit_canonical(element.definition) != key:
                raise InvariantViolation(
                    f"archived {element.element_id} is not reachable through its canonical key"
                )
            element.relation.check_invariants(f"archived {element.element_id}")

    def find_full(self, query: PSJQuery, audit: bool = False):
        """A full subsumption match from the archive, or None.

        With ``audit`` (the CMS passes :attr:`QueryPlanner.audit`), the
        walk is proved as the planner proves its own probes: a false reject
        here would turn a stale answer into a failure.
        """
        from repro.core.subsumption import audit_prefilter, find_relevant

        reports = [] if audit else None
        matches = find_relevant(self, query, reports)
        if audit:
            audit_prefilter(self, query, reports)
        for match in matches:
            if match.is_full:
                return match
        return None
