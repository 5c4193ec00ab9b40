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

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.common.clock import SimClock
from repro.common.errors import CacheCapacityError, CacheError, InvariantViolation
from repro.common.metrics import (
    CACHE_EVICTIONS,
    CACHE_INTERMEDIATE_HITS,
    CACHE_INTERMEDIATE_STORES,
    CACHE_PIN_DEFERRALS,
    CACHE_SAVED_SECONDS,
    H_EVICTED_ELEMENT_BYTES,
    Metrics,
)
from repro.relational.generator import GeneratorRelation
from repro.relational.index import IndexSet
from repro.relational.relation import Relation
from repro.caql.implication import ContainmentSignature, PinSlot
from repro.caql.psj import PSJQuery
from repro.core.canonical import audit_canonical, canonical_key

#: Scores an element's eviction priority; higher = evict sooner.
EvictionScorer = Callable[["CacheElement"], float]
#: Answers whether the installed scorer is bounded by
#: :meth:`Cache.cost_bound` right now (see :meth:`Cache.install_scorer`).
BoundTest = Callable[[], bool]

#: Half-life, in simulated seconds, of the observed-reuse signal: an
#: element's hit frequency halves for every such interval it sits idle.
REUSE_HALF_LIFE = 30.0
#: Scale of the cost-based value term relative to the LRU sequence.  Large
#: enough that any nonzero value dominates recency deltas, small enough to
#: stay below the advice manager's 1e12 path-expression offsets (advice
#: "needed next" / "never needed" verdicts still override cost).
VALUE_WEIGHT = 1e9
#: Fraction of a reuse event credited to each derivation-ancestor level:
#: a hit on a derived element warms its parents at this share, its
#: grandparents at the share squared, and so on (see ``touch``).
ANCESTOR_SHARE = 0.5
#: How many remote answers the :class:`StaleArchive` keeps (FIFO beyond it).
ARCHIVE_ELEMENTS = 64
#: What advice adds to the score of an element it marked single-use
#: (:attr:`CacheElement.expendable`): one value weight, below the 1e12
#: path-expression offsets.
EXPENDABLE_OFFSET = 1e9


def always_bounded() -> bool:
    """The bound test of a scorer :meth:`Cache.cost_bound` always bounds."""
    return True


@dataclass
class CacheElement:
    """One cached view: a PSJ definition plus its stored representation."""

    element_id: str
    definition: PSJQuery
    relation: Relation | GeneratorRelation
    sequence: int = 0  # LRU clock value of the last touch
    use_count: int = 0
    uses: set[str] = field(default_factory=set)
    #: Active pins (in-flight uses); a pinned element is exempt from
    #: eviction and its reclamation is deferred until the last unpin.
    pin_count: int = 0
    #: Cache epoch at which this element was stored (staleness tag).
    epoch: int = 0
    #: Logically discarded while pinned: invisible to lookups, reclaimed
    #: for real when the last pin is released.
    condemned: bool = False
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
    # -- derivation lineage (operator-level intermediates) ----------------
    #: "view" for advised views / whole query results; "intermediate" for
    #: operator-level results registered during execution (remote parts,
    #: select-project subsets, semijoin-reduced fetches).
    kind: str = "view"
    #: Element ids of the inputs this element was derived from (empty for
    #: base fetches).  Lineage is advisory metadata: a parent may be
    #: evicted before its children — the child's stored relation is
    #: self-contained — but never while a descendant is pinned.
    parents: tuple[str, ...] = ()
    #: The operator that produced this element ("remote-fetch",
    #: "select-project", "semijoin-fetch", "" = view).
    operator: str = ""
    #: Longest parent chain below this element (0 for roots).
    depth: int = 0
    #: Exponentially decayed observed hit frequency (the reuse predictor's
    #: measured half; see ``Cache.cost_scorer``).
    reuse_frequency: float = 0.0
    #: Advice half of the reuse predictor: 1.0 neutral, raised when advice
    #: expects reuse, zeroed for expendable elements.
    advice_weight: float = 1.0
    _indexes: IndexSet | None = field(default=None, repr=False)

    @property
    def signature(self) -> ContainmentSignature:
        """The definition's containment signature: what the subsumption
        walk tests before it tries any occurrence mapping.  Carried by the
        (frozen) definition itself, so it can never describe another one."""
        return ContainmentSignature.of(self.definition)

    @property
    def pinned(self) -> bool:
        """True while at least one in-flight use holds a pin."""
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


def lru_scorer(element: CacheElement) -> float:
    """Plain LRU: the least recently touched element scores highest."""
    return -float(element.sequence)


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


def _beats(
    score: float, element: CacheElement, best_score: float, best: CacheElement | None
) -> bool:
    """``max``'s order over store order: a higher score, or an equal score
    stored earlier (a smaller epoch), takes the place of the best so far."""
    return best is None or score > best_score or (
        score == best_score and element.epoch < best.epoch
    )


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
    """Bounded storage of cache elements with pluggable replacement.

    ``capacity_bytes`` bounds the summed size estimates of all elements;
    eviction runs on insert.  The eviction scorer is cost-based by default
    and is replaced by the Advice Manager with an advice-modified scorer
    when a path expression is being tracked.  Elements keep their efficacy
    ledger; :mod:`repro.core.cache_model` renders it.
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
        #: Stamps the efficacy ledger's created/last-used times and ages and
        #: decays reuse.  A private clock never advances: timestamps stay
        #: 0.0 and nothing decays.
        self.clock = clock if clock is not None else SimClock()
        if tracer is None:
            from repro.obs.tracer import Tracer

            tracer = Tracer.disabled()
        self.tracer = tracer
        self._elements: dict[str, CacheElement] = {}
        #: Discarded-while-pinned elements: logically gone (no lookups),
        #: physically resident until the last pin is released.
        self._condemned: dict[str, CacheElement] = {}
        #: The predicate index, which is also the pin index in front of the
        #: containment signature: predicate -> anchor slot (:func:`pin_anchor`)
        #: -> pinned constant -> element ids in store order (dicts, not
        #: sets: string-hash order would leak into planner tie-breaks).
        #: Buckets key by ``==``: ``1``, ``1.0`` and ``True`` share one.
        self._by_pin: dict[str, dict[PinSlot, dict[object, dict[str, None]]]] = {}
        #: Per predicate, the elements with no anchor, in store order.
        self._unpinned: dict[str, dict[str, None]] = {}
        self._by_key: dict[tuple, str] = {}
        #: Derivation DAG, parent id -> child ids in insertion order (an
        #: inner dict, not a set, for the same determinism reason as the
        #: predicate index).  Only live parent/child pairs are kept.
        self._children: dict[str, dict[str, None]] = {}
        self._clock = itertools.count(1)
        self._ids = itertools.count(1)
        #: Cost-based by default (see :meth:`cost_scorer`); the Advice
        #: Manager layers path-expression offsets on top of it, and tests
        #: may install plain :func:`lru_scorer` or a custom one.
        self.scorer: EvictionScorer = self.cost_scorer
        #: The scorer :meth:`install_scorer` vouched for, and its bound test:
        #: any other scorer (one assigned to :attr:`scorer` directly) is
        #: picked for by the full scan.
        self._bounded: tuple[EvictionScorer, BoundTest | None] = (
            self.scorer,
            always_bounded,
        )
        #: The victim heap over the live extension-backed elements: entries
        #: ``[-cost_bound, epoch, element_id]``, largest bound first, ties in
        #: store order.  Keys may be stale but never below the element's
        #: bound (see :meth:`_pick_victim`).
        self._heap: list[list] = []
        #: Each live extension-backed element's current heap entry; any other
        #: entry in the heap is dead (retired or superseded).
        self._heap_entry: dict[str, list] = {}
        self.eviction_count = 0
        #: Bumped on every store/discard; plans tagged with an older epoch
        #: must re-validate their matched elements before executing.
        self.epoch = 0
        #: Elements whose storage was actually released — immediately for
        #: unpinned discards, on the last unpin for condemned ones; each
        #: element counts exactly once.
        self.reclaim_count = 0
        #: Running size total of the extension-backed resident elements,
        #: live and condemned (an extension never grows once stored).
        self._extension_bytes = 0
        #: Generator-backed resident elements, live and condemned: their
        #: memo can still grow, so :meth:`used_bytes` reads them fresh.
        self._generators: dict[str, CacheElement] = {}

    # -- storage ---------------------------------------------------------------
    def store(
        self,
        definition: PSJQuery,
        relation: Relation | GeneratorRelation,
        use: str | None = None,
        derivation_seconds: float = 0.0,
        kind: str = "view",
        parents: tuple[str, ...] = (),
        operator: str = "",
    ) -> CacheElement:
        """Insert a new element (evicting as needed); returns it.

        If an element with a structurally identical definition exists, it
        is reused (Section 5.2: "the CMS is able to use a single instance
        of the relation in the cache ... to represent more than one of
        these uses").  ``derivation_seconds`` seeds the efficacy ledger of
        a *newly created* element only — an existing element keeps the
        cost it was actually derived at, and likewise keeps its original
        kind and lineage.

        ``kind``/``parents``/``operator`` record derivation lineage for
        operator-level intermediates: ``parents`` are ids of live elements
        this one was computed from (ids of already-retired elements are
        dropped — the DAG only ever points at live ancestors, which also
        makes cycles impossible by construction).
        """
        key = key_of(definition)
        existing_id = self._by_key.get(key)
        if existing_id is not None:
            element = self._elements[existing_id]
            self.touch(element)
            if kind == "view" and element.kind == "intermediate":
                # A named view now backs this definition (a whole-ship
                # fetch is registered before the CMS stores its answer):
                # promote it so view-level policies — advice path-distance
                # offsets name whole views — apply.  The alpha-equivalent
                # view definition replaces the internal one (same
                # canonical key, but the *view's* name is what path
                # expressions track).  Lineage is kept.
                element.kind = "view"
                self._redefine(element, definition)
            if element.derivation_seconds <= 0.0:
                element.derivation_seconds = max(derivation_seconds, 0.0)
            if use:
                element.uses.add(use)
            return element

        self.epoch += 1
        now = self.clock.now
        live_parents = [
            p for p in dict.fromkeys(parents) if p in self._elements
        ]
        depth = (
            1 + max(self._elements[p].depth for p in live_parents)
            if live_parents
            else 0
        )
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
            parents=tuple(live_parents),
            operator=operator,
            depth=depth,
        )
        if use:
            element.uses.add(use)
        size = element.estimated_bytes()
        self._make_room(size, exempt={element.element_id})
        # Making room may itself have evicted a parent: lineage only ever
        # points at elements that are live at registration time.
        element.parents = tuple(
            p for p in element.parents if p in self._elements
        )
        self._elements[element.element_id] = element
        self._count_bytes(element, size)
        if not element.is_generator:
            self._file(element)
        self._by_key[key] = element.element_id
        for bucket in _buckets(self._by_pin, self._unpinned, element):
            bucket[element.element_id] = None
        for parent_id in element.parents:
            self._children.setdefault(parent_id, {})[element.element_id] = None
        if kind == "intermediate":
            self.metrics.incr(CACHE_INTERMEDIATE_STORES)
        return element

    def discard(self, element_id: str) -> None:
        """Remove an element and its index entries (no-op if absent).

        A pinned element is *condemned* instead: it disappears from every
        lookup structure immediately (new queries cannot find it) but its
        storage stays accounted until the last pin is released, at which
        point it is reclaimed exactly once.
        """
        element = self._elements.pop(element_id, None)
        if element is None:
            return
        self.epoch += 1
        self._by_key.pop(key_of(element.definition), None)
        self._heap_entry.pop(element_id, None)
        self._unfile_pins(element)
        # Prune the derivation DAG: the element's own fan-out entry, and
        # its slot in each live parent's children list.  Children keep a
        # stale id in ``parents`` (harmless: every walk checks liveness).
        self._children.pop(element_id, None)
        for parent_id in element.parents:
            members = self._children.get(parent_id)
            if members is not None:
                members.pop(element_id, None)
                if not members:
                    del self._children[parent_id]
        if element.pin_count > 0:
            element.condemned = True
            self._condemned[element_id] = element
            self.metrics.incr(CACHE_PIN_DEFERRALS)
        else:
            self._reclaim(element)

    def _reclaim(self, element: CacheElement) -> None:
        """Release a retired element's storage (exactly once per element)."""
        self.reclaim_count += 1
        self._uncount_bytes(element)

    # -- pin index ---------------------------------------------------------------
    def _unfile_pins(self, element: CacheElement) -> None:
        """Take ``element`` out of the pin index, dropping emptied levels."""
        anchor = pin_anchor(element.signature)
        for pred in dict.fromkeys(element.definition.predicates()):
            if anchor is None:
                _drop(self._unpinned, (pred,), element.element_id)
            else:
                _drop(self._by_pin, (pred, *anchor), element.element_id)

    def _redefine(self, element: CacheElement, definition: PSJQuery) -> None:
        """Adopt an alpha-equivalent definition (same canonical key) and
        re-anchor the element: the spelling may list its pins in another
        order."""
        self._unfile_pins(element)
        element.definition = definition
        for bucket in _buckets(self._by_pin, self._unpinned, element):
            bucket[element.element_id] = None
            if len(bucket) > 1:  # back into store order
                ordered = sorted(bucket, key=lambda i: self._elements[i].epoch)
                bucket.clear()
                bucket.update(dict.fromkeys(ordered))

    # -- concurrency control ------------------------------------------------------
    def pin(self, element: CacheElement) -> None:
        """Take a reference on ``element``: exempt from eviction, and its
        reclamation is deferred until the matching :meth:`unpin`."""
        element.pin_count += 1

    def unpin(self, element: CacheElement) -> None:
        """Release one pin; reclaims a condemned element on the last one."""
        if element.pin_count <= 0:
            raise CacheError(
                f"unpin of {element.element_id} without a matching pin"
            )
        element.pin_count -= 1
        if element.pin_count == 0 and element.condemned:
            if self._condemned.pop(element.element_id, None) is not None:
                self._reclaim(element)

    def validate(self, element: CacheElement) -> bool:
        """True while ``element`` is still the live entry for its id —
        i.e. it has not been evicted, condemned, or replaced since it was
        matched (epoch-tagged invalidation for in-flight plans)."""
        return self._elements.get(element.element_id) is element

    def _make_room(self, incoming_bytes: int, exempt: set[str]) -> None:
        if incoming_bytes > self.capacity_bytes:
            raise CacheCapacityError(
                f"element of ~{incoming_bytes} bytes exceeds cache capacity "
                f"{self.capacity_bytes}"
            )
        # Sized once: a victim is never pinned, so ``discard`` reclaims it
        # at once and the total drops by exactly its bytes.
        used = self.used_bytes()
        while used + incoming_bytes > self.capacity_bytes:
            victim = self._pick_victim(exempt)
            if victim is None:
                raise CacheCapacityError(
                    "cache full and every element is pinned or exempt"
                )
            if victim.pinned or self._has_pinned_descendant(victim.element_id):
                raise InvariantViolation(
                    f"eviction chose {victim.element_id}, which is pinned "
                    "or has a pinned derivation descendant"
                )
            victim_bytes = victim.estimated_bytes()
            self.metrics.incr(CACHE_EVICTIONS)
            self.metrics.observe(H_EVICTED_ELEMENT_BYTES, victim_bytes)
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
        """Neither pinned, exempt, nor the ancestor of a pinned element."""
        return (
            not element.pinned
            and element.element_id not in exempt
            and not self._has_pinned_descendant(element.element_id)
        )

    def _scan_victim(self, exempt: set[str]) -> CacheElement | None:
        """The victim by definition: the first highest-scoring evictable
        element in store order, every element scored."""
        candidates = [e for e in self._elements.values() if self._evictable(e, exempt)]
        if not candidates:
            return None
        return max(candidates, key=self.scorer)

    def _pick_victim(self, exempt: set[str]) -> CacheElement | None:
        """:meth:`_scan_victim`'s answer, scoring only the elements whose
        bound can still beat the best score found.

        Generator-backed elements (their bytes can grow, so no static
        bound) are scored first; then heap entries pop largest bound
        first.  An entry whose element has been touched since it was keyed
        is re-keyed and pushed back; a current one is scored.  The pick
        stops at the first key below the best score — every score is at
        most its element's key — so entries whose key *equals* the best
        are still examined, and equal scores go to the earlier store, as
        ``max`` over store order does.  Falls back to the full scan unless
        the installed scorer is the one :meth:`install_scorer` vouched for
        and its bound test holds.
        """
        scorer, holds = self._bounded
        if self.scorer is not scorer or holds is None or not holds():
            return self._scan_victim(exempt)
        best: CacheElement | None = None
        best_score = 0.0
        for element in self._generators.values():
            # Condemned generators sit here too; they are pinned.
            if self._evictable(element, exempt):
                score = scorer(element)
                if _beats(score, element, best_score, best):
                    best, best_score = element, score
        heap, entries, kept = self._heap, self._heap_entry, []
        while heap and (best is None or -heap[0][0] >= best_score):
            entry = heapq.heappop(heap)
            element_id = entry[2]
            if entries.get(element_id) is not entry:
                continue  # retired or superseded
            element = self._elements[element_id]
            bound = self.cost_bound(element)
            if bound < -entry[0]:  # touched since it was keyed
                fresh = entries[element_id] = [-bound, entry[1], element_id]
                heapq.heappush(heap, fresh)
                continue
            kept.append(entry)
            if not self._evictable(element, exempt):
                continue
            score = scorer(element)
            if _beats(score, element, best_score, best):
                best, best_score = element, score
        for entry in kept:
            heapq.heappush(heap, entry)
        self._compact()
        return best

    def _file(self, element: CacheElement) -> None:
        """(Re-)key a live extension-backed element at its fresh bound."""
        entry = [-self.cost_bound(element), element.epoch, element.element_id]
        self._heap_entry[element.element_id] = entry
        heapq.heappush(self._heap, entry)
        self._compact()

    def _compact(self) -> None:
        """Rebuild the heap from the current entries once dead ones
        outnumber them, so it stays O(live elements)."""
        if len(self._heap) > 2 * len(self._heap_entry):
            self._heap = list(self._heap_entry.values())
            heapq.heapify(self._heap)

    def _has_pinned_descendant(self, element_id: str) -> bool:
        """True when a live (transitive) derivation descendant is pinned:
        such an element must not be evicted — a concurrent plan holding
        the descendant may still walk its lineage."""
        stack = list(self._children.get(element_id, ()))
        seen: set[str] = set()
        while stack:
            child_id = stack.pop()
            if child_id in seen:
                continue
            seen.add(child_id)
            child = self._elements.get(child_id)
            if child is None:
                continue
            if child.pinned:
                return True
            stack.extend(self._children.get(child_id, ()))
        return False

    # -- cost-based replacement ---------------------------------------------------
    def decayed_frequency(self, element: CacheElement) -> float:
        """The element's observed hit frequency, decayed by idle time
        (half-life :data:`REUSE_HALF_LIFE`)."""
        frequency = element.reuse_frequency
        if frequency <= 0.0:
            return 0.0
        idle = max(self.clock.now - element.last_used_at, 0.0)
        if idle > 0.0:
            frequency *= 0.5 ** (idle / REUSE_HALF_LIFE)
        return frequency

    def element_value(self, element: CacheElement) -> float:
        """GreedyDual-style retention value: measured recomputation cost x
        predicted reuse (advice weight + decayed observed frequency) per
        byte of cache spent keeping it."""
        reuse = element.advice_weight + self.decayed_frequency(element)
        return (
            element.derivation_seconds
            * reuse
            / max(element.estimated_bytes(), 1)
        )

    def cost_scorer(self, element: CacheElement) -> float:
        """The default eviction scorer: LRU recency minus a scaled value
        term, so zero-cost elements (derivation_seconds == 0) degrade to
        exact LRU while expensive, reused, compact elements are retained
        far past their recency."""
        return lru_scorer(element) - VALUE_WEIGHT * self.element_value(element)

    def cost_bound(self, element: CacheElement) -> float:
        """An upper bound on the element's :meth:`cost_scorer` score, with
        advice's :data:`EXPENDABLE_OFFSET` included: the same float
        operations with the decayed frequency dropped.  Frequency, cost,
        weight and :data:`VALUE_WEIGHT` are non-negative and every rounding
        step is monotone, so the bound holds exactly.  A touch, a cost set
        from zero or a raised weight only lower it; :meth:`annotate` is the
        one write that can raise it, and re-keys."""
        bound = lru_scorer(element) - VALUE_WEIGHT * (
            element.derivation_seconds
            * element.advice_weight
            / max(element.estimated_bytes(), 1)
        )
        if element.expendable:
            bound += EXPENDABLE_OFFSET
        return bound

    def install_scorer(self, scorer: EvictionScorer, bounded: BoundTest | None) -> None:
        """Install an eviction scorer.  ``bounded`` answers, at each pick,
        whether every score is at most :meth:`cost_bound` — so the victim
        heap may pick — or is None when that never holds."""
        self.scorer = scorer
        self._bounded = (scorer, bounded)

    def annotate(self, element: CacheElement, expendable: bool, advised: bool) -> None:
        """Record advice's prediction on an element just stored for a
        query: ``expendable`` when the plan predicted a single use,
        ``advised`` when an advised view defines the query.  Marking an
        element expendable raises its :meth:`cost_bound`, so the element
        is re-keyed."""
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
        if element.element_id in self._heap_entry:
            self._file(element)

    # -- lookup -----------------------------------------------------------------
    def touch(self, element: CacheElement) -> None:
        """Record a use: bumps the LRU clock, the use count, and the
        decayed reuse frequency — and warms derivation ancestors, so a hit
        on a derived element keeps the inputs it came from alive (policy:
        each ancestor level receives :data:`ANCESTOR_SHARE` of the hit,
        geometrically attenuated; sequence/use_count/ledger untouched)."""
        element.sequence = next(self._clock)
        element.use_count += 1
        element.reuse_frequency = self.decayed_frequency(element) + 1.0
        element.last_used_at = self.clock.now
        self._warm_ancestors(element)

    def _warm_ancestors(self, element: CacheElement) -> None:
        """Propagate a reuse event up the derivation DAG (breadth-first,
        each element warmed at most once per event)."""
        share = ANCESTOR_SHARE
        frontier = list(element.parents)
        seen = {element.element_id}
        while frontier and share > 1e-6:
            next_frontier: list[str] = []
            for parent_id in frontier:
                if parent_id in seen:
                    continue
                seen.add(parent_id)
                parent = self._elements.get(parent_id)
                if parent is None:
                    continue
                parent.reuse_frequency = (
                    self.decayed_frequency(parent) + share
                )
                parent.last_used_at = self.clock.now
                next_frontier.extend(parent.parents)
            frontier = next_frontier
            share *= ANCESTOR_SHARE

    def read(self, element: CacheElement) -> None:
        """Record that an answer was served from ``element``: :meth:`touch`
        it, count ``cache.intermediate_hits`` when it is an intermediate,
        and credit the efficacy ledger with its recorded derivation cost —
        what serving from it avoided re-paying.

        Pure bookkeeping — no simulated time is charged, no trace event is
        emitted; the credits add up in
        :data:`~repro.common.metrics.CACHE_SAVED_SECONDS`.  A credit warms
        derivation ancestors once more (the saving was only possible
        because the inputs were retained).
        """
        self.touch(element)
        if element.kind == "intermediate":
            self.metrics.incr(CACHE_INTERMEDIATE_HITS)
        saved = element.derivation_seconds
        if saved > 0:
            element.saved_seconds += saved
            self.metrics.incr(CACHE_SAVED_SECONDS, saved)
            self._warm_ancestors(element)

    def get(self, element_id: str) -> CacheElement | None:
        """The element with this id, or None."""
        return self._elements.get(element_id)

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
        found = [self._unpinned.get(pred, {})]
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
        if len(found) == 1:
            return [self._elements[i] for i in found[0]]
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
        """Summed size estimates of all resident elements (condemned ones
        still occupy their storage until the last pin is released): the
        running extension total plus a fresh read of each generator."""
        return self._extension_bytes + sum(
            e.estimated_bytes() for e in self._generators.values()
        )

    def _summed_bytes(self) -> int:
        """:meth:`used_bytes` from scratch, for the audit."""
        return sum(e.estimated_bytes() for e in self._elements.values()) + sum(
            e.estimated_bytes() for e in self._condemned.values()
        )

    def _count_bytes(self, element: CacheElement, size: int) -> None:
        """Add a newly resident element (``size`` = its estimate now)."""
        if element.is_generator:
            self._generators[element.element_id] = element
        else:
            self._extension_bytes += size

    def _uncount_bytes(self, element: CacheElement) -> None:
        if self._generators.pop(element.element_id, None) is None:
            self._extension_bytes -= element.estimated_bytes()

    # -- invariants -----------------------------------------------------------------
    @staticmethod
    def _numeric_id(element_id: str) -> int:
        """The allocation number behind an ``E<n>`` element id (ids that
        do not follow the pattern sort first, conservatively)."""
        try:
            return int(element_id.lstrip("E"))
        except ValueError:
            return -1

    def check_invariants(self) -> None:
        """Audit the cache's internal consistency (cheap, read-only).

        Raises :class:`~repro.common.errors.InvariantViolation` when any
        structural property the implementation must maintain is broken:
        the definition-key bijection, the predicate (pin) index against a
        rebuild from scratch, refcount sanity, each stored relation's own
        audit (set semantics, schema arity, its size memo against a
        recount), the disjointness/reachability rules for the condemned
        set, the running byte total against a from-scratch sum, and the
        victim heap (:meth:`_check_victim_heap`).  Called from tests and
        after every fuzzer query.
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
            if element.condemned:
                raise InvariantViolation(
                    f"{element_id} is live but flagged condemned"
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
            if element.depth < 0 or element.reuse_frequency < 0:
                raise InvariantViolation(
                    f"{element_id}: negative lineage statistics "
                    f"(depth={element.depth}, "
                    f"frequency={element.reuse_frequency})"
                )
            for parent_id in element.parents:
                parent = self._elements.get(parent_id)
                if parent is None:
                    continue  # evicted ancestor: stale id is expected
                # Ids are allocated in store order and parents must exist
                # when their child is stored, so every live edge points
                # from a smaller numeric id to a larger one — which is
                # also a proof of DAG acyclicity.
                if self._numeric_id(parent_id) >= self._numeric_id(element_id):
                    raise InvariantViolation(
                        f"{element_id}: lineage edge from {parent_id} does "
                        "not respect store order (cycle risk)"
                    )
                if element_id not in self._children.get(parent_id, ()):
                    raise InvariantViolation(
                        f"{element_id} missing from live parent "
                        f"{parent_id}'s children index"
                    )
            # Recomputed with neither the form the definition carries nor
            # the memo row it shares (raises when either disagrees — on the
            # key, or on the fold the subsumption probe reads), so the index
            # and the probe are checked against what the definition *means*.
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
        for parent_id, members in self._children.items():
            if parent_id not in self._elements:
                raise InvariantViolation(
                    f"children index keeps retired parent {parent_id}"
                )
            if not members:
                raise InvariantViolation(
                    f"empty children-index bucket for {parent_id}"
                )
            for child_id in members:
                child = self._elements.get(child_id)
                if child is None:
                    raise InvariantViolation(
                        f"children index of {parent_id} references retired "
                        f"element {child_id}"
                    )
                if parent_id not in child.parents:
                    raise InvariantViolation(
                        f"{child_id} listed under {parent_id} but does not "
                        "name it as a parent"
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
        for element_id, element in self._condemned.items():
            if element_id in self._elements:
                raise InvariantViolation(
                    f"{element_id} is both live and condemned"
                )
            if not element.condemned:
                raise InvariantViolation(
                    f"{element_id} sits in the condemned set without the flag"
                )
            if element.pin_count <= 0:
                raise InvariantViolation(
                    f"condemned {element_id} has no pins and was never reclaimed"
                )
        used, summed = self.used_bytes(), self._summed_bytes()
        if used != summed:
            raise InvariantViolation(
                f"running byte total gives {used} but the resident elements "
                f"sum to {summed} (a missed adjustment, or an extension grown "
                "in place)"
            )
        self._check_victim_heap()

    def _check_victim_heap(self) -> None:
        """Audit the victim heap: exactly the live extension-backed
        elements have a current entry, in the heap, keyed at or above the
        element's fresh :meth:`cost_bound` (a touch lowers a bound without
        re-keying, so a key may sit above it, never below), and the
        bounded pick names the full scan's victim."""
        extensions = [i for i, e in self._elements.items() if not e.is_generator]
        if sorted(self._heap_entry) != sorted(extensions):
            raise InvariantViolation(
                f"victim heap keys {sorted(self._heap_entry)} but the live "
                f"extension-backed elements are {sorted(extensions)}"
            )
        filed = sum(1 for entry in self._heap if self._heap_entry.get(entry[2]) is entry)
        if filed != len(self._heap_entry):
            raise InvariantViolation(
                f"{len(self._heap_entry)} current victim-heap entries but "
                f"{filed} of them are in the heap"
            )
        for element_id, entry in self._heap_entry.items():
            element = self._elements[element_id]
            bound = self.cost_bound(element)
            if entry[1] != element.epoch or -entry[0] < bound:
                raise InvariantViolation(
                    f"{element_id}: victim-heap entry {entry} but its bound is "
                    f"{bound} at epoch {element.epoch} (a write raised the "
                    "bound without re-keying)"
                )
        picked, scanned = self._pick_victim(set()), self._scan_victim(set())
        if picked is not scanned:
            raise InvariantViolation(
                f"the victim heap picks {picked and picked.element_id} but the "
                f"full scan picks {scanned and scanned.element_id}"
            )

    def clear(self) -> None:
        """Drop every element and index entry (pins notwithstanding)."""
        self._elements.clear()
        self._condemned.clear()
        self._by_pin.clear()
        self._unpinned.clear()
        self._by_key.clear()
        self._children.clear()
        self._extension_bytes = 0
        self._generators.clear()
        self._heap.clear()
        self._heap_entry.clear()
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
    (:func:`key_of`), with no byte accounting, pin index, lineage or
    replacement advice.  Re-storing a key swaps in the fresher relation
    but keeps the first definition and its place in line.  Subsumption
    search asks it what it asks a cache: :meth:`elements_for_predicate`
    and :meth:`get`.
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

    def get(self, element_id: str) -> CacheElement | None:
        """The archived copy with this id, or None."""
        return next((e for e in self._elements.values() if e.element_id == element_id), None)

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

        With ``audit`` (the CMS passes :attr:`QueryPlanner.audit`), every
        archived copy the containment signature turned away is put through
        the full test after all, as the planner does for its own probes: a
        false reject here would turn a stale answer into a failure.
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
