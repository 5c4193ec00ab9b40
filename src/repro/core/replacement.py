"""Cache replacement: GreedyDual, with advice as priority classes.

Section 5.4's Cache Manager replaces "using an LRU scheme which may be
modified due to advi[c]e".  That scheme is GreedyDual (Young 1994; Cao &
Irani's GreedyDual-Size, 1997): each element's priority ``H = L +
value(e)`` is set when it is stored, touched, warmed through a descendant
or annotated; the victim is the least ``(class, H, sequence)`` among the
evictable elements, and evicting it raises the inflation ``L`` to its
``H``.  Inflation is the aging, and a uniform value is exact LRU.

Advice is a class, not an offset: ``(tracker rank, expendable rank)``,
least first — never needed again, expendable, default, needed within
``d`` queries (farther first).  With advice replacement off every element
is default.  See docs/caching.md, "Cost-based eviction".
"""

from __future__ import annotations

import heapq
import itertools
from functools import cache
from typing import Callable

from repro.common.errors import InvariantViolation

#: Tracker rank of a view the live tracker says can never be asked again.
NEVER = 0.0
#: Tracker rank without a live tracker, and of every intermediate (path
#: expressions name whole views).  A view needed within ``d`` queries
#: ranks ``2 + 1/d``: above this, and the farther need lower.
UNTRACKED = 1.0


def value(element) -> float:
    """Roy et al.'s benefit per byte ("Don't Trash your Intermediate
    Results"): derivation seconds x (advice weight + observed uses) /
    bytes."""
    reuse = element.advice_weight + element.reuse_frequency
    return element.derivation_seconds * reuse / element.estimated_bytes()


def tracker_rank(distance: int | None) -> float:
    """The tracker rank of a view at this path distance (None = never)."""
    return NEVER if distance is None else 2.0 + 1.0 / distance


def _bucket(element) -> tuple:
    """The heap an element shares a class with under a live tracker: its
    view (None for an intermediate) and its mark."""
    return (element.view_name if element.kind == "view" else None, element.expendable)


class GreedyDual:
    """One cache's victim order.

    Every live element has one current entry ``(H, sequence, serial,
    element)``, filed in its *pool* (by expendable mark) and, while a live
    tracker has asked for them, in its *bucket* (:func:`_bucket`).  All
    elements of a heap share a class at any pick, so each heap's least
    evictable entry is its candidate, and the victim is the least ``(class,
    H, sequence)`` over the candidates: two pools without a live tracker,
    one bucket per view name with one.  A re-keyed or retired element's
    old entries stay behind, dead, until they surface or the heaps are
    rebuilt.
    """

    def __init__(self) -> None:
        #: ``L``: the largest priority evicted so far.
        self.inflation = 0.0
        #: The active session's advice manager; None = advice off.
        self.advice = None
        #: False: a uniform value, which is exact LRU.
        self.cost_based = True
        self._entries: dict[str, tuple] = {}
        self._pools: dict[bool, list] = {False: [], True: []}
        #: Built by the first pick under a live tracker, dropped by a rebuild.
        self._buckets: dict[tuple, list] | None = None
        self._serial = itertools.count()
        self._filed = 0

    def rekey(self, element) -> None:
        """Set ``H = L + value(e)`` and file the element's new entry."""
        priority = self.inflation + (value(element) if self.cost_based else 0.0)
        entry = (priority, element.sequence, next(self._serial), element)
        self._entries[element.element_id] = entry
        heapq.heappush(self._pools[element.expendable], entry)
        if self._buckets is not None:
            heapq.heappush(self._buckets.setdefault(_bucket(element), []), entry)
        self._filed += 1
        if self._filed > 4 * len(self._entries) + 64:
            self._rebuild()

    def forget(self, element_id: str) -> None:
        """Retire a discarded element's entry."""
        self._entries.pop(element_id, None)

    def evict(self, element) -> None:
        """Retire the victim and raise ``L`` to its priority."""
        self.inflation = max(self.inflation, self._entries.pop(element.element_id)[0])

    def pick(self, evictable: Callable[[object], bool]):
        """The least ``(class, H, sequence)`` evictable element, or None."""
        best = None
        for klass, heap in self._heaps():
            entry = self._least(heap, evictable)
            if entry is not None and (best is None or (klass, entry[:2]) < best[0]):
                best = (klass, entry[:2]), entry[3]
        return None if best is None else best[1]

    def _heaps(self):
        """``(class, heap)`` for every heap the pick reads; a live tracker
        is read once per view name."""
        ranks = self.advice and self.advice.replacement_ranks()
        if ranks is None:
            marked = self.advice is not None
            return [((UNTRACKED, int(not (marked and expendable))), heap)
                    for expendable, heap in self._pools.items()]
        if self._buckets is None:
            self._buckets = self._grouped(_bucket)
        ranks = cache(ranks)
        return [((UNTRACKED if view is None else ranks(view), int(not expendable)), heap)
                for (view, expendable), heap in self._buckets.items()]

    def _least(self, heap: list, evictable: Callable[[object], bool]) -> tuple | None:
        """The heap's least current evictable entry, left on the heap; dead
        entries above it are dropped."""
        aside, found = [], None
        while heap:
            entry = heap[0]
            if self._entries.get(entry[3].element_id) is not entry:
                heapq.heappop(heap)
            elif evictable(entry[3]):
                found = entry
                break
            else:
                aside.append(heapq.heappop(heap))
        for entry in aside:
            heapq.heappush(heap, entry)
        return found

    def _grouped(self, key: Callable[[object], object]) -> dict[object, list]:
        """Every current entry, in one heap per ``key`` of its element."""
        heaps: dict[object, list] = {}
        for entry in self._entries.values():
            heaps.setdefault(key(entry[3]), []).append(entry)
        for heap in heaps.values():
            heapq.heapify(heap)
        return heaps

    def _rebuild(self) -> None:
        """Refile every current entry, dropping the dead ones."""
        self._pools = {False: [], True: [], **self._grouped(lambda e: e.expendable)}
        self._buckets = None
        self._filed = len(self._entries)

    def clear(self) -> None:
        """Forget every element (``L`` and the session pointers stay)."""
        self._entries.clear()
        self._rebuild()

    def check(self, elements: dict, evictable: Callable[[object], bool]) -> None:
        """Audit: exactly the live elements have a current entry, carrying
        the element's sequence, and the pick names the least ``(class, H,
        sequence)`` of a scan over every evictable element."""
        if self._entries.keys() != elements.keys():
            raise InvariantViolation(
                f"replacement keys {sorted(self._entries)} but the live "
                f"elements are {sorted(elements)}"
            )
        ranks = self.advice and self.advice.replacement_ranks()
        scan = []
        for element_id, entry in self._entries.items():
            element = elements[element_id]
            if entry[3] is not element or entry[1] != element.sequence:
                raise InvariantViolation(
                    f"{element_id}: replacement entry {entry[:3]} is stale (a "
                    "touch or re-store that did not re-key)"
                )
            if evictable(element):
                view = _bucket(element)[0]
                rank = UNTRACKED if ranks is None or view is None else ranks(view)
                marked = self.advice is not None and element.expendable
                scan.append(((rank, int(not marked)), entry[:2], element))
        scanned = min(scan, key=lambda key: key[:2], default=(None,) * 3)[2]
        picked = self.pick(evictable)
        if picked is not scanned:
            raise InvariantViolation(
                f"the replacement heaps pick {picked and picked.element_id} but "
                f"a scan picks {scanned and scanned.element_id}"
            )
