"""Generator (lazy) representation of relations.

Section 5.1 of the paper: "The CMS represents a relation as either the full
extension of the relation or as a *generator* which produces a single tuple
on demand."  A :class:`GeneratorRelation` wraps a pull-based pipeline:

* tuples are produced one at a time as the consumer asks for them;
* produced tuples are **memoized**, so several readers (the paper's
  "co-existing uses") share one underlying computation;
* the generator can be **promoted** to a full extension at any time by
  draining it, which is how the CMS converts a lazy element to an eager one
  when an index is wanted.

Duplicate elimination matches :class:`Relation`: the memoized prefix is a
set-semantics relation, so a generator never yields the same row twice.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.relational.relation import Relation
from repro.relational.schema import Schema

#: A factory producing a fresh row iterator (so generators can be restarted).
RowSource = Callable[[], Iterator[tuple]]


class GeneratorRelation:
    """A lazily evaluated relation with a memoized prefix."""

    __slots__ = (
        "schema",
        "_source",
        "_iterator",
        "_memo",
        "_exhausted",
        "on_produce",
        "on_exhausted",
    )

    def __init__(self, schema: Schema, source: RowSource):
        self.schema = schema
        self._source = source
        self._iterator: Iterator[tuple] | None = None
        self._memo = Relation(schema)
        self._exhausted = False
        #: Optional callback fired for each newly produced row (metrics hook).
        self.on_produce: Callable[[tuple], None] | None = None
        #: Optional callback fired once when the source drains (the CMS
        #: traces a lazy stream's ``stream.drained`` event from it).
        self.on_exhausted: Callable[[], None] | None = None

    # -- production -------------------------------------------------------------
    def _pull(self) -> tuple | None:
        """Produce one new (deduplicated) row, or None when exhausted."""
        if self._exhausted:
            return None
        if self._iterator is None:
            self._iterator = self._source()
        for row in self._iterator:
            if not isinstance(row, tuple):
                row = tuple(row)
            if self._memo.insert(row):
                if self.on_produce is not None:
                    self.on_produce(row)
                return row
        self._exhausted = True
        self._iterator = None
        if self.on_exhausted is not None:
            callback, self.on_exhausted = self.on_exhausted, None
            callback()
        return None

    def __iter__(self) -> Iterator[tuple]:
        """Iterate over all rows, producing lazily past the memoized prefix.

        Multiple concurrent iterators are safe: each replays the shared
        memo first, then pulls new rows (which extend the memo for all).
        """
        index = 0
        while True:
            # The memo's row list is append-only, so it is read in place
            # (no per-row copy) and ``index`` stays valid while concurrent
            # iterators extend it: all replay one shared order.
            memoized = self._memo._rows
            while index < len(memoized):
                yield memoized[index]
                index += 1
            if self._exhausted or self._pull() is None:
                return

    # -- state ----------------------------------------------------------------------
    @property
    def produced_count(self) -> int:
        """How many rows have actually been computed so far."""
        return len(self._memo)

    @property
    def exhausted(self) -> bool:
        """True once the underlying source has been fully drained."""
        return self._exhausted

    def to_extension(self) -> Relation:
        """Drain the generator and return the full extension.

        The memo *is* the extension afterwards, so this is idempotent and
        costs nothing the second time.
        """
        while self._pull() is not None:
            pass
        return self._memo

    def when_exhausted(self, callback: Callable[[], None]) -> None:
        """Fire ``callback`` once when the source drains, ahead of whatever
        was registered before it (which still fires)."""
        previous = self.on_exhausted

        def chained() -> None:
            callback()
            if previous is not None:
                previous()

        self.on_exhausted = chained

    def estimated_bytes(self) -> int:
        """The size of what has been produced so far (the memo)."""
        return self._memo.estimated_bytes()

    def check_invariants(self, label: str | None = None) -> None:
        """Audit the produced rows (read-only: nothing is pulled)."""
        self._memo.check_invariants(label)


def generator_from_rows(schema: Schema, rows: list[tuple]) -> GeneratorRelation:
    """A generator over a fixed row list (mostly for tests)."""
    return GeneratorRelation(schema, lambda: iter(list(rows)))
