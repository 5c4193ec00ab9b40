"""Hash indexes over relation extensions.

Section 5.4: the Query Processor "uses hash indices when available to speed
up joins and some selections"; Section 4.2.1: consumer annotations in advice
mark attributes as "prime candidates for indexing".
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain
from operator import itemgetter
from typing import Iterable

from repro.relational.relation import Relation


class HashIndex:
    """A hash index on one or more attributes of a relation extension.

    A bucket holds row *positions* (the relation's stable order), as an
    index in a conventional DBMS holds tuple ids: one key's rows, or the
    union of several keys' rows, come back in relation order.

    The index covers the rows the relation had when it was built.  Rows
    are append-only, so :attr:`is_current` — the relation is still that
    long — is the whole staleness test; :meth:`IndexSet.ensure` rebuilds
    on it.
    """

    __slots__ = ("attributes", "_relation", "_positions", "_buckets", "_source_len")

    def __init__(self, relation: Relation, attributes: tuple[str, ...] | list[str]):
        self.attributes = tuple(attributes)
        self._relation = relation
        self._positions = positions = relation.schema.positions(self.attributes)
        self._buckets: dict[tuple, list[int]] = defaultdict(list)
        # Keys cut by ``itemgetter``, as the row builder cuts rows: one
        # position yields the bare value, so ``zip`` wraps it in a 1-tuple.
        if len(positions) == 1:
            keys = zip(map(itemgetter(positions[0]), relation))
        elif positions:
            keys = map(itemgetter(*positions), relation)
        else:
            keys = (() for _row in relation)
        for ordinal, key in enumerate(keys):
            self._buckets[key].append(ordinal)
        self._source_len = len(relation)

    def lookup(self, values: tuple) -> list[tuple]:
        """Rows whose indexed attributes equal ``values``."""
        if not isinstance(values, tuple):
            values = (values,)
        return self.lookup_any((values,))

    def lookup_any(self, keys: Iterable[tuple]) -> list[tuple]:
        """Rows whose indexed attributes equal one of ``keys`` (tuples, one
        value per indexed attribute), each row once, in relation order.

        Keys meet rows by Python equality, as everywhere else: ``1``,
        ``1.0`` and ``True`` are one key, ``"1"`` is another, and a NaN
        finds only the rows holding that very object.
        """
        distinct = set(keys)
        buckets = self._buckets
        found = [buckets[key] for key in distinct if key in buckets]
        if len(found) == 1:
            return self._relation.rows_at(found[0])  # a bucket is in order
        return self._relation.rows_at(sorted(chain.from_iterable(found)))

    def __contains__(self, values: tuple) -> bool:
        if not isinstance(values, tuple):
            values = (values,)
        return values in self._buckets

    @property
    def key_count(self) -> int:
        """Number of distinct key values."""
        return len(self._buckets)

    @property
    def is_current(self) -> bool:
        """True while the relation has exactly the rows that were indexed."""
        return self._source_len == len(self._relation)

    def __repr__(self) -> str:
        return f"HashIndex(on={self.attributes}, keys={self.key_count})"


class IndexSet:
    """The collection of indexes maintained for one cached relation."""

    __slots__ = ("_relation", "_indexes")

    def __init__(self, relation: Relation):
        self._relation = relation
        self._indexes: dict[tuple[str, ...], HashIndex] = {}

    def ensure(self, attributes: tuple[str, ...] | list[str]) -> HashIndex:
        """Return the index on ``attributes``, building it if absent and
        rebuilding it if the relation has grown since it was built."""
        key = tuple(attributes)
        index = self._indexes.get(key)
        if index is None or not index.is_current:
            index = self._indexes[key] = HashIndex(self._relation, key)
        return index

    def get(self, attributes: tuple[str, ...] | list[str]) -> HashIndex | None:
        """The existing index on ``attributes`` (brought up to date), or None."""
        key = tuple(attributes)
        return self.ensure(key) if key in self._indexes else None

    def find_covering(self, attributes: set[str]) -> HashIndex | None:
        """An existing index whose key is a subset of ``attributes``.

        Such an index can answer an equality selection on ``attributes``
        with a probe plus residual filtering.  Prefers the widest key.
        """
        best: tuple[str, ...] | None = None
        for key in self._indexes:
            if set(key) <= attributes and (best is None or len(key) > len(best)):
                best = key
        return self.ensure(best) if best is not None else None

    def __len__(self) -> int:
        return len(self._indexes)
