"""Tests for cache storage, uses, and replacement."""

from itertools import islice

import pytest

from repro.common.errors import CacheCapacityError, CacheError
from repro.relational.generator import generator_from_rows
from repro.relational.relation import Relation
from repro.caql.parser import parse_query
from repro.caql.eval import psj_of, result_schema
from repro.core.cache import Cache, CacheElement


def make_psj(text):
    return psj_of(parse_query(text))


def make_relation(name, n, width=2):
    schema = result_schema(name, width)
    return Relation(schema, [tuple(f"{name}{i}_{j}" for j in range(width)) for i in range(n)])


def store(cache, text, rows=5):
    psj = make_psj(text)
    return cache.store(psj, make_relation(psj.name, rows, max(psj.arity, 1)))


class TestStore:
    def test_store_and_get(self):
        cache = Cache()
        element = store(cache, "d1(X, Y) :- b1(X, Y)")
        assert element.element_id in cache and cache.elements() == [element]
        assert len(cache) == 1

    def test_ids_unique(self):
        cache = Cache()
        e1 = store(cache, "d1(X, Y) :- b1(X, Y)")
        e2 = store(cache, "d2(X, Y) :- b2(X, Y)")
        assert e1.element_id != e2.element_id

    def test_identical_definition_reuses_element(self):
        # Section 5.2: one stored instance serves several uses.
        cache = Cache()
        e1 = store(cache, "d1(X, Y) :- b1(X, Y)")
        psj = make_psj("renamed(A, B) :- b1(A, B)")  # same canonical key
        e2 = cache.store(psj, make_relation("renamed", 5))
        assert e1 is e2
        assert len(cache) == 1

    def test_uses_recorded(self):
        cache = Cache()
        psj = make_psj("d1(X, Y) :- b1(X, Y)")
        e1 = cache.store(psj, make_relation("d1", 3), use="stream-producer")
        e2 = cache.store(psj, make_relation("d1", 3), use="indexed-lookup")
        assert e1 is e2
        assert e1.uses == {"stream-producer", "indexed-lookup"}

    def test_capacity_must_be_positive(self):
        with pytest.raises(CacheError):
            Cache(capacity_bytes=0)

    def test_discard(self):
        cache = Cache()
        element = store(cache, "d1(X, Y) :- b1(X, Y)")
        cache.discard(element.element_id)
        assert len(cache) == 0
        assert cache.elements_for_predicate("b1") == []

    def test_discard_unknown_is_noop(self):
        Cache().discard("E99")


class TestLookup:
    def test_lookup_exact(self):
        cache = Cache()
        store(cache, "d1(X) :- b1(X, c1)")
        assert cache.lookup_exact(make_psj("other(W) :- b1(W, c1)")) is not None
        assert cache.lookup_exact(make_psj("other(W) :- b1(W, c2)")) is None

    def test_elements_for_predicate(self):
        cache = Cache()
        store(cache, "d1(X, Y) :- b1(X, Y)")
        store(cache, "d2(X) :- b1(X, Z), b2(Z, X)")
        assert len(cache.elements_for_predicate("b1")) == 2
        assert len(cache.elements_for_predicate("b2")) == 1
        assert cache.elements_for_predicate("zzz") == []

    def test_elements_for_predicate_in_creation_order(self):
        # The predicate index must iterate in element-creation order, not
        # set (string-hash) order: the planner breaks ties among equal
        # subsumption matches by candidate order, so hash order here means
        # the same seed produces different plans in different processes.
        cache = Cache()
        ids = [
            store(cache, f"d{i}(X) :- b1(X, c{i})").element_id
            for i in range(12)
        ]
        assert [
            e.element_id for e in cache.elements_for_predicate("b1")
        ] == ids

    def test_predicate_order_survives_discard(self):
        cache = Cache()
        ids = [
            store(cache, f"d{i}(X) :- b1(X, c{i})").element_id
            for i in range(6)
        ]
        cache.discard(ids[2])
        cache.discard(ids[4])
        survivors = [ids[0], ids[1], ids[3], ids[5]]
        assert [
            e.element_id for e in cache.elements_for_predicate("b1")
        ] == survivors

    def test_touch_updates_sequence_and_count(self):
        cache = Cache()
        element = store(cache, "d1(X, Y) :- b1(X, Y)")
        before = element.sequence
        cache.touch(element)
        assert element.sequence > before
        assert element.use_count == 1

    def test_re_storing_is_not_a_use(self):
        cache = Cache()
        element = store(cache, "d1(X, Y) :- b1(X, Y)")
        before = element.sequence
        assert store(cache, "d1(A, B) :- b1(A, B)") is element
        assert element.sequence > before  # recency moves
        assert element.use_count == 0 and element.reuse_frequency == 0.0


class TestEviction:
    def small_cache(self):
        # Each stored element estimates ~144 bytes: room for exactly two.
        return Cache(capacity_bytes=320)

    def test_lru_eviction(self):
        cache = self.small_cache()
        e1 = store(cache, "d1(X, Y) :- b1(X, Y)")
        e2 = store(cache, "d2(X, Y) :- b2(X, Y)")
        cache.touch(e1)  # e2 becomes least recently used
        store(cache, "d3(X, Y) :- b3(X, Y)")
        assert e1.element_id in cache
        assert e2.element_id not in cache
        assert cache.eviction_count == 1

    def test_pinned_elements_survive(self):
        cache = self.small_cache()
        e1 = store(cache, "d1(X, Y) :- b1(X, Y)")
        cache.pin(e1)
        e2 = store(cache, "d2(X, Y) :- b2(X, Y)")
        store(cache, "d3(X, Y) :- b3(X, Y)")
        assert e1.element_id in cache
        assert e2.element_id not in cache

    def test_oversized_element_rejected(self):
        cache = Cache(capacity_bytes=100)
        with pytest.raises(CacheCapacityError):
            store(cache, "d1(X, Y) :- b1(X, Y)", rows=100)

    def test_all_pinned_raises(self):
        cache = self.small_cache()
        e1 = store(cache, "d1(X, Y) :- b1(X, Y)")
        e2 = store(cache, "d2(X, Y) :- b2(X, Y)")
        cache.pin(e1)
        cache.pin(e2)
        with pytest.raises(CacheCapacityError):
            store(cache, "d3(X, Y) :- b3(X, Y)")

    def test_used_bytes_tracks_contents(self):
        cache = Cache()
        assert cache.used_bytes() == 0
        store(cache, "d1(X, Y) :- b1(X, Y)")
        assert cache.used_bytes() > 0

    def test_clear(self):
        cache = Cache()
        store(cache, "d1(X, Y) :- b1(X, Y)")
        cache.clear()
        assert len(cache) == 0
        assert cache.used_bytes() == 0


class CountingRows(list):
    """A row list that counts every row it hands out."""

    visited = 0

    def __iter__(self):
        for row in list.__iter__(self):
            self.visited += 1
            yield row

    def __getitem__(self, index):
        out = list.__getitem__(self, index)
        self.visited += len(out) if isinstance(index, slice) else 1
        return out


class TestAdmissionCost:
    """Storing an element costs rows of that element, not of the cache."""

    ROWS_EACH = 5

    def counted_store(self, cache, n):
        psj = make_psj(f"d{n}(X, Y) :- b{n}(X, Y)")
        rows = CountingRows(make_relation(psj.name, self.ROWS_EACH).rows)
        relation = Relation.from_distinct_rows(result_schema(psj.name, 2), rows)
        rows.visited = 0  # construction hashed every row once
        cache.store(psj, relation, derivation_seconds=1.0)
        return rows

    def test_nth_store_visits_only_its_own_rows(self):
        cache = Cache()
        resident = [self.counted_store(cache, n) for n in range(20)]
        assert [rows.visited for rows in resident] == [self.ROWS_EACH] * 20
        for rows in resident:
            rows.visited = 0
        incoming = self.counted_store(cache, 20)
        assert incoming.visited == self.ROWS_EACH
        assert [rows.visited for rows in resident] == [0] * 20
        cache.used_bytes()
        assert incoming.visited == self.ROWS_EACH

    def test_eviction_rounds_do_not_rescan_candidates(self):
        probe = Cache()
        self.counted_store(probe, 0)
        cache = Cache(capacity_bytes=4 * probe.used_bytes())  # room for four
        resident = [self.counted_store(cache, n) for n in range(4)]
        for rows in resident:
            rows.visited = 0
        for n in range(4, 10):  # every store scores and evicts a victim
            self.counted_store(cache, n)
        assert cache.eviction_count == 6
        assert [rows.visited for rows in resident] == [0] * 4

    def test_making_room_sizes_the_cache_once_however_many_it_evicts(self, monkeypatch):
        probe = Cache()
        self.counted_store(probe, 0)
        one = probe.used_bytes()
        cache = Cache(capacity_bytes=6 * one)
        for n in range(6):
            self.counted_store(cache, n)
        sizings = []
        used_bytes = Cache.used_bytes
        monkeypatch.setattr(
            Cache, "used_bytes", lambda self: sizings.append(1) or used_bytes(self)
        )
        # An element three times the size pushes three residents out.
        psj = make_psj("big(X, Y) :- b9(X, Y)")
        cache.store(psj, make_relation(psj.name, 3 * self.ROWS_EACH + 2), derivation_seconds=1.0)
        assert cache.eviction_count == 3 and len(sizings) == 1
        assert sorted(e.view_name for e in cache.elements()) == ["big", "d3", "d4", "d5"]
        monkeypatch.undo()
        cache.check_invariants()  # the from-scratch recount agrees

    def sizings_by_the_next_store(self, monkeypatch, resident):
        cache = Cache()
        for n in range(resident):
            self.counted_store(cache, n)
        sized = []
        estimated_bytes = CacheElement.estimated_bytes
        monkeypatch.setattr(
            CacheElement,
            "estimated_bytes",
            lambda self: sized.append(self.view_name) or estimated_bytes(self),
        )
        self.counted_store(cache, resident)
        monkeypatch.undo()
        cache.check_invariants()  # the running total equals the recount
        return sized

    def test_nth_store_sizes_only_the_incoming_element(self, monkeypatch):
        # The byte total runs: admitting an extension reads no resident size.
        few = self.sizings_by_the_next_store(monkeypatch, 10)
        many = self.sizings_by_the_next_store(monkeypatch, 100)
        assert len(few) == len(many)
        assert set(few) == {"d10"} and set(many) == {"d100"}

    def test_a_growing_generator_memo_is_sized_by_what_was_added(self):
        cache = Cache()
        psj = make_psj("d1(X, Y) :- b1(X, Y)")
        gen = generator_from_rows(result_schema("d1", 2), [(i, "x" * 20) for i in range(6)])
        element = cache.store(psj, gen)
        assert cache.used_bytes() == 64
        list(islice(gen, 2))
        assert cache.used_bytes() == 64 + 2 * (16 + 24)
        list(islice(gen, 5))
        rows = gen._memo._rows = CountingRows(gen._memo._rows)
        assert cache.used_bytes() == element.estimated_bytes() == 64 + 5 * (16 + 24)
        assert rows.visited == 3
        cache.check_invariants()


class TestCacheElement:
    def test_generator_element(self):
        psj = make_psj("d1(X, Y) :- b1(X, Y)")
        schema = result_schema("d1", 2)
        gen = generator_from_rows(schema, [(1, 2), (3, 4)])
        element = CacheElement("E1", psj, gen)
        assert element.is_generator
        assert element.rows_materialized() == 0
        next(iter(gen))
        assert element.rows_materialized() == 1

    def test_indexes_promote_generator(self):
        psj = make_psj("d1(X, Y) :- b1(X, Y)")
        gen = generator_from_rows(result_schema("d1", 2), [(1, 2), (3, 4)])
        element = CacheElement("E1", psj, gen)
        indexes = element.indexes()
        index = indexes.ensure(("a0",))
        assert index.lookup((1,)) == [(1, 2)]

    def test_has_index_on(self):
        psj = make_psj("d1(X, Y) :- b1(X, Y)")
        element = CacheElement("E1", psj, make_relation("d1", 2))
        assert not element.has_index_on(("a0",))
        element.indexes().ensure(("a0",))
        assert element.has_index_on(("a0",))

    def test_view_name(self):
        psj = make_psj("d7(X, Y) :- b1(X, Y)")
        element = CacheElement("E1", psj, make_relation("d7", 1))
        assert element.view_name == "d7"

