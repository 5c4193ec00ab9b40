"""Tests for cache pins, discards and epochs."""

from itertools import islice

import pytest

from repro.common.errors import CacheError
from repro.relational.generator import generator_from_rows
from repro.relational.relation import Relation
from repro.caql.parser import parse_query
from repro.caql.eval import psj_of, result_schema
from repro.core.cache import Cache
from repro.core.cms import CacheManagementSystem
from repro.remote.server import RemoteDBMS
from repro.workloads.synthetic import selection_universe


def make_psj(text):
    return psj_of(parse_query(text))


def make_relation(name, n, width=2):
    schema = result_schema(name, width)
    return Relation(
        schema, [tuple(f"{name}{i}_{j}" for j in range(width)) for i in range(n)]
    )


def store(cache, text, rows=5):
    psj = make_psj(text)
    return cache.store(psj, make_relation(psj.name, rows, max(psj.arity, 1)))


class TestPinCounts:
    def test_pin_unpin_balance(self):
        cache = Cache()
        element = store(cache, "d1(X, Y) :- b1(X, Y)")
        cache.pin(element)
        cache.pin(element)
        assert element.pin_count == 2
        assert element.pinned
        cache.unpin(element)
        assert element.pinned
        cache.unpin(element)
        assert not element.pinned

    def test_unmatched_unpin_rejected(self):
        cache = Cache()
        element = store(cache, "d1(X, Y) :- b1(X, Y)")
        with pytest.raises(CacheError):
            cache.unpin(element)

    def test_pinned_element_survives_replacement(self):
        cache = Cache(capacity_bytes=320)  # room for exactly two elements
        e1 = store(cache, "d1(X, Y) :- b1(X, Y)")
        e2 = store(cache, "d2(X, Y) :- b2(X, Y)")
        cache.pin(e2)  # e1 is more recent, but e2 is protected
        cache.touch(e1)
        store(cache, "d3(X, Y) :- b3(X, Y)")
        assert e2.element_id in cache
        assert e1.element_id not in cache


class TestDiscard:
    def test_discard_of_a_pinned_element_raises(self):
        # A pin is held by a plan that is executing: discarding its
        # element is refused, and the element stays live and indexed.
        cache = Cache()
        element = store(cache, "d1(X, Y) :- b1(X, Y)")
        cache.pin(element)
        with pytest.raises(CacheError, match="pinned"):
            cache.discard(element.element_id)
        assert element.element_id in cache
        assert cache.lookup_exact(make_psj("other(A, B) :- b1(A, B)")) is element
        assert cache.elements_for_predicate("b1") == [element]
        assert cache.used_bytes() == element.estimated_bytes()
        cache.check_invariants()
        cache.unpin(element)
        cache.discard(element.element_id)
        assert element.element_id not in cache

    def test_running_byte_total_across_discards(self):
        cache = Cache()
        kept = store(cache, "d1(X, Y) :- b1(X, Y)")
        doomed = store(cache, "d2(X, Y) :- b2(X, Y)", rows=7)
        lazy = generator_from_rows(result_schema("d3", 2), [(i, i) for i in range(4)])
        growing = cache.store(make_psj("d3(X, Y) :- b3(X, Y)"), lazy)
        # A resident generator's memo grows while its stream is read.
        list(islice(lazy, 3))
        assert cache.used_bytes() == cache._summed_bytes() == sum(
            e.estimated_bytes() for e in (kept, doomed, growing)
        )
        cache.check_invariants()
        for element in (doomed, growing):
            cache.discard(element.element_id)
            assert cache.used_bytes() == cache._summed_bytes()
            cache.check_invariants()
        assert cache.used_bytes() == kept.estimated_bytes()

    def test_unpinned_discard_reclaims_immediately(self):
        cache = Cache()
        element = store(cache, "d1(X, Y) :- b1(X, Y)")
        cache.discard(element.element_id)
        assert element.element_id not in cache
        assert cache.used_bytes() == 0


class TestEpochs:
    def test_store_and_discard_bump_epoch(self):
        cache = Cache()
        assert cache.epoch == 0
        element = store(cache, "d1(X, Y) :- b1(X, Y)")
        assert cache.epoch == 1
        assert element.epoch == 1
        cache.discard(element.element_id)
        assert cache.epoch == 2

    def test_reusing_store_does_not_bump(self):
        cache = Cache()
        store(cache, "d1(X, Y) :- b1(X, Y)")
        store(cache, "renamed(A, B) :- b1(A, B)")  # same canonical key
        assert cache.epoch == 1

    def test_clear_bumps_epoch(self):
        cache = Cache()
        store(cache, "d1(X, Y) :- b1(X, Y)")
        cache.clear()
        assert cache.epoch == 2


class TestStaleReplan:
    def make_cms(self):
        remote = RemoteDBMS()
        for table in selection_universe(rows=30, seed=5).tables:
            remote.load_table(table)
        cms = CacheManagementSystem(remote)
        cms.begin_session()
        return cms

    def test_an_exact_hit_never_reads_a_retired_element(self):
        # The exact tier has no plan to go stale: the lookup and the read
        # are one call, so a retired element is simply not found.
        cms = self.make_cms()
        expected = sorted(
            cms.query(parse_query("q(I, V) :- item(I, cat0, V)")).fetch_all()
        )
        respelled = psj_of(parse_query("q2(I, V) :- item(I, cat0, V)"))
        (element,) = cms.cache.elements()
        assert cms.planner.exact_hit(respelled).element is element
        cms.cache.clear()
        assert cms.planner.exact_hit(respelled) is None
        rows = cms.query(parse_query("q2(I, V) :- item(I, cat0, V)")).fetch_all()
        assert sorted(rows) == expected
