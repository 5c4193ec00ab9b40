"""Tests for cache concurrency control: pins, condemnation, epochs."""

from itertools import islice

import pytest

from repro.common.errors import CacheError
from repro.common.metrics import CACHE_PIN_DEFERRALS, CACHE_STALE_REPLANS, Metrics
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


class TestCondemnation:
    def test_discard_while_pinned_defers_reclaim(self):
        metrics = Metrics()
        cache = Cache(metrics=metrics)
        element = store(cache, "d1(X, Y) :- b1(X, Y)")
        cache.pin(element)
        cache.discard(element.element_id)
        # Logically gone: lookups and subsumption cannot find it...
        assert element.element_id not in cache
        assert cache.lookup_exact(make_psj("other(A, B) :- b1(A, B)")) is None
        assert cache.elements_for_predicate("b1") == []
        # ...but physically resident and accounted until the pin drops.
        assert element.condemned
        assert cache.used_bytes() > 0
        assert cache.reclaim_count == 0
        assert metrics.get(CACHE_PIN_DEFERRALS) == 1

    def test_reclaimed_exactly_once_on_last_unpin(self):
        cache = Cache()
        element = store(cache, "d1(X, Y) :- b1(X, Y)")
        cache.pin(element)
        cache.pin(element)
        cache.discard(element.element_id)
        cache.unpin(element)
        assert cache.reclaim_count == 0  # one pin still holds it
        cache.unpin(element)
        assert cache.reclaim_count == 1
        assert cache.used_bytes() == 0
        # No way to double-reclaim: the pin ledger is already empty.
        with pytest.raises(CacheError):
            cache.unpin(element)
        assert cache.reclaim_count == 1

    def test_running_byte_total_across_condemn_and_last_unpin(self):
        cache = Cache()
        kept = store(cache, "d1(X, Y) :- b1(X, Y)")
        doomed = store(cache, "d2(X, Y) :- b2(X, Y)", rows=7)
        lazy = generator_from_rows(result_schema("d3", 2), [(i, i) for i in range(4)])
        growing = cache.store(make_psj("d3(X, Y) :- b3(X, Y)"), lazy)
        for element in (doomed, growing):
            cache.pin(element)
            cache.discard(element.element_id)
        # Condemned elements still occupy their bytes, and a condemned
        # generator's memo still grows while its stream is read.
        list(islice(lazy, 3))
        assert cache.used_bytes() == cache._summed_bytes() == sum(
            e.estimated_bytes() for e in (kept, doomed, growing)
        )
        cache.check_invariants()
        for element in (doomed, growing):
            cache.unpin(element)
            assert cache.used_bytes() == cache._summed_bytes()
            cache.check_invariants()
        assert cache.used_bytes() == kept.estimated_bytes()

    def test_unpinned_discard_reclaims_immediately(self):
        cache = Cache()
        element = store(cache, "d1(X, Y) :- b1(X, Y)")
        cache.discard(element.element_id)
        assert cache.reclaim_count == 1
        assert not element.condemned

    def test_condemned_element_stays_readable(self):
        # The whole point: an in-flight stream over a condemned element
        # keeps producing correct rows until its consumer is done.
        cache = Cache()
        element = store(cache, "d1(X, Y) :- b1(X, Y)", rows=3)
        cache.pin(element)
        cache.discard(element.element_id)
        assert len(element.extension()) == 3


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

    def test_validate(self):
        cache = Cache()
        element = store(cache, "d1(X, Y) :- b1(X, Y)")
        assert cache.validate(element)
        cache.discard(element.element_id)
        assert not cache.validate(element)


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
        assert cms.metrics.get(CACHE_STALE_REPLANS) == 0

    def test_executor_detects_invalidated_derived_plan(self):
        from repro.common.errors import StalePlanError

        cms = self.make_cms()
        cms.query(parse_query("q(I, V) :- item(I, cat0, V)")).fetch_all()
        # A subsumption-derived plan holds direct element references; the
        # epoch tag forces their re-validation at execution time.
        plan = cms.planner.plan(
            psj_of(parse_query("q2(I, V) :- item(I, cat0, V), V >= 100"))
        )
        assert plan.cache_elements()
        assert plan.epoch == cms.cache.epoch
        cms.cache.clear()
        assert plan.epoch != cms.cache.epoch
        with pytest.raises(StalePlanError):
            cms.monitor.execute(plan)

    def test_cms_replans_and_answers_correctly(self, monkeypatch):
        from repro.common.errors import StalePlanError

        cms = self.make_cms()
        warm = cms.query(parse_query("q(I, V) :- item(I, cat0, V)")).fetch_all()
        expected = sorted(row for row in warm if row[1] >= 300)
        calls = {"n": 0}
        real_execute = cms.monitor.execute

        def invalidated_once(plan):
            if calls["n"] == 0:
                calls["n"] += 1
                raise StalePlanError("concurrent invalidation")
            return real_execute(plan)

        monkeypatch.setattr(cms.monitor, "execute", invalidated_once)
        # A derived (not exact) answer: only a plan can go stale.
        rows = sorted(
            cms.query(
                parse_query("q2(I, V) :- item(I, cat0, V), V >= 300")
            ).fetch_all()
        )
        assert rows == expected
        assert cms.metrics.get(CACHE_STALE_REPLANS) == 1
