"""Tests for the comparison baselines."""

import pytest

from repro.common.metrics import (
    CACHE_HITS_EXACT,
    CACHE_MISSES,
    REMOTE_REQUESTS,
    REMOTE_TUPLES,
)
from repro.relational.relation import relation_from_columns
from repro.remote.server import RemoteDBMS
from repro.caql.parser import parse_query
from repro.baselines.exact_cache import ExactMatchCache
from repro.baselines.loose import LooseCoupling
from repro.baselines.relation_cache import SingleRelationBuffer


def make_server():
    server = RemoteDBMS()
    server.load_table(
        relation_from_columns(
            "parent",
            par=["tom", "tom", "bob", "bob"],
            child=["bob", "liz", "ann", "pat"],
        )
    )
    server.load_table(
        relation_from_columns(
            "age", person=["tom", "bob", "liz", "ann", "pat"], years=[60, 35, 33, 8, 10]
        )
    )
    return server


TOM_KIDS = parse_query("q(Y) :- parent(tom, Y)")
BOB_KIDS = parse_query("q(Y) :- parent(bob, Y)")
JOIN = parse_query("j(X, A) :- parent(X, Y), age(Y, A), A < 20")


class TestAnswersAgree:
    """All baselines must return the same answers as direct evaluation."""

    @pytest.mark.parametrize("cls", [LooseCoupling, ExactMatchCache, SingleRelationBuffer])
    def test_selection(self, cls):
        bridge = cls(make_server())
        assert set(bridge.query(TOM_KIDS).fetch_all()) == {("bob",), ("liz",)}

    @pytest.mark.parametrize("cls", [LooseCoupling, ExactMatchCache, SingleRelationBuffer])
    def test_join(self, cls):
        bridge = cls(make_server())
        assert set(bridge.query(JOIN).fetch_all()) == {("bob", 8), ("bob", 10)}

    @pytest.mark.parametrize("cls", [LooseCoupling, ExactMatchCache, SingleRelationBuffer])
    def test_unsatisfiable(self, cls):
        bridge = cls(make_server())
        query = parse_query("q(Y) :- parent(tom, Y), 1 > 2")
        assert bridge.query(query).fetch_all() == []

    @pytest.mark.parametrize("cls", [LooseCoupling, ExactMatchCache, SingleRelationBuffer])
    def test_evaluable_residue(self, cls):
        bridge = cls(make_server())
        query = parse_query("q(X, S) :- age(X, A), plus(A, 1, S), A > 30")
        assert set(bridge.query(query).fetch_all()) == {
            ("tom", 61), ("bob", 36), ("liz", 34),
        }


class TestLooseCoupling:
    def test_every_query_goes_remote(self):
        bridge = LooseCoupling(make_server())
        bridge.query(TOM_KIDS).fetch_all()
        data_requests_after_first = bridge.metrics.get(REMOTE_REQUESTS)
        bridge.query(TOM_KIDS).fetch_all()
        assert bridge.metrics.get(REMOTE_REQUESTS) > data_requests_after_first

    def test_misses_counted(self):
        bridge = LooseCoupling(make_server())
        bridge.query(TOM_KIDS)
        bridge.query(TOM_KIDS)
        assert bridge.metrics.get(CACHE_MISSES) == 2

    def test_advice_accepted_and_ignored(self):
        bridge = LooseCoupling(make_server())
        bridge.begin_session(None)
        bridge.query(TOM_KIDS)


class TestExactMatchCache:
    def test_exact_repeat_hits(self):
        bridge = ExactMatchCache(make_server())
        bridge.query(TOM_KIDS).fetch_all()
        before = bridge.metrics.get(REMOTE_REQUESTS)
        bridge.query(TOM_KIDS).fetch_all()
        assert bridge.metrics.get(REMOTE_REQUESTS) == before
        assert bridge.metrics.get(CACHE_HITS_EXACT) == 1

    def test_subsumable_query_still_misses(self):
        """The defining limitation: no reuse without an exact match."""
        bridge = ExactMatchCache(make_server())
        scan = parse_query("s(X, Y) :- parent(X, Y)")
        bridge.query(scan).fetch_all()
        bridge.query(TOM_KIDS).fetch_all()  # derivable, but not exact
        assert bridge.metrics.get(CACHE_MISSES) == 2

    def test_lru_capacity(self):
        bridge = ExactMatchCache(make_server(), capacity_bytes=150)
        bridge.query(TOM_KIDS).fetch_all()
        bridge.query(BOB_KIDS).fetch_all()
        bridge.query(JOIN).fetch_all()
        assert bridge.used_bytes() <= 150

    def test_oversized_result_not_cached(self):
        bridge = ExactMatchCache(make_server(), capacity_bytes=10)
        bridge.query(TOM_KIDS).fetch_all()
        assert bridge.used_bytes() == 0

    def test_variable_renaming_still_exact(self):
        bridge = ExactMatchCache(make_server())
        bridge.query(parse_query("a(Y) :- parent(tom, Y)")).fetch_all()
        bridge.query(parse_query("b(W) :- parent(tom, W)")).fetch_all()
        assert bridge.metrics.get(CACHE_HITS_EXACT) == 1


class TestSingleRelationBuffer:
    def test_whole_relations_shipped(self):
        bridge = SingleRelationBuffer(make_server())
        bridge.query(TOM_KIDS).fetch_all()
        # All 4 parent tuples crossed the wire for a 2-tuple answer.
        assert bridge.metrics.get(REMOTE_TUPLES) == 4

    def test_reuse_across_different_selections(self):
        bridge = SingleRelationBuffer(make_server())
        bridge.query(TOM_KIDS).fetch_all()
        before = bridge.metrics.get(REMOTE_REQUESTS)
        bridge.query(BOB_KIDS).fetch_all()  # same relation: no new request
        assert bridge.metrics.get(REMOTE_REQUESTS) == before

    def test_joins_run_locally(self):
        bridge = SingleRelationBuffer(make_server())
        bridge.query(JOIN).fetch_all()
        assert bridge.metrics.get(REMOTE_TUPLES) == 9  # parent(4) + age(5)
        before = bridge.metrics.get(REMOTE_REQUESTS)
        bridge.query(JOIN).fetch_all()  # both relations are buffered now
        assert bridge.metrics.get(REMOTE_REQUESTS) == before

    def test_lru_eviction(self):
        bridge = SingleRelationBuffer(make_server(), capacity_bytes=90)
        bridge.query(TOM_KIDS).fetch_all()
        bridge.query(parse_query("q(X, A) :- age(X, A)")).fetch_all()
        assert 0 < bridge.used_bytes() <= 90  # one relation fits, not two
