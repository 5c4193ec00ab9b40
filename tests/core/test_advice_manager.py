"""Tests for the Advice Manager's decision logic."""

from repro.caql.parser import parse_query
from repro.caql.eval import psj_of, result_schema
from repro.relational.relation import Relation
from repro.advice.language import AdviceSet
from repro.advice.path_expression import (
    Alternation,
    Cardinality,
    QueryPattern,
    Sequence,
)
from repro.advice.view_spec import annotate
from repro.core.advice_manager import AdviceManager, _views_under_repetition
from repro.core.cache import Cache


def advised_cache(manager):
    """A cache whose replacement follows ``manager``'s advice."""
    cache = Cache()
    cache.replacement.advice = manager
    return cache


def store_view(cache, view_text):
    psj = psj_of(parse_query(view_text))
    return cache.store(psj, Relation(result_schema(psj.name, max(psj.arity, 1))))


def paper_advice():
    """Example 1 of the paper: d1 then (d2, d3) repeated."""
    d1 = annotate(parse_query("d1(Y) :- b1(c1, Y)"), "^", rule_ids=("R1",))
    d2 = annotate(parse_query("d2(X, Y) :- b2(X, Z), b3(Z, c2, Y)"), "^?", rule_ids=("R2",))
    d3 = annotate(parse_query("d3(X, Y) :- b3(X, c3, Z), b1(Z, Y)"), "^?", rule_ids=("R3",))
    inner = Sequence(
        (QueryPattern("d2", ("X^", "Y?")), QueryPattern("d3", ("X^", "Y?"))),
        lower=0,
        upper=Cardinality("Y"),
    )
    path = Sequence((QueryPattern("d1", ("Y^",)), inner), lower=1, upper=1)
    return AdviceSet.from_views([d1, d2, d3], path_expression=path)


def manager_with(advice):
    manager = AdviceManager()
    manager.begin_session(advice)
    return manager


class TestSessionLifecycle:
    def test_no_advice(self):
        manager = manager_with(None)
        assert manager.advice.is_empty()
        assert manager.tracker is None

    def test_with_advice(self):
        manager = manager_with(paper_advice())
        assert not manager.advice.is_empty()
        assert manager.tracker is not None

    def test_new_session_replaces_old(self):
        manager = manager_with(paper_advice())
        manager.begin_session(None)
        assert manager.advice.is_empty()


class TestRepetitionDetection:
    def test_views_under_repetition(self):
        advice = paper_advice()
        repeating = _views_under_repetition(advice.path_expression)
        assert repeating == {"d2", "d3"}

    def test_unbounded_counts_as_repeating(self):
        expr = Sequence((QueryPattern("d9"),), lower=0, upper=None)
        assert _views_under_repetition(expr) == {"d9"}

    def test_alternation_inherits_repetition(self):
        expr = Sequence(
            (Alternation((QueryPattern("a"), QueryPattern("b"))),),
            lower=0,
            upper=5,
        )
        assert _views_under_repetition(expr) == {"a", "b"}


class TestDecisions:
    def test_index_positions(self):
        manager = manager_with(paper_advice())
        assert manager.index_positions("d2") == (1,)
        assert manager.index_positions("d1") == ()
        assert manager.index_positions("unknown") == ()

    def test_prefers_lazy_only_pure_producers(self):
        manager = manager_with(paper_advice())
        assert manager.prefers_lazy("d1")
        assert not manager.prefers_lazy("d2")
        assert not manager.prefers_lazy("unknown")

    def test_should_generalize(self):
        manager = manager_with(paper_advice())
        assert manager.should_generalize("d2")  # consumer + repetition
        assert not manager.should_generalize("d1")  # no consumers
        assert not manager.should_generalize("unknown")

    def test_should_cache_result_default_true(self):
        manager = manager_with(None)
        assert manager.should_cache_result("anything")

    def test_pure_producer_not_cached_when_never_needed_again(self):
        d1 = annotate(parse_query("d1(Y) :- b1(c1, Y)"), "^")
        path = Sequence((QueryPattern("d1"),), lower=1, upper=1)
        manager = manager_with(AdviceSet.from_views([d1], path_expression=path))
        manager.observe_query("d1")
        # d1 consumed its single occurrence: no predicted request left.
        assert not manager.should_cache_result("d1")

    def test_consumer_views_always_cached(self):
        manager = manager_with(paper_advice())
        manager.observe_query("d1")
        assert manager.should_cache_result("d2")


class TestPrefetch:
    def test_companions_suggested(self):
        manager = manager_with(paper_advice())
        manager.observe_query("d1")
        manager.observe_query("d2")
        assert manager.prefetch_candidates("d2") == ["d3"]

    def test_no_path_no_prefetch(self):
        d1 = annotate(parse_query("d1(Y) :- b1(c1, Y)"), "^")
        manager = manager_with(AdviceSet.from_views([d1]))
        assert manager.prefetch_candidates("d1") == []

    def test_unreachable_companions_dropped(self):
        # After the whole inner group is spent (upper bound 1), the
        # companion prediction must not resurrect it.
        d2 = annotate(parse_query("d2(X, Y) :- b2(X, Z), b3(Z, c2, Y)"), "^?")
        d3 = annotate(parse_query("d3(X, Y) :- b3(X, c3, Z), b1(Z, Y)"), "^?")
        path = Sequence((QueryPattern("d2"), QueryPattern("d3")), lower=1, upper=1)
        manager = manager_with(AdviceSet.from_views([d2, d3], path_expression=path))
        manager.observe_query("d2")
        manager.observe_query("d3")
        assert manager.prefetch_candidates("d3") == []


class TestReplacementScorer:
    """Advice as replacement classes, read through a cache's victim order."""

    def test_without_tracker_is_lru(self):
        cache = advised_cache(manager_with(None))
        old = store_view(cache, "d1(Y) :- b1(c1, Y)")
        store_view(cache, "d2(X, Y) :- b2(X, Y)")
        assert cache._pick_victim(set()) is old

    def test_unreachable_views_evicted_first(self):
        manager = manager_with(paper_advice())
        manager.observe_query("d1")  # d1 cannot recur (outer <1,1>)
        cache = advised_cache(manager)
        store_view(cache, "d2(X, Y) :- b2(X, Z), b3(Z, c2, Y)")  # least recent
        d1_element = store_view(cache, "d1(Y) :- b1(c1, Y)")
        # Advice overrides LRU: d1 is dead, d2 is needed next.
        assert manager.replacement_ranks()("d1") < manager.replacement_ranks()("d2")
        assert cache._pick_victim(set()) is d1_element

    def test_nearer_views_better_protected(self):
        manager = manager_with(paper_advice())
        manager.observe_query("d1")
        cache = advised_cache(manager)
        store_view(cache, "d2(X, Y) :- b2(X, Z), b3(Z, c2, Y)")
        d3_element = store_view(cache, "d3(X, Y) :- b3(X, c3, Z), b1(Z, Y)")
        # d2 is predicted next (distance 1), d3 after it (distance 2).
        assert cache._pick_victim(set()) is d3_element
