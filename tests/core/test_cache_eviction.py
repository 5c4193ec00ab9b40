"""Eviction: cost-based victim order, the pin rules, and answers that
stay correct however much a small cache churns."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.metrics import REMOTE_REQUESTS
from repro.relational.relation import Relation
from repro.caql.parser import parse_query
from repro.caql.eval import psj_of, result_schema
from repro.core.cache import Cache

from tests.core.test_semijoin_widening import (
    DRILL,
    SELECT,
    TIGHTER,
    build_cms,
    ground_truth,
    run,
)


def make_psj(text):
    return psj_of(parse_query(text))


def make_relation(name, n, width=2):
    schema = result_schema(name, width)
    return Relation(
        schema, [tuple(f"{name}{i}_{j}" for j in range(width)) for i in range(n)]
    )


def store(cache, text, rows=5, **kwargs):
    psj = make_psj(text)
    return cache.store(
        psj, make_relation(psj.name, rows, max(psj.arity, 1)), **kwargs
    )


class TestCostScorer:
    """Cost-based replacement, read through the victim order."""

    def test_zero_derivation_degrades_to_lru(self):
        cache = Cache()
        older = store(cache, "a1(X, Y) :- b1(X, Y)")
        newer = store(cache, "a2(X, Y) :- b2(X, Y)")
        assert cache._pick_victim(set()) is older
        cache.touch(older)
        assert cache._pick_victim(set()) is newer

    def test_expensive_reused_element_outlives_recency(self):
        cache = Cache()
        expensive = store(
            cache, "a1(X, Y) :- b1(X, Y)", derivation_seconds=2.0
        )
        cache.touch(expensive)  # observed reuse
        cheap_but_recent = store(cache, "a2(X, Y) :- b2(X, Y)")
        cache.touch(cheap_but_recent)
        cache.touch(cheap_but_recent)
        # The cheap element goes first despite being more recently used.
        assert cache._pick_victim(set()) is cheap_but_recent


class TestPinnedIntermediate:
    """A pin guards the element it is on, and nothing else: an
    intermediate's rows are self-contained, so the view a semijoin fetch
    was reduced by can go while the fetch is pinned."""

    def test_the_view_behind_a_pinned_semijoin_fetch_can_be_the_victim(self):
        cms = build_cms(intermediates=True)
        run(cms, SELECT)
        run(cms, DRILL)
        cache = cms.cache
        (view,) = [e for e in cache.elements() if e.view_name == "s"]
        (fetched,) = [e for e in cache.elements() if e.operator == "semijoin-fetch"]
        rows = sorted(fetched.extension())
        others = {e.element_id for e in cache.elements()} - {
            view.element_id,
            fetched.element_id,
        }
        cache.pin(fetched)
        try:
            assert cache._pick_victim(others) is view
            # Room for one byte more than is free: exactly one eviction.
            cache._make_room(cache.capacity_bytes - cache.used_bytes() + 1, others)
            assert view.element_id not in cache and fetched.element_id in cache
            assert sorted(fetched.extension()) == rows
            requests = cms.metrics.get(REMOTE_REQUESTS)
            assert run(cms, TIGHTER) == ground_truth("cat3", 700)
            assert cms.metrics.get(REMOTE_REQUESTS) == requests
        finally:
            cache.unpin(fetched)
        cache.check_invariants()


class TestSignatureFollowsDefinition:
    """The containment signature is derived from the definition and goes
    wherever it goes: a stale one would rename conditions onto the wrong
    occurrence tags."""

    INTERMEDIATE = "m(X, Z) :- b2(Y, Z), b1(X, Y), X >= 3"
    VIEW = "v(X, Z) :- b1(X, Y), b2(Y, Z), X >= 3"  # same key, tags swapped

    def test_a_view_stored_over_an_intermediate_keeps_what_was_stored(self):
        # A whole-query fetch is stored once, by the CMS, so a view never
        # lands on its own fetch's intermediate; one stored over another
        # intermediate of its key finds that element as it was stored.
        from repro.caql.implication import ContainmentSignature

        cache = Cache()
        element = store(cache, self.INTERMEDIATE, kind="intermediate")
        before = element.signature
        assert store(cache, self.VIEW) is element
        assert element.kind == "intermediate" and element.definition.name == "m"
        assert element.signature is before
        assert before == ContainmentSignature.of(make_psj(self.INTERMEDIATE))
        cache.check_invariants()

    def test_a_definition_swapped_behind_the_signature_takes_its_own_along(self):
        # The fault the audit used to catch — a definition replaced behind
        # the cache's back, leaving a stale stored signature — cannot be built
        # any more: the signature is read off whatever definition is there.
        from repro.caql.implication import ContainmentSignature

        cache = Cache()
        element = store(cache, self.INTERMEDIATE, kind="intermediate")
        swapped = make_psj(self.VIEW)
        element.definition = swapped
        assert element.signature is ContainmentSignature.of(swapped)
        assert element.signature == ContainmentSignature.of(make_psj(self.VIEW))
        cache.check_invariants()

    def test_one_definition_one_signature_whoever_holds_it(self):
        from repro.core.cache import StaleArchive

        cache, archive = Cache(), StaleArchive()
        psj = make_psj(self.VIEW)
        relation = Relation(result_schema("v", 2), [(3, 4)])
        element = cache.store(psj, relation)
        archive.store(psj, relation)
        archived = archive.find_full(psj).element
        assert archived is not element
        assert archived.signature is element.signature


class TestEvictionCorrectnessProperty:
    """Any eviction sequence preserves answer correctness: a CMS on a
    tiny, churning cache must produce exactly the answers of one with an
    effectively infinite cache, query for query."""

    @pytest.mark.parametrize("seed", range(4))
    def test_tiny_cache_answers_match_infinite_cache(self, seed):
        from repro.remote.server import RemoteDBMS
        from repro.core.cms import CacheManagementSystem, CMSFeatures
        from repro.workloads.synthetic import retail_universe

        rng = random.Random(seed)
        tables = retail_universe(rows=60, orders=120, domain=100, seed=seed).tables

        def build(capacity):
            remote = RemoteDBMS()
            for table in tables:
                remote.load_table(table)
            cms = CacheManagementSystem(
                remote,
                capacity_bytes=capacity,
                features=CMSFeatures(intermediates=True),
            )
            cms.begin_session()
            return cms

        tiny, infinite = build(900), build(50_000_000)
        queries = []
        for index in range(14):
            cat = rng.randrange(6)
            threshold = rng.randrange(100)
            if rng.random() < 0.5:
                text = (
                    f"q{index}(I, V) :- item(I, cat{cat}, V), V >= {threshold}"
                )
            else:
                text = (
                    f"q{index}(I, Q) :- item(I, cat{cat}, V), ord(I, Q), "
                    f"V >= {threshold}"
                )
            queries.append(parse_query(text))
        for query in queries:
            got = sorted(tiny.query(query).fetch_all())
            want = sorted(infinite.query(query).fetch_all())
            assert got == want, f"{query.name}: tiny-cache answer diverged"
            tiny.cache.check_invariants()
        assert tiny.cache.eviction_count > 0, "workload never churned"

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),  # category
                st.integers(min_value=0, max_value=99),  # threshold
                st.booleans(),  # selection vs drill-down join
            ),
            min_size=4,
            max_size=10,
        )
    )
    def test_any_query_sequence_survives_eviction(self, shapes):
        """Hypothesis drives the shapes: whatever overlapping sequence of
        selections and drills runs against a cache too small to hold it,
        every answer matches direct evaluation on a churn-free cache and
        the cache's invariants hold after every step."""
        from repro.remote.server import RemoteDBMS
        from repro.core.cms import CacheManagementSystem, CMSFeatures
        from repro.workloads.synthetic import retail_universe

        tables = retail_universe(rows=50, orders=100, domain=100, seed=7).tables

        def build(capacity):
            remote = RemoteDBMS()
            for table in tables:
                remote.load_table(table)
            cms = CacheManagementSystem(
                remote,
                capacity_bytes=capacity,
                features=CMSFeatures(intermediates=True),
            )
            cms.begin_session()
            return cms

        tiny, infinite = build(700), build(50_000_000)
        for index, (cat, threshold, is_join) in enumerate(shapes):
            if is_join:
                text = (
                    f"q{index}(I, Q) :- item(I, cat{cat}, V), ord(I, Q), "
                    f"V >= {threshold}"
                )
            else:
                text = (
                    f"q{index}(I, V) :- item(I, cat{cat}, V), V >= {threshold}"
                )
            query = parse_query(text)
            got = sorted(tiny.query(query).fetch_all())
            want = sorted(infinite.query(query).fetch_all())
            assert got == want, f"{text}: answer diverged under eviction"
            tiny.cache.check_invariants()
