"""Tests for the derivation DAG, cost-based replacement, and the
eviction-safety invariants behind operator-level intermediate caching."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.clock import SimClock
from repro.common.errors import InvariantViolation
from repro.relational.relation import Relation
from repro.caql.parser import parse_query
from repro.caql.eval import psj_of, result_schema
from repro.core.cache import Cache


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


class TestLineage:
    def test_parents_and_depth(self):
        cache = Cache()
        root = store(cache, "r1(X, Y) :- b1(X, Y)")
        child = store(
            cache,
            "c1(X, Y) :- b1(X, Y), X >= 3",
            kind="intermediate",
            parents=(root.element_id,),
            operator="select-project",
        )
        grand = store(
            cache,
            "g1(X) :- b1(X, Y), X >= 5",
            kind="intermediate",
            parents=(child.element_id,),
            operator="select-project",
        )
        assert root.depth == 0 and child.depth == 1 and grand.depth == 2
        assert child.parents == (root.element_id,)
        assert grand.parents == (child.element_id,)
        cache.check_invariants()

    def test_retired_parent_ids_are_dropped_at_store(self):
        cache = Cache()
        root = store(cache, "r1(X, Y) :- b1(X, Y)")
        cache.discard(root.element_id)
        child = store(
            cache,
            "c1(X, Y) :- b1(X, Y), X >= 3",
            kind="intermediate",
            parents=(root.element_id,),
        )
        assert child.parents == ()
        assert child.depth == 0
        cache.check_invariants()

    def test_eviction_leaves_stale_parent_ids_tolerated(self):
        cache = Cache()
        root = store(cache, "r1(X, Y) :- b1(X, Y)")
        child = store(
            cache,
            "c1(X, Y) :- b1(X, Y), X >= 3",
            kind="intermediate",
            parents=(root.element_id,),
        )
        cache.discard(root.element_id)
        # The child keeps the stale id; every walk checks liveness.
        assert child.parents == (root.element_id,)
        assert cache.get(root.element_id) is None
        cache.check_invariants()

    def test_store_order_edge_direction_is_enforced(self):
        cache = Cache()
        root = store(cache, "r1(X, Y) :- b1(X, Y)")
        child = store(
            cache,
            "c1(X, Y) :- b1(X, Y), X >= 3",
            parents=(root.element_id,),
        )
        # Force a cycle-shaped edge by hand: the audit must catch it.
        root.parents = (child.element_id,)
        cache._children.setdefault(child.element_id, {})[root.element_id] = None
        with pytest.raises(InvariantViolation):
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


class TestPinnedDescendantProtection:
    def test_ancestor_of_pinned_element_is_never_victim(self):
        clock = SimClock()
        cache = Cache(capacity_bytes=900, clock=clock)
        root = store(cache, "r1(X, Y) :- b1(X, Y)")
        child = store(
            cache,
            "c1(X, Y) :- b1(X, Y), X >= 3",
            kind="intermediate",
            parents=(root.element_id,),
        )
        cache.pin(child)
        try:
            # Filling the cache must evict neither the pinned child nor
            # its (unpinned) ancestor — a concurrent plan holding the
            # child may still walk its lineage.
            for index in range(6):
                try:
                    store(cache, f"f{index}(X, Y) :- b{index + 2}(X, Y)")
                except Exception:
                    break
            assert cache.get(root.element_id) is not None
            assert cache.get(child.element_id) is not None
        finally:
            cache.unpin(child)
        cache.check_invariants()

    def test_transitive_protection(self):
        cache = Cache()
        root = store(cache, "r1(X, Y) :- b1(X, Y)")
        mid = store(
            cache, "m1(X, Y) :- b1(X, Y), X >= 2", parents=(root.element_id,)
        )
        leaf = store(
            cache, "l1(X) :- b1(X, Y), X >= 4", parents=(mid.element_id,)
        )
        cache.pin(leaf)
        try:
            assert cache._has_pinned_descendant(root.element_id)
            assert cache._has_pinned_descendant(mid.element_id)
            assert not cache._has_pinned_descendant(leaf.element_id)
        finally:
            cache.unpin(leaf)


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


class TestAncestorWarming:
    def test_touch_warms_parents(self):
        cache = Cache()
        root = store(cache, "r1(X, Y) :- b1(X, Y)", derivation_seconds=1.0)
        twin = store(cache, "r2(X, Y) :- b2(X, Y)", derivation_seconds=1.0)
        child = store(
            cache,
            "c1(X, Y) :- b1(X, Y), X >= 3",
            kind="intermediate",
            parents=(root.element_id,),
        )
        assert cache._pick_victim({child.element_id}) is root  # older twin
        cache.touch(child)
        # The warm is a share of a hit, not a full hit, and it re-keys
        # the parent above its equally valued twin.
        assert 0.0 < root.reuse_frequency < 1.0
        assert cache._pick_victim({child.element_id}) is twin

    def test_read_warms_ancestors_without_charging_time(self):
        clock = SimClock()
        cache = Cache(clock=clock)
        root = store(cache, "r1(X, Y) :- b1(X, Y)", derivation_seconds=1.0)
        child = store(
            cache,
            "c1(X, Y) :- b1(X, Y), X >= 3",
            kind="intermediate",
            parents=(root.element_id,),
            derivation_seconds=0.5,
        )
        before_clock = clock.now
        before_freq = root.reuse_frequency
        cache.read(child)
        assert clock.now == before_clock  # pure bookkeeping
        assert root.reuse_frequency > before_freq
        assert child.saved_seconds == pytest.approx(0.5)

    def test_warming_attenuates_geometrically(self):
        cache = Cache()
        root = store(cache, "r1(X, Y) :- b1(X, Y)")
        mid = store(
            cache, "m1(X, Y) :- b1(X, Y), X >= 2", parents=(root.element_id,)
        )
        leaf = store(
            cache, "l1(X) :- b1(X, Y), X >= 4", parents=(mid.element_id,)
        )
        cache.touch(leaf)
        assert mid.reuse_frequency > root.reuse_frequency > 0


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
        the lineage invariants hold after every step."""
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
