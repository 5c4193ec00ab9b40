"""End-to-end tests for the Cache Management System."""

import pytest

from repro.common.errors import AdviceError
from repro.common.metrics import (
    CACHE_GENERALIZATIONS,
    CACHE_HITS_CANONICAL,
    CACHE_HITS_EXACT,
    CACHE_HITS_SUBSUMED,
    CACHE_INDEX_BUILDS,
    CACHE_MISSES,
    CACHE_PREFETCHES,
    REMOTE_REQUESTS,
    REMOTE_TUPLES,
)
from repro.logic.parser import parse_atom
from repro.relational.relation import relation_from_columns
from repro.remote.server import RemoteDBMS
from repro.remote.sqlite_backend import SqliteEngine
from repro.advice.language import AdviceSet
from repro.advice.path_expression import Cardinality, QueryPattern, Sequence
from repro.advice.view_spec import annotate
from repro.caql.ast import AggregateQuery, SetOfQuery
from repro.caql.parser import parse_query
from repro.core.cms import CacheManagementSystem, CMSFeatures


def load_tables(server):
    server.load_table(
        relation_from_columns(
            "parent",
            par=["tom", "tom", "bob", "bob", "liz"],
            child=["bob", "liz", "ann", "pat", "joe"],
        )
    )
    server.load_table(
        relation_from_columns(
            "age",
            person=["tom", "bob", "liz", "ann", "pat", "joe"],
            years=[60, 35, 33, 8, 10, 2],
        )
    )
    return server


@pytest.fixture
def cms():
    system = CacheManagementSystem(load_tables(RemoteDBMS()))
    system.begin_session()
    return system


class TestBasicAnswers:
    def test_selection(self, cms):
        result = cms.query(parse_query("q(Y) :- parent(tom, Y)"))
        assert set(result.fetch_all()) == {("bob",), ("liz",)}

    def test_join(self, cms):
        result = cms.query(parse_query("q(X, A) :- parent(X, Y), age(Y, A), A < 20"))
        assert set(result.fetch_all()) == {("bob", 8), ("bob", 10), ("liz", 2)}

    def test_boolean_query(self, cms):
        result = cms.query(parse_query("q(tom, bob) :- parent(tom, bob)"))
        assert result.fetch_all() == [("tom", "bob")]

    def test_boolean_query_false(self, cms):
        result = cms.query(parse_query("q(bob, tom) :- parent(bob, tom)"))
        assert result.fetch_all() == []

    def test_unsatisfiable(self, cms):
        result = cms.query(parse_query("q(Y) :- parent(tom, Y), 1 > 2"))
        assert result.fetch_all() == []

    def test_evaluable_residue(self, cms):
        result = cms.query(parse_query("q(X, S) :- age(X, A), plus(A, 1, S), A > 30"))
        assert set(result.fetch_all()) == {("tom", 61), ("bob", 36), ("liz", 34)}

    def test_stream_single_solution(self, cms):
        stream = cms.query(parse_query("q(Y) :- parent(tom, Y)"))
        first = stream.next()
        assert first in {("bob",), ("liz",)}
        second = stream.next()
        assert second is not None and second != first
        assert stream.next() is None

    def test_works_against_sqlite_backend(self):
        server = load_tables(RemoteDBMS(engine=SqliteEngine()))
        system = CacheManagementSystem(server)
        system.begin_session()
        result = system.query(parse_query("q(Y) :- parent(tom, Y)"))
        assert set(result.fetch_all()) == {("bob",), ("liz",)}


class TestCachingBehaviour:
    def test_repeat_query_is_exact_hit(self, cms):
        q = parse_query("q(Y) :- parent(tom, Y)")
        cms.query(q)
        requests_before = cms.metrics.get(REMOTE_REQUESTS)
        again = cms.query(q)
        assert set(again.fetch_all()) == {("bob",), ("liz",)}
        assert cms.metrics.get(REMOTE_REQUESTS) == requests_before
        assert cms.metrics.get(CACHE_HITS_EXACT) == 1

    def test_exact_hit_reads_the_element_it_found(self, cms, monkeypatch):
        q = parse_query("q(Y) :- parent(tom, Y)")
        cms.query(q)
        (element,) = cms.cache.elements()
        probes = []
        real_lookup = type(cms.cache).lookup_exact

        def counting_lookup(cache, definition):
            probes.append(definition.name)
            return real_lookup(cache, definition)

        monkeypatch.setattr(type(cms.cache), "lookup_exact", counting_lookup)
        uses = element.use_count
        assert set(cms.query(q).fetch_all()) == {("bob",), ("liz",)}
        # One canonical-key probe per exact hit: the exact tier's.  The
        # CMS reads the element it found in the same call: no plan.
        assert probes == ["q"]
        assert cms.last_plan is None
        assert element.use_count == uses + 1 and element.pin_count == 0
        explanation = cms.explain(q)
        assert explanation.strategy == "exact" and explanation.parts == ()
        assert explanation.element_efficacy[0]["element"] == element.element_id
        assert probes == ["q", "q"]  # explain asks the exact tier once

    def test_subsumption_reuse(self, cms):
        cms.query(parse_query("scan(X, Y) :- parent(X, Y)"))
        requests_before = cms.metrics.get(REMOTE_REQUESTS)
        result = cms.query(parse_query("q(Y) :- parent(bob, Y)"))
        assert set(result.fetch_all()) == {("ann",), ("pat",)}
        assert cms.metrics.get(REMOTE_REQUESTS) == requests_before
        assert cms.metrics.get(CACHE_HITS_SUBSUMED) == 1

    def test_range_subsumption(self, cms):
        cms.query(parse_query("adults(X, A) :- age(X, A), A > 9"))
        before = cms.metrics.get(REMOTE_REQUESTS)
        result = cms.query(parse_query("q(X, A) :- age(X, A), A > 30"))
        assert set(result.fetch_all()) == {("tom", 60), ("bob", 35), ("liz", 33)}
        assert cms.metrics.get(REMOTE_REQUESTS) == before

    def test_caching_disabled(self):
        system = CacheManagementSystem(
            load_tables(RemoteDBMS()), features=CMSFeatures.none()
        )
        system.begin_session()
        q = parse_query("q(Y) :- parent(tom, Y)")
        system.query(q)
        before = system.metrics.get(REMOTE_REQUESTS)
        system.query(q)
        assert system.metrics.get(REMOTE_REQUESTS) == before + 1
        assert len(system.cache) == 0

    def test_different_constants_are_misses_without_generalization(self, cms):
        cms.query(parse_query("q(Y) :- parent(tom, Y)"))
        cms.query(parse_query("q(Y) :- parent(bob, Y)"))
        assert cms.metrics.get(CACHE_MISSES) == 2

    def test_cache_model_reflects_contents(self, cms):
        cms.query(parse_query("q(Y) :- parent(tom, Y)"))
        model = cms.cache_model()
        assert len(model) == 1
        stats = cms.cache_statistics()
        assert stats["elements"] == 1


class TestAdviceDrivenExecution:
    def make_advice(self):
        dkids = annotate(parse_query("dkids(P, C) :- parent(P, C)"), "?^")
        path = Sequence(
            (QueryPattern("dkids", ("P?", "C^")),), lower=0, upper=Cardinality("P")
        )
        return AdviceSet.from_views([dkids], path_expression=path)

    def test_generalization_amortizes_requests(self, cms):
        cms.begin_session(self.make_advice())
        for person in ("tom", "bob", "liz"):
            result = cms.query(parse_query(f"dkids({person}, C) :- parent({person}, C)"))
            result.fetch_all()
        assert cms.metrics.get(CACHE_GENERALIZATIONS) == 1
        # One data request (the generalized fetch) for all three queries.
        assert cms.metrics.get(CACHE_HITS_SUBSUMED) >= 2

    def test_generalization_builds_consumer_index(self, cms):
        cms.begin_session(self.make_advice())
        cms.query(parse_query("dkids(tom, C) :- parent(tom, C)"))
        assert cms.metrics.get(CACHE_INDEX_BUILDS) >= 1

    def test_query_pattern_interface(self, cms):
        cms.begin_session(self.make_advice())
        stream = cms.query_pattern(parse_atom("dkids(tom, C)"))
        assert set(stream.fetch_all()) == {("tom", "bob"), ("tom", "liz")}

    def test_query_pattern_unknown_view(self, cms):
        cms.begin_session(self.make_advice())
        with pytest.raises(AdviceError):
            cms.query_pattern(parse_atom("nosuch(tom, C)"))

    def test_query_pattern_arity_checked(self, cms):
        cms.begin_session(self.make_advice())
        with pytest.raises(AdviceError):
            cms.query_pattern(parse_atom("dkids(tom)"))

    def test_prefetch_companions(self, cms):
        dparents = annotate(parse_query("dparents(P, C) :- parent(P, C)"), "^^")
        dages = annotate(parse_query("dages(X, A) :- age(X, A)"), "^^")
        path = Sequence((QueryPattern("dparents"), QueryPattern("dages")))
        advice = AdviceSet.from_views([dparents, dages], path_expression=path)
        cms.begin_session(advice)
        cms.query(parse_query("dparents(P, C) :- parent(P, C)")).fetch_all()
        assert cms.metrics.get(CACHE_PREFETCHES) == 1
        before = cms.metrics.get(REMOTE_REQUESTS)
        cms.query(parse_query("dages(X, A) :- age(X, A)")).fetch_all()
        assert cms.metrics.get(REMOTE_REQUESTS) == before  # served by prefetch

    def test_lazy_stream_for_pure_producer(self, cms):
        dall = annotate(parse_query("dall(P, C) :- parent(P, C)"), "^^")
        advice = AdviceSet.from_views([dall])
        cms.begin_session(advice)
        # Warm the cache with the full extension first.
        cms.query(parse_query("warm(P, C) :- parent(P, C)")).fetch_all()
        stream = cms.query(parse_query("dall(P, C) :- parent(P, C), P \\= liz"))
        assert stream.lazy
        first = stream.next()
        assert first is not None


class TestHybridExecution:
    def test_hybrid_combines_cache_and_remote(self, cms):
        # Warm the age relation (selective part stays remote).
        cms.query(parse_query("ages(X, A) :- age(X, A)")).fetch_all()
        result = cms.query(
            parse_query("q(C, A) :- parent(tom, C), age(C, A)")
        )
        assert set(result.fetch_all()) == {("bob", 35), ("liz", 33)}

    def test_hybrid_ships_less_than_whole(self, cms):
        cms.query(parse_query("ages(X, A) :- age(X, A)")).fetch_all()
        shipped_before = cms.metrics.get(REMOTE_TUPLES)
        cms.query(parse_query("q(C, A) :- parent(tom, C), age(C, A)")).fetch_all()
        shipped = cms.metrics.get(REMOTE_TUPLES) - shipped_before
        # Only the parent(tom, _) part crosses the wire: 2 tuples.
        assert shipped <= 2

    def test_parallel_region_overlaps_costs(self):
        # With parallelism the clock advances by max(remote, local), so a
        # hybrid run under parallel=True finishes no later than the same
        # run with parallel=False.
        def run(parallel):
            features = CMSFeatures(parallel=parallel)
            system = CacheManagementSystem(load_tables(RemoteDBMS()), features=features)
            system.begin_session()
            system.query(parse_query("ages(X, A) :- age(X, A)")).fetch_all()
            system.query(parse_query("q(C, A) :- parent(tom, C), age(C, A)")).fetch_all()
            return system.clock.now

        assert run(True) <= run(False)


class TestSecondOrderQueries:
    def test_aggregate(self, cms):
        base = parse_query("kids(P, C) :- parent(P, C)")
        agg = AggregateQuery(base, group_by=(0,), aggregations=(("count", 1, "n"),))
        result = cms.query(agg)
        assert set(result.fetch_all()) == {("tom", 2), ("bob", 2), ("liz", 1)}

    def test_setof(self, cms):
        base = parse_query("kids(C) :- parent(P, C)")
        result = cms.query(SetOfQuery(base))
        assert len(result.fetch_all()) == 5

    def test_bagof_counts(self, cms):
        base = parse_query("parents(P) :- parent(P, C)")
        result = cms.query(SetOfQuery(base, with_counts=True))
        assert all(row[-1] == 1 for row in result.fetch_all())

    def test_aggregate_base_is_cached(self, cms):
        base = parse_query("kids(P, C) :- parent(P, C)")
        agg = AggregateQuery(base, group_by=(0,), aggregations=(("count", 1, "n"),))
        cms.query(agg)
        before = cms.metrics.get(REMOTE_REQUESTS)
        cms.query(agg)
        assert cms.metrics.get(REMOTE_REQUESTS) == before


class TestMetadata:
    def test_statistics(self, cms):
        stats = cms.statistics_of("age")
        assert stats.cardinality == 6


class TestCanonicalTier:
    """Variant spellings of a cached ask land on the canonical tier."""

    BASE = "q(X) :- age(X, A), A > 20, A < 60"
    #: Same question: conjuncts shuffled, variables renamed, a redundant
    #: bound added, a constant respelled.
    VARIANT = "q(P) :- B < 60.0, age(P, B), B > 10, B > 20"

    def test_variant_spelling_is_a_canonical_hit(self, cms):
        base_rows = set(cms.query(parse_query(self.BASE)).fetch_all())
        before = cms.metrics.get(REMOTE_REQUESTS)
        result = cms.query(parse_query(self.VARIANT))
        assert set(result.fetch_all()) == base_rows
        assert cms.metrics.get(REMOTE_REQUESTS) == before
        assert cms.metrics.get(CACHE_HITS_CANONICAL) == 1
        assert cms.metrics.get(CACHE_HITS_EXACT) == 1

    def test_explain_names_the_canonical_hit(self, cms):
        cms.query(parse_query(self.BASE))
        explanation = cms.explain(parse_query(self.VARIANT))
        assert explanation.strategy == "exact"
        assert any("canonical hit" in note for note in explanation.notes)

    def test_ablation_falls_back_to_subsumption(self):
        system = CacheManagementSystem(
            load_tables(RemoteDBMS()), features=CMSFeatures(canonical=False)
        )
        system.begin_session()
        base_rows = set(system.query(parse_query(self.BASE)).fetch_all())
        assert set(system.query(parse_query(self.VARIANT)).fetch_all()) == base_rows
        assert system.metrics.get(CACHE_HITS_CANONICAL) == 0
        assert system.metrics.get(CACHE_HITS_SUBSUMED) == 1

    def test_canonically_unsatisfiable_query_answers_empty_locally(self, cms):
        before = cms.metrics.get(REMOTE_REQUESTS)
        result = cms.query(parse_query("q(X) :- age(X, A), A > 30, A < 20"))
        assert result.fetch_all() == []
        assert cms.metrics.get(REMOTE_REQUESTS) == before


class TestIndexedDerivation:
    """Equality residuals served through an element's hash index."""

    @pytest.mark.parametrize("lazy", [True, False], ids=["lazy", "eager"])
    @pytest.mark.parametrize("indexed", [True, False], ids=["index", "scan"])
    def test_two_pins_of_one_attribute_both_apply(self, indexed, lazy):
        # Without the canonical tier nothing spots the contradiction before
        # the executor: one pin becomes the index probe, the other must
        # still filter the bucket.
        system = CacheManagementSystem(
            load_tables(RemoteDBMS()),
            features=CMSFeatures(canonical=False, lazy=lazy),
        )
        system.begin_session()
        system.query(parse_query("v(P, C) :- parent(P, C)")).fetch_all()
        (element,) = system.cache.elements()
        if indexed:
            element.indexes().ensure(("a0",))
        ask = "q(C) :- parent(P, C), P = tom, P = bob"
        assert system.query(parse_query(ask)).fetch_all() == []
        assert system.last_plan.strategy == "cache-full"
        # ... and no wrong answer was stored for the other spelling to hit.
        respelled = "q(C) :- parent(P, C), P = bob, P = tom"
        assert system.query(parse_query(respelled)).fetch_all() == []


class TestReStoreIsNotAUse:
    """The executor registers a whole-ship fetch as an intermediate before
    the CMS stores the answer: that second store must not count as a use,
    or advice's single-use prediction is thrown away and the efficacy
    ledger counts a hit that never happened."""

    @pytest.mark.parametrize("intermediates", [True, False])
    def test_single_use_prediction_survives(self, intermediates):
        d1 = annotate(parse_query("d1(C) :- parent(tom, C)"), "^")
        d2 = annotate(parse_query("d2(P, A) :- age(P, A)"), "^^")
        path = Sequence((QueryPattern("d1"), QueryPattern("d2")), lower=1, upper=1)
        system = CacheManagementSystem(
            load_tables(RemoteDBMS()), features=CMSFeatures(intermediates=intermediates)
        )
        system.begin_session(AdviceSet.from_views([d1, d2], path_expression=path))
        system.query(parse_query("d1(C) :- parent(tom, C)")).fetch_all()
        (element,) = [e for e in system.cache.elements() if e.view_name == "d1"]
        assert element.use_count == 0
        assert element.expendable is True
        assert element.advice_expected_reuse is False
