"""The per-element cache-efficacy ledger: derivation cost, reuse credit,
advice attribution, timestamps, and the report surfaces (``cache_report``
and ``cms.explain``)."""

import pytest

from repro.common.clock import SimClock
from repro.common.metrics import CACHE_INTERMEDIATE_HITS, CACHE_SAVED_SECONDS, Metrics
from repro.caql.eval import psj_of, result_schema
from repro.caql.parser import parse_query
from repro.core.cache import Cache
from repro.core.cache_model import cache_report, element_report
from repro.core.cms import CacheManagementSystem
from repro.relational.relation import Relation
from repro.remote.server import RemoteDBMS
from repro.workloads.genealogy import genealogy


def psj(name: str, body: str):
    return psj_of(parse_query(f"{name}(X, Y) :- {body}"))


def relation(name: str, rows) -> Relation:
    return Relation(result_schema(name, 2), rows)


def make_cache(capacity: int = 100_000):
    clock = SimClock()
    metrics = Metrics()
    return Cache(capacity, metrics=metrics, clock=clock), clock, metrics


class TestLedgerBookkeeping:
    def test_store_stamps_time_and_derivation_cost(self):
        cache, clock, _metrics = make_cache()
        clock.advance(2.5)
        element = cache.store(
            psj("q", "r(X, Y)"), relation("q", [(1, 2)]), derivation_seconds=0.4
        )
        assert element.created_at == 2.5
        assert element.last_used_at == 2.5
        assert element.derivation_seconds == 0.4
        assert element.saved_seconds == 0.0

    def test_restore_keeps_the_original_derivation_cost(self):
        cache, _clock, _metrics = make_cache()
        definition = psj("q", "r(X, Y)")
        first = cache.store(definition, relation("q", [(1, 2)]),
                            derivation_seconds=0.4)
        again = cache.store(definition, relation("q", [(1, 2)]),
                            derivation_seconds=9.9)
        assert again is first
        assert again.derivation_seconds == 0.4

    def test_touch_advances_last_used_only(self):
        cache, clock, _metrics = make_cache()
        element = cache.store(psj("q", "r(X, Y)"), relation("q", [(1, 2)]))
        clock.advance(3.0)
        cache.touch(element)
        assert element.last_used_at == 3.0
        assert element.created_at == 0.0

    def test_read_accumulates_and_hits_the_ledger(self):
        cache, _clock, metrics = make_cache()
        element = cache.store(psj("q", "r(X, Y)"), relation("q", [(1, 2)]),
                              derivation_seconds=0.25)
        cache.read(element)
        cache.read(element)
        assert element.use_count == 2
        assert element.saved_seconds == pytest.approx(0.5)
        assert metrics.get(CACHE_SAVED_SECONDS) == pytest.approx(0.5)

    def test_read_credits_nothing_without_a_derivation_cost(self):
        cache, _clock, metrics = make_cache()
        element = cache.store(psj("q", "r(X, Y)"), relation("q", [(1, 2)]))
        cache.read(element)  # derivation cost was never recorded
        assert element.use_count == 1
        assert element.saved_seconds == 0.0
        assert metrics.get(CACHE_SAVED_SECONDS) == 0

    def test_read_counts_intermediate_hits_only(self):
        cache, _clock, metrics = make_cache()
        view = cache.store(psj("v", "r(X, Y)"), relation("v", [(1, 2)]))
        part = cache.store(psj("p", "s(X, Y)"), relation("p", [(1, 2)]),
                           kind="intermediate", operator="remote-fetch")
        cache.read(view)
        cache.read(part)
        cache.read(part)
        assert metrics.get(CACHE_INTERMEDIATE_HITS) == 2

    def test_invariants_cover_the_ledger_fields(self):
        from repro.common.errors import InvariantViolation

        cache, _clock, _metrics = make_cache()
        element = cache.store(psj("q", "r(X, Y)"), relation("q", [(1, 2)]))
        cache.check_invariants()
        element.saved_seconds = -1.0
        with pytest.raises(InvariantViolation):
            cache.check_invariants()
        element.saved_seconds = 0.0
        element.last_used_at = element.created_at - 1.0
        with pytest.raises(InvariantViolation):
            cache.check_invariants()


class TestReport:
    def test_element_report_shape(self):
        cache, clock, _metrics = make_cache()
        element = cache.store(psj("q", "r(X, Y)"), relation("q", [(1, 2)]),
                              derivation_seconds=0.2)
        clock.advance(5.0)
        cache.read(element)
        clock.advance(1.0)
        entry = element_report(cache, element)
        assert entry["element"] == element.element_id
        assert entry["hits"] == 1
        assert entry["derivation_seconds"] == 0.2
        assert entry["saved_seconds"] == pytest.approx(0.2)
        assert entry["age_seconds"] == pytest.approx(6.0)
        assert entry["idle_seconds"] == pytest.approx(1.0)
        assert entry["observed_reuse"] is True

    def test_report_orders_elements_and_totals(self):
        cache, _clock, _metrics = make_cache()
        for index in range(3):
            cache.store(
                psj(f"q{index}", f"r(X, Y), X >= {index}"),
                relation(f"q{index}", [(1, 2)]),
                derivation_seconds=0.1,
            )
        report = cache_report(cache)
        ids = [entry["element"] for entry in report["elements"]]
        assert ids == sorted(ids, key=lambda i: int(i.lstrip("E")))
        totals = report["totals"]
        assert totals["elements"] == 3
        assert totals["derivation_seconds"] == pytest.approx(0.3)
        assert totals["saved_seconds"] == 0.0


class TestCMSIntegration:
    """A live session threads the ledger end to end: derivation costs are
    clock deltas around real fetches, reuse credits land on hits, and
    ``cms.explain`` surfaces the efficacy rows."""

    @pytest.fixture()
    def cms(self):
        server = RemoteDBMS()
        for table in genealogy(seed=23).tables:
            server.load_table(table)
        cms = CacheManagementSystem(server)
        cms.begin_session()
        return cms

    def test_derivation_cost_is_the_fetch_clock_delta(self, cms):
        query = parse_query("q(Y) :- parent(p8, Y)")
        before = cms.clock.now
        cms.query(query).fetch_all()
        elapsed = cms.clock.now - before
        elements = list(cms.cache._elements.values())
        assert len(elements) == 1
        assert 0 < elements[0].derivation_seconds <= elapsed

    def test_repeat_query_credits_the_saving(self, cms):
        query = parse_query("q(Y) :- parent(p8, Y)")
        cms.query(query).fetch_all()
        assert cms.metrics.get(CACHE_SAVED_SECONDS) == 0
        cms.query(query).fetch_all()
        element = next(iter(cms.cache._elements.values()))
        assert element.saved_seconds == pytest.approx(element.derivation_seconds)
        assert cms.metrics.get(CACHE_SAVED_SECONDS) == pytest.approx(
            element.derivation_seconds
        )

    def test_efficacy_never_perturbs_simulated_results(self, cms):
        # The ledger is bookkeeping: a second identical session reaches
        # identical clock and (ledger-inclusive) counters.
        def run():
            server = RemoteDBMS()
            for table in genealogy(seed=23).tables:
                server.load_table(table)
            cms = CacheManagementSystem(server)
            cms.begin_session()
            for text in ("q(Y) :- parent(p8, Y)", "q(Y) :- parent(p8, Y)"):
                cms.query(parse_query(text)).fetch_all()
            return cms.clock.now, cms.metrics.snapshot()

        assert run() == run()

    def test_explain_surfaces_element_efficacy(self, cms):
        query = parse_query("q(Y) :- parent(p8, Y)")
        cms.query(query).fetch_all()
        cms.query(query).fetch_all()
        explanation = cms.explain(query)
        assert explanation.element_efficacy
        entry = explanation.element_efficacy[0]
        assert entry["hits"] >= 1
        assert entry["saved_seconds"] > 0
        assert any("efficacy" in line for line in explanation.lines())
        assert explanation.to_dict()["element_efficacy"]
