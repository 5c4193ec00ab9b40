"""Federated queries: routing, spanning plans, semijoin, batching.

The interface routes one-backend requests; a spanning query is planned
into one remote part per backend and run by the Execution Monitor, so the
spanning behaviour is driven through :meth:`Federation.cms`.  Every answer
is checked against the direct oracle (:func:`repro.caql.eval.evaluate_psj`
over the same base tables); the communication-side assertions read the
per-backend metrics scopes.
"""

import pytest

from repro.common.errors import PlanningError, UnknownRelationError
from repro.common.metrics import (
    CACHE_PREFETCHES,
    REMOTE_BATCHED_REQUESTS,
    REMOTE_REQUESTS,
    REMOTE_SEMIJOIN_REQUESTS,
    REMOTE_TUPLES,
)
from repro.advice.language import AdviceSet
from repro.advice.path_expression import QueryPattern, Sequence
from repro.advice.view_spec import annotate
from repro.caql.parser import parse_query
from repro.core.cms import CMSFeatures

from tests.federation.conftest import (
    EMPTY,
    LOCAL,
    SPAN2,
    SPAN3,
    base_tables,
    make_federation,
    oracle,
    psj,
    trace_events,
)


def backend_requests(federation, name):
    scope = federation.metrics.scopes().get(name)
    return scope.get(REMOTE_REQUESTS) if scope is not None else 0.0


def answer(cms, text):
    return set(cms.query(parse_query(text)).fetch_all())


def fresh_cms(features=None, **federation_options):
    federation = make_federation(**federation_options)
    cms = federation.cms(features=features)
    cms.begin_session()
    return federation, cms


class TestRouting:
    def test_single_backend_query_routes_directly(self):
        federation = make_federation(with_tracer=True)
        result = federation.interface.fetch(psj(LOCAL))
        assert set(result.rows) == oracle(LOCAL)
        names = [e.name for e in trace_events(federation.tracer)]
        assert "rdi.route" in names
        # Only the home backend was touched.
        assert backend_requests(federation, "beta") > 0
        assert backend_requests(federation, "alpha") == 0
        assert backend_requests(federation, "gamma") == 0

    def test_route_event_names_the_backend(self):
        federation = make_federation(with_tracer=True)
        federation.interface.fetch(psj(LOCAL))
        routes = [
            e for e in trace_events(federation.tracer) if e.name == "rdi.route"
        ]
        assert routes and all(
            dict(e.attributes)["backend"] == "beta" for e in routes
        )

    def test_fetch_base_relation_routes_home(self):
        federation = make_federation()
        result = federation.interface.fetch_base_relation("ship")
        assert set(result.rows) == set(base_tables()["ship"].rows)
        assert backend_requests(federation, "gamma") > 0
        assert backend_requests(federation, "alpha") == 0

    def test_unknown_table_raises(self):
        federation = make_federation()
        with pytest.raises(UnknownRelationError):
            federation.interface.fetch_base_relation("nope")
        with pytest.raises(UnknownRelationError):
            federation.interface.fetch(psj("qq(A) :- nope(A, B)"))

    def test_a_spanning_request_is_a_planning_error(self):
        federation = make_federation()
        for request in (
            lambda: federation.interface.fetch(psj(SPAN2)),
            lambda: federation.interface.fetch_many([psj(LOCAL), psj(SPAN2)]),
        ):
            with pytest.raises(PlanningError):
                request()
        # Refused before any round trip.
        assert federation.metrics.get(REMOTE_REQUESTS) == 0


class TestScatterGather:
    @pytest.mark.parametrize("text", [SPAN2, SPAN3])
    def test_spanning_query_equals_oracle(self, text):
        _federation, cms = fresh_cms()
        assert answer(cms, text) == oracle(text)

    def test_every_backend_contributes(self):
        federation, cms = fresh_cms(with_tracer=True)
        assert answer(cms, SPAN3) == oracle(SPAN3)
        # One remote part per backend, cheapest first (the statistics-driven
        # order); ship joins both earlier parts, so it is bound on both.
        assert cms.last_plan.part_labels() == [
            "remote:q__rest__beta",
            "remote:q__rest__alpha",
            "remote:q__rest__gamma+semijoin",
        ]
        plans = [s for s in federation.tracer.spans if s.name == "planner.plan"]
        assert dict(plans[-1].attributes)["parts"] == cms.last_plan.part_labels()
        for backend in ("alpha", "beta", "gamma"):
            assert backend_requests(federation, backend) > 0

    def test_mixed_engines_equal_oracle(self):
        _federation, cms = fresh_cms(engines={"beta": "sqlite"})
        assert answer(cms, SPAN3) == oracle(SPAN3)

    def test_empty_part_short_circuits_later_backends(self):
        federation, cms = fresh_cms(CMSFeatures(caching=False))
        assert answer(cms, EMPTY) == oracle(EMPTY) == set()
        # Metadata is cached after the first query: a repeat costs the
        # empty part's backend one round trip and the other backend none.
        alpha_before = backend_requests(federation, "alpha")
        gamma_before = backend_requests(federation, "gamma")
        assert answer(cms, EMPTY) == set()
        assert backend_requests(federation, "alpha") == alpha_before + 1
        assert backend_requests(federation, "gamma") == gamma_before

    def test_empty_binding_set_skips_the_round_trip(self):
        federation, cms = fresh_cms(with_tracer=True)
        answer(cms, "w(S, C) :- sup(S, C)")
        query = "q4b(S, Q) :- sup(S, 999), ship(S, P, Q)"
        cms.explain(parse_query(query))  # warm the planner's metadata
        gamma_before = backend_requests(federation, "gamma")
        # The cached part for city 999 is empty: its binding set proves the
        # join empty before gamma is asked.
        assert answer(cms, query) == set()
        assert cms.last_plan.part_labels()[-1] == "remote:q4b__rest+semijoin"
        assert backend_requests(federation, "gamma") == gamma_before
        short = [
            dict(e.attributes)
            for e in trace_events(federation.tracer)
            if e.name == "rdi.semijoin"
        ]
        assert short and short[-1]["short_circuit"] is True


class TestSemijoin:
    def test_cross_backend_join_ships_bindings(self):
        federation, cms = fresh_cms()
        assert answer(cms, SPAN2) == oracle(SPAN2)
        gamma = federation.metrics.scopes()["gamma"]
        assert gamma.get(REMOTE_SEMIJOIN_REQUESTS) == 1
        # The root ledger aggregates the per-backend shares.
        assert federation.metrics.get(REMOTE_SEMIJOIN_REQUESTS) == 1

    def test_semijoin_ships_fewer_tuples_than_unreduced(self):
        def shipped(semijoin):
            federation, cms = fresh_cms(CMSFeatures(semijoin=semijoin))
            assert answer(cms, SPAN2) == oracle(SPAN2)
            return federation.metrics.get(REMOTE_TUPLES)

        assert shipped(semijoin=True) < shipped(semijoin=False)


class TestFetchMany:
    def test_batches_share_one_round_trip_per_backend(self):
        federation = make_federation()
        queries = [
            psj(LOCAL),
            psj("q5(P) :- part(P, 2)"),
            psj("q6(S) :- sup(S, 100)"),
        ]
        results = federation.interface.fetch_many(queries)
        assert set(results[0].rows) == oracle(LOCAL)
        assert set(results[1].rows) == {(11,)}
        assert set(results[2].rows) == {(1,), (4,)}
        # Both beta queries went out as one batch; alpha's single query
        # (and any spanning query) never batches.
        beta = federation.metrics.scopes()["beta"]
        assert beta.get(REMOTE_BATCHED_REQUESTS) == 2
        alpha = federation.metrics.scopes()["alpha"]
        assert alpha.get(REMOTE_BATCHED_REQUESTS) == 0

    def test_spanning_members_scatter_in_request_order(self):
        # Prefetch companions of one view: the one-backend companion rides
        # the batch, the spanning one is a plan of its own; each lands in
        # the cache under its own definition.
        views = [
            annotate(parse_query("d0(S) :- sup(S, 100)"), "^"),
            annotate(parse_query("vspan(S, Q) :- sup(S, C), ship(S, P, Q)"), "^?"),
            annotate(parse_query("vloc(P) :- part(P, 1)"), "^"),
        ]
        path = Sequence(
            tuple(QueryPattern(v.name, ("X^",) * v.definition.arity) for v in views),
            lower=1,
            upper=1,
        )
        federation = make_federation()
        cms = federation.cms()
        cms.begin_session(AdviceSet.from_views(views, path_expression=path))
        answer(cms, "d0(S) :- sup(S, 100)")
        assert cms.metrics.get(CACHE_PREFETCHES) == 2
        requests = federation.metrics.get(REMOTE_REQUESTS)
        spanning = "vspan(S, Q) :- sup(S, C), ship(S, P, Q)"
        local = "vloc(P) :- part(P, 1)"
        assert answer(cms, spanning) == oracle(spanning)
        assert answer(cms, local) == oracle(local)
        assert federation.metrics.get(REMOTE_REQUESTS) == requests

    def test_empty_batch(self):
        federation = make_federation()
        assert federation.interface.fetch_many([]) == []


class TestNaiveBaseline:
    def test_naive_answers_equal_oracle(self):
        federation = make_federation()
        naive = federation.naive()
        for text in (SPAN3, SPAN2, LOCAL, EMPTY):
            rows = naive.query(parse_query(text)).fetch_all()
            assert set(rows) == oracle(text)

    def test_naive_ships_unreduced(self):
        federation = make_federation()
        naive = federation.naive()
        naive.query(parse_query(SPAN2)).fetch_all()
        assert federation.metrics.get(REMOTE_SEMIJOIN_REQUESTS) == 0


class TestGatherIntermediates:
    """Each per-backend part of a spanning plan goes through the Execution
    Monitor's one registration route, like any other remote part."""

    EXISTS = "qx(S, C) :- sup(S, C), part(P, 1)"

    def run(self, features=None):
        cms = make_federation().cms(features=features)
        cms.begin_session()
        rows = cms.query(parse_query(self.EXISTS)).fetch_all()
        assert set(rows) == oracle(self.EXISTS)
        return cms.cache.elements()

    def test_value_parts_register_existence_parts_do_not(self):
        # alpha's share carries rows a later query can subsume; beta's is a
        # bare existence check (empty projection) with nothing to reuse —
        # the guard every other registration route already applied.
        elements = self.run()
        gathered = [e for e in elements if e.operator == "remote-fetch"]
        assert [e.definition.name for e in gathered] == ["qx__rest__alpha"]
        assert all(e.kind == "intermediate" for e in gathered)
        assert all(e.definition.projection for e in elements)

    def test_intermediates_off_registers_nothing(self):
        from repro.core.cms import CMSFeatures

        elements = self.run(CMSFeatures(intermediates=False))
        assert [e.kind for e in elements] == ["view"]
