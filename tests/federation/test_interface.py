"""FederatedInterface: routing, scatter-gather, semijoin, batching.

Every answer is checked against the direct oracle
(:func:`repro.caql.eval.evaluate_psj` over the same base tables); the
communication-side assertions read the per-backend metrics scopes.
"""

import pytest

from repro.common.errors import UnknownRelationError
from repro.common.metrics import (
    REMOTE_BATCHED_REQUESTS,
    REMOTE_REQUESTS,
    REMOTE_SEMIJOIN_REQUESTS,
    REMOTE_TUPLES,
)
from repro.federation import FederatedInterface, NaiveFederation
from repro.caql.parser import parse_query

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


class TestRouting:
    def test_single_backend_query_routes_directly(self):
        federation = make_federation(with_tracer=True)
        result = federation.interface.fetch(psj(LOCAL))
        assert set(result.rows) == oracle(LOCAL)
        names = [e.name for e in trace_events(federation.tracer)]
        assert "rdi.route" in names
        assert "federation.scatter" not in names
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


class TestScatterGather:
    @pytest.mark.parametrize("text", [SPAN2, SPAN3])
    def test_spanning_query_equals_oracle(self, text):
        federation = make_federation()
        result = federation.interface.fetch(psj(text))
        assert set(result.rows) == oracle(text)

    def test_every_backend_contributes(self):
        federation = make_federation(with_tracer=True)
        federation.interface.fetch(psj(SPAN3))
        events = trace_events(federation.tracer)
        scatter = [e for e in events if e.name == "federation.scatter"]
        gather = [e for e in events if e.name == "federation.gather"]
        assert len(scatter) == 1 and len(gather) == 1
        # Cheapest part first: the statistics-driven order.
        assert dict(scatter[0].attributes)["backends"] == [
            "beta", "alpha", "gamma",
        ]
        assert dict(gather[0].attributes)["tuples"] == len(oracle(SPAN3))

    def test_mixed_engines_equal_oracle(self):
        federation = make_federation(engines={"beta": "sqlite"})
        result = federation.interface.fetch(psj(SPAN3))
        assert set(result.rows) == oracle(SPAN3)

    def test_empty_part_short_circuits_later_backends(self):
        federation = make_federation()
        first = federation.interface.fetch(psj(EMPTY))
        assert set(first.rows) == oracle(EMPTY) == set()
        # Metadata is cached after the first scatter: a repeat costs the
        # empty part's backend one round trip and the other backend none.
        alpha_before = backend_requests(federation, "alpha")
        gamma_before = backend_requests(federation, "gamma")
        again = federation.interface.fetch(psj(EMPTY))
        assert not len(again)
        assert backend_requests(federation, "alpha") == alpha_before + 1
        assert backend_requests(federation, "gamma") == gamma_before

    def test_empty_binding_set_skips_the_round_trip(self):
        federation = make_federation(with_tracer=True)
        query = psj(SPAN2)
        ship_tag = next(o.tag for o in query.occurrences if o.pred == "ship")
        federation.interface.fetch(query)  # warm metadata caches
        gamma_before = backend_requests(federation, "gamma")
        result = federation.interface.fetch(
            query, bindings={f"{ship_tag}.c0": ()}
        )
        assert not len(result)
        assert backend_requests(federation, "gamma") == gamma_before
        names = [e.name for e in trace_events(federation.tracer)]
        assert "federation.short_circuit" in names


class TestSemijoin:
    def test_cross_backend_join_ships_bindings(self):
        federation = make_federation()
        result = federation.interface.fetch(psj(SPAN2))
        assert set(result.rows) == oracle(SPAN2)
        gamma = federation.metrics.scopes()["gamma"]
        assert gamma.get(REMOTE_SEMIJOIN_REQUESTS) == 1
        # The root ledger aggregates the per-backend shares.
        assert federation.metrics.get(REMOTE_SEMIJOIN_REQUESTS) == 1

    def test_semijoin_ships_fewer_tuples_than_unreduced(self):
        def shipped(semijoin):
            federation = make_federation()
            interface = (
                federation.interface
                if semijoin
                else FederatedInterface(
                    federation.catalog,
                    metrics=federation.metrics,
                    local_profile=federation.profile,
                    semijoin=False,
                )
            )
            result = interface.fetch(psj(SPAN2))
            assert set(result.rows) == oracle(SPAN2)
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
        federation = make_federation()
        queries = [psj(SPAN2), psj(LOCAL)]
        results = federation.interface.fetch_many(queries)
        assert set(results[0].rows) == oracle(SPAN2)
        assert set(results[1].rows) == oracle(LOCAL)

    def test_empty_batch(self):
        federation = make_federation()
        assert federation.interface.fetch_many([]) == []


class TestNaiveBaseline:
    def test_rejects_semijoin_interface(self):
        federation = make_federation()
        with pytest.raises(ValueError):
            NaiveFederation(federation.interface)

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
    """Through a CMS, each unreduced per-backend part of a scatter is
    offered to the Execution Monitor's one registration route."""

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
        gathered = [e for e in elements if e.operator == "federated-gather"]
        assert [e.definition.name for e in gathered] == ["qx__rest__alpha"]
        assert all(e.kind == "intermediate" for e in gathered)
        assert all(e.definition.projection for e in elements)

    def test_intermediates_off_registers_nothing(self):
        from repro.core.cms import CMSFeatures

        elements = self.run(CMSFeatures(intermediates=False))
        assert [e.kind for e in elements] == ["view"]
