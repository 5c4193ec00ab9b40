"""Tests for the semijoin execution path: planner decision, binding
extraction, short-circuit, and batched RDI fetches."""

import pytest

from repro.caql.eval import psj_of
from repro.caql.parser import parse_query
from repro.core.cms import CacheManagementSystem, CMSFeatures
from repro.core.plan import BindingSpec, RemotePart
from repro.core.rdi import canonical_bindings
from repro.relational.expressions import Col, Comparison
from repro.relational.relation import Relation, relation_from_columns
from repro.relational.schema import Schema
from repro.remote.server import RemoteDBMS


def make_server():
    """A suppliers-in-miniature database: 40 suppliers, half rated >= 5."""
    server = RemoteDBMS()
    server.load_table(
        relation_from_columns(
            "supplier",
            s_id=[f"s{i}" for i in range(40)],
            city=["athens", "paris"] * 20,
            rating=[i % 10 for i in range(40)],
        )
    )
    server.load_table(
        Relation(
            Schema("shipment", ("s_id", "p_id", "qty")),
            [
                (f"s{i}", f"p{j}", 10 * (1 + (i + j) % 5))
                for i in range(40)
                for j in range(6)
            ],
        )
    )
    return server


WARM = "good(S, City) :- supplier(S, City, R), R >= 5"
QUERY = "q(S, P) :- supplier(S, City, R), R >= 5, shipment(S, P, Q), Q > 0"
EMPTY = "qe(S, P) :- supplier(S, City, R), R >= 5, City = nowhere, shipment(S, P, Q)"


def warmed_cms(**feature_overrides):
    cms = CacheManagementSystem(
        make_server(), features=CMSFeatures(**feature_overrides)
    )
    cms.begin_session()
    cms.query(parse_query(WARM)).fetch_all()
    return cms


class TestPlannerDecision:
    def test_semijoin_annotated_on_the_remote_part(self):
        cms = warmed_cms()
        plan = cms.planner.plan(psj_of(parse_query(QUERY)))
        remote_parts = [p for p in plan.parts if isinstance(p, RemotePart)]
        assert len(remote_parts) == 1
        specs = remote_parts[0].bind_columns
        assert len(specs) == 1
        assert specs[0].remote_column.endswith(".c0")
        assert specs[0].source_column.endswith(".c0")
        assert remote_parts[0].bind_columns
        assert any("semijoin" in note for note in plan.notes)

    def test_feature_gate_disables_semijoin(self):
        cms = warmed_cms(semijoin=False)
        plan = cms.planner.plan(psj_of(parse_query(QUERY)))
        for part in plan.parts:
            if isinstance(part, RemotePart):
                assert not part.bind_columns

    def test_rejected_when_bindings_dearer_than_parallel_fetch(self):
        # A cache part covering nearly the whole domain has nothing to
        # reduce: shipping its bindings costs uplink without saving
        # transfer, and the sequential ordering forfeits parallel overlap.
        cms = CacheManagementSystem(make_server())
        cms.begin_session()
        cms.query(parse_query("all_sup(S, City) :- supplier(S, City, R), R >= 0")).fetch_all()
        plan = cms.planner.plan(
            psj_of(parse_query("qa(S, P) :- supplier(S, City, R), R >= 0, shipment(S, P, Q)"))
        )
        for part in plan.parts:
            if isinstance(part, RemotePart):
                assert not part.bind_columns
        if plan.strategy == "hybrid":
            assert any("semijoin rejected" in note for note in plan.notes)

    def test_explain_marks_semijoin_parts(self):
        cms = warmed_cms()
        explanation = cms.explain(parse_query(QUERY))
        assert any(part.endswith("+semijoin") for part in explanation.parts)
        assert any("semijoin" in note for note in explanation.notes)


class TestExecution:
    def test_answers_match_unreduced_run(self):
        optimized = warmed_cms().query(parse_query(QUERY)).fetch_all()
        baseline = (
            warmed_cms(semijoin=False, batching=False)
            .query(parse_query(QUERY))
            .fetch_all()
        )
        assert sorted(optimized) == sorted(baseline)
        assert len(optimized) > 0

    def test_semijoin_ships_fewer_tuples(self):
        on = warmed_cms()
        on.query(parse_query(QUERY)).fetch_all()
        off = warmed_cms(semijoin=False, batching=False)
        off.query(parse_query(QUERY)).fetch_all()
        assert on.metrics.get("remote.tuples_shipped") < off.metrics.get(
            "remote.tuples_shipped"
        )
        # One shipped value per distinct supplier in the warm view.
        assert on.metrics.get("remote.bindings_shipped") == 20
        assert on.metrics.get("remote.semijoin_requests") == 1

    def test_trace_records_the_semijoin_event(self):
        from repro.obs import Tracer

        server = make_server()
        server.tracer = Tracer(server.clock)
        cms = CacheManagementSystem(server)
        cms.begin_session()
        cms.query(parse_query(WARM)).fetch_all()
        cms.query(parse_query(QUERY)).fetch_all()
        events = [
            event
            for span in cms.tracer.spans
            for event in span.events
            if event.name == "rdi.semijoin"
        ]
        assert events
        assert dict(events[0].attributes)["values"] == 20

    def test_empty_binding_set_short_circuits(self):
        cms = warmed_cms()
        # Warm the planner's statistics cache so the delta below counts
        # data round trips only, not catalog lookups.
        cms.query(parse_query(QUERY)).fetch_all()
        before = cms.metrics.snapshot()
        rows = cms.query(parse_query(EMPTY)).fetch_all()
        delta = cms.metrics.diff(before)
        assert rows == []
        # The join was proven empty locally: no round trip at all.
        assert delta.get("remote.requests", 0) == 0
        assert delta.get("remote.bindings_shipped", 0) == 0


class TestCanonicalBindings:
    def test_deduplicates(self):
        out = canonical_bindings({"t0.c0": ("b", "a", "b", "a")})
        assert out == {"t0.c0": ("a", "b")}

    def test_deterministic_order_for_mixed_types(self):
        out = canonical_bindings({"t0.c0": (3, "x", 1, "a", 2)})
        # Sorted by (type name, repr): ints before strs, each ascending.
        assert out == {"t0.c0": (1, 2, 3, "a", "x")}

    def test_empty_input(self):
        assert canonical_bindings(None) == {}
        assert canonical_bindings({}) == {}

    def test_columns_sorted(self):
        out = canonical_bindings({"t1.c2": (1,), "t0.c0": (2,)})
        assert list(out) == ["t0.c0", "t1.c2"]


class TestFetchMany:
    def queries(self):
        return [
            psj_of(parse_query("a(S) :- supplier(S, City, R), R >= 8")),
            psj_of(parse_query("b(S, P) :- shipment(S, P, Q), Q >= 40")),
        ]

    def test_one_round_trip_for_many_queries(self):
        cms = CacheManagementSystem(make_server())
        cms.begin_session()
        # First call pays the catalog lookups; measure the second so the
        # delta counts data round trips only.
        cms.rdi.fetch_many(self.queries())
        before = cms.metrics.snapshot()
        results = cms.rdi.fetch_many(self.queries())
        delta = cms.metrics.diff(before)
        assert delta.get("remote.requests", 0) == 1
        assert delta.get("remote.batched_requests", 0) == 2
        assert len(results) == 2

    def test_results_match_individual_fetches(self):
        batched = CacheManagementSystem(make_server())
        batched.begin_session()
        many = batched.rdi.fetch_many(self.queries())

        single = CacheManagementSystem(make_server())
        single.begin_session()
        for got, psj in zip(many, self.queries()):
            assert sorted(got.rows) == sorted(single.rdi.fetch(psj).rows)

    def test_empty_and_singleton_batches(self):
        cms = CacheManagementSystem(make_server())
        cms.begin_session()
        assert cms.rdi.fetch_many([]) == []
        [only] = cms.rdi.fetch_many(self.queries()[:1])
        assert len(only) == 8  # suppliers rated 8 or 9
        assert cms.metrics.get("remote.batched_requests") == 0


class TestBindingSpec:
    def test_is_frozen_and_defaulted(self):
        spec = BindingSpec(
            remote_column="t1.c0",
            source_column="t0.c0",
            condition=Comparison(Col("t1.c0"), "=", Col("t0.c0")),
        )
        assert spec.estimated_values == 0.0
        with pytest.raises(AttributeError):
            spec.remote_column = "t2.c0"
