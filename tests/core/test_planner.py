"""Tests for the three-step Query Planner/Optimizer."""

import pytest

from repro.common.clock import CostProfile
from repro.relational.relation import Relation
from repro.relational.statistics import RelationStatistics
from repro.caql.eval import evaluate_psj, psj_of, result_schema
from repro.caql.parser import parse_query
from repro.advice.language import AdviceSet
from repro.advice.path_expression import Cardinality, QueryPattern, Sequence
from repro.advice.view_spec import annotate
from repro.core.advice_manager import AdviceManager
from repro.core.cache import Cache
from repro.core.plan import CachePart, RemotePart
from repro.core.planner import PlannerFeatures, QueryPlanner


def make_psj(text):
    return psj_of(parse_query(text))


B2_ROWS = [(x, z) for x in range(5) for z in range(5)]
B3_ROWS = [(z, c, y) for z in range(5) for c in ("c2", "c3") for y in range(3)]
DB = {
    "b2": Relation(result_schema("b2", 2), B2_ROWS),
    "b3": Relation(result_schema("b3", 3), B3_ROWS),
}


def stats_of(pred):
    return RelationStatistics.from_relation(DB[pred])


def make_planner(cache=None, advice=None, features=None):
    manager = AdviceManager()
    if advice is not None:
        manager.begin_session(advice)
    else:
        manager.begin_session(None)
    profile = CostProfile()
    return QueryPlanner(
        cache if cache is not None else Cache(),
        manager,
        stats_of,
        lambda _table: ("", profile),
        profile,
        features,
    )


def cache_with(*texts):
    cache = Cache()
    for text in texts:
        psj = make_psj(text)
        cache.store(psj, evaluate_psj(psj, DB.__getitem__))
    return cache


class TestDegenerate:
    def test_unsatisfiable(self):
        planner = make_planner()
        plan = planner.plan(make_psj("q(X) :- b2(X, Z), 2 < 1"))
        assert plan.strategy == "unsatisfiable"

    def test_unit_query(self):
        from repro.caql.psj import psj_from_literals

        planner = make_planner()
        plan = planner.plan(psj_from_literals("q", [], [], ()))
        assert plan.strategy == "unit"


class TestStrategySelection:
    def test_cold_cache_goes_remote(self):
        planner = make_planner()
        plan = planner.plan(make_psj("q(X, Z) :- b2(X, Z)"))
        assert plan.strategy == "remote"
        assert len(plan.parts) == 1
        assert isinstance(plan.parts[0], RemotePart)

    def test_exact_hit(self):
        cache = cache_with("q(X, Z) :- b2(X, Z)")
        (element,) = cache.elements()
        planner = make_planner(cache)
        psj = make_psj("q2(A, B) :- b2(A, B)")
        hit = planner.exact_hit(psj)
        assert hit.element is element and not hit.canonical
        # The exact tier is asked before planning; ``plan`` itself has no
        # exact branch and derives such a query like any subsumed one.
        assert planner.plan(psj).strategy == "cache-full"
        assert planner.exact_hit(make_psj("q(Z) :- b2(2, Z)")) is None

    def test_full_subsumption(self):
        cache = cache_with("scan(X, Z) :- b2(X, Z)")
        planner = make_planner(cache)
        plan = planner.plan(make_psj("q(Z) :- b2(2, Z)"))
        assert plan.strategy == "cache-full"
        assert plan.full_match is not None

    def test_hybrid_split(self):
        # The uncovered remote part (b2 with X pinned) ships few tuples, so
        # the hybrid split beats re-shipping the join.
        cache = cache_with("e12(X, Y) :- b3(X, c2, Y)")
        planner = make_planner(cache)
        plan = planner.plan(make_psj("d2(Z) :- b2(2, Z), b3(Z, c2, 1)"))
        assert plan.strategy == "hybrid"
        kinds = {type(p) for p in plan.parts}
        assert kinds == {CachePart, RemotePart}

    def test_hybrid_remote_subquery_contents(self):
        cache = cache_with("e12(X, Y) :- b3(X, c2, Y)")
        planner = make_planner(cache)
        plan = planner.plan(make_psj("d2(Z) :- b2(2, Z), b3(Z, c2, 1)"))
        remote = next(p for p in plan.parts if isinstance(p, RemotePart))
        assert [o.pred for o in remote.sub_query.occurrences] == ["b2"]
        # The cross join condition stays at the combine stage.
        assert len(plan.cross_conditions) == 1

    def test_whole_query_shipping_can_beat_hybrid(self):
        # With an unconstrained b2, fetching all of b2 costs more than
        # letting the server do the join — the paper's plan (b).
        cache = cache_with("e12(X, Y) :- b3(X, c2, Y)")
        planner = make_planner(cache)
        plan = planner.plan(make_psj("d2(X) :- b2(X, Z), b3(Z, c2, 1)"))
        assert plan.strategy == "remote"
        assert any("shipping beat" in note for note in plan.notes)

    def test_remote_down_hybrid_reads_no_covered_statistics(self):
        # With the remote unavailable the hybrid split is kept and only the
        # uncovered part is priced: the covered occurrence's statistics (a
        # charged round trip on a real link) are never asked for.
        cache = cache_with("e12(X, Y) :- b3(X, c2, Y)")
        planner = make_planner(cache, features=PlannerFeatures(semijoin=False))
        asked = []
        planner.stats_of = lambda pred: (asked.append(pred), stats_of(pred))[1]
        planner.remote_available = lambda: False
        plan = planner.plan(make_psj("d2(X) :- b2(X, Z), b3(Z, c2, 1)"))
        assert plan.strategy == "hybrid"
        assert asked and "b3" not in asked

    def test_caching_disabled_always_remote(self):
        cache = cache_with("scan(X, Z) :- b2(X, Z)")
        features = PlannerFeatures(caching=False)
        planner = make_planner(cache, features=features)
        plan = planner.plan(make_psj("q(Z) :- b2(2, Z)"))
        assert plan.strategy == "remote"
        assert not plan.cache_result

    def test_subsumption_disabled_only_exact(self):
        cache = cache_with("scan(X, Z) :- b2(X, Z)")
        features = PlannerFeatures(subsumption=False)
        planner = make_planner(cache, features=features)
        assert planner.plan(make_psj("q(Z) :- b2(2, Z)")).strategy == "remote"
        assert planner.exact_hit(make_psj("q(X, Z) :- b2(X, Z)")) is not None


class TestAdviceDrivenDecisions:
    def advice(self):
        d2 = annotate(parse_query("d2(X, Y) :- b2(X, Z), b3(Z, c2, Y)"), "^?")
        path = Sequence((QueryPattern("d2", ("X^", "Y?")),), lower=0, upper=Cardinality("Y"))
        return AdviceSet.from_views([d2], path_expression=path)

    def test_generalization_prefetch_planned(self):
        planner = make_planner(advice=self.advice())
        plan = planner.plan(make_psj("d2(X, 1) :- b2(X, Z), b3(Z, c2, 1)"))
        assert plan.prefetches
        general = plan.prefetches[0]
        assert general.name == "d2__general"
        # The general query carries no pinned answer constant.
        assert all(not str(c).endswith("= 1") for c in general.conditions)

    def test_no_generalization_without_repetition(self):
        d2 = annotate(parse_query("d2(X, Y) :- b2(X, Z), b3(Z, c2, Y)"), "^?")
        path = Sequence((QueryPattern("d2"),), lower=1, upper=1)
        advice = AdviceSet.from_views([d2], path_expression=path)
        planner = make_planner(advice=advice)
        plan = planner.plan(make_psj("d2(X, 1) :- b2(X, Z), b3(Z, c2, 1)"))
        assert not plan.prefetches

    def test_no_generalization_without_consumers(self):
        d2 = annotate(parse_query("d2(X, Y) :- b2(X, Z), b3(Z, c2, Y)"), "^^")
        path = Sequence((QueryPattern("d2"),), lower=0, upper=None)
        advice = AdviceSet.from_views([d2], path_expression=path)
        planner = make_planner(advice=advice)
        plan = planner.plan(make_psj("d2(X, 1) :- b2(X, Z), b3(Z, c2, 1)"))
        assert not plan.prefetches

    def test_generalization_feature_flag(self):
        features = PlannerFeatures(generalization=False)
        planner = make_planner(advice=self.advice(), features=features)
        plan = planner.plan(make_psj("d2(X, 1) :- b2(X, Z), b3(Z, c2, 1)"))
        assert not plan.prefetches

    def test_index_positions_from_consumer_annotations(self):
        planner = make_planner(advice=self.advice())
        plan = planner.plan(make_psj("d2(X, 1) :- b2(X, Z), b3(Z, c2, 1)"))
        assert plan.index_positions == (1,)

    def test_lazy_for_pure_producer_on_full_match(self):
        d2 = annotate(parse_query("d2(X, Z) :- b2(X, Z)"), "^^")
        advice = AdviceSet.from_views([d2])
        cache = cache_with("scan(X, Z) :- b2(X, Z)")
        planner = make_planner(cache, advice=advice)
        plan = planner.plan(make_psj("d2(X, Z) :- b2(X, Z), X < 2"))
        assert plan.strategy == "cache-full"
        assert plan.lazy

    def test_not_lazy_for_consumer_views(self):
        cache = cache_with("scan(X, Z) :- b2(X, Z)")
        planner = make_planner(cache, advice=self.advice())
        planner.plan(make_psj("d2(X, 1) :- b2(X, Z), b3(Z, c2, 1)"))
        # Not a full match here, but even for full matches the consumer
        # annotation should suppress lazy evaluation:
        cache2 = cache_with("whole(X, Z, Y) :- b2(X, Z), b3(Z, c2, Y)")
        planner2 = make_planner(cache2, advice=self.advice())
        plan2 = planner2.plan(make_psj("d2(X, 1) :- b2(X, Z), b3(Z, c2, 1)"))
        assert plan2.strategy == "cache-full"
        assert not plan2.lazy


class TestCostModel:
    def test_estimate_rows_selection(self):
        planner = make_planner()
        full = planner.estimate_rows(make_psj("q(X, Z) :- b2(X, Z)"))
        selected = planner.estimate_rows(make_psj("q(Z) :- b2(2, Z)"))
        assert selected < full
        assert full == pytest.approx(25.0)

    def test_estimate_rows_join_selectivity(self):
        planner = make_planner()
        cross_like = planner.estimate_rows(make_psj("q(X, Y) :- b2(X, Z), b3(Z, c2, Y)"))
        assert cross_like < 25 * 30

    def test_remote_cost_grows_with_tables(self):
        planner = make_planner()
        single = planner._remote_cost(make_psj("q(X, Z) :- b2(X, Z)"))
        double = planner._remote_cost(make_psj("q(X, Y) :- b2(X, Z), b3(Z, c2, Y)"))
        assert double > single

    def test_plan_records_estimates(self):
        planner = make_planner()
        plan = planner.plan(make_psj("q(X, Z) :- b2(X, Z)"))
        assert plan.estimated_remote_cost > 0


class TestTracedProbe:
    """With a real tracer the planner reports its subsumption rationale
    from the probe it runs anyway — not from a second one."""

    ELEMENTS = (
        "e1(X, Z) :- b2(X, Z)",
        "e2(X, Z) :- b2(X, Z), X < 3",
        "e3(Z) :- b2(1, Z)",
        "e4(X, Y) :- b3(X, c2, Y)",
    )

    @pytest.mark.parametrize(
        "text, strategy, candidates",
        [
            ("q(X, Z) :- b2(X, Z), X < 2", "cache-full", 3),
            ("q(X, Y) :- b2(X, Z), b3(Z, c3, Y)", "hybrid", 4),
            ("q(X, Y) :- b3(X, c3, Y)", "remote", 1),
        ],
    )
    def test_one_match_per_candidate_and_the_same_plan(
        self, monkeypatch, text, strategy, candidates
    ):
        from repro.common.clock import SimClock
        from repro.core import subsumption
        from repro.obs.tracer import Tracer

        cache = cache_with(*self.ELEMENTS)
        psj = make_psj(text)
        untraced = make_planner(cache).plan(psj)
        assert untraced.strategy == strategy
        expected = subsumption.explain_candidates(cache, psj)
        assert len(expected) == candidates

        examined = []
        real = subsumption.match_element

        def counting(element, *args, **kwargs):
            examined.append(element.element_id)
            return real(element, *args, **kwargs)

        monkeypatch.setattr(subsumption, "match_element", counting)
        tracer = Tracer(SimClock())
        planner = make_planner(cache)
        planner.tracer = tracer
        traced = planner.plan(psj)

        # Each candidate the containment signature let through went
        # through match_element exactly once, the others never ...
        assert sorted(examined) == sorted(
            r.element_id for r in expected if not r.prefiltered
        )
        assert len(examined) < candidates  # every case has a signature reject
        # ... tracing did not perturb the plan ...
        assert traced.strategy == untraced.strategy
        assert traced.part_labels() == untraced.part_labels()
        assert traced.full_match == untraced.full_match
        assert traced.notes == untraced.notes
        # ... and the span carries the full rationale, in explain's order.
        (span,) = [s for s in tracer.spans if s.name == "planner.plan"]
        events = [
            (e.name, dict(e.attributes)["element"], dict(e.attributes).get("reasons"))
            for e in span.events
            if e.name.startswith("subsume.")
        ]
        assert events == [
            ("subsume.match", r.element_id, None)
            if r.matched
            else ("subsume.reject", r.element_id, list(r.rejections))
            for r in expected
        ]

    def test_a_plan_answered_before_the_probe_still_explains_itself(
        self, monkeypatch
    ):
        from repro.common.clock import SimClock
        from repro.core import planner as planner_module
        from repro.obs.tracer import Tracer

        cache = cache_with(*self.ELEMENTS)
        tracer = Tracer(SimClock())
        planner = make_planner(cache)
        planner.tracer = tracer
        probes = []
        real = planner_module.find_relevant

        def counting(*args, **kwargs):
            probes.append(args[1].name)
            return real(*args, **kwargs)

        monkeypatch.setattr(planner_module, "find_relevant", counting)
        plan = planner.plan(make_psj("none(X, Z) :- b2(X, Z), X > 3, X < 2"))
        assert plan.strategy == "unsatisfiable"
        # The span carries the decision, and no rationale for a probe that
        # never ran: tracing runs none of its own.
        (span,) = tracer.spans
        attributes = dict(span.attributes)
        assert attributes["strategy"] == "unsatisfiable"
        assert attributes["notes"] == plan.notes
        assert not [e for e in span.events if e.name.startswith("subsume.")]
        assert probes == []
        # The exact tier answers before any plan: no span, no probe.
        assert planner.exact_hit(make_psj("again(X, Z) :- b2(X, Z)")) is not None
        assert len(tracer.spans) == 1 and probes == []


class TestPrefilterAudit:
    """Under ``audit`` the planner puts every candidate its probe rejected
    on the containment signature through ``match_element`` after all."""

    @staticmethod
    def reject_everything(self, signature):
        return signature.occurrences[0][1], None

    def audited_then_broken(self, monkeypatch):
        from repro.caql.implication import ContainmentProbe
        from repro.common.errors import InvariantViolation

        cache = cache_with(*TestTracedProbe.ELEMENTS)
        psj = make_psj("q(X, Z) :- b2(X, Z), X < 2")
        planner = make_planner(cache)
        planner.audit = True
        assert planner.plan(psj).strategy == "cache-full"  # sound: silent
        monkeypatch.setattr(ContainmentProbe, "rejection", self.reject_everything)
        with pytest.raises(InvariantViolation, match="signature rejected E1"):
            planner.plan(psj)
        planner.audit = False
        return planner

    def test_a_false_reject_raises_only_under_audit(self, monkeypatch):
        planner = self.audited_then_broken(monkeypatch)
        # Unaudited, the same bug is only a worse plan: on a shape no
        # element keeps a match plan for, the signature still gates.
        assert planner.plan(make_psj("q(X, Z) :- b2(X, Z), X =< 2")).strategy == "remote"

    def test_a_kept_plan_decides_a_re_ask_not_the_signature(self, monkeypatch):
        planner = self.audited_then_broken(monkeypatch)
        # The audited ask kept E1's plan for its shape, so another ask of
        # that shape never reaches the (broken) signature.
        assert planner.plan(make_psj("q(X, Z) :- b2(X, Z), X < 1")).strategy == "cache-full"


class TestWholeQueryShipping:
    """When shipping the whole query beats the hybrid split, the one remote
    part fetches the query's constant-free projection, as a remote-only
    plan does: a pinned answer constant is put back by the combine stage."""

    def test_a_pinned_answer_constant_is_not_fetched(self):
        from repro.core.cms import CacheManagementSystem
        from repro.relational.relation import relation_from_columns
        from repro.remote.server import RemoteDBMS

        tables = {
            "b2": relation_from_columns("b2", a=[1, 2, 3, 4], b=[10, 20, 30, 40]),
            "b3": relation_from_columns("b3", a=[10, 20, 30], b=[7, 8, 9]),
        }
        server = RemoteDBMS(profile=CostProfile(cache_per_tuple=1.0))
        for table in tables.values():
            server.load_table(table)
        cms = CacheManagementSystem(server)
        cms.begin_session()
        cms.query(parse_query("v(X, Y) :- b2(X, Y)")).fetch_all()
        query = parse_query("q(X, 3, C) :- b2(X, Y), b3(Y, C)")
        plan = cms.planner.plan(psj_of(query))
        assert "whole-query shipping beat the hybrid split" in plan.notes
        (part,) = plan.parts
        assert part.columns == tuple(part.sub_query.projection) == ("t0.c0", "t1.c1")
        expected = evaluate_psj(psj_of(query), tables.__getitem__)
        assert sorted(cms.query(query).fetch_all()) == sorted(expected)
        assert sorted(expected) == [(1, 3, 7), (2, 3, 8), (3, 3, 9)]
