"""`cms.explain`: the plan and subsumption rationale, without execution.

The contract under test: explain is **pure observation** — it never
charges the clock, increments a counter, issues a remote request, or
mutates the cache — and its rationale agrees with what actually running
the query would do.
"""

import pytest

from repro.common.errors import PlanningError
from repro.common.metrics import IE_CAQL_QUERIES, REMOTE_REQUESTS
from repro.relational.relation import relation_from_columns
from repro.remote.server import RemoteDBMS
from repro.caql.parser import parse_query
from repro.core.cms import CacheManagementSystem, CMSFeatures
from repro.core.query_explain import PlanExplanation


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


class TestExplainIsPure:
    def test_warm_explain_is_completely_free(self, cms):
        # One real query warms the (memoized) catalog metadata; after
        # that, explain charges nothing and increments nothing.
        cms.query(parse_query("q(Y) :- parent(tom, Y)")).fetch_all()
        before_clock = cms.clock.now
        before = cms.metrics.snapshot()
        explanation = cms.explain(parse_query("q2(Y) :- parent(bob, Y)"))
        assert isinstance(explanation, PlanExplanation)
        assert cms.clock.now == before_clock
        assert cms.metrics.snapshot() == before

    def test_explain_does_not_count_as_a_query(self, cms):
        cms.explain(parse_query("q(Y) :- parent(tom, Y)"))
        assert cms.metrics.get(IE_CAQL_QUERIES) == 0

    def test_explain_does_not_populate_the_cache(self, cms):
        cms.explain(parse_query("q(Y) :- parent(tom, Y)"))
        assert cms.cache_statistics()["elements"] == 0

    def test_explain_then_query_costs_the_same_as_query_alone(self):
        # Cold, explain pays only the planner's memoized catalog lookup —
        # the same lookup the query itself would pay, exactly once.
        def run(with_explain: bool):
            cms = CacheManagementSystem(load_tables(RemoteDBMS()))
            cms.begin_session()
            query = parse_query("q(Y) :- parent(tom, Y)")
            if with_explain:
                cms.explain(query)
            cms.query(query).fetch_all()
            return cms.clock.now, cms.metrics.snapshot()

        assert run(with_explain=True) == run(with_explain=False)

    def test_explain_matches_subsequent_execution(self, cms):
        query = parse_query("q(Y) :- parent(tom, Y)")
        explanation = cms.explain(query)
        assert explanation.strategy == "remote"
        assert not explanation.served_from_cache
        before = cms.metrics.get(REMOTE_REQUESTS)
        cms.query(query).fetch_all()
        # The plan said remote, and running it did go remote.
        assert cms.metrics.get(REMOTE_REQUESTS) > before
        # ... and a repeat is served from cache, as explain now predicts.
        assert cms.explain(query).served_from_cache


class TestRationale:
    def test_exact_repeat_is_served_from_cache(self, cms):
        query = parse_query("q(Y) :- parent(tom, Y)")
        cms.query(query).fetch_all()
        explanation = cms.explain(query)
        assert explanation.strategy == "exact"
        assert explanation.served_from_cache

    def test_subsumed_query_reports_the_matching_element(self, cms):
        cms.query(parse_query("q(X, Y) :- parent(X, Y)")).fetch_all()
        explanation = cms.explain(parse_query("q2(Y) :- parent(tom, Y)"))
        matched = [c for c in explanation.candidates if c.matched]
        assert matched, explanation.render()
        assert explanation.served_from_cache

    def test_rejected_candidates_carry_reasons(self, cms):
        cms.query(parse_query("q(Y) :- parent(tom, Y)")).fetch_all()
        cms.query(parse_query("qo(P, A) :- age(P, A), A > 30")).fetch_all()
        explanation = cms.explain(parse_query("q2(Y, A) :- parent(bob, Y), age(Y, A)"))
        rejected = [c for c in explanation.candidates if not c.matched]
        assert len(rejected) == 2
        reasons = [r for c in rejected for r in c.rejections]
        # The signature's reason, and the anchor the pin index skipped on.
        assert any("more restrictive" in reason for reason in reasons)
        assert any("pins parent/2 argument 0 to 'tom'" in reason for reason in reasons)

    def test_rejection_reasons_verbatim(self, cms):
        """Every way a candidate can be rejected, with the exact wording
        and order ``explain`` has always shown (matched first, then by
        element id), each from the tier that turned the candidate away:
        the pin index, the signature, the dropped-column test or an
        occurrence mapping.  ``qp`` is asked before ``qa``: asked after, it
        would be derived from ``qa`` and, derived eagerly, not stored."""
        for text in [
            "q(Y) :- parent(tom, Y)",
            "qp(X) :- parent(X, Y)",
            "qa(X, Y) :- parent(X, Y)",
            "qj(X, A) :- parent(X, Y), age(Y, A)",
            "qo(P, A) :- age(P, A), A > 30",
        ]:
            cms.query(parse_query(text)).fetch_all()

        def rationale(text):
            return [
                (c.element_id, c.view_name, c.matched, c.rejections)
                for c in cms.explain(parse_query(text)).candidates
            ]

        skipped_on_tom = (
            "pin index: the element pins parent/2 argument 0 to 'tom', which "
            "the query does not pin there",
        )
        assert rationale("q2(Y, A) :- parent(bob, Y), age(Y, A)") == [
            ("E3", "qa", True, ()),
            ("E1", "q", False, skipped_on_tom),
            ("E2", "qp", False, (
                "element projects away t0.c1, and every query occurrence it "
                "could map onto projects or bounds one of them",
            )),
            ("E4", "qj", False, (
                "element projects away t0.c1, t1.c0, and every query occurrence "
                "it could map onto projects or bounds one of them",
            )),
            ("E5", "qo", False, (
                "[t0->t1] element condition t1.c1 > 30 is not implied by the "
                "query (the element is more restrictive)",
            )),
        ]
        assert rationale("q3(X) :- parent(X, ann)") == [
            ("E3", "qa", True, ()),
            ("E1", "q", False, skipped_on_tom),
            ("E2", "qp", False, (
                "element projects away t0.c1, and every query occurrence it "
                "could map onto projects or bounds one of them",
            )),
            ("E4", "qj", False, (
                "element mentions predicate(s) absent from the query: age",
            )),
        ]
        # What no tier before the mapping search sees, a mapping explains.
        assert rationale("q5(X, A) :- parent(X, Y), age(Y, A), A > 5") == [
            ("E3", "qa", True, ()),
            ("E4", "qj", True, ()),
            ("E1", "q", False, skipped_on_tom),
            ("E2", "qp", False, (
                "[t0->t0] join condition t0.c1 = t1.c0 crosses the coverage "
                "boundary and its covered columns were projected away by the "
                "element",
            )),
            ("E5", "qo", False, (
                "[t0->t1] element condition t1.c1 > 30 is not implied by the "
                "query (the element is more restrictive)",
            )),
        ]
        assert rationale("q6(X) :- parent(X, X)") == [
            ("E3", "qa", True, ()),
            ("E1", "q", False, skipped_on_tom),
            ("E2", "qp", False, (
                "[t0->t0] query condition t0.c0 = t0.c1 must be re-applied but "
                "its columns were projected away by the element",
            )),
            ("E4", "qj", False, (
                "element mentions predicate(s) absent from the query: age",
            )),
        ]

    def test_signature_rejections_verbatim(self, cms):
        """A candidate the containment signature turns away carries one
        reason, in the same vocabulary: the query occurrences tried and
        the first condition that failed at the first of them, or the
        relation the query has too few occurrences of.  One the pin index
        skipped names the anchor it was skipped on."""
        for text in [
            "q(Y) :- parent(tom, Y)",
            "qa(X, Y) :- parent(X, Y)",
            "qg(X, Z) :- parent(X, Y), parent(Y, Z)",
            "qo(P, A) :- age(P, A), A > 30, A =< 60",
        ]:
            cms.query(parse_query(text)).fetch_all()

        def rationale(text):
            return [
                (c.element_id, c.matched, c.prefiltered, c.rejections)
                for c in cms.explain(parse_query(text)).candidates
            ]

        assert rationale("q2(X, Z) :- parent(X, Y), parent(Y, Z), X \\= tom") == [
            ("E2", True, False, ()),
            ("E3", True, False, (
                "[t0->t1, t1->t0] element condition t1.c1 = t0.c0 is not implied "
                "by the query (the element is more restrictive)",
            )),
            ("E1", False, True, (
                "pin index: the element pins parent/2 argument 0 to 'tom', "
                "which the query does not pin there",
            )),
        ]
        assert rationale("q3(A) :- parent(bob, Y), age(Y, A), A > 40") == [
            ("E2", True, False, ()),
            ("E1", False, True, (
                "pin index: the element pins parent/2 argument 0 to 'tom', "
                "which the query does not pin there",
            )),
            ("E3", False, True, (
                "no injective occurrence mapping: the element has 2 "
                "occurrence(s) of parent/2, the query has 1",
            )),
            ("E4", False, True, (
                "[t0->t1] element condition t1.c1 <= 60 is not implied by the "
                "query (the element is more restrictive)",
            )),
        ]
        assert rationale("q4(A, B) :- age(P, A), age(Q, B), A > 40") == [
            ("E4", False, True, (
                "[t0->t0|t1] element condition t0.c1 <= 60 is not implied by "
                "the query (the element is more restrictive)",
            )),
        ]

    def test_unrelated_predicates_are_not_candidates(self, cms):
        cms.query(parse_query("q(Y) :- parent(tom, Y)")).fetch_all()
        explanation = cms.explain(parse_query("q2(A) :- age(tom, A)"))
        assert explanation.candidates == ()

    def test_subsumption_off_explains_without_candidates(self):
        system = CacheManagementSystem(
            load_tables(RemoteDBMS()), features=CMSFeatures(subsumption=False)
        )
        system.begin_session()
        system.query(parse_query("q(X, Y) :- parent(X, Y)")).fetch_all()
        explanation = system.explain(parse_query("q2(Y) :- parent(tom, Y)"))
        assert explanation.candidates == ()


class TestRendering:
    def test_to_dict_is_json_friendly(self, cms):
        cms.query(parse_query("q(Y) :- parent(tom, Y)")).fetch_all()
        doc = cms.explain(parse_query("q2(Y) :- parent(bob, Y)")).to_dict()
        assert doc["strategy"]
        assert isinstance(doc["candidates"], list)
        import json

        json.dumps(doc)  # must not raise

    def test_render_names_the_strategy_and_candidates(self, cms):
        cms.query(parse_query("q(Y) :- parent(tom, Y)")).fetch_all()
        text = cms.explain(parse_query("q2(Y) :- parent(bob, Y)")).render()
        assert "strategy=" in text
        assert "candidate" in text

    def test_non_caql_input_raises_planning_error(self, cms):
        with pytest.raises(PlanningError):
            cms.explain("not a query")
