"""Acceptance: planted bugs in a kept match plan are caught.

``match_element`` keeps one :class:`~repro.core.subsumption.MatchPlan` per
(element, query shape) and evaluates it against each ask's constants.  Two
mutants, one per thing a kept plan may get wrong:

* ``shape_blind`` — the plan is kept per element alone, so an ask of
  another shape is matched with the mappings, column roles and projection
  of the shape that built it;
* ``first_constant`` — a residual keeps the literal of the first ask that
  built it, so a later drill re-applies an earlier drill's bound.

``QueryPlanner.audit`` — the differential runner sets it on every CMS —
matches every candidate again through a plan built for the ask alone, so
both are killed on a healthy fuzz case; a hand case kills each too.
"""

import pytest

import repro.core.subsumption as subsumption
from repro.common.errors import InvariantViolation
from repro.relational.expressions import Comparison
from repro.qa import CaseConfig, CaseGenerator, case_failure, run_case
from tests.core.test_subsumption import TestMatchPlans, cache_with, make_psj

CORPUS = 40  # well inside the CI smoke's 150 healthy cases

real_init = subsumption._MappingPlan.__init__


def _shape_blind(element, query):
    plans = element.match_plans
    if None not in plans:
        plans[None] = subsumption.MatchPlan(element.definition, query)
    return plans[None]


def _first_constant(plan, element_def, query, *rest):
    """Each covered literal the element does not drop becomes the residual
    the ask that built the plan re-applies — for every later ask too."""
    real_init(plan, element_def, query, *rest)
    plan.checks = tuple(
        check if type(check) is Comparison or check[3] is None
        else _residual(check, query.conditions[check[0]])
        for check in plan.checks
    )


def _residual(check, condition):
    _position, _element_col, _op, col, flipped = check
    if flipped:
        return Comparison(condition.left, condition.op, col)
    return Comparison(col, condition.op, condition.right)


@pytest.fixture(params=["shape_blind", "first_constant"])
def planted_bug(request, monkeypatch):
    if request.param == "shape_blind":
        monkeypatch.setattr(subsumption, "_match_plan", _shape_blind)
    else:
        monkeypatch.setattr(subsumption._MappingPlan, "__init__", _first_constant)
    return request.param


def _kill(case) -> str | None:
    """How ``case`` fails under the mutant, None when it passes: a
    divergence the runner reports, or an exception out of the planner."""
    try:
        return case_failure(case)
    except Exception as error:  # a plan read past the ask's conditions
        return f"{type(error).__name__}: {error}"


def _first_killing_case():
    for case in CaseGenerator(0, CaseConfig()).corpus(CORPUS):
        if _kill(case) is not None:
            return case
    pytest.fail("planted match-plan bug escaped the healthy corpus")


class TestPlantedMatchPlanBugIsCaught:
    def test_killed_on_the_healthy_corpus(self, planted_bug):
        case = _first_killing_case()
        if planted_bug == "first_constant":
            # The audit names it, on the variants that plan.
            details = [d.detail for d in run_case(case).divergences]
            assert any("match plan of" in detail for detail in details)

    def test_caught_by_a_hand_case(self, planted_bug, monkeypatch):
        if planted_bug == "first_constant":
            with pytest.raises(AssertionError):
                TestMatchPlans().drill_stream(monkeypatch)
            return
        cache, _ = cache_with("wide(X, Z) :- b2(X, Z)")
        subsumption.find_relevant(cache, make_psj("d(X) :- b2(X, Z), X >= 1"))
        other_shape = make_psj("e(Z) :- b2(X, Z), Z < 3")
        reports = []
        subsumption.find_relevant(cache, other_shape, reports)
        with pytest.raises(InvariantViolation, match="match plan of E1"):
            subsumption.audit_prefilter(cache, other_shape, reports)

    def test_clean_again_once_the_bug_is_fixed(self, planted_bug, monkeypatch):
        monkeypatch.undo()
        for case in CaseGenerator(0, CaseConfig()).corpus(5):
            assert case_failure(case) is None
