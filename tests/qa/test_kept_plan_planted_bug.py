"""Acceptance: planted bugs in what a kept match plan decides alone are
caught.

A kept :class:`~repro.core.subsumption.MatchPlan` decides its candidate
without the containment signature, and hands each hit its residual's
generated kernel, kept per set of checks that survive an ask's constants.
Two mutants, one per thing that can go wrong:

* ``column_blind`` — the mapping keeps one kernel per sequence of residual
  operators, so two residuals that differ only in one condition's column
  share the kernel generated for the first;
* ``other_shape`` — an element keeps one plan per tuple of query
  occurrences, so an ask of another shape over the same relations is
  decided by the plan of the shape that built it.

``QueryPlanner.audit`` kills both: it matches every candidate again through
a plan built for the ask alone and derives each residual's kernel shape
from scratch.  ``other_shape`` crashes or diverges on every fuzz profile;
no profile kills ``column_blind`` (no generated shape has two same-operator
bounds its element guarantees on different asks), so the hand case is its
net.
"""

import pytest

import repro.core.subsumption as subsumption
from repro.caql.eval import evaluate_psj
from repro.common.errors import InvariantViolation
from repro.qa import CaseConfig, CaseGenerator, case_failure
from tests.core.test_subsumption import DB, cache_with, make_psj

CORPUS = 40  # well inside the CI smoke's 150 healthy cases

real_kernel = subsumption._MappingPlan.kernel


def _column_blind(mapping, skipped, residual, element):
    return real_kernel(mapping, tuple(c.op for c in residual), residual, element)


def _other_shape(element, query):
    shape = query.__dict__.get("_shape")
    if shape is None:
        return subsumption.MatchPlan(element.definition, query)
    plans = element.match_plans
    if shape.occurrences not in plans:
        plans[shape.occurrences] = subsumption.MatchPlan(element.definition, query)
    return plans[shape.occurrences]


@pytest.fixture(params=["column_blind", "other_shape"])
def planted_bug(request, monkeypatch):
    if request.param == "column_blind":
        monkeypatch.setattr(subsumption._MappingPlan, "kernel", _column_blind)
    else:
        monkeypatch.setattr(subsumption, "_match_plan", _other_shape)
    return request.param


def _asks(planted_bug):
    """Two asks the mutant answers alike, and the element both hit."""
    if planted_bug == "column_blind":
        # Each ask repeats one of the element's bounds (guaranteed, so not
        # re-applied) and tightens the other column's, by the same operator.
        cache, _ = cache_with("low(X, Z) :- b2(X, Z), X < 3, Z < 3")
        texts = ("d(X, Z) :- b2(X, Z), X < 1, Z < 3", "d(X, Z) :- b2(X, Z), X < 3, Z < 1")
    else:
        cache, _ = cache_with("wide(X, Z) :- b2(X, Z)")
        texts = ("d(X) :- b2(X, Z), X >= 1", "e(Z) :- b2(X, Z), Z < 3")
    return cache, [make_psj(text) for text in texts]


def _kill(case) -> str | None:
    try:
        return case_failure(case)
    except Exception as error:  # a plan read past the ask's conditions
        return f"{type(error).__name__}: {error}"


class TestPlantedKeptPlanBugIsCaught:
    def test_the_audit_names_it(self, planted_bug):
        cache, (first, second) = _asks(planted_bug)
        subsumption.find_relevant(cache, first)
        reports = []
        subsumption.find_relevant(cache, second, reports)
        with pytest.raises(InvariantViolation, match="match plan of E1"):
            subsumption.audit_prefilter(cache, second, reports)

    def test_unaudited_it_derives_wrong_rows(self, planted_bug):
        cache, (first, second) = _asks(planted_bug)
        subsumption.find_relevant(cache, first)
        derived = [
            sorted(subsumption.derive_full(match, second))
            for match in subsumption.find_relevant(cache, second)
        ]
        assert derived != [sorted(evaluate_psj(second, DB.__getitem__))]

    def test_other_shape_is_killed_on_the_healthy_corpus(self, monkeypatch):
        monkeypatch.setattr(subsumption, "_match_plan", _other_shape)
        corpus = CaseGenerator(0, CaseConfig()).corpus(CORPUS)
        assert any(_kill(case) is not None for case in corpus)

    def test_clean_again_once_the_bug_is_fixed(self, planted_bug, monkeypatch):
        monkeypatch.undo()
        for case in CaseGenerator(0, CaseConfig()).corpus(5):
            assert case_failure(case) is None
        cache, (first, second) = _asks(planted_bug)
        subsumption.find_relevant(cache, first)
        reports = []
        subsumption.find_relevant(cache, second, reports)
        subsumption.audit_prefilter(cache, second, reports)
