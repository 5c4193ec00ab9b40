"""Acceptance: a planted containment-signature bug is caught by the audit hook.

Companion of ``test_canonical_planted_bug``, for the prefilter in front of
``match_element``.  A signature that rejects *too much* is the dangerous
direction and the invisible one: a falsely rejected element only costs its
plan (a remote fetch where the cache would have served), every answer stays
right, and no oracle comparison can tell.  What tells is
``QueryPlanner.audit`` — the differential runner sets it on every CMS — which
puts each candidate a probe skipped or turned away through the full test
after all.

Two mutants, both applied where the signature is built:

* ``strict`` — an element's ``=<`` bound is checked as ``<``, so a query
  whose bound *equals* the element's is turned away by the signature;
* ``shifted`` — a pin is compared one argument position over.  The pin
  index files an element under its signature's first pin, so the walk
  skips the element there before the signature sees it.

A third, ``kept``, errs the other way: the first column each occurrence's
projection drops is taken for kept, so a query bounding it is no longer
turned away before the mapping search.  No answer, plan or audit can see
that — it only costs the mappings — so the hand case in
``tests/core/test_subsumption.py`` and the completeness property of
``tests/core/test_signature_property.py`` are what kill it.
"""

from dataclasses import replace

import pytest

import repro.core.planner as planner_module
from repro.caql.implication import ContainmentSignature
from repro.qa import CaseConfig, CaseGenerator, case_failure, run_case, shrink

CORPUS = 40  # well inside the CI smoke's 150 healthy cases

real_of = ContainmentSignature.of.__func__


def _strict(condition, relation):
    position, op, value = condition
    return position, "<" if op == "<=" else op, value


def _shifted(condition, relation):
    position, op, value = condition
    return ((position + 1) % relation[1] if op == "=" else position), op, value


def _mutant(rewrite):
    def of(cls, definition):
        signature = real_of(cls, definition)
        return replace(
            signature,
            occurrences=tuple(
                (tag, relation, tuple(rewrite(c, relation) for c in literal))
                for tag, relation, literal in signature.occurrences
            ),
        )

    return classmethod(of)


@pytest.fixture(
    params=[
        (_strict, "containment signature rejected"),
        (_shifted, "pin index skipped"),
    ],
    ids=["strict", "shifted"],
)
def planted_bug(request, monkeypatch):
    """The mutant applied, and the tier the audit names as its culprit."""
    rewrite, culprit = request.param
    monkeypatch.setattr(ContainmentSignature, "of", _mutant(rewrite))
    return culprit


def _failing_case():
    for case in CaseGenerator(0, CaseConfig()).corpus(CORPUS):
        if case_failure(case) is not None:
            return case
    pytest.fail("planted signature bug escaped the healthy corpus")


class TestPlantedSignatureBugIsCaught:
    def test_caught_by_the_audit_hook_and_by_nothing_else(
        self, planted_bug, monkeypatch
    ):
        case = _failing_case()
        report = run_case(case)
        assert report.failed
        # The audit raises inside planning, which the runner reports as an
        # error on the auditing variants; no variant returns wrong rows.
        assert {d.kind for d in report.divergences} == {"unexpected-error"}
        assert all(
            f"InvariantViolation: {planted_bug}" in d.detail
            for d in report.divergences
        )
        # Without the hook the mutant is silent: right answers, worse plans.
        monkeypatch.setattr(planner_module, "audit_prefilter", lambda *args: None)
        assert case_failure(case) is None

    def test_shrinks_to_a_tiny_repro(self, planted_bug):
        case = _failing_case()
        result = shrink(case, case_failure)
        # One query to store the element, one to be falsely turned away.
        assert result.queries <= 3, (
            f"shrunk case still has {result.queries} queries "
            f"(from {result.original_queries})"
        )
        assert result.queries < result.original_queries
        assert "unexpected-error" in result.reason
        assert case_failure(result.case) == result.reason

    def test_clean_again_once_the_bug_is_fixed(self, planted_bug, monkeypatch):
        case = _failing_case()
        monkeypatch.setattr(ContainmentSignature, "of", classmethod(real_of))
        assert case_failure(case) is None


def _kept(cls, definition):
    signature = real_of(cls, definition)
    return replace(signature, dropped=tuple(cols[1:] for cols in signature.dropped))


class TestPlantedKeptColumnIsCaught:
    @pytest.fixture
    def planted_bug(self, monkeypatch):
        monkeypatch.setattr(ContainmentSignature, "of", classmethod(_kept))

    def test_killed_by_the_hand_case(self, planted_bug, monkeypatch):
        from tests.core.test_subsumption import TestDroppedColumns

        with pytest.raises(AssertionError):
            TestDroppedColumns().test_a_bound_dropped_column_is_never_matched(monkeypatch)

    def test_killed_by_the_completeness_property(self, planted_bug):
        from tests.core.test_signature_property import (
            test_a_bound_dropped_column_is_refused,
            test_a_bound_dropped_column_is_refused_on_the_corners,
        )

        with pytest.raises(AssertionError, match="a bound dropped column passed"):
            test_a_bound_dropped_column_is_refused()
        with pytest.raises(AssertionError, match="a bound dropped column passed"):
            test_a_bound_dropped_column_is_refused_on_the_corners("c(X) :- r(X, Y)")

    def test_silent_on_answers_and_audits(self, planted_bug):
        for case in CaseGenerator(0, CaseConfig()).corpus(10):
            assert case_failure(case) is None
