"""Acceptance: a planted shape-plan bug is caught, twice over.

Companion of ``test_canonical_planted_bug`` (a wrong *fold*) and
``test_signature_planted_bug`` (a wrong *prefilter*), for the shortcut in
front of ``canonical._build``: a query bound from its shape's plan gets a
canonical form assembled from fragments rendered once per shape, and
rendering a fragment once that an ask changes hands a query the key of
another.

The mutant renders the class facts once per plan: two queries of one
shape that differ only in their constants get one key, the second is
indexed under the first's, and the cache serves it the first's rows.  ``QueryPlanner.audit`` (``audit_canonical``: carried form vs a
from-scratch ``_build``) stops it at the first such pair, before any row
is served; with the audit taken out, the ``healthy`` differential profile
still kills it on rows.
"""

from dataclasses import replace

import pytest

import repro.caql.eval as eval_module
import repro.core.cache as cache_module
import repro.core.canonical as canonical_module
import repro.core.planner as planner_module
from repro.caql.parser import parse_query
from repro.common.errors import InvariantViolation
from repro.core.cms import CacheManagementSystem
from repro.qa import (
    CaseConfig,
    CaseGenerator,
    case_failure,
    replay,
    run_case,
    shrink,
    write_repro,
)
from repro.relational.relation import relation_from_columns
from repro.remote.server import RemoteDBMS

CORPUS = 40  # well inside the CI smoke's 150 healthy cases

real_bind = canonical_module.FormPlan.bind


def facts_once_bind(plan, values, projection, unsatisfiable):
    """``FormPlan.bind`` whose key keeps the rendered conditions of the
    plan's first ask."""
    form = real_bind(plan, values, projection, unsatisfiable)
    if form.unsatisfiable:
        return form
    first = plan.__dict__.setdefault("first_facts", form.key[2])
    return replace(form, key=form.key[:2] + (first,) + form.key[3:])


class _Mutable(canonical_module.FormPlan):
    """``FormPlan`` with an instance dict, for the mutant's memory."""


@pytest.fixture
def planted_bug(monkeypatch):
    monkeypatch.setattr(canonical_module, "FormPlan", _Mutable)
    monkeypatch.setattr(_Mutable, "bind", facts_once_bind)
    eval_module._shapes.clear()
    yield
    eval_module._shapes.clear()


@pytest.fixture
def audits_off(monkeypatch):
    monkeypatch.setattr(planner_module, "audit_canonical", lambda query: None)
    monkeypatch.setattr(
        cache_module, "audit_canonical", canonical_module.canonical_key
    )


def failure(case):
    """``case_failure`` as a fresh process would see it: a plan left by
    an earlier case (or an earlier shrink step) must not be what fails —
    the repro has to fail on its own when replayed."""
    eval_module._shapes.clear()
    return case_failure(case)


def _failing_case():
    for case in CaseGenerator(0, CaseConfig()).corpus(CORPUS):
        if failure(case) is not None:
            return case
    pytest.fail("planted shape-plan bug escaped the healthy corpus")


class TestPlantedMemoKeyBugIsCaught:
    def test_the_planner_audit_stops_the_first_colliding_pair(self, planted_bug):
        remote = RemoteDBMS()
        remote.load_table(relation_from_columns("b0", a=[1, 2], b=[10, 20]))
        cms = CacheManagementSystem(remote)
        cms.begin_session()
        cms.planner.audit = True
        assert cms.query(parse_query("d0(X) :- b0(X, Y), Y > 5")).fetch_all() == [(1,), (2,)]
        with pytest.raises(InvariantViolation, match="canonical form of d1"):
            cms.query(parse_query("d1(X) :- b0(X, Y), Y > 15"))
        # The audit is all that stands between the mutant and wrong rows.
        cms.planner.audit = False
        assert cms.query(parse_query("d1(X) :- b0(X, Y), Y > 15")).fetch_all() == [(1,), (2,)]

    def test_detected_by_the_audit_under_the_differential_runner(self, planted_bug):
        case = _failing_case()
        eval_module._shapes.clear()
        report = run_case(case)
        assert report.failed
        assert {d.kind for d in report.divergences} == {"unexpected-error"}
        assert all(
            "InvariantViolation: canonical form of" in d.detail
            for d in report.divergences
        )

    def test_killed_on_rows_with_the_audit_off_and_shrunk_to_a_repro(
        self, planted_bug, audits_off, tmp_path
    ):
        case = _failing_case()
        assert "wrong-rows" in failure(case)
        result = shrink(case, failure)
        # One query to fill the row, one to be handed it.
        assert result.queries <= 3, (
            f"shrunk case still has {result.queries} queries "
            f"(from {result.original_queries})"
        )
        assert result.queries < result.original_queries
        assert "wrong-rows" in result.reason
        path = tmp_path / "repro-front-door.json"
        write_repro(str(path), result.case, reason=result.reason)
        eval_module._shapes.clear()
        assert replay(str(path)).failed

    def test_clean_again_once_the_bug_is_fixed(self, planted_bug, monkeypatch):
        case = _failing_case()
        monkeypatch.setattr(_Mutable, "bind", real_bind)
        assert failure(case) is None
