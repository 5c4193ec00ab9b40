"""Acceptance: a planted bug in the subsumption walk's own guard is caught
by every fuzz profile.

``find_relevant`` is one walk: collecting reports (the tracer, ``explain``
and ``QueryPlanner.audit``, which the differential runner sets on every
CMS) only records what the walk decides.  So the walk the fuzzer audits is
the walk production runs, and a bug in one of its tiers is a bug the audit
sees.

* ``inverted_guard`` — the dropped-column guard is inverted: a candidate
  reaches ``match_element`` only when ``drops_bounded`` *would* turn it
  away, so every candidate that could match is turned away instead.

Unaudited it is only a worse plan (a remote fetch where the cache would
have served); the audit matches every turned-away element again and
raises.  While the audited walk was a second loop that never asked
``drops_bounded``, this mutant left all five pinned fuzz fingerprints
unchanged, with 0 divergences; now each profile's pinned corpus fails.
"""

import pytest

import repro.core.planner as planner_module
import repro.core.subsumption as subsumption
from repro.caql.implication import ContainmentProbe
from repro.common.errors import InvariantViolation
from repro.qa import CaseConfig, CaseGenerator, case_failure, run_case, shrink
from tests.core.test_subsumption import cache_with, make_psj

#: Each profile's first pinned cases; every one holds a failing case.
CORPUS = 40

PROFILES = {
    "healthy": CaseConfig,
    "faulty": CaseConfig.faulty,
    "federated": CaseConfig.federated,
    "churny": CaseConfig.churny,
    "variants": CaseConfig.variants,
}

real_walk = subsumption.find_relevant
real_drops = ContainmentProbe.drops_bounded


@pytest.fixture
def inverted_guard(monkeypatch):
    """Invert ``drops_bounded`` where the walk asks it, and only there: the
    audit's own questions get the true answer."""
    walking = []

    def drops_bounded(self, signature):
        found = real_drops(self, signature)
        return not found if walking else found

    def find_relevant(cache, query, reports=None):
        walking.append(True)
        try:
            return real_walk(cache, query, reports)
        finally:
            walking.pop()

    monkeypatch.setattr(ContainmentProbe, "drops_bounded", drops_bounded)
    monkeypatch.setattr(subsumption, "find_relevant", find_relevant)
    monkeypatch.setattr(planner_module, "find_relevant", find_relevant)


def failing_case(profile):
    for case in CaseGenerator(0, PROFILES[profile]()).corpus(CORPUS):
        if case_failure(case) is not None:
            return case
    pytest.fail(f"the inverted walk guard escaped the {profile} corpus")


class TestInvertedGuard:
    def test_the_walk_loses_the_match_and_the_audit_raises(self, inverted_guard):
        cache, _ = cache_with("wide(X, Z) :- b2(X, Z)")
        query = make_psj("q(X) :- b2(X, Z), Z > 1")
        reports = []
        assert subsumption.find_relevant(cache, query) == []
        assert subsumption.find_relevant(cache, query, reports) == []
        assert [r.prefiltered for r in reports] == [True]
        with pytest.raises(InvariantViolation, match="containment signature rejected E1"):
            subsumption.audit_prefilter(cache, query, reports)

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_killed_by_every_profile(self, inverted_guard, monkeypatch, profile):
        case = failing_case(profile)
        report = run_case(case)
        assert {d.kind for d in report.divergences} == {"unexpected-error"}
        assert all(
            "InvariantViolation: containment signature rejected" in d.detail
            for d in report.divergences
        )
        monkeypatch.undo()
        assert case_failure(case) is None

    def test_shrinks_to_a_tiny_repro(self, inverted_guard):
        case = failing_case("healthy")
        result = shrink(case, case_failure)
        # One query to store the element, one to be turned away from it.
        assert result.queries <= 3 and result.queries < result.original_queries
        assert case_failure(result.case) == result.reason
