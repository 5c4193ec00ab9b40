"""Differential runner: clean corpora, determinism, and bug detection.

The last class is the acceptance test for the whole subsystem: plant a
real bug (the executor's full-match derivation silently drops residual
conditions), and the fuzzer must catch it as a ``wrong-rows`` divergence
and shrink the failing case to a handful of queries.
"""

from dataclasses import replace

import pytest

import repro.core.subsumption as subsumption_module
from repro.core.subsumption import derive_full as real_derive_full
from repro.qa import (
    CaseGenerator,
    case_failure,
    run_case,
    run_corpus,
    shrink,
)

CORPUS = 8  # small on purpose: this runs on every push


class TestCleanCorpus:
    def test_healthy_corpus_is_clean(self):
        cases = CaseGenerator(0).corpus(CORPUS)
        report = run_corpus(cases, seed=0)
        assert not report.failed_cases, (
            f"divergences={report.divergences} violations={report.violations} "
            f"failed={report.failed_cases}"
        )
        assert report.cases == CORPUS
        assert report.degraded_answers == 0  # healthy links never degrade

    def test_report_fingerprint_is_deterministic(self):
        generator = CaseGenerator(42)
        first = run_corpus(generator.corpus(4), seed=42)
        second = run_corpus(generator.corpus(4), seed=42)
        assert first.corpus_fingerprint == second.corpus_fingerprint
        assert first.fingerprint() == second.fingerprint()

    def test_outcomes_cover_every_query_and_variant(self):
        case = CaseGenerator(0).generate(0)
        report = run_case(case)
        from repro.qa import VARIANTS

        assert len(report.outcomes) == len(case.queries) * len(VARIANTS)

    def test_case_failure_is_none_for_clean_case(self):
        assert case_failure(CaseGenerator(0).generate(1)) is None


def _residual_dropping_derive_full(match, query, prefiltered=None):
    """The planted bug: forget to re-apply residual selection conditions.

    This is exactly the class of subtle subsumption bug the differential
    fuzzer exists to catch — answers are a superset of the truth, only on
    queries served from a more general cached element.
    """
    if match.residual_conditions:
        match = replace(match, residual_conditions=())
    return real_derive_full(match, query, prefiltered=prefiltered)


@pytest.fixture
def planted_bug(monkeypatch):
    # Patch the subsumption module itself: the engine resolves
    # ``subsumption.derive_full`` at call time, so the bug lands on the
    # derivation seam both cache-using variants actually execute.
    monkeypatch.setattr(
        subsumption_module, "derive_full", _residual_dropping_derive_full
    )


class TestPlantedBugIsCaught:
    """Acceptance: an injected planner/executor bug is found and shrunk."""

    def _failing_case(self):
        # Seed 0 is the CI smoke seed; the bug fires within the first few
        # cases (a subsumed re-instantiation of a cached template).
        for case in CaseGenerator(0).corpus(CORPUS):
            if case_failure(case) is not None:
                return case
        pytest.fail("planted residual-dropping bug escaped the smoke corpus")

    def test_detected_as_wrong_rows_divergence(self, planted_bug):
        case = self._failing_case()
        report = run_case(case)
        assert report.failed
        kinds = {d.kind for d in report.divergences}
        assert "wrong-rows" in kinds
        # Only the variants with subsumption caching can be wrong; the
        # oracle and the cache-less baselines define the truth.
        assert {d.variant for d in report.divergences} <= {"full", "nocache"}

    def test_shrinks_to_a_tiny_repro(self, planted_bug):
        case = self._failing_case()
        result = shrink(case, case_failure)
        assert result.queries <= 3, (
            f"shrunk case still has {result.queries} queries "
            f"(from {result.original_queries})"
        )
        assert result.queries < result.original_queries
        assert "wrong-rows" in result.reason
        # The shrunk case must still fail, for the same class of reason.
        assert case_failure(result.case) == result.reason

    def test_clean_again_once_the_bug_is_fixed(self, planted_bug, monkeypatch):
        case = self._failing_case()
        monkeypatch.setattr(subsumption_module, "derive_full", real_derive_full)
        assert case_failure(case) is None
