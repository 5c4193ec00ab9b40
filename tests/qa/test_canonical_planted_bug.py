"""Acceptance: a planted canonicalizer bug is caught by the variants fuzz.

Mirror of ``test_differential.TestPlantedBugIsCaught`` for the canonical
cache tier: replace the interval-folding seam — ``implication._fold_upper``,
in the one fold the canonical key and the subsumption probe both read —
with a mutant that drops upper-bound conjuncts, and ``--profile variants``
must surface it as a ``wrong-rows`` divergence and shrink it to a minimal
repro.

The bug is exactly the failure class the ``variants`` profile exists to
catch: dropping ``X < c`` during folding collides inequivalent spellings
(``X < 3`` vs ``X < 7`` over the same template body) onto one canonical
key, so the canonical tier serves one query's cached rows for the other.
"""

import pytest

import repro.caql.implication as implication_module
from repro.caql.implication import _fold_upper as real_fold_upper
from repro.qa import CaseConfig, CaseGenerator, case_failure, run_case, shrink

CORPUS = 8  # the CI smoke corpus size


def _conjunct_dropping_fold_upper(interval, value, strict):
    """The planted bug: the upper-bound conjunct silently vanishes.

    Sound interval folding may only *tighten*; forgetting a bound makes
    the canonical key too coarse, which is invisible to every unit test
    of the fold itself and only observable as cross-query row reuse.
    """
    return


@pytest.fixture
def planted_bug(monkeypatch):
    # Patch the module attribute: the fold resolves its seam at call
    # time.  Shape plans hold no folded facts — every ask folds its own
    # constants — and every run parses fresh query objects, so no form
    # built with the real seam lingers.
    monkeypatch.setattr(
        implication_module, "_fold_upper", _conjunct_dropping_fold_upper
    )


def _failing_case():
    # Seed 0 is the CI smoke seed; the collision fires within the first
    # few cases (a template re-asked with a different hole constant).
    for case in CaseGenerator(0, CaseConfig.variants()).corpus(CORPUS):
        if case_failure(case) is not None:
            return case
    pytest.fail("planted bound-dropping bug escaped the variants corpus")


class TestPlantedCanonicalBugIsCaught:
    def test_detected_as_wrong_rows_divergence(self, planted_bug):
        case = _failing_case()
        report = run_case(case)
        assert report.failed
        kinds = {d.kind for d in report.divergences}
        assert "wrong-rows" in kinds
        # Only the cache-carrying variant can serve a colliding key's
        # rows; the oracle and cache-less baselines define the truth.
        assert {d.variant for d in report.divergences} <= {"full"}

    def test_shrinks_to_a_tiny_repro(self, planted_bug):
        case = _failing_case()
        result = shrink(case, case_failure)
        assert result.queries <= 3, (
            f"shrunk case still has {result.queries} queries "
            f"(from {result.original_queries})"
        )
        assert result.queries < result.original_queries
        assert "wrong-rows" in result.reason
        assert case_failure(result.case) == result.reason

    def test_clean_again_once_the_bug_is_fixed(self, planted_bug, monkeypatch):
        case = _failing_case()
        monkeypatch.setattr(implication_module, "_fold_upper", real_fold_upper)
        assert case_failure(case) is None
