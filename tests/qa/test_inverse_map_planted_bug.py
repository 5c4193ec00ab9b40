"""Acceptance: a planted inverse-mapping bug is killed on rows.

Companion of the other ``*_planted_bug`` files, for the one place
``match_element`` no longer folds: a covered query condition is renamed
*onto the element* (``subsumption._element_columns``, the inverse of the
occurrence mapping) and put to the fold the stored definition carries, so
the element is asked about its own columns.  Ask about the wrong ones and
it vouches for conditions it does not guarantee: they are skipped as
residuals and the cache serves rows the query excludes.

The mutant crosses the occurrences of a self-join — the only case in which
a wrong occurrence is still an occurrence of the right relation.  No audit
hook looks at residuals (they are switched off below to show it), so rows
are what kills it, against ``evaluate_conjunctive``.

Kill record for ROADMAP 8(c), CI smoke sizes at seed 0: healthy 0/150,
faulty 0/50, federated 0/75, churny 0/75, variants 0/50 — across all five
profiles ``_element_columns`` runs 986 times and never once for a
self-join element, so the differential net is blind here and this
hand-built case (with ``tests/core/test_subsumption.py``'s self-join
mappings, which see the lost match but not the rows) is what stands.
"""

import pytest

import repro.core.planner as planner_module
import repro.core.subsumption as subsumption
from repro.caql.psj import column
from repro.qa import case_failure, run_case
from repro.qa.generator import case_from_relations
from repro.relational.relation import relation_from_columns

real_element_columns = subsumption._element_columns


def _crossed(element_def, tag_map):
    """Each occurrence answers for the next one of the same relation."""
    twins: dict[tuple[str, int], list[str]] = {}
    for occ in element_def.occurrences:
        twins.setdefault((occ.pred, occ.arity), []).append(occ.tag)
    other = {
        tag: twin
        for tags in twins.values()
        for tag, twin in zip(tags, tags[1:] + tags[:1])
    }
    return {
        column(tag_map[occ.tag], position): column(other[occ.tag], position)
        for occ in element_def.occurrences
        for position in range(occ.arity)
    }


@pytest.fixture
def planted_bug(monkeypatch):
    monkeypatch.setattr(subsumption, "_element_columns", _crossed)
    monkeypatch.setattr(planner_module, "audit_prefilter", lambda *args: None)
    monkeypatch.setattr(planner_module, "audit_canonical", lambda query: None)


def _case():
    # Two-cycles: each occurrence's columns are joined to the other's, so
    # the join conditions read the same crossed and the match survives.
    # The view bounds one end, the drill both; crossed, the drill's
    # ``t0.c1 > 4`` is put to the element as ``t1.c1 > 4`` — the end the
    # view *does* bound — and is never re-applied.
    edges = relation_from_columns(
        "b0", a=[5, 2, 6, 7, 1, 9, 3], b=[2, 5, 7, 6, 9, 1, 8]
    )
    return case_from_relations(
        {"b0": edges},
        [
            "loop(X, Y) :- b0(X, Y), b0(Y, X), X > 4",
            "both(X, Y) :- b0(X, Y), b0(Y, X), X > 4, Y > 4",
        ],
    )


class TestPlantedInverseMapBugIsCaught:
    def test_killed_on_rows_with_every_audit_hook_off(self, planted_bug):
        report = run_case(_case())
        assert report.failed
        assert {d.kind for d in report.divergences} == {"wrong-rows"}
        # Only the variant that derives the drill from the cached view can
        # skip the residual; the oracle and the cache-less baselines agree.
        assert {d.variant for d in report.divergences} == {"full"}

    def test_a_mapping_without_a_twin_is_untouched(self, planted_bug):
        # No self-join, nothing to cross: the mutant is the real function.
        single = case_from_relations(
            {"b0": relation_from_columns("b0", a=[1, 5, 9], b=[2, 6, 7])},
            ["v(X, Y) :- b0(X, Y), X > 2", "q(X) :- b0(X, Y), X > 2, Y > 6"],
        )
        assert case_failure(single) is None

    def test_clean_again_once_the_bug_is_fixed(self, planted_bug, monkeypatch):
        monkeypatch.setattr(subsumption, "_element_columns", real_element_columns)
        assert case_failure(_case()) is None
