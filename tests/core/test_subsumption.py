"""Tests for the subsumption algorithm — the paper's Section 5.3.2.

Naming follows the paper's running examples where possible (E11/E12/E13,
b2/b3, etc.).
"""

import sys
from dataclasses import replace
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.relational.expressions import Col, Comparison, Lit
from repro.relational.relation import Relation
from repro.caql.eval import evaluate_psj, psj_of, result_schema
from repro.caql.implication import ConditionSet, ContainmentProbe
from repro.caql.parser import parse_query
from repro.core.cache import Cache, pin_anchor
from repro.core.canonical import canonicalize
from repro.core.subsumption import (
    CandidateReport,
    derive_full,
    derive_full_lazy,
    derive_part,
    explain_candidates,
    find_relevant,
    match_element,
)


def make_psj(text):
    return psj_of(parse_query(text))


# A tiny database for end-to-end derivation checks.
B2_ROWS = [(x, z) for x in range(4) for z in range(4) if (x + z) % 2 == 0]
B3_ROWS = [(z, c, y) for z in range(4) for c in ("c2", "c3") for y in range(3)]
DB = {
    "b2": Relation(result_schema("b2", 2), B2_ROWS),
    "b3": Relation(result_schema("b3", 3), B3_ROWS),
}


def cache_with(*texts):
    """A cache holding the *actual* evaluation of each definition."""
    cache = Cache()
    elements = []
    for text in texts:
        psj = make_psj(text)
        relation = evaluate_psj(psj, DB.__getitem__)
        elements.append(cache.store(psj, relation))
    return cache, elements


class TestPaperExamples:
    """The b21 examples of Section 5.3.2 step 1."""

    def test_e1_subsumes_single_predicate_query(self):
        # Q_c1 = b21(X, 2); E1 = b21(X, Y) & b22(Y, Z): E1's b21 occurrence
        # can match (its conditions add the join, which is *more*
        # restrictive, so E1 must NOT fully subsume the single-literal Q).
        cache = Cache()
        e1_psj = make_psj("e1(X, Y, Z) :- b21(X, Y), b22(Y, Z)")
        e1 = cache.store(e1_psj, Relation(result_schema("e1", 3)))
        query = make_psj("q(X) :- b21(X, 2)")
        matches = list(match_element(e1, query))
        # The b21 occurrence of E1 maps, but E1's join condition with b22
        # cannot be implied by the query's conditions: no match.
        assert matches == []

    def test_e2_more_restricted_no_match(self):
        # E2 = b21(3, Y) cannot subsume Q = b21(X, 2): X ranges wider.
        cache = Cache()
        e2 = cache.store(make_psj("e2(Y) :- b21(3, Y)"), Relation(result_schema("e2", 1)))
        query = make_psj("q(X) :- b21(X, 2)")
        assert list(match_element(e2, query)) == []

    def test_e2_projection_loss_also_blocks(self):
        # Even b21(3, Y) vs the query b21(3, 2): E2 projects only Y, the
        # query needs X=3 — available as a constant, fine; but residual
        # condition on Y=2 needs Y, which *is* projected: match succeeds.
        cache = Cache()
        e2 = cache.store(make_psj("e2(Y) :- b21(3, Y)"), Relation(result_schema("e2", 1)))
        query = make_psj("q(3) :- b21(3, 2)")
        matches = list(match_element(e2, query))
        assert len(matches) == 1
        assert matches[0].is_full


class TestFullSubsumption:
    def test_unconstrained_scan_subsumes_selection(self):
        cache, (element,) = cache_with("scan(X, Z) :- b2(X, Z)")
        query = make_psj("q(Z) :- b2(2, Z)")
        matches = [m for m in match_element(element, query)]
        assert matches and matches[0].is_full
        derived = derive_full(matches[0], query)
        expected = evaluate_psj(query, DB.__getitem__)
        assert derived == expected

    def test_range_subsumes_narrower_range(self):
        cache, (element,) = cache_with("wide(X, Z) :- b2(X, Z), X < 3")
        query = make_psj("q(X, Z) :- b2(X, Z), X < 2")
        (match,) = list(match_element(element, query))
        assert match.is_full
        derived = derive_full(match, query)
        assert derived == evaluate_psj(query, DB.__getitem__)

    def test_narrow_does_not_subsume_wide(self):
        cache, (element,) = cache_with("narrow(X, Z) :- b2(X, Z), X < 2")
        query = make_psj("q(X, Z) :- b2(X, Z), X < 3")
        assert list(match_element(element, query)) == []

    def test_join_element_subsumes_join_query(self):
        cache, (element,) = cache_with("j(X, Z, C, Y) :- b2(X, Z), b3(Z, C, Y)")
        query = make_psj("q(X, Y) :- b2(X, Z), b3(Z, c2, Y)")
        matches = [m for m in match_element(element, query) if m.is_full]
        assert matches
        derived = derive_full(matches[0], query)
        assert derived == evaluate_psj(query, DB.__getitem__)

    def test_exact_match_has_no_residual(self):
        cache, (element,) = cache_with("s(Z) :- b2(2, Z)")
        query = make_psj("q(Z) :- b2(2, Z)")
        (match,) = [m for m in match_element(element, query) if m.is_full]
        assert match.is_full and not match.residual_conditions

    def test_projection_must_survive(self):
        # Element projects only X; query needs Z for its projection.
        cache, (element,) = cache_with("narrow(X) :- b2(X, Z)")
        query = make_psj("q(X, Z) :- b2(X, Z)")
        assert list(match_element(element, query)) == []

    def test_residual_condition_needs_projected_column(self):
        # Element projects only X; query filters on Z.
        cache, (element,) = cache_with("narrow(X) :- b2(X, Z)")
        query = make_psj("q(X) :- b2(X, 2)")
        assert list(match_element(element, query)) == []

    def test_implied_residual_skipped(self):
        cache, (element,) = cache_with("same(X, Z) :- b2(X, Z), X < 2")
        query = make_psj("q(X, Z) :- b2(X, Z), X < 2")
        (match,) = [m for m in match_element(element, query) if m.is_full]
        assert match.residual_conditions == ()

    def test_constant_answer_positions(self):
        cache, (element,) = cache_with("scan(X, Z) :- b2(X, Z)")
        query = make_psj("q(Z, marker) :- b2(2, Z)")
        (match,) = [m for m in match_element(element, query) if m.is_full]
        derived = derive_full(match, query)
        assert all(row[1] == "marker" for row in derived)


class TestSelfJoinMapping:
    def test_self_join_query_against_single_occurrence_element(self):
        cache, (element,) = cache_with("scan(X, Z) :- b2(X, Z)")
        query = make_psj("q(X, Y) :- b2(X, Z), b2(Z, Y)")
        matches = list(match_element(element, query))
        # The single-occurrence element can cover either occurrence.
        assert len(matches) == 2
        assert all(not m.is_full for m in matches)
        covered = {next(iter(m.covered_tags)) for m in matches}
        assert covered == {"t0", "t1"}

    def test_two_occurrence_element_against_self_join(self):
        cache, (element,) = cache_with("pairs(X, Z, Y) :- b2(X, Z), b2(Z, Y)")
        query = make_psj("q(X, Y) :- b2(X, Z), b2(Z, Y)")
        full = [m for m in match_element(element, query) if m.is_full]
        assert full
        derived = derive_full(full[0], query)
        assert derived == evaluate_psj(query, DB.__getitem__)


class TestPartialMatches:
    def test_partial_coverage_of_join_query(self):
        # The paper's E12: b3(X, c2, Y) can compute the b3 part of
        # d2(X, c6) = b2(X, Z) & b3(Z, c2, c6).
        cache, (e12,) = cache_with("e12(X, Y) :- b3(X, c2, Y)")
        query = make_psj("d2(X) :- b2(X, Z), b3(Z, c2, c6)")
        matches = list(match_element(e12, query))
        assert len(matches) == 1
        match = matches[0]
        assert not match.is_full
        assert match.covered_tags == frozenset({"t1"})

    def test_e13_also_relevant(self):
        # E13 = b3(X, Y, Z) unconstrained also covers the b3 part.
        cache, (e13,) = cache_with("e13(X, Y, Z) :- b3(X, Y, Z)")
        query = make_psj("d2(X) :- b2(X, Z), b3(Z, c2, c6)")
        matches = list(match_element(e13, query))
        assert len(matches) == 1
        assert matches[0].covered_tags == frozenset({"t1"})

    def test_derive_part_values(self):
        cache, (e13,) = cache_with("e13(X, Y, Z) :- b3(X, Y, Z)")
        query = make_psj("d2(X) :- b2(X, Z), b3(Z, c2, c6)")
        (match,) = list(match_element(e13, query))
        part = derive_part(match, ["t1.c0"])
        # Rows of b3 with c2/c6 in positions 1/2, projected to position 0.
        expected = {(z,) for (z, c, y) in B3_ROWS if c == "c2" and y == "c6"}
        assert set(part.rows) == expected

    def test_derive_part_missing_column_rejected(self):
        cache, (e12,) = cache_with("e12(X) :- b3(X, c2, c6)")
        query = make_psj("d2(X) :- b2(X, Z), b3(Z, c2, c6)")
        matches = list(match_element(e12, query))
        (match,) = matches
        with pytest.raises(ValueError):
            derive_part(match, ["t1.c2"])


class TestFindRelevant:
    def test_paper_example_relevant_set(self):
        # Section 5.3.2: cache = {E11, E12, E13}; query d2(X, c6).
        cache, elements = cache_with(
            "e11(X, Y) :- b2(X, c1), b3(Y, c2, c6)",
            "e12(X, Y) :- b3(X, c2, Y)",
            "e13(X, Y, Z) :- b3(X, Y, Z)",
        )
        query = make_psj("d2(X) :- b2(X, Z), b3(Z, c2, c6)")
        matches = find_relevant(cache, query)
        relevant_ids = {m.element.element_id for m in matches}
        # E12 and E13 can compute the b3 part (the paper's conclusion).
        assert elements[1].element_id in relevant_ids
        assert elements[2].element_id in relevant_ids

    def test_full_matches_sorted_first(self):
        cache, elements = cache_with(
            "part(X) :- b3(X, c2, c6)",
            "whole(X, Z) :- b2(X, Z), b3(Z, c2, c6)",
        )
        query = make_psj("d2(X) :- b2(X, Z), b3(Z, c2, c6)")
        matches = find_relevant(cache, query)
        assert matches[0].is_full

    def test_tied_full_matches_keep_creation_order(self):
        # Several structurally equivalent full matches tie under the sort
        # key; the stable sort must then keep element-creation order (the
        # planner derives from the first).  A hash-ordered candidate walk
        # made this differ between processes for the same seed.
        cache, elements = cache_with(
            "wide1(X, Y, Z) :- b3(X, Y, Z)",
            "wide2(Z, Y, X) :- b3(X, Y, Z)",
            "wide3(Y, X, Z) :- b3(X, Y, Z)",
        )
        query = make_psj("d(X) :- b3(X, c2, c6)")
        matches = find_relevant(cache, query)
        full = [m.element.element_id for m in matches if m.is_full]
        assert full == [e.element_id for e in elements]

    def test_one_shared_condition_set_matches_like_one_per_element(self):
        # Every candidate is asked against the one ConditionSet the
        # query's canonical form carries; probing with it must leave
        # nothing behind that changes a later candidate's verdict.
        cache, elements = cache_with(
            "narrow(X, Y) :- b3(X, c2, Y), Y < 1",
            "e12(X, Y) :- b3(X, c2, Y)",
            "joined(X, Z) :- b2(X, Z), b3(Z, c2, c6)",
            "e13(X, Y, Z) :- b3(X, Y, Z)",
        )
        query = make_psj("d2(X, Y) :- b2(X, Z), b3(Z, c2, Y), Y < 2")
        one_by_one = [m for e in elements for m in match_element(e, query)]
        assert one_by_one
        assert sorted(find_relevant(cache, query), key=str) == sorted(one_by_one, key=str)
        assert {m.element.element_id for m in one_by_one} == {
            elements[1].element_id,
            elements[3].element_id,
        }

    def test_an_unhashable_constant_is_probed_not_leaked(self):
        # Exclusions are a list, so an unhashable constant is a value: the
        # probe returns instead of leaking ``TypeError: unhashable type``.
        cache, (wide, narrow) = cache_with(
            "wide(X, Z) :- b2(X, Z)", "narrow(X, Z) :- b2(X, Z), X > 1"
        )
        base = make_psj("q(X, Z) :- b2(X, Z), X > 2")
        listed = replace(
            base,
            conditions=base.conditions + (Comparison(Col("t0.c0"), "!=", Lit([1, 2])),),
        )
        residuals = {
            m.element.element_id: len(m.residual_conditions)
            for m in find_relevant(cache, listed)
        }
        # ``wide`` re-applies both conditions; ``narrow`` already holds only
        # numbers above 1, none of which is a list.
        assert residuals == {wide.element_id: 2, narrow.element_id: 1}

    def test_unrelated_elements_ignored(self):
        cache, _ = cache_with("other(X, Z) :- b2(X, Z)")
        query = make_psj("q(X, Y, Z) :- b3(X, Y, Z)")
        assert find_relevant(cache, query) == []

    def test_element_with_extra_predicate_ignored(self):
        cache, _ = cache_with("j(X, Z, C, Y) :- b2(X, Z), b3(Z, C, Y)")
        query = make_psj("q(X, Z) :- b2(X, Z)")
        assert find_relevant(cache, query) == []


class TestProbeCost:
    """A probe pays ``match_element`` for what can match, not for what
    shares a relation name."""

    @staticmethod
    def examined_by_a_new_drill(monkeypatch, stored_drills):
        from repro.core import subsumption

        cache = Cache()
        texts = ["wide(X, Z) :- b2(X, Z)"]
        # Narrow drills under the wide view, no two alike: a pin on either
        # column, or a range, each with its own constant.
        for n in range(stored_drills):
            texts.append(
                [
                    f"d{n}(Z) :- b2({n}, Z)",
                    f"d{n}(X) :- b2(X, {n})",
                    f"d{n}(X, Z) :- b2(X, Z), X >= {n}, X < {n + 2}",
                ][n % 3]
            )
        for text in texts:
            psj = make_psj(text)
            cache.store(psj, Relation(result_schema(psj.name, psj.arity)))
        assert len(cache) == stored_drills + 1

        examined = []
        real = subsumption.match_element

        def counting(element, *args, **kwargs):
            examined.append(element.definition.name)
            return real(element, *args, **kwargs)

        monkeypatch.setattr(subsumption, "match_element", counting)
        reports = []
        query = make_psj("q(X, Z) :- b2(X, Z), X >= 1000, X < 1001, Z = 2000")
        matches = find_relevant(cache, query, reports)
        assert [m.element.definition.name for m in matches] == ["wide"]
        walked = list(examined)
        # The walk reports what it visited; explain still lists every
        # candidate, the pin-skipped ones included.
        assert [r.element_id for r in reports if not r.prefiltered] == ["E1"]
        assert len(explain_candidates(cache, query)) == stored_drills + 1
        return walked

    def test_match_element_calls_do_not_grow_with_the_cache(self, monkeypatch):
        few = self.examined_by_a_new_drill(monkeypatch, 6)
        monkeypatch.undo()
        many = self.examined_by_a_new_drill(monkeypatch, 60)
        assert few == many == ["wide"]

    @staticmethod
    def signature_checks_by_a_plain_probe(monkeypatch, stored_drills):
        cache = Cache()
        texts = ["wide(X, Z) :- b2(X, Z)"]
        # Drills pinned on either column, each to a constant the probe's
        # query does not pin there.
        for n in range(stored_drills):
            texts.append([f"d{n}(Z) :- b2({n}, Z)", f"d{n}(X) :- b2(X, {n})"][n % 2])
        for text in texts:
            psj = make_psj(text)
            cache.store(psj, Relation(result_schema(psj.name, psj.arity)))

        checked = []
        real = ContainmentProbe.rejection

        def counting(self, signature):
            checked.append(signature)
            return real(self, signature)

        monkeypatch.setattr(ContainmentProbe, "rejection", counting)
        query = make_psj("q(X, Z) :- b2(X, Z), X >= 1000, X < 1001, Z = 2000")
        matches = find_relevant(cache, query)
        assert [m.element.definition.name for m in matches] == ["wide"]
        return len(checked)

    def test_signature_checks_do_not_grow_with_the_cache(self, monkeypatch):
        # The plain path asks the pin index first: a drill pinned to another
        # constant is never handed to the signature test at all.
        few = self.signature_checks_by_a_plain_probe(monkeypatch, 6)
        monkeypatch.undo()
        many = self.signature_checks_by_a_plain_probe(monkeypatch, 60)
        assert few == many == 1


class TestDroppedColumns:
    """The plain walk turns an element away when the query bounds a
    column the element's projection drops, by a condition its own
    conditions do not imply: every mapping would have to re-apply it on a
    column the stored rows do not have."""

    @staticmethod
    def examined(monkeypatch, view, drill, reports=None):
        from repro.core import subsumption

        cache, (element,) = cache_with(view)
        examined = []
        real = subsumption.match_element

        def counting(element, *args, **kwargs):
            examined.append(element.element_id)
            return real(element, *args, **kwargs)

        monkeypatch.setattr(subsumption, "match_element", counting)
        matches = find_relevant(cache, make_psj(drill), reports)
        return examined, matches

    def test_a_bound_dropped_column_is_never_matched(self, monkeypatch):
        examined, matches = self.examined(
            monkeypatch, "v(X) :- b2(X, Z)", "q(X) :- b2(X, Z), Z > 1"
        )
        assert (examined, matches) == ([], [])

    def test_an_implied_bound_on_a_dropped_column_still_matches(self, monkeypatch):
        examined, matches = self.examined(
            monkeypatch, "v(X) :- b2(X, Z), Z > 1", "q(X) :- b2(X, Z), Z > 1, X > 0"
        )
        assert examined == ["E1"] and [m.is_full for m in matches] == [True]
        assert [str(c) for c in matches[0].residual_conditions] == ["a0 > 0"]

    def test_a_kept_column_is_re_applied(self, monkeypatch):
        examined, matches = self.examined(
            monkeypatch, "v(X, Z) :- b2(X, Z)", "q(X) :- b2(X, Z), Z > 1"
        )
        assert examined == ["E1"] and len(matches[0].residual_conditions) == 1

    def test_a_projected_dropped_column_is_never_matched(self, monkeypatch):
        examined, matches = self.examined(
            monkeypatch, "v(X) :- b2(X, Z)", "q(X, Z) :- b2(X, Z)"
        )
        assert (examined, matches) == ([], [])

    def test_another_occurrence_that_keeps_it_still_matches(self, monkeypatch):
        # t1's second column is projected, t0's is not: the element maps
        # onto t0 as a partial match.
        examined, matches = self.examined(
            monkeypatch, "v(X) :- b2(X, Z)", "q(X, W) :- b2(X, Z), b2(V, W)"
        )
        assert examined == ["E1"]
        assert [sorted(m.covered_tags) for m in matches] == [["t0"]]

    @staticmethod
    def explained(monkeypatch, view, drill):
        """The walk's one report, and ``match_element``'s own reasons for
        the pair it turned away."""
        reports = []
        examined, matches = TestDroppedColumns.examined(monkeypatch, view, drill, reports)
        assert (examined, matches) == ([], [])
        (report,) = reports
        assert report.prefiltered
        cache, (element,) = cache_with(view)
        reasons = []
        assert list(match_element(element, make_psj(drill), reasons)) == []
        return report.rejections, tuple(reasons)

    def test_a_projected_dropped_column_is_explained_per_mapping(self, monkeypatch):
        assert self.explained(
            monkeypatch, "v(X) :- b2(X, Z)", "q(X, Z) :- b2(X, Z)"
        ) == (
            (
                "element projects away t0.c1, and every query occurrence it "
                "could map onto projects or bounds one of them",
            ),
            (
                "[t0->t0] the query projects t0.c1 but the element projected "
                "that column away",
            ),
        )

    def test_a_walk_that_shows_its_working_explains_it_per_mapping(self, monkeypatch):
        # Collecting reports decides by the plain walk's tier, the dropped
        # column; match_element, run on its own, explains it per mapping.
        assert self.explained(
            monkeypatch, "v(X) :- b2(X, Z)", "q(X) :- b2(X, Z), Z > 1"
        ) == (
            (
                "element projects away t0.c1, and every query occurrence it "
                "could map onto projects or bounds one of them",
            ),
            (
                "[t0->t0] query condition t0.c1 > 1 must be re-applied but its "
                "columns were projected away by the element",
            ),
        )


class TestMatchPlans:
    """A stored view is matched against a query *shape* once: every later
    ask of the shape only reads its own constants."""

    DRILLS = 20

    def drill_stream(self, monkeypatch, spell=lambda psj: psj):
        from repro.core import subsumption

        calls = {"_assignments": 0, "_element_columns": 0}
        for name in calls:
            real = getattr(subsumption, name)

            def counting(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(subsumption, name, counting)
        cache, (element,) = cache_with("wide(X, Z) :- b2(X, Z)")
        for n in range(self.DRILLS):
            drill = spell(make_psj(f"d{n}(X) :- b2(X, Z), X >= {n}, Z < {n + 100}"))
            (match,) = find_relevant(cache, drill)
            # The residual is this ask's own: the view keeps both columns.
            assert [str(c) for c in match.residual_conditions] == [
                f"a0 >= {n}",
                f"a1 < {n + 100}",
            ]
            assert match.projection == ("a0",)
        return calls, element

    def test_mappings_and_the_inverse_map_are_built_once_per_shape(self, monkeypatch):
        calls, element = self.drill_stream(monkeypatch)
        assert calls == {"_assignments": 1, "_element_columns": 1}
        assert len(element.match_plans) == 1

    def test_a_query_no_shape_bound_is_planned_per_ask(self, monkeypatch):
        calls, element = self.drill_stream(
            monkeypatch, lambda psj: replace(psj, name=psj.name)
        )
        assert calls == {"_assignments": self.DRILLS, "_element_columns": self.DRILLS}
        assert element.match_plans == {}

    def test_pinned_answers_are_the_asks_own(self):
        cache, _ = cache_with("wide(X, Z) :- b2(X, Z)")
        for n in range(3):
            (match,) = find_relevant(cache, make_psj(f"p(X, {n}) :- b2(X, {n})"))
            assert match.projection[1].value == n


class TestFoldCount:
    """One fold per definition: the probe and ``match_element`` read the
    folds the two canonical forms carry and build none of their own."""

    DRILLS = 12

    @classmethod
    def folds_over_a_drill_stream(cls, monkeypatch, views):
        sites = []
        real = ConditionSet.__init__
        real_from_plan = ConditionSet.from_plan.__func__

        def counting(self, conditions):
            sites.append(sys._getframe(1).f_code.co_name)
            real(self, conditions)

        def counting_from_plan(klass, plan, values):
            sites.append(sys._getframe(1).f_code.co_name)
            return real_from_plan(klass, plan, values)

        monkeypatch.setattr(ConditionSet, "__init__", counting)
        monkeypatch.setattr(ConditionSet, "from_plan", classmethod(counting_from_plan))
        cache = Cache()
        for n in range(views):
            psj = make_psj(f"w{n}(X, Y) :- b2(X, Y), X < {1000 + n}")
            cache.store(psj, Relation(result_schema(psj.name, psj.arity)))
        survivors = 0
        for n in range(cls.DRILLS):
            drill = make_psj(
                f"q{n}(X, Z) :- b2(X, Y), b2(Y, Z), X < {n + 5}, Y < {n + 7}"
            )
            survivors += len(find_relevant(cache, drill))
        # Every view covers either hop of every drill: two mappings each.
        assert survivors == 2 * views * cls.DRILLS
        monkeypatch.undo()
        return sites

    def test_folds_equal_distinct_definitions_whatever_survives(self, monkeypatch):
        few = self.folds_over_a_drill_stream(monkeypatch, 2)
        many = self.folds_over_a_drill_stream(monkeypatch, 9)
        # Stored views plus drills; nothing per probe, candidate or mapping.
        assert len(few) == 2 + self.DRILLS
        assert len(many) == 9 + self.DRILLS
        # ... and every one of them the canonicalizer's — the fold a
        # shape plan binds (``FormPlan.bind``) — none in
        # ``ContainmentProbe.__init__``, none in ``match_element``.
        assert set(few) == set(many) == {"bind"}


class TestLazyDerivation:
    def test_lazy_matches_eager(self):
        cache, (element,) = cache_with("scan(X, Z) :- b2(X, Z)")
        query = make_psj("q(Z) :- b2(2, Z)")
        (match,) = [m for m in match_element(element, query) if m.is_full]
        lazy = derive_full_lazy(match, query)
        eager = derive_full(match, query)
        assert lazy.to_extension() == eager

    def test_lazy_produces_on_demand(self):
        cache, (element,) = cache_with("scan(X, Z) :- b2(X, Z)")
        query = make_psj("q(X, Z) :- b2(X, Z)")
        (match,) = [m for m in match_element(element, query) if m.is_full]
        lazy = derive_full_lazy(match, query)
        assert lazy.produced_count == 0
        list(islice(lazy, 2))
        assert lazy.produced_count == 2

    def test_derive_full_on_partial_rejected(self):
        cache, (e12,) = cache_with("e12(X, Y) :- b3(X, c2, Y)")
        query = make_psj("d2(X) :- b2(X, Z), b3(Z, c2, c6)")
        (match,) = list(match_element(e12, query))
        with pytest.raises(ValueError):
            derive_full(match, query)


# -- property test: subsumption-derived results equal direct evaluation -----------

ELEMENT_TEXTS = [
    "e(X, Z) :- b2(X, Z)",
    "e(X, Z) :- b2(X, Z), X < 3",
    "e(Z) :- b2(1, Z)",
    "e(X, Z, C, Y) :- b2(X, Z), b3(Z, C, Y)",
    "e(X, Y) :- b3(X, c2, Y)",
]
QUERY_TEXTS = [
    "q(Z) :- b2(1, Z)",
    "q(X, Z) :- b2(X, Z), X < 2",
    "q(X) :- b2(X, 2)",
    "q(X, Y) :- b2(X, Z), b3(Z, c2, Y)",
    "q(Y) :- b3(1, c2, Y)",
    "q(X, Z) :- b2(X, Z)",
]
element_texts = st.sampled_from(ELEMENT_TEXTS)
query_texts = st.sampled_from(QUERY_TEXTS)


@given(element_texts, query_texts)
def test_full_match_derivation_is_correct(element_text, query_text):
    """Whenever subsumption claims a full match, deriving through it must
    equal evaluating the query directly against the database."""
    cache = Cache()
    element_psj = make_psj(element_text)
    element = cache.store(element_psj, evaluate_psj(element_psj, DB.__getitem__))
    query = make_psj(query_text)
    for match in match_element(element, query):
        if match.is_full:
            derived = derive_full(match, query)
            assert derived == evaluate_psj(query, DB.__getitem__)


# -- the probe and its rationale are one walk ---------------------------------------


@pytest.mark.parametrize("query_text", QUERY_TEXTS)
def test_collecting_reports_does_not_change_the_probe(query_text):
    """``find_relevant`` returns the same matches with and without report
    collection, and the reports are that same walk: their matches, in visit
    order, are the returned list before its (stable) sort."""
    cache, elements = cache_with(*ELEMENT_TEXTS)
    query = make_psj(query_text)
    plain = find_relevant(cache, query)
    reports = []
    collected = find_relevant(cache, query, reports)
    assert collected == plain

    visited = [match for report in reports for match in report.matches]
    assert sorted(
        visited,
        key=lambda m: (not m.is_full, -len(m.covered_tags), len(m.residual_conditions)),
    ) == plain
    # One report per candidate the pin index enumerates, each either
    # matched or carrying the reason it was rejected.
    probe = ContainmentProbe(query, canonicalize(query).conditions)
    enumerated = {
        e.element_id
        for pred in query.predicates()
        for e in cache.elements_for_predicate(pred, probe.pins())
    }
    assert sorted(r.element_id for r in reports) == sorted(enumerated)
    assert all(r.matched or r.rejections for r in reports)
    # ``explain_candidates`` is the same reports and one for every other
    # candidate sharing a predicate with the query, naming the anchor the
    # pin index skipped it on, matched ones first.
    query_preds = set(query.predicates())
    candidates = [
        e for e in elements if query_preds & set(e.definition.predicates())
    ]
    skipped = []
    for e in candidates:
        if e.element_id not in enumerated:
            ((pred, arity), position), value = pin_anchor(e.signature)
            reason = (
                f"pin index: the element pins {pred}/{arity} argument {position} "
                f"to {value!r}, which the query does not pin there"
            )
            skipped.append(
                CandidateReport(e.element_id, e.view_name, (), (reason,), prefiltered=True)
            )
    assert len(reports) + len(skipped) == len(candidates)
    assert explain_candidates(cache, query) == sorted(
        reports + skipped, key=lambda r: (not r.matched, r.element_id)
    )
