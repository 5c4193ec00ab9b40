"""Acceptance: planted bugs in the cache's two fast paths are caught, and where.

Companion of ``test_signature_planted_bug``, for what now runs in front of
the per-element work: the pin index that decides which elements a
subsumption probe hands to the containment signature at all, and the
running byte total that replaced re-summing every element on each store.

* ``type_strict`` — the pin index keys buckets on ``(type, value)``, so a
  query pinned to ``1.0`` misses an element pinned to ``1`` (``==`` says
  they are one value).  Such an element is never handed to the signature:
  its match is lost — a worse plan, never a wrong answer.  What tells is
  ``audit_prefilter``, which every auditing variant of the differential
  runner runs after each walk: an element the pin index skipped must
  match nothing.  No fuzz profile reaches it, though: at the pinned CI
  sizes, and on 500-case corpora of ``healthy`` and ``variants``, the
  generator never asks a query pinned to a respelled constant that a
  stored element subsumes (its respellings are re-asks of one view, which
  the canonical tier serves).  So the mutant is killed by a hand-built
  fuzz case, shrunk to a two-query repro, and by the property suite's
  "index-skip ⇒ signature-reject".
* ``forgetful`` — discarding an unpinned element forgets to subtract its
  bytes from the running total.  Killed by ``Cache.check_invariants`` —
  which the runner calls after every query — on the ``churny`` profile.
"""

import pytest
from hypothesis import Phase, given, settings

import repro.core.cache as cache_module
from repro.caql.eval import psj_of, result_schema
from repro.caql.implication import ContainmentProbe
from repro.caql.parser import parse_query
from repro.common.errors import InvariantViolation
from repro.core.cache import Cache
from repro.core.subsumption import audit_prefilter, find_relevant
from repro.qa import CaseConfig, CaseGenerator, case_failure, run_case, shrink
from repro.qa.generator import case_from_relations
from repro.relational.relation import Relation
from tests.core.test_signature_property import (
    check_index_skip_implies_signature_reject,
    index_pairs,
)

real_anchor = cache_module.pin_anchor
real_pins = ContainmentProbe.pins
real_discard = Cache.discard


def _typed(value):
    return type(value).__name__, value


def _type_strict(monkeypatch):
    def anchor(signature):
        found = real_anchor(signature)
        return None if found is None else (found[0], _typed(found[1]))

    def pins(self):
        found = real_pins(self)
        if found is None:
            return None
        return {slot: [_typed(v) for v in values] for slot, values in found.items()}

    monkeypatch.setattr(cache_module, "pin_anchor", anchor)
    monkeypatch.setattr(ContainmentProbe, "pins", pins)


def _forgetful(monkeypatch):
    def discard(self, element_id):
        element = self._elements.get(element_id)
        total = self._extension_bytes
        real_discard(self, element_id)
        if element is not None:
            self._extension_bytes = total  # the subtraction never happened

    monkeypatch.setattr(Cache, "discard", discard)


def make_psj(text):
    return psj_of(parse_query(text))


class TestTypeStrictBucket:
    ELEMENT = "e(Y) :- r(1, Y)"
    QUERY = "q(Y) :- r(1.0, Y), Y > 2"

    def cache(self):
        cache = Cache()
        psj = make_psj(self.ELEMENT)
        cache.store(psj, Relation(result_schema(psj.name, psj.arity)))
        return cache

    def probe(self, reports=None):
        return find_relevant(self.cache(), make_psj(self.QUERY), reports)

    def test_the_walk_loses_the_match_and_the_audit_raises(self, monkeypatch):
        assert [m.element.view_name for m in self.probe()] == ["e"]
        _type_strict(monkeypatch)
        assert self.probe() == []
        # Collecting reports walks the same way: the match is lost there
        # too, and the audit of that walk names the skip.
        reports = []
        assert self.probe(reports) == [] and reports == []
        with pytest.raises(InvariantViolation, match="pin index skipped E1"):
            audit_prefilter(self.cache(), make_psj(self.QUERY), reports)

    def case(self):
        rows = [(1, 2), (1, 3), (2, 5), (3, 1)]
        return case_from_relations(
            {"r": Relation(result_schema("r", 2), rows)},
            [
                "a(X) :- r(X, 5)",
                self.ELEMENT,
                "b(X, Y) :- r(X, Y), X > 1",
                self.QUERY,
                "c(X) :- r(X, 1)",
            ],
        )

    def test_caught_on_an_auditing_fuzz_variant_and_shrunk(self, monkeypatch):
        case = self.case()
        assert case_failure(case) is None
        _type_strict(monkeypatch)
        report = run_case(case)
        assert {d.kind for d in report.divergences} == {"unexpected-error"}
        assert all(
            "InvariantViolation: pin index skipped" in d.detail
            for d in report.divergences
        )
        result = shrink(case, case_failure)
        # One query to store the element, one to be skipped past it.
        assert result.queries == 2 < result.original_queries
        assert case_failure(result.case) == result.reason

    def test_killed_by_the_index_skip_property(self, monkeypatch):
        _type_strict(monkeypatch)

        @settings(
            max_examples=400,
            deadline=None,
            database=None,
            derandomize=True,
            phases=(Phase.generate, Phase.shrink),
        )
        @given(index_pairs())
        def index_skip_implies_signature_reject(pair):
            check_index_skip_implies_signature_reject(*pair)

        with pytest.raises(AssertionError, match="pin index skipped"):
            index_skip_implies_signature_reject()


class TestForgetfulByteTotal:
    CORPUS = 75  # the churny profile's CI size

    @staticmethod
    def failing_case():
        for case in CaseGenerator(0, CaseConfig.churny()).corpus(
            TestForgetfulByteTotal.CORPUS
        ):
            if case_failure(case) is not None:
                return case
        pytest.fail("planted byte-total bug escaped the churny corpus")

    def test_caught_by_check_invariants_on_churny(self, monkeypatch):
        _forgetful(monkeypatch)
        reason = case_failure(self.failing_case())
        assert reason.startswith("invariant: ") and "running byte total" in reason

    def test_shrinks_to_a_tiny_repro(self, monkeypatch):
        _forgetful(monkeypatch)
        case = self.failing_case()
        result = shrink(case, case_failure)
        assert result.queries <= 3 and result.queries <= result.original_queries
        assert "running byte total" in result.reason

    def test_clean_again_once_the_bug_is_fixed(self, monkeypatch):
        _forgetful(monkeypatch)
        case = self.failing_case()
        monkeypatch.undo()
        assert case_failure(case) is None
